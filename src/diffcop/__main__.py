"""``python -m diffcop``: the command-line interface of `diffcop.cli`."""

import sys

from .cli import main

sys.exit(main())
