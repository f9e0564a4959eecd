"""``python -m chebsqrt``: the ``chebsqrt`` command line of ``cli.main``."""

import sys

from .cli import main

sys.exit(main())
