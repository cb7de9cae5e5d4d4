"""``python -m fasloc``: the same command as the ``fasloc`` console script."""

import sys

from .cli import main

sys.exit(main())
