"""``python -m cuntz``: the ``cuntz`` command without an installed script."""
import sys

from .cli import main

sys.exit(main())
