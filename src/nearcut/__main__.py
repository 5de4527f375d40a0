"""``python -m nearcut``: the same command line as the ``nearcut`` script."""

import sys

from .cli import main

sys.exit(main())
