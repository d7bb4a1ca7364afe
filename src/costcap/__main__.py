"""``python -m costcap``: the ``costcap`` command line."""

import sys

from .cli import main

sys.exit(main())
