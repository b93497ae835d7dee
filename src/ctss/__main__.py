"""``python -m ctss`` runs the same command line as the ``ctss`` script."""

import sys

from .cli import main

sys.exit(main())
