"""`python -m skewdd ...` runs the skewdd command line (skewdd.cli.main)."""

import sys

from .cli import main

sys.exit(main())
