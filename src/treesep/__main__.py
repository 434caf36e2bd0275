"""`python -m treesep`: the `treesep` command."""

import sys

from .cli import main

sys.exit(main())
