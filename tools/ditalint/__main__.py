"""Entry point for ``python -m ditalint`` (with ``tools/`` on the path)."""

import sys

from .cli import main

sys.exit(main())
