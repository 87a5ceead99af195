"""``python -m bfsyz``: the ``bfsyz`` command, runnable from a source checkout."""

import sys

from .cli import main

sys.exit(main())
