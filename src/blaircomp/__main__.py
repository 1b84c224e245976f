"""``python -m blaircomp``: the same command line as the ``blaircomp`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
