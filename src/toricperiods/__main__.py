"""`python -m toricperiods`: the same command line as the `toricperiods` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
