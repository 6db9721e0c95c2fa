"""``python -m repro`` — the package's command-line entry point.

Dispatches to :func:`repro.cli.main`: ``python -m repro <verb>`` is
the one way to reach every verb.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
