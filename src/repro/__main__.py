"""``python -m repro`` — the package's command-line entry point.

Dispatches to :mod:`repro.cli`, so ``python -m repro figure6`` and
``python -m repro run-all ...`` are equivalent to the longer
``python -m repro.cli`` spelling.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
