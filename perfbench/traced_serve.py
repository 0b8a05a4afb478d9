"""``python -m repro serve`` with the benchmark's spans installed.

Usage: ``python perfbench/traced_serve.py serve --port 0 --trace --trace-out T.jsonl``.
The arguments are those of ``python -m repro``; the daemon is the same
program, with :func:`perfbench.spans.install` applied first.
"""

import os
import sys

# Run as a script: put the repository root (not this directory) first on
# the path, so no benchmark module can shadow a standard-library one.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import spans  # noqa: E402
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    spans.install()
    sys.exit(main())
