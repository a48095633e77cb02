"""Script form of ``python -m benchmarks.suite``, runnable by path.

``python3 benchmarks/suite/run.py --workload check --seed 1 --seconds 30``
"""

import pathlib
import sys

if __name__ == "__main__":
    sys.path[0] = str(pathlib.Path(__file__).resolve().parents[2])
    from benchmarks.suite.cli import main

    sys.exit(main())
