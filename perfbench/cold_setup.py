"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python3 perfbench/cold_setup.py WORKLOAD SEED`` (with ``src`` on
``PYTHONPATH``).  Prints the seconds from the import of the workload module
(numpy, scipy and ``repro`` included) to the end of its ``setup``.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main() -> int:
    start = perf_counter()
    from workloads import WORKLOADS

    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name](seed).setup()
    print(repr(perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
