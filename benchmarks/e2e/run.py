"""Entry point named by BENCHMARK.json: ``python3 benchmarks/e2e/run.py``.

Puts the checkout's root and ``src`` on the import path, so the benchmark
always measures the ``repro`` package of the checkout it sits in.
"""

import time

_PROCESS_START = time.perf_counter()  # before any heavy import: set-up is timed from here

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent.parent
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

if __name__ == "__main__":
    from benchmarks.e2e.cli import main

    sys.exit(main(process_start=_PROCESS_START))
