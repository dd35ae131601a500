"""Benchmark worker process, started by run.py with PYTHONPATH=<checkout>/src.

Its first act is ``import gmarginal``; it then prints ``ready`` so that the
parent times set-up as launch until that import returned.  Benchmark code is
imported afterwards and serves at most one request (see measure.py).
"""

import sys

if __name__ == "__main__":
    import gmarginal  # noqa: F401  -- set-up ends when this import returns

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import measure

    raise SystemExit(measure.main())
