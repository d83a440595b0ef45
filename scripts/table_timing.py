"""Time table construction, the pair-form transform and the JSON round trip.

    PYTHONPATH=src python scripts/table_timing.py

Times ``power_family(M, 2)``, ``sincov_of``, ``WinProbTable.from_json_dict``
and ``WinProbTable.to_json_dict`` at M = 100, 300 and 1000.  Each figure is
the best of a few runs.  Before timing, it checks the frozen sha256 of
``canonical_json(power_family(M, 2).to_json_dict())`` at each M, and exits 1
on a mismatch, so a faster table that changes a bit is caught.  It is kept
out of the test suite because the M = 1000 builds take seconds.
"""

from __future__ import annotations

import hashlib
import sys
import time
from typing import Callable

import redblack as rb

REPEATS = 3
# sha256 of canonical_json(power_family(M, 2).to_json_dict()).
DIGESTS = {
    100: "f3e686be5a205a6db435bf4a9598c3e1a852abc8576a3d234a72572a9ad41e04",
    300: "cd91250d52ebd64144cc0e1dbc6ea9c36613b3eca69ebb94ac4e789c35852a3d",
    1000: "0ca3b5c5d2d831948b648aa4db329a9d5a7aa874549397038c072a95dbed6f93",
}


def _best(run: Callable[[], object]) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    failures = 0
    for M, expected in DIGESTS.items():
        table = rb.power_family(M, 2)
        payload = table.to_json_dict()
        digest = hashlib.sha256(rb.canonical_json(payload).encode("utf-8")).hexdigest()
        if digest != expected:
            print(f"power_family({M}, 2): sha256 {digest}, expected {expected}", file=sys.stderr)
            failures += 1
            continue
        timings = {
            "power_family": _best(lambda: rb.power_family(M, 2)),
            "sincov_of": _best(lambda: rb.sincov_of(table)),
            "from_json_dict": _best(lambda: rb.WinProbTable.from_json_dict(payload)),
            "to_json_dict": _best(table.to_json_dict),
        }
        print(f"M = {M}: " + ", ".join(f"{name} {t * 1e3:.1f} ms" for name, t in timings.items()))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
