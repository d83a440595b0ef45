"""Time exhaustive equilibrium enumeration on the p = 2 power family at M = 7.

    PYTHONPATH=src python scripts/enum_timing.py

First checks the criterion-6 per-start counts at M = 6
(120/120/240/720/2880).  Then enumerates every start x0 = 1..6 of
``power_family(7, 2)`` from a cold cache, 720² profile pairs, and prints the
per-start counts, the wall time split into the cold build of the value
tensors (``_pairwise_value_tensors``) and the six enumerations that reuse
them, the full (generation 2) garbage collections that ran during them, the
time to turn the six starts' certificates into JSON dicts as ``redblack
enum`` does, and the peak resident memory of the process.
The M = 7 counts must be 720/720/1440/4320/17280/86400, that is
(M - 1)! * (x0 - 1)! (README, criterion 6); the script exits 1 on any other
count.  It is kept out of the test suite because the M = 7 run takes seconds
and about 190 MiB.
"""

from __future__ import annotations

import gc
import resource
import sys
import time

import redblack as rb
from redblack.solver import _collector_paused, _pairwise_value_tensors

M6_COUNTS = [120, 120, 240, 720, 2880]
M7_COUNTS = [720, 720, 1440, 4320, 17280, 86400]


def main() -> int:
    table = rb.power_family(6, 2)
    counts = [len(rb.enumerate_equilibria(table, x0)) for x0 in range(1, 6)]
    if counts != M6_COUNTS:
        print(f"M = 6 counts {counts}, expected {M6_COUNTS}", file=sys.stderr)
        return 1
    print(f"M = 6 counts {counts}: ok")

    table = rb.power_family(7, 2)
    full_before = gc.get_stats()[2]["collections"]
    start = time.perf_counter()
    _pairwise_value_tensors(table)
    built = time.perf_counter()
    found = [rb.enumerate_equilibria(table, x0) for x0 in range(1, 7)]
    end = time.perf_counter()
    full = gc.get_stats()[2]["collections"] - full_before
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = [len(start_found) for start_found in found]
    if counts != M7_COUNTS:
        print(f"M = 7 counts {counts}, expected {M7_COUNTS}", file=sys.stderr)
        return 1
    print(f"M = 7 counts {counts}: ok")
    print(
        f"M = 7 all starts: {end - start:.2f} s (cold tensor build {built - start:.2f} s, "
        f"six warm enumerations {end - built:.2f} s), {full} full collection(s), "
        f"peak RSS {peak_mib:.0f} MiB"
    )
    # One start's dicts at a time, dropped before the next.
    converting = time.perf_counter()
    for start_found in found:
        with _collector_paused():
            dicts = [certificate.to_json_dict() for certificate in start_found]
        del dicts
    converted = time.perf_counter()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"M = 7 JSON dicts of all starts: {converted - converting:.2f} s, "
          f"peak RSS {peak_mib:.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
