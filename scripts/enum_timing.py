"""Time exhaustive equilibrium enumeration on the power family at M = 7, 8 and 9.

    PYTHONPATH=src python scripts/enum_timing.py

First, in a process of its own, it enumerates the boundary start x0 = 0
of ``power_family(7, 2)`` from a cold cache and prints its wall time and
the peak resident memory of that process.  Every one of the 518 400 pairs
is an equilibrium there, worth the constants 0 and 1, so the count must be
518400 and no pair may be solved.

Then, with the cap raised to 9, it enumerates x0 = 1..5 of
``power_family(9, 2)``, whose counts must be 40320 * (x0 - 1)!
(40320/40320/80640/241920/967680), and of ``min_exp_table(9, 0.3)``, whose
counts must be 1592640/8640/2880/2880/2880, neither solving a pair.  Each
table runs in a process of its own, as the peak resident memory is counted
per process, and must peak under its limit in ``M9_TABLES``.  These three
processes run before anything else, as Linux starts a spawned process's
peak from the resident size of its parent.

Then it checks the criterion-6 per-start counts at M = 6
(120/120/240/720/2880).  Then enumerates every start x0 = 1..6 of two
cycling tables, ``power_family(7, p)`` for p = 1 and 2 with the entries
(1, 2) and (2, 1) forced to 1 and 0, from a cold cache, and prints each
table's counts, wall time and the peak resident memory so far.  Their counts
must be 29160/20400/19008/19008/20400/29160 and 0/0/390/1080/2880/14400.
Off the guard every candidate is in the band, so the pairs each start solves
while it enumerates, counted through ``redblack._enumeration._pair_values``,
the one pair solve, must equal these counts, each candidate being an
equilibrium there.  Then enumerates every start x0 = 1..6 of
``power_family(7, 2)`` from a cold cache and prints the per-start counts,
the wall time split into the cold build of the table's
enumeration state (every strategy and both players' best responses to each
of the other's, ``table_enumeration``) and the six enumerations that keep
their members' keys, which is all a caller that only counts pays.  Then it
times turning the six starts' sets into JSON dicts with
``to_json_dicts()``, as ``redblack enum`` does, which first solves the
members' values, and building every certificate with ``tuple(...)`` on the
same sets, as a caller that reads each one does, and prints the peak
resident memory of the process.  The M = 7 counts must be
720/720/1440/4320/17280/86400, that is (M - 1)! * (x0 - 1)! (README,
criterion 6), and no start may solve a pair while it enumerates.

Then, with the enumeration cap raised to 8, it enumerates x0 = 1..5 of
``power_family(8, 2)``, whose counts must be 5040 * (x0 - 1)!
(5040/5040/10080/30240/120960), and of ``min_exp_table(8, 0.3)``, whose
counts must be 8640 at x0 = 1 and 2880 at x0 = 2..5.  It prints each
table's wall time and the peak resident memory, which must stay under
``PEAK_RSS_LIMIT_MIB``.  The script exits 1 on any other count or a
higher peak.  It is kept out of the test
suite because it takes about ten seconds.
"""

from __future__ import annotations

import multiprocessing
import resource
import sys
import time

import redblack as rb
from redblack import _enumeration
from redblack._enumeration import Equilibria, table_enumeration

M6_COUNTS = [120, 120, 240, 720, 2880]
M7_COUNTS = [720, 720, 1440, 4320, 17280, 86400]
M7_CYCLING_COUNTS = {
    1: [29160, 20400, 19008, 19008, 20400, 29160],
    2: [0, 0, 390, 1080, 2880, 14400],
}
M8_COUNTS = {
    "power p = 2": (rb.power_family(8, 2), [5040, 5040, 10080, 30240, 120960]),
    "min-exp m = 0.3": (rb.min_exp_table(8, 0.3), [8640, 2880, 2880, 2880, 2880]),
}
PEAK_RSS_LIMIT_MIB = 300
# Per table: its maker, the counts at x0 = 1..5, and the limit in MiB on
# the peak resident memory of its own process.  The peaks met on a 2-vCPU
# Xeon (Python 3.11, numpy 2.4) were 72 and 92 MiB; each limit leaves 28 MiB
# above that.
M9_TABLES = {
    "power p = 2": (lambda: rb.power_family(9, 2), [40320, 40320, 80640, 241920, 967680], 100),
    "min-exp m = 0.3": (lambda: rb.min_exp_table(9, 0.3), [1592640, 8640, 2880, 2880, 2880], 120),
}
# The pairs solved so far, through the stand-in for _pair_values below.
SOLVED = [0]


def _counting_pair_values(table, firsts, seconds, keys, x0):
    SOLVED[0] += len(keys)
    return _pair_values(table, firsts, seconds, keys, x0)


_pair_values = _enumeration._pair_values
_enumeration._pair_values = _counting_pair_values


def _peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _enumerate(table: rb.WinProbTable, x0: int, **options) -> tuple[Equilibria, int]:
    """The equilibria of one start and the pairs solved to find them."""
    SOLVED[0] = 0
    return rb.enumerate_equilibria(table, x0, **options), SOLVED[0]


def _starts(table: rb.WinProbTable) -> tuple[list, list[int]]:
    """Each start's equilibria, x0 = 1..6, and the pairs each solved."""
    found, solved = zip(*(_enumerate(table, x0) for x0 in range(1, 7)))
    return list(found), list(solved)


def _in_own_process(target, *args) -> bool:
    """Run ``target(*args)`` in a spawned process; whether it exited 0."""
    sys.stdout.flush()
    child = multiprocessing.get_context("spawn").Process(target=target, args=args)
    child.start()
    child.join()
    return child.exitcode == 0


def main() -> int:
    if not all(_in_own_process(_enumerate_m9, name) for name in M9_TABLES):
        return 1
    if not _in_own_process(_boundary_m7):
        return 1
    table = rb.power_family(6, 2)
    counts = [len(rb.enumerate_equilibria(table, x0)) for x0 in range(1, 6)]
    if counts != M6_COUNTS:
        print(f"M = 6 counts {counts}, expected {M6_COUNTS}", file=sys.stderr)
        return 1
    print(f"M = 6 counts {counts}: ok")

    for p, expected in M7_CYCLING_COUNTS.items():
        table = rb.power_family(7, p).with_entry(1, 2, 1.0).with_entry(2, 1, 0.0)
        start = time.perf_counter()
        found, solved = _starts(table)
        end = time.perf_counter()
        counts = [len(start_found) for start_found in found]
        if counts != expected or solved != expected:
            print(f"M = 7 cycling p = {p} counts {counts}, solved {solved}, expected {expected} "
                  "for both", file=sys.stderr)
            return 1
        print(f"M = 7 cycling p = {p} counts {counts}, solved {solved}: ok, "
              f"x0 = 1..6 in {end - start:.2f} s, peak RSS {_peak_mib():.0f} MiB")

    table = rb.power_family(7, 2)
    start = time.perf_counter()
    table_enumeration(table)
    built = time.perf_counter()
    found, solved = _starts(table)
    end = time.perf_counter()
    counts = [len(start_found) for start_found in found]
    if counts != M7_COUNTS or any(solved):
        print(f"M = 7 counts {counts}, solved {solved}, expected {M7_COUNTS}, none",
              file=sys.stderr)
        return 1
    print(f"M = 7 counts {counts}, solved {solved}: ok")
    print(
        f"M = 7 all starts, counted: {end - start:.3f} s (cold best responses "
        f"{built - start:.3f} s, six enumerations {end - built:.3f} s), "
        f"peak RSS {_peak_mib():.0f} MiB"
    )
    # One start's dicts, or certificates, at a time, dropped before the next.
    for label, build in (("JSON dicts", Equilibria.to_json_dicts), ("certificates", tuple)):
        converting = time.perf_counter()
        for start_found in found:
            built_all = build(start_found)
            del built_all
        converted = time.perf_counter()
        print(f"M = 7 {label} of all starts: {converted - converting:.2f} s, "
              f"peak RSS {_peak_mib():.0f} MiB")
    del found

    for name, (table, expected) in M8_COUNTS.items():
        start = time.perf_counter()
        counts = [len(rb.enumerate_equilibria(table, x0, cap=8)) for x0 in range(1, 6)]
        end = time.perf_counter()
        if counts != expected:
            print(f"M = 8 {name} counts {counts}, expected {expected}", file=sys.stderr)
            return 1
        print(f"M = 8 {name} counts {counts}: ok, x0 = 1..5 in {end - start:.2f} s, "
              f"peak RSS {_peak_mib():.0f} MiB")
    if _peak_mib() >= PEAK_RSS_LIMIT_MIB:
        print(f"peak RSS {_peak_mib():.0f} MiB, over {PEAK_RSS_LIMIT_MIB} MiB", file=sys.stderr)
        return 1

    return 0


def _boundary_m7() -> None:
    """Enumerate x0 = 0 of ``power_family(7, 2)`` cold in this process and
    check that every pair is found and that neither the enumeration nor the
    read of its values solves a pair; exit 1 otherwise."""
    table = rb.power_family(7, 2)
    start = time.perf_counter()
    found, solved = _enumerate(table, 0)
    values = found.values
    end = time.perf_counter()
    if len(found) != 720 * 720 or SOLVED[0] != 0:
        print(f"M = 7 x0 = 0 count {len(found)}, solved {SOLVED[0]}, expected {720 * 720}, 0",
              file=sys.stderr)
        sys.exit(1)
    print(f"M = 7 x0 = 0 count {len(values)}, solved {solved}: ok, values read, cold in "
          f"{end - start:.2f} s, peak RSS {_peak_mib():.0f} MiB", flush=True)


def _enumerate_m9(name: str) -> None:
    """Enumerate x0 = 1..5 of one M = 9 table in this process and check its
    counts, that no pair is solved and its peak resident memory; exit 1 on a
    mismatch."""
    make, expected, limit = M9_TABLES[name]
    table = make()
    start = time.perf_counter()
    counts, solved = [], []
    for x0 in range(1, 6):
        found, pairs = _enumerate(table, x0, cap=9)
        counts.append(len(found))
        solved.append(pairs)
        del found
    end = time.perf_counter()
    if counts != expected or any(solved):
        print(f"M = 9 {name} counts {counts}, solved {solved}, expected {expected}, none",
              file=sys.stderr)
        sys.exit(1)
    print(f"M = 9 {name} counts {counts}, solved {solved}: ok, x0 = 1..5 in "
          f"{end - start:.2f} s, peak RSS {_peak_mib():.0f} MiB", flush=True)
    if _peak_mib() >= limit:
        print(f"M = 9 {name} peak RSS {_peak_mib():.0f} MiB, over {limit} MiB", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    sys.exit(main())
