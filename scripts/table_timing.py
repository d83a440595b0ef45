"""Time the table builders, the pair-form transform and the JSON round trip.

    PYTHONPATH=src python scripts/table_timing.py

Times the three family builders, ``power_family(M, 2)``,
``min_exp_table(M, 0.3)`` and ``exp_difference_table(M)``, then
``sincov_of``, ``WinProbTable.from_json_dict`` and
``WinProbTable.to_json_dict`` on the power table, at M = 100, 300 and 1000.
Each figure is the best of a few runs.  Before timing, it checks the frozen
sha256 of ``canonical_json(table.to_json_dict())`` for every builder at each
M, and exits 1 on a mismatch, so a faster builder that changes a bit is
caught at sizes the test suite does not reach.  It is kept out of the test
suite because the JSON round trips at M = 1000 take a while.
"""

from __future__ import annotations

import hashlib
import sys
import time
from typing import Callable

import redblack as rb

REPEATS = 3
BUILDERS: dict[str, Callable[[int], rb.WinProbTable]] = {
    "power_family(M, 2)": lambda M: rb.power_family(M, 2),
    "min_exp_table(M, 0.3)": lambda M: rb.min_exp_table(M, 0.3),
    "exp_difference_table(M)": rb.exp_difference_table,
}
# sha256 of canonical_json(table.to_json_dict()), per builder and M.
DIGESTS = {
    "power_family(M, 2)": {
        100: "f3e686be5a205a6db435bf4a9598c3e1a852abc8576a3d234a72572a9ad41e04",
        300: "cd91250d52ebd64144cc0e1dbc6ea9c36613b3eca69ebb94ac4e789c35852a3d",
        1000: "0ca3b5c5d2d831948b648aa4db329a9d5a7aa874549397038c072a95dbed6f93",
    },
    "min_exp_table(M, 0.3)": {
        100: "7afbd994f8c615b7295334a34f459657b5b42925d1bdd80e12b8bd2a1cb0aef8",
        300: "074ddc363c434b5be71f5c2463ebca531f622da633ea56cf84727fddb1a0107a",
        1000: "bdb8f6f38fe4015aa21ede6213f730248d39403d4c11dce853c7e8823b5cc0f4",
    },
    "exp_difference_table(M)": {
        100: "1688a8ef52611613ab4ec63769f69097892f3cb12d6043c531d1fcdd79814331",
        300: "b91d8d0cb2a698b34e1bdef1ba6828e9803ca426e4aed1e7e1a8312d157a8450",
        1000: "624cf2eb9081f0fb88dbde8495191b9fe5b910c918a3b5f259f2875467009067",
    },
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
    for M in (100, 300, 1000):
        timings = {}
        for name, build in BUILDERS.items():
            text = rb.canonical_json(build(M).to_json_dict())
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != DIGESTS[name][M]:
                expected = DIGESTS[name][M]
                print(f"{name} at M = {M}: sha256 {digest}, expected {expected}", file=sys.stderr)
                failures += 1
            timings[name.split("(")[0]] = _best(lambda: build(M))
        table = rb.power_family(M, 2)
        payload = table.to_json_dict()
        timings["sincov_of"] = _best(lambda: rb.sincov_of(table))
        timings["from_json_dict"] = _best(lambda: rb.WinProbTable.from_json_dict(payload))
        timings["to_json_dict"] = _best(table.to_json_dict)
        print(f"M = {M}: " + ", ".join(f"{name} {t * 1e3:.1f} ms" for name, t in timings.items()))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
