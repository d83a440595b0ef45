"""Time the value iteration, the best response and the Monte Carlo walk
behind the ``play`` workload.

    PYTHONPATH=src python scripts/play_timing.py

Times ``hitting_values(method="iterate")`` on fair timid-timid
(``power_family(M, 1)``) at M = 40, 80 and 160; ``best_response`` against
timid and bold player II on ``power_family(M, 2)`` at M = 150, 300 and
600; ``verify_nash`` of timid-timid and timid-bold from x0 = M / 2 at the
same sizes; and five simulations.  Bold-timid on ``power_family(150, 2)``
from x0 = 75 with 200 000 trials: short games, seven tiles of the block walk.
Fair timid-timid at M = 40 from x0 = 20, with 3 000 trials (one of which hits
the default horizon) and with 100 trials, the size of a replayed batch: long
games, many steps per block.  Fair timid-timid at M = 80 from x0 = 40 with
1 000 trials, 24 of which run to the horizon.  And timid-bold on
``power_family(150, 2)`` from x0 = 75 with 50 000 trials: nearly every game
runs all 75 steps to player I's ruin, so the tile stays full and each block
is one step.  Each simulation runs at ``jobs`` 1 and 2, and both times are
printed.  Then it replays the 100 trials of the fair M = 40 batch with
``replay_trials``, and prints their time and the bytes per stage the paths
hold under ``tracemalloc``.  Each figure is the best of a few runs.  Before
timing, it checks the frozen sweep counts of the iteration (the same for
both goals), the sha256 of its two value vectors (float64, little-endian,
goal M first), that both best responses are bold and that their values are,
to the bit, player I's ``hitting_values`` of the profile they play, that
both ``verify_nash`` verdicts are refutations by a bold player I, the frozen
simulation results at every job count, and that the replayed paths add up
to the same frozen result, and exits 1 on a mismatch.  Run with
``PYTHONPATH`` pointing at another checkout's ``src`` to time that checkout
on the same cases.
So the iteration's values stay checked to the bit at sizes the test suite
skips: the M = 160 iteration alone takes most of a second.
"""

from __future__ import annotations

import hashlib
import sys
import time
import tracemalloc
from typing import Callable

import numpy as np

import redblack as rb
from redblack.game import Player
from redblack.solver import _chain_arrays, _iterate_chain, _stake_rows

REPEATS = 3
# Each simulation is checked and timed at every job count: one tile walks in
# the calling thread whatever ``jobs`` is, several share up to ``jobs`` threads.
JOBS = (1, 2)
# Sweeps the iteration takes on fair timid-timid, per goal.
SWEEPS = {40: 7901, 80: 29831, 160: 112157}
# sha256 of the iterated value vectors toward M and toward 0, in that order.
DIGESTS = {
    40: "1146e7b3427553733849277852ed71a7bea492eeb5c6483e91e67db4d40a5653",
    80: "cd806d59ef08bfa84a2ad5a7884ce288de2afafef6936b82c9b198b442541967",
    160: "e658e64b8644d4d229bd2c6de85b47bcdfebf92289b0f57371d1af07a9bc745a",
}
# Sizes of the best responses to timid and bold player II on power p = 2.
RESPONSE_SIZES = (150, 300, 600)
# (wins_I, wins_II, truncated, total_steps, max_steps) of each simulation.
SIMULATIONS = {
    "bold-timid, power p = 2, M = 150": (
        rb.power_family(150, 2),
        rb.Profile.from_name("bold-timid", 150),
        rb.SimConfig(x0=75, trials=200_000, seed=12345),
        (49738, 150262, 0, 7559835, 75),
    ),
    "fair timid-timid, M = 40": (
        rb.power_family(40, 1),
        rb.Profile.from_name("timid-timid", 40),
        rb.SimConfig(x0=20, trials=3000, seed=7),
        (1539, 1460, 1, 1210280, 2560),
    ),
    "fair timid-timid, M = 40, 100 trials": (
        rb.power_family(40, 1),
        rb.Profile.from_name("timid-timid", 40),
        rb.SimConfig(x0=20, trials=100, seed=3),
        (45, 55, 0, 36914, 1410),
    ),
    "fair timid-timid, M = 80": (
        rb.power_family(80, 1),
        rb.Profile.from_name("timid-timid", 80),
        rb.SimConfig(x0=40, trials=1000, seed=11),
        (485, 491, 24, 1574436, 5120),
    ),
    "timid-bold, power p = 2, M = 150": (
        rb.power_family(150, 2),
        rb.Profile.from_name("timid-bold", 150),
        rb.SimConfig(x0=75, trials=50_000, seed=2024),
        (321, 49679, 0, 3735394, 75),
    ),
}
# The simulation whose trials are replayed: the size of perfbench's replays.
REPLAYED = "fair timid-timid, M = 40, 100 trials"


def _bits(values: tuple[float, ...]) -> bytes:
    return np.array(values).astype("<f8").tobytes()


def _best(run: Callable[[], object]) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    failures = 0
    for M, expected in SWEEPS.items():
        table = rb.power_family(M, 1)
        profile = rb.Profile.from_name("timid-timid", M)
        chain = _chain_arrays(table, _stake_rows([profile.first]), _stake_rows([profile.second]))
        values, sweeps = _iterate_chain(M, *(a[0] for a in chain))
        if sweeps.tolist() != [expected, expected]:
            print(f"M = {M}: sweeps {sweeps.tolist()}, expected {expected} per goal", file=sys.stderr)
            failures += 1
            continue
        digest = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
        if digest != DIGESTS[M]:
            print(f"M = {M}: values sha256 {digest}, expected {DIGESTS[M]}", file=sys.stderr)
            failures += 1
            continue
        elapsed = _best(lambda: rb.hitting_values(table, profile, method="iterate"))
        print(f"iterate, fair timid-timid, M = {M}: {elapsed:.3f} s ({expected} sweeps per goal)")

    for M in RESPONSE_SIZES:
        table = rb.power_family(M, 2)
        for name, make in (("timid", rb.timid_strategy), ("bold", rb.bold_strategy)):
            opponent = make(Player.TWO, M)
            response = rb.best_response(table, opponent)
            if not response.strategy.is_bold:
                print(f"best_response vs {name} II, M = {M}: not bold", file=sys.stderr)
                failures += 1
                continue
            own = rb.hitting_values(table, rb.Profile(response.strategy, opponent)).q
            if _bits(response.values) != _bits(own):
                print(f"best_response vs {name} II, M = {M}: values differ from "
                      "hitting_values of its profile", file=sys.stderr)
                failures += 1
                continue
            elapsed = _best(lambda: rb.best_response(table, opponent))
            print(f"best_response vs {name} II, power p = 2, M = {M}: {elapsed:.3f} s")
        for name in ("timid-timid", "timid-bold"):
            profile = rb.Profile.from_name(name, M)
            deviation = rb.verify_nash(table, profile, M // 2).deviation
            if deviation is None or deviation.player is not Player.ONE or not deviation.strategy.is_bold:
                print(f"verify_nash {name}, M = {M}: not refuted by a bold player I", file=sys.stderr)
                failures += 1
                continue
            elapsed = _best(lambda: rb.verify_nash(table, profile, M // 2))
            print(f"verify_nash {name}, power p = 2, M = {M}: {elapsed:.3f} s")

    for name, (table, profile, config, expected) in SIMULATIONS.items():
        times = []
        for jobs in JOBS:
            result = rb.simulate(table, profile, config, jobs=jobs)
            got = (result.wins_I, result.wins_II, result.truncated, result.total_steps, result.max_steps)
            if got != expected:
                print(f"simulate, {name}, jobs {jobs}: {got}, expected {expected}", file=sys.stderr)
                failures += 1
                continue
            elapsed = _best(lambda: rb.simulate(table, profile, config, jobs=jobs))
            times.append(f"{elapsed:.3f} s at jobs {jobs}")
        if times:
            print(f"simulate, {name}: {', '.join(times)} ({config.trials} trials)")

    table, profile, config, expected = SIMULATIONS[REPLAYED]
    trials = range(config.trials)
    tracemalloc.start()
    try:
        paths = list(rb.replay_trials(table, profile, config, trials))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    stages = [len(path.fortunes) for path in paths]
    got = (
        sum(path.final_state == table.M for path in paths),
        sum(path.final_state == 0 for path in paths),
        sum(path.truncated for path in paths),
        sum(stages),
        max(stages),
    )
    if got != expected:
        print(f"replay_trials, {REPLAYED}: {got}, expected {expected}", file=sys.stderr)
        failures += 1
    else:
        elapsed = _best(lambda: list(rb.replay_trials(table, profile, config, trials)))
        print(f"replay_trials, {REPLAYED}: {elapsed:.3f} s "
              f"({sum(stages)} stages, {held / sum(stages):.1f} B held per stage)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
