"""Workload inputs, generated from the workload seed.

A spec is plain JSON: the ``redblack gen`` invocations that build the input
tables, auxiliary input files (gauge families, decay factors, profiles) and
the parameters of every job.  The program under test only ever receives
these generated inputs.  Nothing here imports ``redblack`` or numpy.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("scan", "equilibria", "play", "cli")

# Enumeration allocates two value tensors of 2 * ((M-1)!)^2 * (M+1) float64
# values.  M = 6 needs 1.5 MiB and about 1.3 s per table; M = 7 needs 63 MiB
# and about 49 s; M = 8 needs 3.4 GiB.  The budget admits M <= 6 only.
ENUM_BUDGET_BYTES = 16 * 2**20


def enum_tensor_bytes(M: int) -> int:
    return 2 * math.factorial(M - 1) ** 2 * (M + 1) * 8


def require_enum_budget(M: int) -> None:
    """Refuse an enumeration whose value tensors exceed the fixed budget."""
    need = enum_tensor_bytes(M)
    if need > ENUM_BUDGET_BYTES:
        raise ValueError(
            f"enumeration at M = {M} needs {need} bytes of value tensors, "
            f"over the benchmark budget of {ENUM_BUDGET_BYTES}"
        )


def _gen(name: str, M: int, family: str, *extra: str) -> dict:
    argv = ["gen", "--M", str(M), "--family", family, *extra, "--out", f"{name}.json"]
    return {"name": name, "argv": argv}


def _bets(rng: random.Random, M: int) -> list[int]:
    """A uniformly random stationary strategy: stake 1..t at own fortune t."""
    return [0] + [rng.randint(1, t) for t in range(1, M)] + [0]


def _profile(rng: random.Random, M: int) -> dict:
    return {"M": M, "player_I": _bets(rng, M), "player_II": _bets(rng, M)}


def _gauge_family(rng: random.Random) -> dict:
    p = round(rng.uniform(1.0, 3.0), 3)
    m = round(rng.uniform(0.05, 1.0), 3)
    return {"members": [{"kind": "power", "p": p}, {"kind": "exp", "m": m}]}


def _scan(rng: random.Random) -> dict:
    # The power table passes every composition scan with exact equality and
    # fails bold-inequality; exp-diff has over 10^5 composition violations.
    # Together they separate scan cost from witness and count cost.  The
    # extended scan materialises (M + 7)^3 terms, so it runs on one table.
    # M = 100 keeps one repetition near 5 s, with exp-diff still over 10^5
    # supermultiplicative violations.
    M = 100
    return {
        "files": {"gauge.json": _gauge_family(rng)},
        "tables": [
            _gen("pow2", M, "power", "--p", "2"),
            _gen("expdiff", M, "exp-diff"),
            _gen("gauge", M, "gauge.json"),
        ],
        "extended": ["pow2"],
    }


def _equilibria(rng: random.Random) -> dict:
    M = 6
    require_enum_budget(M)
    m = round(rng.uniform(0.3, 1.0), 3)
    tables = [
        _gen("pow2", M, "power", "--p", "2"),
        _gen("expdiff", M, "exp-diff"),
        _gen("minexp", M, "min-exp", "--m", repr(m)),
    ]
    nash = []
    for table in tables:
        for _ in range(4):
            profile = _profile(rng, M)
            nash.append({"table": table["name"], "profile": profile, "x0": rng.randint(1, M - 1)})
    return {"files": {}, "tables": tables, "starts": list(range(1, M)), "nash": nash}


def _play(rng: random.Random) -> dict:
    M = 150
    p = round(rng.uniform(1.5, 2.5), 3)
    responses = 40
    opponents = [
        {"name": "timid_II", "owner": "II", "bets": [0] + [1] * (M - 1) + [0]},
        {"name": "bold_II", "owner": "II", "bets": [0] + list(range(1, M)) + [0]},
        {"name": "timid_I", "owner": "I", "bets": [0] + [1] * (M - 1) + [0]},
        {"name": "bold_I", "owner": "I", "bets": [0] + list(range(1, M)) + [0]},
    ]
    for k in range(4):
        opponents.append({"name": f"random{k}_II", "owner": "II", "bets": _bets(rng, M)})
    for opponent in opponents:
        opponent["responses"] = [_bets(rng, M) for _ in range(responses)]
    return {
        "files": {},
        "tables": [
            _gen("powA", M, "power", "--p", repr(p)),
            _gen("fair80", 80, "power", "--p", "1"),
            _gen("fair40", 40, "power", "--p", "1"),
        ],
        "opponents": opponents,
        "iterate": {"table": "fair80"},
        "sims": [
            # Short games: bold-timid, about 35 steps per trial.
            {"name": "short", "table": "powA", "profile": "bold-timid",
             "x0": rng.randint(60, 90), "trials": 200_000, "seed": rng.randrange(2**32)},
            # Long games: fair timid-timid, about x0 * (M - x0) = 400 steps.
            {"name": "long", "table": "fair40", "profile": "timid-timid",
             "x0": rng.randint(18, 22), "trials": 10_000, "seed": rng.randrange(2**32)},
        ],
        "replay_trials": 100,
    }


def _cli(rng: random.Random) -> dict:
    M, small = 40, 5
    require_enum_budget(small)
    m = round(rng.uniform(0.3, 1.0), 3)
    c = round(rng.uniform(0.2, 1.0), 3)
    k = sorted((round(rng.uniform(0.0, 1.0), 6) for _ in range(M + 1)), reverse=True)
    x0_sim = rng.randint(15, 30)
    sim_seed = str(rng.randrange(2**32))
    x0_nash = str(rng.randint(1, small - 1))
    files = {
        "gauge.json": _gauge_family(rng),
        "k.json": {"k": k},
        "profile.json": _profile(rng, M),
    }
    setup = [
        _gen("pow40", M, "power", "--p", "2"),
        _gen("minexp40", M, "min-exp", "--m", repr(m)),
        _gen("expdiff40", M, "exp-diff"),
        _gen("curve40", M, "k-exp", "--c", repr(c), "--k-file", "k.json"),
        _gen("gauge40", M, "gauge.json"),
        _gen("pow5", small, "power", "--p", "2"),
    ]
    sim = ["sim", "--table", "pow40.json", "--profile", "bold-timid", "--x0", str(x0_sim),
           "--trials", "20000", "--seed", sim_seed]
    # expect: the exit code every run must give; None means "0 exactly when the
    # artifact reports a pass", for seeded tables whose verdict is not known.
    work = [
        {"id": "check.pow40", "argv": ["check", "--table", "pow40.json", "--out", "check_pow40.json"], "expect": 1},
        {"id": "check.minexp40", "argv": ["check", "--table", "minexp40.json", "--out", "check_minexp40.json"], "expect": None},
        {"id": "solve.profile", "argv": ["solve", "--table", "pow40.json", "--profile", "profile.json",
                                         "--x0", str(rng.randint(1, M - 1)), "--out", "solve.json"], "expect": 0},
        {"id": "nash.certified", "argv": ["nash", "--table", "pow5.json", "--profile", "bold-timid",
                                          "--x0", x0_nash, "--out", "nash_certified.json"], "expect": 0},
        {"id": "nash.refuted", "argv": ["nash", "--table", "pow5.json", "--profile", "timid-bold",
                                        "--x0", x0_nash, "--out", "nash_refuted.json"], "expect": 1},
    ]
    for x0 in range(1, small):
        work.append({"id": f"enum.x0={x0}", "argv": ["enum", "--table", "pow5.json", "--x0", str(x0),
                                                     "--out", f"enum{x0}.json"], "expect": 0})
    work += [
        {"id": "sim.traj", "argv": sim + ["--traj-csv", "traj.csv", "--traj-limit", "50", "--out", "sim_traj.json"], "expect": 0},
        {"id": "sim.jobs1", "argv": sim + ["--jobs", "1", "--out", "sim1.json"], "expect": 0},
        {"id": "sim.jobs2", "argv": sim + ["--jobs", "2", "--out", "sim2.json"], "expect": 0},
    ]
    for artifact in ("curve40.json", "check_pow40.json", "enum4.json", "sim1.json"):
        work.append({"id": f"report.{artifact}", "argv": ["report", artifact], "expect": 0})
    return {"files": files, "tables": setup, "work": work}


def build_spec(workload: str, seed: int) -> dict:
    makers = {"scan": _scan, "equilibria": _equilibria, "play": _play, "cli": _cli}
    spec = makers[workload](random.Random(f"{workload}:{seed}"))
    spec.update(workload=workload, seed=seed)
    return spec
