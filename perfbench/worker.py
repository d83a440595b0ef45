"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py RUN_DIR REP MODE TRACE``.  RUN_DIR holds
``spec.json`` and ``inputs/``; the repetition works in ``RUN_DIR/rep<REP>``
and writes ``result.json`` there.  MODE ``setup`` stops once the inputs are
ready; MODE ``full`` then runs the job list back to back and records wall
time, peak RSS and a fingerprint of every output; MODE ``gated`` also checks
every output afterwards (the correctness gate).  One gated repetition per
run suffices, because every other one must reproduce its fingerprints.

A fresh interpreter per repetition means ``_pairwise_value_tensors``'s
``lru_cache`` and ``WinProbTable.array`` start empty each time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import spec as specs
from procs import child_env, run_cli
from tracer import Tracer

WITNESS_CAP = 16  # redblack's default witness cap
# Tolerances for floats; integers, verdicts, witness indices and equilibrium
# sets are compared exactly.
GOLDEN_TOL = 1e-12  # a reported float against an exact rational (1/48)
VALUE_TOL = 1e-9  # two solvers of the same winning probability
ITERATE_TOL = 1e-6  # value iteration stops on a sweep change below 1e-13;
#                     its error is larger by the chain's mixing time
BOLD_MARGIN = Fraction(1, 48)  # power p = 2: first bold-inequality witness (3, 1)
POWER2_M6_COUNTS = [120, 120, 240, 720, 2880]  # criterion 6, x0 = 1..5
POWER2_M5_COUNTS = [24, 24, 48, 144]  # criterion 6, x0 = 1..4
EXPDIFF_M6_X0_2 = 12000


def digest(obj) -> str:
    """Fingerprint of a job's output; reruns of the same input must agree."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def load_tables(rb, spec: dict, inputs: Path) -> dict:
    return {
        t["name"]: rb.WinProbTable.from_json_dict(json.loads((inputs / f"{t['name']}.json").read_text()))
        for t in spec["tables"]
    }


# ---------------------------------------------------------------- scan

def scan_jobs(rb, spec: dict, tables: dict) -> list:
    jobs = []
    for name, t in tables.items():
        jobs += [
            (f"{name}.border", functools.partial(rb.check_border, t)),
            (f"{name}.fairness", functools.partial(rb.check_fairness, t)),
            (f"{name}.bold", lambda t=t: rb.check_bold_inequality(rb.unit_bet_curve(t))),
            (f"{name}.product", lambda t=t: rb.check_product_bound(rb.unit_bet_curve(t))),
            (f"{name}.super", functools.partial(rb.check_supermultiplicative, t)),
            (f"{name}.sincov", lambda t=t: rb.check_sincov(rb.sincov_of(t))),
            (f"{name}.uniqueness", functools.partial(rb.check_uniqueness_conditions, t)),
            (f"{name}.bold_excessive", lambda t=t: rb.check_bold_excessive(rb.unit_bet_curve(t))),
            (f"{name}.timid_excessive", functools.partial(rb.check_timid_excessive, t)),
        ]
    for name in spec["extended"]:
        t = tables[name]
        jobs.append((f"{name}.extended",
                     lambda t=t: rb.check_supermultiplicative_extended(rb.extend_table(t))))
    return jobs


def _reference_scans(table, tol: float) -> dict:
    """Violation flags of the composition and bold-play scans, in scan order,
    computed with numpy from the ranges the checkers document."""
    import numpy as np

    M = table.M
    P = np.array(table.array)
    r = np.arange(M + 1)
    x, a, b = np.meshgrid(r, r, r, indexing="ij")
    valid = (a <= M - x) & (b <= M - a) & ~((x == 0) & (a == 0))
    xa, ab = np.minimum(x + a, M), np.minimum(a + b, M)
    with np.errstate(invalid="ignore"):
        sup = valid & (P[x, a] * P[xa, b] > P[x, ab] + tol)

    # sincov: F(x, y) = P(x, y - x) over 0 <= x <= a <= b <= M, minus x = a = 0.
    valid = (x <= a) & (a <= b) & ~((x == 0) & (a == 0))
    xs, as_ = np.where(valid, x, 1), np.where(valid, a, 1)
    bs = np.where(valid, b, 1)
    with np.errstate(invalid="ignore"):
        sincov = valid & (P[xs, as_ - xs] * P[as_, bs - as_] > P[xs, bs - xs] + tol)

    # extended, span 3: zero for a negative stake, one past the total money.
    span = 3
    e = np.arange(-span, M + span + 1)
    x, a, b = np.meshgrid(e, e, e, indexing="ij")

    def ext(i, j):
        inside = (i >= 0) & (j >= 0) & (i + j <= M)
        value = P[np.clip(i, 0, M), np.clip(j, 0, M)]
        return np.where(inside, value, np.where((i < 0) | (j < 0), 0.0, 1.0))

    undefined = ((x == 0) & (a == 0)) | ((x + a == 0) & (b == 0)) | ((x == 0) & (a + b == 0))
    with np.errstate(invalid="ignore"):
        extended = ~undefined & (ext(x, a) * ext(x + a, b) > ext(x, a + b) + tol)

    phi = P[:, 1]
    difference = [(xx, y) for xx in range(M + 1) for y in range(xx + 1)
                  if phi[y] - phi[xx] > phi[xx - y] * (phi[y] - 1.0) + tol]
    nondecreasing = [(xx, xx + 1) for xx in range(M) if phi[xx] > phi[xx + 1] + tol]

    def hits(flags, lo=0):
        return int(flags.sum()), [tuple(int(v) + lo for v in i) for i in np.argwhere(flags)[:WITNESS_CAP]]

    bold = difference + nondecreasing
    return {
        "super": hits(sup),
        "sincov": hits(sincov),
        "extended": hits(extended, -span),
        "bold": (len(bold), bold[:WITNESS_CAP]),
    }


def scan_gate(rb, spec: dict, tables: dict, outputs: dict) -> dict:
    failures = {}
    for job_id, report in outputs.items():
        name, check = job_id.split(".")
        if check == "fairness":
            continue
        counted = sum(n for _, n in report.constraint_counts)
        if (report.passed != (report.violations == 0) or counted != report.violations
                or len(report.witnesses) != min(report.violations, WITNESS_CAP)):
            failures[job_id] = "report counts disagree with each other"
    for name, table in tables.items():
        reference = _reference_scans(table, tol=1e-12)
        for check, (count, indices) in reference.items():
            report = outputs.get(f"{name}.{check}")
            if report is None:
                continue
            got = (report.violations, [w.index for w in report.witnesses])
            if got != (count, indices):
                failures[f"{name}.{check}"] = f"violations/witnesses {got[0]} differ from reference {count}"
    bold = outputs.get("pow2.bold")
    if bold is not None:
        first = bold.witnesses[0] if bold.witnesses else None
        if first is None or first.index != (3, 1) or abs(first.margin - float(BOLD_MARGIN)) > GOLDEN_TOL:
            failures["pow2.bold"] = f"first witness {first} is not (3, 1) with margin 1/48"
    for check in ("super", "sincov", "extended"):
        report = outputs.get(f"pow2.{check}")
        if report is not None and not report.passed:
            failures[f"pow2.{check}"] = "power p = 2 must pass the composition law"
    return failures


# ---------------------------------------------------------------- equilibria

def _enumerate(rb, table, x0: int):
    specs.require_enum_budget(table.M)
    return rb.enumerate_equilibria(table, x0)


def equilibria_jobs(rb, spec: dict, tables: dict) -> list:
    jobs = [(f"enum.{name}.x0={x0}", functools.partial(_enumerate, rb, t, x0))
            for name, t in tables.items() for x0 in spec["starts"]]
    for i, item in enumerate(spec["nash"]):
        profile = rb.Profile.from_json_dict(item["profile"])
        jobs.append((f"nash.{i}", functools.partial(rb.verify_nash, tables[item["table"]], profile, item["x0"])))
    return jobs


def _pairs(certificates) -> set:
    return {(c.profile.first.bets, c.profile.second.bets) for c in certificates}


def equilibria_gate(rb, spec: dict, tables: dict, outputs: dict) -> dict:
    failures = {}
    golden = {("pow2", x0): n for x0, n in zip(spec["starts"], POWER2_M6_COUNTS)}
    golden[("expdiff", 2)] = EXPDIFF_M6_X0_2
    for (name, x0), expected in golden.items():
        found = outputs.get(f"enum.{name}.x0={x0}")
        if found is not None and len(found) != expected:
            failures[f"enum.{name}.x0={x0}"] = f"{len(found)} equilibria, expected {expected}"

    # No player beats an enumerated equilibrium with the value-iteration best
    # response, on an evenly spaced sample of each equilibrium set.
    best = functools.lru_cache(maxsize=None)(
        lambda name, strategy: rb.best_response(tables[name], strategy).values)
    for name in tables:
        for x0 in spec["starts"]:
            job_id = f"enum.{name}.x0={x0}"
            found = outputs.get(job_id, ())
            for c in found[:: max(1, len(found) // 8)]:
                if (best(name, c.profile.second)[x0] > c.value_I + VALUE_TOL
                        or best(name, c.profile.first)[x0] > c.value_II + VALUE_TOL):
                    failures[job_id] = f"a best response beats equilibrium {c.profile.to_json_dict()}"
                    break

    for i, item in enumerate(spec["nash"]):
        certificate = outputs.get(f"nash.{i}")
        found = outputs.get(f"enum.{item['table']}.x0={item['x0']}")
        if certificate is None or found is None:
            continue
        pair = (certificate.profile.first.bets, certificate.profile.second.bets)
        if certificate.equilibrium != (pair in _pairs(found)):
            failures[f"nash.{i}"] = "verify_nash disagrees with enumerate_equilibria"
    return failures


# ---------------------------------------------------------------- play

def _strategy(rb, owner: str, bets: list[int]):
    player = rb.Player.ONE if owner == "I" else rb.Player.TWO
    return rb.StationaryStrategy(player, tuple(bets))


def _pair(rb, opponent, response):
    return rb.Profile(response, opponent) if opponent.owner is rb.Player.TWO else rb.Profile(opponent, response)


def _sim(rb, table, sim: dict):
    profile = rb.Profile.from_name(sim["profile"], table.M)
    result = rb.simulate(table, profile, rb.SimConfig(sim["x0"], sim["trials"], sim["seed"]), jobs=1)
    return result, rb.compare_exact(result, rb.hitting_values(table, profile))


def _replay(rb, table, sim: dict, trials: int):
    profile = rb.Profile.from_name(sim["profile"], table.M)
    config = rb.SimConfig(sim["x0"], trials, sim["seed"])
    result = rb.simulate(table, profile, config, jobs=1)
    return result, [rb.replay_trial(table, profile, config, i) for i in range(trials)]


def play_jobs(rb, spec: dict, tables: dict) -> list:
    A = tables["powA"]
    jobs = []
    for opp in spec["opponents"]:
        opponent = _strategy(rb, opp["owner"], opp["bets"])
        responder = "II" if opp["owner"] == "I" else "I"
        jobs.append((f"br.{opp['name']}", functools.partial(rb.best_response, A, opponent)))
        for r, bets in enumerate(opp["responses"]):
            profile = _pair(rb, opponent, _strategy(rb, responder, bets))
            jobs.append((f"hv.{opp['name']}.{r}", functools.partial(rb.hitting_values, A, profile)))
    fair = tables[spec["iterate"]["table"]]
    jobs.append(("iterate", lambda: rb.hitting_values(
        fair, rb.Profile.from_name("timid-timid", fair.M), method="iterate")))
    for sim in spec["sims"]:
        jobs.append((f"sim.{sim['name']}", functools.partial(_sim, rb, tables[sim["table"]], sim)))
        jobs.append((f"replay.{sim['name']}",
                     functools.partial(_replay, rb, tables[sim["table"]], sim, spec["replay_trials"])))
    return jobs


def play_gate(rb, spec: dict, tables: dict, outputs: dict) -> dict:
    failures = {}
    for opp in spec["opponents"]:
        br = outputs.get(f"br.{opp['name']}")
        if br is None:
            continue
        for r in range(len(opp["responses"])):
            values = outputs.get(f"hv.{opp['name']}.{r}")
            if values is None:
                continue
            own = values.t if opp["owner"] == "I" else values.q
            if any(b < v - VALUE_TOL for b, v in zip(br.values, own)):
                failures[f"hv.{opp['name']}.{r}"] = "a sampled profile beats the best response"
    values = outputs.get("iterate")
    if values is not None:
        M = values.M
        if any(abs(q - x / M) > ITERATE_TOL or abs(t - (M - x) / M) > ITERATE_TOL
               for x, (q, t) in enumerate(zip(values.q, values.t))):
            failures["iterate"] = "iterated fair timid-timid values differ from x / M"
    for sim in spec["sims"]:
        done = outputs.get(f"sim.{sim['name']}")
        if done is not None and not done[1].passed:
            failures[f"sim.{sim['name']}"] = f"compare_exact failed: {done[1].reason}"
        done = outputs.get(f"replay.{sim['name']}")
        if done is not None:
            result, paths = done
            replayed = (sum(p.final_state == result.M for p in paths),
                        sum(p.final_state == 0 for p in paths),
                        sum(p.truncated for p in paths),
                        sum(len(p.stages) for p in paths))
            if replayed != (result.wins_I, result.wins_II, result.truncated, result.total_steps):
                failures[f"replay.{sim['name']}"] = "replayed trials disagree with the batch"
    return failures


# ---------------------------------------------------------------- cli

def cli_setup(spec: dict, rep_dir: Path, env: dict, tracer, spans_dir) -> dict:
    for name, payload in spec["files"].items():
        (rep_dir / name).write_text(json.dumps(payload))
    failures = {}
    for table in spec["tables"]:
        code, _, err = run_cli(table["argv"], rep_dir, env, tracer, spans_dir)
        if code != 0:
            failures[f"gen.{table['name']}"] = f"exit {code}: {err.decode(errors='replace')[-200:]}"
    return failures


def _out_file(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def cli_work(spec: dict, rep_dir: Path, env: dict, tracer, spans_dir) -> dict:
    outputs = {}
    for job in spec["work"]:
        code, out, _ = run_cli(job["argv"], rep_dir, env, tracer, spans_dir)
        outputs[job["id"]] = (code, out)
    return outputs


def artifact_digest(rep_dir: Path, job: dict, stdout: bytes) -> str:
    """Fingerprint of an invocation's artifact (or stdout), and trajectory CSV."""
    name = _out_file(job["argv"])
    path = rep_dir / name if name else None
    data = path.read_bytes() if path is not None and path.exists() else stdout
    traj = rep_dir / "traj.csv"
    if "--traj-csv" in job["argv"] and traj.exists():
        data += traj.read_bytes()
    return hashlib.sha256(data).hexdigest()[:16]


def cli_gate(spec: dict, rep_dir: Path, outputs: dict, check: bool) -> dict:
    """Exit codes are checked in every repetition, artifacts only when ``check``."""
    failures, artifacts = {}, {}
    for job in spec["work"]:
        code, out = outputs[job["id"]]
        name = _out_file(job["argv"])
        if name is not None and not (rep_dir / name).exists():
            failures[job["id"]] = f"exit {code}, no artifact {name}"
            continue
        payload = json.loads((rep_dir / name).read_text()) if name else None
        artifacts[job["id"]] = payload
        expected = job["expect"]
        if expected is None:  # a seeded table: exit 1 exactly when a check fails
            expected = 0 if payload["pass"] else 1
        if code != expected:
            failures[job["id"]] = f"exit {code}, expected {expected}"
        elif name is None and not out:
            failures[job["id"]] = "no output"
    if not check:
        return failures

    report = artifacts.get("check.pow40")
    if report is not None:
        bold = next(c for c in report["checks"] if c["check"] == "bold-inequality")
        first = bold["witnesses"][0] if bold["witnesses"] else None
        if first is None or first["index"] != [3, 1] or abs(first["margin"] - float(BOLD_MARGIN)) > GOLDEN_TOL:
            failures["check.pow40"] = f"first bold-inequality witness {first} is not (3, 1) with margin 1/48"
    for x0, expected in enumerate(POWER2_M5_COUNTS, start=1):
        found = artifacts.get(f"enum.x0={x0}")
        if found is not None and found["count"] != expected:
            failures[f"enum.x0={x0}"] = f"{found['count']} equilibria, expected {expected}"
    for job_id, verdict in (("nash.certified", True), ("nash.refuted", False)):
        found = artifacts.get(job_id)
        if found is not None and found["certificate"]["equilibrium"] != verdict:
            failures[job_id] = f"equilibrium verdict is not {verdict}"
    one, two = artifacts.get("sim.jobs1"), artifacts.get("sim.jobs2")
    if one is not None and two is not None:
        if any(one[k] != two[k] for k in ("result", "exact", "agreement")):
            failures["sim.jobs2"] = "sim result differs between --jobs 1 and --jobs 2"
    return failures


# ---------------------------------------------------------------- main

IN_PROCESS = {
    "scan": (scan_jobs, scan_gate),
    "equilibria": (equilibria_jobs, equilibria_gate),
    "play": (play_jobs, play_gate),
}


def peak_rss_kib() -> int:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def run_gate(gate, jobs: list[str]) -> dict:
    try:
        return gate()
    except Exception as exc:  # a gate that cannot read an output fails every job
        return {job_id: f"gate raised {type(exc).__name__}: {exc}" for job_id in jobs}


def main() -> int:
    run_dir, rep, mode, trace = Path(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4] == "1"
    spec = json.loads((run_dir / "spec.json").read_text())
    rep_dir = run_dir / f"rep{rep}"
    spans_dir = rep_dir / "spans" if trace else None
    (spans_dir or rep_dir).mkdir(parents=True)
    tracer = Tracer() if trace else None
    result: dict = {"jobs": [], "failures": {}, "digests": {}}
    gated = mode == "gated"

    if spec["workload"] == "cli":
        env = child_env()
        result["failures"] = cli_setup(spec, rep_dir, env, tracer, spans_dir)
        result["ready_ns"] = time.monotonic_ns()
        if mode != "setup":
            result["jobs"] = [f"gen.{t['name']}" for t in spec["tables"]] + [j["id"] for j in spec["work"]]
            start = time.perf_counter()
            outputs = cli_work(spec, rep_dir, env, tracer, spans_dir)
            result["wall_s"] = time.perf_counter() - start
            result["rss_kib"] = peak_rss_kib()
            result["digests"] = {job["id"]: artifact_digest(rep_dir, job, outputs[job["id"]][1])
                                 for job in spec["work"]}
            failures = run_gate(functools.partial(cli_gate, spec, rep_dir, outputs, gated), result["jobs"])
    else:
        if tracer is not None:
            tracer.install()
        import redblack as rb

        tables = load_tables(rb, spec, run_dir / "inputs")
        result["ready_ns"] = time.monotonic_ns()
        if mode != "setup":
            make_jobs, gate = IN_PROCESS[spec["workload"]]
            jobs = make_jobs(rb, spec, tables)
            result["jobs"] = [job_id for job_id, _ in jobs]
            outputs = {}
            start = time.perf_counter()
            for job_id, job in jobs:
                try:
                    outputs[job_id] = job()
                except Exception as exc:  # a failed job is counted, never fatal
                    result["failures"][job_id] = f"raised {type(exc).__name__}: {exc}"
            result["wall_s"] = time.perf_counter() - start
            result["rss_kib"] = peak_rss_kib()
            if tracer is not None:  # the gate's own calls are not part of the trace
                tracer.dump(spans_dir / "worker.jsonl")
                tracer = None
            result["digests"] = {job_id: digest(out) for job_id, out in outputs.items()}
            failures = run_gate(functools.partial(gate, rb, spec, tables, outputs), result["jobs"]) if gated else {}
    if mode != "setup":
        for job_id, why in failures.items():
            result["failures"].setdefault(job_id, why)
    if tracer is not None:
        tracer.dump(spans_dir / "worker.jsonl")
    (rep_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
