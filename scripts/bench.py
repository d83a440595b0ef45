"""Run the perfbench workloads and the timing scripts on this checkout and a second one.

    python scripts/bench.py BASE OUT

BASE is the root of a second checkout, usually the parent commit (a
``git clone`` of this repository checked out there); OUT is the JSON file
to write, ``BENCH_<PR>.json`` by convention.  For every workload of
``BENCHMARK.json`` the script runs ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0`` unchanged from the root of each checkout,
with S the benchmark's own ``run_seconds``, in ``PAIRS`` pairs.  A pair runs
both sides on one seed, and pair ``i`` uses seed ``FIRST_SEED + i``.  Which
side runs first alternates from pair to pair, so drift of the host over the
session does not favour one side.

OUT records the machine, each side's git sha (and whether its working tree
differs from it) and ``src/redblack`` line count, every run's ``wall_s``,
``setup_s`` and ``peak_rss_mib`` with its seed and position in the pair, and
per side and metric the median and quartiles over the runs.  For every
metric it also counts the pairs this checkout won, by the direction
``BENCHMARK.json`` declares as better, and records and prints whether the
claim rule holds: this checkout wins at least ``CLAIM_WINS`` of the
``PAIRS`` pairs, and its median beats the other side's by more than that
side's spread between quartiles.  A run
whose correctness gate fails, that prints no metrics or that outlives
``RUN_TIMEOUT_S`` is recorded with its output and makes the script exit 1
after OUT is written.  Nothing under ``perfbench/`` is changed; each run
leaves its details in its own checkout's ``perfbench/out/``, as a direct run
of ``perfbench/run.py`` does.

Before the pairs, each ``scripts/*_timing.py`` of this checkout runs once
per side, from the side's root with its ``src`` on ``PYTHONPATH``.  These
are the per-layer timings; each script checks its own frozen counts or
digests and exits 1 on a mismatch.  OUT records each run's exit code and
printed lines, and a nonzero exit, a missing script or a run that outlives
``RUN_TIMEOUT_S`` also makes the script exit 1 after OUT is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

import numpy as np

TREE = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mib")
PAIRS = 10
CLAIM_WINS = 9
FIRST_SEED = 1
RUN_TIMEOUT_S = 600


def _first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _machine() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpu": _first_line("/proc/cpuinfo", "model name"),
        "mem_total": _first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _checkout(root: Path) -> dict[str, Any]:
    """Where a side's code comes from: its git sha, whether its working tree
    differs from that commit, and the line count perfbench records."""

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((root / "src" / "redblack").glob("*.py"))
        ),
    }


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One untraced perfbench run; its metrics, or the output that has none."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # the partial output of a killed run may be bytes even with text=True
        output = "".join(
            part.decode(errors="replace") if isinstance(part, bytes) else part
            for part in (exc.stdout, exc.stderr) if part
        ) + f"\ntimed out after {RUN_TIMEOUT_S} s"
        return {"correct": False, "exit": None, "output": output[-2000:]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        run = {name: result["metrics"][name]["value"] for name in METRICS}
        run["correct"] = result["correct"]
    except (IndexError, KeyError, ValueError):
        return {"correct": False, "exit": proc.returncode, "output": (proc.stdout + proc.stderr)[-2000:]}
    return run


def _timing(root: Path, name: str) -> dict[str, Any]:
    """One run of a timing script: its exit code and printed lines."""
    if not (root / "scripts" / name).is_file():
        return {"exit": None, "lines": [f"{root} holds no scripts/{name}"]}
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        proc = subprocess.run([sys.executable, f"scripts/{name}"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "lines": [f"timed out after {RUN_TIMEOUT_S} s"]}
    return {"exit": proc.returncode, "lines": (proc.stdout + proc.stderr).splitlines()}


def _summary(runs: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    out = {}
    for name in METRICS:
        values = [run[name] for run in runs if name in run]
        if not values:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def _claim(runs: dict[str, list[dict[str, Any]]], summary: dict[str, dict], name: str,
           lower: bool) -> dict[str, Any]:
    """The pairs this checkout won on one metric, its median gain over the
    base (positive is better) and whether the claim rule holds."""
    sign = 1.0 if lower else -1.0
    won = sum(
        sign * (b[name] - t[name]) > 0
        for t, b in zip(runs["tree"], runs["base"])
        if name in t and name in b
    )
    if name not in summary["tree"] or name not in summary["base"]:
        return {"won": won, "gain": None, "base_iqr": None, "holds": False}
    base = summary["base"][name]
    gain = sign * (base["median"] - summary["tree"][name]["median"])
    spread = base["q3"] - base["q1"]
    return {"won": won, "gain": gain, "base_iqr": spread, "holds": won >= CLAIM_WINS and gain > spread}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="root of the checkout to compare against")
    parser.add_argument("out", type=Path, help="JSON file to write")
    args = parser.parse_args()
    base = args.base.resolve()
    if not (base / "perfbench" / "run.py").is_file():
        print(f"error: {base} holds no perfbench/run.py", file=sys.stderr)
        return 2
    roots = {"tree": TREE, "base": base}
    benchmark = json.loads((TREE / "BENCHMARK.json").read_text())
    seconds = float(benchmark["run_seconds"])
    workloads = [w["name"] for w in benchmark["workloads"]]
    lower = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}

    timings: dict[str, Any] = {}
    for name in sorted(p.name for p in (TREE / "scripts").glob("*_timing.py")):
        timings[name] = {side: _timing(root, name) for side, root in roots.items()}
        for side, run in timings[name].items():
            print(f"{name} {side}: exit {run['exit']}", flush=True)
    ok = all(run["exit"] == 0 for sides in timings.values() for run in sides.values())

    results: dict[str, Any] = {}
    for workload in workloads:
        runs: dict[str, list[dict[str, Any]]] = {"tree": [], "base": []}
        for pair in range(PAIRS):
            seed = FIRST_SEED + pair
            order = ("base", "tree") if pair % 2 == 0 else ("tree", "base")
            for position, side in enumerate(order):
                run = _run(roots[side], workload, seed, seconds)
                runs[side].append({"pair": pair, "seed": seed, "position": position, **run})
                ok = ok and run["correct"]
                shown = ", ".join(f"{m} {run[m]:.4g}" for m in METRICS if m in run) or "no metrics"
                print(f"{workload} pair {pair} seed {seed} {side}: {shown}", flush=True)
        results[workload] = {
            side: {"runs": side_runs, "summary": _summary(side_runs)} for side, side_runs in runs.items()
        }
        summaries = {side: results[workload][side]["summary"] for side in roots}
        results[workload]["claims"] = {
            name: _claim(runs, summaries, name, lower.get(name, True)) for name in METRICS
        }

    payload = {
        "machine": _machine(),
        "command": f"perfbench/run.py --workload W --seed {FIRST_SEED}+pair --seconds {seconds:g} --trace 0",
        "pairs": PAIRS,
        "sides": {side: _checkout(root) for side, root in roots.items()},
        "timing_scripts": timings,
        "workloads": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for workload, result in results.items():
        for name, claim in result["claims"].items():
            medians = {side: result[side]["summary"].get(name, {}).get("median") for side in roots}
            print(f"{workload} {name}: median tree {medians['tree']}, base {medians['base']}, "
                  f"gain {claim['gain']}, base quartile spread {claim['base_iqr']}; tree better "
                  f"in {claim['won']} of {PAIRS} pairs; claim rule "
                  f"{'holds' if claim['holds'] else 'fails'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
