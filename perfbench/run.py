"""redblack benchmark: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload {scan,equilibria,play,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is taken from ``src/``.  The
seed generates every input (see ``spec.py``).  A run builds the input tables
with ``redblack gen``, then repeats the workload's job list, each time in a
fresh interpreter (``worker.py``), for about S seconds; it is a closed loop
with one client.  Every output is checked (the correctness gate in
``worker.py``) and must also be identical across repetitions.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median time of the
job list after set-up), ``setup_s`` (median time from interpreter start until
the package is imported and the input tables are loaded; in ``cli``, the
``gen`` invocations), ``peak_rss_mib`` (median over repetitions of the peak
resident memory of any process doing the work) and, on its own line,
``fail_frac``.  ``--trace 1`` alternates untraced and traced repetitions and
prints the per-layer metrics of the traced ones, plus
``bench.trace_overhead_frac``.  The last line of output is one JSON object.
Details of each run, and the spans of its last traced repetition, go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from procs import BENCH_DIR, ROOT, SRC, child_env, run_cli
from spec import WORKLOADS, build_spec
from tracer import Tracer, layer_metrics, load_spans

SETUP_ONLY_REPS = 1  # one more set-up per untraced run, so setup_s has a sample even in cli
MIN_FULL_REPS = 2
RUN_DEADLINE_S = 170  # every run ends within 180 s

# Metric names and units are declared once, in BENCHMARK.json.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# Counts derived from a call's inputs rather than observed in the program.
COMPUTED = {"checks.terms", "solver.enum_cold_calls", "solver.enum_warm_calls", "solver.profiles_solved"}


def declared(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """Metrics in the declared order and units; the names must match exactly."""
    units = {m["name"]: m["unit"] for m in DECLARED[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"{kind} metrics {sorted(set(units) ^ set(values))} are measured "
                           "but not declared, or declared but not measured")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def machine_record(seed: int, env: dict) -> dict:
    def first_line(path: str, prefix: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=env, capture_output=True, text=True, timeout=60).stdout.strip()
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "mem_total": first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy or None,
        "git_sha": sha,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "redblack").glob("*.py"))),
    }


def spawn_worker(run_dir: Path, rep: int, mode: str, trace: bool, env: dict,
                 deadline: float) -> tuple[dict | None, int, str]:
    """Run one repetition; returns its result (None if it failed), spawn time and stderr."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), str(run_dir), str(rep), mode, str(int(trace))]
    spawn_ns = time.monotonic_ns()
    # Own session, so that a worker past the deadline is stopped with every
    # redblack process it started.
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, spawn_ns, "timed out"
    result_file = run_dir / f"rep{rep}" / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        return None, spawn_ns, err.decode(errors="replace")[-2000:]
    return json.loads(result_file.read_text()), spawn_ns, ""


def prepare(run_dir: Path, spec: dict, env: dict, trace: bool) -> list[str]:
    """Write the generated input files and build the input tables with ``gen``."""
    inputs = run_dir / "inputs"
    spans_dir = run_dir / "prep_spans"
    inputs.mkdir(parents=True)
    spans_dir.mkdir()
    (run_dir / "spec.json").write_text(json.dumps(spec))
    if spec["workload"] == "cli":  # its gen invocations are its set-up, in every repetition
        return []
    for name, payload in spec["files"].items():
        (inputs / name).write_text(json.dumps(payload))
    tracer = Tracer() if trace else None
    errors = []
    for table in spec["tables"]:
        code, _, err = run_cli(table["argv"], inputs, env, tracer, spans_dir if trace else None)
        if code != 0:
            errors.append(f"gen {table['name']}: exit {code}: {err.decode(errors='replace')[-500:]}")
    if tracer is not None:
        tracer.dump(spans_dir / "prep.jsonl")
    return errors


def tally(full: list[dict]) -> tuple[int, int, list[str]]:
    """Jobs attempted and failed over the full repetitions.  A job fails if
    it raised, failed its gate, or gave another output than in the first
    (gated) repetition, or the same output as a failed one there; a
    repetition that did not finish fails all its jobs."""
    attempted = failed = 0
    failures: list[str] = []
    reference: dict[str, str] = {}
    reference_bad: dict[str, str] = {}
    planned = max((len(r["result"]["jobs"]) for r in full if r["result"]), default=1)
    for rep in full:
        result = rep["result"]
        if result is None:
            attempted += planned
            failed += planned
            failures.append(f"repetition {rep['index']} failed: {rep['error'].strip()[-300:]}")
            continue
        bad = dict(result["failures"])
        if not reference:
            reference, reference_bad = result["digests"], dict(bad)
        for job_id, fingerprint in result["digests"].items():
            if reference.get(job_id) != fingerprint:
                bad.setdefault(job_id, "output differs from the first repetition")
            elif job_id in reference_bad:
                bad.setdefault(job_id, reference_bad[job_id])
        attempted += len(result["jobs"])
        failed += len(bad)
        failures += [f"repetition {rep['index']}: {job_id}: {why}" for job_id, why in sorted(bad.items())]
    return attempted, failed, failures


def traced_metrics(run_dir: Path, traced: list[dict], spans_out: Path) -> dict[str, float]:
    """Median over traced repetitions of the per-layer metrics; each
    repetition's spans include those of the input preparation."""
    prep = [s for f in sorted((run_dir / "prep_spans").glob("*.jsonl")) for s in load_spans(f)]
    per_rep = []
    for rep in traced:
        files = sorted((run_dir / f"rep{rep['index']}" / "spans").glob("*.jsonl"))
        spans = prep + [s for f in files for s in load_spans(f)]
        per_rep.append(layer_metrics(spans))
    with open(spans_out, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(s) + "\n" for s in spans)
    return {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "redblack" / "__init__.py").is_file():
        print(f"error: no redblack package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    env = child_env()
    spec = build_spec(args.workload, args.seed)
    run_dir = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        record = machine_record(args.seed, env)
        errors = prepare(run_dir, spec, env, bool(args.trace))
        reps: list[dict] = []  # one entry per repetition started
        setup_samples: list[float] = []
        plan = ["setup"] * SETUP_ONLY_REPS if not args.trace else []
        measure_start = time.monotonic()
        full_times: list[float] = []
        while True:
            if plan:
                mode, traced = plan.pop(0), False
            else:
                n_full = len(full_times)
                elapsed = time.monotonic() - measure_start
                estimate = statistics.mean(full_times) if full_times else 0.0
                if n_full >= MIN_FULL_REPS and elapsed + estimate > args.seconds:
                    break
                if time.monotonic() + estimate > deadline - 5:
                    break
                mode = "full" if n_full else "gated"
                traced = bool(args.trace) and n_full % 2 == 1
            t0 = time.monotonic()
            result, spawn_ns, err = spawn_worker(run_dir, len(reps), mode, traced, env, deadline)
            reps.append({"index": len(reps), "mode": mode, "traced": traced, "result": result, "error": err})
            if result is not None:
                setup_samples.append((result["ready_ns"] - spawn_ns) / 1e9)
            if mode != "setup":
                full_times.append(time.monotonic() - t0)

        full = [r for r in reps if r["mode"] != "setup"]
        attempted, failed, failures = tally(full)
        failures = errors + failures
        done = [r for r in full if r["result"] is not None]
        untraced = [r["result"]["wall_s"] for r in done if not r["traced"]]
        traced = [r for r in done if r["traced"]]

        metrics: dict[str, dict] = {}
        if not args.trace and untraced:
            rss = [r["result"]["rss_kib"] / 1024 for r in done]
            values = {"wall_s": statistics.median(untraced), "setup_s": statistics.median(setup_samples),
                      "peak_rss_mib": statistics.median(rss)}
            metrics = declared("end_to_end", values)
            print(f"wall_s: {values['wall_s']:.4f} s (median of {len(untraced)} repetitions, quartile "
                  f"spread {quartile_spread(untraced):.3f}, min {min(untraced):.4f}, max {max(untraced):.4f})")
            print(f"setup_s: {values['setup_s']:.4f} s (median of {len(setup_samples)} set-ups)")
            print(f"peak_rss_mib: {values['peak_rss_mib']:.2f} MiB (median of {len(rss)} repetitions)")
        elif args.trace and traced and untraced:
            values = traced_metrics(run_dir, traced, out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
            walls = [r["result"]["wall_s"] for r in traced]
            values["bench.trace_overhead_frac"] = statistics.median(walls) / statistics.median(untraced) - 1
            metrics = declared("per_layer", values)
            for name, metric in metrics.items():
                label = " (computed)" if name in COMPUTED else ""
                print(f"{name}: {metric['value']:.6g} {metric['unit']}{label}")
            print(f"traced repetitions: {len(traced)}, untraced: {len(untraced)}")
        print(f"fail_frac: {failed / max(attempted, 1):.6g} fraction ({failed} of {attempted} jobs failed)")
        for line in failures[:20]:
            print(f"  failure: {line}")
        print("machine: " + ", ".join(f"{k}={v}" for k, v in record.items()))
        details = {"record": record, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "repetitions": [{"mode": r["mode"], "traced": r["traced"], "error": r["error"],
                                    **{k: (r["result"] or {}).get(k) for k in ("wall_s", "rss_kib")}}
                                   for r in reps],
                   "setup_samples_s": setup_samples, "failures": failures,
                   "metrics": metrics, "attempted": attempted, "failed": failed}
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(details, indent=2) + "\n")
        if not metrics:
            print("error: no repetition finished, so nothing was measured", file=sys.stderr)
            return 1
        print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
