"""Child processes: the environment they run in and ``redblack`` invocations."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    """The package from the checkout's ``src``; one BLAS thread per process,
    so no workload runs more threads than the two cores it is sized for."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_cli(argv: list[str], cwd: Path, env: dict[str, str], tracer=None,
            spans_dir: Path | None = None) -> tuple[int, bytes, bytes]:
    """Run one ``redblack`` subcommand to completion; returns code, stdout, stderr.

    With ``spans_dir`` the invocation goes through the tracing shim, which
    writes its spans there; ``tracer`` records the process's lifetime.
    """
    if spans_dir is None:
        command = [sys.executable, "-m", "redblack", *argv]
    else:
        spans_file = spans_dir / f"cli-{len(list(spans_dir.iterdir())):03d}.jsonl"
        command = [sys.executable, str(BENCH_DIR / "shim.py"), str(spans_file), *argv]
    start = time.monotonic_ns()
    proc = subprocess.run(command, cwd=cwd, env=dict(env, PERFBENCH_SPAWN_NS=str(start)),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if tracer is not None:
        tracer.record("bench.cli_process", start, time.monotonic_ns(), {"subcommand": argv[0]})
    return proc.returncode, proc.stdout, proc.stderr
