"""Time each ``redblack`` subcommand from process start to exit.

    python scripts/cli_timing.py

Spawns ``python -m redblack`` on fixed small inputs (``power_family(5, 2)``
and the artifacts made from it) with the package from this checkout's
``src`` and one BLAS thread, SPAWNS times per subcommand, and prints the
median wall time of each, next to that of a bare ``python -c pass``.  Every
spawn's artifact (the ``--out`` file, or stdout for ``report``) must match
its frozen sha256 and exit code; the script exits 1 on a mismatch, so a
faster start-up that changes a byte is caught.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SPAWNS = 15
SRC = Path(__file__).resolve().parents[1] / "src"
# name, argv, exit code, the file holding the artifact (None: stdout), and
# its sha256.  Each step reads only artifacts written by the steps above it.
STEPS: list[tuple[str, list[str], int, str | None, str]] = [
    ("gen", ["gen", "--M", "5", "--family", "power", "--p", "2", "--out", "table.json"], 0,
     "table.json", "275518fcebc912e61c2d94510357c28291caf39ba23600a43b25f152d2ea980a"),
    ("check", ["check", "--table", "table.json", "--out", "check.json"], 1,
     "check.json", "24640ee59d0cc28b49931251cd2caa09aaeff341fb33533a8877814fc39fa3e7"),
    ("solve", ["solve", "--table", "table.json", "--x0", "2", "--out", "solve.json"], 0,
     "solve.json", "a3935adeba05f4c3498c464d47e92271914cc671a8a77b5000837bdf179dbe03"),
    ("nash", ["nash", "--table", "table.json", "--x0", "2", "--out", "nash.json"], 0,
     "nash.json", "6931874a9e5da519cb853e5cc19d9f76c67eb27cfa575eac72931e773852dd41"),
    ("enum", ["enum", "--table", "table.json", "--x0", "2", "--out", "enum.json"], 0,
     "enum.json", "a6d1176617674e689555a39ab9344d895df9ef81d617e38484cafb43df4a5493"),
    ("sim", ["sim", "--table", "table.json", "--x0", "2", "--trials", "2000", "--out", "sim.json"], 0,
     "sim.json", "6619b817e6d51b1ceccc30aa387294d2389a54150c928f5be1756239d523947b"),
    ("report", ["report", "check.json"], 0,
     None, "2090098ebe41f83d4e6582dd6bf154ba38c938387663a4a8f5e7d437531687dc"),
]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _spawn(argv: list[str], cwd: str, env: dict[str, str]) -> tuple[float, int, bytes]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def main() -> int:
    env = _env()
    failures = 0
    with tempfile.TemporaryDirectory() as cwd:
        floor = statistics.median(_spawn(["-c", "pass"], cwd, env)[0] for _ in range(SPAWNS))
        print(f"python -c pass: {floor * 1000:.0f} ms (median of {SPAWNS})", flush=True)
        for name, argv, code, out, expected in STEPS:
            times = []
            for _ in range(SPAWNS):
                elapsed, got_code, stdout = _spawn(["-m", "redblack", *argv], cwd, env)
                times.append(elapsed)
                artifact = stdout if out is None else Path(cwd, out).read_bytes()
                digest = hashlib.sha256(artifact).hexdigest()
                if (got_code, digest) != (code, expected):
                    print(
                        f"{name}: exit {got_code}, sha256 {digest}; expected exit {code}, "
                        f"sha256 {expected}",
                        file=sys.stderr,
                    )
                    failures += 1
                    break
            print(f"{name}: {statistics.median(times) * 1000:.0f} ms", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
