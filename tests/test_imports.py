"""Import boundaries and the package's export table.

``import redblack`` loads no submodule and no numpy; every exported name
loads its home module on first use.  A CLI process imports only the layers
its subcommand runs, so ``--help``, ``--version``, usage errors and
``report`` on anything but a table artifact finish without numpy.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import redblack as rb
from redblack.cli import main

# Runs the CLI on the argv in sys.argv[1] and prints, as its last line, the
# numpy, concurrent.futures and redblack layer modules the process holds
# afterwards.
_CLI_CHILD = """
import json, sys
from redblack.cli import main
code = main(json.loads(sys.argv[1]))
loaded = sorted(
    m for m in sys.modules
    if m in ("numpy", "concurrent.futures") or m.startswith("redblack.")
)
print(json.dumps({"code": code, "loaded": loaded}))
"""


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    # The child imports the same package as this test, installed or not.
    package_root = str(Path(rb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": path},
    )


def _cli_child(argv: list[str]) -> tuple[dict, str]:
    proc = _child(_CLI_CHILD, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    *output, last = proc.stdout.splitlines()
    return json.loads(last), "\n".join(output)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("artifacts")
    paths = {name: root / f"{name}.json" for name in ("table", "curve", "check", "enum", "sim")}
    table = str(paths["table"])
    for argv, code in (
        (["gen", "--M", "3", "--family", "power", "--p", "2", "--out", table], 0),
        (["gen", "--M", "3", "--family", "k-exp", "--out", str(paths["curve"])], 0),
        (["check", "--table", table, "--out", str(paths["check"])], 1),
        (["enum", "--table", table, "--x0", "1", "--out", str(paths["enum"])], 0),
        (["sim", "--table", table, "--x0", "1", "--trials", "200", "--out", str(paths["sim"])], 0),
    ):
        assert main(argv) == code, argv
    return paths


class TestImportBoundary:
    def test_package_import_loads_no_layer(self) -> None:
        code = (
            "import sys, redblack\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('redblack.')))"
        )
        proc = _child(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_first_use_loads_the_home_module_and_caches(self) -> None:
        code = (
            "import sys, redblack\n"
            "simulate = redblack.simulate\n"
            "from redblack.montecarlo import simulate as home\n"
            "print(simulate is home, vars(redblack)['simulate'] is home, 'redblack.checks' in sys.modules)"
        )
        proc = _child(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True", "False"]

    @pytest.mark.parametrize("kind", ["curve", "check", "enum", "sim"])
    def test_report_skips_numpy(self, artifacts: dict[str, Path], kind: str) -> None:
        result, output = _cli_child(["report", str(artifacts[kind])])
        assert result == {"code": 0, "loaded": ["redblack.cli"]}
        assert output.startswith(f"redblack {rb.__version__}")

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["--version"], 0), (["check"], 2), (["nosuch"], 2)],
        ids=["help", "version", "missing-option", "unknown-subcommand"],
    )
    def test_parser_exits_skip_numpy(self, argv: list[str], code: int) -> None:
        assert _cli_child(argv)[0] == {"code": code, "loaded": ["redblack.cli"]}

    def test_a_one_tile_sim_opens_no_pool(self, artifacts: dict[str, Path], tmp_path: Path) -> None:
        """``concurrent.futures`` loads only where a pool opens: 200 trials
        are one tile, which the calling thread walks whatever ``--jobs`` is."""
        argv = ["sim", "--table", str(artifacts["table"]), "--x0", "1", "--trials", "200"]
        result, _ = _cli_child(argv + ["--jobs", "2", "--out", str(tmp_path / "sim.json")])
        assert result["code"] == 0 and "redblack.montecarlo" in result["loaded"]
        assert "concurrent.futures" not in result["loaded"]

    def test_report_of_a_table_still_renders(self, artifacts: dict[str, Path]) -> None:
        result, output = _cli_child(["report", str(artifacts["table"])])
        assert result["code"] == 0 and "numpy" in result["loaded"]
        assert "win-probability table, money M = 3" in output


class TestExportTable:
    def test_every_name_resolves_to_its_home_object(self) -> None:
        assert rb.__all__[0] == "__version__"
        for name in rb.__all__[1:]:
            home = importlib.import_module(f"redblack.{rb._HOME[name]}")
            assert getattr(rb, name) is getattr(home, name), name

    def test_each_name_is_listed_once(self) -> None:
        assert sum(map(len, rb._EXPORTS.values())) == len(rb._HOME) == len(rb.__all__) - 1

    def test_dir_covers_all(self) -> None:
        assert set(rb.__all__) <= set(dir(rb))

    def test_star_import_binds_every_name(self) -> None:
        namespace: dict = {}
        exec("from redblack import *", namespace)
        assert set(rb.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self) -> None:
        with pytest.raises(AttributeError, match="no_such_name"):
            rb.no_such_name  # noqa: B018

    def test_submodule_import_still_works(self) -> None:
        from redblack import solver

        assert solver is sys.modules["redblack.solver"]
        assert solver.verify_nash is rb.verify_nash
