"""Byte-identity of ``redblack enum`` artifacts.

``DIGESTS`` holds the sha256 of ``enum`` artifacts written while every
certificate was built eagerly, one frozen object per equilibrium, and turned
into a dict by its own ``to_json_dict``.  The cases cover tables where
every chain absorbs: power p = 2 (whose tie sets grow with ``x0``), exp-diff
and min-exp m = 0.3; tables where some chain can cycle: ``cycle_m4`` and
power p = 1 and p = 2 at M = 5 with the same two entries doctored, whose sets
hold 66/48/48/66 and 0/0/12/36 equilibria at x0 = 1..4; and an empty set
from a negative ``--tol``.  Runs happen inside ``tmp_path`` with relative
paths, so the manifest holds no machine-specific path.

``BOUNDARY_DIGESTS`` holds the same for the boundary starts ``x0 = 0`` and
``x0 = M``, where every pair is an equilibrium worth the constants 0 and 1,
as written when enumeration still solved every pair there.
``BOUNDARY_ARRAYS`` holds the sha256 of such a start's ``rows``, ``cols``,
``value_I`` and ``value_II`` bytes, in that order, from the same code; it
covers the cycling M = 7 table too, whose 518 400 equilibria would make an
artifact of about 270 MB.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

import redblack as rb
from redblack import _enumeration
from redblack.cli import main


def _cycling(M: int, p: float) -> rb.WinProbTable:
    """``power_family(M, p)`` with the entries (1, 2) and (2, 1) forced to 1
    and 0, as in ``cycle_m4``, so some profiles' chains never absorb."""
    return rb.power_family(M, p).with_entry(1, 2, 1.0).with_entry(2, 1, 0.0)


# ``gen`` options per table, or a builder for a table ``gen`` cannot write.
TABLES = {
    "power-2 5": ["--M", "5", "--family", "power", "--p", "2"],
    "exp-diff 4": ["--M", "4", "--family", "exp-diff"],
    "min-exp-0.3 5": ["--M", "5", "--family", "min-exp", "--m", "0.3"],
    "cycle 4": lambda: _cycling(4, 1),  # the ``cycle_m4`` fixture of conftest
    "cycle-power-1 5": lambda: _cycling(5, 1),
    "cycle-power-2 5": lambda: _cycling(5, 2),
}

DIGESTS = {
    "power-2 5 1": "ba5704b575af28f447db2313a0c53229204e16b2ec889d1d4b19fbeda20b92f1",
    "power-2 5 2": "a6d1176617674e689555a39ab9344d895df9ef81d617e38484cafb43df4a5493",
    "power-2 5 3": "7484b22be2e68783392ca7bf6d117a7e1e5611d7e140ef1ed4e8877cfff05391",
    "power-2 5 4": "ef82ff0f71c53484080dde5f887ffc4bfbc902fbef40d97416714373743c0c19",
    "exp-diff 4 1": "3deb6129bfd4a161e0da9cea040b087d06b5d58ce6031a3a50e74b9dc89b3ae9",
    "exp-diff 4 2": "12076ac9be7bcc74a94c2080e67677a6a53aa27190d0ebbfe26a16398436eda7",
    "exp-diff 4 3": "67e24c2d3799b392e956d54e13f6650466fa57650991b98d024b55360ef8ad93",
    "min-exp-0.3 5 1": "bb6a6084f56cec00938cbb74137a63222684adaaf1493ae93a130b0e21c1ddc4",
    "min-exp-0.3 5 2": "2bd0e959c8652d306c70f1685ec57a937084d2c453420300ff8dce614f7399f9",
    "min-exp-0.3 5 3": "16dae3445331c8a996427e02874da1137d637596f089680333eb7ff752dbf3cc",
    "min-exp-0.3 5 4": "db61c12af0c9a850e0add3f585016b4c2fc2178ae78c34dbd191c3e0c5a0bff8",
    "cycle 4 1": "2c82b335f3adad7196fcff67cf60a1aa8710506eb4079a44a49c1aa8ba70c001",
    "cycle 4 2": "0f7c13f370675fe42406491cb1e8ccd1ca9c947cafaf187c576dbe7a0593f940",
    "cycle 4 3": "49f8a10150ff7728770c5af5739e33a0f40a5f1b9052068d64e180243d80ec54",
    "cycle-power-1 5 1": "1580752b51cef163d7138f8db45992f75f9aab4bf7736fd9ec2e785ce614c8a9",
    "cycle-power-1 5 2": "f430adabba953153490ba7a5fd10c2d6fec5ec3181e01d72890568a4b0513ba9",
    "cycle-power-1 5 3": "d17c6e1215a7622785eaec03acf79fab6a76dbc918af5edc675b2c9617554a93",
    "cycle-power-1 5 4": "5009f22d27c1604f2c903527cff04cd3d5514ee0fbe4071761503da0dc75a631",
    "cycle-power-2 5 1": "19c81bf4263d2326e695a1cf0861ee34765d2dadd964b29f84b72db88dc6c72b",
    "cycle-power-2 5 2": "967b77405b8145c4fdb395fb2ccbc92ec0939920d5ee9bd25a3140a4c6bcc3a6",
    "cycle-power-2 5 3": "36b358548880fe05d275b89cb7c6f9838c7d00f84dcdec62e9270397ffc8eea0",
    "cycle-power-2 5 4": "4fe5ae00c705e61a22e94f79e6e0c68b9426fe31afd295333ef7576877d554b5",
    "power-2 5 3 --tol -1": "30f8cd780a2fbb4a6de20e3ce0d5b89c8f0b83debaf17c07cbf72700f7140300",
}


BOUNDARY_TABLES = {
    "power-2 5": lambda: rb.power_family(5, 2),
    "power-2 6": lambda: rb.power_family(6, 2),
    "exp-diff 6": lambda: rb.exp_difference_table(6),
    "cycle-power-2 7": lambda: _cycling(7, 2),
}

BOUNDARY_DIGESTS = {
    "power-2 5 0": "77dc11b4e918eef4eef8b89bcaee121773d57bb754216d86a3bf839afd516098",
    "power-2 5 5": "dd3f8dc414ddffb915763d3072df0fde14d67c1f2a7e3090a3ec522d4812b595",
    "power-2 6 0": "a64d97da70366bd8358b574fed90dd53bd895aad36868feed3817ce1810de1f3",
    "power-2 6 6": "be2a1ef8cd3a0d5aeb368517297e013f9a50efdddb7b2cfb25406c01fd271ee9",
    "exp-diff 6 0": "a64d97da70366bd8358b574fed90dd53bd895aad36868feed3817ce1810de1f3",
    "exp-diff 6 6": "be2a1ef8cd3a0d5aeb368517297e013f9a50efdddb7b2cfb25406c01fd271ee9",
}

BOUNDARY_ARRAYS = {
    "power-2 5 0": "868468da9569db695f46f46fd327d926237e11f5d732df9522299baccedc59e9",
    "power-2 5 5": "9d29ee3b999dcbfc5ef5919faec4dff7ea0cc402a92aba56eadcaa2cd6c035d8",
    "power-2 6 0": "e775b2d4ad3704c3d1491a88b20fd117050b83c5c51d9dbde271a62b9252ed37",
    "power-2 6 6": "55ba35cbcb129cab294f739e76a15d0dc4645f1ebf8f74d5b8a1c691fbed7c88",
    "exp-diff 6 0": "e775b2d4ad3704c3d1491a88b20fd117050b83c5c51d9dbde271a62b9252ed37",
    "exp-diff 6 6": "55ba35cbcb129cab294f739e76a15d0dc4645f1ebf8f74d5b8a1c691fbed7c88",
    "cycle-power-2 7 0": "5836441a33e84b237cc0516792ae3d6eb793909c3287bebef59c079c10547026",
    "cycle-power-2 7 7": "a760554d35062da6a9ff7aea95032d6034a16f42361dac19dd6a6ca181363f17",
}


def _enum_artifact(tmp_path: Path, monkeypatch, table: str, x0: str, extra: list[str]) -> bytes:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REDBLACK_TOL", raising=False)
    source = TABLES.get(table) or BOUNDARY_TABLES[table]
    if callable(source):
        Path("table.json").write_text(rb.canonical_json(source().to_json_dict()), encoding="utf-8")
    else:
        assert main(["gen", *source, "--out", "table.json"]) == 0
    argv = ["enum", "--table", "table.json", "--x0", x0, *extra, "--out", "enum.json"]
    assert main(argv) == 0
    return Path("enum.json").read_bytes()


CASES = [
    (table, x0, []) for table in TABLES for x0 in range(1, int(table.split()[1]))
] + [("power-2 5", 3, ["--tol", "-1"])]


@pytest.mark.parametrize(
    "table,x0,extra", CASES, ids=[" ".join([t, str(x0), *extra]) for t, x0, extra in CASES]
)
def test_enum_artifact_is_byte_identical(
    tmp_path: Path, monkeypatch, table: str, x0: int, extra: list[str]
) -> None:
    artifact = _enum_artifact(tmp_path, monkeypatch, table, str(x0), extra)
    assert hashlib.sha256(artifact).hexdigest() == DIGESTS[" ".join([table, str(x0), *extra])]


@pytest.mark.parametrize("case", sorted(BOUNDARY_DIGESTS))
def test_boundary_artifact_is_byte_identical(tmp_path: Path, monkeypatch, case: str) -> None:
    table, x0 = case.rsplit(" ", 1)
    artifact = _enum_artifact(tmp_path, monkeypatch, table, x0, [])
    assert hashlib.sha256(artifact).hexdigest() == BOUNDARY_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(BOUNDARY_ARRAYS))
def test_boundary_start_reads_the_constants(case: str, monkeypatch) -> None:
    """A boundary start finds every pair, each worth the constants 0 and 1,
    with the recorded arrays to the bit, and solves no pair, neither to
    enumerate nor to read the values."""
    name, x0 = case.rsplit(" ", 1)
    table = BOUNDARY_TABLES[name]()
    _enumeration.table_enumeration.cache_clear()
    monkeypatch.setattr(_enumeration, "_pair_values", _no_solve)
    found = rb.enumerate_equilibria(table, int(x0))
    digest = hashlib.sha256()
    for array in (found.rows, found.cols, found.value_I, found.value_II):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == BOUNDARY_ARRAYS[case]


def _no_solve(*args, **kwargs):
    raise AssertionError("a pair was solved")
