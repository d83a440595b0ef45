"""Byte-identity of ``redblack check`` artifacts.

The digests below are the sha256 of check artifacts written by the scalar
(one term at a time) scanners that preceded the array kernel.  Any change
to a count, a witness, a float's last bit or the serializer shows up here.
Runs happen inside ``tmp_path`` with a relative ``--table`` path, so the
manifest holds no machine-specific path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from redblack.cli import main

GAUGES = {"members": [{"kind": "power", "p": 1.5}, {"kind": "exp", "m": 0.3}]}

FAMILIES = {
    "power-1": ["--family", "power", "--p", "1"],
    "power-2": ["--family", "power", "--p", "2"],
    "power-2.5": ["--family", "power", "--p", "2.5"],
    "min-exp": ["--family", "min-exp", "--m", "0.5"],
    "exp-diff": ["--family", "exp-diff"],
    "gauges": ["--family", "gauges.json"],
}

DIGESTS = {
    "power-1 3": "b0d013401669b0af19ac4572731c7092aece0cefd3e8483bdffc805498a98e29",
    "power-1 6": "83bd4e044749d4688153069c6a1a2622bb00c13a72124b715ea744c2131eb3db",
    "power-1 12": "6f583858b98829e5b6a0fe74f875b4ed25f8c726e6defeb52b61a9c4f78d9f54",
    "power-1 40": "227cc66d75991909b6eac7a46f5265fd71ee49f4e8077b6d2b6d23a79c3835dd",
    "power-2 3": "107c2b0a88d8a139951b60d5b851f9e36915129c0feca98dabbc896dafe8d818",
    "power-2 6": "04fa1e7f0a135a2d27ea197dc0be955023e264041fd4009a668fe2e1c81f79c8",
    "power-2 12": "7e72015fed7ef67b252edb447ed3dfec3959d1731152d0e561d9ec1bd61bfa1f",
    "power-2 40": "adf9e26eb18284b238e72a7eb85521b08694facad47c0584ea1e1093ab3e83ba",
    "power-2.5 3": "4a981483ff15c108f90276bb6420e8fbde953c33a7ae2e7cc84027b56ac85f02",
    "power-2.5 6": "daeee30ade47f3a3de1eb73139e7118e592f918062c44ec3a48564fc86a975d6",
    "power-2.5 12": "9a7fe54a14a72496b25f8fb3142d7f1e6656e1c4a673e2267d18770180c5e768",
    "power-2.5 40": "3803cd710d4f0367ede15c23a4762f82ca2f850bffefafb777c41beac5132ff8",
    "min-exp 3": "61b67b32f91d7eaeca6fad6c811250671f41243142bf28dbbfe9fc917053532d",
    "min-exp 6": "501ff4f4bdc787f93753c56a7cf174da590b9c90e5a7074bc4e93dfd604937e2",
    "min-exp 12": "2916f13666429fa6fe7b6158a5541f9344beb29c7a42ed15dc3519d3ddd664b0",
    "min-exp 40": "e6e56abc9d3b15b19fac118160815e31c2c2aeb5fc0b30610ff1bacee6c952a4",
    "exp-diff 3": "65134656833e38f928461b35498dc2d30878d5d2bcd318c81debf7cf37afa132",
    "exp-diff 6": "5aeb96c31214d28f8dd5e76e1c196717b01a29f029862f1a9d0105a04ea9a87b",
    "exp-diff 12": "c8ceb5adba643dd2598014b997c96bb1822b42cce0e1441c01814642a9308beb",
    "exp-diff 40": "886e56029d479f034d0b68ccecfdbc9a3dee54356dc5108ddf777dd036ebcdef",
    "gauges 3": "e3691c29d53e381f77aade84f14d26a44aac18cb496495e21777bb2ebc6ea34a",
    "gauges 6": "98124366112b49f76be8745f5647e51407692aa4bdfd9a7470aaba20b642c07b",
    "gauges 12": "2bb24111543734e656dca9278dd79b5b8a9b4a10899c29a0c7e0d695d6b6c41c",
    "gauges 40": "7debc31e49641953aa3ea8ee1ea47b47787bcc7a0eee16662555ef556eff7947",
    "exp-diff 40 --max-witnesses 1000": "176c97d437e995fa72694de617b166af7c6bf4d2a1fa8cbaedfae8f75565de34",
}


def _check_digest(
    tmp_path: Path, monkeypatch, family: str, M: int, extra: list[str]
) -> str:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REDBLACK_TOL", raising=False)
    Path("gauges.json").write_text(json.dumps(GAUGES), encoding="utf-8")
    assert main(["gen", "--M", str(M), *FAMILIES[family], "--out", "table.json"]) == 0
    assert main(["check", "--table", "table.json", *extra, "--out", "check.json"]) in (0, 1)
    return hashlib.sha256(Path("check.json").read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "family,M,extra",
    [(family, M, []) for family in FAMILIES for M in (3, 6, 12, 40)]
    + [("exp-diff", 40, ["--max-witnesses", "1000"])],
)
def test_check_artifact_is_byte_identical(
    tmp_path: Path, monkeypatch, family: str, M: int, extra: list[str]
) -> None:
    key = " ".join([family, str(M), *extra])
    assert _check_digest(tmp_path, monkeypatch, family, M, extra) == DIGESTS[key]
