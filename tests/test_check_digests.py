"""Byte-identity of ``redblack gen``, ``report`` and ``check`` output.

``DIGESTS`` holds the sha256 of check artifacts written by the scalar
(one term at a time) scanners that preceded the array kernel.
``TABLE_DIGESTS`` holds, per family and money, the sha256 of the ``gen``
table artifact and of the ``report`` text rendered from it, both written
while tables were still stored as nested tuples of floats.  Any change to a
count, a witness, a float's last bit or the serializer shows up here.
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

# (gen table.json, report table.json text) per "family M"
TABLE_DIGESTS = {
    "power-1 3": (
        "c283ca53b861e1741097d1c89a718fd89f833922918496722d42b12eea69ec8f",
        "783da898ac33ddb299c81d4254a3f7e5be399885c79365c5b1ef43ed358fb760",
    ),
    "power-1 6": (
        "fe44e5c4f24f755e4d211f1d8f04c4f6ddc8d837c7bd5a7029083dfe9c4dd6ce",
        "3afff6081bf89e97cf4d768d1ae9e41abf6e2257a617792a8d86041d9cd9d2e1",
    ),
    "power-1 12": (
        "380a6c1481d5abcfd457c0cdb95b8534f7d37f57a0abef8c82f27b3e36620164",
        "4c89efd2e66d481deff27a4fdbb623d6d0ab5f15d2d1296b8787518f0deced84",
    ),
    "power-1 40": (
        "9b464aabc94beeb184333f95b8acaa8d07beac971fd1a8eac3759b51a8ea98a7",
        "354166c9d2a3ff1a99f0956f054cc803c34a1a5a0548024c2451c9b1e9ffd1bf",
    ),
    "power-2 3": (
        "5678761336430668c7d7de625efaeee80540d2ee76cd63d627b8e2e86f3614f9",
        "e2624a82ece4e3a8a7e5e60d76d9491ad247ca196c4c2467701cd2274d42db49",
    ),
    "power-2 6": (
        "8b257319f1211070ae47c9107319ffec8f97843957354f5396a9416cd8d8f230",
        "eaeafe090c76bfe3e427d4b98ad55b26b926f7c76a325212fcef9eab228ea548",
    ),
    "power-2 12": (
        "aafc10379826e76ec17703f78fe42802f3ae06a007f679c13450d9a2d35e3f2e",
        "e783953f82f9a0a5f47eb3c05c64cd431e38b71602a645b183710bf08cfa2bd4",
    ),
    "power-2 40": (
        "401abc6d70378d9a964b79800943d30eddcecc8e986f45a72a2bc39146979139",
        "bf0dbafaec417368ee81ad232488e0ab1cae7eb4d7b29fd194c3a13745827e2d",
    ),
    "power-2.5 3": (
        "8ea66a863fecc69b84a28505182d0e5e7ad12616936c39a649b704d7fa78b925",
        "2998aa893f6f81776e4c5758220fb4c884cad9a3dc5a4df6c373e883255ab789",
    ),
    "power-2.5 6": (
        "ce6d4e6194edf1872194cae6af6faf1682d26c40cc6d0259435b127ff7834b09",
        "b933b514c62eaedf4ca4084ac4c21b2dbe92676f68ee9cb05e5e6164b530676f",
    ),
    "power-2.5 12": (
        "9f96250ac72cd739f82bbf629e8883a4b9bca3895a5841159af52a7c17cabf3a",
        "630152eb897e2a2b3d49cda773b1894336b01dbedb1c06180ab10bf47a268e35",
    ),
    "power-2.5 40": (
        "cedda89ca12cd5627590fa7bb82ab3344c793a5b709b9c82e9be5a0fd1d3fc40",
        "7217afb30cb96d61424537e251ca1e5da8b9af6b05ffa19dd0518ac72229fe69",
    ),
    "min-exp 3": (
        "a3f44432bdb691c38304e337905548e24156e58704914d5bdfe0977e1b6e42fd",
        "5bcc754d26bc739b6ff7e371a3c3ac2be8fd66ddb684198bfe324155c56b18c1",
    ),
    "min-exp 6": (
        "7d973f05ad365b0022016eb40c538d1c15d8e47d887b8e4a5279e917ce6cd409",
        "c68a22064468df7806a415a32fc75add2a4e37ac2652b4936c6bce03d4b3220d",
    ),
    "min-exp 12": (
        "f1d245b7bbb417cb2deb581f3d1b26f786df11e5a46b25057a818196ea7c25db",
        "e66fdfd7405d3f610ad27d125cb74274d620eafbdd816f2450d116334d6d8860",
    ),
    "min-exp 40": (
        "c860bca7a62c6838eda50cb1fd4d1b0b457397402581d38a76e3bc2606dab9c6",
        "7459fee52998c5a4250fc7f6ff4ad0e5b87feafd227dff90fb8bd7361fbd9f30",
    ),
    "exp-diff 3": (
        "1a01b4ed718d5bc45ef8b44d54001466cbf99b9bc994c7c603621cd0623da998",
        "f98bbd962470d82693df1917ee784219844432b6303a84aeaf915db2e59af940",
    ),
    "exp-diff 6": (
        "887815854a9d2357daa200a38568cf1e9eac1324495fb19ad31a6299fdc28520",
        "02924ef4021355150adb1d84e8b2912d29ee5590c5dc1068a29224d808dcdef1",
    ),
    "exp-diff 12": (
        "1b854e9681578b8eb1085207752d0047cc87b75477d29b7e306f5170bd1d8723",
        "cf428e23618d1ecfa98d60ba1c73046ae4f217e8564a5500f3285f4adfcee7e0",
    ),
    "exp-diff 40": (
        "3ee74a7df25cd5b39ecaed760af31f830c0a5dd4c456a2ed48f0b90f96680dae",
        "bc610e3b510e750cc46d0647870c2b87f45dd793ed9bc84b8dbfccc7a44884e6",
    ),
    "gauges 3": (
        "9ce811d70b1d8e7423792c20128be9e6897ec408c970eeba1ef9ba7d17eb5dfa",
        "3cd9101a7dea2f57156d5f981bd314b3740e48c44c6ef9efdb65b0e3b28985c1",
    ),
    "gauges 6": (
        "0697455136a20c88c49f0b3e3ab47dbd8e2fab53fe1b869c65b375b151812063",
        "8b988863a096415e55dc4be222cf8cda86b6860ee3ac4d03c9d79bc4c80e2992",
    ),
    "gauges 12": (
        "3d0c585fb07a4f7227111bc2162cc53af172d7945c5e7c68f808938fd77c79e9",
        "a9903d89aa42a212d07b19596b0b872c44782ce0569614c052e8e092833078c7",
    ),
    "gauges 40": (
        "cbef9a6522f8077c42da9f6b47c91685712c529135b10e50b82adbf99e03183d",
        "0db95ef23eda872213fd2079564ca85486dab07ca3f59e7d05f9b1676e2a09e1",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_digest(
    tmp_path: Path, monkeypatch, capsys, family: str, M: int, extra: list[str]
) -> tuple[str, str, str]:
    """Digests of the ``gen`` table, its ``report`` text and the ``check`` artifact."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REDBLACK_TOL", raising=False)
    Path("gauges.json").write_text(json.dumps(GAUGES), encoding="utf-8")
    assert main(["gen", "--M", str(M), *FAMILIES[family], "--out", "table.json"]) == 0
    capsys.readouterr()
    assert main(["report", "table.json"]) == 0
    report = capsys.readouterr().out
    assert main(["check", "--table", "table.json", *extra, "--out", "check.json"]) in (0, 1)
    return (
        _sha256(Path("table.json").read_bytes()),
        _sha256(report.encode("utf-8")),
        _sha256(Path("check.json").read_bytes()),
    )


@pytest.mark.parametrize(
    "family,M,extra",
    [(family, M, []) for family in FAMILIES for M in (3, 6, 12, 40)]
    + [("exp-diff", 40, ["--max-witnesses", "1000"])],
)
def test_check_artifact_is_byte_identical(
    tmp_path: Path, monkeypatch, capsys, family: str, M: int, extra: list[str]
) -> None:
    key = " ".join([family, str(M), *extra])
    expected = (*TABLE_DIGESTS[f"{family} {M}"], DIGESTS[key])
    assert _check_digest(tmp_path, monkeypatch, capsys, family, M, extra) == expected
