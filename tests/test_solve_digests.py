"""Byte-identity of ``redblack solve`` artifacts and of iterated values on
chains that absorb.

``DIGESTS`` holds the sha256 of ``solve --x0 1`` artifacts written by the
solver that sent cycling chains through value iteration under ``auto``.  On
a chain that absorbs from every fortune, ``auto`` runs the same stacked
linear solve as then, so every float must keep its last bit.  Their manifests
still record ``"method": "auto"``, the only method ``solve`` runs.  Runs
happen inside ``tmp_path`` with relative paths, so the manifest holds no
machine-specific path.

``ITERATE_DIGESTS`` holds the sha256 of ``hitting_values(..., method="iterate")``
on the same cases (``q`` then ``t``, float64 little-endian), frozen before
the value iteration was cut down to one chain.  Each case asserts that its
chain absorbs.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

import redblack as rb
from redblack.cli import main

FAMILIES = {
    "power-1": ["--family", "power", "--p", "1"],
    "power-2": ["--family", "power", "--p", "2"],
    "min-exp": ["--family", "min-exp", "--m", "0.5"],
    "exp-diff": ["--family", "exp-diff"],
}

# The tables ``gen`` writes for FAMILIES.
TABLES = {
    "power-1": lambda M: rb.power_family(M, 1.0),
    "power-2": lambda M: rb.power_family(M, 2.0),
    "min-exp": lambda M: rb.min_exp_table(M, 0.5),
    "exp-diff": rb.exp_difference_table,
}

PROFILES = ("bold-timid", "timid-timid", "timid-bold", "seeded")
SEED = 7


def _seeded_profile(M: int) -> dict:
    """Player I's stakes ``randint(1, x)`` for ``x = 1 .. M - 1``, then player II's."""
    rng = random.Random(SEED)
    first = [0, *(rng.randint(1, x) for x in range(1, M)), 0]
    second = [0, *(rng.randint(1, x) for x in range(1, M)), 0]
    return {"M": M, "player_I": first, "player_II": second}


DIGESTS = {
    "exp-diff 6 bold-timid auto": "63a45a4a90b206c7879c4f9db20ad29b2b60398a7ee747d520d204719b438d89",
    "exp-diff 6 timid-timid auto": "d2b2755b38200cf4a9f0de231be1f8b92a72f7443c7a72c0c70df016ae0353ba",
    "exp-diff 6 timid-bold auto": "7a710463ff68ed217c611d6f851859f334fa1d9f3e6f395c1a0e3e6a2dc3b861",
    "exp-diff 6 seeded auto": "17853a639cfd7e6c681649bc30a42076c0d2b5f560315ff9e5929af308ad249f",
    "exp-diff 40 bold-timid auto": "0113b854100f399d738334b2ee905da4dc8e9ac7e8f5f8c1231e8b2bc1ae6373",
    "exp-diff 40 timid-timid auto": "eab2bfd338d1fb1f096a786954fd2a6d2c774fbfd6397e518d2b6fa71d5d16e5",
    "exp-diff 40 timid-bold auto": "e32e1f70ee498d1849a438cb73b9da546f9a46aa430cc00563d153a7599d41ba",
    "exp-diff 40 seeded auto": "2c7fe79f4d47fdb70fcaa555f4d39231f2f10d794c830ea7b5d70b6427b4d31f",
    "min-exp 6 bold-timid auto": "257bc491f50fc8b72993d2e3209784ec6e02dbdcfa0478596e304adc57451dfe",
    "min-exp 6 timid-timid auto": "fc427fdc95c374604121a3b411ebf0b83ca292bb3c895d560a2349e08fceb0ad",
    "min-exp 6 timid-bold auto": "bed21541aa2e67652941c9b78608157345228266474eab14dbf3748a1b6e1f7c",
    "min-exp 6 seeded auto": "51e4df50a176dc779d5cd506e4ac037b856c04ddf6fa8f640f3b60f335636c7c",
    "min-exp 40 bold-timid auto": "2b4c7eba983df600c9bcc685c921960942b436c4e43975ad589fc85c54c13ab5",
    "min-exp 40 timid-timid auto": "0243e5b0890a400e754a3ae59601d044aa8c22a35067647db17276cda405e40d",
    "min-exp 40 timid-bold auto": "b617e3024f3cd4516a793f890aad4a190c12b6d240351e4fb5eab969ecaade90",
    "min-exp 40 seeded auto": "bb9cae3eec9c87c4b1550b06155de28ca13aac5cf15fe77b116f1bd1f235a2c8",
    "power-1 6 bold-timid auto": "2bc9487376aecc109011a941a679554227931e3969d8746a68c517f0e173e083",
    "power-1 6 timid-timid auto": "fc427fdc95c374604121a3b411ebf0b83ca292bb3c895d560a2349e08fceb0ad",
    "power-1 6 timid-bold auto": "a9201c643809fa2424abd6d00a36a86a4e93da11dc1c7611b5a740deb2b40eea",
    "power-1 6 seeded auto": "980f6c826914e90196c4d990f96ebff7f2d57c7271a91c75320f4ca273898943",
    "power-1 40 bold-timid auto": "c27b6645a8b3a1c92661b328e559fa1b5c02c58ff6202e9015435e52f114d5c7",
    "power-1 40 timid-timid auto": "0243e5b0890a400e754a3ae59601d044aa8c22a35067647db17276cda405e40d",
    "power-1 40 timid-bold auto": "1dc51127b4464408302c9f32fa8f0f1013c6e1e367181c961db78ae247edcd98",
    "power-1 40 seeded auto": "3789ab05716229a34af4638beb4723289730c036fcb346dcb36af2ac28aea960",
    "power-2 6 bold-timid auto": "0f0a0742776d58c491f100728617fd2b01106a8bf80008aec9e5958a7efdf4e7",
    "power-2 6 timid-timid auto": "9a0394c90f2dca1f806b689cf08ef27d27e639597bd1a999141240e55aa97305",
    "power-2 6 timid-bold auto": "761a92a0186b8c2302c8a639f8a145a6195e5becf8d3d7eff67fe5b2f34a352d",
    "power-2 6 seeded auto": "55aff5e71296df855e07509383816a5707cc0b81756ef7cbcfab3bcbd5b20266",
    "power-2 40 bold-timid auto": "e3f779b529f1a8c8b12280dd5d8fc9484e34f3ae8ee992b8c0fda9c2e3f09824",
    "power-2 40 timid-timid auto": "9f9e2032cb729f7a32452aa5493b70447afd559a451710bdd4e61db41bca130f",
    "power-2 40 timid-bold auto": "e1696755fd6b552b077f7aaf53091a53814e61566a85b02021ffb8bb6f7a1948",
    "power-2 40 seeded auto": "dc9dcc2c38d85574b8ec0c5b725a9236089d58f50ac4beca88b014d6772d6da6",
}


ITERATE_DIGESTS = {
    "exp-diff 6 bold-timid": "b84b2a6f8a26618554c4a84671738bc45c2ecf0abed9eff60a4d65546f9ffd20",
    "exp-diff 6 timid-timid": "f527d3a6a4d0b71099470a6a6d7c7ecef0edc38b27f6be27474378a0659c6a3d",
    "exp-diff 6 timid-bold": "f527d3a6a4d0b71099470a6a6d7c7ecef0edc38b27f6be27474378a0659c6a3d",
    "exp-diff 6 seeded": "f527d3a6a4d0b71099470a6a6d7c7ecef0edc38b27f6be27474378a0659c6a3d",
    "exp-diff 40 bold-timid": "f589dfc8839ea7f71f06b5358cffd9921f055eb5593a10b7c61a0900655bb7a1",
    "exp-diff 40 timid-timid": "5c969fbedbea8b0d8ba2515fd65ee7fee07581b72e1a2d8764114382c45951fa",
    "exp-diff 40 timid-bold": "5c969fbedbea8b0d8ba2515fd65ee7fee07581b72e1a2d8764114382c45951fa",
    "exp-diff 40 seeded": "eac4d0c5b9a1eb083182774087b425a903e72dc3efc24047adb1a69df8fd1fef",
    "min-exp 6 bold-timid": "8e6a0a56b26dbca57935ee33b320bfd92edb076e52f71ec253829f277c14718b",
    "min-exp 6 timid-timid": "3d8363f36be522346357c24e9a3ff71b4fb719f9275c8795cf7e21a18f5bace6",
    "min-exp 6 timid-bold": "6838c7a52c6580ead8a6c13ce60726e7714a6ba1cdc33593ca31001c9541bcb7",
    "min-exp 6 seeded": "0bb0cafd4064884bdad3b81f1bfe6ebffad52b1b0b1dfc7cfed8ecbedb499f59",
    "min-exp 40 bold-timid": "2969174d1fabea897ec8c1ef60c649efbcde11a409fd59050d698f35dbc6a49e",
    "min-exp 40 timid-timid": "1146e7b3427553733849277852ed71a7bea492eeb5c6483e91e67db4d40a5653",
    "min-exp 40 timid-bold": "7e4fb44bea940cff1655a58f034e9c631577929149f4013b1c87d316d20e85f0",
    "min-exp 40 seeded": "47bc03d1dac193017b4ccc798c91a5d948511afb194f3c3c55024bbf551f07fc",
    "power-1 6 bold-timid": "a9d48c7e2b0ce68d3abdf3b2bdceb5db309aea9c7c03b1f4bf5ebb8f29533b2d",
    "power-1 6 timid-timid": "3d8363f36be522346357c24e9a3ff71b4fb719f9275c8795cf7e21a18f5bace6",
    "power-1 6 timid-bold": "28c877a97e31e428e2e9e2263f27e366ec9ed61a17524ecb973f645b87a33b5e",
    "power-1 6 seeded": "381d6eb6888e6ece987d41c1711b3d19559eb0a1c5256915a7e4826cb6923447",
    "power-1 40 bold-timid": "e95a57b9e4badb96c466bf7e1c8015f0a719a6126e4a7bab4e85288d12f707f4",
    "power-1 40 timid-timid": "1146e7b3427553733849277852ed71a7bea492eeb5c6483e91e67db4d40a5653",
    "power-1 40 timid-bold": "82d53c772ed0947f4006b00b9cf37b2429e81d455098f7885131ce1c94534fee",
    "power-1 40 seeded": "b06d3faedf0c71f8f8f9e9ff5bd9c08c5084e6025f9dbbb13446f02985a8c9f8",
    "power-2 6 bold-timid": "a5dcdf34cf959ce1670b14d65c681a0ec9640d6f23234138d7444d420041c326",
    "power-2 6 timid-timid": "a31e5bdc26496f2676a8d183ba0d76ee832997c9293b0f3e9befd0fe8f4e78cb",
    "power-2 6 timid-bold": "2dfbaa6929b4439fe3f83d34826ba5da1eaba86ce7cc165c46da9389189750c2",
    "power-2 6 seeded": "85bae718fc48fa6320bfc2f5bfb2b36067c9bc35ae3270f7f5b49239ddbd7daa",
    "power-2 40 bold-timid": "f8b9b7c713eb4651133ac9eb357db778d9944a8f4d09e248102fcfeda1103cc6",
    "power-2 40 timid-timid": "9f0821d658a3f2cd009027ecd47412dea25dbb2ff5a920691ce2e2d76674bf1c",
    "power-2 40 timid-bold": "bc4aed53f0194e34a2bff0dab58e4e208772c0598d9cdb28084119c8a109ccb1",
    "power-2 40 seeded": "84c64a2391760100a87bd3d1223cf69d10ae60ec71e5428936a9c3cc054e218f",
}


def _solve_artifact(tmp_path: Path, monkeypatch, family: str, M: int, profile: str) -> bytes:
    monkeypatch.chdir(tmp_path)
    if profile == "seeded":
        profile = "profile.json"
        Path(profile).write_text(json.dumps(_seeded_profile(M)), encoding="utf-8")
    assert main(["gen", "--M", str(M), *FAMILIES[family], "--out", "table.json"]) == 0
    argv = ["solve", "--table", "table.json", "--profile", profile]
    assert main([*argv, "--x0", "1", "--out", "solve.json"]) == 0
    return Path("solve.json").read_bytes()


# The ids and keys name the manifest's method.
@pytest.mark.parametrize("method", ["auto"])
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("M", (6, 40))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_solve_artifact_is_byte_identical(
    tmp_path: Path, monkeypatch, family: str, M: int, profile: str, method: str
) -> None:
    artifact = _solve_artifact(tmp_path, monkeypatch, family, M, profile)
    payload = json.loads(artifact)
    assert payload["absorbing"] is True
    assert payload["manifest"]["parameters"]["method"] == method
    key = f"{family} {M} {profile} {method}"
    assert hashlib.sha256(artifact).hexdigest() == DIGESTS[key]


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("M", (6, 40))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_iterate_values_are_byte_identical(family: str, M: int, profile: str) -> None:
    table = TABLES[family](M)
    if profile == "seeded":
        chosen = rb.Profile.from_json_dict(_seeded_profile(M))
    else:
        chosen = rb.Profile.from_name(profile, M)
    assert rb.absorption_certain(table, chosen)
    values = rb.hitting_values(table, chosen, method="iterate")
    digest = hashlib.sha256(np.array([values.q, values.t], dtype="<f8").tobytes()).hexdigest()
    assert digest == ITERATE_DIGESTS[f"{family} {M} {profile}"]
