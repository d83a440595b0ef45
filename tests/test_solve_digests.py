"""Byte-identity of ``redblack solve`` artifacts on chains that absorb.

The digests below are the sha256 of ``solve --x0 1`` artifacts written by
the solver that sent cycling chains through value iteration under
``auto``.  On a chain that absorbs from every fortune, ``auto`` and
``solve`` run the same stacked linear solve and ``iterate`` the same value
iteration as then, so every float must keep its last bit.  Each case
asserts that its chain absorbs.  Runs happen inside ``tmp_path`` with
relative paths, so the manifest holds no machine-specific path.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from redblack.cli import main

FAMILIES = {
    "power-1": ["--family", "power", "--p", "1"],
    "power-2": ["--family", "power", "--p", "2"],
    "min-exp": ["--family", "min-exp", "--m", "0.5"],
    "exp-diff": ["--family", "exp-diff"],
}

PROFILES = ("bold-timid", "timid-timid", "timid-bold", "seeded")
METHODS = ("auto", "solve", "iterate")
SEED = 7


def _seeded_profile(M: int) -> dict:
    """Player I's stakes ``randint(1, x)`` for ``x = 1 .. M - 1``, then player II's."""
    rng = random.Random(SEED)
    first = [0, *(rng.randint(1, x) for x in range(1, M)), 0]
    second = [0, *(rng.randint(1, x) for x in range(1, M)), 0]
    return {"M": M, "player_I": first, "player_II": second}


DIGESTS = {
    "exp-diff 6 bold-timid auto": "63a45a4a90b206c7879c4f9db20ad29b2b60398a7ee747d520d204719b438d89",
    "exp-diff 6 bold-timid solve": "ebeaf61f172485dfc9643fc2b0a6495d7a36672199837d6de049f512a5e4433f",
    "exp-diff 6 bold-timid iterate": "e0ce1224c8d8bd721c11b3cf2a3ef60b5cdfb752f51da022dffa806749c2e40d",
    "exp-diff 6 timid-timid auto": "d2b2755b38200cf4a9f0de231be1f8b92a72f7443c7a72c0c70df016ae0353ba",
    "exp-diff 6 timid-timid solve": "75b7702fb5fbb4682d004b8bd8aacba0b1e8f1db62d2d3bff220fb54dc05c856",
    "exp-diff 6 timid-timid iterate": "950011083a29aa904f8c541b6596cc178661bf08bf188e38eb3b198154b3dd94",
    "exp-diff 6 timid-bold auto": "7a710463ff68ed217c611d6f851859f334fa1d9f3e6f395c1a0e3e6a2dc3b861",
    "exp-diff 6 timid-bold solve": "b46b1291407ff7a92622b946b6a50ad583222455fb06f66e111284c6fd840cfe",
    "exp-diff 6 timid-bold iterate": "28e2802e130db8b474fdbe04ff30e6c02c4420cdcfc9cc4199e6996c9be98d80",
    "exp-diff 6 seeded auto": "17853a639cfd7e6c681649bc30a42076c0d2b5f560315ff9e5929af308ad249f",
    "exp-diff 6 seeded solve": "1c23f93d2a7cbdc8a0d19018c09c945253b35d058328a343fcb03f940b2e38bd",
    "exp-diff 6 seeded iterate": "d2d14225130f266781ceef074bcbc1f5dc80ff66093e4de19d1640b6a5680a9f",
    "exp-diff 40 bold-timid auto": "0113b854100f399d738334b2ee905da4dc8e9ac7e8f5f8c1231e8b2bc1ae6373",
    "exp-diff 40 bold-timid solve": "d27de9e14814cab7f55e2a93073b5908757348ac0e6eb79ace8d0f0156bc5b78",
    "exp-diff 40 bold-timid iterate": "9cc1ece3c2f521003a18c228d2164d46c5d9a23e4de72d8b83fde605fc3f0b16",
    "exp-diff 40 timid-timid auto": "eab2bfd338d1fb1f096a786954fd2a6d2c774fbfd6397e518d2b6fa71d5d16e5",
    "exp-diff 40 timid-timid solve": "74fc54d2af27c2a795a74a806a268f11502ea6d93ab138e8a92bb2c7922b6209",
    "exp-diff 40 timid-timid iterate": "2adaa34d450052991c19ae8bcd4e968e206844576dfd5611cd279c8de467c588",
    "exp-diff 40 timid-bold auto": "e32e1f70ee498d1849a438cb73b9da546f9a46aa430cc00563d153a7599d41ba",
    "exp-diff 40 timid-bold solve": "89c96756b6e86ee933ab7c1b0323db6c39207444570820137dfa801d8985096a",
    "exp-diff 40 timid-bold iterate": "28ac070d1a9dde35fff0130a42eac5b4f31f75259de0e23884a71b7c042df328",
    "exp-diff 40 seeded auto": "2c7fe79f4d47fdb70fcaa555f4d39231f2f10d794c830ea7b5d70b6427b4d31f",
    "exp-diff 40 seeded solve": "c9e4a46d04111c48f10d5289f78c0942af758c1e65f4f5b32aef93cf6dd341bb",
    "exp-diff 40 seeded iterate": "b44bbe49a19dfb9b69b0a4ca25e7882c03f3aad303abffa00b4079fc256a7642",
    "min-exp 6 bold-timid auto": "257bc491f50fc8b72993d2e3209784ec6e02dbdcfa0478596e304adc57451dfe",
    "min-exp 6 bold-timid solve": "3e81d6e975d379b9083aa53eb955e26663c4d77672da51c5db28466ae312ad53",
    "min-exp 6 bold-timid iterate": "281e9c89bb6c805e051a9dfb9ab7323f2030259ff4c9069d5db331d8df70776c",
    "min-exp 6 timid-timid auto": "fc427fdc95c374604121a3b411ebf0b83ca292bb3c895d560a2349e08fceb0ad",
    "min-exp 6 timid-timid solve": "244b2b7a0698086e66ea1289c78c75b3c6774840cbd914e0fef6c959adee5ec6",
    "min-exp 6 timid-timid iterate": "89b1bfaab1b087c1627d183c2c1df97c15efcac9565035ae9bcca76fff7dfef3",
    "min-exp 6 timid-bold auto": "bed21541aa2e67652941c9b78608157345228266474eab14dbf3748a1b6e1f7c",
    "min-exp 6 timid-bold solve": "04d24d775af3c56622193545867ac63c6a0ba32933ab103a3b860d0b81d241bc",
    "min-exp 6 timid-bold iterate": "96a410df49733ca9565abe6b4ae3414e1d1cf630f2b9764615825eee7a49b039",
    "min-exp 6 seeded auto": "51e4df50a176dc779d5cd506e4ac037b856c04ddf6fa8f640f3b60f335636c7c",
    "min-exp 6 seeded solve": "f9c39da7a92629f11b570edc9572b7ba41deba897f93f03a85643ba52d841154",
    "min-exp 6 seeded iterate": "8ee262bcf83427bb06e718cafb187d4cd438d89bf57bef80f921582f4319d4c5",
    "min-exp 40 bold-timid auto": "2b4c7eba983df600c9bcc685c921960942b436c4e43975ad589fc85c54c13ab5",
    "min-exp 40 bold-timid solve": "6318c360de56faa5dc1670f41eb45bf5459eec649680ba25c292a19b5e4dcc52",
    "min-exp 40 bold-timid iterate": "aa46499e55385dd1575f8a4d1227708408665d0f55aae49603e8dde66bf3f61e",
    "min-exp 40 timid-timid auto": "0243e5b0890a400e754a3ae59601d044aa8c22a35067647db17276cda405e40d",
    "min-exp 40 timid-timid solve": "6622e616435024168dfced9cb72dce7f1bd5457db1037a033649b68c93351339",
    "min-exp 40 timid-timid iterate": "50ff40c7e63a010a26d8a45a801275e9936301c1f71e43ddab535961d9570077",
    "min-exp 40 timid-bold auto": "b617e3024f3cd4516a793f890aad4a190c12b6d240351e4fb5eab969ecaade90",
    "min-exp 40 timid-bold solve": "6d00a8ce905522c35c6b7bd37dc496dd90f71c0b0819104e3db0b431a999ec5f",
    "min-exp 40 timid-bold iterate": "bb1a5cda777548ad3cc29c6bb734457055a262e9739dcacdb94849d477063c89",
    "min-exp 40 seeded auto": "bb9cae3eec9c87c4b1550b06155de28ca13aac5cf15fe77b116f1bd1f235a2c8",
    "min-exp 40 seeded solve": "4e67a97b2b6938b849843cb18ca9f80b9d7b5cbb418d1c84f770f7438834fb0e",
    "min-exp 40 seeded iterate": "c382234ed70d934dcebda41c409d597e92d33ccc628a7a2b421a73290280e0a4",
    "power-1 6 bold-timid auto": "2bc9487376aecc109011a941a679554227931e3969d8746a68c517f0e173e083",
    "power-1 6 bold-timid solve": "06a546868338781cd1356b677f2f812b31ccc3426cf7ec280ca32d7e60114606",
    "power-1 6 bold-timid iterate": "0e2dbb2baf7798a67f25b17e6e219e2416fa30a7cf8f00dd509a78f639d1f1c6",
    "power-1 6 timid-timid auto": "fc427fdc95c374604121a3b411ebf0b83ca292bb3c895d560a2349e08fceb0ad",
    "power-1 6 timid-timid solve": "244b2b7a0698086e66ea1289c78c75b3c6774840cbd914e0fef6c959adee5ec6",
    "power-1 6 timid-timid iterate": "89b1bfaab1b087c1627d183c2c1df97c15efcac9565035ae9bcca76fff7dfef3",
    "power-1 6 timid-bold auto": "a9201c643809fa2424abd6d00a36a86a4e93da11dc1c7611b5a740deb2b40eea",
    "power-1 6 timid-bold solve": "d8a9ee719d87b33a0a75cc6ef01ba4a1cc2eb6ec0401bdaf1ee167d6370fc10a",
    "power-1 6 timid-bold iterate": "47c6964bdaa880f0d853768b555447ec3f3143518adf40239e270811a67caa74",
    "power-1 6 seeded auto": "980f6c826914e90196c4d990f96ebff7f2d57c7271a91c75320f4ca273898943",
    "power-1 6 seeded solve": "43be804ce203d610df0c8e8dfe23ed7c6991ce197dac288f779f3d7ea4b433f8",
    "power-1 6 seeded iterate": "d218718b1f1b33a93a07b7d0f252a8dd3bf02e1a049d2135e7b5813be34612e0",
    "power-1 40 bold-timid auto": "c27b6645a8b3a1c92661b328e559fa1b5c02c58ff6202e9015435e52f114d5c7",
    "power-1 40 bold-timid solve": "d3ccf17d3b969167fcba0e8229940a47ab997828a8767bb9fbbfd776ec37da7b",
    "power-1 40 bold-timid iterate": "5ddaef69618af33bcc9d6b343c37fc001c52f69f165751d93de79d31663ff06a",
    "power-1 40 timid-timid auto": "0243e5b0890a400e754a3ae59601d044aa8c22a35067647db17276cda405e40d",
    "power-1 40 timid-timid solve": "6622e616435024168dfced9cb72dce7f1bd5457db1037a033649b68c93351339",
    "power-1 40 timid-timid iterate": "50ff40c7e63a010a26d8a45a801275e9936301c1f71e43ddab535961d9570077",
    "power-1 40 timid-bold auto": "1dc51127b4464408302c9f32fa8f0f1013c6e1e367181c961db78ae247edcd98",
    "power-1 40 timid-bold solve": "9056f38cd6187955358fc310078046c5cb3c59f4ea0eec2946d94a0cef83b37b",
    "power-1 40 timid-bold iterate": "dc58577ca0081133396ae978fdfcb47eb86a4b0933f7b6f9d9e474ee8d6fc628",
    "power-1 40 seeded auto": "3789ab05716229a34af4638beb4723289730c036fcb346dcb36af2ac28aea960",
    "power-1 40 seeded solve": "1802eda2255a4eafd77ace8264dc0c9e63bf421ca6f9881a4207b899a29d5305",
    "power-1 40 seeded iterate": "c25b9dc0934aa644508c2f455d6233717bbacd1b8db56d921af8fedd59eda568",
    "power-2 6 bold-timid auto": "0f0a0742776d58c491f100728617fd2b01106a8bf80008aec9e5958a7efdf4e7",
    "power-2 6 bold-timid solve": "ea24d1e89cacdf816fbadeee6e0705993e9a630bf824bd26540af528b29ec908",
    "power-2 6 bold-timid iterate": "9b23e376972d0b49645d87a2dc91bce4ad379ced66d46ccbb5702674a130958c",
    "power-2 6 timid-timid auto": "9a0394c90f2dca1f806b689cf08ef27d27e639597bd1a999141240e55aa97305",
    "power-2 6 timid-timid solve": "7ce4cacf8645424ec9b759f6d65a3711e13863677d8f364e5ab3d9d771b69fbc",
    "power-2 6 timid-timid iterate": "aa0916c58cc36ae06187645fc988d2c8abac02bf1e06514c534713a9c60a0b7d",
    "power-2 6 timid-bold auto": "761a92a0186b8c2302c8a639f8a145a6195e5becf8d3d7eff67fe5b2f34a352d",
    "power-2 6 timid-bold solve": "c1bdd9c56e3b2b9aebb00bfa5b7469aa268d2ffe66d24b4263ac2e0d919285bf",
    "power-2 6 timid-bold iterate": "4a3414cb2de4c1a7dd0d813721e26eca3c7f3308857a9c647bf9a68a90db1939",
    "power-2 6 seeded auto": "55aff5e71296df855e07509383816a5707cc0b81756ef7cbcfab3bcbd5b20266",
    "power-2 6 seeded solve": "b6c65490b3f31d7865f89a4b9883f255564d7fcdc41be08dd2bc3ada7675aa2c",
    "power-2 6 seeded iterate": "bbb258875c1289d04cf0d5dfc2e7f74d9a7028307ff9faf799ee19215c54c36c",
    "power-2 40 bold-timid auto": "e3f779b529f1a8c8b12280dd5d8fc9484e34f3ae8ee992b8c0fda9c2e3f09824",
    "power-2 40 bold-timid solve": "99ca6343c1c34912381a7507451e5ee334f2b43878ff80fc10d7d5610e204824",
    "power-2 40 bold-timid iterate": "9ddc15330ac0bebf0946d1531e78f9675443c674e6207bed8e9f4bf12753e60a",
    "power-2 40 timid-timid auto": "9f9e2032cb729f7a32452aa5493b70447afd559a451710bdd4e61db41bca130f",
    "power-2 40 timid-timid solve": "011faa52fac37f67b84c99c96e700870ccf3a90af45021ea1347a65d99793e33",
    "power-2 40 timid-timid iterate": "91c5ead0fe1111696b433708e24014e76eff3eaf58053beafb2bacb1eb2ab32e",
    "power-2 40 timid-bold auto": "e1696755fd6b552b077f7aaf53091a53814e61566a85b02021ffb8bb6f7a1948",
    "power-2 40 timid-bold solve": "87a6ab1d1239b14d1971faa04dcf05795110ad66fef6a84d16507242bbababa3",
    "power-2 40 timid-bold iterate": "438ad8b96749d087ed55432cfe2b1b3a02412f49a874eb04e07c8da1083d1588",
    "power-2 40 seeded auto": "dc9dcc2c38d85574b8ec0c5b725a9236089d58f50ac4beca88b014d6772d6da6",
    "power-2 40 seeded solve": "27360943cdcb291cbe3113a3bff4e19f4339b7d5bcb407d85243fa246b3f1a2e",
    "power-2 40 seeded iterate": "557d11fffb5b336be0b3061c59e73f0470920bec7a2f04d64a2c604290eb0e2d",
}


def _solve_artifact(
    tmp_path: Path, monkeypatch, family: str, M: int, profile: str, method: str
) -> bytes:
    monkeypatch.chdir(tmp_path)
    if profile == "seeded":
        profile = "profile.json"
        Path(profile).write_text(json.dumps(_seeded_profile(M)), encoding="utf-8")
    assert main(["gen", "--M", str(M), *FAMILIES[family], "--out", "table.json"]) == 0
    argv = ["solve", "--table", "table.json", "--profile", profile, "--method", method]
    assert main([*argv, "--x0", "1", "--out", "solve.json"]) == 0
    return Path("solve.json").read_bytes()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("M", (6, 40))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_solve_artifact_is_byte_identical(
    tmp_path: Path, monkeypatch, family: str, M: int, profile: str, method: str
) -> None:
    artifact = _solve_artifact(tmp_path, monkeypatch, family, M, profile, method)
    assert json.loads(artifact)["absorbing"] is True
    key = f"{family} {M} {profile} {method}"
    assert hashlib.sha256(artifact).hexdigest() == DIGESTS[key]
