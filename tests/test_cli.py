"""Command-line behavior: artifacts, exit codes, determinism, rendering.

Conventions under test:

* exit 0 = success / verified / agreement, 1 = violation, refuted
  equilibrium or simulation disagreement, 2 = usage, I/O or validation;
* every artifact embeds a manifest (tool, version, subcommand, parameters,
  inputs, seed, tolerance) and serializes with sorted keys and repr floats,
  so reruns are byte-identical;
* the comparison tolerance resolves --tol over REDBLACK_TOL over 1e-12.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import redblack as rb
from redblack.cli import main
from test_exact_values import _seeded_profile


def run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pow2_m3_file(tmp_path: Path, capsys) -> Path:
    out = tmp_path / "pow2-m3.json"
    code, _, _ = run(["gen", "--M", "3", "--family", "power", "--p", "2", "--out", str(out)], capsys)
    assert code == 0
    return out


@pytest.fixture()
def pow2_m4_file(tmp_path: Path, capsys) -> Path:
    out = tmp_path / "pow2-m4.json"
    assert run(["gen", "--M", "4", "--family", "power", "--p", "2", "--out", str(out)], capsys)[0] == 0
    return out


@pytest.fixture()
def el_m4_file(tmp_path: Path, capsys) -> Path:
    out = tmp_path / "el-m4.json"
    assert run(["gen", "--M", "4", "--family", "exp-diff", "--out", str(out)], capsys)[0] == 0
    return out


@pytest.fixture()
def min_exp_m4_file(tmp_path: Path, capsys) -> Path:
    out = tmp_path / "min-exp-m4.json"
    assert run(["gen", "--M", "4", "--family", "min-exp", "--m", "1", "--out", str(out)], capsys)[0] == 0
    return out


class TestGen:
    def test_power_artifact_round_trips(self, pow2_m3_file: Path) -> None:
        payload = json.loads(pow2_m3_file.read_text())
        assert rb.WinProbTable.from_json_dict(payload) == rb.power_family(3, 2)
        manifest = payload["manifest"]
        assert manifest["tool"] == "redblack"
        assert manifest["version"] == rb.__version__
        assert manifest["subcommand"] == "gen"
        assert manifest["parameters"] == {"M": 3, "family": "power", "p": 2.0}
        assert manifest["inputs"] == [] and manifest["seed"] is None

    def test_reruns_are_byte_identical(self, tmp_path: Path, capsys) -> None:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            args = ["gen", "--M", "5", "--family", "min-exp", "--m", "0.5", "--out", str(out)]
            assert run(args, capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, capsys) -> None:
        code, out, _ = run(["gen", "--M", "2", "--family", "power", "--p", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert rb.WinProbTable.from_json_dict(payload) == rb.power_family(2, 1)

    def test_min_exp_and_exp_diff(self, min_exp_m4_file: Path, el_m4_file: Path) -> None:
        assert (
            rb.WinProbTable.from_json_dict(json.loads(min_exp_m4_file.read_text()))
            == rb.min_exp_table(4, 1.0)
        )
        assert (
            rb.WinProbTable.from_json_dict(json.loads(el_m4_file.read_text()))
            == rb.exp_difference_table(4)
        )

    def test_decay_curve_default_factor(self, tmp_path: Path, capsys) -> None:
        out = tmp_path / "curve.json"
        code, _, _ = run(["gen", "--M", "4", "--family", "k-exp", "--c", "1", "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        curve = rb.UnitBetCurve.from_json_dict(payload)
        oracle = rb.curve_from_decay(rb.DecayParams(tuple(1.0 for _ in range(5)), 1.0))
        assert curve == oracle

    def test_decay_curve_from_k_file(self, tmp_path: Path, capsys) -> None:
        k_file = tmp_path / "k.json"
        k_file.write_text(json.dumps({"k": [1.0, 0.9, 0.8, 0.7]}))
        out = tmp_path / "curve.json"
        args = ["gen", "--M", "3", "--family", "k-exp", "--c", "0.5", "--k-file", str(k_file), "--out", str(out)]
        assert run(args, capsys)[0] == 0
        payload = json.loads(out.read_text())
        assert payload["manifest"]["inputs"] == [str(k_file)]
        assert len(payload["curve"]) == 4

    def test_k_file_length_mismatch(self, tmp_path: Path, capsys) -> None:
        k_file = tmp_path / "k.json"
        k_file.write_text(json.dumps([1.0, 0.9, 0.8, 0.7]))
        code, _, err = run(["gen", "--M", "5", "--family", "k-exp", "--k-file", str(k_file)], capsys)
        assert code == 2 and "--M 5" in err

    @pytest.mark.parametrize(
        "body",
        [
            {"k": 5},
            {"c": [1.0, 0.9, 0.8, 0.7]},
            "1.0",
            ["1.0", "0.9", "0.8", "0.7"],
            [None, 1.0, 1.0, 1.0],
            [True, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 10**400],
        ],
        ids=["k-not-a-list", "no-k", "bare-string", "strings", "null", "bool", "int-past-float"],
    )
    def test_unreadable_k_file_is_a_usage_error(self, body: object, tmp_path: Path, capsys) -> None:
        k_file = tmp_path / "k.json"
        k_file.write_text(json.dumps(body))
        code, _, err = run(["gen", "--M", "3", "--family", "k-exp", "--k-file", str(k_file)], capsys)
        assert code == 2 and f"{k_file} is not a valid k file: " in err

    def test_gauge_family_file(self, tmp_path: Path, capsys) -> None:
        spec = tmp_path / "gauges.json"
        spec.write_text(json.dumps({"members": [
            rb.power_member(1.0).to_json_dict(),
            rb.exp_member(1.0).to_json_dict(),
        ]}))
        out = tmp_path / "table.json"
        assert run(["gen", "--M", "4", "--family", str(spec), "--out", str(out)], capsys)[0] == 0
        table = rb.WinProbTable.from_json_dict(json.loads(out.read_text()))
        assert table == rb.min_exp_table(4, 1.0)

    def test_power_needs_exponent(self, capsys) -> None:
        code, _, err = run(["gen", "--M", "3", "--family", "power"], capsys)
        assert code == 2 and "--p" in err

    def test_table_too_large_for_memory_exits_2(self, capsys) -> None:
        # The (M + 1)^2 grid would need 728 TiB, so the allocation fails at once.
        argv = ["gen", "--M", "10000000", "--family", "power", "--p", "2"]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory") and "Traceback" not in err

    def test_unknown_family(self, capsys) -> None:
        code, _, err = run(["gen", "--M", "3", "--family", "no-such"], capsys)
        assert code == 2 and "unknown family" in err

    def test_bad_gauge_file(self, tmp_path: Path, capsys) -> None:
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"not-members": []}))
        assert run(["gen", "--M", "3", "--family", str(spec)], capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["--M", "400", "--family", "min-exp", "--m", "1"], "t = 710"),
            (["--M", "4", "--family", "power", "--p", "2000"], "t = 2"),
        ],
    )
    def test_overflowing_gauge_is_a_usage_error(self, argv: list[str], where: str, capsys) -> None:
        code, out, err = run(["gen", *argv], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "overflows" in err and where in err


class TestCheck:
    def test_small_power_table_is_fully_green(self, tmp_path: Path, capsys) -> None:
        table = tmp_path / "pow2-m2.json"
        assert run(["gen", "--M", "2", "--family", "power", "--p", "2", "--out", str(table)], capsys)[0] == 0
        out = tmp_path / "check.json"
        code, _, _ = run(["check", "--table", str(table), "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert all(report["pass"] for report in payload["checks"])
        assert payload["fairness"]["verdict"] == "subfair"

    def test_power_money_four_fails_only_the_bold_inequality(
        self, pow2_m4_file: Path, tmp_path: Path, capsys
    ) -> None:
        out = tmp_path / "check.json"
        code, _, _ = run(["check", "--table", str(pow2_m4_file), "--out", str(out)], capsys)
        assert code == 1
        payload = json.loads(out.read_text())
        failing = {r["check"] for r in payload["checks"] if not r["pass"]}
        assert failing == {"bold-inequality"}
        assert payload["fairness"]["below_count"] == 6

    def test_exp_difference_failures_and_witnesses(
        self, el_m4_file: Path, tmp_path: Path, capsys
    ) -> None:
        out = tmp_path / "check.json"
        code, _, _ = run(["check", "--table", str(el_m4_file), "--out", str(out)], capsys)
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["fairness"]["verdict"] == "neither"
        by_name = {r["check"]: r for r in payload["checks"]}
        assert by_name["bold-inequality"]["pass"]
        mult = by_name["supermultiplicative"]
        assert not mult["pass"]
        assert [2, 1, 1] in [w["index"] for w in mult["witnesses"]]
        assert not by_name["sincov"]["pass"]
        assert not by_name["uniqueness-conditions"]["pass"]

    def test_default_witness_cap(self, tmp_path: Path, capsys) -> None:
        table = tmp_path / "el-m6.json"
        assert run(["gen", "--M", "6", "--family", "exp-diff", "--out", str(table)], capsys)[0] == 0
        out = tmp_path / "check.json"
        assert run(["check", "--table", str(table), "--out", str(out)], capsys)[0] == 1
        payload = json.loads(out.read_text())
        assert payload["manifest"]["parameters"]["max_witnesses"] == 16
        mult = next(r for r in payload["checks"] if r["check"] == "supermultiplicative")
        assert mult["violations"] == 22 and len(mult["witnesses"]) == 16
        assert all(len(r["witnesses"]) <= 16 for r in payload["checks"])

    def test_malformed_table(self, tmp_path: Path, capsys) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text("{\"M\": 2}")
        assert run(["check", "--table", str(bad)], capsys)[0] == 2

    @pytest.mark.parametrize(
        "cell,value",
        [((0, 0), 0.5), ((0, 0), math.nan), ((2, 1), math.nan), ((2, 1), 1.5), ((1, 2), -0.1)],
    )
    def test_rejects_bad_entries(
        self, pow2_m3_file: Path, tmp_path: Path, capsys, cell: tuple[int, int], value: float
    ) -> None:
        payload = json.loads(pow2_m3_file.read_text())
        payload["entries"][cell[0]][cell[1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))  # writes NaN, which json.load reads back
        code, _, err = run(["check", "--table", str(bad)], capsys)
        assert code == 2 and f"({cell[0]}, {cell[1]})" in err.split("not a valid table artifact:")[1]

    def test_rejects_ragged_rows(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        payload = json.loads(pow2_m3_file.read_text())
        payload["entries"][1].pop()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run(["check", "--table", str(bad)], capsys)
        assert code == 2 and "row" in err.split("not a valid table artifact:")[1]

    @pytest.mark.parametrize(
        "field,value", [("entry", 10**400), ("M", [3])], ids=["huge-entry", "list-M"]
    )
    def test_unconvertible_input_is_a_usage_error(
        self, pow2_m3_file: Path, tmp_path: Path, capsys, field: str, value: object
    ) -> None:
        payload = json.loads(pow2_m3_file.read_text())
        if field == "M":
            payload["M"] = value
        else:
            payload["entries"][1][2] = value  # too large for a float
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["check", "--table", str(bad)], capsys)[0] == 2
        assert run(["report", str(bad)], capsys)[0] == 2

    def test_missing_table(self, capsys) -> None:
        assert run(["check", "--table", "/no/such/file.json"], capsys)[0] == 2

    def test_negative_witness_cap_is_a_usage_error(
        self, pow2_m3_file: Path, tmp_path: Path, capsys, monkeypatch
    ) -> None:
        monkeypatch.setattr("redblack.game.check_border", lambda *a, **k: pytest.fail("scanned"))
        out = tmp_path / "check.json"
        args = ["check", "--table", str(pow2_m3_file), "--max-witnesses", "-1", "--out", str(out)]
        code, _, err = run(args, capsys)
        assert code == 2 and "--max-witnesses" in err
        assert not out.exists()


class TestSolve:
    def test_bold_timid_product_form(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        out = tmp_path / "solve.json"
        code, _, _ = run(
            ["solve", "--table", str(pow2_m3_file), "--x0", "2", "--out", str(out)], capsys
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["absorbing"] is True
        got = payload["values"]["player_I"]
        for value, want in zip(got, (0.0, 1 / 9, 4 / 9, 1.0)):
            assert value == pytest.approx(want, abs=1e-12)
        assert payload["product_form"] == got
        assert payload["x0"] == 2
        assert payload["value_I"] == pytest.approx(4 / 9, abs=1e-12)
        assert payload["value_II"] == pytest.approx(5 / 9, abs=1e-12)

    def test_named_profiles_without_product_form(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        out = tmp_path / "solve.json"
        args = ["solve", "--table", str(pow2_m3_file), "--profile", "timid-timid", "--out", str(out)]
        assert run(args, capsys)[0] == 0
        payload = json.loads(out.read_text())
        assert payload["product_form"] is None
        assert payload["values"]["player_I"][1] == pytest.approx(1 / 13, abs=1e-12)

    def test_profile_from_file(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        profile_file = tmp_path / "profile.json"
        profile_file.write_text(json.dumps(rb.Profile.from_name("timid-bold", 3).to_json_dict()))
        out = tmp_path / "solve.json"
        args = ["solve", "--table", str(pow2_m3_file), "--profile", str(profile_file), "--out", str(out)]
        assert run(args, capsys)[0] == 0
        payload = json.loads(out.read_text())
        assert payload["profile"]["player_I"] == [0, 1, 1, 0]

    def test_profile_money_mismatch(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        profile_file = tmp_path / "profile.json"
        profile_file.write_text(json.dumps(rb.Profile.from_name("bold-timid", 4).to_json_dict()))
        assert run(["solve", "--table", str(pow2_m3_file), "--profile", str(profile_file)], capsys)[0] == 2

    def test_unknown_profile_name(self, pow2_m3_file: Path, capsys) -> None:
        assert run(["solve", "--table", str(pow2_m3_file), "--profile", "brash-shy"], capsys)[0] == 2

    def test_bad_method_is_a_usage_error(self, pow2_m3_file: Path, capsys) -> None:
        """``solve`` has no ``--method``: it always runs ``auto``."""
        for method in ("magic", "auto"):
            assert run(["solve", "--table", str(pow2_m3_file), "--method", method], capsys)[0] == 2

    @pytest.mark.parametrize("x0", ["-1", "4"])
    def test_start_out_of_range(self, pow2_m3_file: Path, x0: str, capsys) -> None:
        code, out, err = run(["solve", "--table", str(pow2_m3_file), "--x0", x0], capsys)
        assert code == 2 and out == ""
        assert err == f"error: initial fortune {x0} outside 0..3\n"

    def test_singular_absorbing_chain_names_the_cause(self, tmp_path: Path, capsys) -> None:
        """On exp-diff at M = 80 the 17th profile drawn from Random(5) absorbs
        from every fortune, but a few steps of probability within 1e-12 of 1
        make its system singular in floating point.  ``solve`` and ``sim``
        exit 2 with a message that says so, not with a bare "Singular
        matrix"."""
        table = tmp_path / "el80.json"
        assert run(["gen", "--M", "80", "--family", "exp-diff", "--out", str(table)], capsys)[0] == 0
        rng = random.Random(5)

        def stakes() -> tuple[int, ...]:
            return (0, *(rng.randint(1, t) for t in range(1, 80)), 0)

        for _ in range(17):
            first, second = stakes(), stakes()
        profile = rb.Profile(
            rb.StationaryStrategy(rb.Player.ONE, first), rb.StationaryStrategy(rb.Player.TWO, second)
        )
        assert rb.absorption_certain(rb.exp_difference_table(80), profile)
        profile_file = tmp_path / "profile.json"
        profile_file.write_text(json.dumps(profile.to_json_dict()))
        common = ["--table", str(table), "--profile", str(profile_file), "--x0", "40"]
        for argv in (["solve", *common], ["sim", *common, "--trials", "20"]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: singular matrix: a chain absorbs, but ")
            assert "within rounding of 0 or 1" in err and "iterate" not in err


class TestNash:
    def test_power_certified(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        out = tmp_path / "nash.json"
        code, _, _ = run(["nash", "--table", str(pow2_m3_file), "--x0", "1", "--out", str(out)], capsys)
        assert code == 0
        certificate = json.loads(out.read_text())["certificate"]
        assert certificate["equilibrium"] is True
        assert certificate["method"] == "excessivity"
        assert certificate["coverage"] == "all-strategies"

    def test_min_exp_refuted(self, min_exp_m4_file: Path, tmp_path: Path, capsys) -> None:
        out = tmp_path / "nash.json"
        code, _, _ = run(["nash", "--table", str(min_exp_m4_file), "--x0", "3", "--out", str(out)], capsys)
        assert code == 1
        certificate = json.loads(out.read_text())["certificate"]
        assert certificate["equilibrium"] is False
        assert certificate["method"] == "best-response"
        assert certificate["coverage"] == "all-strategies"
        deviation = certificate["deviation"]
        assert deviation["player"] == "I"
        assert deviation["strategy"]["bets"] == [0, 1, 1, 1, 0]
        assert deviation["gain"] > 0.15

    def test_start_out_of_range(self, pow2_m3_file: Path, capsys) -> None:
        assert run(["nash", "--table", str(pow2_m3_file), "--x0", "7"], capsys)[0] == 2

    def test_own_strategy_is_no_deviation_at_zero_tolerance(self, tmp_path: Path, capsys) -> None:
        """Player I's best response to timid II on min-exp m = 0.5 at M = 4
        is timid itself.  Its value is the profile's own, to the bit, so at
        ``--tol 0`` it refutes nothing, and player II's deviation is found."""
        table = tmp_path / "min-exp-m4.json"
        args = ["gen", "--M", "4", "--family", "min-exp", "--m", "0.5", "--out", str(table)]
        assert run(args, capsys)[0] == 0
        out = tmp_path / "nash.json"
        args = ["nash", "--table", str(table), "--profile", "timid-timid", "--x0", "1",
                "--tol", "0", "--out", str(out)]
        assert run(args, capsys)[0] == 1
        deviation = json.loads(out.read_text())["certificate"]["deviation"]
        assert deviation["player"] == "II"
        assert deviation["strategy"]["bets"] == [0, 1, 1, 3, 0]
        assert deviation["gain"] > 0.02

    def test_past_the_enumeration_cap(self, tmp_path: Path, capsys) -> None:
        """At M = 40 the best responses refute timid-timid on power p = 2:
        player I goes bold.  The manifest carries no enumeration cap."""
        table = tmp_path / "pow2-m40.json"
        assert run(["gen", "--M", "40", "--family", "power", "--p", "2", "--out", str(table)], capsys)[0] == 0
        out = tmp_path / "nash.json"
        args = ["nash", "--table", str(table), "--profile", "timid-timid", "--x0", "20", "--out", str(out)]
        assert run(args, capsys)[0] == 1
        payload = json.loads(out.read_text())
        assert payload["manifest"]["parameters"] == {
            "table": str(table), "profile": "timid-timid", "x0": 20,
        }
        certificate = payload["certificate"]
        assert certificate["method"] == "best-response"
        assert certificate["coverage"] == "all-strategies"
        assert certificate["deviation"]["player"] == "I"
        bold = rb.bold_strategy(rb.Player.ONE, 40).bets
        assert certificate["deviation"]["strategy"]["bets"] == list(bold)

    def test_cap_is_not_an_option(self, pow2_m3_file: Path, capsys) -> None:
        assert run(["nash", "--table", str(pow2_m3_file), "--x0", "1", "--cap", "9"], capsys)[0] == 2

    def test_cycling_best_response_exits_2(
        self, tmp_path: Path, capsys, cycling_first_m47: rb.StationaryStrategy, ten_second_alarm
    ) -> None:
        """Player II's best response to this player I cycles in floating
        point; the search raises instead of hanging, and nash exits 2."""
        table = tmp_path / "el-m47.json"
        assert run(["gen", "--M", "47", "--family", "exp-diff", "--out", str(table)], capsys)[0] == 0
        profile = tmp_path / "profile.json"
        second = rb.timid_strategy(rb.Player.TWO, 47)
        profile.write_text(json.dumps(rb.Profile(cycling_first_m47, second).to_json_dict()))
        args = ["nash", "--table", str(table), "--profile", str(profile), "--x0", "1"]
        code, out, err = run(args, capsys)
        assert code == 2 and out == ""
        assert "ill-conditioned" in err

    def test_best_response_outside_the_unit_interval_exits_2(self, tmp_path: Path, capsys) -> None:
        """Against seed 26's player I, player II's best response solves to
        values above 1; nash exits 2 instead of refuting with them."""
        table = tmp_path / "el-m80.json"
        assert run(["gen", "--M", "80", "--family", "exp-diff", "--out", str(table)], capsys)[0] == 0
        profile = tmp_path / "profile.json"
        second = rb.bold_strategy(rb.Player.TWO, 80)
        profile.write_text(json.dumps(rb.Profile(_seeded_profile(26, 80).first, second).to_json_dict()))
        args = ["nash", "--table", str(table), "--profile", str(profile), "--x0", "20"]
        code, out, err = run(args, capsys)
        assert code == 2 and out == ""
        assert "leaves [0, 1]" in err


class TestEnum:
    def test_collector_left_as_found(
        self, collector: bool, pow2_m3_file: Path, tmp_path: Path, capsys
    ) -> None:
        out = tmp_path / "enum.json"
        assert run(["enum", "--table", str(pow2_m3_file), "--x0", "1", "--out", str(out)], capsys)[0] == 0
        assert gc.isenabled() is collector

    def test_power_two_equilibria(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        out = tmp_path / "enum.json"
        code, _, _ = run(["enum", "--table", str(pow2_m3_file), "--x0", "1", "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["count"] == 2
        assert payload["strategies_per_player"] == 2

    def test_default_cap_in_manifest(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        out = tmp_path / "enum.json"
        assert run(["enum", "--table", str(pow2_m3_file), "--x0", "1", "--out", str(out)], capsys)[0] == 0
        assert json.loads(out.read_text())["manifest"]["parameters"]["cap"] == 7

    def test_exp_difference_degenerate_start(self, el_m4_file: Path, tmp_path: Path, capsys) -> None:
        out = tmp_path / "enum.json"
        code, _, _ = run(["enum", "--table", str(el_m4_file), "--x0", "1", "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["count"] == 36 and payload["strategies_per_player"] == 6
        bold = [0, 1, 2, 3, 0]
        bold_bold = next(
            e for e in payload["equilibria"]
            if e["profile"]["player_I"] == bold and e["profile"]["player_II"] == bold
        )
        assert bold_bold["value_II"] == 1.0


class TestSim:
    def test_agreement_and_determinism(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        base = ["sim", "--table", str(pow2_m3_file), "--x0", "1", "--trials", "20000", "--seed", "3"]
        assert run(base + ["--out", str(a)], capsys)[0] == 0
        assert run(base + ["--out", str(b)], capsys)[0] == 0
        assert run(base + ["--out", str(c), "--jobs", "4"], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()  # reruns are byte-identical
        payload = json.loads(a.read_text())
        chunked = json.loads(c.read_text())
        # jobs is an honest manifest parameter, but the drawn outcome is
        # keyed by absolute trial index and cannot depend on the thread count
        assert chunked["result"] == payload["result"]
        assert chunked["agreement"] == payload["agreement"]
        assert payload["agreement"]["passed"] is True
        assert payload["exact"]["value_at_x0"] == pytest.approx(1 / 9, abs=1e-12)
        assert payload["manifest"]["seed"] == 3
        assert payload["result"]["trials"] == 20000

    def test_trajectory_csv(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        traj = tmp_path / "traj.csv"
        args = [
            "sim", "--table", str(pow2_m3_file), "--x0", "2", "--trials", "50",
            "--seed", "1", "--traj-csv", str(traj), "--traj-limit", "3",
            "--out", str(tmp_path / "sim.json"),
        ]
        assert run(args, capsys)[0] == 0
        lines = traj.read_text().splitlines()
        assert lines[0] == "trial,stage,fortune,stake_I,stake_II"
        rows = [line.split(",") for line in lines[1:]]
        assert {row[0] for row in rows} <= {"0", "1", "2"}
        first_stages = [row for row in rows if row[1] == "0"]
        assert all(row[2] == "2" for row in first_stages)  # every trial starts at x0

    # sha256 of three trajectory CSVs of 25 trials from 200 at seed 3:
    # long fair games on power p = 1 at M = 40, the same cut at 40 steps,
    # and bold-timid on exp-diff at M = 41, whose steps from 39 and 40 rise
    # with probability exactly 1.
    TRAJECTORIES = {
        "fair-timid-timid": (
            ["gen", "--M", "40", "--family", "power", "--p", "1"],
            ["--profile", "timid-timid", "--x0", "20"],
            0,
            "010e9fa8ab10676702f4b366669d386c1e4cebc7652c80a25148ca90541f6c71",
        ),
        "fair-timid-timid-horizon-40": (
            ["gen", "--M", "40", "--family", "power", "--p", "1"],
            ["--profile", "timid-timid", "--x0", "20", "--horizon", "40"],
            1,
            "a492d8da5fc074a92b76f332a435608bc6936d0819a8d8c2c1fd89886ee5b480",
        ),
        "exp-diff-bold-timid": (
            ["gen", "--M", "41", "--family", "exp-diff"],
            ["--profile", "bold-timid", "--x0", "39"],
            0,
            "44587946864b103ef06d24daf063b5cfd9af017300cb6a5d008e98065bd55d0a",
        ),
    }

    @pytest.mark.parametrize("case", sorted(TRAJECTORIES))
    def test_trajectory_csv_is_frozen(self, case: str, tmp_path: Path, capsys) -> None:
        gen, sim, code, digest = self.TRAJECTORIES[case]
        table, traj = tmp_path / "table.json", tmp_path / "traj.csv"
        assert run(gen + ["--out", str(table)], capsys)[0] == 0
        args = [
            "sim", "--table", str(table), *sim, "--trials", "200", "--seed", "3",
            "--traj-csv", str(traj), "--traj-limit", "25", "--out", str(tmp_path / "sim.json"),
        ]
        assert run(args, capsys)[0] == code
        assert hashlib.sha256(traj.read_bytes()).hexdigest() == digest

    def test_negative_traj_limit_is_a_usage_error(
        self, pow2_m3_file: Path, tmp_path: Path, capsys
    ) -> None:
        traj, out = tmp_path / "traj.csv", tmp_path / "sim.json"
        base = ["sim", "--table", str(pow2_m3_file), "--x0", "2", "--trials", "50", "--seed", "1"]
        code, _, err = run(base + ["--traj-csv", str(traj), "--traj-limit", "-3", "--out", str(out)], capsys)
        assert code == 2 and "--traj-limit" in err
        assert not traj.exists() and not out.exists()
        assert run(base + ["--traj-csv", str(traj), "--traj-limit", "0", "--out", str(out)], capsys)[0] == 0
        assert traj.read_text() == "trial,stage,fortune,stake_I,stake_II\n"

    def test_truncation_fails_the_agreement(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        out = tmp_path / "sim.json"
        args = [
            "sim", "--table", str(pow2_m3_file), "--profile", "timid-timid",
            "--x0", "1", "--trials", "500", "--horizon", "1", "--out", str(out),
        ]
        assert run(args, capsys)[0] == 1
        agreement = json.loads(out.read_text())["agreement"]
        assert agreement["valid"] is False and agreement["z"] is None


class TestReport:
    def test_table_artifact(self, pow2_m3_file: Path, capsys) -> None:
        code, out, _ = run(["report", str(pow2_m3_file)], capsys)
        assert code == 0
        assert "win-probability table, money M = 3" in out

    def test_curve_artifact(self, tmp_path: Path, capsys) -> None:
        curve = tmp_path / "curve.json"
        assert run(["gen", "--M", "3", "--family", "k-exp", "--out", str(curve)], capsys)[0] == 0
        code, out, _ = run(["report", str(curve)], capsys)
        assert code == 0 and "unit-bet curve" in out

    def test_check_artifact(self, pow2_m4_file: Path, tmp_path: Path, capsys) -> None:
        artifact = tmp_path / "check.json"
        run(["check", "--table", str(pow2_m4_file), "--out", str(artifact)], capsys)
        code, out, _ = run(["report", str(artifact)], capsys)
        assert code == 0
        assert "check suite: FAIL" in out
        assert "bold-inequality: FAIL" in out
        assert "fairness: subfair" in out

    def test_solve_artifact(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        artifact = tmp_path / "solve.json"
        run(["solve", "--table", str(pow2_m3_file), "--out", str(artifact)], capsys)
        code, out, _ = run(["report", str(artifact)], capsys)
        assert code == 0 and "values for profile" in out

    def test_nash_artifact(self, min_exp_m4_file: Path, tmp_path: Path, capsys) -> None:
        artifact = tmp_path / "nash.json"
        run(["nash", "--table", str(min_exp_m4_file), "--x0", "3", "--out", str(artifact)], capsys)
        code, out, _ = run(["report", str(artifact)], capsys)
        assert code == 0
        assert "REFUTED" in out and "player I improves" in out

    def test_enum_artifact(self, el_m4_file: Path, tmp_path: Path, capsys) -> None:
        artifact = tmp_path / "enum.json"
        run(["enum", "--table", str(el_m4_file), "--x0", "1", "--out", str(artifact)], capsys)
        code, out, _ = run(["report", str(artifact)], capsys)
        assert code == 0 and "36 profile(s) among 6^2" in out

    def test_sim_artifact(self, pow2_m3_file: Path, tmp_path: Path, capsys) -> None:
        artifact = tmp_path / "sim.json"
        run(
            ["sim", "--table", str(pow2_m3_file), "--x0", "1", "--trials", "20000",
             "--seed", "3", "--out", str(artifact)],
            capsys,
        )
        code, out, _ = run(["report", str(artifact)], capsys)
        assert code == 0 and "agreement: pass" in out

    def test_unrecognized_artifact(self, tmp_path: Path, capsys) -> None:
        bad = tmp_path / "odd.json"
        bad.write_text("{\"mystery\": true}")
        assert run(["report", str(bad)], capsys)[0] == 2
        bad.write_text("[1, 2, 3]")
        assert run(["report", str(bad)], capsys)[0] == 2


class TestToleranceResolution:
    def test_env_must_parse(self, pow2_m3_file: Path, capsys, monkeypatch) -> None:
        monkeypatch.setenv("REDBLACK_TOL", "not-a-float")
        code, _, err = run(["check", "--table", str(pow2_m3_file)], capsys)
        assert code == 2 and "REDBLACK_TOL" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_is_a_usage_error(
        self, pow2_m3_file: Path, tmp_path: Path, capsys, monkeypatch, value: str
    ) -> None:
        monkeypatch.setattr("redblack.game.check_border", lambda *a, **k: pytest.fail("scanned"))
        out = tmp_path / "check.json"
        args = ["check", "--table", str(pow2_m3_file), f"--tol={value}", "--out", str(out)]
        code, _, err = run(args, capsys)
        assert code == 2 and "tolerance must be finite" in err
        assert not out.exists()

    def test_non_finite_env_is_a_usage_error(self, pow2_m3_file: Path, capsys, monkeypatch) -> None:
        monkeypatch.setenv("REDBLACK_TOL", "nan")
        code, _, err = run(["check", "--table", str(pow2_m3_file)], capsys)
        assert code == 2 and "tolerance must be finite" in err
        code, _, err = run(["nash", "--table", str(pow2_m3_file), "--x0", "1"], capsys)
        assert code == 2 and "tolerance must be finite" in err

    def test_env_feeds_the_manifest(self, pow2_m3_file: Path, tmp_path: Path, capsys, monkeypatch) -> None:
        monkeypatch.setenv("REDBLACK_TOL", "1e-6")
        out = tmp_path / "check.json"
        run(["check", "--table", str(pow2_m3_file), "--out", str(out)], capsys)
        assert json.loads(out.read_text())["manifest"]["tolerance"] == 1e-6

    def test_flag_beats_env(self, pow2_m3_file: Path, tmp_path: Path, capsys, monkeypatch) -> None:
        monkeypatch.setenv("REDBLACK_TOL", "1e-6")
        out = tmp_path / "check.json"
        run(["check", "--table", str(pow2_m3_file), "--tol", "1e-3", "--out", str(out)], capsys)
        assert json.loads(out.read_text())["manifest"]["tolerance"] == 1e-3

    def test_loose_tolerance_absorbs_the_violation(self, pow2_m4_file: Path, capsys) -> None:
        # the money-4 power table breaks the bold inequality by 1/48 ~ 0.021
        assert run(["check", "--table", str(pow2_m4_file)], capsys)[0] == 1
        assert run(["check", "--table", str(pow2_m4_file), "--tol", "0.5"], capsys)[0] == 0

    def test_default_without_env(self, pow2_m3_file: Path, tmp_path: Path, capsys, monkeypatch) -> None:
        monkeypatch.delenv("REDBLACK_TOL", raising=False)
        out = tmp_path / "check.json"
        run(["check", "--table", str(pow2_m3_file), "--out", str(out)], capsys)
        assert json.loads(out.read_text())["manifest"]["tolerance"] == 1e-12


class TestEntryPoints:
    def test_version_flag(self, capsys) -> None:
        code, out, _ = run(["--version"], capsys)
        assert code == 0 and out.strip() == f"redblack {rb.__version__}"

    def test_missing_subcommand(self, capsys) -> None:
        assert run([], capsys)[0] == 2

    def test_module_execution(self) -> None:
        # The child imports the same package as this test, installed or not.
        package_root = str(Path(rb.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "redblack", "--version"],
            capture_output=True,
            text=True,
            check=False,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"redblack {rb.__version__}"
