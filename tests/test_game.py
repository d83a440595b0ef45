"""Core model: tables, borders, fairness, strategies and profiles.

Frozen values used below, derived by hand:

* power exponent 2, money 3: the unit-bet curve is x^2/(x+1)^2, i.e.
  (0, 1/4, 4/9, 9/16).
* exp-difference table at money 4 compared with the even-odds benchmark
  a/(a+b) over playable pairs (a, b >= 1, a + b <= 4):
  (1,1)->0 < 1/2, (1,2)->0 < 1/3, (1,3)->0 < 1/4, (2,1)->1-1/e ~ 0.632 <
  2/3, (2,2)->0 < 1/2 all below; (3,1)->1-1/e^2 ~ 0.865 > 3/4 above.
  Hence verdict "neither", one entry above, five below.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redblack as rb


class TestWinProbTable:
    def test_entry_zero_zero_is_undefined(self, pow2_m3: rb.WinProbTable) -> None:
        with pytest.raises(rb.UndefinedEntryError):
            pow2_m3.prob(0, 0)

    def test_out_of_range_lookup(self, pow2_m3: rb.WinProbTable) -> None:
        with pytest.raises(IndexError):
            pow2_m3.prob(4, 0)
        with pytest.raises(IndexError):
            pow2_m3.prob(0, -1)

    @pytest.mark.parametrize("origin", [0.5, math.nan])
    def test_rejects_missing_none_at_origin(self, origin: float) -> None:
        rows = tuple(
            tuple(origin if (a, b) == (0, 0) else 0.5 for b in range(4)) for a in range(4)
        )
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            rb.WinProbTable(3, rows)
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            rb.WinProbTable.from_json_dict({"M": 3, "entries": [list(row) for row in rows]})

    @pytest.mark.parametrize("value", [math.nan, None])
    def test_rejects_nan_or_none_at_a_defined_entry(self, value: float | None) -> None:
        rows = [list(row) for row in rb.power_family(3, 2).rows]
        rows[2][1] = value
        with pytest.raises(ValueError, match=r"\(2, 1\)"):
            rb.WinProbTable(3, rows)

    def test_rejects_out_of_range_probability(self) -> None:
        with pytest.raises(ValueError, match="probability"):
            rb.WinProbTable(2, [[None, 1.5, 1.5], [1.5, 1.5, 1.5], [1.5, 1.5, 1.5]])

    def test_rejects_bad_shape(self) -> None:
        good = rb.power_family(3, 2)
        with pytest.raises(ValueError, match="rows"):
            rb.WinProbTable(3, good.rows[:-1])

    def test_with_entry_replaces_one_value(self, pow2_m3: rb.WinProbTable) -> None:
        bumped = pow2_m3.with_entry(2, 1, 0.5)
        assert bumped.prob(2, 1) == 0.5
        assert bumped.prob(1, 1) == pow2_m3.prob(1, 1)
        with pytest.raises(rb.UndefinedEntryError):
            pow2_m3.with_entry(0, 0, 0.5)

    def test_json_round_trip(self, min_exp_m4: rb.WinProbTable) -> None:
        clone = rb.WinProbTable.from_json_dict(min_exp_m4.to_json_dict())
        assert clone == min_exp_m4

    def test_json_rejects_malformed(self) -> None:
        with pytest.raises(ValueError, match="entries"):
            rb.WinProbTable.from_json_dict({"M": 3})

    def test_csv_marks_undefined_entry(self, pow2_m3: rb.WinProbTable) -> None:
        text = pow2_m3.to_csv()
        first_row = text.splitlines()[1]
        assert first_row.startswith("0,NA,")

    def test_array_is_readonly_with_nan_origin(self, pow2_m3: rb.WinProbTable) -> None:
        arr = pow2_m3.array
        assert math.isnan(arr[0, 0])
        assert arr[2, 1] == pow2_m3.prob(2, 1)
        with pytest.raises(ValueError):
            arr[1, 1] = 0.0

    def test_hashable_for_caching(self, pow2_m3: rb.WinProbTable) -> None:
        assert hash(pow2_m3) == hash(rb.power_family(3, 2))
        assert pow2_m3 == rb.power_family(3, 2)
        negative, positive = pow2_m3.with_entry(2, 1, -0.0), pow2_m3.with_entry(2, 1, 0.0)
        assert negative == positive
        assert hash(negative) == hash(positive)
        assert pow2_m3 != positive and pow2_m3 != rb.power_family(3, 1)

    def test_undefined_entry_holds_one_nan_pattern(self, pow2_m3: rb.WinProbTable) -> None:
        # 0 / 0 on x86 gives a nan with the sign bit set; the hash reads raw bytes
        data = pow2_m3.array.copy()
        data[0, 0] = -np.nan
        table = rb.WinProbTable._of_array(3, data)
        assert not np.signbit(table.array[0, 0])
        assert table == pow2_m3 and hash(table) == hash(pow2_m3)

    def test_json_round_trip_is_exact(self, pow2_m3: rb.WinProbTable) -> None:
        table = pow2_m3.with_entry(1, 2, -0.0).with_entry(2, 1, 5e-324)
        table = table.with_entry(3, 1, 1.0 - 2.0**-53)
        text = rb.canonical_json(table.to_json_dict())
        clone = rb.WinProbTable.from_json_dict(json.loads(text))
        assert rb.canonical_json(clone.to_json_dict()) == text
        assert clone.array.tobytes() == table.array.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16))
    @example(values=[
        math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), 2.0**-1022 - 2.0**-1074,
        2.0**-1030, -5e-324, -0.0, 0.0, 1.0,
    ])
    def test_canonical_json_round_trips_floats_bit_exactly(self, values: list[float]) -> None:
        read = json.loads(rb.canonical_json({"values": values}))["values"]
        assert np.array(read, dtype=float).tobytes() == np.array(values, dtype=float).tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_canonical_json_refuses_non_finite_floats(self, value: float) -> None:
        with pytest.raises(ValueError):
            rb.canonical_json({"checks": [{"margin": value}]})

    def test_unreachable_entry_count(self, pow2_m3: rb.WinProbTable) -> None:
        # pairs with a + b > 3 inside {0..3}^2: 6 of 16
        assert pow2_m3.unreachable_entries == 6


class TestBorder:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_power_family_honors_border(self, p: float) -> None:
        assert rb.check_border(rb.power_family(6, p)).passed

    def test_presets_honor_border(
        self, min_exp_m4: rb.WinProbTable, el_m4: rb.WinProbTable
    ) -> None:
        assert rb.check_border(min_exp_m4).passed
        assert rb.check_border(el_m4).passed

    def test_broken_column_is_witnessed(self, pow2_m4: rb.WinProbTable) -> None:
        broken = pow2_m4.with_entry(3, 0, 0.5)
        report = rb.check_border(broken)
        assert not report.passed
        assert report.violations == 1
        witness = report.witnesses[0]
        assert witness.index == (3, 0)
        assert witness.constraint == "zero-stake-column"
        assert witness.margin == pytest.approx(0.5, abs=1e-12)

    def test_broken_row_is_witnessed(self, pow2_m4: rb.WinProbTable) -> None:
        broken = pow2_m4.with_entry(0, 2, 0.25)
        report = rb.check_border(broken)
        assert [w.index for w in report.witnesses] == [(0, 2)]
        assert report.witnesses[0].constraint == "zero-stake-row"


class TestFairness:
    def test_linear_share_is_fair(self, pow1_m4: rb.WinProbTable) -> None:
        report = rb.check_fairness(pow1_m4)
        assert report.verdict == "fair"
        assert report.is_subfair and report.is_superfair
        assert report.above_count == 0 and report.below_count == 0

    def test_power_two_is_strictly_subfair(self, pow2_m4: rb.WinProbTable) -> None:
        report = rb.check_fairness(pow2_m4)
        assert report.verdict == "subfair"
        assert report.is_subfair and not report.is_superfair
        # every playable pair with both stakes positive sits strictly below
        assert report.below_count == 6
        assert report.below[0].index == (1, 1)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("M", [2, 5, 12])
    def test_power_grid_never_above_benchmark(self, p: float, M: int) -> None:
        table = rb.power_family(M, p)
        report = rb.check_fairness(table)
        assert report.is_subfair
        for a in range(M + 1):
            for b in range(M + 1):
                if 0 < a + b <= M:
                    assert table.prob(a, b) <= a / (a + b) + 1e-12

    def test_exp_difference_is_neither(self, el_m4: rb.WinProbTable) -> None:
        report = rb.check_fairness(el_m4)
        assert report.verdict == "neither"
        assert not report.is_subfair and not report.is_superfair
        assert [w.index for w in report.above] == [(3, 1)]
        assert report.above[0].lhs == pytest.approx(1 - math.exp(-2), abs=1e-12)
        below_indices = [w.index for w in report.below]
        assert below_indices == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]

    def test_unit_step_family_is_superfair(self) -> None:
        # the single unit-step gauge gives P(a, b) = 1 whenever a >= 1
        table = rb.family_infimum(4, [rb.explicit_member((0.0,) + (1.0,) * 8)])
        for a in range(1, 5):
            for b in range(5):
                assert table.prob(a, b) == 1.0
        report = rb.check_fairness(table)
        assert report.verdict == "superfair"

    def test_witness_cap_keeps_exact_counts(self, el_m4: rb.WinProbTable) -> None:
        capped = rb.check_fairness(el_m4, max_witnesses=2)
        full = rb.check_fairness(el_m4, max_witnesses=None)
        assert capped.below_count == full.below_count == len(full.below)
        assert len(capped.below) == 2
        assert capped.below == full.below[:2]


class TestUnitBetCurve:
    def test_power_two_curve_frozen(self, pow2_m3: rb.WinProbTable) -> None:
        curve = rb.unit_bet_curve(pow2_m3)
        assert curve.values == (0.0, 0.25, 4.0 / 9.0, 0.5625)

    def test_exp_difference_curve_frozen(self, el_m4: rb.WinProbTable) -> None:
        curve = rb.unit_bet_curve(el_m4)
        assert curve[0] == 0.0 and curve[1] == 0.0
        for x in (2, 3, 4):
            assert curve[x] == 1.0 - math.exp(1 - x)

    def test_min_exp_curve_is_flat_at_exp_rate(self, min_exp_m4: rb.WinProbTable) -> None:
        # x/(x+1) >= 1/2 > 1/e for x >= 1, so the exponential gauge wins
        curve = rb.unit_bet_curve(min_exp_m4)
        assert curve[0] == 0.0
        for x in range(1, 5):
            assert curve[x] == pytest.approx(math.exp(-1), abs=1e-15)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            rb.UnitBetCurve(3, (0.0, 0.5, 1.0))  # wrong length
        with pytest.raises(ValueError):
            rb.UnitBetCurve(2, (0.0, 0.5, 1.5))

    def test_json_round_trip(self) -> None:
        curve = rb.UnitBetCurve(2, (0.0, 0.25, 0.75))
        assert rb.UnitBetCurve.from_json_dict(curve.to_json_dict()) == curve


class TestStrategies:
    def test_timid_and_bold_shapes(self) -> None:
        timid = rb.timid_strategy(rb.Player.ONE, 4)
        bold = rb.bold_strategy(rb.Player.TWO, 4)
        assert timid.bets == (0, 1, 1, 1, 0)
        assert bold.bets == (0, 1, 2, 3, 0)
        assert timid.is_timid and not timid.is_bold
        assert bold.is_bold and not bold.is_timid
        assert timid.label == "timid" and bold.label == "bold"

    def test_money_two_coincide(self) -> None:
        only = rb.timid_strategy(rb.Player.ONE, 2)
        assert only.is_timid and only.is_bold
        assert only.label == "bold"

    def test_rejects_zero_interior_stake(self) -> None:
        with pytest.raises(rb.IllegalBetError):
            rb.StationaryStrategy(rb.Player.ONE, (0, 0, 1, 0))

    def test_rejects_overdrawn_stake(self) -> None:
        with pytest.raises(rb.IllegalBetError):
            rb.StationaryStrategy(rb.Player.ONE, (0, 2, 1, 0))

    def test_rejects_staking_at_absorbing_fortunes(self) -> None:
        with pytest.raises(ValueError):
            rb.StationaryStrategy(rb.Player.ONE, (1, 1, 1, 0))
        with pytest.raises(ValueError):
            rb.StationaryStrategy(rb.Player.ONE, (0, 1, 1, 2))

    def test_rejects_non_integer_stake(self) -> None:
        with pytest.raises(ValueError):
            rb.StationaryStrategy(rb.Player.ONE, (0, 1.0, 1, 0))  # type: ignore[arg-type]


class TestProfile:
    def test_requires_each_players_strategy_in_order(self) -> None:
        with pytest.raises(ValueError):
            rb.Profile(
                rb.timid_strategy(rb.Player.TWO, 3),
                rb.timid_strategy(rb.Player.ONE, 3),
            )

    def test_requires_matching_money(self) -> None:
        with pytest.raises(ValueError):
            rb.Profile(
                rb.timid_strategy(rb.Player.ONE, 3),
                rb.timid_strategy(rb.Player.TWO, 4),
            )

    def test_from_name_and_label(self) -> None:
        profile = rb.Profile.from_name("bold-timid", 5)
        assert profile.first.is_bold and profile.second.is_timid
        assert profile.name == "bold-timid"
        with pytest.raises(ValueError):
            rb.Profile.from_name("bold-reckless", 5)

    def test_json_round_trip(self) -> None:
        profile = rb.Profile.from_name("timid-bold", 4)
        assert rb.Profile.from_json_dict(profile.to_json_dict()) == profile

    def test_frozen_with_slots(self) -> None:
        profile = rb.Profile.from_name("bold-timid", 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.first = rb.timid_strategy(rb.Player.ONE, 4)  # type: ignore[misc]
        assert not hasattr(profile, "__dict__")
        with pytest.raises(ValueError, match="player I's strategy first"):
            rb.Profile(profile.second, profile.first)
        with pytest.raises(ValueError, match="same total money"):
            rb.Profile(profile.first, rb.timid_strategy(rb.Player.TWO, 5))


class TestNumpyInterop:
    def test_array_matches_prob_everywhere(self, min_exp_m4: rb.WinProbTable) -> None:
        arr = min_exp_m4.array
        for a in range(5):
            for b in range(5):
                if (a, b) == (0, 0):
                    continue
                assert arr[a, b] == min_exp_m4.prob(a, b)
        assert np.isnan(arr[0, 0])
