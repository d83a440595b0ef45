"""Family constructors, decay curves and the two-index transforms.

Frozen values used below, derived by hand:

* every builder's array equals its defining per-entry formula byte for
  byte (the grid's division, subtraction and minimum round exactly, and
  each gauge comes from the same Python ** or math.exp call);
* the gauge-ratio route with the single gauge t**p reproduces the closed
  form a**p/(a+b)**p entry for entry (identical float expressions);
* with gauges {t, exp(t)} the ratio infimum is min(a/(a+b), exp(-b)): the
  exponential ratio exp(a)/exp(a+b) collapses to exp(-b);
* decay factor k == 1 with rate 1 gives the curve 1 - exp(-x), i.e.
  (0, 1-1/e, 1-1/e^2, 1-1/e^3) at money 3;
* decay factor exp(-t^2) with rate 0 gives (0, 1-1/e, 1-1/e^4) at money 2;
* exp(-sqrt(t)) is not submultiplicative: at t = y = 1,
  exp(-sqrt(2)) ~ 0.2431 > exp(-2) ~ 0.1353.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import redblack as rb


def _per_entry(M: int, entry) -> np.ndarray:
    """``entry(a, b)`` at every stake pair, with 0.0 at the undefined origin."""
    return np.array(
        [[0.0 if a == b == 0 else entry(a, b) for b in range(M + 1)] for a in range(M + 1)]
    )


def _assert_same_bits(table: rb.WinProbTable, expected: np.ndarray) -> None:
    """The table's array equals ``expected`` byte for byte, origin masked."""
    got = table.array.copy()
    got[0, 0] = 0.0
    assert got.tobytes() == expected.tobytes()


def _gauge_infimum(gauges):
    """The defining formula of a ratio table, one Python call per entry."""

    def entry(a: int, b: int) -> float:
        if a == 0:
            return 0.0
        if b == 0:
            return 1.0
        return min(1.0, min(g(a) / g(a + b) for g in gauges))

    return entry


def _wavy(t: int) -> float:
    # positive and not monotone, so some ratios exceed one and the cap acts
    return 0.0 if t == 0 else t * (2.0 + math.sin(t))


class TestFamilyMember:
    def test_power_needs_exponent_at_least_one(self) -> None:
        with pytest.raises(ValueError):
            rb.power_member(0.5)

    def test_exp_needs_positive_rate(self) -> None:
        with pytest.raises(ValueError):
            rb.exp_member(0.0)

    def test_explicit_must_vanish_at_zero_and_stay_positive(self) -> None:
        with pytest.raises(ValueError):
            rb.explicit_member((1.0, 2.0))
        with pytest.raises(ValueError):
            rb.explicit_member((0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            rb.explicit_member((0.0,))

    def test_explicit_reports_needed_range(self) -> None:
        member = rb.explicit_member((0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="2 \\* M"):
            member.value(5)

    def test_values(self) -> None:
        assert rb.power_member(2.0).value(3) == 9.0
        assert rb.exp_member(1.0).value(0) == 0.0
        assert rb.exp_member(2.0).value(3) == pytest.approx(math.exp(6), rel=1e-15)
        with pytest.raises(ValueError):
            rb.power_member(1.0).value(-1)

    def test_json_round_trip(self) -> None:
        for member in (
            rb.power_member(2.0),
            rb.exp_member(0.5),
            rb.explicit_member((0.0, 1.0, 1.0)),
        ):
            assert rb.FamilyMember.from_json_dict(member.to_json_dict()) == member


class TestPowerFamily:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.25])
    def test_closed_form_on_every_defined_entry(self, p: float) -> None:
        for M in range(2, 41):
            expected = _per_entry(M, lambda a, b: float(a) ** p / float(a + b) ** p)
            _assert_same_bits(rb.power_family(M, p), expected)

    def test_spot_values(self) -> None:
        table = rb.power_family(4, 1)
        assert table.prob(2, 1) == 2 / 3
        assert table.prob(1, 3) == 0.25
        assert table.prob(3, 0) == 1.0
        assert table.prob(0, 2) == 0.0

    def test_rejects_small_exponent_or_money(self) -> None:
        with pytest.raises(ValueError):
            rb.power_family(4, 0.5)
        with pytest.raises(ValueError):
            rb.power_family(1, 2.0)


class TestFamilyInfimum:
    def test_single_power_gauge_matches_closed_form(self) -> None:
        via_family = rb.family_infimum(5, [rb.power_member(2.0)])
        assert via_family == rb.power_family(5, 2.0)

    def test_min_exp_matches_pointwise_minimum(self) -> None:
        M, m = 6, 1.0
        table = rb.min_exp_table(M, m)
        for a in range(1, M + 1):
            for b in range(1, M + 1):
                expected = min(a / (a + b), math.exp(-m * b))
                assert table.prob(a, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("m", [0.05, 0.3, 1.0, 2.5])
    def test_min_exp_is_its_per_entry_formula_to_the_bit(self, m: float) -> None:
        entry = _gauge_infimum((lambda t: float(t) ** 1.0, lambda t: math.exp(m * t)))
        for M in range(2, 41):
            _assert_same_bits(rb.min_exp_table(M, m), _per_entry(M, entry))

    def test_mixed_power_and_explicit_gauges_to_the_bit(self) -> None:
        entry = _gauge_infimum((lambda t: float(t) ** 1.5, _wavy))
        for M in range(2, 41):
            wavy = rb.explicit_member([_wavy(t) for t in range(2 * M + 1)])
            members = (rb.power_member(1.5), wavy)
            _assert_same_bits(rb.family_infimum(M, members), _per_entry(M, entry))

    def test_explicit_gauge_capped_at_one(self) -> None:
        M = 12
        table = rb.family_infimum(M, (rb.explicit_member([_wavy(t) for t in range(2 * M + 1)]),))
        _assert_same_bits(table, _per_entry(M, _gauge_infimum((_wavy,))))
        assert (table.array[1:, 1:] == 1.0).any()

    def test_needs_at_least_one_gauge(self) -> None:
        with pytest.raises(ValueError):
            rb.family_infimum(4, [])

    def test_explicit_gauge_must_cover_double_money(self) -> None:
        short = rb.explicit_member((0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="2 \\* M"):
            rb.family_infimum(4, [short])

    def test_explicit_gauge_covering_double_money_works(self) -> None:
        linear = rb.explicit_member(tuple(float(t) for t in range(9)))
        assert rb.family_infimum(4, [linear]) == rb.power_family(4, 1.0)


class TestExpDifferenceTable:
    def test_frozen_entries(self, el_m4: rb.WinProbTable) -> None:
        assert el_m4.prob(1, 1) == 0.0  # diagonal
        assert el_m4.prob(2, 2) == 0.0
        assert el_m4.prob(1, 2) == 0.0  # opponent overstakes
        assert el_m4.prob(2, 1) == 1.0 - math.exp(-1)
        assert el_m4.prob(3, 1) == 1.0 - math.exp(-2)
        assert el_m4.prob(3, 2) == 1.0 - math.exp(-1)

    def test_unreachable_entries_follow_the_formula(self, el_m4: rb.WinProbTable) -> None:
        # a + b > M is unplayable but stored; the same formula fills it
        assert el_m4.prob(4, 1) == 1.0 - math.exp(-3)
        assert el_m4.prob(4, 4) == 0.0

    def test_border(self, el_m4: rb.WinProbTable) -> None:
        assert rb.check_border(el_m4).passed

    def test_per_entry_formula_to_the_bit(self) -> None:
        def entry(a: int, b: int) -> float:
            if a == 0:
                return 0.0
            if b == 0:
                return 1.0
            return 1.0 - math.exp(b - a) if b <= a else 0.0

        for M in range(2, 41):
            _assert_same_bits(rb.exp_difference_table(M), _per_entry(M, entry))


class TestDecayParams:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            rb.DecayParams((1.0, 0.5, 0.25), -1.0)
        with pytest.raises(ValueError, match="nonincreasing"):
            rb.DecayParams((0.5, 0.6, 0.7), 1.0)
        with pytest.raises(ValueError):
            rb.DecayParams((1.0, 1.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            rb.DecayParams((1.0, 0.5), 1.0)

    def test_sample(self) -> None:
        params = rb.DecayParams.sample(lambda t: math.exp(-t), 0.5, 4)
        assert params.M == 4
        assert params.k[2] == math.exp(-2)


class TestCurveFromDecay:
    def test_unit_factor_rate_one_frozen(self) -> None:
        params = rb.DecayParams((1.0, 1.0, 1.0, 1.0), 1.0)
        curve = rb.curve_from_decay(params)
        assert curve[0] == 0.0
        for x in (1, 2, 3):
            assert curve[x] == 1.0 - math.exp(-x)

    def test_gaussian_factor_rate_zero_frozen(self) -> None:
        params = rb.DecayParams.sample(lambda t: math.exp(-t * t), 0.0, 2)
        curve = rb.curve_from_decay(params)
        assert curve.values == (0.0, 1.0 - math.exp(-1.0), 1.0 - math.exp(-4.0))

    def test_zero_fortune_forced_to_zero(self) -> None:
        curve = rb.curve_from_decay(rb.DecayParams((0.5, 0.4, 0.3), 1.0))
        assert curve[0] == 0.0
        assert curve[1] == 1.0 - 0.4 * math.exp(-1.0)

    def test_curve_is_nondecreasing_for_valid_params(self) -> None:
        params = rb.DecayParams.sample(lambda t: 1.0 / (1.0 + t), 0.25, 8)
        curve = rb.curve_from_decay(params)
        assert all(curve[x] <= curve[x + 1] for x in range(1, 8))


class TestSubmultiplicative:
    def test_unit_factor_passes(self) -> None:
        assert rb.check_submultiplicative(lambda t: 1.0, 12).passed

    def test_gaussian_passes(self) -> None:
        # (t + y)^2 >= t^2 + y^2, so exp(-(t+y)^2) <= exp(-t^2) exp(-y^2)
        assert rb.check_submultiplicative(lambda t: math.exp(-t * t), 12).passed

    def test_sqrt_decay_fails_at_one_one(self) -> None:
        report = rb.check_submultiplicative(lambda t: math.exp(-math.sqrt(t)), 8)
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.index == (1, 1)
        assert witness.lhs == pytest.approx(math.exp(-math.sqrt(2)), abs=1e-15)
        assert witness.rhs == pytest.approx(math.exp(-2), abs=1e-15)

    def test_constant_below_one_fails_at_origin(self) -> None:
        report = rb.check_submultiplicative(lambda t: 0.9, 5)
        assert not report.passed
        assert report.witnesses[0].index == (0, 0)
        assert report.witnesses[0].margin == pytest.approx(0.9 - 0.81, abs=1e-12)

    def test_sequence_and_callable_agree(self) -> None:
        values = [math.exp(-t * 0.3) for t in range(10)]
        from_seq = rb.check_submultiplicative(values, 10)
        from_fn = rb.check_submultiplicative(lambda t: math.exp(-t * 0.3), 10)
        assert from_seq == from_fn

    def test_sequence_too_short(self) -> None:
        with pytest.raises(ValueError):
            rb.check_submultiplicative([1.0, 0.5], 5)


class TestSincovTable:
    def test_reindexing_of_power_table(self) -> None:
        F = rb.sincov_of(rb.power_family(5, 2))
        for x in range(6):
            for y in range(x, 6):
                if (x, y) == (0, 0):
                    continue
                assert F.value(x, y) == float(x) ** 2 / float(y) ** 2

    def test_diagonal_is_one_from_one_up(self, pow2_m4: rb.WinProbTable) -> None:
        F = rb.sincov_of(pow2_m4)
        for x in range(1, 5):
            assert F.value(x, x) == 1.0  # staying put means winning a zero stake

    def test_undefined_entries(self, pow2_m4: rb.WinProbTable) -> None:
        F = rb.sincov_of(pow2_m4)
        assert not F.defined(0, 0)
        assert not F.defined(3, 2)
        assert F.defined(2, 3)
        with pytest.raises(rb.UndefinedEntryError):
            F.value(0, 0)
        with pytest.raises(rb.UndefinedEntryError):
            F.value(3, 2)
        with pytest.raises(IndexError):
            F.value(0, 9)

    def test_build_validation(self) -> None:
        with pytest.raises(ValueError):
            rb.SincovTable(2, ((None, 1.0, 1.0), (None, 1.0, 1.0), (None, None, None)))

    @pytest.mark.parametrize("value", [0.5, math.nan])
    def test_undefined_pairs_must_be_none(self, value: float) -> None:
        rows = ((None, 1.0, 1.0), (None, 1.0, 1.0), (None, value, 1.0))
        with pytest.raises(ValueError, match=r"\(2, 1\)"):
            rb.SincovTable(2, rows)
        assert rb.SincovTable(2, rows[:2] + ((None, None, 1.0),)).value(1, 2) == 1.0


class TestTableOfSincov:
    @pytest.mark.parametrize("maker", ["pow2", "min_exp", "el"])
    def test_round_trip_is_exact_on_playable_stakes(self, maker: str) -> None:
        table = {
            "pow2": lambda: rb.power_family(5, 2),
            "min_exp": lambda: rb.min_exp_table(5, 1.0),
            "el": lambda: rb.exp_difference_table(5),
        }[maker]()
        back = rb.table_of_sincov(rb.sincov_of(table))
        for a in range(6):
            for b in range(6):
                if (a, b) == (0, 0):
                    continue
                if a + b <= 5:
                    assert back.prob(a, b) == table.prob(a, b)
                else:
                    assert back.prob(a, b) == 1.0

    def test_all_ones_pair_form_breaks_the_border(self) -> None:
        rows = [[None if y < x or x == y == 0 else 1.0 for y in range(4)] for x in range(4)]
        F = rb.SincovTable(3, rows)
        table = rb.table_of_sincov(F)
        assert table.prob(0, 2) == 1.0  # violates the zero-stake row
        report = rb.check_border(table)
        assert not report.passed
        assert report.witnesses[0].index == (0, 1)


class TestExtendedTable:
    def test_negative_stakes_are_hopeless(self, pow2_m4: rb.WinProbTable) -> None:
        ext = rb.extend_table(pow2_m4)
        assert ext.value(-1, 2) == 0.0
        assert ext.value(3, -2) == 0.0

    def test_beyond_total_money_is_certain(self, pow2_m4: rb.WinProbTable) -> None:
        ext = rb.extend_table(pow2_m4)
        # the stored unplayable entry is 9/25, but the extension overrides it
        assert pow2_m4.prob(3, 2) == pytest.approx(0.36, abs=1e-15)
        assert ext.value(3, 2) == 1.0

    def test_playable_entries_pass_through(self, pow2_m4: rb.WinProbTable) -> None:
        ext = rb.extend_table(pow2_m4)
        assert ext.value(2, 1) == pow2_m4.prob(2, 1)
        assert ext.M == 4

    def test_origin_stays_undefined(self, pow2_m4: rb.WinProbTable) -> None:
        with pytest.raises(rb.UndefinedEntryError):
            rb.extend_table(pow2_m4).value(0, 0)
