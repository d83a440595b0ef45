"""Inequality checkers: frozen counterexamples and implication structure.

Frozen values used below, derived by hand (curve = unit-bet column):

* power exponent 2: curve (0, 1/4, 4/9, 9/16, ...).  At (x, y) = (3, 1):
  lhs = 1/4 - 9/16 = -5/16, rhs = (4/9)(1/4 - 1) = -1/3; the difference
  inequality fails by exactly -5/16 + 1/3 = 1/48.  At (3, 2):
  lhs = 4/9 - 9/16 = -17/144, rhs = (1/4)(4/9 - 1) = -5/36 = -20/144;
  again a violation of exactly 3/144 = 1/48.  Money 2 passes: at (2, 1)
  lhs = 1/4 - 4/9 = -7/36 <= rhs = (1/4)(-3/4) = -3/16 = -6.75/36.
* power exponent 1: curve x/(x+1).  At (2, 1): lhs = 1/2 - 2/3 = -1/6,
  rhs = (1/2)(1/2 - 1) = -1/4, violation by 1/12.
* min-exp rate 1: curve constant c = 1/e from fortune 1 on.  At (2, 1):
  lhs = c - c = 0 (up to one ulp), rhs = c(c - 1) = c^2 - c < 0, so the
  violation margin is c - c^2 = 1/e - 1/e^2.
* product-bound for min-exp at (2, 1): lhs = (1 - c) c^2 ~ 0.0855 > 0 = rhs.
* exp-difference: supermultiplicativity fails first at (2, 1, 1) where
  lhs = (1 - 1/e)(1 - 1/e^2) and rhs = P(2, 2) = 0, and (3, 1, 1) gives
  lhs = (1 - 1/e^2)(1 - 1/e^3) vs rhs = 1 - 1/e.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import redblack as rb
from redblack.reports import Slab, scan_slabs
from test_kernel import product_bound_terms, supermultiplicative_terms


def _curve(table: rb.WinProbTable) -> rb.UnitBetCurve:
    return rb.unit_bet_curve(table)


class TestBoldInequality:
    def test_power_two_money_two_passes(self) -> None:
        assert rb.check_bold_inequality(_curve(rb.power_family(2, 2))).passed

    def test_power_two_fails_from_money_three_with_margin_one_48th(self) -> None:
        report = rb.check_bold_inequality(_curve(rb.power_family(3, 2)))
        assert not report.passed
        assert report.violations == 2
        assert [w.index for w in report.witnesses] == [(3, 1), (3, 2)]
        for witness in report.witnesses:
            assert witness.constraint == "difference"
            assert witness.margin == pytest.approx(1 / 48, abs=1e-15)

    def test_power_one_fails_at_two_one(self) -> None:
        report = rb.check_bold_inequality(_curve(rb.power_family(4, 1)))
        assert not report.passed
        assert report.witnesses[0].index == (2, 1)
        assert report.witnesses[0].margin == pytest.approx(1 / 12, abs=1e-15)

    def test_min_exp_fails_at_two_one_with_exp_margin(self, min_exp_m4: rb.WinProbTable) -> None:
        report = rb.check_bold_inequality(_curve(min_exp_m4))
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.index == (2, 1)
        assert witness.margin == pytest.approx(math.exp(-1) - math.exp(-2), abs=1e-9)

    def test_exp_difference_curve_passes(self) -> None:
        curve = _curve(rb.exp_difference_table(8))
        assert rb.check_bold_inequality(curve).passed

    @pytest.mark.parametrize(
        "factor,rate",
        [(lambda t: 1.0, 0.5), (lambda t: 1.0, 1.0), (lambda t: math.exp(-t * t), 0.0)],
    )
    def test_submultiplicative_decay_curves_pass(self, factor, rate: float) -> None:
        params = rb.DecayParams.sample(factor, rate, 12)
        assert rb.check_submultiplicative(params.k, 12).passed
        assert rb.check_bold_inequality(rb.curve_from_decay(params)).passed

    def test_monotonicity_violations_are_tagged_separately(self) -> None:
        curve = rb.UnitBetCurve(2, (0.0, 0.5, 0.4))
        report = rb.check_bold_inequality(curve)
        assert not report.passed
        difference = [w for w in report.witnesses if w.constraint == "difference"]
        nondecreasing = [w for w in report.witnesses if w.constraint == "nondecreasing"]
        assert difference[0].index == (2, 1)
        assert nondecreasing[0].index == (1, 2)
        assert dict(report.constraint_counts) == {"difference": 1, "nondecreasing": 1}


class TestProductBound:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_power_grid_passes(self, p: float) -> None:
        for M in (2, 5, 12):
            assert rb.check_product_bound(_curve(rb.power_family(M, p))).passed

    def test_power_one_is_tight_everywhere(self) -> None:
        # telescoping: prod phi(x - i) = (x - a)/(x + 1), and
        # (1 - a/(a+1)) (x-a)/(x+1) equals x/(x+1) - a/(a+1) identically
        terms = list(product_bound_terms(_curve(rb.power_family(8, 1))))
        assert max(abs(lhs - rhs) for _, lhs, rhs, _ in terms) <= 1e-12

    def test_power_two_frozen_term(self) -> None:
        terms = {index: (lhs, rhs) for index, lhs, rhs, _ in
                 product_bound_terms(_curve(rb.power_family(3, 2)))}
        lhs, rhs = terms[(3, 1)]
        assert lhs == pytest.approx(3 / 16, abs=1e-15)
        assert rhs == pytest.approx(5 / 16, abs=1e-15)

    def test_min_exp_fails_first_at_two_one(self, min_exp_m4: rb.WinProbTable) -> None:
        report = rb.check_product_bound(_curve(min_exp_m4))
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.index == (2, 1)
        c = math.exp(-1)
        assert witness.lhs == pytest.approx((1 - c) * c * c, abs=1e-9)
        assert witness.rhs == pytest.approx(0.0, abs=1e-9)

    def test_exp_difference_curve_passes(self) -> None:
        assert rb.check_product_bound(_curve(rb.exp_difference_table(8))).passed


class TestSupermultiplicative:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_power_is_tight_on_every_triple(self, p: float) -> None:
        # ratios telescope: (x/(x+a))^p ((x+a)/(x+a+b))^p = (x/(x+a+b))^p
        terms, _, _ = supermultiplicative_terms(rb.power_family(6, p))
        assert max(abs(lhs - rhs) for _, lhs, rhs, _ in terms) <= 1e-12

    def test_min_exp_passes(self) -> None:
        assert rb.check_supermultiplicative(rb.min_exp_table(8, 1.0)).passed

    def test_exp_difference_fails_with_frozen_witnesses(self, el_m4: rb.WinProbTable) -> None:
        report = rb.check_supermultiplicative(el_m4)
        assert not report.passed
        indices = [w.index for w in report.witnesses]
        assert indices[0] == (2, 1, 1)
        first = report.witnesses[0]
        assert first.lhs == pytest.approx((1 - math.exp(-1)) * (1 - math.exp(-2)), abs=1e-12)
        assert first.rhs == 0.0  # P(2, 2) = 0 on the diagonal
        assert (3, 1, 1) in indices
        w311 = next(w for w in report.witnesses if w.index == (3, 1, 1))
        assert w311.lhs == pytest.approx((1 - math.exp(-2)) * (1 - math.exp(-3)), abs=1e-12)
        assert w311.rhs == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_skip_count_is_origin_row(self, el_m4: rb.WinProbTable) -> None:
        # exactly the triples (0, 0, b) would evaluate the undefined entry
        report = rb.check_supermultiplicative(el_m4)
        assert report.skipped == el_m4.M + 1

    def test_flag_count_matches_brute_force(self, pow2_m4: rb.WinProbTable) -> None:
        report = rb.check_supermultiplicative(pow2_m4)
        M = pow2_m4.M
        expected = sum(
            1
            for x in range(M + 1)
            for a in range(M - x + 1)
            for b in range(M - a + 1)
            if (x, a) != (0, 0) and x + a + b > M
        )
        assert report.flagged == expected > 0

    def test_unplayable_entries_still_fail_the_check(self, pow2_m4: rb.WinProbTable) -> None:
        # raise the unplayable entry (2, 3): the triple (1, 1, 3) now breaks
        # since P(1,1) * P(2,3) = 1/9 > P(1,4) = 1/25, and 1+1+3 > 4 means
        # the triple is flagged as unreachable -- but it still violates.
        doctored = pow2_m4.with_entry(2, 3, 1.0)
        report = rb.check_supermultiplicative(doctored)
        assert not report.passed
        assert (1, 1, 3) in [w.index for w in report.witnesses]
        assert report.flagged > 0


class TestSincovCheck:
    @pytest.mark.parametrize("maker", ["pow2", "min_exp", "el"])
    def test_pass_fail_transports_from_stake_form(self, maker: str) -> None:
        table = {
            "pow2": lambda: rb.power_family(5, 2),
            "min_exp": lambda: rb.min_exp_table(5, 1.0),
            "el": lambda: rb.exp_difference_table(5),
        }[maker]()
        mult = rb.check_supermultiplicative(table, max_witnesses=None)
        sincov = rb.check_sincov(rb.sincov_of(table), max_witnesses=None)
        assert mult.passed == sincov.passed
        assert mult.skipped == sincov.skipped == table.M + 1

    def test_witnesses_transport_index_by_index(self) -> None:
        """Under (x, a, b) -> (x, x + a, x + a + b) the three compared
        products are identical floats, so the violation lists must agree
        exactly after dropping stake triples beyond the playable range."""
        table = rb.exp_difference_table(5)
        mult = rb.check_supermultiplicative(table, max_witnesses=None)
        sincov = rb.check_sincov(rb.sincov_of(table), max_witnesses=None)
        playable = [w for w in mult.witnesses if sum(w.index) <= table.M]
        assert len(playable) == len(sincov.witnesses)
        for stake_w, pair_w in zip(playable, sincov.witnesses):
            x, a, b = stake_w.index
            assert pair_w.index == (x, x + a, x + a + b)
            assert pair_w.lhs == stake_w.lhs
            assert pair_w.rhs == stake_w.rhs


class TestSupermultiplicativeExtended:
    def test_power_extension_passes(self, pow2_m4: rb.WinProbTable) -> None:
        report = rb.check_supermultiplicative_extended(rb.extend_table(pow2_m4))
        assert report.passed

    def test_min_exp_extension_passes(self, min_exp_m4: rb.WinProbTable) -> None:
        assert rb.check_supermultiplicative_extended(rb.extend_table(min_exp_m4)).passed

    def test_exp_difference_extension_fails_like_the_base(self, el_m4: rb.WinProbTable) -> None:
        report = rb.check_supermultiplicative_extended(rb.extend_table(el_m4))
        assert not report.passed
        assert report.witnesses[0].index == (2, 1, 1)

    def test_skip_count_matches_brute_force(self, pow2_m4: rb.WinProbTable) -> None:
        report = rb.check_supermultiplicative_extended(rb.extend_table(pow2_m4), span=3)
        span_range = range(-3, pow2_m4.M + 4)
        expected = sum(
            1
            for x in span_range
            for a in span_range
            for b in span_range
            if (x, a) == (0, 0) or (x + a, b) == (0, 0) or (x, a + b) == (0, 0)
        )
        assert report.skipped == expected


class TestPowerFamilyExactOracle:
    """The integer-exponent power family meets the composition law with
    equality, checked in exact rationals, and its float scans miss that
    equality by rounding alone.

    ``g[a] / g[a + b]`` divides two exactly stored integers, so each entry is
    the correctly rounded ratio: ``P = r (1 + d)`` with ``|d| <= u = 2**-53``
    (every entry here is far above the subnormal range).  For a triple with
    exact ``r1 * r2 = r3`` the scan compares ``lhs = fl(P1 * P2) =
    r3 (1 + d1)(1 + d2)(1 + d3)`` with ``rhs = r3 (1 + d4)``, so
    ``lhs - rhs <= r3 ((1 + u)**3 - (1 - u))``, and ``r3 <= rhs / (1 - u)``.
    ``BOUND`` is that factor of ``rhs``, about ``4 u``; the pair form
    compares the same three entries, so the same bound holds for ``sincov``.
    """

    U = Fraction(1, 2**53)
    BOUND = ((1 + U) ** 3 - (1 - U)) / (1 - U)

    @staticmethod
    def exact(a: int, b: int, p: int) -> Fraction:
        return Fraction(a**p, (a + b) ** p)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_entries_are_the_rounded_ratios(self, p: int) -> None:
        for M in range(2, 13):
            P = rb.power_family(M, p).array
            for a in range(M + 1):
                for b in range(M + 1):
                    if (a, b) != (0, 0):
                        assert P[a, b] == float(self.exact(a, b, p)), (M, a, b)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_every_composition_triple_is_an_equality(self, p: int) -> None:
        M = 12
        for x in range(M + 1):
            for a in range(M - x + 1):
                for b in range(M - a + 1):
                    if (x, a) != (0, 0):
                        lhs = self.exact(x, a, p) * self.exact(x + a, b, p)
                        assert lhs == self.exact(x, a + b, p), (x, a, b)

    def test_violations_are_rounding_only(self) -> None:
        found = 0
        for p in (1, 2, 3):
            for M in range(2, 13):
                table = rb.power_family(M, p)
                reports = (
                    rb.check_supermultiplicative(table, tol=0.0, max_witnesses=None),
                    rb.check_sincov(rb.sincov_of(table), tol=0.0, max_witnesses=None),
                )
                for report in reports:
                    assert len(report.witnesses) == report.violations
                    found += report.violations
                    for w in report.witnesses:
                        excess = Fraction(w.lhs) - Fraction(w.rhs)
                        assert 0 < excess <= Fraction(w.rhs) * self.BOUND, (p, M, w)
                assert rb.check_supermultiplicative(table, tol=1e-12).passed
                assert rb.check_sincov(rb.sincov_of(table), tol=1e-12).passed
        assert found > 0  # rounding does break the equality at tol 0


class TestUniquenessConditions:
    def test_power_two_passes(self, pow2_m4: rb.WinProbTable) -> None:
        assert rb.check_uniqueness_conditions(pow2_m4).passed

    def test_min_exp_flat_curve_fails_strict_increase(self, min_exp_m4: rb.WinProbTable) -> None:
        report = rb.check_uniqueness_conditions(min_exp_m4)
        assert not report.passed
        tags = {w.constraint for w in report.witnesses}
        assert tags == {"strictly-increasing"}
        assert [w.index for w in report.witnesses] == [(1, 2), (2, 3), (3, 4)]

    def test_exp_difference_fails_both_parts(self, el_m4: rb.WinProbTable) -> None:
        report = rb.check_uniqueness_conditions(el_m4)
        assert not report.passed
        assert report.witnesses[0].index == (0, 1)
        assert report.witnesses[0].constraint == "strictly-increasing"
        positivity = [w for w in report.witnesses if w.constraint == "unit-stake-positivity"]
        assert [w.index for w in positivity] == [(1, 1), (1, 2), (1, 3), (1, 4)]
        assert report.violations == 5


class TestReportPlumbing:
    def test_witnesses_reevaluate_against_the_table(self, el_m4: rb.WinProbTable) -> None:
        report = rb.check_supermultiplicative(el_m4)
        for witness in report.witnesses:
            x, a, b = witness.index
            lhs = el_m4.prob(x, a) * el_m4.prob(x + a, b)
            rhs = el_m4.prob(x, a + b)
            assert lhs == witness.lhs and rhs == witness.rhs
            assert lhs > rhs + report.tolerance

    def test_cap_limits_witnesses_but_not_counts(self, el_m4: rb.WinProbTable) -> None:
        capped = rb.check_supermultiplicative(el_m4, max_witnesses=2)
        full = rb.check_supermultiplicative(el_m4, max_witnesses=None)
        assert capped.violations == full.violations == len(full.witnesses)
        assert capped.witnesses == full.witnesses[:2]

    def test_json_shape(self, el_m4: rb.WinProbTable) -> None:
        payload = rb.check_supermultiplicative(el_m4).to_json_dict()
        assert payload["check"] == "supermultiplicative"
        assert payload["pass"] is False
        assert set(payload) == {
            "check", "pass", "violations", "witnesses", "skipped",
            "flagged", "tolerance", "constraints",
        }
        assert payload["witnesses"][0]["index"] == [2, 1, 1]

    def test_tolerance_is_respected(self) -> None:
        slab = Slab([1.0 + 5e-13], 1.0, True, (0,), "")
        assert scan_slabs("demo", [slab], tol=1e-12).passed
        assert not scan_slabs("demo", [slab], tol=1e-13).passed
