"""Acceptance suite: eleven end-to-end criteria over the whole package.

Each test prints exactly one ``[criterion N] PASS/FAIL — summary`` line with
output capture suspended, so all eleven verdicts stay visible in the pytest
log regardless of outcome, then asserts the same condition.

Reference values are derived, not invented:

* power exponent p: the unit-bet curve is (x/(x+1))^p, so the bold-timid
  product telescopes to q(x) = (x/M)^p — (0, 1/9, 4/9, 1) at p=2, M=3, and
  q(x) = x/M at p=1.
* min-exp rate 1: flat curve c = 1/e; the one-variable bold inequality
  fails first at (2, 1) with margin c - c^2 = e^{-1} - e^{-2}; the timid
  response of player I beats bold play from fortune 3 (0.5278... > c).
* exp-difference: P(3,1) P(4,1) = (1 - e^{-2})(1 - e^{-3}) ~ 0.8216
  exceeds P(3,2) = 1 - e^{-1} ~ 0.6321, breaking supermultiplicativity.
* the doctored cycle table (P(1,2)=1, P(2,1)=0 on the fair power table)
  loops 1 -> 3 -> 1 under the stake profile (0,1,1,2,0) for both players,
  so the minimal fixed point prices the cycle at zero for both.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time

import pytest

import redblack as rb
from oracles import enumerate_best_response
from redblack.game import Player

TRIALS = 100_000
MC_SEED = 2026

_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _remember_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _verdict(criterion: int, ok: bool, summary: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {summary}"
    suspend = (
        _CAPTURE_MANAGER.global_and_fixture_disabled()
        if _CAPTURE_MANAGER is not None
        else contextlib.nullcontext()
    )
    with suspend:
        print(line, file=sys.__stdout__, flush=True)


def _power_curves() -> list[rb.UnitBetCurve]:
    return [
        rb.unit_bet_curve(rb.power_family(M, p))
        for p in (1.0, 1.5, 2.0, 3.0)
        for M in range(2, 13)
    ]


def _decay_curves() -> list[rb.UnitBetCurve]:
    presets = [
        (lambda t: 1.0, 0.5),
        (lambda t: 1.0, 1.0),
        (lambda t: math.exp(-t * t), 0.0),
    ]
    return [
        rb.curve_from_decay(rb.DecayParams.sample(factor, rate, M))
        for factor, rate in presets
        for M in range(2, 13)
    ]


def test_criterion_01_power_golden_values() -> None:
    started = time.perf_counter()
    table = rb.power_family(3, 2)
    closed = rb.bold_timid_values(rb.unit_bet_curve(table))
    chain = rb.hitting_values(table, rb.Profile.from_name("bold-timid", 3))
    expected = (0.0, 1 / 9, 4 / 9, 1.0)
    closed_ok = all(abs(g - w) <= 1e-12 for g, w in zip(closed.q, expected))
    chain_ok = all(abs(g - w) <= 1e-10 for g, w in zip(chain.q, expected))
    elapsed = time.perf_counter() - started
    ok = closed_ok and chain_ok and elapsed < 1.0
    _verdict(
        1,
        ok,
        "power p=2 M=3 bold-timid values are (0, 1/9, 4/9, 1): product form "
        f"within 1e-12, chain solve within 1e-10, {elapsed:.2f}s",
    )
    assert closed_ok, f"product-form values {closed.q} != {expected} within 1e-12"
    assert chain_ok, f"chain values {chain.q} != {expected} within 1e-10"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds the 1 s budget"


def test_criterion_02_fair_game_closed_form() -> None:
    worst = 0.0
    for M in range(2, 13):
        values = rb.bold_timid_values(rb.unit_bet_curve(rb.power_family(M, 1)))
        for x in range(M + 1):
            telescoped = math.prod(i / (i + 1) for i in range(x, M))
            worst = max(worst, abs(values.q[x] - x / M), abs(values.q[x] - telescoped))
    ok = worst <= 1e-12
    _verdict(
        2,
        ok,
        f"fair power family gives q(x) = x/M for M = 2..12 "
        f"(telescoping oracle, worst deviation {worst:.2e})",
    )
    assert ok, f"worst deviation from x/M is {worst:.3e} > 1e-12"


def test_criterion_03_bold_inequality_implies_product_and_excessive() -> None:
    started = time.perf_counter()
    curves = _power_curves() + _decay_curves()
    nonvacuous = 0
    problems: list[str] = []
    for curve in curves:
        if not rb.check_bold_inequality(curve).passed:
            continue
        nonvacuous += 1
        product = rb.check_product_bound(curve)
        excessive = rb.check_bold_excessive(curve)
        if product.violations or excessive.violations:
            problems.append(
                f"M={curve.M}: product-bound {product.violations} / "
                f"bold-excessive {excessive.violations} violations"
            )
    elapsed = time.perf_counter() - started
    ok = not problems and nonvacuous > 0 and elapsed < 10.0
    _verdict(
        3,
        ok,
        f"bold-inequality implies product-bound and bold-excessive on "
        f"{len(curves)} curves ({nonvacuous} non-vacuous), "
        f"{len(problems)} violations, {elapsed:.2f}s",
    )
    assert not problems, "; ".join(problems)
    assert nonvacuous > 0, "implication never exercised: no curve passed the premise"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds the 10 s budget"


def test_criterion_04_supermultiplicative_implies_timid_excessive() -> None:
    tables = [
        rb.power_family(M, p) for p in (1.0, 1.5, 2.0, 3.0) for M in range(2, 13)
    ] + [rb.min_exp_table(M, m) for m in (0.5, 1.0, 2.0) for M in range(2, 13)]
    nonvacuous = 0
    problems: list[str] = []
    for table in tables:
        if not rb.check_supermultiplicative(table).passed:
            continue
        nonvacuous += 1
        report = rb.check_timid_excessive(table)
        if report.violations:
            problems.append(f"M={table.M}: {report.violations} violations")
    ok = not problems and nonvacuous > 0
    _verdict(
        4,
        ok,
        f"supermultiplicative implies timid-excessive on {len(tables)} tables "
        f"({nonvacuous} non-vacuous), {len(problems)} violations",
    )
    assert not problems, "; ".join(problems)
    assert nonvacuous > 0, "implication never exercised: no table passed the premise"


def test_criterion_05_best_response_matches_enumeration() -> None:
    makers = {
        "power p=1": lambda n: rb.power_family(n, 1),
        "power p=2": lambda n: rb.power_family(n, 2),
        "min-exp m=1": lambda n: rb.min_exp_table(n, 1.0),
        "exp-diff": rb.exp_difference_table,
    }
    problems: list[str] = []
    checked = 0
    for label, make in makers.items():
        for M in range(2, 7):
            table = make(M)
            opponents = [
                rb.timid_strategy(Player.TWO, M),
                rb.bold_strategy(Player.TWO, M),
                rb.timid_strategy(Player.ONE, M),
                rb.bold_strategy(Player.ONE, M),
            ]
            for opponent in opponents:
                checked += 1
                fast = rb.best_response(table, opponent)
                oracle = enumerate_best_response(table, opponent)
                gap = max(
                    abs(f - o) for f, o in zip(fast.values, oracle.values)
                )
                if gap > 1e-9:
                    problems.append(
                        f"{label} M={M} vs {opponent.label} {opponent.owner.value}: "
                        f"gap {gap:.2e}"
                    )
    ok = not problems
    _verdict(
        5,
        ok,
        f"extracted best responses equal exhaustive per-state maxima within "
        f"1e-9 on {checked} table/opponent pairs (4 presets, M = 2..6)",
    )
    assert not problems, "; ".join(problems)


def test_criterion_06_power_equilibrium_uniqueness_claim() -> None:
    """Expected outcome as stated: for power p=2 and M in 3..6 the
    enumeration returns exactly the bold-timid profile at every interior
    start, with the strictness conditions as the predicted certificate.

    The strictness conditions do hold, but the claim's conclusion is false:
    the power family satisfies the composition inequality with equality
    everywhere, so against a bold player I every stationary response of
    player II yields the same value, and whole families of profiles tie as
    exact equilibria.  The counts below quantify the failure; e.g. at M=3,
    x0=1 the profile (bold, stakes (0, 1, 2, 0)) is also an equilibrium
    with the identical value 1/9.  This test is intentionally red rather
    than weakened: the enumeration, the tie tolerance, and the strictness
    certificate are each independently verified elsewhere.
    """
    conditions_ok = True
    failures: list[str] = []
    for M in range(3, 7):
        table = rb.power_family(M, 2)
        conditions_ok = conditions_ok and rb.check_uniqueness_conditions(table).passed
        for x0 in range(1, M):
            certs = rb.enumerate_equilibria(table, x0)
            only_bold_timid = len(certs) == 1 and (
                certs[0].profile.first.is_bold and certs[0].profile.second.is_timid
            )
            if not only_bold_timid:
                extras = sum(
                    1
                    for c in certs
                    if not (c.profile.first.is_bold and c.profile.second.is_timid)
                )
                failures.append(f"M={M} x0={x0}: {len(certs)} equilibria ({extras} extra)")
    ok = conditions_ok and not failures
    summary = (
        "power p=2, M=3..6: strictness conditions "
        f"{'pass' if conditions_ok else 'FAIL'}, but the bold-timid profile "
        f"is not the unique equilibrium at {len(failures)}/14 starts — "
        + "; ".join(failures[:4])
        + "; ...; the tight composition equality of the power family makes "
        "player II indifferent against bold play, so ties are exact"
        if failures
        else "power p=2, M=3..6: bold-timid is the unique equilibrium at every "
        "interior start and the strictness conditions certify it"
    )
    _verdict(6, ok, summary)
    assert conditions_ok, "strictness conditions unexpectedly failed on a power table"
    assert not failures, (
        "bold-timid is not the unique stationary deterministic equilibrium: "
        + "; ".join(failures)
        + ".  Example at M=3, x0=1: player II staking 2 against fortune 1 "
        "reaches the same value 1/9 because the power family satisfies the "
        "composition inequality with equality, leaving player II indifferent "
        "against bold play.  The advertised uniqueness does not hold under "
        "exact enumeration, so this criterion stays honestly red."
    )


def test_criterion_07_min_exp_negative_results() -> None:
    table = rb.min_exp_table(4, 1.0)
    report = rb.check_bold_inequality(rb.unit_bet_curve(table))
    expected_margin = math.exp(-1) - math.exp(-2)
    witness_ok = (
        not report.passed
        and report.witnesses[0].index == (2, 1)
        and abs(report.witnesses[0].margin - expected_margin) <= 1e-6
    )
    cert = rb.verify_nash(table, rb.Profile.from_name("bold-timid", 4), 3)
    deviation = cert.deviation
    refuted_ok = (
        not cert.equilibrium
        and deviation is not None
        and deviation.player is Player.ONE
        and deviation.strategy.bet(3) == 1
        and deviation.gain > 0
    )
    ok = witness_ok and refuted_ok
    _verdict(
        7,
        ok,
        "min-exp m=1 M=4: bold-inequality fails first at (2, 1) with margin "
        f"e^-1 - e^-2 = {expected_margin:.6f}; bold-timid refuted at x0=3 by "
        "player I betting 1",
    )
    assert witness_ok, (
        f"expected first witness (2, 1) with margin ~{expected_margin:.6f}, got "
        f"{report.witnesses[:1]}"
    )
    assert refuted_ok, f"expected a refutation by betting 1 at fortune 3, got {cert}"


def test_criterion_08_exp_difference_results() -> None:
    table = rb.exp_difference_table(4)
    fairness = rb.check_fairness(table)
    above = [w.index for w in fairness.above]
    below = [w.index for w in fairness.below]
    fairness_ok = fairness.verdict == "neither" and (3, 1) in above and (1, 2) in below
    curve_ok = rb.check_bold_inequality(rb.unit_bet_curve(table)).passed
    mult = rb.check_supermultiplicative(table)
    witness = next((w for w in mult.witnesses if w.index == (3, 1, 1)), None)
    mult_ok = (
        not mult.passed
        and witness is not None
        and abs(witness.lhs - 0.8216) <= 1e-4
        and abs(witness.rhs - 0.6321) <= 1e-4
    )
    certs = rb.enumerate_equilibria(table, 1)
    bold_bold = next(
        (
            c
            for c in certs
            if c.profile.first.is_bold and c.profile.second.is_bold
        ),
        None,
    )
    enum_ok = bold_bold is not None and abs(bold_bold.value_II - 1.0) <= 1e-12
    ok = fairness_ok and curve_ok and mult_ok and enum_ok
    _verdict(
        8,
        ok,
        "exp-difference M=4: fairness neither with (3,1) above and (1,2) "
        "below; curve passes the bold inequality; composition fails at "
        "(3,1,1) with 0.8216 > 0.6321; bold-bold at x0=1 hands player II "
        "value 1",
    )
    assert fairness_ok, f"fairness {fairness.verdict}, above {above}, below {below}"
    assert curve_ok, "the table-derived curve should satisfy the bold inequality"
    assert mult_ok, f"composition witness (3,1,1) missing or off: {mult.witnesses}"
    assert enum_ok, "bold-bold should be an equilibrium at x0=1 with player II value 1"


def test_criterion_09_sincov_transport_and_round_trip() -> None:
    """The substitution (x, a, b) -> (x, x + a, x + a + b) is a bijection
    between stake triples with x + a + b <= M and the pair-form triples, so
    the two checks must agree — and agree violation by violation — on that
    shared index set.  Stake triples summing past M are still scanned by
    the stake-form check (the table stores those entries) but have no image
    in the bounded pair form, so they are excluded from the equivalence;
    the exp-difference table at M = 3 violates only at such triples."""
    makers = {
        "power p=1": lambda n: rb.power_family(n, 1),
        "power p=2": lambda n: rb.power_family(n, 2),
        "min-exp m=1": lambda n: rb.min_exp_table(n, 1.0),
        "exp-diff": rb.exp_difference_table,
    }
    problems: list[str] = []
    tables = 0
    for label, make in makers.items():
        for M in range(3, 9):
            tables += 1
            table = make(M)
            pair_form = rb.sincov_of(table)
            mult = rb.check_supermultiplicative(table, max_witnesses=None)
            sincov = rb.check_sincov(pair_form, max_witnesses=None)
            playable = [w for w in mult.witnesses if sum(w.index) <= M]
            if (len(playable) == 0) != sincov.passed:
                problems.append(f"{label} M={M}: verdicts diverge on the shared range")
            transported = [
                (w.index[0], w.index[0] + w.index[1], sum(w.index)) for w in playable
            ]
            if transported != [w.index for w in sincov.witnesses]:
                problems.append(f"{label} M={M}: witness lists do not correspond")
            rebuilt = rb.table_of_sincov(pair_form)
            for a in range(M + 1):
                for b in range(M + 1):
                    if a == 0 and b == 0:
                        continue
                    if a + b <= M:
                        if abs(rebuilt.prob(a, b) - table.prob(a, b)) > 1e-12:
                            problems.append(f"{label} M={M}: entry ({a},{b}) drifts")
                    elif rebuilt.prob(a, b) != 1.0:
                        problems.append(f"{label} M={M}: fill ({a},{b}) not 1.0")
    ok = not problems
    _verdict(
        9,
        ok,
        f"composition verdict and witnesses transport one-to-one to the "
        f"pair-of-fortunes form on the shared index range, and the round trip "
        f"is the identity on playable stakes ({tables} tables, M = 3..8)",
    )
    assert not problems, "; ".join(problems[:8])


def test_criterion_10_monte_carlo_agreement() -> None:
    started = time.perf_counter()
    problems: list[str] = []
    combos = 0
    for p in (1, 2):
        for M in (3, 4):
            table = rb.power_family(M, p)
            for name in ("bold-timid", "timid-timid"):
                profile = rb.Profile.from_name(name, M)
                values = rb.hitting_values(table, profile)
                for x0 in range(M + 1):
                    combos += 1
                    config = rb.SimConfig(x0=x0, trials=TRIALS, seed=MC_SEED)
                    result = rb.simulate(table, profile, config)
                    agreement = rb.compare_exact(result, values)
                    if not agreement.passed:
                        problems.append(f"p={p} M={M} {name} x0={x0}: {agreement.reason}")
                    if result.truncated_fraction >= 1e-3:
                        problems.append(
                            f"p={p} M={M} {name} x0={x0}: truncated fraction "
                            f"{result.truncated_fraction:.2e}"
                        )
    rerun_config = rb.SimConfig(x0=2, trials=TRIALS, seed=MC_SEED)
    rerun_table = rb.power_family(4, 2)
    rerun_profile = rb.Profile.from_name("bold-timid", 4)
    first = rb.simulate(rerun_table, rerun_profile, rerun_config)
    second = rb.simulate(rerun_table, rerun_profile, rerun_config, jobs=3)
    if rb.canonical_json(first.to_json_dict()) != rb.canonical_json(second.to_json_dict()):
        problems.append("identical seeds did not reproduce byte-identical results")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 30.0
    _verdict(
        10,
        ok,
        f"{combos} simulation grid points at {TRIALS} trials, seed {MC_SEED}: "
        f"all within |z| <= 4, truncation < 1e-3, byte-identical rerun, "
        f"{elapsed:.2f}s",
    )
    assert not problems, "; ".join(problems)
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds the 30 s budget"


def test_criterion_11_cycle_semantics() -> None:
    table = rb.power_family(4, 1).with_entry(1, 2, 1.0).with_entry(2, 1, 0.0)
    stakes = (0, 1, 1, 2, 0)
    profile = rb.Profile(
        rb.StationaryStrategy(Player.ONE, stakes),
        rb.StationaryStrategy(Player.TWO, stakes),
    )
    absorbing = rb.absorption_certain(table, profile)
    values = rb.hitting_values(table, profile)
    zero_ok = abs(values.q[1]) <= 1e-12 and abs(values.t[1]) <= 1e-12
    substochastic_ok = all(
        values.q[x] + values.t[x] < 1.0 for x in range(1, 4)
    )
    full_ok = values.q == (0.0, 0.0, 0.0, 0.0, 1.0) and values.t == (1.0, 0.0, 0.0, 0.0, 0.0)
    ok = (not absorbing) and zero_ok and substochastic_ok and full_ok
    _verdict(
        11,
        ok,
        "cycle table (P(1,2)=1, P(2,1)=0): the stake profile (0,1,1,2,0) "
        "loops 1 -> 3 -> 1; the minimal fixed point prices both players at "
        "exactly 0 on the cycle, sub-stochastic rather than diverging",
    )
    assert not absorbing, "the cycling profile should not absorb from everywhere"
    assert zero_ok, f"cycle values should vanish: q(1)={values.q[1]}, t(1)={values.t[1]}"
    assert substochastic_ok, "interior totals should be strictly below 1"
    assert full_ok, f"expected exact zero vectors, got {values.q} / {values.t}"
