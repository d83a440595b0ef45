"""Every array-kernel check against a term-by-term scalar oracle.

``_scalar_report`` scans ``(index, lhs, rhs, constraint)`` terms one at a
time, the way the checks did before they moved onto the slab kernel.  The
terms come from the generators ``supermultiplicative_terms`` and
``product_bound_terms`` below, which ``test_checks`` imports too, and from
the brute-force loops after them, which follow each checker's documented
ranges with scalar table lookups.  Reports must be equal as dataclasses: same
counts, same witnesses in the same order, same floats to the last bit.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from typing import Callable, Iterator

import numpy as np
import pytest

import redblack as rb
import redblack.checks
import redblack.game
from redblack.reports import Slab, scan_slabs

CAPS = (0, 1, 16, None, -1)
# A negative tolerance is not rejected by the library; fairness then
# counts an entry within |tol| of the benchmark as above only.
TOLS = (0.0, -0.0, 1e-12, 1e-6, -1e-6)


def _random_table(M: int, seed: int) -> rb.WinProbTable:
    """Seeded uniform entries, about a third of them replaced by an exact 0
    or 1 or by the float one ulp inside it."""
    rng = random.Random(seed)
    edges = (0.0, 1.0, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))
    rows: list[list[float | None]] = [
        [rng.choice(edges) if rng.random() < 1 / 3 else rng.random() for _ in range(M + 1)]
        for _ in range(M + 1)
    ]
    rows[0][0] = None
    return rb.WinProbTable(M, rows)


TABLES: dict[str, Callable[[], rb.WinProbTable]] = {
    "pow1-m4": lambda: rb.power_family(4, 1.0),
    "pow2-m5": lambda: rb.power_family(5, 2.0),
    "pow2.5-m6": lambda: rb.power_family(6, 2.5),
    "min-exp-m5": lambda: rb.min_exp_table(5, 1.0),
    "exp-diff-m6": lambda: rb.exp_difference_table(6),
    # exact 0/1 entries: broken borders, a sure win, a sure loss
    "hand-built-m5": lambda: (
        rb.power_family(5, 2.0)
        .with_entry(0, 2, 1.0)
        .with_entry(3, 0, 0.0)
        .with_entry(2, 3, 1.0)
        .with_entry(1, 1, 0.0)
        .with_entry(1, 3, 1.0)
    ),
    "random-m8": lambda: _random_table(8, 8),
    "random-m9": lambda: _random_table(9, 9),
}

_Term = tuple[tuple[int, ...], float, float, str]


def product_bound_terms(curve: rb.UnitBetCurve) -> Iterator[_Term]:
    """For ``0 <= a <= x <= M``:
    ``(1 - curve(a)) * prod_{i=0..a} curve(x - i) <= curve(x) - curve(a)``.
    """
    phi = curve.values
    for x in range(curve.M + 1):
        running = 1.0
        for a in range(x + 1):
            running *= phi[x - a]  # after this line: prod of phi(x), ..., phi(x - a)
            yield (x, a), (1.0 - phi[a]) * running, phi[x] - phi[a], "product-bound"


def supermultiplicative_terms(
    table: rb.WinProbTable,
) -> tuple[Iterator[_Term], int, int]:
    """Terms of ``P(x, a) * P(x + a, b) <= P(x, a + b)`` with skip/flag counts.

    Ranges: ``0 <= x <= M``, ``0 <= a <= M - x``, ``0 <= b <= M - a``; every
    index touched stays inside ``0..M``.  Triples evaluating the undefined
    pair ``(0, 0)`` — exactly those with ``x = a = 0`` — are skipped.
    Triples with ``x + a + b > M`` involve entries unreachable in play and
    are flagged (but still checked, since the table stores those entries).
    """
    M = table.M
    skipped = M + 1  # (0, 0, b) for each b in 0..M evaluates P(0, 0)
    flagged = sum(
        1
        for x in range(M + 1)
        for a in range(M - x + 1)
        for b in range(M - a + 1)
        if x + a + b > M and (x, a) != (0, 0)
    )

    def terms() -> Iterator[_Term]:
        for x in range(M + 1):
            for a in range(M - x + 1):
                if x == 0 and a == 0:
                    continue
                for b in range(M - a + 1):
                    yield (
                        (x, a, b),
                        table.prob(x, a) * table.prob(x + a, b),
                        table.prob(x, a + b),
                        "supermultiplicative",
                    )

    return terms(), skipped, flagged


def _scalar_report(
    name: str,
    terms,
    *,
    tol: float,
    cap: int | None,
    skipped: int = 0,
    flagged: int = 0,
    strict: bool = False,
) -> rb.CheckReport:
    violations = 0
    witnesses: list[rb.Witness] = []
    counts: dict[str, int] = {}
    for index, lhs, rhs, constraint in terms:
        violated = not lhs > rhs + tol if strict else lhs > rhs + tol
        if violated:
            violations += 1
            counts[constraint] = counts.get(constraint, 0) + 1
            if cap is None or len(witnesses) < cap:
                margin = rhs + tol - lhs if strict else lhs - rhs
                witnesses.append(rb.Witness(tuple(index), lhs, rhs, margin, constraint))
    return rb.CheckReport(
        name=name,
        passed=violations == 0,
        violations=violations,
        witnesses=tuple(witnesses),
        skipped=skipped,
        tolerance=tol,
        flagged=flagged,
        constraint_counts=tuple(sorted(counts.items())),
    )


def _border_terms(table: rb.WinProbTable) -> Iterator[_Term]:
    for b in range(1, table.M + 1):
        yield (0, b), abs(table.prob(0, b) - 0.0), 0.0, "zero-stake-row"
    for a in range(1, table.M + 1):
        yield (a, 0), abs(table.prob(a, 0) - 1.0), 0.0, "zero-stake-column"


def _bold_terms(curve: rb.UnitBetCurve) -> Iterator[_Term]:
    phi = curve.values
    for x in range(curve.M + 1):
        for y in range(x + 1):
            yield (x, y), phi[y] - phi[x], phi[x - y] * (phi[y] - 1.0), "difference"
    for x in range(curve.M):
        yield (x, x + 1), phi[x], phi[x + 1], "nondecreasing"


def _sincov_terms(F: rb.SincovTable) -> tuple[list[_Term], int]:
    terms, skipped = [], 0
    for x in range(F.M + 1):
        for a in range(x, F.M + 1):
            for b in range(a, F.M + 1):
                if (x, a) == (0, 0):
                    skipped += 1
                    continue
                lhs = F.value(x, a) * F.value(a, b)
                terms.append(((x, a, b), lhs, F.value(x, b), "sincov"))
    return terms, skipped


def _extended_terms(ext: rb.ExtendedTable, span: int) -> tuple[list[_Term], int]:
    terms, skipped = [], 0
    r = range(-span, ext.M + span + 1)
    for x in r:
        for a in r:
            for b in r:
                if (x, a) == (0, 0) or (x + a, b) == (0, 0) or (x, a + b) == (0, 0):
                    skipped += 1
                    continue
                lhs = ext.value(x, a) * ext.value(x + a, b)
                rhs = ext.value(x, a + b)
                terms.append(((x, a, b), lhs, rhs, "supermultiplicative-extended"))
    return terms, skipped


def _uniqueness_terms(table: rb.WinProbTable) -> Iterator[_Term]:
    phi = rb.unit_bet_curve(table).values
    for x in range(table.M):
        yield (x, x + 1), phi[x + 1], phi[x], "strictly-increasing"
    for y in range(1, table.M + 1):
        yield (1, y), table.prob(1, y), 0.0, "unit-stake-positivity"


def _submultiplicative_terms(k: tuple[float, ...], M: int) -> Iterator[_Term]:
    for t in range(M):
        for y in range(M - t):
            yield (t, y), k[t + y], k[t] * k[y], "submultiplicative"


def _bold_excessive_terms(curve: rb.UnitBetCurve) -> Iterator[_Term]:
    q = rb.bold_timid_values(curve).q
    for x in range(1, curve.M):
        for a in range(x + 1):
            lhs = curve[a] * q[x + 1] + (1.0 - curve[a]) * q[x - a]
            yield (x, a), lhs, q[x], "bold-excessive"


def _timid_excessive_terms(table: rb.WinProbTable) -> Iterator[_Term]:
    q = rb.bold_timid_values(rb.unit_bet_curve(table)).q
    for x in range(table.M):
        for b in range(1, table.M - x + 1):
            yield (x, b), q[x], table.prob(x, b) * q[x + b], "timid-excessive"


def _fairness_oracle(table: rb.WinProbTable, tol: float, cap: int | None) -> rb.FairnessReport:
    above: list[rb.Witness] = []
    below: list[rb.Witness] = []
    above_count = below_count = 0
    for a in range(table.M + 1):
        for b in range(table.M + 1):
            if a + b == 0 or a + b > table.M:
                continue
            value, benchmark = table.prob(a, b), a / (a + b)
            if value > benchmark + tol:
                above_count += 1
                if cap is None or len(above) < cap:
                    margin = value - benchmark
                    above.append(rb.Witness((a, b), value, benchmark, margin, "above-even-odds"))
            elif value < benchmark - tol:
                below_count += 1
                if cap is None or len(below) < cap:
                    margin = benchmark - value
                    below.append(rb.Witness((a, b), value, benchmark, margin, "below-even-odds"))
    verdict = {
        (True, True): "neither",
        (True, False): "superfair",
        (False, True): "subfair",
        (False, False): "fair",
    }[(above_count > 0, below_count > 0)]
    unreachable = sum(1 for a in range(table.M + 1) for b in range(table.M + 1) if a + b > table.M)
    return rb.FairnessReport(
        verdict, tuple(above), tuple(below), above_count, below_count, unreachable, tol
    )


def _pair(check: str, table: rb.WinProbTable, tol: float, cap: int | None):
    """(kernel result, oracle result) of one check on one table."""
    curve = rb.unit_bet_curve(table)
    M = table.M
    kw = {"tol": tol, "max_witnesses": cap}
    if check == "border":
        return rb.check_border(table, **kw), _scalar_report(
            "border", _border_terms(table), tol=tol, cap=cap)
    if check == "bold-inequality":
        return rb.check_bold_inequality(curve, **kw), _scalar_report(
            "bold-inequality", _bold_terms(curve), tol=tol, cap=cap)
    if check == "product-bound":
        return rb.check_product_bound(curve, **kw), _scalar_report(
            "product-bound", product_bound_terms(curve), tol=tol, cap=cap)
    if check == "supermultiplicative":
        terms, skipped, flagged = supermultiplicative_terms(table)
        return rb.check_supermultiplicative(table, **kw), _scalar_report(
            "supermultiplicative", terms, tol=tol, cap=cap, skipped=skipped, flagged=flagged)
    if check == "sincov":
        F = rb.sincov_of(table)
        terms, skipped = _sincov_terms(F)
        return rb.check_sincov(F, **kw), _scalar_report(
            "sincov", terms, tol=tol, cap=cap, skipped=skipped)
    if check.startswith("extended"):
        span = int(check.removeprefix("extended") or 2)
        ext = rb.extend_table(table)
        terms, skipped = _extended_terms(ext, span)
        return rb.check_supermultiplicative_extended(ext, span=span, **kw), _scalar_report(
            "supermultiplicative-extended", terms, tol=tol, cap=cap, skipped=skipped)
    if check == "uniqueness":
        eps = tol or 1e-12
        return rb.check_uniqueness_conditions(table, eps_strict=eps, max_witnesses=cap), \
            _scalar_report(
                "uniqueness-conditions", _uniqueness_terms(table), tol=eps, cap=cap, strict=True)
    if check == "submultiplicative":
        k = tuple(1.0 - v for v in curve.values)
        return rb.check_submultiplicative(k, M, **kw), _scalar_report(
            "submultiplicative", _submultiplicative_terms(k, M), tol=tol, cap=cap)
    if check == "bold-excessive":
        return rb.check_bold_excessive(curve, **kw), _scalar_report(
            "bold-excessive", _bold_excessive_terms(curve), tol=tol, cap=cap)
    if check == "timid-excessive":
        return rb.check_timid_excessive(table, **kw), _scalar_report(
            "timid-excessive", _timid_excessive_terms(table), tol=tol, cap=cap)
    if check == "fairness":
        return rb.check_fairness(table, **kw), _fairness_oracle(table, tol, cap)
    raise KeyError(check)


CHECKS = (
    "border", "bold-inequality", "product-bound", "supermultiplicative", "sincov",
    "extended", "uniqueness", "submultiplicative", "bold-excessive", "timid-excessive",
    "fairness",
)
# "extended" scans span 2; for tol >= 0 the scan visits only the terms that
# can fail, so its report must equal the whole cube's at every span.
EXTENDED_SPANS = ("extended-1", "extended0", "extended1", "extended3")


@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("check", CHECKS + EXTENDED_SPANS)
def test_kernel_equals_scalar_oracle(check: str, table_name: str) -> None:
    table = TABLES[table_name]()
    for cap in CAPS:
        for tol in TOLS:
            kernel, oracle = _pair(check, table, tol, cap)
            assert kernel == oracle, (cap, tol)
            assert repr(kernel.to_json_dict()) == repr(oracle.to_json_dict())


def test_negative_tolerance_scans_the_whole_cube() -> None:
    """Off the clipped region a term is 0 against 0 or 1 against 1, which a
    negative tolerance counts as violated."""
    ext = rb.extend_table(rb.power_family(5, 2))
    clipped = rb.check_supermultiplicative_extended(ext, span=2, tol=0.0, max_witnesses=None)
    whole = rb.check_supermultiplicative_extended(ext, span=2, tol=-1e-6, max_witnesses=None)
    assert all(min(w.index) >= 0 for w in clipped.witnesses)
    assert any(min(w.index) < 0 for w in whole.witnesses)
    assert whole.witnesses[0].index == (-2, -2, -2)


@pytest.mark.parametrize("tol", TOLS)
def test_slab_bounds_are_rhs_plus_tol(monkeypatch: pytest.MonkeyPatch, tol: float) -> None:
    """Every check that precomputes ``rhs + tol`` hands the kernel that sum
    to the bit, for every plane."""
    bounded: list[str] = []

    def spy(name: str, slabs, **kwargs) -> rb.CheckReport:
        def checked():
            for slab in slabs:
                if slab.bound is not None:
                    expected = np.add(slab.rhs, kwargs["tol"])
                    assert np.shape(slab.bound) == np.shape(expected), slab.constraint
                    assert np.asarray(slab.bound).tobytes() == expected.tobytes(), slab.constraint
                    bounded.append(slab.constraint)
                yield slab

        return scan_slabs(name, checked(), **kwargs)

    monkeypatch.setattr(redblack.checks, "scan_slabs", spy)
    monkeypatch.setattr(redblack.game, "scan_slabs", spy)
    table = _random_table(9, 9)
    rb.check_supermultiplicative(table, tol=tol)
    rb.check_sincov(rb.sincov_of(table), tol=tol)
    rb.check_supermultiplicative_extended(rb.extend_table(table), tol=tol)
    rb.check_fairness(table, tol=tol)
    assert bounded.count("supermultiplicative") == table.M + 1
    assert bounded.count("sincov") == table.M
    planes = table.M + 1 if tol >= 0 else table.M + 7  # a in 0..M, or the default span 3
    assert bounded.count("supermultiplicative-extended") == planes
    assert bounded.count("above-even-odds") == 1


@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_sincov_of_equals_the_gather_formula(table_name: str) -> None:
    """The row copies give ``F(x, y) = P(x, y - x)`` bit for bit, with nan
    exactly below the diagonal and at the origin."""
    table = TABLES[table_name]()
    x, y = np.ogrid[: table.M + 1, : table.M + 1]
    gathered = np.where(y >= x, table.array[x, np.maximum(y - x, 0)], np.nan)
    F = rb.sincov_of(table).array
    assert F.tobytes() == gathered.tobytes()
    assert np.array_equal(np.isnan(F), (y < x) | ((x == 0) & (y == 0)))


def test_every_check_is_broken_and_rounding_ties_occur() -> None:
    """The oracle comparison is not vacuous: every check has at least two
    violations on some table, so caps 0 and 1 truncate its witnesses, and
    the composition law of the tight power tables breaks by rounding alone
    at tol 0 but not at 1e-12."""
    for check in CHECKS:
        counts = []
        for make in TABLES.values():
            report = _pair(check, make(), 1e-12, None)[0]
            if check == "fairness":
                counts.append(report.above_count + report.below_count)
            else:
                counts.append(report.violations)
        assert max(counts) >= 2, check
    tight = TABLES["pow2.5-m6"]()
    assert not rb.check_supermultiplicative(tight, tol=0.0).passed
    assert rb.check_supermultiplicative(tight, tol=1e-12).passed


def test_cap_fills_in_the_middle_of_a_slab() -> None:
    table = rb.exp_difference_table(6)
    full = rb.check_supermultiplicative(table, max_witnesses=None)
    per_x: dict[int, int] = {}
    for w in full.witnesses:
        per_x[w.index[0]] = per_x.get(w.index[0], 0) + 1
    first, second = sorted(per_x)[:2]
    assert per_x[second] >= 2
    cap = per_x[first] + 1  # every witness of the first slab, one of the second
    terms, skipped, flagged = supermultiplicative_terms(table)
    capped = rb.check_supermultiplicative(table, max_witnesses=cap)
    assert capped == _scalar_report(
        "supermultiplicative", terms, tol=1e-12, cap=cap, skipped=skipped, flagged=flagged
    )
    assert capped.witnesses == full.witnesses[:cap]
    assert {w.index[0] for w in capped.witnesses} == {first, second}
    assert capped.violations == full.violations > cap


@pytest.mark.parametrize("seed", [24, 25])
@pytest.mark.parametrize("check", ["supermultiplicative", "sincov", "extended"])
def test_witness_merge_past_the_first_plane(check: str, seed: int) -> None:
    """The composition scans run one plane per middle index, so witnesses
    from many planes must merge into lexicographic order under every cap."""
    table = _random_table(24, seed)
    full = _pair(check, table, 1e-12, None)[0]
    assert len({w.index[1] for w in full.witnesses}) > 10  # hits spread over many planes
    for cap in (0, 1, 2, 16, None):
        kernel, oracle = _pair(check, table, 1e-12, cap)
        assert kernel == oracle, cap


def test_witnesses_sort_by_constraint_then_index() -> None:
    """Slabs may come in any order: one constraint's witnesses come back by
    index, and constraints keep the order in which they first appear."""
    def slab(i: int, constraint: str) -> Slab:
        return Slab(1.0, 0.0, True, (i,), constraint)

    reverse = [slab(i, "c") for i in (5, 3, 1)]
    report = scan_slabs("demo", reverse, max_witnesses=None)
    assert [w.index for w in report.witnesses] == [(1,), (3,), (5,)]
    assert [w.index for w in scan_slabs("demo", reverse, max_witnesses=2).witnesses] == [(1,), (3,)]
    mixed = [slab(4, "z"), slab(0, "a"), slab(2, "z")]
    report = scan_slabs("demo", mixed, max_witnesses=None)
    assert [(w.constraint, w.index) for w in report.witnesses] == [
        ("z", (2,)), ("z", (4,)), ("a", (0,))
    ]
    assert report.constraint_counts == (("a", 1), ("z", 2))


@pytest.mark.parametrize("cap", [rb.DEFAULT_WITNESS_CAP, 0])
def test_zero_dimensional_slab_is_one_position(cap: int) -> None:
    """A slab of scalars is counted and, when the cap leaves room, witnessed."""
    report = scan_slabs("demo", [Slab(1.0, 0.0, True, (0,), "c")], max_witnesses=cap)
    assert (report.passed, report.violations, report.constraint_counts) == (False, 1, (("c", 1),))
    assert report.witnesses == ((rb.Witness((0,), 1.0, 0.0, 1.0, "c"),) if cap else ())


@pytest.mark.parametrize("M", range(2, 10))
def test_skip_and_flag_counts_follow_the_closed_forms(M: int) -> None:
    table = rb.power_family(M, 2)
    mult = rb.check_supermultiplicative(table)
    _, skipped, flagged = supermultiplicative_terms(table)
    assert mult.skipped == skipped == M + 1
    assert mult.flagged == flagged == math.comb(M + 2, 3)
    sincov = rb.check_sincov(rb.sincov_of(table))
    assert sincov.skipped == _sincov_terms(rb.sincov_of(table))[1] == M + 1
    for span in range(4):
        ext = rb.check_supermultiplicative_extended(rb.extend_table(table), span=span)
        assert ext.skipped == _extended_terms(rb.extend_table(table), span)[1]
        assert ext.skipped == (M + 2 * span + 1) + 4 * span


@pytest.mark.parametrize("M", range(2, 13))
def test_unreachable_entries_closed_form(M: int) -> None:
    table = rb.power_family(M, 1)
    brute = sum(1 for a in range(M + 1) for b in range(M + 1) if a + b > M)
    assert table.unreachable_entries == brute == M * (M + 1) // 2


def test_extended_scan_memory_is_per_slab() -> None:
    """The whole-plane scan keeps O(M^2) memory: one plane per middle stake ``a``."""
    table = rb.power_family(100, 2)
    extended = rb.extend_table(table)
    tracemalloc.start()
    try:
        report = rb.check_supermultiplicative_extended(extended)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * 2**20
