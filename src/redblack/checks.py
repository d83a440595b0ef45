"""Functional-inequality checkers over tables and unit-bet curves.

Every checker builds both sides of its inequality as numpy arrays and hands
them to the kernel :func:`redblack.reports.scan_slabs`, which counts every
violation exactly and keeps the first ``max_witnesses`` with both sides of
the comparison, ordered by constraint and then lexicographically by reported
index.  The two-index scans are one slab; the three-index composition scans
are one two-dimensional slab per middle index (a stake, or the middle
fortune of the pair form), over the full rectangle of the outer two, so no
plane carries a mask.  Memory stays O(M^2) however large the O(M^3) scan.
Both sides are the same IEEE products and sums a term-by-term scan computes.

Index combinations that would touch the undefined stake pair ``(0, 0)`` are
skipped and counted; combinations that only involve entries unreachable in
play (stakes summing past the total money) are evaluated and flagged.

The checks and what passing them buys:

* ``bold-inequality`` + nondecreasing curve implies ``product-bound``;
* ``product-bound`` implies the bold player's values are excessive against
  a timid opponent (see :func:`redblack.solver.check_bold_excessive`);
* ``supermultiplicative`` implies the timid player's values are excessive
  against a bold opponent; the ``sincov`` law of the pair-of-fortunes form
  is its playable part (``x + a + b <= M``) in fortune coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .families import ExtendedTable, SincovTable
from .game import UnitBetCurve, WinProbTable
from .reports import (
    DEFAULT_TOL,
    DEFAULT_WITNESS_CAP,
    CheckReport,
    Slab,
    scan_slabs,
)


def check_bold_inequality(
    curve: UnitBetCurve,
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """The one-variable inequality behind bold play, plus monotonicity.

    Difference part, for ``0 <= y <= x <= M``:
    ``curve(y) - curve(x) <= curve(x - y) * (curve(y) - 1)``.
    Monotonicity part, for ``0 <= x < M``: ``curve(x) <= curve(x + 1)``.
    Witnesses are lexicographic within each constraint tag, with all
    ``difference`` terms scanned before the ``nondecreasing`` ones.
    """
    phi = np.array(curve.values, dtype=np.float64)
    x = np.arange(curve.M + 1)[:, None]
    y = np.arange(curve.M + 1)[None, :]
    s = np.arange(curve.M)
    slabs = (
        Slab(
            phi[y] - phi[x],
            phi[np.maximum(x - y, 0)] * (phi[y] - 1.0),
            y <= x,
            (x, y),
            "difference",
        ),
        Slab(phi[:-1], phi[1:], True, (s, s + 1), "nondecreasing"),
    )
    return scan_slabs("bold-inequality", slabs, tol=tol, max_witnesses=max_witnesses)


def check_product_bound(
    curve: UnitBetCurve,
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """The product form of the bold-play condition (implied by
    ``bold-inequality`` whenever the curve is nondecreasing).

    For ``0 <= a <= x <= M``:
    ``(1 - curve(a)) * prod_{i=0..a} curve(x - i) <= curve(x) - curve(a)``.
    """
    phi = np.array(curve.values, dtype=np.float64)
    x = np.arange(curve.M + 1)[:, None]
    a = np.arange(curve.M + 1)[None, :]
    # running[x, a] = phi(x) * phi(x - 1) * ... * phi(x - a), multiplied in that order
    running = np.cumprod(np.where(a <= x, phi[np.maximum(x - a, 0)], 1.0), axis=1)
    slab = Slab((1.0 - phi[a]) * running, phi[x] - phi[a], a <= x, (x, a), "product-bound")
    return scan_slabs("product-bound", [slab], tol=tol, max_witnesses=max_witnesses)


def check_supermultiplicative(
    table: WinProbTable,
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """Winning two stages in a row is never better than staking the sum at once.

    ``P(x, a) * P(x + a, b) <= P(x, a + b)`` for ``0 <= x <= M``,
    ``0 <= a <= M - x`` and ``0 <= b <= M - a``; every index touched stays
    inside ``0..M``.  Triples with ``x + a + b > M`` involve entries
    unreachable in play and are flagged, but still checked, since the table
    stores those entries.  ``skipped`` is ``M + 1``, the triples
    ``(0, 0, b)`` that evaluate the undefined pair ``(0, 0)``.  ``flagged``
    is ``C(M + 2, 3)``: for each ``x`` and ``a``, exactly the ``x`` largest
    stakes ``b`` give ``x + a + b > M``, and
    ``sum_x x * (M - x + 1) = M (M + 1) (M + 2) / 6``.
    """
    P, x, b = table.array, np.arange(table.M + 1)[:, None], np.arange(table.M + 1)
    bound, tag = P + tol, "supermultiplicative"
    # plane a: x and b in 0..M - a, so a + b never passes M; row x = 0 of a = 0 is skipped
    planes = (
        Slab(P[:n, a, None] * P[a:, :n], P[:n, a:], a > 0 or x > 0, (x[:n], a, b[:n]), tag,
             bound[:n, a:])
        for a, n in enumerate(range(table.M + 1, 0, -1))
    )
    flagged = math.comb(table.M + 2, 3)
    return scan_slabs(
        tag, planes, tol=tol, max_witnesses=max_witnesses, skipped=table.M + 1, flagged=flagged
    )


def check_supermultiplicative_extended(
    extended: ExtendedTable,
    *,
    span: int = 3,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """The composition inequality for the whole-plane evaluator.

    Covers all integer triples with each of ``x``, ``a``, ``b`` in
    ``[-span, M + span]``, skipping exactly the triples that would evaluate
    the undefined pair ``(0, 0)``: for ``span >= 0`` there are
    ``M + 2 span + 1`` with ``(x, a) = (0, 0)``, plus ``2 span`` each with
    ``(x + a, b) = (0, 0)`` or ``(x, a + b) = (0, 0)`` but not ``x = a = 0``,
    so ``M + 6 span + 1`` in all, and none for ``span < 0``.

    For ``tol >= 0`` only the planes ``0 <= a <= M`` are scanned, each over
    ``0 <= x, b <= M - a``, clipped to the span: no other term can fail,
    since every table entry lies in [0, 1].

    * ``x < 0``: the term is 0 against 0.
    * ``a < 0`` or ``b < 0``: the term is 0 against a value ``>= 0``.
    * ``x + a > M``: the term is 1 against 1.
    * ``x + a <= M < x + a + b``: the term is ``P(x, a) <= 1`` against 1.
    * A term that reads the undefined pair is ``nan``, which fails every
      comparison, so it is never violated.

    For a negative or ``nan`` tolerance those terms can fail, and the same
    planes run over the whole cube.
    """
    M, lo, hi = extended.M, -span, extended.M + span
    # x, a and b run from floor; a up to min(hi, reach), x and b up to min(hi, reach - a)
    floor, reach = (max(lo, 0), M) if tol >= 0 else (lo, 2 * hi)
    # every index and sum lies in min(floor, 2 floor)..reach; E[i + o, j + o] = value(i, j)
    o = -min(floor, 2 * floor)
    E = extended.grid(-o, reach)
    bound, tag = E + tol, "supermultiplicative-extended"

    def plane(a: int) -> Slab:
        top = min(hi, reach - a)
        xs = np.arange(floor, top + 1)
        w = slice(floor + o, top + o + 1)  # x or b
        s = slice(w.start + a, w.stop + a)  # x + a or a + b
        # nan, only at (0, 0), fails every comparison, so the plane needs no mask
        return Slab(E[w, a + o, None] * E[s, w], E[w, s], True, (xs[:, None], a, xs), tag,
                    bound[w, s])

    planes = (plane(a) for a in range(floor, min(hi, reach) + 1))
    skipped = M + 6 * span + 1 if span >= 0 else 0
    return scan_slabs(tag, planes, tol=tol, max_witnesses=max_witnesses, skipped=skipped)


def check_sincov(
    F: SincovTable,
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """Composition law of the pair-of-fortunes form:
    ``F(x, a) * F(a, b) <= F(x, b)`` for ``0 <= x <= a <= b <= M``.

    Triples evaluating the undefined entry ``(0, 0)`` — exactly the ``M + 1``
    with ``x = a = 0`` — are skipped.  Each triple is playable, and is the
    ``supermultiplicative`` term ``(x, a - x, b - a)`` of the table ``F``
    reindexes.  The scan reads ``F``'s own array, one plane per middle
    fortune ``a >= 1`` over the rectangle ``x <= a <= b``.
    """
    A, x, b = F.array, np.arange(F.M + 1)[:, None], np.arange(F.M + 1)
    bound = A + tol
    planes = (
        Slab(A[: a + 1, a, None] * A[a, a:], A[: a + 1, a:], True, (x[: a + 1], a, b[a:]), "sincov",
             bound[: a + 1, a:])
        for a in range(1, F.M + 1)
    )
    return scan_slabs("sincov", planes, tol=tol, max_witnesses=max_witnesses, skipped=F.M + 1)


def check_uniqueness_conditions(
    table: WinProbTable,
    *,
    eps_strict: float = 1e-12,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """Strictness conditions under which the certified profile is the only
    equilibrium candidate of its kind.

    Two parts: the unit-bet curve must be strictly increasing
    (``curve(x + 1) > curve(x) + eps_strict`` for ``0 <= x < M``), and the
    smallest stake must keep a live chance (``P(1, y) > eps_strict`` for
    ``1 <= y <= M``).  For these witnesses ``margin`` is the shortfall of
    the required strict gap.
    """
    P = table.array
    phi = P[:, 1]
    x = np.arange(table.M)
    y = np.arange(1, table.M + 1)
    slabs = (
        Slab(phi[1:], phi[:-1], True, (x, x + 1), "strictly-increasing"),
        Slab(P[1, 1:], 0.0, True, (1, y), "unit-stake-positivity"),
    )
    return scan_slabs(
        "uniqueness-conditions", slabs, tol=eps_strict, max_witnesses=max_witnesses, strict=True
    )
