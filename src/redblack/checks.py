"""Functional-inequality checkers over tables and unit-bet curves.

Every checker builds both sides of its inequality as numpy arrays and hands
them to the kernel :func:`redblack.reports.scan_slabs`, which counts every
violation exactly and keeps the first ``max_witnesses`` with both sides of
the comparison.  The two-index scans are one slab; the three-index
composition scans are one two-dimensional slab per leading index ``x``, in
ascending ``x``.  C order within a slab is lexicographic order of the
reported index, so witnesses come out in lexicographic scan order, and
memory stays O(M^2) however large the O(M^3) scan.  Both sides are the same
IEEE products and sums a term-by-term scan computes.

Index combinations that would touch the undefined stake pair ``(0, 0)`` are
skipped and counted; combinations that only involve entries unreachable in
play (stakes summing past the total money) are evaluated and flagged.

The checks and what passing them buys:

* ``bold-inequality`` + nondecreasing curve implies ``product-bound``;
* ``product-bound`` implies the bold player's values are excessive against
  a timid opponent (see :func:`redblack.solver.check_bold_excessive`);
* ``supermultiplicative`` implies the timid player's values are excessive
  against a bold opponent; the ``sincov`` law of the pair-of-fortunes form
  is its playable mask (``x + a + b <= M``), scanned by the same planes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .families import ExtendedTable, SincovTable, table_of_sincov
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


def _composition_planes(P: np.ndarray, tag: str, *, playable: bool) -> Iterator[Slab]:
    """The planes of ``P(x, a) * P(x + a, b) <= P(x, a + b)``, one per ``x``, over
    ``0 <= a <= M - x`` and ``0 <= b <= M - a``, without the skipped ``(0, 0, b)``.
    With ``playable`` only ``x + a + b <= M`` is valid, reported in fortune form
    ``(x, x + a, x + a + b)``, which keeps C order lexicographic."""
    M = len(P) - 1
    # right[x, a, b] = P(x, min(a + b, M)): windows over rows padded with their last entry
    right = sliding_window_view(np.pad(P, ((0, 0), (0, M)), mode="edge"), M + 1, axis=1)
    a, b = np.ogrid[: M + 1, : M + 1]
    total = a + np.arange(2 * M + 1)  # total[a, s + b] = a + b + s
    fits = total <= M
    for x in range(M + 1):
        n = M - x + 1
        s, w = (x, n) if playable else (0, M + 1)  # playable stakes have b <= M - x - a
        valid = fits[:n, s : s + w] if x else fits[:, :w] & (a > 0)
        index = (x, a[x:], total[:n, s : s + w]) if playable else (x, a[:n], b)
        yield Slab(P[x, :n, None] * P[x:, :w], right[x, :n, :w], valid, index, tag)


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
    return scan_slabs(
        "supermultiplicative",
        _composition_planes(table.array, "supermultiplicative", playable=False),
        tol=tol,
        max_witnesses=max_witnesses,
        skipped=table.M + 1,
        flagged=math.comb(table.M + 2, 3),
    )


def check_supermultiplicative_extended(
    extended: ExtendedTable,
    *,
    span: int = 3,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """The composition inequality for the whole-plane evaluator.

    Scans all integer triples with each of ``x``, ``a``, ``b`` in
    ``[-span, M + span]``, skipping exactly the triples that would evaluate
    the undefined pair ``(0, 0)``: for ``span >= 0`` there are
    ``M + 2 span + 1`` with ``(x, a) = (0, 0)``, plus ``2 span`` each with
    ``(x + a, b) = (0, 0)`` or ``(x, a + b) = (0, 0)`` but not ``x = a = 0``.
    """
    lo, hi = -span, extended.M + span
    # x + a and a + b range over 2 lo .. 2 hi; E[i + o, j + o] = value(i, j)
    o = -min(lo, 2 * lo)
    E = extended.grid(-o, max(hi, 2 * hi))
    a = np.arange(lo, hi + 1)[:, None]
    b = np.arange(lo, hi + 1)[None, :]
    scanned = slice(lo + o, hi + o + 1)
    # right[x + o, a - lo, b - lo] = E[x + o, a + b + o]
    right = sliding_window_view(E, len(a), axis=1)[:, 2 * lo + o : 2 * lo + o + len(a)]
    skipped = 0

    def slabs() -> Iterator[Slab]:
        nonlocal skipped
        for x in range(lo, hi + 1):
            lhs = E[x + o, scanned, None] * E[x + lo + o : x + hi + o + 1, scanned]
            rhs = right[x + o]
            defined = ~(np.isnan(lhs) | np.isnan(rhs))  # nan only at (0, 0)
            skipped += defined.size - int(np.count_nonzero(defined))
            yield Slab(lhs, rhs, defined, (x, a, b), "supermultiplicative-extended")

    report = scan_slabs(
        "supermultiplicative-extended", slabs(), tol=tol, max_witnesses=max_witnesses
    )
    return dataclasses.replace(report, skipped=skipped)


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
    ``supermultiplicative`` term ``(x, a - x, b - a)`` of
    :func:`~redblack.families.table_of_sincov`, so this scan is the playable
    mask of the ``supermultiplicative`` planes, reported in fortune form.
    """
    return scan_slabs(
        "sincov",
        _composition_planes(table_of_sincov(F).array, "sincov", playable=True),
        tol=tol,
        max_witnesses=max_witnesses,
        skipped=F.M + 1,
    )


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
