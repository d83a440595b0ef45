"""Constructors for win-probability tables and their two-index transforms.

Three construction routes are provided:

* ratio families: a collection of gauges ``f`` with ``f(0) = 0`` and
  ``f(t) > 0`` for ``t >= 1`` induces the table
  ``P(a, b) = min_f f(a) / f(a + b)`` capped at one (the cap is the
  always-admissible unit-step gauge).  :func:`power_family` is the
  single-gauge case ``f(t) = t**p``.
* explicit formulas: :func:`exp_difference_table` tabulates
  ``P(a, b) = 1 - exp(b - a)`` for ``1 <= b <= a`` and zero when the
  opponent overstakes, a table that is neither sub- nor super-fair.
* decay curves: :func:`curve_from_decay` builds the one-variable curve
  ``x -> 1 - k(x) * exp(-c * x)`` from a nonincreasing ``k`` into [0, 1];
  when ``k`` is submultiplicative the curve satisfies the bold-play
  inequality (see :func:`redblack.checks.check_bold_inequality`).

Each builder tabulates its one-variable function once, by the Python call
that defines it, and fills the table's one float64 array by exactly rounded
division, subtraction and minimum, so each entry is its formula's to the
bit.  The pair-of-fortunes form of a table, a gather on that array, and the
whole-plane extension used by the composition inequality live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .game import UndefinedEntryError, UnitBetCurve, WinProbTable, _Grid, _check_money
from .reports import (
    DEFAULT_TOL,
    DEFAULT_WITNESS_CAP,
    CheckReport,
    Slab,
    scan_slabs,
)


@dataclass(frozen=True)
class FamilyMember:
    """A gauge ``f`` with ``f(0) = 0`` and ``f(t) > 0`` for ``t >= 1``.

    Kinds: ``power`` is ``t**p`` with ``p >= 1``; ``exp`` is ``exp(m * t)``
    for ``t >= 1`` (and 0 at ``t = 0``) with ``m > 0``; ``explicit`` holds
    tabulated values.  Ratio tables over money ``M`` evaluate gauges up to
    ``2 * M``, so explicit members must cover at least that range.
    """

    kind: str
    p: float | None = None
    m: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "power":
            if self.p is None or not (math.isfinite(self.p) and self.p >= 1.0):
                raise ValueError(f"power gauge needs exponent p >= 1, got {self.p!r}")
        elif self.kind == "exp":
            if self.m is None or not (math.isfinite(self.m) and self.m > 0.0):
                raise ValueError(f"exponential gauge needs rate m > 0, got {self.m!r}")
        elif self.kind == "explicit":
            if self.values is None or len(self.values) < 2:
                raise ValueError("explicit gauge needs values for at least t = 0, 1")
            if self.values[0] != 0.0:
                raise ValueError("a gauge must vanish at t = 0")
            if any(not (math.isfinite(v) and v > 0.0) for v in self.values[1:]):
                raise ValueError("a gauge must be finite and positive for t >= 1")
        else:
            raise ValueError(f"unknown gauge kind {self.kind!r}")

    def value(self, t: int) -> float:
        if t < 0:
            raise ValueError(f"gauges are defined for t >= 0, got {t}")
        try:
            if self.kind == "power":
                return float(t) ** self.p
            if self.kind == "exp":
                return 0.0 if t == 0 else math.exp(self.m * t)
        except OverflowError:
            raise ValueError(f"gauge {self.to_json_dict()} overflows float64 at t = {t}") from None
        assert self.values is not None
        if t >= len(self.values):
            raise ValueError(
                f"explicit gauge tabulated only through t = {len(self.values) - 1}, "
                f"needed t = {t}; ratio tables over money M evaluate up to 2 * M"
            )
        return self.values[t]

    def to_json_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind}
        if self.kind == "power":
            payload["p"] = self.p
        elif self.kind == "exp":
            payload["m"] = self.m
        else:
            payload["values"] = list(self.values or ())
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "FamilyMember":
        kind = payload.get("kind")
        if kind == "power":
            return power_member(float(payload["p"]))
        if kind == "exp":
            return exp_member(float(payload["m"]))
        if kind == "explicit":
            return explicit_member(tuple(float(v) for v in payload["values"]))
        raise ValueError(f"unknown gauge kind {kind!r}")


def power_member(p: float) -> FamilyMember:
    return FamilyMember("power", p=float(p))


def exp_member(m: float) -> FamilyMember:
    return FamilyMember("exp", m=float(m))


def explicit_member(values: Sequence[float]) -> FamilyMember:
    return FamilyMember("explicit", values=tuple(float(v) for v in values))


def power_family(M: int, p: float) -> WinProbTable:
    """The one-gauge ratio table ``P(a, b) = a**p / (a + b)**p``, ``p >= 1``.

    Entries with ``a + b > M`` are filled by the same formula.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"power family needs exponent p >= 1, got {p!r}")
    return family_infimum(M, (power_member(p),))


def family_infimum(M: int, members: Sequence[FamilyMember]) -> WinProbTable:
    """The table ``P(a, b) = min_f f(a) / f(a + b)`` over the given gauges.

    The unit-step gauge (ratio one for ``a >= 1``) is always adjoined, so
    the result never exceeds one; ``P(0, b) = 0`` because gauges vanish at
    zero.  Explicit gauges must be tabulated through ``2 * M``.
    """
    members = tuple(members)
    if not members:
        raise ValueError("family needs at least one gauge")
    _check_money(M)
    a, b = np.ogrid[: M + 1, : M + 1]
    P = np.ones((M + 1, M + 1))
    for f in members:
        g = np.array([f.value(t) for t in range(2 * M + 1)])
        with np.errstate(invalid="ignore"):  # 0 / 0 at the undefined origin
            P = np.minimum(P, g[a] / g[a + b])
    return WinProbTable._of_array(M, P)


def min_exp_table(M: int, m: float) -> WinProbTable:
    """``P(a, b) = min(a / (a + b), exp(-m * b))`` for ``a, b >= 1``.

    The infimum of the linear-share gauge and the rate-``m`` exponential
    gauge: ``exp(m * a) / exp(m * (a + b)) = exp(-m * b)``.
    """
    return family_infimum(M, (power_member(1.0), exp_member(m)))


def exp_difference_table(M: int) -> WinProbTable:
    """``P(a, b) = 1 - exp(b - a)`` when ``1 <= b <= a``, zero when ``b > a``.

    Zero on the diagonal and whenever the opponent overstakes; entries with
    ``a + b > M`` are filled by the same formula.
    """
    _check_money(M)
    drop = np.array([math.exp(-d) for d in range(M + 1)])
    a, b = np.ogrid[: M + 1, : M + 1]
    P = np.where(b <= a, 1.0 - drop[abs(a - b)], 0.0)
    P[1:, 0] = 1.0
    P[0, 0] = np.nan
    return WinProbTable._of_array(M, P)


@dataclass(frozen=True)
class DecayParams:
    """A nonincreasing factor ``k`` on ``{0..M}`` into [0, 1] and a rate ``c >= 0``."""

    k: tuple[float, ...]
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError(f"decay rate must satisfy c >= 0, got {self.c!r}")
        if len(self.k) < 3:
            raise ValueError("factor k needs values for at least fortunes 0, 1, 2")
        for t, value in enumerate(self.k):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"factor k({t}) must lie in [0, 1], got {value!r}")
            if t and value > self.k[t - 1]:
                raise ValueError(
                    f"factor k must be nonincreasing; k({t}) = {value!r} "
                    f"exceeds k({t - 1}) = {self.k[t - 1]!r}"
                )

    @property
    def M(self) -> int:
        return len(self.k) - 1

    @classmethod
    def sample(cls, func: Callable[[int], float], c: float, M: int) -> "DecayParams":
        """Tabulate ``func`` on ``{0..M}``."""
        return cls(tuple(float(func(t)) for t in range(M + 1)), float(c))


def curve_from_decay(params: DecayParams) -> UnitBetCurve:
    """The curve ``x -> 1 - k(x) * exp(-c * x)`` with the zero fortune forced to 0.

    Because ``k`` is nonincreasing into [0, 1] and ``exp(-c * x)`` is
    nonincreasing, the curve is nondecreasing on ``x >= 1``.
    """
    values = [0.0]
    for x in range(1, params.M + 1):
        values.append(1.0 - params.k[x] * math.exp(-params.c * x))
    return UnitBetCurve(params.M, tuple(values))


def check_submultiplicative(
    k: Sequence[float] | Callable[[int], float],
    M: int,
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """Check ``k(t + y) <= k(t) * k(y)`` for ``t, y >= 0`` with ``t + y <= M - 1``.

    This is the hypothesis under which a decay curve satisfies the
    bold-play inequality.  ``k`` may be a sequence (indexed by fortune) or
    a callable; values through ``M - 1`` are used.
    """
    if callable(k):
        values = [float(k(t)) for t in range(M)]
    else:
        if len(k) < M:
            raise ValueError(f"need k on 0..{M - 1}, got only {len(k)} values")
        values = [float(v) for v in k[:M]]
    kv = np.array(values, dtype=np.float64)
    t = np.arange(M)[:, None]
    y = np.arange(M)[None, :]
    slab = Slab(
        kv[np.minimum(t + y, M - 1)], kv[t] * kv[y], t + y <= M - 1, (t, y), "submultiplicative"
    )
    return scan_slabs("submultiplicative", [slab], tol=tol, max_witnesses=max_witnesses)


class SincovTable(_Grid):
    """The pair-of-fortunes form ``F(x, y) = P(x, y - x)`` on ``0 <= x <= y <= M``.

    ``F(x, y)`` is the chance the stage carries player I's stake from ``x``
    up to ``y``.  Entries with ``y < x`` and the pair ``(0, 0)`` are
    undefined: ``nan`` in ``array``, ``None`` in nested rows.
    """

    @staticmethod
    def _undefined(M: int) -> np.ndarray:
        mask = np.tri(M + 1, k=-1, dtype=bool)  # y < x
        mask[0, 0] = True
        return mask

    def defined(self, x: int, y: int) -> bool:
        return 0 <= x <= y <= self.M and (x, y) != (0, 0)

    def value(self, x: int, y: int) -> float:
        if not (0 <= x <= self.M and 0 <= y <= self.M):
            raise IndexError(f"fortune pair ({x}, {y}) outside 0..{self.M}")
        if not self.defined(x, y):
            raise UndefinedEntryError(f"entry ({x}, {y}) is undefined")
        return self.array[x, y].item()


def sincov_of(table: WinProbTable) -> SincovTable:
    """Reindex stakes to fortunes: ``F(x, y) = P(x, y - x)``."""
    M = table.M
    F = np.full((M + 1, M + 1), np.nan)
    for x in range(M + 1):  # row x is P's row x shifted right by x
        F[x, x:] = table.array[x, : M + 1 - x]
    return SincovTable._of_array(M, F)


def table_of_sincov(F: SincovTable) -> WinProbTable:
    """Invert :func:`sincov_of`; entries with ``a + b > M`` are filled with one.

    On playable stakes this is exact: ``P(a, b) = F(a, a + b)``.
    """
    a, b = np.ogrid[: F.M + 1, : F.M + 1]
    P = np.where(a + b > F.M, 1.0, F.array[a, np.minimum(a + b, F.M)])
    return WinProbTable._of_array(F.M, P)


@dataclass(frozen=True)
class ExtendedTable:
    """Whole-plane evaluator: zero for negative stakes, one beyond total money.

    The override to one applies to every pair with ``x + y > M`` even when
    the base table stores a different (unplayable) entry there.  The pair
    ``(0, 0)`` stays undefined.
    """

    base: WinProbTable

    @property
    def M(self) -> int:
        return self.base.M

    def value(self, x: int, y: int) -> float:
        if x < 0 or y < 0:
            return 0.0
        if x + y > self.base.M:
            return 1.0
        return self.base.prob(x, y)

    def grid(self, lo: int, hi: int) -> np.ndarray:
        """``value(x, y)`` for ``x, y`` in ``lo..hi`` as an array indexed by
        ``(x - lo, y - lo)``, with ``nan`` at the undefined pair ``(0, 0)``."""
        x = np.arange(lo, hi + 1)[:, None]
        y = np.arange(lo, hi + 1)[None, :]
        M = self.base.M
        inside = self.base.array[np.clip(x, 0, M), np.clip(y, 0, M)]
        return np.where((x < 0) | (y < 0), 0.0, np.where(x + y > M, 1.0, inside))


def extend_table(table: WinProbTable) -> ExtendedTable:
    return ExtendedTable(table)
