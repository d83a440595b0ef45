"""Core model of the two-person red-and-black game.

Conventions used throughout the package:

* ``M`` is the total money in play.  Player I's fortune ``x`` lives in
  ``S = {0, 1, ..., M}``; player II always holds the complement ``M - x``.
* A win-probability table gives, for each pair of simultaneous stakes
  ``(a, b)``, the chance that player I wins the stage.  The entry ``(0, 0)``
  is deliberately undefined: with both stakes at zero the stage has no
  winner, and reading it raises :class:`UndefinedEntryError`.  A table
  stores one read-only float64 array with ``nan`` there; nested rows, as in
  JSON, hold ``None`` instead.
* Border rule: a stage against a zero stake is won outright, so
  ``P(a, 0) = 1`` and ``P(0, b) = 0`` for ``a, b >= 1``.
* One stage from interior fortune ``x`` with stakes ``(a, b)`` moves player
  I up to ``x + b`` with probability ``P(a, b)`` (winning the opponent's
  stake) and down to ``x - a`` otherwise.  Fortunes ``0`` and ``M`` absorb.
* Entries with ``a + b > M`` can never be played (the stakes would exceed
  the money on the table) but are still stored; checks that touch them
  flag, rather than fail, the combinations involving them.

Strategies are stationary and deterministic.  Each player's strategy is
indexed by that player's *own* fortune: when player I sits at ``x``, player
II consults its strategy at ``M - x``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import Any, TypeVar

import numpy as np

from .reports import (
    DEFAULT_TOL,
    DEFAULT_WITNESS_CAP,
    CheckReport,
    FairnessReport,
    Slab,
    Witness,
    scan_slabs,
)


class GameError(Exception):
    """Base class for domain errors raised by this package."""


class UndefinedEntryError(GameError):
    """Raised when the undefined stake pair ``(0, 0)`` is evaluated."""


class IllegalBetError(GameError):
    """Raised when a stake exceeds the bettor's fortune (or is negative)."""


class Player(Enum):
    """The two bettors.  Player I's fortune indexes all state vectors."""

    ONE = "I"
    TWO = "II"

    @property
    def other(self) -> "Player":
        return Player.TWO if self is Player.ONE else Player.ONE


def _check_money(M: Any) -> None:
    if not (isinstance(M, int) and M >= 2):
        raise ValueError(f"total money must be an integer >= 2, got {M!r}")


def _whole(value: object, least: int) -> bool:
    """Whether ``value`` is an ``int`` (not a ``bool``) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


_G = TypeVar("_G", bound="_Grid")


@dataclass(frozen=True, init=False, eq=False)
class _Grid:
    """Money ``M`` and one read-only ``(M + 1) x (M + 1)`` float64 ``array``.

    The array holds ``nan`` exactly at the entries :meth:`_undefined` marks
    and a probability in [0, 1] everywhere else.  The constructor takes
    nested rows with ``None`` at the undefined entries.  Grids compare and
    hash by value, so solvers can cache per-table work.
    """

    M: int
    array: np.ndarray

    def __init__(self, M: int, rows: Any) -> None:
        try:
            data = np.array(rows, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"rows must form a grid of probabilities: {exc}") from exc
        self._fill(M, data)
        # a nan read from the rows converts like None, so tell the two apart here
        for x, y in zip(*np.nonzero(self._undefined(M))):
            if rows[x][y] is not None:
                raise ValueError(f"entry ({x}, {y}) must be stored as None")

    @classmethod
    def _of_array(cls: type[_G], M: int, data: np.ndarray) -> _G:
        """Validate and wrap a fresh float array with ``nan`` at the undefined entries."""
        grid = object.__new__(cls)
        grid._fill(M, data)
        return grid

    @staticmethod
    def _undefined(M: int) -> np.ndarray:
        """Mask of the undefined entries: the origin ``(0, 0)`` alone."""
        mask = np.zeros((M + 1, M + 1), dtype=bool)
        mask[0, 0] = True
        return mask

    def _fill(self, M: int, data: np.ndarray) -> None:
        _check_money(M)
        if data.shape != (M + 1, M + 1):
            raise ValueError(f"expected {M + 1} rows of {M + 1} entries, got shape {data.shape}")
        undefined = self._undefined(M)
        misplaced = np.isnan(data) != undefined
        if misplaced.any():
            x, y = np.argwhere(misplaced)[0]
            what = "must be stored as None" if undefined[x, y] else "is None or nan"
            raise ValueError(f"entry ({x}, {y}) {what}")
        outside = (data < 0.0) | (data > 1.0)
        if outside.any():
            x, y = np.argwhere(outside)[0]
            raise ValueError(
                f"probability at ({x}, {y}) must lie in [0, 1], got {data[x, y].item()!r}"
            )
        data[undefined] = np.nan  # one nan bit pattern, so equal grids hash equal
        data.setflags(write=False)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "array", data)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.M == other.M and np.array_equal(self.array, other.array, equal_nan=True)

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.M, (self.array + 0.0).tobytes()))


class WinProbTable(_Grid):
    """Win probabilities for player I over all stake pairs in ``S x S``.

    ``array[a, b]`` is the chance player I wins a stage with stakes
    ``(a, b)``; ``array[0, 0]`` is ``nan``.  Nested rows, as in JSON, hold
    ``None`` there instead.
    """

    def prob(self, a: int, b: int) -> float:
        """The chance player I wins a stage with stakes ``(a, b)``."""
        if not (0 <= a <= self.M and 0 <= b <= self.M):
            raise IndexError(f"stake pair ({a}, {b}) outside 0..{self.M}")
        if a == 0 and b == 0:
            raise UndefinedEntryError("the stage with both stakes zero has no winner")
        return self.array[a, b].item()

    def with_entry(self, a: int, b: int, value: float) -> "WinProbTable":
        """A copy with one entry replaced (the pair ``(0, 0)`` stays undefined)."""
        if a == 0 and b == 0:
            raise UndefinedEntryError("the stake pair (0, 0) cannot be assigned")
        data = self.array.copy()
        data[a, b] = value
        return WinProbTable._of_array(self.M, data)

    @property
    def rows(self) -> list[list[float | None]]:
        """The entries as nested lists, with ``None`` at ``(0, 0)``."""
        rows = self.array.tolist()
        rows[0][0] = None
        return rows

    @property
    def unreachable_entries(self) -> int:
        """Count of stored entries whose stakes exceed the money in play.

        Stake ``a`` has exactly ``a`` partners ``b <= M`` with ``a + b > M``,
        so the count is ``M (M + 1) / 2``.
        """
        return self.M * (self.M + 1) // 2

    def to_json_dict(self) -> dict[str, Any]:
        return {"M": self.M, "entries": self.rows}

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "WinProbTable":
        try:
            M = int(payload["M"])
            entries = payload["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError("table JSON needs an integer 'M' and 'entries'") from exc
        if not isinstance(entries, list):
            raise ValueError("'entries' must be a list of rows")
        return cls(M, entries)

    def to_csv(self) -> str:
        """Rows indexed by player I's stake; the undefined entry renders as NA."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["a\\b"] + [str(b) for b in range(self.M + 1)])
        cells = [list(map(repr, row)) for row in self.array.tolist()]
        cells[0][0] = "NA"
        writer.writerows([str(a), *row] for a, row in enumerate(cells))
        return buffer.getvalue()


@dataclass(frozen=True)
class UnitBetCurve:
    """The map ``x -> P(x, 1)``: winning the stage when the opponent stakes one.

    This single column of the table drives the closed-form values of the
    bold-versus-timid profile and most of the one-variable inequalities.
    """

    M: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_money(self.M)
        if len(self.values) != self.M + 1:
            raise ValueError(f"expected {self.M + 1} values, got {len(self.values)}")
        for x, value in enumerate(self.values):
            if not 0.0 <= float(value) <= 1.0:
                raise ValueError(f"probability at fortune {x} must lie in [0, 1], got {value!r}")

    def __getitem__(self, x: int) -> float:
        return self.values[x]

    def to_json_dict(self) -> dict[str, Any]:
        return {"M": self.M, "curve": list(self.values)}

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "UnitBetCurve":
        try:
            M = payload["M"]
            values = payload["curve"]
        except (KeyError, TypeError) as exc:
            raise ValueError("curve JSON needs keys 'M' and 'curve'") from exc
        return cls(int(M), tuple(float(v) for v in values))


def unit_bet_curve(table: WinProbTable) -> UnitBetCurve:
    """Extract the opponent-stakes-one column ``x -> P(x, 1)``."""
    return UnitBetCurve(table.M, tuple(table.array[:, 1].tolist()))


@dataclass(frozen=True)
class StationaryStrategy:
    """A deterministic stake for every own fortune.

    ``bets[t]`` is the stake at own fortune ``t``; it must satisfy
    ``1 <= bets[t] <= t`` at interior fortunes and be ``0`` at the absorbing
    fortunes ``0`` and ``M``.
    """

    owner: Player
    bets: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.owner, Player):
            raise ValueError(f"owner must be a Player, got {self.owner!r}")
        M = len(self.bets) - 1
        if M < 2:
            raise ValueError("a strategy needs at least fortunes 0, 1, 2")
        for t, bet in enumerate(self.bets):
            if not isinstance(bet, int):
                raise ValueError(f"stake at fortune {t} must be an integer, got {bet!r}")
            if t in (0, M):
                if bet != 0:
                    raise ValueError(f"absorbing fortune {t} must stake 0, got {bet}")
            elif not (1 <= bet <= t):
                raise IllegalBetError(
                    f"stake at fortune {t} must lie in 1..{t}, got {bet}"
                )

    @property
    def M(self) -> int:
        return len(self.bets) - 1

    def bet(self, t: int) -> int:
        return self.bets[t]

    @property
    def is_timid(self) -> bool:
        return all(self.bets[t] == 1 for t in range(1, self.M))

    @property
    def is_bold(self) -> bool:
        return all(self.bets[t] == t for t in range(1, self.M))

    @property
    def label(self) -> str:
        if self.is_bold:  # also at M = 2, where bold and timid coincide
            return "bold"
        if self.is_timid:
            return "timid"
        return "custom"

    def to_json_dict(self) -> dict[str, Any]:
        return {"owner": self.owner.value, "bets": list(self.bets)}


def timid_strategy(owner: Player, M: int) -> StationaryStrategy:
    """Always stake one unit."""
    return StationaryStrategy(owner, tuple(0 if t in (0, M) else 1 for t in range(M + 1)))


def bold_strategy(owner: Player, M: int) -> StationaryStrategy:
    """Always stake the whole fortune."""
    return StationaryStrategy(owner, tuple(0 if t in (0, M) else t for t in range(M + 1)))


@dataclass(frozen=True, slots=True)
class Profile:
    """A pair of strategies, player I's first."""

    first: StationaryStrategy
    second: StationaryStrategy

    def __post_init__(self) -> None:
        if self.first.owner is not Player.ONE or self.second.owner is not Player.TWO:
            raise ValueError("profile needs player I's strategy first, player II's second")
        if self.first.M != self.second.M:
            raise ValueError("both strategies must share the same total money")

    @property
    def M(self) -> int:
        return self.first.M

    @property
    def name(self) -> str:
        return f"{self.first.label}-{self.second.label}"

    @classmethod
    def from_name(cls, name: str, M: int) -> "Profile":
        makers = {"bold": bold_strategy, "timid": timid_strategy}
        try:
            first, second = name.split("-")
            return cls(makers[first](Player.ONE, M), makers[second](Player.TWO, M))
        except (ValueError, KeyError) as exc:
            raise ValueError(
                f"unknown profile {name!r}; expected e.g. 'bold-timid'"
            ) from exc

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "M": self.M,
            "player_I": list(self.first.bets),
            "player_II": list(self.second.bets),
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "Profile":
        try:
            first = tuple(int(v) for v in payload["player_I"])
            second = tuple(int(v) for v in payload["player_II"])
        except (KeyError, TypeError) as exc:
            raise ValueError("profile JSON needs keys 'player_I' and 'player_II'") from exc
        return cls(
            StationaryStrategy(Player.ONE, first),
            StationaryStrategy(Player.TWO, second),
        )


def check_border(
    table: WinProbTable,
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """A stage against a zero stake must be won outright.

    Checks ``P(0, b) = 0`` and ``P(a, 0) = 1`` for ``a, b >= 1`` as
    two-sided equalities: the reported ``lhs`` is the absolute deviation.
    """
    P = table.array
    s = np.arange(table.M + 1)
    slabs = (
        Slab(np.abs(P[0] - 0.0), 0.0, s >= 1, (0, s), "zero-stake-row"),
        Slab(np.abs(P[:, 0] - 1.0), 0.0, s >= 1, (s, 0), "zero-stake-column"),
    )
    return scan_slabs("border", slabs, tol=tol, max_witnesses=max_witnesses)


def check_fairness(
    table: WinProbTable,
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> FairnessReport:
    """Compare every playable entry with the even-odds benchmark ``a/(a+b)``.

    Verdicts: ``fair`` (all equal within ``tol``), ``subfair`` (none above,
    some below), ``superfair`` (none below, some above), else ``neither``.
    An entry is ``below`` when ``P(a, b) < a/(a+b) - tol`` and it is not
    already ``above``.
    """
    a = np.arange(table.M + 1)[:, None]
    b = np.arange(table.M + 1)[None, :]
    value = table.array
    with np.errstate(invalid="ignore"):
        benchmark = a / (a + b)
    playable = (a + b > 0) & (a + b <= table.M)
    bound = benchmark + tol
    above_hit = value > bound
    above = scan_slabs(
        "fairness",
        [Slab(value, benchmark, playable, (a, b), "above-even-odds", bound)],
        tol=tol,
        max_witnesses=max_witnesses,
    )
    # value < benchmark - tol, rounded exactly as -value > -benchmark + tol
    below = scan_slabs(
        "fairness",
        [Slab(-value, -benchmark, playable & ~above_hit, (a, b), "below-even-odds")],
        tol=tol,
        max_witnesses=max_witnesses,
    )
    if above.violations and below.violations:
        verdict = "neither"
    elif above.violations:
        verdict = "superfair"
    elif below.violations:
        verdict = "subfair"
    else:
        verdict = "fair"
    return FairnessReport(
        verdict=verdict,
        above=above.witnesses,
        below=tuple(
            Witness(w.index, -w.lhs, -w.rhs, w.margin, w.constraint) for w in below.witnesses
        ),
        above_count=above.violations,
        below_count=below.violations,
        unreachable_entries=table.unreachable_entries,
        tolerance=tol,
    )
