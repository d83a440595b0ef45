"""Core model of the two-person red-and-black game.

Conventions used throughout the package:

* ``M`` is the total money in play.  Player I's fortune ``x`` lives in
  ``S = {0, 1, ..., M}``; player II always holds the complement ``M - x``.
* A win-probability table gives, for each pair of simultaneous stakes
  ``(a, b)``, the chance that player I wins the stage.  The entry ``(0, 0)``
  is deliberately undefined: with both stakes at zero the stage has no
  winner, and reading it raises :class:`UndefinedEntryError`.
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
from functools import cached_property
from typing import Any, Callable, Iterator

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


def _validate_probability(value: Any, where: str) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"probability {where} must lie in [0, 1], got {value!r}")
    return value


def _nan_array(rows: tuple[tuple[float | None, ...], ...]) -> np.ndarray:
    """Read-only float array of nested rows, with ``nan`` for ``None``."""
    data = np.array([[np.nan if v is None else v for v in row] for row in rows], dtype=np.float64)
    data.setflags(write=False)
    return data


@dataclass(frozen=True)
class WinProbTable:
    """Win probabilities for player I over all stake pairs in ``S x S``.

    ``rows[a][b]`` is the chance player I wins a stage with stakes
    ``(a, b)``.  ``rows[0][0]`` must be ``None``; every other entry must be
    a probability.  The table is hashable (rows are nested tuples), so
    solvers can cache per-table work.
    """

    M: int
    rows: tuple[tuple[float | None, ...], ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.M, int) and self.M >= 2):
            raise ValueError(f"total money must be an integer >= 2, got {self.M!r}")
        if len(self.rows) != self.M + 1:
            raise ValueError(f"expected {self.M + 1} rows, got {len(self.rows)}")
        for a, row in enumerate(self.rows):
            if len(row) != self.M + 1:
                raise ValueError(f"row {a} has {len(row)} entries, expected {self.M + 1}")
            for b, value in enumerate(row):
                if a == 0 and b == 0:
                    if value is not None:
                        raise ValueError("the stake pair (0, 0) must be stored as None")
                    continue
                if value is None:
                    raise ValueError(f"entry ({a}, {b}) is missing")
                _validate_probability(value, f"at ({a}, {b})")

    @classmethod
    def build(cls, M: int, entry: Callable[[int, int], float]) -> "WinProbTable":
        """Tabulate ``entry(a, b)`` over all defined stake pairs."""
        rows = tuple(
            tuple(
                None if (a, b) == (0, 0) else float(entry(a, b))
                for b in range(M + 1)
            )
            for a in range(M + 1)
        )
        return cls(M, rows)

    def prob(self, a: int, b: int) -> float:
        """The chance player I wins a stage with stakes ``(a, b)``."""
        if not (0 <= a <= self.M and 0 <= b <= self.M):
            raise IndexError(f"stake pair ({a}, {b}) outside 0..{self.M}")
        if a == 0 and b == 0:
            raise UndefinedEntryError("the stage with both stakes zero has no winner")
        value = self.rows[a][b]
        assert value is not None
        return value

    def with_entry(self, a: int, b: int, value: float) -> "WinProbTable":
        """A copy with one entry replaced (the pair ``(0, 0)`` stays undefined)."""
        if a == 0 and b == 0:
            raise UndefinedEntryError("the stake pair (0, 0) cannot be assigned")
        rows = [list(row) for row in self.rows]
        rows[a][b] = _validate_probability(value, f"at ({a}, {b})")
        return WinProbTable(self.M, tuple(tuple(row) for row in rows))

    @cached_property
    def array(self) -> np.ndarray:
        """Read-only float array of the table with ``nan`` at ``(0, 0)``."""
        return _nan_array(self.rows)

    @property
    def unreachable_entries(self) -> int:
        """Count of stored entries whose stakes exceed the money in play.

        Stake ``a`` has exactly ``a`` partners ``b <= M`` with ``a + b > M``,
        so the count is ``M (M + 1) / 2``.
        """
        return self.M * (self.M + 1) // 2

    def to_json_dict(self) -> dict[str, Any]:
        return {"M": self.M, "entries": [list(row) for row in self.rows]}

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "WinProbTable":
        try:
            M = payload["M"]
            entries = payload["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError("table JSON needs keys 'M' and 'entries'") from exc
        if not isinstance(entries, list):
            raise ValueError("'entries' must be a list of rows")
        rows = tuple(
            tuple(None if v is None else float(v) for v in row) for row in entries
        )
        return cls(int(M), rows)

    def to_csv(self) -> str:
        """Rows indexed by player I's stake; the undefined entry renders as NA."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["a\\b"] + [str(b) for b in range(self.M + 1)])
        for a, row in enumerate(self.rows):
            writer.writerow([str(a)] + ["NA" if v is None else repr(v) for v in row])
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
        if not (isinstance(self.M, int) and self.M >= 2):
            raise ValueError(f"total money must be an integer >= 2, got {self.M!r}")
        if len(self.values) != self.M + 1:
            raise ValueError(f"expected {self.M + 1} values, got {len(self.values)}")
        for x, value in enumerate(self.values):
            _validate_probability(value, f"at fortune {x}")

    def __getitem__(self, x: int) -> float:
        return self.values[x]

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

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
    return UnitBetCurve(table.M, tuple(table.prob(x, 1) for x in range(table.M + 1)))


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
        if self.is_bold and self.is_timid:
            return "bold"  # only at M = 2, where the two coincide
        if self.is_bold:
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


@dataclass(frozen=True)
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
    above_hit = value > benchmark + tol
    above = scan_slabs(
        "fairness",
        [Slab(value, benchmark, playable, (a, b), "above-even-odds")],
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
