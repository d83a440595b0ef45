"""Equilibrium enumeration: the per-table state and the per-start rule.

:func:`redblack.solver.enumerate_equilibria` imports this module on its
first call, so a process that never enumerates never compiles it.

:class:`TableEnumeration` keeps, per table, both players' best responses
to every strategy of the other: ``2 (M-1)!`` value vectors, found by
:func:`redblack.solver._best_responses` once from the strategies' stake
rows, with no strategy object built until a certificate reads it.  It
also keeps the interior values of every candidate pair an interior start
solved; a boundary start reads the constants 0 and 1 instead.  At a start
``x0`` write ``vI(i, j)`` and ``vII(i, j)`` for both players' values of player I's
strategy ``i`` against player II's ``j``, ``BI(j)`` for player I's
best-response value against ``j`` and ``BII(i)`` for player II's against
``i``, all at ``x0``.  A pair qualifies when

    (R)   vI(i, j) >= BI(j) - tol   and   vII(i, j) >= BII(i) - tol,

each right side rounded as computed.  Each ``B`` is the value of one pair,
the response against its opponent, solved as that pair is solved, so
``BI(j) <= max_i vI(i, j)`` and ``BII(i) <= max_j vII(i, j)``: every pair
that passes the rule with those maxima in place of ``B``, the exhaustive
rule, passes (R).  Policy iteration stops once no stake gains more than
``_IMPROVE_MARGIN`` per stage, so ``B`` can fall below the maximum by that
much per expected stage of play, and (R) then also accepts the pairs whose
shortfall lies within that of ``tol``.  Over every pair of the shipped
families at ``M <= 7`` the shortfalls are at most 8.3e-16 or at least
4.65e-6, so at the default ``tol`` both rules accept the same pairs.

*The pair bound.*  The players win on disjoint events, player I by
reaching ``M`` and player II by reaching 0, so ``vI(i, j) + vII(i, j) <= 1``
for every pair, whether its chain absorbs or cycles.  Adding the two halves
of (R) gives ``BI(j) + BII(i) <= 1 + 2 tol`` for every pair that passes.
So only the candidates, the pairs with

    BI(j) + BII(i) <= 1 + 2 tol + eta,

``eta`` being :data:`SUM_SLACK`, are solved, once per table, and tested by
(R).  The steps read the same ``B`` as (R) does, so policy iteration's
stopping margin needs no slack.  A row holds a candidate exactly when
``1 - BII(i) >= min_j BI(j) - 2 tol - eta``, and a column exactly when
``BI(j) <= max_i (1 - BII(i)) + 2 tol + eta``: where every chain absorbs,
the game at ``x0`` is constant-sum and these are the maximin and minimax
strategies that Shapley's (1953) saddle-point argument keeps.

In floating point let ``e`` bound how far the computed ``vI + vII`` exceeds
1 over all pairs.  For ``0 <= tol <= 1`` every quantity computed lies in
``[-1, 4)``, and the roundings (the two subtractions of (R), the sum
``BI + BII`` and the two additions of the bound) add at most eight units of
``2**-53``.  So the bound is sound whenever ``e`` stays below ``eta`` less
those eight units; over every pair of the shipped families at ``M <= 7``,
``e`` is at most 1.4e-15, and ``eta = 1e-12`` exceeds ``e`` and the
rounding by a factor of over 400.  For ``tol > 1`` the bound admits every
pair, as it exceeds 3 while ``BI + BII <= 2``.  A negative or nan ``tol``
admits no pair, and :func:`redblack.solver.enumerate_equilibria` returns
before any of this.  So no pair that passes (R) is pruned, nor any that
passes the exhaustive rule.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from .game import Player, Profile, StationaryStrategy, WinProbTable
from .solver import _BLOCK_PAIRS, EquilibriumCertificate, _best_responses, _pair_values

# Widens the pair bound past 1 + 2 * tol (module docstring): it covers how
# far q + t exceeds 1 (at most 1.4e-15 over every pair of the shipped
# families at M <= 7) and the rounding of the bound's own arithmetic.
SUM_SLACK = 1e-12


class Strategies:
    """Every stationary deterministic strategy of one player, in
    lexicographic stake order: ``rows[k]`` holds strategy ``k``'s stakes
    (see :func:`redblack.solver._stake_rows`).  Reading ``self[k]`` builds
    its :class:`~redblack.game.StationaryStrategy` with the checked
    constructor the first time, and returns that object from then on."""

    def __init__(self, owner: Player, rows: np.ndarray) -> None:
        self.owner, self.rows = owner, rows
        self.built: dict[int, StationaryStrategy] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> StationaryStrategy:
        k = int(k)
        if k not in self.built:
            self.built[k] = StationaryStrategy(self.owner, tuple(self.rows[k].tolist()))
        return self.built[k]


@lru_cache(maxsize=1)
def strategies(M: int) -> tuple[Strategies, Strategies]:
    """Every strategy of player I, then of player II, for the last ``M``.

    Both share one array of stake rows, the order of
    :func:`redblack.solver.all_strategies`: the stake at fortune ``x``
    runs over ``1..x`` and the last fortune's varies fastest.
    """
    rows = np.zeros((math.factorial(M - 1), M + 1), dtype=np.int64)
    rows[:, 1:M] = np.column_stack(np.unravel_index(np.arange(len(rows)), range(1, M))) + 1
    return Strategies(Player.ONE, rows), Strategies(Player.TWO, rows)


@dataclass(frozen=True, eq=False, repr=False)
class Equilibria(Sequence[EquilibriumCertificate]):
    """The equilibria of one start, kept as arrays and certified on access.

    Pair ``keys[s]``, key ``i * len(seconds) + j`` for ``firsts[i]`` against
    ``seconds[j]`` (see :class:`Strategies`), is worth ``values[s, 0]`` to
    player I and ``values[s, 1]`` to player II at ``x0``; the equilibria are
    the pairs at the ascending positions ``at``.  An interior start's
    ``keys`` are the table's kept keys and its ``values`` a view of the kept
    values at ``x0`` (see :class:`TableEnumeration`), shared, not copied: a
    set that outlives a later start that kept fresh pairs holds the older
    arrays.  A boundary start's are its candidates and the broadcast
    constants.  Reading a pair builds its certificate with the checked
    ``Profile`` and ``EquilibriumCertificate`` constructors, and each
    strategy the first time any certificate reads it, so a caller that
    counts or samples pays for what it reads, and one that reads every pair
    pays for every certificate.  A slice is a tuple.  The set equals a
    tuple or another set of the same certificates, and prints as that
    tuple.
    """

    x0: int
    firsts: Strategies
    seconds: Strategies
    keys: np.ndarray
    values: np.ndarray
    at: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """Player I's strategy index of each equilibrium."""
        return self.keys[self.at] // len(self.seconds)

    @property
    def cols(self) -> np.ndarray:
        """Player II's strategy index of each equilibrium."""
        return self.keys[self.at] % len(self.seconds)

    @property
    def value_I(self) -> np.ndarray:
        return self.values[self.at, 0]

    @property
    def value_II(self) -> np.ndarray:
        return self.values[self.at, 1]

    def __len__(self) -> int:
        return len(self.at)

    def __getitem__(
        self, index: int | slice
    ) -> EquilibriumCertificate | tuple[EquilibriumCertificate, ...]:
        at = range(len(self))[index]
        if isinstance(at, range):
            return tuple(self[k] for k in at)
        s = self.at[at]
        i, j = divmod(int(self.keys[s]), len(self.seconds))
        return EquilibriumCertificate(
            Profile(self.firsts[i], self.seconds[j]), self.x0,
            float(self.values[s, 0]), float(self.values[s, 1]), True, "enumeration",
            "stationary-deterministic",
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, Equilibria)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))

    def to_json_dicts(self) -> list[dict[str, Any]]:
        """``[c.to_json_dict() for c in self]``, written from the arrays and
        the stake rows, building no strategy: each strategy's stake list is
        built once per call and shared by every dict that holds it."""
        rows, cols = (a.tolist() for a in np.divmod(self.keys[self.at], len(self.seconds)))
        stakes_I = {i: self.firsts.rows[i].tolist() for i in set(rows)}
        stakes_II = {j: self.seconds.rows[j].tolist() for j in set(cols)}
        return [
            {
                "profile": {
                    "M": len(stakes_I[i]) - 1, "player_I": stakes_I[i], "player_II": stakes_II[j]
                },
                "x0": self.x0,
                "value_I": value_I,
                "value_II": value_II,
                "equilibrium": True,
                "method": "enumeration",
                "coverage": "stationary-deterministic",
                "deviation": None,
                "reports": [],
            }
            for i, j, value_I, value_II in zip(rows, cols, self.value_I.tolist(), self.value_II.tolist())
        ]


class TableEnumeration:
    """What enumeration keeps of one table between starts.

    Built cold once per table: every strategy of each player (shared by the
    tables of one ``M``, see :func:`strategies`); ``best_I[j]``, player I's
    best-response values at every fortune against ``seconds[j]``, and
    ``best_II[i]``, player II's against ``firsts[i]``.  Then, as the interior
    starts ask for them, the values of every candidate pair solved so far:
    ``keys`` and ``values``, the pair's key ``i * len(seconds) + j`` and both
    players' values at the interior fortunes ``1..M-1``, ``8 + 16 (M - 1)``
    bytes a pair (see :meth:`solved`).  Kept arrays are never written once
    kept, so each start's :class:`Equilibria` reads them in place.  A
    boundary start solves and keeps nothing: every pair is worth 0 to the
    player who has lost and 1 to the other there.
    """

    def __init__(self, table: WinProbTable) -> None:
        self.firsts, self.seconds = strategies(table.M)
        self.best_I = _best_responses(table, Player.ONE, self.seconds.rows)[1]
        self.best_II = _best_responses(table, Player.TWO, self.firsts.rows)[1]
        self.keys = np.empty(0, dtype=np.int64)
        self.values = np.empty((0, 2, table.M - 1))

    def equilibria(self, table: WinProbTable, x0: int, tol: float) -> Equilibria:
        """Every pair that passes (R) at ``x0``, in row-major order, for a
        ``tol >= 0``: of the candidates of the pair bound (module docstring).
        Besides the kept state the call holds a mask of the candidates, their
        positions while :meth:`apply_rule` runs, and then the result's."""
        bound = 1.0 + 2.0 * tol + SUM_SLACK
        if 0 < x0 < table.M:
            chosen = self.solved(table, x0, bound)
            keys, values = self.keys, self.values[:, :, x0 - 1]
        else:
            keys = self.candidates(x0, bound)
            chosen = np.ones(len(keys), dtype=bool)
            values = np.broadcast_to((float(x0 == table.M), float(x0 == 0)), (len(keys), 2))
        self.apply_rule(keys, values, chosen, x0, tol)
        return Equilibria(x0, self.firsts, self.seconds, keys, values, np.flatnonzero(chosen))

    def apply_rule(
        self, keys: np.ndarray, values: np.ndarray, chosen: np.ndarray, x0: int, tol: float
    ) -> None:
        """Clear in ``chosen`` every pair that fails (R) at ``x0``, a block of
        ``_BLOCK_PAIRS`` chosen pairs at a time: pair ``keys[s]`` is worth
        ``values[s]``."""
        lowest_I, lowest_II = self.best_I[:, x0] - tol, self.best_II[:, x0] - tol
        value_I, value_II = values.T
        slots = np.flatnonzero(chosen)
        for lo in range(0, len(slots), _BLOCK_PAIRS):
            at = slots[lo : lo + _BLOCK_PAIRS]
            i, j = np.divmod(keys[at], len(self.seconds))
            chosen[at] = (value_I[at] >= lowest_I[j]) & (value_II[at] >= lowest_II[i])

    def candidates(self, x0: int, bound: float) -> np.ndarray:
        """The ascending keys of the pairs with ``BI(j) + BII(i) <= bound``
        at ``x0``."""
        best_I, best_II = self.best_I[:, x0], self.best_II[:, x0]
        # Exactly the rows and the columns that hold a candidate, as a rounded
        # sum is monotone in each term; the mask spans these, not every pair.
        rows = np.flatnonzero(best_II + best_I.min() <= bound)
        cols = np.flatnonzero(best_I + best_II.min() <= bound)
        at = np.flatnonzero(np.add.outer(best_II[rows], best_I[cols]) <= bound)
        keys = rows[at // len(cols)]
        keys *= len(self.seconds)
        at %= len(cols)
        keys += cols[at]
        return keys

    def solved(self, table: WinProbTable, x0: int, bound: float) -> np.ndarray:
        """Which of the kept pairs are the candidates of the interior start
        ``x0``, once every one is kept.

        Only the candidates no earlier call solved are solved, and kept:
        ``keys`` stays sorted, ``values[n]`` holding both players' values at
        the interior fortunes of pair ``keys[n]``.  The merged arrays are
        allocated once, the kept rows move into them, and
        :func:`redblack.solver._pair_values` solves the fresh pairs a block at
        a time straight into their slots, so the call holds the old and the
        merged arrays, the fresh pairs' positions, two masks and one block.
        The state changes only once every block has solved.
        """
        keys = self.candidates(x0, bound)
        slots = np.searchsorted(self.keys, keys)
        fresh = np.ones(len(keys), dtype=bool)
        if len(self.keys):
            fresh = self.keys.take(slots, mode="clip") != keys
        # Each key lands in the merged order past its insertion point among
        # the kept keys by the number of fresh keys before it (summed in
        # place: a cumsum of the mask itself would first cast a full copy).
        ahead = fresh.astype(np.int64)
        slots += np.cumsum(ahead, out=ahead)
        slots -= fresh
        del ahead
        chosen = np.zeros(len(self.keys) + np.count_nonzero(fresh), dtype=bool)
        chosen[slots] = True
        if fresh.any():
            kept = np.ones(len(chosen), dtype=bool)
            kept[slots] = ~fresh
            del slots, fresh
            merged = np.empty(len(kept), dtype=np.int64)
            merged[kept] = self.keys
            merged[chosen] = keys
            del keys
            at = np.flatnonzero(~kept)
            values = np.empty((len(kept), *self.values.shape[1:]))
            values[kept] = self.values
            del kept
            _pair_values(table, self.firsts.rows, self.seconds.rows, merged, values, at)
            self.keys, self.values = merged, values
        return chosen


@lru_cache(maxsize=1)
def table_enumeration(table: WinProbTable) -> TableEnumeration:
    """The enumeration state of the last table."""
    return TableEnumeration(table)
