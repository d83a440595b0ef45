"""Equilibrium enumeration: the per-table state and the per-start rule.

:func:`redblack.solver.enumerate_equilibria` imports this module on its
first call, so a process that never enumerates never compiles it.

:class:`TableEnumeration` keeps, per table, both players' best responses
to every strategy of the other: ``2 (M-1)!`` value vectors, found by
:func:`redblack.solver._best_responses` once.  At a start ``x0``
write ``vI(i, j)`` and ``vII(i, j)`` for both players' values of player I's
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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from .game import Player, Profile, StationaryStrategy, WinProbTable
from .solver import (
    EquilibriumCertificate,
    _best_responses,
    _pair_values,
    _stake_rows,
    all_strategies,
)

# Widens the pair bound past 1 + 2 * tol (module docstring): it covers how
# far q + t exceeds 1 (at most 1.4e-15 over every pair of the shipped
# families at M <= 7) and the rounding of the bound's own arithmetic.
SUM_SLACK = 1e-12


@lru_cache(maxsize=1)
def strategies(
    M: int,
) -> tuple[tuple[StationaryStrategy, ...], tuple[StationaryStrategy, ...], np.ndarray, np.ndarray]:
    """Every strategy of player I, then of player II, and their stake rows,
    for the last ``M``."""
    firsts = tuple(all_strategies(Player.ONE, M))
    seconds = tuple(all_strategies(Player.TWO, M))
    return firsts, seconds, _stake_rows(firsts), _stake_rows(seconds)


@dataclass(frozen=True, eq=False, repr=False)
class Equilibria(Sequence[EquilibriumCertificate]):
    """The equilibria of one start, kept as arrays and certified on access.

    Pair ``k`` is ``firsts[rows[k]]`` against ``seconds[cols[k]]``, worth
    ``value_I[k]`` to player I and ``value_II[k]`` to player II at ``x0``.
    Reading a pair builds its certificate with the checked ``Profile`` and
    ``EquilibriumCertificate`` constructors, so a caller that counts or
    samples pays for what it reads, and one that reads every pair pays for
    every certificate.  A slice is a tuple.  The set equals a tuple or
    another set of the same certificates, and prints as that tuple.
    """

    x0: int
    firsts: tuple[StationaryStrategy, ...]
    seconds: tuple[StationaryStrategy, ...]
    rows: np.ndarray
    cols: np.ndarray
    value_I: np.ndarray
    value_II: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(
        self, index: int | slice
    ) -> EquilibriumCertificate | tuple[EquilibriumCertificate, ...]:
        at = range(len(self))[index]
        if isinstance(at, range):
            return tuple(self[k] for k in at)
        return EquilibriumCertificate(
            Profile(self.firsts[self.rows[at]], self.seconds[self.cols[at]]), self.x0,
            float(self.value_I[at]), float(self.value_II[at]), True, "enumeration",
            "stationary-deterministic",
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, Equilibria)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))

    def to_json_dicts(self) -> list[dict[str, Any]]:
        """``[c.to_json_dict() for c in self]``, written from the arrays: each
        strategy's stake list is built once per call and shared by every
        dict that holds it."""
        rows, cols = self.rows.tolist(), self.cols.tolist()
        stakes_I = {i: list(self.firsts[i].bets) for i in set(rows)}
        stakes_II = {j: list(self.seconds[j].bets) for j in set(cols)}
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
    ``best_II[i]``, player II's against ``firsts[i]``.  Then, as the starts
    ask for them, the values of every candidate pair solved so far: ``keys``
    and ``values``, 8 and ``16 (M + 1)`` bytes a pair (see :meth:`solved`).
    """

    def __init__(self, table: WinProbTable) -> None:
        self.firsts, self.seconds, self.first_rows, self.second_rows = strategies(table.M)
        self.best_I = _best_responses(table, Player.ONE, self.second_rows)[1]
        self.best_II = _best_responses(table, Player.TWO, self.first_rows)[1]
        self.keys = np.empty(0, dtype=np.int64)
        self.values = np.empty((0, 2, table.M + 1))

    def equilibria(self, table: WinProbTable, x0: int, tol: float) -> Equilibria:
        """Every pair that passes (R) at ``x0``, in row-major order, for a
        ``tol >= 0``: of the candidates of the pair bound (module docstring)."""
        best_I, best_II = self.best_I[:, x0], self.best_II[:, x0]
        bound = 1.0 + 2.0 * tol + SUM_SLACK
        # Exactly the rows and the columns that hold a candidate, as a rounded
        # sum is monotone in each term; the mask spans these, not every pair.
        rows = np.flatnonzero(best_II + best_I.min() <= bound)
        cols = np.flatnonzero(best_I + best_II.min() <= bound)
        r, c = np.nonzero(np.add.outer(best_II[rows], best_I[cols]) <= bound)
        rows, cols = rows[r], cols[c]
        vI, vII = self.solved(table, rows, cols, x0)
        # Rule (R): within tol of each player's best response to the other.
        hit = (vI >= best_I[cols] - tol) & (vII >= best_II[rows] - tol)
        return Equilibria(x0, self.firsts, self.seconds, rows[hit], cols[hit], vI[hit], vII[hit])

    def solved(
        self, table: WinProbTable, rows: np.ndarray, cols: np.ndarray, x0: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both players' values at ``x0`` of pair ``k``, ``firsts[rows[k]]``
        against ``seconds[cols[k]]``, for pairs in row-major order.

        Only the pairs no earlier call solved are solved, and kept: ``keys``
        stays sorted, ``values[n]`` holding both players' values at every
        fortune of pair ``keys[n]``.  The merged ``values`` is allocated once,
        the kept rows move into it, and :func:`redblack.solver._pair_values`
        solves the fresh pairs a block at a time straight into their slots,
        so the call holds the old and the merged arrays and one block.
        """
        keys = rows * len(self.seconds) + cols
        slots = np.searchsorted(self.keys, keys)
        fresh = np.ones(len(keys), dtype=bool)
        if len(self.keys):
            fresh = self.keys.take(slots, mode="clip") != keys
        if fresh.any():
            # The fresh keys ascend, so the n-th lands n places past its
            # insertion point among the kept ones.
            slots = slots[fresh]
            slots += np.arange(len(slots))
            kept = np.ones(len(self.keys) + len(slots), dtype=bool)
            kept[slots] = False
            values = np.empty((len(kept), *self.values.shape[1:]))
            values[kept] = self.values
            _pair_values(
                table, self.first_rows, self.second_rows, rows[fresh], cols[fresh], values, slots
            )
            merged = np.empty(len(kept), dtype=np.int64)
            merged[kept], merged[slots] = self.keys, keys[fresh]
            self.keys, self.values = merged, values
        values = self.values[np.searchsorted(self.keys, keys), :, x0]
        return values[:, 0], values[:, 1]


@lru_cache(maxsize=1)
def table_enumeration(table: WinProbTable) -> TableEnumeration:
    """The enumeration state of the last table."""
    return TableEnumeration(table)
