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

*The saddle-point candidates.*  If every playable entry ``P(a, b)`` is
below 1, every fortune can step down and so reach 0; if every one is above
0, every fortune can climb to ``M``.  Either way (``zero_sum``) every chain
absorbs and ``q + t = 1`` for every pair, so the game at ``x0`` is
constant-sum, and its pure saddle points form a product of maximin and
minimax strategies (Shapley 1953).  With

    upper = min_j BI(j),   lower = max_i (1 - BII(i)),   s = 2 tol + eta,

``eta`` being :data:`SUM_SLACK`, only the pairs in ``OI x OII`` are
solved and tested by (R), where ``OI = {i : 1 - BII(i) >= upper - s}`` and
``OII = {j : BI(j) <= lower + s}``.  The largest ``1 - BII(i)`` is
``lower``, so ``OI`` is empty, and the start has no equilibrium, when
``upper - lower > s``.  Pairs that an earlier start solved are not solved
again.

Proof that this keeps every pair that passes (R), for every ``tol``.  Let
``(i, j)`` pass (R) and let ``e`` bound ``|vI + vII - 1|`` over all pairs.
In exact arithmetic:

* ``upper <= BI(j) <= vI(i, j) + tol``, by the minimum and (R);
* ``BII(i) <= vII(i, j) + tol <= 1 - vI(i, j) + e + tol`` by (R), so
  ``lower >= 1 - BII(i) >= vI(i, j) - tol - e``.

Hence ``1 - BII(i) >= vI(i, j) - tol - e >= upper - 2 tol - e``, so ``i``
is in ``OI``, and ``BI(j) <= vI(i, j) + tol <= lower + 2 tol + e``, so ``j``
is in ``OII``.  The steps read the same ``B`` as (R) does, so how far
``B`` falls short of a maximum never enters: policy iteration's stopping
margin needs no slack.  In floating point, for ``0 <= tol <= 1`` every
quantity computed lies in ``[-3, 3]``, and the roundings along either chain
(the two subtractions of (R), ``1 - BII``, ``s``, and ``upper - s`` or
``lower + s``) add at most seven units of ``2**-53``.  So the pruning is
sound whenever ``e`` stays below ``eta`` less those seven units; over every
pair of the shipped families at ``M <= 7``, ``e`` is at most 1.4e-15, and
``eta = 1e-12`` exceeds ``e`` and the rounding by a factor of over 400.
For ``tol > 1`` the bounds admit every pair, as ``s > 2`` while every value
lies in ``[0, 1]``.  A negative or nan ``tol`` admits no pair, and
:func:`redblack.solver.enumerate_equilibria` returns before any of this.
So no pair that passes (R) is pruned, nor any that passes the exhaustive
rule.

Where some chain can cycle, ``q + t < 1`` can hold and the argument fails:
the candidates are every pair, solved in row blocks at each start and kept
nowhere, and tested by the same rule (R).  Memory holds nothing of size
``(M-1)!^2 * (M+1)`` unless every pair is a candidate.  A start's hits are
kept as four arrays, see :class:`Equilibria`, which builds each certificate
only when it is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator

import numpy as np

from .game import Player, Profile, StationaryStrategy, WinProbTable
from .solver import (
    _BLOCK_PAIRS,
    EquilibriumCertificate,
    _best_responses,
    _stake_rows,
    _value_grid,
    all_strategies,
)

# Widens the candidate bounds past 2 * tol (module docstring): it covers
# |q + t - 1| (at most 1.4e-15 over every pair of the shipped families at
# M <= 7) and the rounding of the bounds' own arithmetic.
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
    ``best_II[i]``, player II's against ``firsts[i]``; and ``zero_sum``, the
    guard that every chain of the table absorbs.  Then, as the starts ask
    for them, the values of every pair solved so far (see :meth:`solved`).
    """

    def __init__(self, table: WinProbTable) -> None:
        M = table.M
        self.firsts, self.seconds, self.first_rows, self.second_rows = strategies(M)
        self.best_I = _best_responses(table, Player.ONE, self.second_rows)[1]
        self.best_II = _best_responses(table, Player.TWO, self.first_rows)[1]
        # Every playable entry below 1 lets every fortune step down, so every
        # chain can fall to 0; every entry above 0 lets every chain climb to M.
        stakes = np.arange(1, M)
        playable = table.array[1:M, 1:M][np.add.outer(stakes, stakes) <= M]
        self.zero_sum = bool((playable < 1.0).all() or (playable > 0.0).all())
        self.keys = np.empty(0, dtype=np.int64)
        self.values = np.empty((0, 2, M + 1))

    def equilibria(self, table: WinProbTable, x0: int, tol: float) -> Equilibria:
        """Every pair that passes (R) at ``x0``, in row-major order, for a
        ``tol >= 0``: of the saddle-point candidates if ``zero_sum``, else of
        every pair."""
        if self.zero_sum:
            rows, cols = self.candidates(x0, tol)
            values = self.solved(table, rows, cols, x0)
            blocks = [(rows, values[..., 0], values[..., 1])]
        else:
            cols = np.arange(len(self.seconds))
            blocks = self.streamed(table, x0)
        limit_I, limit_II = self.best_I[:, x0] - tol, self.best_II[:, x0] - tol
        hits = []
        for rows, vI, vII in blocks:
            # Rule (R): within tol of each player's best response to the other.
            r, c = np.nonzero((vI >= limit_I[cols]) & (vII >= limit_II[rows, None]))
            hits.append((rows[r], cols[c], vI[r, c], vII[r, c]))
        return Equilibria(x0, self.firsts, self.seconds, *map(np.concatenate, zip(*hits)))

    def candidates(self, x0: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """The saddle-point candidates ``OI`` and ``OII`` at ``x0``, as rows
        and columns (module docstring); meaningful only if ``zero_sum``."""
        best_I, best_II = self.best_I[:, x0], self.best_II[:, x0]
        slack = 2.0 * tol + SUM_SLACK
        upper, lower = best_I.min(), (1.0 - best_II).max()
        rows = np.flatnonzero(1.0 - best_II >= upper - slack)
        return rows, np.flatnonzero(best_I <= lower + slack)

    def solved(
        self, table: WinProbTable, rows: np.ndarray, cols: np.ndarray, x0: int
    ) -> np.ndarray:
        """Both players' values at ``x0`` of the pairs ``rows x cols``, ``(R, C, 2)``.

        Only the pairs no earlier call solved are solved, by
        :func:`redblack.solver._value_grid`, and kept: ``keys`` stays sorted, ``values[n]``
        holding both players' values at every fortune of pair ``keys[n]``.
        """
        K = len(self.seconds)
        keys = rows[:, None] * K + cols
        pos = np.searchsorted(self.keys, keys)
        if len(self.keys):
            fresh = self.keys.take(pos, mode="clip") != keys
        else:
            fresh = np.ones(keys.shape, dtype=bool)
        if fresh.any():
            # Rows that lack the same columns are solved as one product.
            lacking: dict[bytes, list[int]] = {}
            for k in np.flatnonzero(fresh.any(axis=1)).tolist():
                lacking.setdefault(fresh[k].tobytes(), []).append(k)
            all_keys, all_values = [self.keys], [self.values]
            for members in lacking.values():
                r, c = rows[members], cols[fresh[members[0]]]
                VI, VII = _value_grid(table, self.first_rows[r], self.second_rows[c])
                all_keys.append((r[:, None] * K + c).reshape(-1))
                all_values.append(np.stack([VI, VII], axis=2).reshape(-1, 2, table.M + 1))
            merged = np.concatenate(all_keys)
            order = np.argsort(merged, kind="stable")
            self.keys, self.values = merged[order], np.concatenate(all_values)[order]
            pos = np.searchsorted(self.keys, keys)
        return self.values[pos, :, x0]

    def streamed(
        self, table: WinProbTable, x0: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every pair's values at ``x0``, solved in blocks of whole rows and
        kept nowhere: per block, its rows and both ``(B, K)`` value slices."""
        K = len(self.seconds)
        per_block = max(1, _BLOCK_PAIRS // K)
        for lo in range(0, len(self.firsts), per_block):
            rows = np.arange(lo, min(lo + per_block, len(self.firsts)))
            VI, VII = _value_grid(table, self.first_rows[rows], self.second_rows)
            yield rows, VI[..., x0], VII[..., x0]


@lru_cache(maxsize=1)
def table_enumeration(table: WinProbTable) -> TableEnumeration:
    """The enumeration state of the last table."""
    return TableEnumeration(table)
