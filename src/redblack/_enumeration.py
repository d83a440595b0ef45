"""Equilibrium enumeration: the per-table state and the per-start rule.

:func:`redblack.solver.enumerate_equilibria` imports this module on its
first call, so a process that never enumerates never compiles it.  Every
pair it solves goes through :func:`_pair_values`, which runs the solver's
batched engine over the pairs of the keys it is given, a block of
``_BLOCK_PAIRS`` at a time, each block gathering its own stake rows, and
keeps both players' values at one start.

:class:`TableEnumeration` keeps, per table, both players' best responses
to every strategy of the other: ``2 (M-1)!`` value vectors, found by
:func:`redblack.solver._best_responses` once from the strategies' stake
rows, with no strategy object built until a certificate reads it, and the
guard below.  It keeps nothing per pair.  At a start ``x0`` write
``vI(i, j)`` and ``vII(i, j)`` for both players' values of player I's
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

``eta`` being :data:`SUM_SLACK`, can pass.  A row holds a candidate exactly
when ``1 - BII(i) >= min_j BI(j) - 2 tol - eta``, and a column exactly when
``BI(j) <= max_i (1 - BII(i)) + 2 tol + eta``: where every chain absorbs,
the game at ``x0`` is constant-sum and these are the maximin and minimax
strategies that Shapley's (1953) saddle-point argument keeps.

*The accept side.*  Let ``delta`` bound how far a computed ``vI(i, j)``
exceeds ``BI(j)``, or ``vII(i, j)`` exceeds ``BII(i)`` (policy iteration's
shortfall), and ``e`` how far a computed ``vI + vII`` falls below 1, which
it equals where every chain absorbs.  There a candidate with

    BI(j) + BII(i) <= 1 + tol - mu,

``mu`` being :data:`ACCEPT_MARGIN`, has ``vI(i, j) >= 1 - e - vII(i, j)
>= 1 - e - delta - BII(i) >= BI(j) - tol + mu - e - delta``, and the same
for player II, so it passes (R) with no solve once ``mu`` covers ``delta +
e`` and the rounding.  Only the band between this side and the pair bound
is solved, in one call, and tested by (R); a start keeps its members' keys,
and :class:`Equilibria` solves their values when they are read.  Every
chain absorbs under the guard, checked once per table: every playable entry
``P(a, b)``, ``a, b >= 1`` and ``a + b <= M``, is below 1, so every fortune
steps down with positive probability and reaches 0, or every one is above
0, so every fortune reaches ``M``.  Off the guard a chain may cycle and
every candidate is in the band.  A boundary start solves nothing: every
value there and every ``B`` is the constant 0 or 1, so every candidate
passes (R).

In floating point let ``e`` also bound how far a computed ``vI + vII``
exceeds 1.  For ``0 <= tol <= 1`` every quantity computed lies in
``[-1, 4)``, so each rounding adds at most two units of ``2**-53``, and half
a unit where it lies in ``[-1, 1]``.  The pair bound's (the two subtractions
of (R), the sum ``BI + BII`` and the two additions of the bound) add at most
seven, so it is sound whenever ``eta`` exceeds ``e`` and eight units; the
accept side's (one subtraction of (R), the sum, ``1 + tol`` and the
subtraction of ``mu``) whenever ``mu`` exceeds ``delta + e`` and eight.
Over every pair of the shipped families at ``M <= 7`` (power p = 1, 2 and
2.5, min-exp m = 0.3 and 1, exp-diff), ``e`` is at most 1.4e-15 above 1 and
1.0e-15 below it and ``delta`` at most 6.7e-16: ``eta = 1e-12`` exceeds
``e`` and the rounding over 400 times, ``mu = 1e-13`` exceeds ``delta``,
``e`` and the rounding (2.6e-15 together) over 38 times.  As ``mu`` is well
below the default ``tol`` of 1e-12, the candidates whose sum exceeds 1 by
rounding are accepted: there the shipped tables' band is empty and
enumeration solves no pair; at ``tol = 0`` it holds every candidate.  For
``tol >= 1`` every pair passes (R), as ``BI(j) - tol <= 0 <= vI``, and the
bound admits every pair, as it exceeds 3 while ``BI + BII <= 2``.  A
negative or nan ``tol`` admits no pair, and
:func:`redblack.solver.enumerate_equilibria` returns before any of this.
So no pair that passes (R) is pruned, nor any that passes the exhaustive
rule; and where ``mu`` covers ``delta`` and ``e``, as on the shipped
families, no pair is accepted that (R) would refuse.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any

import numpy as np

from .game import Player, Profile, StationaryStrategy, WinProbTable
from .solver import EquilibriumCertificate, _best_responses, _chain_arrays, _in_range, _solve_chains

# Widens the pair bound past 1 + 2 * tol (module docstring): it covers how
# far q + t exceeds 1 (at most 1.4e-15 over every pair of the shipped
# families at M <= 7) and the rounding of the bound's own arithmetic.
SUM_SLACK = 1e-12
# Narrows the accept side below 1 + tol (module docstring): it covers policy
# iteration's shortfall, how far q + t falls below 1 and the rounding.
ACCEPT_MARGIN = 1e-13
# Pairs per block of _pair_values.
_BLOCK_PAIRS = 1024


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
    """The equilibria of one start, kept as keys and solved on read.

    Equilibrium ``k`` is ``firsts[i]`` against ``seconds[j]`` (see
    :class:`Strategies`), of ascending key ``keys[k] = i * len(seconds) +
    j``.  The set holds its table, its start and these, and no array of the
    table's enumeration state.  Its ``values``, both players' values at
    ``x0`` of every equilibrium, ``(N, 2)``, are solved the first time any
    is read (``value_I``, ``value_II``, a certificate or
    :meth:`to_json_dicts`), by :func:`_pair_values`, and kept, so a set
    read twice solves once; a boundary start's are the constants.
    Reading a pair builds its certificate with the checked ``Profile`` and
    ``EquilibriumCertificate`` constructors, and each strategy the first
    time any certificate reads it, so a caller that counts pays for no
    solve, and one that reads every pair pays for every certificate.  A
    slice is a tuple.  The set equals a tuple or another set of the same
    certificates, and prints as that tuple.
    """

    table: WinProbTable
    x0: int
    firsts: Strategies
    seconds: Strategies
    keys: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """Player I's strategy index of each equilibrium."""
        return self.keys // len(self.seconds)

    @property
    def cols(self) -> np.ndarray:
        """Player II's strategy index of each equilibrium."""
        return self.keys % len(self.seconds)

    @cached_property
    def values(self) -> np.ndarray:
        if 0 < self.x0 < self.table.M:
            return _pair_values(self.table, self.firsts.rows, self.seconds.rows, self.keys, self.x0)
        constants = (float(self.x0 == self.table.M), float(self.x0 == 0))
        return np.broadcast_to(constants, (len(self.keys), 2))

    @property
    def value_I(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def value_II(self) -> np.ndarray:
        return self.values[:, 1]

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(
        self, index: int | slice
    ) -> EquilibriumCertificate | tuple[EquilibriumCertificate, ...]:
        at = range(len(self))[index]
        if isinstance(at, range):
            return tuple(self[k] for k in at)
        i, j = divmod(int(self.keys[at]), len(self.seconds))
        value_I, value_II = self.values[at].tolist()
        return EquilibriumCertificate(
            Profile(self.firsts[i], self.seconds[j]), self.x0, value_I, value_II, True,
            "enumeration", "stationary-deterministic",
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
        rows, cols = self.rows.tolist(), self.cols.tolist()
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


def _pair_values(
    table: WinProbTable, firsts: np.ndarray, seconds: np.ndarray, keys: np.ndarray, x0: int
) -> np.ndarray:
    """Both players' values at the interior start ``x0`` of the pair of
    each key, ``(N, 2)``.

    Key ``i * len(seconds) + j`` is ``firsts[i]`` against ``seconds[j]``,
    both stake rows (see :func:`redblack.solver._stake_rows`).  Pairs are
    solved in blocks of ``_BLOCK_PAIRS`` keys, each gathering only its own
    stake rows, so the working set is one block whatever the number of
    pairs; the range rule checks every fortune of a block, and only ``x0``
    is kept.  A pair's bits do not depend on the block it is solved in.
    """
    values = np.empty((len(keys), 2))
    for lo in range(0, len(keys), _BLOCK_PAIRS):
        rows, cols = np.divmod(keys[lo : lo + _BLOCK_PAIRS], len(seconds))
        chain = _chain_arrays(table, firsts[rows], seconds[cols])
        values[lo : lo + len(rows)] = _in_range(_solve_chains(table.M, *chain))[:, :, x0].T
    return values


class TableEnumeration:
    """What enumeration keeps of one table between starts.

    Built cold once per table: every strategy of each player (shared by the
    tables of one ``M``, see :func:`strategies`); ``best_I[j]``, player I's
    best-response values at every fortune against ``seconds[j]``, and
    ``best_II[i]``, player II's against ``firsts[i]``; and ``absorbs``, the
    guard under which every chain of the table absorbs (module docstring).
    Nothing per pair: each start's :class:`Equilibria` holds its own keys.
    """

    def __init__(self, table: WinProbTable) -> None:
        M = table.M
        self.firsts, self.seconds = strategies(M)
        self.best_I = _best_responses(table, Player.ONE, self.seconds.rows)[1]
        self.best_II = _best_responses(table, Player.TWO, self.firsts.rows)[1]
        stakes = np.arange(1, M)
        playable = table.array[1:M, 1:M][np.add.outer(stakes, stakes) <= M]
        self.absorbs = bool((playable < 1.0).all() or (playable > 0.0).all())

    def equilibria(self, table: WinProbTable, x0: int, tol: float) -> Equilibria:
        """Every pair that passes (R) at ``x0``, in row-major order, for a
        ``tol >= 0``: the candidates of the pair bound less the band pairs
        that fail (R) (module docstring)."""
        if not 0 < x0 < table.M:
            accept = math.inf  # each pair's values and each B are the constants
        elif self.absorbs:
            accept = 1.0 + tol - ACCEPT_MARGIN
        else:
            accept = -math.inf
        keys, band = self.candidates(x0, 1.0 + 2.0 * tol + SUM_SLACK, accept)
        members = np.ones(len(keys), dtype=bool)
        if band.size:
            i, j = np.divmod(keys[band], len(self.seconds))
            value_I, value_II = _pair_values(table, self.firsts.rows, self.seconds.rows, keys[band], x0).T
            members[band] = (value_I >= self.best_I[j, x0] - tol) & (value_II >= self.best_II[i, x0] - tol)
        return Equilibria(table, x0, self.firsts, self.seconds, keys[members])

    def candidates(self, x0: int, bound: float, accept: float) -> tuple[np.ndarray, np.ndarray]:
        """The ascending keys of the pairs with ``BI(j) + BII(i) <= bound``
        at ``x0``, and the band: the positions among them of those whose sum
        exceeds ``accept``."""
        best_I, best_II = self.best_I[:, x0], self.best_II[:, x0]
        # Exactly the rows and the columns that hold a candidate, as a rounded
        # sum is monotone in each term; the sums span these, not every pair.
        rows = np.flatnonzero(best_II + best_I.min() <= bound)
        cols = np.flatnonzero(best_I + best_II.min() <= bound)
        sums = np.add.outer(best_II[rows], best_I[cols]).ravel()
        at = np.flatnonzero(sums <= bound)
        band = np.flatnonzero(sums[at] > accept)
        del sums
        keys = rows[at // len(cols)]
        keys *= len(self.seconds)
        at %= len(cols)
        keys += cols[at]
        return keys, band


@lru_cache(maxsize=1)
def table_enumeration(table: WinProbTable) -> TableEnumeration:
    """The enumeration state of the last table."""
    return TableEnumeration(table)
