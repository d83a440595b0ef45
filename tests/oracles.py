"""The exhaustive best-response oracle the tests check ``best_response`` against.

It solves the responder's every stationary deterministic strategy against
one opponent and takes the maximum at each fortune: factorial cost in ``M``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from redblack.game import Player, StationaryStrategy, WinProbTable
from redblack.solver import (
    DEFAULT_ENUM_CAP,
    _require_enumerable,
    _pair_values,
    _stake_rows,
    all_strategies,
)

# Responses within this of the maximum at a fortune count as attaining it.
DEFAULT_TIE_TOL = 1e-9


@dataclass(frozen=True)
class EnumeratedBestResponse:
    """Statewise maxima over every stationary deterministic response.

    ``values[x]`` is the best achievable winning probability at player I's
    fortune ``x``; ``per_state[x]`` lists indices (into ``strategies``) of
    the responses attaining it within the tie tolerance; ``optimal`` lists
    the responses attaining the maximum at every fortune simultaneously.
    """

    player: Player
    strategies: tuple[StationaryStrategy, ...]
    values: tuple[float, ...]
    per_state: tuple[tuple[int, ...], ...]
    optimal: tuple[StationaryStrategy, ...]


def enumerate_best_response(
    table: WinProbTable,
    opponent: StationaryStrategy,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> EnumeratedBestResponse:
    """Exhaustive oracle for :func:`redblack.best_response`."""
    M = table.M
    _require_enumerable(M, cap)
    responder = opponent.owner.other
    strategies = tuple(all_strategies(responder, M))
    stakes = _stake_rows(strategies)
    fixed = np.repeat(_stake_rows([opponent]), len(stakes), axis=0)
    if responder is Player.ONE:
        rows = _pair_values(table, stakes, fixed)[:, 0]
    else:
        rows = _pair_values(table, fixed, stakes)[:, 1]
    maxima = rows.max(axis=0)
    per_state = tuple(
        tuple(int(i) for i in np.nonzero(rows[:, x] >= maxima[x] - DEFAULT_TIE_TOL)[0])
        for x in range(M + 1)
    )
    simultaneous = np.nonzero((rows >= maxima - DEFAULT_TIE_TOL).all(axis=1))[0]
    return EnumeratedBestResponse(
        player=responder,
        strategies=strategies,
        values=tuple(float(v) for v in maxima),
        per_state=per_state,
        optimal=tuple(strategies[int(i)] for i in simultaneous),
    )
