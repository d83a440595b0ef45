"""Exact values, best responses and equilibrium certificates.

State space and indexing
------------------------

Every vector in this module is indexed by player I's fortune
``x in {0..M}``.  Player II's winning probabilities are tracked separately:
when the induced chain can cycle forever (possible on tables with exact 0
and 1 entries, as exp-diff has from ``M = 41``), the two players' values
need not sum to one, so neither is derived from the other.

Values are *minimal* fixed points of the one-stage recursion: a fortune
from which absorption never happens is worth zero to both players, which
matches play (nobody is ever paid).  One linear solve gives them, with the
fortunes that reach neither boundary pinned to zero (the "prob0" step of
probabilistic model checking), which leaves a nonsingular system.

The chain a profile induces is built only by :func:`_chain_arrays`, which
:mod:`redblack.montecarlo` walks as well; it rejects a profile whose total
money differs from the table's.  Its stake rows broadcast, so one gather
serves aligned pairs and products.  :data:`DEFAULT_VI_TOL` and
:data:`DEFAULT_MAX_SWEEPS` serve only :func:`_iterate_chain`, the value
iteration of ``hitting_values(..., method="iterate")``.

One batched engine computes every profile's values, a single profile
included.  It gathers the chains of a block of aligned profile pairs at
once, runs a vectorised backward-reachability fixpoint to find the stuck
fortunes of every chain, and solves all chains with one stacked
``np.linalg.solve`` (:func:`_solve_chains`); one range rule,
:func:`_in_range`, accepts its values.

A best response is found by policy iteration (Howard 1960) on the
responder's ``(M-1) x (M-1)`` grid of fortunes and stakes, gathered by
:func:`_chain_arrays` and ranked by the same reachability fixpoint: each
policy's chain is solved by the same engine, then one argmax over the grid
improves it.  :func:`_best_responses` runs it for a stack of opponents at
once, one stacked solve per round over those still switching, and
:func:`best_response` is its stack of one.  The response is the last policy,
and its values are that policy's own, to the bit those of
``hitting_values``.

Enumeration
-----------

:func:`enumerate_equilibria` finds every pair that neither player can
improve by more than ``tol`` from both players' best responses to every
strategy of the other, solving only the pairs whose two best-response
values sum to between about ``1 + tol`` and ``1 + 2 tol``, or to at most
``1 + 2 tol`` where a chain can cycle.  It keeps each start's equilibria as
keys and solves their values only when one is read.  The state it keeps
per table, the rule and its proofs are in :mod:`redblack._enumeration`.

Equilibrium certification is by excessivity, else by exact best response
at any ``M``:

* the bold-versus-timid profile is certified against all strategies when
  both excessivity conditions hold (:func:`check_bold_excessive` for player
  I against a timid opponent, :func:`check_timid_excessive` for player II
  against a bold one);
* otherwise by each player's :func:`best_response` to the other, which is
  optimal among all strategies too (see :func:`verify_nash`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

from .game import (
    GameError,
    Player,
    Profile,
    StationaryStrategy,
    UnitBetCurve,
    WinProbTable,
    _whole,
    unit_bet_curve,
)
from .reports import (
    DEFAULT_TOL,
    DEFAULT_WITNESS_CAP,
    CheckReport,
    Slab,
    scan_slabs,
)

if TYPE_CHECKING:
    from ._enumeration import Equilibria

DEFAULT_VI_TOL = 1e-13
DEFAULT_MAX_SWEEPS = 10**6
DEFAULT_ENUM_CAP = 7
# A policy-iteration stake switches only on a gain above this, so rounding
# in the exact solves cannot make two stakes alternate forever.
_IMPROVE_MARGIN = 1e-14
# _in_range refuses solved values that leave [0, 1] by more than this.  Over
# best responses to both seeded players of tests/test_exact_values.py (seeds
# 0-49) on exp-diff M = 20, 30, ..., 80, rounding overshoots by 2.7e-12 at
# most; a near-singular system, as against seed 26's player I, by 6.8e-5.
_RANGE_SLACK = 1e-9
# Action-grid entries per chunk of stacked best responses (see _best_responses).
_RESPONSE_BLOCK = 2**18
# Sweeps per convergence test of the value iteration (see _iterate_chain).
_SWEEP_BLOCK = 128


class EnumerationLimitError(GameError):
    """Raised when exhaustive enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class ValueVector:
    """Both players' winning probabilities, indexed by player I's fortune.

    ``q[x]`` is player I's chance of reaching ``M``; ``t[x]`` is player II's
    chance of driving the chain to ``0``.  ``q[x] + t[x] <= 1``, with strict
    inequality exactly on fortunes from which the chain can cycle forever.
    """

    M: int
    q: tuple[float, ...]
    t: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.q) != self.M + 1 or len(self.t) != self.M + 1:
            raise ValueError(f"expected {self.M + 1} values per player")
        if self.q[0] != 0.0 or self.q[-1] != 1.0:
            raise ValueError("player I's values must be 0 at fortune 0 and 1 at M")
        if self.t[0] != 1.0 or self.t[-1] != 0.0:
            raise ValueError("player II's values must be 1 at fortune 0 and 0 at M")
        if all(0.0 <= v <= 1.0 for v in self.q + self.t):
            return
        for x in range(self.M + 1):
            for v in (self.q[x], self.t[x]):
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"value at fortune {x} outside [0, 1]: {v!r}")

    def to_json_dict(self) -> dict[str, Any]:
        return {"M": self.M, "player_I": list(self.q), "player_II": list(self.t)}


def bold_timid_values(curve: UnitBetCurve) -> ValueVector:
    """Closed-form values of bold player I versus timid player II.

    From ``x`` the chain climbs to ``x + 1`` with probability ``curve(x)``
    and otherwise drops straight to ``0``, so player I's value is the
    product of ``curve`` over ``x .. M - 1``; absorption is certain, hence
    player II's value is the complement.
    """
    if curve[0] != 0.0:
        raise ValueError("the unit-bet curve must vanish at fortune 0")
    q = [0.0] * (curve.M + 1)
    q[curve.M] = 1.0
    for x in range(curve.M - 1, 0, -1):
        q[x] = curve[x] * q[x + 1]
    t = tuple(1.0 - v for v in q)
    return ValueVector(curve.M, tuple(q), t)


def product_form_values(profile: Profile, curve: UnitBetCurve) -> ValueVector | None:
    """Bold-timid values if I is bold, II timid and ``curve[0] == 0``; else ``None``."""
    if profile.first.is_bold and profile.second.is_timid and curve[0] == 0.0:
        return bold_timid_values(curve)
    return None


def _stake_rows(strategies: Sequence[StationaryStrategy]) -> np.ndarray:
    """Stake matrix: row ``k`` is ``strategies[k].bets``."""
    return np.array([s.bets for s in strategies], dtype=np.int64)


def _chain_arrays(
    table: WinProbTable, firsts: np.ndarray, seconds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Up-probability, up and down targets of every profile pair's chain.

    ``firsts`` holds player-I and ``seconds`` player-II stake rows (see
    :func:`_stake_rows`), ``(..., M + 1)`` arrays whose leading axes
    broadcast: aligned rows pair up, and a new axis on one side makes a
    product.  Each ``(*broadcast, M - 1)`` result holds the chain of the
    pair at that index; its last axis ``x - 1`` is interior fortune ``x``.
    Stake rows whose length is not ``M + 1`` raise ``ValueError``.
    """
    M = table.M
    if firsts.shape[-1] != M + 1 or seconds.shape[-1] != M + 1:
        raise ValueError("profile and table disagree on the total money")
    xs = np.arange(1, M)
    a, b = np.broadcast_arrays(firsts[..., 1:M], seconds[..., M - xs])
    return table.array[a, b], xs + b, xs - a


def _ranks(M: int, goals: list[int], p: np.ndarray, up: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """Backward-reachability rank of every fortune, for a stack of rows.

    ``p``, ``up`` and ``dn`` are ``(R, M - 1, A)``: row ``r`` offers ``A``
    alternative steps at each interior fortune.  The ``goals`` have rank 0.
    Pass ``k`` gives rank ``k`` to every unranked fortune with a step that
    moves, with positive probability, to a fortune ranked before the pass.
    Passes stop when one ranks nothing, so at most ``M - 1`` run; fortunes
    that cannot reach the goals keep rank ``M``.
    """
    reached = np.zeros((len(p), M + 1), dtype=bool)
    reached[:, goals] = True
    rank = np.where(reached, 0, M)
    flat = reached.reshape(-1)
    row_start = (M + 1) * np.arange(len(p))[:, None, None]
    up_at, dn_at = row_start + up, row_start + dn
    live_up, live_dn = p > 0.0, p < 1.0
    inner, interior = reached[:, 1:M], rank[:, 1:M]
    for k in range(1, M):
        # ``a > inner`` is ``a & ~inner`` on booleans: the fortunes with a
        # step into the reached set that this pass reaches first.
        fresh = ((live_up & flat[up_at]) | (live_dn & flat[dn_at])).any(axis=2) > inner
        if not fresh.any():
            break
        interior[fresh] = k
        inner |= fresh
    return rank


def _stuck(M: int, p: np.ndarray, up: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """Per chain row and interior fortune, whether no boundary is reachable.

    Up steps climb and down steps fall.  Where no step goes up with
    probability 1, every fortune steps down with positive probability and so
    reaches 0; where none goes up with probability 0, every fortune climbs
    to M.  Then nothing is stuck.
    """
    if (p < 1.0).all() or (p > 0.0).all():
        return np.zeros(p.shape, dtype=bool)
    steps = (a[..., None] for a in (p, up, dn))
    return _ranks(M, [0, M], *steps)[:, 1:M] == M


def absorption_certain(table: WinProbTable, profile: Profile) -> bool:
    """Whether the induced chain reaches a boundary from every fortune.

    For a finite chain this is exactly absorption with probability one:
    backward reachability from ``{0, M}`` along positive-probability steps
    must cover the interior.
    """
    chain = _chain_arrays(table, _stake_rows([profile.first]), _stake_rows([profile.second]))
    return not _stuck(table.M, *chain).any()


def _linear_system(
    M: int, p: np.ndarray, up: np.ndarray, dn: np.ndarray, stuck: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``I - A`` and the right-hand sides of a stack of chains, for ``(I - A) u = c``.

    ``p``, ``up`` and ``dn`` are ``(R, M - 1)`` chain arrays.  Returns the
    ``(R, M - 1, M - 1)`` matrices over the interior fortunes and the
    ``(R, M - 1, 2)`` right-hand sides: the chance of stepping to ``M``
    (player I's goal), then to ``0`` (player II's).  A row steps up to
    ``x + b > x`` and down to ``x - a < x``, so its diagonal entry is 1; it
    holds ``0.0 - p`` at the up target and ``p - 1.0`` at the down target,
    which is ``0.0 - (1.0 - p)`` to the bit, signed zeros included.  Steps
    into a ``stuck`` fortune (see :func:`_stuck`) are zeroed before they are
    written.
    """
    R = len(p)
    rise, fall = 0.0 - p, p - 1.0
    if stuck.any():
        into = np.zeros((R, M + 1), dtype=bool)
        into[:, 1:M] = stuck
        rise[np.take_along_axis(into, up, axis=1)] = 0.0
        fall[np.take_along_axis(into, dn, axis=1)] = 0.0
    lhs = np.zeros((R, M - 1, M + 1))
    flat = lhs.reshape(-1)
    row_start = (M + 1) * np.arange(R * (M - 1)).reshape(R, M - 1)
    flat[row_start + up] = rise
    flat[row_start + dn] = fall
    interior = np.arange(M - 1)
    lhs[:, interior, interior + 1] = 1.0
    rhs = np.zeros((R, M - 1, 2))
    rhs[..., 0] = np.where(up == M, p, 0.0)
    rhs[..., 1] = np.where(dn == 0, 1.0 - p, 0.0)
    return lhs[..., 1:M], rhs


# Exp-diff tables from M = 41 have such chains.
_NEAR_CYCLE = (
    "singular matrix: a chain absorbs, but some of its fortunes leave a cycle "
    "only through steps whose probability is within rounding of 0 or 1, so its "
    "system I - A is singular in floating point"
)


def _iterate_chain(
    M: int, p: np.ndarray, up: np.ndarray, dn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Monotone iteration from zero toward the minimal fixed point of one chain.

    ``p``, ``up`` and ``dn`` are the chain's ``(M - 1,)`` arrays.  Returns
    the ``(2, M + 1)`` value vectors toward ``M`` and toward ``0`` (boundary
    included) and both goals' sweep counts.  A goal settles at the first
    sweep that moves none of its values by :data:`DEFAULT_VI_TOL`; the
    iterates only grow, so a sweep's change is its increase.  The stop rule
    is not an error bound: on a slowly mixing chain the remaining error is
    that step divided by the spectral gap.

    Both goals sweep together, :data:`_SWEEP_BLOCK` sweeps at a time into a
    ring of states, and the stop rule is tested once per block over every
    sweep in it.  A goal that settled in the block keeps the state and count
    of its first settling sweep and sweeps on with the other, so its values
    and count are those of testing after every sweep.
    """
    ring = np.zeros((_SWEEP_BLOCK + 1, 2, M + 1))
    ring[:, 0, M] = ring[:, 1, 0] = 1.0
    flats = [state.reshape(-1) for state in ring]
    inners = [state[:, 1:M] for state in ring]
    # Sweep k gathers the [up, dn] targets of state k, weighs them by
    # [p, 1 - p] and writes their sum into state k + 1.
    at = np.stack([[up, up + M + 1], [dn, dn + M + 1]])
    law = np.stack([[p, p], [1.0 - p, 1.0 - p]])
    terms = np.empty_like(law)
    rise, fall = terms
    values = np.empty((2, M + 1))
    sweeps = np.zeros(2, dtype=np.int64)
    sweep = 0
    while not sweeps.all():
        block = min(_SWEEP_BLOCK, DEFAULT_MAX_SWEEPS - sweep)
        if block < 1:
            raise RuntimeError(f"value iteration did not settle within {DEFAULT_MAX_SWEEPS} sweeps")
        for k in range(block):
            flats[k].take(at, out=terms, mode="clip")
            terms *= law
            np.add(rise, fall, out=inners[k + 1])
        steps = ring[1 : block + 1, :, 1:M] - ring[:block, :, 1:M]
        settled = (steps.max(axis=2) < DEFAULT_VI_TOL) & (sweeps == 0)
        for goal in np.flatnonzero(settled.any(axis=0)):
            first = settled[:, goal].argmax()
            values[goal] = ring[first + 1, goal]
            sweeps[goal] = sweep + first + 1
        sweep += block
        ring[0] = ring[block]
    return values, sweeps


def _solve_chains(M: int, p: np.ndarray, up: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """Both players' value vectors of a stack of chains, as solved.

    ``p``, ``up`` and ``dn`` are ``(R, M - 1)`` chain arrays.  Returns the
    ``(2, R, M + 1)`` values toward ``M`` (player I's), then toward ``0``,
    boundaries included, from one solve of every system of
    :func:`_linear_system`.  No step enters a stuck fortune (see
    :func:`_stuck`); as those step only to each other, their rows empty
    too, so they read ``u_x = 0`` exactly, and the rest of each system is
    nonsingular: a boundary is reachable from every other fortune.
    """
    lhs, rhs = _linear_system(M, p, up, dn, _stuck(M, p, up, dn))
    try:
        solution = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(_NEAR_CYCLE) from exc
    values = np.zeros((2, len(p), M + 1))
    values[0, :, M] = values[1, :, 0] = 1.0
    values[:, :, 1:M] = solution.transpose(2, 0, 1)
    return values


def _in_range(values: np.ndarray) -> np.ndarray:
    """The range rule: raise ``np.linalg.LinAlgError`` if a solved value
    leaves [0, 1] by more than :data:`_RANGE_SLACK`, else clip the rounding
    away in place."""
    if not ((values >= -_RANGE_SLACK) & (values <= 1.0 + _RANGE_SLACK)).all():
        raise np.linalg.LinAlgError(
            f"ill-conditioned solve: a value leaves [0, 1] by over {_RANGE_SLACK}"
        )
    np.clip(values, 0.0, 1.0, out=values)
    values += 0.0  # turns -0.0 into 0.0
    return values


def hitting_values(
    table: WinProbTable, profile: Profile, *, method: str = "auto"
) -> ValueVector:
    """Both players' winning probabilities under a fixed profile.

    ``method='auto'`` solves the interior linear system with the fortunes
    that reach neither boundary pinned to 0: the minimal fixed point of
    every chain.  ``'iterate'`` runs :func:`_iterate_chain` instead, the
    slow approximate oracle.
    """
    if method not in ("auto", "iterate"):
        raise ValueError(f"unknown method {method!r}; use 'auto' or 'iterate'")
    chain = _chain_arrays(table, _stake_rows([profile.first]), _stake_rows([profile.second]))
    if method == "iterate":
        q, t = _iterate_chain(table.M, *(a[0] for a in chain))[0]
    else:
        q, t = _in_range(_solve_chains(table.M, *chain))[:, 0]
    return ValueVector(table.M, tuple(q.tolist()), tuple(t.tolist()))


def all_strategies(owner: Player, M: int) -> Iterator[StationaryStrategy]:
    """Every stationary deterministic strategy, in lexicographic stake order."""
    interiors = itertools.product(*(range(1, t + 1) for t in range(1, M)))
    for stakes in interiors:
        yield StationaryStrategy(owner, (0, *stakes, 0))


def strategy_count(M: int) -> int:
    return math.factorial(M - 1)


def _require_enumerable(M: int, cap: int) -> None:
    if M > cap:
        raise EnumerationLimitError(
            f"enumeration over {M - 1}! strategies per player needs "
            f"M <= {cap}; raise the cap explicitly to force it"
        )


@dataclass(frozen=True)
class BestResponse:
    """An optimal stationary response to a fixed opponent strategy.

    ``values[x]`` is the responder's own winning probability when player
    I's fortune is ``x`` (for player II that is the chance of driving the
    chain to ``0``): the solve of ``strategy``, the last policy of the
    iteration, as :func:`hitting_values` gives it to the bit.
    """

    player: Player
    strategy: StationaryStrategy
    values: tuple[float, ...]


def _policy_iteration(
    M: int, goal: int, p: np.ndarray, up: np.ndarray, dn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Policy iteration on a stack of ``K`` action grids, one per opponent.

    ``p``, ``up`` and ``dn`` are ``(K, M - 1, M - 1)``: entry ``[k, x - 1,
    s - 1]`` is the step at interior fortune ``x`` under stake ``s`` against
    opponent ``k``.  Returns each opponent's last policy, ``(K, M - 1)``
    stake indices ``s - 1``, and the responder's ``(K, M + 1)`` values of
    it, which have met the range rule.  Each round solves the policies of
    the opponents still switching with one :func:`_solve_chains`; every
    operation acts on each opponent's own rows alone, so each opponent's
    rounds, and bits, are those of a stack of one.
    """
    K = len(p)
    column = 0 if goal == M else 1
    # Flat offsets of opponent k's value row and of its grid row at fortune x.
    offsets = (M + 1) * np.arange(K)[:, None, None]
    starts = (M - 1) * np.arange(K * (M - 1)).reshape(K, M - 1)
    # Start at the smallest stake stepping into a lower rank; where none
    # does, the fortune cannot reach the goal and stake 1 is as good as any.
    rank = _ranks(M, [goal], p, up, dn)
    here = rank[:, 1:M, None]
    flat = rank.reshape(-1)
    progress = ((p > 0.0) & (flat[offsets + up] < here)) | ((p < 1.0) & (flat[offsets + dn] < here))
    policy = progress.argmax(axis=2)
    policies = np.empty_like(policy)
    values = np.empty((K, M + 1))
    live = np.arange(K)  # the opponents whose policies still switch
    seen: list[np.ndarray] = []  # their earlier policies, one array per round
    while True:
        chosen = starts[: len(live)] + policy
        v = _solve_chains(M, *(a.reshape(-1)[chosen] for a in (p, up, dn)))[column]
        flat = v.reshape(-1)
        at = offsets[: len(live)]
        one_stage = p * flat[at + up] + (1.0 - p) * flat[at + dn]
        best = one_stage.argmax(axis=2)
        stage = one_stage.reshape(-1)
        switch = stage[starts[: len(live)] + best] > stage[chosen] + _IMPROVE_MARGIN
        moving = switch.any(axis=1)
        if not moving.all():
            settled = ~moving
            policies[live[settled]] = policy[settled]
            values[live[settled]] = v[settled]
            if not moving.any():
                break
            live, policy, switch, best = live[moving], policy[moving], switch[moving], best[moving]
            p, up, dn = p[moving], up[moving], dn[moving]
            seen = [earlier[moving] for earlier in seen]
        seen.append(policy)
        policy = np.where(switch, best, policy)
        if any((earlier == policy).all(axis=1).any() for earlier in seen):
            raise RuntimeError(
                "policy iteration revisited a policy: the solves are too "
                "ill-conditioned to rank the stakes"
            )
    return policies, _in_range(values)


def _best_responses(
    table: WinProbTable, responder: Player, opponents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best responses of ``responder`` to a stack of opponent stake rows.

    Returns :func:`_policy_iteration`'s policies and values, row ``k`` for
    ``opponents[k]``.  Opponents go in chunks whose action grids hold at
    most :data:`_RESPONSE_BLOCK` entries, so besides the two outputs the
    working set stays under about ``80 * _RESPONSE_BLOCK`` bytes (20 MiB),
    whatever the count.
    """
    M = table.M
    goal = M if responder is Player.ONE else 0
    # Row s - 1 stakes min(s, own fortune) at every own fortune.  Past the
    # own fortune it repeats the largest legal stake, so the first maximum
    # along the stake axis is always a legal stake.
    own = np.arange(M + 1)
    own[M] = 0
    stakes = np.minimum.outer(np.arange(1, M), own)
    chunk = max(1, _RESPONSE_BLOCK // (M - 1) ** 2)
    policies = np.empty((len(opponents), M - 1), dtype=np.int64)
    values = np.empty((len(opponents), M + 1))
    for lo in range(0, len(opponents), chunk):
        fixed = opponents[lo : lo + chunk]
        # Action grids [k, x - 1, s - 1]: opponent k, interior fortune x, stake s.
        sides = (stakes[None], fixed[:, None])
        chain = _chain_arrays(table, *(sides if responder is Player.ONE else sides[::-1]))
        p, up, dn = (np.ascontiguousarray(a.transpose(0, 2, 1)) for a in chain)
        policies[lo : lo + chunk], values[lo : lo + chunk] = _policy_iteration(M, goal, p, up, dn)
    return policies, values


def best_response(table: WinProbTable, opponent: StationaryStrategy) -> BestResponse:
    """Optimal stationary response by policy iteration with exact evaluation.

    Fortunes from which no stakes reach the responder's goal are worth 0.
    The starting policy takes, at each other fortune, the smallest stake
    that steps toward the goal in the reachability ranking, so its chain
    absorbs from those fortunes and its solve is nonsingular.
    A stake switches only on a gain above ``_IMPROVE_MARGIN``, and a strict
    improvement never closes a cycle that avoids the goal, so every later
    policy absorbs as well.  That matters when the table holds exact zeros
    and ones: a merely greedy stake can stall in a cycle whose value the
    optimum already priced as if the goal were reached.  The iteration
    stops when no stake switches; the response is the last policy, and its
    values are that policy's own solve by :func:`_solve_chains`.  In exact
    arithmetic every round strictly improves, so no policy comes back; in
    floating point one can when the solves are too ill-conditioned to rank
    the stakes, and then ``RuntimeError`` is raised instead of looping
    forever.  Only the responder's values of the last solve meet the range
    rule (:func:`_in_range`): an intermediate policy may overshoot.  This is
    :func:`_best_responses` for a stack of one opponent.
    """
    responder = opponent.owner.other
    policies, values = _best_responses(table, responder, _stake_rows([opponent]))
    own = (policies[0] + 1).tolist()
    if responder is Player.TWO:
        own.reverse()
    strategy = StationaryStrategy(responder, (0, *own, 0))
    return BestResponse(responder, strategy, tuple(values[0].tolist()))


def check_bold_excessive(
    curve: UnitBetCurve,
    values: ValueVector | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """No single stake beats the bold one against a timid opponent.

    For ``1 <= x <= M - 1`` and ``0 <= a <= x``:
    ``curve(a) * q(x + 1) + (1 - curve(a)) * q(x - a) <= q(x)``
    where ``q`` are the bold-versus-timid values.  Passing makes those
    values excessive for player I, which certifies bold play optimal
    against the timid opponent over all strategies.
    """
    if values is None:
        values = bold_timid_values(curve)
    c = np.array(curve.values, dtype=np.float64)
    q = np.array(values.q, dtype=np.float64)
    x = np.arange(1, curve.M)[:, None]
    a = np.arange(curve.M)[None, :]
    lhs = c[a] * q[x + 1] + (1.0 - c[a]) * q[np.maximum(x - a, 0)]
    slab = Slab(lhs, q[x], a <= x, (x, a), "bold-excessive")
    return scan_slabs("bold-excessive", [slab], tol=tol, max_witnesses=max_witnesses)


def check_timid_excessive(
    table: WinProbTable,
    values: ValueVector | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
) -> CheckReport:
    """No single stake helps player II against a bold opponent.

    For ``0 <= x <= M - 1`` and ``1 <= b <= M - x``:
    ``q(x) <= P(x, b) * q(x + b)`` where ``q`` are the bold-versus-timid
    values.  Passing makes ``1 - q`` excessive for player II, certifying
    timid play optimal against the bold opponent over all strategies.
    """
    if values is None:
        values = bold_timid_values(unit_bet_curve(table))
    M = table.M
    q = np.array(values.q, dtype=np.float64)
    x = np.arange(M)[:, None]
    b = np.arange(1, M + 1)[None, :]
    rhs = table.array[x, b] * q[np.minimum(x + b, M)]
    slab = Slab(q[x], rhs, x + b <= M, (x, b), "timid-excessive")
    return scan_slabs("timid-excessive", [slab], tol=tol, max_witnesses=max_witnesses)


@dataclass(frozen=True)
class Deviation:
    """A unilateral improvement refuting an equilibrium claim."""

    player: Player
    strategy: StationaryStrategy
    value: float
    baseline: float

    @property
    def gain(self) -> float:
        return self.value - self.baseline

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "player": self.player.value,
            "strategy": self.strategy.to_json_dict(),
            "value": self.value,
            "baseline": self.baseline,
            "gain": self.gain,
        }


@dataclass(frozen=True, slots=True)
class EquilibriumCertificate:
    """Verdict on a profile at an initial fortune, with its evidence.

    ``method`` is ``'excessivity'`` (both excessivity checks passed) or
    ``'best-response'`` (neither player's exact best response improves
    at ``x0``); both cover all strategies.  :func:`enumerate_equilibria`
    labels its certificates ``'enumeration'``, covering the stationary
    deterministic strategies.  A refutation carries the improving
    deviation.
    """

    profile: Profile
    x0: int
    value_I: float
    value_II: float
    equilibrium: bool
    method: str
    coverage: str
    deviation: Deviation | None = None
    reports: tuple[CheckReport, ...] = field(default=(), repr=False)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "profile": self.profile.to_json_dict(),
            "x0": self.x0,
            "value_I": self.value_I,
            "value_II": self.value_II,
            "equilibrium": self.equilibrium,
            "method": self.method,
            "coverage": self.coverage,
            "deviation": None if self.deviation is None else self.deviation.to_json_dict(),
            "reports": [r.to_json_dict() for r in self.reports],
        }


def verify_nash(
    table: WinProbTable,
    profile: Profile,
    x0: int,
    *,
    tol: float = DEFAULT_TOL,
) -> EquilibriumCertificate:
    """Certify or refute a profile as an equilibrium at fortune ``x0``.

    The bold-versus-timid profile is first tried via the two excessivity
    checks, which certify it against all strategies.  Any other profile —
    or a bold-versus-timid one failing an excessivity check — is checked
    by one exact :func:`best_response` per player, player I first; a
    response worth more than the profile's value plus ``tol`` at ``x0``
    refutes it and becomes the deviation.  Against a fixed stationary
    opponent the deviator faces a finite reachability MDP, where a
    stationary deterministic strategy is optimal among all strategies, so
    the coverage is all strategies at any ``M``.  The bound is that of the
    policy iteration: a certified profile admits no deviation gaining more
    than ``tol`` plus ``_IMPROVE_MARGIN`` per expected stage of the best
    response's play from ``x0``.  A best response whose solves cannot rank
    the stakes raises (see :func:`best_response`).  A start ``x0`` that is
    not an ``int`` in ``0..M``, a ``bool`` included, raises ``ValueError``.
    """
    M = table.M
    if not _whole(x0, 0) or x0 > M:
        raise ValueError(f"initial fortune {x0!r} outside the integers 0..{M}")
    values = hitting_values(table, profile)
    vI, vII = values.q[x0], values.t[x0]
    reports: tuple[CheckReport, ...] = ()

    curve = unit_bet_curve(table)
    exact = product_form_values(profile, curve)
    if exact is not None:
        exc = check_bold_excessive(curve, exact, tol=tol)
        star = check_timid_excessive(table, exact, tol=tol)
        reports = (exc, star)
        if exc.passed and star.passed:
            return EquilibriumCertificate(
                profile, x0, vI, vII, True, "excessivity", "all-strategies", None, reports
            )

    deviation = None
    for opponent, baseline in ((profile.second, vI), (profile.first, vII)):
        response = best_response(table, opponent)
        if response.values[x0] > baseline + tol:
            deviation = Deviation(response.player, response.strategy, response.values[x0], baseline)
            break
    return EquilibriumCertificate(
        profile, x0, vI, vII, deviation is None, "best-response", "all-strategies",
        deviation, reports,
    )


def enumerate_equilibria(
    table: WinProbTable,
    x0: int,
    *,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Equilibria:
    """All stationary deterministic equilibria at fortune ``x0``.

    A profile qualifies when neither player has a strictly improving
    (by more than ``tol``) unilateral stationary deterministic deviation,
    measured against the best responses' values (see :mod:`redblack._enumeration`,
    which also proves that the pairs left unsolved cannot qualify).  A
    negative or nan ``tol`` asks even the deviation to the same strategy to
    gain less than nothing, so no profile qualifies and nothing is solved.
    Results are ordered lexicographically by both players' stakes, in a
    read-only sequence that builds each certificate when it is read (see
    :class:`redblack._enumeration.Equilibria`); ``tuple(...)`` builds them all.
    A start ``x0`` that is not an ``int`` in ``0..M``, a ``bool`` included,
    raises ``ValueError``.
    """
    M = table.M
    if not _whole(x0, 0) or x0 > M:
        raise ValueError(f"initial fortune {x0!r} outside the integers 0..{M}")
    _require_enumerable(M, cap)
    # Imported on first use, so a process that never enumerates never compiles it.
    from ._enumeration import Equilibria, strategies, table_enumeration

    if not tol >= 0.0:
        return Equilibria(table, x0, *strategies(M), np.empty(0, dtype=np.int64))
    return table_enumeration(table).equilibria(table, x0, tol)
