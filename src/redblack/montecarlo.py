"""Seeded Monte Carlo play of a fixed profile, with exact cross-checks.

Determinism contract
--------------------

Every uniform draw is a pure function of ``(seed, trial, step)``: trial
keys and per-step draws come from the SplitMix64 output permutation applied
to counter sequences.  Consequently results are byte-identical across runs,
independent of chunking (``jobs``), and any single trial can be replayed
in isolation (:func:`replay_trial`) to audit the vectorized stepping.

A trial walks player I's fortune until absorption at ``0`` or ``M``, or
until the step horizon is hit (such trials are reported as truncated, never
as wins).  The walk follows the chain the solver builds for the profile
(``solver._chain_arrays``), so simulation and exact values share one
definition of every step; a replay reads the stakes back from it.
:func:`compare_exact` scores the empirical win frequency against an exact
value vector with a z-statistic, and refuses to judge when too many trials
were truncated.

The batch walk
--------------

Since a draw does not depend on the walk, the draws of many future steps
can be mixed at once.  The batch walks its trials in tiles of at most
``_BLOCK_ELEMENTS``, and each tile in blocks of steps whose draws are mixed
in one pass: one step per block while the tile is full, up to
``_BLOCK_STEPS`` as its trials end.  A trial that absorbs inside a block
stays put on its boundary until the block's end does the accounting.  The
walk holds the tile's keys and two buffers of at most ``2 * _BLOCK_ELEMENTS``
elements, so its memory does not grow with the trial count
(:func:`_run_chunk` has the details).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from .game import Profile, WinProbTable
from .solver import ValueVector, _chain_arrays, _stake_rows

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MUL_2 = np.uint64(0x94D049BB133111EB)
_U64_11, _U64_27, _U64_30, _U64_31 = (np.uint64(n) for n in (11, 27, 30, 31))
# The batch walk (see ``_run_chunk``): at most ``_BLOCK_ELEMENTS`` trials per
# tile and draws per block, at most ``_BLOCK_STEPS`` steps per block, and ended
# trials leave the walk once they are a ``_DROP_SHARE``-th of the kept ones.
_BLOCK_ELEMENTS = 1 << 15
_BLOCK_STEPS = 64
_DROP_SHARE = 8


def _whole(value: object, least: int) -> bool:
    """Whether ``value`` is an ``int`` (not a ``bool``) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _mix64_int(z: int) -> int:
    """SplitMix64 output permutation on python integers (mod 2**64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray, spare: np.ndarray) -> None:
    """SplitMix64 output permutation of a uint64 array, in place (mod 2**64).

    ``spare`` is a uint64 array of the same shape, overwritten as scratch.
    """
    np.right_shift(z, _U64_30, out=spare)
    z ^= spare
    z *= _U64_MUL_1
    np.right_shift(z, _U64_27, out=spare)
    z ^= spare
    z *= _U64_MUL_2
    np.right_shift(z, _U64_31, out=spare)
    z ^= spare


def trial_key(seed: int, trial: int) -> int:
    """The per-trial RNG key; a pure function of seed and trial index."""
    return _mix64_int(seed + (trial + 1) * _GOLDEN)


def _keyed_uniform(key: int, step: int) -> float:
    """The uniform in [0, 1) at one step of the trial with RNG key ``key``."""
    return (_mix64_int(key + (step + 1) * _GOLDEN) >> 11) * 2.0**-53


def step_uniform(seed: int, trial: int, step: int) -> float:
    """The uniform in [0, 1) consumed at one step of one trial."""
    return _keyed_uniform(trial_key(seed, trial), step)


@dataclass(frozen=True)
class SimConfig:
    """Initial fortune, trial count, master seed and optional step horizon.

    ``horizon=None`` defaults to ``64 * M`` at run time.
    """

    x0: int
    trials: int
    seed: int
    horizon: int | None = None

    def __post_init__(self) -> None:
        if not _whole(self.x0, 0):
            raise ValueError(f"initial fortune must be a nonnegative integer, got {self.x0!r}")
        if not _whole(self.trials, 1):
            raise ValueError(f"trial count must be a positive integer, got {self.trials!r}")
        if not _whole(self.seed, 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.horizon is not None and not _whole(self.horizon, 1):
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of a batch of trials."""

    M: int
    x0: int
    trials: int
    seed: int
    horizon: int
    wins_I: int
    wins_II: int
    truncated: int
    total_steps: int
    max_steps: int

    @property
    def freq_I(self) -> float:
        return self.wins_I / self.trials

    @property
    def freq_II(self) -> float:
        return self.wins_II / self.trials

    @property
    def truncated_fraction(self) -> float:
        return self.truncated / self.trials

    @property
    def mean_steps(self) -> float:
        return self.total_steps / self.trials

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "M": self.M,
            "x0": self.x0,
            "trials": self.trials,
            "seed": self.seed,
            "horizon": self.horizon,
            "wins_I": self.wins_I,
            "wins_II": self.wins_II,
            "truncated": self.truncated,
            "freq_I": self.freq_I,
            "freq_II": self.freq_II,
            "truncated_fraction": self.truncated_fraction,
            "total_steps": self.total_steps,
            "mean_steps": self.mean_steps,
            "max_steps": self.max_steps,
        }


def _fortune_chain(
    table: WinProbTable, profile: Profile, config: SimConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The profile's chain indexed by fortune ``0..M``, and the step horizon.

    Up-probability, up and down targets come from the solver's chain; the
    boundaries self-loop with up-probability zero.  Rejects a start outside
    ``0..M`` and resolves the ``64 * M`` horizon default.
    """
    M = table.M
    chain = _chain_arrays(table, _stake_rows([profile.first]), _stake_rows([profile.second]))
    if not 0 <= config.x0 <= M:
        raise ValueError(f"initial fortune {config.x0} outside 0..{M}")
    p, up, dn = (row[0] for row in chain)
    horizon = config.horizon if config.horizon is not None else 64 * M
    return (
        np.concatenate(([0.0], p, [0.0])),
        np.concatenate(([0], up, [M])),
        np.concatenate(([0], dn, [M])),
        horizon,
    )


def _up_thresholds(p: np.ndarray) -> np.ndarray:
    """``ceil(p * 2**53)`` as uint64: the draws ``m = draw >> 11`` below it
    are exactly those whose uniform ``m * 2**-53`` is below ``p``.

    Scaling by a power of two is exact, so ``m * 2**-53 < p`` is
    ``m < p * 2**53``, which for an integer ``m`` is ``m < ceil(p * 2**53)``;
    for ``p`` in ``[0, 1]`` the threshold is at most ``2**53``.
    """
    return np.ceil(p * 2.0**53).astype(np.uint64)


def _run_chunk(
    p: np.ndarray,
    up: np.ndarray,
    dn: np.ndarray,
    M: int,
    x0: int,
    seed: int,
    start: int,
    stop: int,
    horizon: int,
) -> tuple[int, int, int, int, int]:
    """Simulate trials ``start..stop-1``; chunk boundaries cannot affect draws.

    Trials go in tiles of at most ``_BLOCK_ELEMENTS``, each walked in blocks
    of ``s`` steps over its ``n`` kept trials: ``s`` is the largest count
    with ``s * n`` within the chunk's element budget, but at most
    ``_BLOCK_STEPS`` and never past the horizon.  The budget is twice the
    tile, but at least a quarter of ``_BLOCK_ELEMENTS`` and at most all of
    it: a small chunk still walks long blocks, and the two buffers below,
    of ``budget + tile`` and ``budget`` elements, stay within a few arrays
    of the tile's size.

    One buffer holds a block's ``(s + 1, n)`` path of doubled fortunes: row
    0 is where the block starts, and rows ``1..s`` first take the draws of
    all its steps, mixed in one pass, which each step then overwrites with
    the fortunes it moves to.  Step ``j`` gathers the thresholds of
    :func:`_up_thresholds` into a spare row, compares them with the draws
    of row ``j + 1`` in integers, adds the up-bit to the doubled fortune in
    that spare row, and gathers the doubled target from the move table into
    row ``j + 1``.  So no step allocates (``take`` buffers its ``out``
    unless ``mode`` is ``"clip"``; the indices are always in range).

    Absorption is sticky (the boundaries self-loop with up-probability
    zero), so the accounting waits for the block's end: each entry of rows
    ``1..s`` that is not absorbed is one step taken (besides the absorbing
    step itself), the first row in which every ended trial is absorbed
    gives the longest game so far, and the last row gives the winners.
    That row becomes row 0 of the next block.  Ended trials are kept, and
    walk on the spot, until they are a ``_DROP_SHARE``-th of the kept
    trials; then they go, keys and fortunes.
    """
    # A start on a boundary ends at step 0, before any block.
    if x0 in (0, M):
        return (stop - start, 0, 0, 0, 0) if x0 == M else (0, stop - start, 0, 0, 0)
    # Indexed by doubled fortune: ``moves[2 * x + 1]`` is fortune x's doubled
    # up target and ``moves[2 * x]`` its doubled down one.
    moves = 2 * np.stack([dn, up], axis=1).ravel()
    threshold = np.zeros(2 * M + 2, dtype=np.uint64)
    threshold[::2] = _up_thresholds(p)
    absorbing = np.zeros(2 * M + 2, dtype=bool)
    absorbing[[0, 2 * M]] = True
    tile = min(stop - start, _BLOCK_ELEMENTS)
    budget = min(_BLOCK_ELEMENTS, max(2 * tile, _BLOCK_ELEMENTS // 4))
    fortunes = np.empty(budget + tile, dtype=np.int64)
    spares = np.empty(budget, dtype=np.uint64)
    bits = np.empty(tile, dtype=bool)
    wins_i = wins_ii = truncated = total_steps = max_steps = 0
    for lo in range(start, stop, tile):
        n = min(stop - lo, tile)
        keys = np.arange(lo + 1, lo + n + 1, dtype=np.uint64)
        keys *= _U64_GOLDEN
        keys += np.uint64(seed & _MASK)
        _mix64_array(keys, spares[:n])
        fortunes[:n] = 2 * x0
        # ``fortunes[:n]`` holds the kept trials' doubled fortunes after ``k``
        # steps; ``dead`` of them have absorbed.
        k = dead = 0
        while True:
            s = min(_BLOCK_STEPS, budget // n, horizon - k)
            path = fortunes[: (s + 1) * n].reshape(s + 1, n)
            draws = path[1:].view(np.uint64)
            spare = spares[: s * n].reshape(s, n)
            index = spare.view(np.int64)
            steps = np.arange(k + 1, k + s + 1, dtype=np.uint64)
            steps *= _U64_GOLDEN
            np.add(steps[:, None], keys, out=draws)
            _mix64_array(draws, spare)
            draws >>= _U64_11
            bit, state = bits[:n], path[0]
            for draw, gather, moved, after in zip(draws, spare, index, path[1:]):
                threshold.take(state, out=gather, mode="clip")
                np.less(draw, gather, out=bit)
                np.add(state, bit, out=moved)
                moves.take(moved, out=after, mode="clip")
                state = after
            ended = absorbing.take(path[1:], mode="clip")
            over = int(np.count_nonzero(ended[-1]))
            total_steps += s * n - int(np.count_nonzero(ended)) + over - dead
            if over > dead:
                row = bisect_left(range(s), over, key=lambda r: np.count_nonzero(ended[r]))
                max_steps = max(max_steps, k + 1 + row)
            k, dead = k + s, over
            done = k == horizon or dead == n
            if done or dead * _DROP_SHARE >= n:
                won = int(np.count_nonzero(path[s] == 2 * M))
                wins_i += won
                wins_ii += dead - won
                if done:
                    break
                live = np.logical_not(ended[-1], out=bit)
                keys = keys[live]
                n, dead = keys.size, 0
                np.compress(live, path[s], out=fortunes[:n])
            else:
                path[0] = path[s]
        truncated += n - dead
        if n > dead:
            max_steps = horizon
    return wins_i, wins_ii, truncated, total_steps, max_steps


def simulate(
    table: WinProbTable, profile: Profile, config: SimConfig, *, jobs: int = 1
) -> SimResult:
    """Play ``config.trials`` independent trials of the profile.

    ``jobs`` chunks the trial range, and at most one worker thread per CPU
    runs the chunks; the draws are keyed by absolute trial index, so the
    result is identical for every chunking.
    """
    if not _whole(jobs, 1):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    M = table.M
    p, up, dn, horizon = _fortune_chain(table, profile, config)

    chunk = -(-config.trials // jobs)  # ceil division
    bounds = [
        (lo, min(lo + chunk, config.trials))
        for lo in range(0, config.trials, chunk)
    ]
    if len(bounds) == 1:
        parts = [_run_chunk(p, up, dn, M, config.x0, config.seed, 0, config.trials, horizon)]
    else:
        workers = min(len(bounds), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda span: _run_chunk(
                        p, up, dn, M, config.x0, config.seed, span[0], span[1], horizon
                    ),
                    bounds,
                )
            )
    wins_i = sum(part[0] for part in parts)
    wins_ii = sum(part[1] for part in parts)
    truncated = sum(part[2] for part in parts)
    total_steps = sum(part[3] for part in parts)
    max_steps = max(part[4] for part in parts)
    return SimResult(
        M=M,
        x0=config.x0,
        trials=config.trials,
        seed=config.seed,
        horizon=horizon,
        wins_I=wins_i,
        wins_II=wins_ii,
        truncated=truncated,
        total_steps=total_steps,
        max_steps=max_steps,
    )


@dataclass(frozen=True)
class TrialPath:
    """One replayed trial: the stakes actually played, stage by stage.

    ``stages[n] = (n, x, a, b)`` records the fortune and both stakes at
    stage ``n``; ``final_state`` is the fortune after the last recorded
    stage (absorbing unless the trial was truncated).
    """

    trial: int
    stages: tuple[tuple[int, int, int, int], ...]
    final_state: int
    truncated: bool


def replay_trial(
    table: WinProbTable, profile: Profile, config: SimConfig, trial: int
) -> TrialPath:
    """Re-walk one trial with scalar arithmetic; bit-identical to the batch.

    The stakes are read back from the chain: ``a = x - dn[x]`` and
    ``b = up[x] - x``.
    """
    M = table.M
    if not (_whole(trial, 0) and trial < config.trials):
        raise ValueError(f"trial {trial!r} outside 0..{config.trials - 1}")
    p, up, dn, horizon = _fortune_chain(table, profile, config)
    p, up, dn = p.tolist(), up.tolist(), dn.tolist()
    # ``z`` runs through ``key + (step + 1) * _GOLDEN``; each step mixes it
    # as :func:`_keyed_uniform` does, and tests the uniform against ``p``.
    z = trial_key(config.seed, trial)
    x = config.x0
    stages: list[tuple[int, int, int, int]] = []
    for step in range(horizon):
        if x == 0 or x == M:
            break
        stages.append((step, x, x - dn[x], up[x] - x))
        z = (z + _GOLDEN) & _MASK
        w = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & _MASK
        x = up[x] if ((w ^ (w >> 31)) >> 11) * 2.0**-53 < p[x] else dn[x]
    return TrialPath(
        trial=trial,
        stages=tuple(stages),
        final_state=x,
        truncated=x not in (0, M),
    )


@dataclass(frozen=True)
class AgreementReport:
    """Empirical-versus-exact verdict for one starting fortune.

    ``valid`` is withdrawn (and ``passed`` forced false) when the truncated
    fraction exceeds its bound, since truncation biases the frequency.  For
    degenerate exact values (0 or 1) the z-score is undefined and the win
    count must match exactly.
    """

    empirical: float
    exact: float
    trials: int
    z: float | None
    truncated_fraction: float
    valid: bool
    passed: bool
    reason: str

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "empirical": self.empirical,
            "exact": self.exact,
            "trials": self.trials,
            "z": self.z,
            "truncated_fraction": self.truncated_fraction,
            "valid": self.valid,
            "passed": self.passed,
            "reason": self.reason,
        }


def compare_exact(
    result: SimResult,
    values: ValueVector,
    *,
    z_max: float = 4.0,
    max_truncated_fraction: float = 0.01,
) -> AgreementReport:
    """Score the empirical frequency of player I's wins against exact values.

    Too many truncated trials withdraw the verdict; the reason names the exact
    chance ``1 - q - t`` of never absorbing when that alone exceeds the bound.
    """
    if values.M != result.M:
        raise ValueError("value vector and simulation disagree on the total money")
    exact = values.q[result.x0]
    frac = result.truncated_fraction
    if frac > max_truncated_fraction:
        cycling = 1.0 - exact - values.t[result.x0]
        advice = (
            f"the chain never absorbs from x0 with probability {cycling:.6g}, so no horizon helps"
            if cycling > max_truncated_fraction
            else "raise the horizon"
        )
        return AgreementReport(
            empirical=result.freq_I,
            exact=exact,
            trials=result.trials,
            z=None,
            truncated_fraction=frac,
            valid=False,
            passed=False,
            reason=f"truncated fraction {frac:.6g} exceeds {max_truncated_fraction:.6g}; {advice}",
        )
    if exact in (0.0, 1.0):
        expected = int(round(exact)) * result.trials
        ok = result.wins_I == expected
        return AgreementReport(
            empirical=result.freq_I,
            exact=exact,
            trials=result.trials,
            z=None,
            truncated_fraction=frac,
            valid=True,
            passed=ok,
            reason="degenerate exact value: win count must match exactly"
            if ok
            else f"expected exactly {expected} wins for player I, got {result.wins_I}",
        )
    z = (result.freq_I - exact) / np.sqrt(exact * (1.0 - exact) / result.trials)
    z = float(z)
    ok = abs(z) <= z_max
    return AgreementReport(
        empirical=result.freq_I,
        exact=exact,
        trials=result.trials,
        z=z,
        truncated_fraction=frac,
        valid=True,
        passed=ok,
        reason=f"|z| = {abs(z):.4g} vs bound {z_max:g}",
    )
