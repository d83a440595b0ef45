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
"""

from __future__ import annotations

import os
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
        if not (isinstance(self.x0, int) and self.x0 >= 0):
            raise ValueError(f"initial fortune must be a nonnegative integer, got {self.x0!r}")
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError(f"trial count must be a positive integer, got {self.trials!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.horizon is not None and not (
            isinstance(self.horizon, int) and self.horizon >= 1
        ):
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
    return np.pad(p, 1), np.r_[0, up, M], np.r_[0, dn, M], horizon


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

    Only the live trials' keys and fortunes are kept: a trial is dropped,
    and its step count added to the total, at the step it absorbs.  Each
    step mixes its draws in place in two buffers sliced to the live count,
    and compares them with :func:`_up_thresholds` in integers.
    """
    keys = np.arange(start, stop, dtype=np.uint64)
    draws = np.empty_like(keys)
    spare = np.empty_like(keys)
    keys += np.uint64(1)
    keys *= _U64_GOLDEN
    keys += np.uint64(seed)
    _mix64_array(keys, spare)
    threshold = _up_thresholds(p)
    states = np.full(stop - start, x0, dtype=np.int64)
    absorbing = np.zeros(M + 1, dtype=bool)
    absorbing[[0, M]] = True
    # ``moves[2 * x + 1]`` is fortune x's up target, ``moves[2 * x]`` its down one.
    moves = np.stack([dn, up], axis=1).ravel()
    wins_i = wins_ii = total_steps = max_steps = 0
    for k in range(horizon + 1):
        # ``states`` holds the live trials' fortunes after ``k`` steps.
        over = absorbing[states]
        if over.any():
            ended = states[over]
            won = int(np.count_nonzero(ended))
            wins_i += won
            wins_ii += ended.size - won
            total_steps += k * ended.size
            max_steps = k
            live = ~over
            states, keys = states[live], keys[live]
            draws, spare = draws[: states.size], spare[: states.size]
        if k == horizon or not states.size:
            break
        np.add(keys, np.uint64((k + 1) * _GOLDEN & _MASK), out=draws)
        _mix64_array(draws, spare)
        draws >>= _U64_11
        threshold.take(states, out=spare)
        states = moves[2 * states + (draws < spare)]
    truncated = states.size
    if truncated:
        total_steps += horizon * truncated
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
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
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
    if not 0 <= trial < config.trials:
        raise ValueError(f"trial {trial} outside 0..{config.trials - 1}")
    p, up, dn, horizon = _fortune_chain(table, profile, config)
    p, up, dn = p.tolist(), up.tolist(), dn.tolist()
    key = trial_key(config.seed, trial)
    x = config.x0
    stages: list[tuple[int, int, int, int]] = []
    for step in range(horizon):
        if x in (0, M):
            break
        stages.append((step, x, x - dn[x], up[x] - x))
        x = up[x] if _keyed_uniform(key, step) < p[x] else dn[x]
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
