"""Seeded simulation: determinism, replay audit, and exact cross-checks.

The per-trial/per-step uniforms come from the SplitMix64 output permutation
on counter sequences.  ``trial_key(0, 0)`` equals the first output of the
reference SplitMix64 stream seeded with 0, which is the published test
vector 0xE220A8397B1DCDAF — frozen below as an external oracle for the
mixer.  The z-score oracle: 51000 wins in 100000 trials against an exact
probability of 1/2 gives z = 0.01 / sqrt(0.25 / 100000) = 6.32455532...
"""

from __future__ import annotations

import dataclasses
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redblack as rb
from redblack import montecarlo
from redblack.game import Player
from redblack.montecarlo import _mix64_array, _mix64_int, _up_thresholds


def _profile(M: int, name: str = "bold-timid") -> rb.Profile:
    return rb.Profile.from_name(name, M)


def _walk(
    table: rb.WinProbTable, profile: rb.Profile, config: rb.SimConfig, trial: int
) -> rb.TrialPath:
    """Reference replay: each stage reads both stakes and the table, and
    draws ``step_uniform``."""
    M = table.M
    horizon = 64 * M if config.horizon is None else config.horizon
    x, stages = config.x0, []
    for step in range(horizon):
        if x in (0, M):
            break
        a, b = profile.first.bets[x], profile.second.bets[M - x]
        stages.append((step, x, a, b))
        x = x + b if rb.step_uniform(config.seed, trial, step) < table.prob(a, b) else x - a
    return rb.TrialPath(trial, tuple(stages), x, x not in (0, M))


class TestSplitMixDraws:
    def test_reference_output_vector(self) -> None:
        assert rb.trial_key(0, 0) == 0xE220A8397B1DCDAF

    def test_scalar_and_vector_mixers_agree(self) -> None:
        span = np.arange(0, 2**63, 2**57, dtype=np.uint64)
        mixed = span.copy()
        _mix64_array(mixed, np.empty_like(mixed))
        for raw, got in zip(span.tolist(), mixed.tolist()):
            assert _mix64_int(raw) == got

    def test_uniforms_live_in_the_half_open_unit_interval(self) -> None:
        draws = [rb.step_uniform(3, t, s) for t in range(40) for s in range(40)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert min(draws) < 0.05 and max(draws) > 0.95  # not degenerate

    @pytest.mark.parametrize(
        "p",
        [0.0, 2.0**-53, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 1.0],
    )
    def test_integer_threshold_equals_the_float_comparison(self, p: float) -> None:
        threshold = int(_up_thresholds(np.array([p]))[0])
        edges = [0, 1, threshold - 1, threshold, threshold + 1, 2**52, 2**53 - 1]
        block = np.array([m for m in edges if 0 <= m < 2**53], dtype=np.uint64)
        mixed = np.arange(1, 4097, dtype=np.uint64)
        _mix64_array(mixed, np.empty_like(mixed))
        draws = np.concatenate([block, mixed >> np.uint64(11)])
        assert np.array_equal(draws < threshold, draws * 2.0**-53 < p)

    def test_keys_are_distinct_across_trials(self) -> None:
        keys = {rb.trial_key(42, t) for t in range(10_000)}
        assert len(keys) == 10_000


class TestSimConfig:
    def test_defaults(self) -> None:
        config = rb.SimConfig(x0=2, trials=10, seed=1)
        assert config.horizon is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x0": -1, "trials": 1, "seed": 0},
            {"x0": 1.5, "trials": 1, "seed": 0},
            {"x0": 1, "trials": 0, "seed": 0},
            {"x0": 1, "trials": 1, "seed": -3},
            {"x0": 1, "trials": 1, "seed": 0, "horizon": 0},
            {"x0": True, "trials": 1, "seed": 0},
            {"x0": 1, "trials": True, "seed": 0},
            {"x0": 1, "trials": 1, "seed": False},
            {"x0": 1, "trials": 1, "seed": 0, "horizon": True},
        ],
    )
    def test_rejects_bad_fields(self, kwargs: dict) -> None:
        with pytest.raises(ValueError):
            rb.SimConfig(**kwargs)


class TestSimulate:
    def test_reruns_are_byte_identical(self, pow2_m4: rb.WinProbTable) -> None:
        config = rb.SimConfig(x0=2, trials=5_000, seed=99)
        first = rb.simulate(pow2_m4, _profile(4), config)
        second = rb.simulate(pow2_m4, _profile(4), config)
        assert first == second
        assert rb.canonical_json(first.to_json_dict()) == rb.canonical_json(
            second.to_json_dict()
        )

    def test_chunking_cannot_change_the_outcome(self, pow2_m4: rb.WinProbTable) -> None:
        config = rb.SimConfig(x0=2, trials=10_001, seed=5)
        assert rb.simulate(pow2_m4, _profile(4), config, jobs=1) == rb.simulate(
            pow2_m4, _profile(4), config, jobs=3
        )

    def test_a_seed_counts_modulo_two_to_the_64(self, pow2_m4: rb.WinProbTable) -> None:
        """Keys are sums mod 2**64, so a seed past it plays as its residue,
        in the batch and in every replay."""
        profile, config = _profile(4, "timid-timid"), rb.SimConfig(x0=2, trials=50, seed=2**64 + 5)
        residue = rb.simulate(pow2_m4, profile, dataclasses.replace(config, seed=5))
        assert rb.simulate(pow2_m4, profile, config) == dataclasses.replace(residue, seed=config.seed)
        _assert_replays_match_the_batch(pow2_m4, profile, config)

    def test_memory_does_not_grow_with_the_trial_count(self) -> None:
        """The walk goes tile by tile, so a batch of many short games never
        holds as much as one uint64 per trial at once."""
        table, trials = rb.power_family(150, 2), 12 * montecarlo._BLOCK_ELEMENTS
        profile, config = _profile(150, "bold-timid"), rb.SimConfig(x0=75, trials=trials, seed=4)
        tracemalloc.start()
        try:
            rb.simulate(table, profile, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * trials

    def test_seed_matters(self, pow2_m4: rb.WinProbTable) -> None:
        runs = {
            rb.simulate(pow2_m4, _profile(4), rb.SimConfig(x0=2, trials=2_000, seed=s)).wins_I
            for s in (1, 2, 3)
        }
        assert len(runs) > 1

    def test_start_at_zero_is_an_instant_loss(self, pow2_m4: rb.WinProbTable) -> None:
        result = rb.simulate(pow2_m4, _profile(4), rb.SimConfig(x0=0, trials=500, seed=1))
        assert result.wins_II == 500 and result.wins_I == 0
        assert result.total_steps == 0 and result.max_steps == 0

    def test_start_at_goal_is_an_instant_win(self, pow2_m4: rb.WinProbTable) -> None:
        result = rb.simulate(pow2_m4, _profile(4), rb.SimConfig(x0=4, trials=500, seed=1))
        assert result.wins_I == 500 and result.truncated == 0

    def test_tiny_horizon_truncates_slow_play(self, pow2_m4: rb.WinProbTable) -> None:
        config = rb.SimConfig(x0=2, trials=300, seed=8, horizon=1)
        result = rb.simulate(pow2_m4, _profile(4, "timid-timid"), config)
        # one unit step from fortune 2 can only reach 1 or 3, never a boundary
        assert result.truncated == 300 and result.truncated_fraction == 1.0
        assert result.wins_I == result.wins_II == 0
        assert result.max_steps == 1 and result.mean_steps == 1.0

    @pytest.mark.parametrize("name", ["bold-timid", "timid-timid", "bold-bold"])
    def test_every_trial_is_accounted_for(self, name: str, el_m4: rb.WinProbTable) -> None:
        result = rb.simulate(el_m4, _profile(4, name), rb.SimConfig(x0=2, trials=4_000, seed=2))
        assert result.wins_I + result.wins_II + result.truncated == 4_000
        assert result.max_steps <= result.horizon

    def test_hopeless_start_always_loses(self, el_m4: rb.WinProbTable) -> None:
        result = rb.simulate(el_m4, _profile(4), rb.SimConfig(x0=1, trials=1_000, seed=3))
        assert result.wins_II == 1_000  # P(1, 1) = 0: the single stage drops to 0
        assert result.total_steps == 1_000

    def test_default_horizon_is_proportional_to_money(self, pow2_m4: rb.WinProbTable) -> None:
        result = rb.simulate(pow2_m4, _profile(4), rb.SimConfig(x0=2, trials=10, seed=1))
        assert result.horizon == 64 * 4

    def test_input_validation(self, pow2_m4: rb.WinProbTable, pow2_m3: rb.WinProbTable) -> None:
        config = rb.SimConfig(x0=2, trials=10, seed=1)
        with pytest.raises(ValueError, match="total money"):
            rb.simulate(pow2_m3, _profile(4), config)
        with pytest.raises(ValueError, match="outside"):
            rb.simulate(pow2_m4, _profile(4), rb.SimConfig(x0=9, trials=10, seed=1))
        with pytest.raises(ValueError, match="jobs"):
            rb.simulate(pow2_m4, _profile(4), config, jobs=0)

    @pytest.mark.parametrize("jobs", [0, -2, 2.5, True, "2", None])
    def test_jobs_are_checked_before_any_work(
        self, jobs: object, pow2_m3: rb.WinProbTable
    ) -> None:
        # The profile is for other money, so any work would raise first.
        with pytest.raises(ValueError, match="jobs"):
            rb.simulate(pow2_m3, _profile(4), rb.SimConfig(x0=2, trials=10, seed=1), jobs=jobs)

    def test_worker_threads_are_capped_at_the_cpu_count(
        self, pow2_m4: rb.WinProbTable, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        pools: list[int] = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers: int) -> None:
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        config = rb.SimConfig(x0=2, trials=64, seed=4)
        single = rb.simulate(pow2_m4, _profile(4), config)
        assert rb.simulate(pow2_m4, _profile(4), config, jobs=100_000) == single
        assert rb.simulate(pow2_m4, _profile(4), config, jobs=2) == single
        assert pools == [3, 2]

    # Table, profile, config and the frozen (wins_I, wins_II, truncated,
    # total_steps, max_steps); the second case truncates one trial.
    FROZEN = {
        "bold-timid-150": (
            lambda: rb.power_family(150, 2),
            "bold-timid",
            rb.SimConfig(x0=75, trials=200_000, seed=12345),
            (49738, 150262, 0, 7559835, 75),
        ),
        "fair-timid-timid-40": (
            lambda: rb.power_family(40, 1),
            "timid-timid",
            rb.SimConfig(x0=20, trials=3000, seed=7),
            (1539, 1460, 1, 1210280, 2560),
        ),
    }

    @pytest.mark.parametrize("case", sorted(FROZEN))
    def test_frozen_results_for_every_chunking(self, case: str) -> None:
        make, name, config, expected = self.FROZEN[case]
        table = make()
        for jobs in (1, 2, 3):
            result = rb.simulate(table, _profile(table.M, name), config, jobs=jobs)
            got = (
                result.wins_I,
                result.wins_II,
                result.truncated,
                result.total_steps,
                result.max_steps,
            )
            assert got == expected, jobs


def _assert_replays_match_the_batch(
    table: rb.WinProbTable, profile: rb.Profile, config: rb.SimConfig
) -> None:
    batch = rb.simulate(table, profile, config)
    paths = [rb.replay_trial(table, profile, config, t) for t in range(config.trials)]
    assert sum(p.final_state == table.M for p in paths) == batch.wins_I
    assert sum(p.final_state == 0 for p in paths) == batch.wins_II
    assert sum(p.truncated for p in paths) == batch.truncated
    assert sum(len(p.stages) for p in paths) == batch.total_steps
    assert max(len(p.stages) for p in paths) == batch.max_steps


class TestReplayTrial:
    def test_replays_reproduce_the_batch_aggregate(self, pow2_m4: rb.WinProbTable) -> None:
        config = rb.SimConfig(x0=2, trials=200, seed=11)
        _assert_replays_match_the_batch(pow2_m4, _profile(4, "timid-timid"), config)

    @pytest.mark.parametrize(
        "M,name,x0",
        [(41, "bold-timid", 20), (41, "bold-timid", 39), (60, "bold-bold", 31), (60, "bold-bold", 45)],
    )
    def test_replays_match_the_batch_on_exact_zero_and_one_steps(
        self, M: int, name: str, x0: int
    ) -> None:
        """Exp-diff gives bold-timid steps of up-probability exactly 1 from
        fortune 38 and bold-bold steps of exactly 0 (equal stakes): there
        the integer threshold is 2**53 or 0."""
        table = rb.exp_difference_table(M)
        profile = _profile(M, name)
        config = rb.SimConfig(x0=x0, trials=300, seed=5, horizon=200)
        rise = montecarlo._fortune_chain(table, profile, config)[0]
        assert {0.0, 1.0} & set(rise[1:M].tolist())
        _assert_replays_match_the_batch(table, profile, config)

    def test_stage_records_fortune_and_both_stakes(self, pow2_m4: rb.WinProbTable) -> None:
        profile = _profile(4)
        path = rb.replay_trial(pow2_m4, profile, rb.SimConfig(x0=3, trials=1, seed=0), 0)
        stage, fortune, stake_I, stake_II = path.stages[0]
        assert (stage, fortune) == (0, 3)
        assert stake_I == profile.first.bets[3]
        assert stake_II == profile.second.bets[1]
        assert [s[0] for s in path.stages] == list(range(len(path.stages)))
        assert not path.truncated and path.final_state in (0, 4)

    def test_truncation_is_flagged(self, pow2_m4: rb.WinProbTable) -> None:
        config = rb.SimConfig(x0=2, trials=1, seed=11, horizon=1)
        path = rb.replay_trial(pow2_m4, _profile(4, "timid-timid"), config, 0)
        assert path.truncated and len(path.stages) == 1
        assert path.final_state in (1, 3)

    @pytest.mark.parametrize("name,x0,horizon", [
        ("timid-timid", 20, None), ("bold-timid", 30, None), ("timid-timid", 20, 40),
    ])
    def test_equals_a_walk_drawing_step_uniform(self, name: str, x0: int, horizon) -> None:
        """The once-per-trial key reproduces a walk that draws
        ``step_uniform`` afresh and looks up the table at every stage."""
        table = rb.power_family(40, 1)
        profile = _profile(40, name)
        config = rb.SimConfig(x0=x0, trials=6, seed=123, horizon=horizon)
        for trial in range(config.trials):
            assert rb.replay_trial(table, profile, config, trial) == _walk(
                table, profile, config, trial
            )

    def test_trial_must_exist(self, pow2_m4: rb.WinProbTable) -> None:
        config = rb.SimConfig(x0=2, trials=5, seed=0)
        for trial in (5, -1, True, False, 1.0, "1", None):
            with pytest.raises(ValueError, match="trial"):
                rb.replay_trial(pow2_m4, _profile(4), config, trial)

    def test_start_must_lie_in_range(self, pow2_m4: rb.WinProbTable) -> None:
        config = rb.SimConfig(x0=5, trials=5, seed=0)
        with pytest.raises(ValueError, match="outside"):
            rb.replay_trial(pow2_m4, _profile(4), config, 0)


@st.composite
def _small_batches(draw):
    """A shipped table at M <= 12, some entries forced to exactly 0 or 1 (so
    that some chains cycle), a random profile whose stakes may be capped
    (so that some games are long and few trials end per step), any start, a
    horizon that is seldom a multiple of a block, and a tile budget on
    either side of the trial count."""
    M = draw(st.integers(2, 12))
    table = draw(st.sampled_from([
        rb.power_family(M, 1), rb.power_family(M, 2), rb.min_exp_table(M, 1.0),
        rb.exp_difference_table(M),
    ]))
    if draw(st.booleans()):
        for a in range(1, M):
            for b in range(1, M):
                forced = draw(st.sampled_from([0.0, 1.0, None, None]))
                if forced is not None:
                    table = table.with_entry(a, b, forced)
    cap = draw(st.sampled_from([1, 2, M]))

    def strategy(player: Player) -> rb.StationaryStrategy:
        stakes = (draw(st.integers(1, min(x, cap))) for x in range(1, M))
        return rb.StationaryStrategy(player, (0, *stakes, 0))

    config = rb.SimConfig(
        x0=draw(st.integers(0, M)),
        trials=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**40)),
        horizon=draw(st.one_of(st.none(), st.integers(1, 200))),
    )
    budget = draw(st.sampled_from([16, 64, montecarlo._BLOCK_ELEMENTS]))
    return table, rb.Profile(strategy(Player.ONE), strategy(Player.TWO)), config, budget


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(batch=_small_batches())
# Two tiles of long fair games: few trials end per step, so ended trials
# stay in the walk across blocks, and the horizon cuts a block short.
@example(batch=(
    rb.power_family(12, 1), rb.Profile.from_name("timid-timid", 12),
    rb.SimConfig(x0=6, trials=100, seed=1, horizon=97), 64,
))
def test_batches_agree_across_chunkings_and_with_their_replays(batch) -> None:
    """The block walk's tiles, block boundaries and horizon cut cannot
    change a result: every chunking gives the same ``SimResult``, and the
    scalar replays of all trials add up to it."""
    table, profile, config, budget = batch
    with mock.patch.object(montecarlo, "_BLOCK_ELEMENTS", budget):
        results = [rb.simulate(table, profile, config, jobs=jobs) for jobs in (1, 2, 3)]
        assert results[1] == results[0] and results[2] == results[0]
        _assert_replays_match_the_batch(table, profile, config)


def _manual_result(wins_I: int, trials: int, truncated: int = 0, **kw) -> rb.SimResult:
    return rb.SimResult(
        M=kw.get("M", 2),
        x0=kw.get("x0", 1),
        trials=trials,
        seed=0,
        horizon=128,
        wins_I=wins_I,
        wins_II=trials - wins_I - truncated,
        truncated=truncated,
        total_steps=trials,
        max_steps=1,
    )


class TestCompareExact:
    def test_frozen_z_score(self) -> None:
        values = rb.ValueVector(2, (0.0, 0.5, 1.0), (1.0, 0.5, 0.0))
        report = rb.compare_exact(_manual_result(51_000, 100_000), values)
        assert report.valid and not report.passed
        assert report.z == pytest.approx(6.324555320336759, abs=1e-9)

    def test_truncation_withdraws_the_verdict(self) -> None:
        values = rb.ValueVector(2, (0.0, 0.5, 1.0), (1.0, 0.5, 0.0))
        report = rb.compare_exact(_manual_result(49_000, 100_000, truncated=2_000), values)
        assert not report.valid and not report.passed
        assert report.z is None and report.reason.endswith("; raise the horizon")

    def test_truncation_on_a_cycling_chain_names_the_chance_of_never_absorbing(
        self, cycle_m4: rb.WinProbTable, cycle_profile: rb.Profile
    ) -> None:
        values = rb.hitting_values(cycle_m4, cycle_profile)
        for x0 in (1, 2, 3):
            config = rb.SimConfig(x0=x0, trials=200, seed=5, horizon=50)
            report = rb.compare_exact(rb.simulate(cycle_m4, cycle_profile, config), values)
            assert not report.valid and not report.passed
            assert report.reason == (
                "truncated fraction 1 exceeds 0.01; "
                "the chain never absorbs from x0 with probability 1, so no horizon helps"
            )

    def test_degenerate_exact_value_requires_exact_counts(self) -> None:
        values = rb.ValueVector(2, (0.0, 1.0, 1.0), (1.0, 0.0, 0.0))
        assert rb.compare_exact(_manual_result(1_000, 1_000), values).passed
        report = rb.compare_exact(_manual_result(999, 1_000), values)
        assert report.valid and not report.passed and report.z is None

    def test_money_mismatch(self) -> None:
        values = rb.ValueVector(3, (0.0, 0.1, 0.4, 1.0), (1.0, 0.9, 0.6, 0.0))
        with pytest.raises(ValueError, match="total money"):
            rb.compare_exact(_manual_result(10, 100), values)

    def test_live_simulation_agrees_with_the_linear_solve(
        self, pow1_m4: rb.WinProbTable
    ) -> None:
        profile = _profile(4, "timid-timid")
        config = rb.SimConfig(x0=2, trials=50_000, seed=7)
        result = rb.simulate(pow1_m4, profile, config)
        report = rb.compare_exact(result, rb.hitting_values(pow1_m4, profile))
        assert report.valid and report.passed
        assert report.z is not None and abs(report.z) <= 4.0

    def test_bold_timid_frequency_tracks_the_product_form(
        self, pow2_m3: rb.WinProbTable
    ) -> None:
        config = rb.SimConfig(x0=1, trials=50_000, seed=13)
        result = rb.simulate(pow2_m3, _profile(3), config)
        report = rb.compare_exact(result, rb.bold_timid_values(rb.unit_bet_curve(pow2_m3)))
        assert report.passed
        assert result.freq_I == pytest.approx(1 / 9, abs=0.006)
