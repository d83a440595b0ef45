"""Exact values, best responses, and equilibrium certification.

Hand-derived reference values frozen below:

* power exponent 2, money 3: curve (0, 1/4, 4/9, 9/16); bold-versus-timid
  values telescope to q = (0, 1/9, 4/9, 1) since q(x) = (x/M)^2.
* timid-versus-timid on the same table is a birth-death walk with up
  probability 1/4 everywhere, i.e. classic gambler's ruin with odds ratio
  r = (3/4)/(1/4) = 3: q(x) = (1 - 3^x)/(1 - 3^3), so q(1) = 2/26 = 1/13
  and q(2) = 8/26 = 4/13.
* min-exp rate 1, money 4: the unit-bet curve is flat at c = 1/e, so the
  all-unit-stake response of player I against a timid player II satisfies
  v1 = c v2, v2 = c v3 + (1-c) v1, v3 = c + (1-c) v2, whose solution is
  v3 = c (1 - c + c^2) / (1 - 2c + 2c^2) ~ 0.5278 -- strictly better than
  the bold value q(3) = c ~ 0.3679, so bold-versus-timid is refuted there.
* the ``cycle_m4`` fixture's doctored entries make the profile with stakes
  (0, 1, 1, 2, 0) on both sides loop 1 -> 3 -> 1 forever, giving both
  players exact value zero on the interior.

``_oracle_values`` keeps the per-pair path that the batched engine
replaced: a scalar chain, a Python reachability fixpoint and a system
assembled entry by entry.  The engine must reproduce it bit for bit.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import tracemalloc
import weakref
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redblack as rb
from oracles import DEFAULT_TIE_TOL, enumerate_best_response, pair_values
from redblack import _enumeration, solver
from redblack._enumeration import _pair_values
from redblack.cli import main
from redblack.game import Player
from redblack.reports import DEFAULT_TOL
from redblack.solver import (
    _IMPROVE_MARGIN,
    _chain_arrays,
    _iterate_chain,
    _linear_system,
    _stake_rows,
)


def _step_laws(M: int, p: np.ndarray, up: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """Chain arrays scattered into step laws: ``step[..., x - 1, y]`` is the
    chance of moving from interior fortune ``x`` to fortune ``y``."""
    step = np.zeros((p.size, M + 1))
    at = np.arange(p.size)
    step[at, up.ravel()] = p.ravel()
    step[at, dn.ravel()] = 1.0 - p.ravel()
    return step.reshape(*p.shape, M + 1)


def _product_values(
    table: rb.WinProbTable, firsts: np.ndarray, seconds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both players' value tensors ``[i, j, x]`` of first ``i`` against
    second ``j``, from the oracle :func:`pair_values` of the product's pairs."""
    B, K = len(firsts), len(seconds)
    rows, cols = np.repeat(np.arange(B), K), np.tile(np.arange(K), B)
    values = pair_values(table, firsts, seconds, rows, cols)
    VI, VII = values.reshape(B, K, 2, -1).transpose(2, 0, 1, 3)
    return VI, VII


def _timid_timid(M: int) -> rb.Profile:
    return rb.Profile(rb.timid_strategy(Player.ONE, M), rb.timid_strategy(Player.TWO, M))


def _bold_timid(M: int) -> rb.Profile:
    return rb.Profile(rb.bold_strategy(Player.ONE, M), rb.timid_strategy(Player.TWO, M))


def _bold_bold(M: int) -> rb.Profile:
    return rb.Profile(rb.bold_strategy(Player.ONE, M), rb.bold_strategy(Player.TWO, M))


def _oracle_absorbs(M: int, p: np.ndarray, up: np.ndarray, dn: np.ndarray) -> bool:
    reached = [False] * (M + 1)
    reached[0] = reached[M] = True
    changed = True
    while changed:
        changed = False
        for i in range(M - 1):
            if reached[i + 1]:
                continue
            if (p[i] > 0.0 and reached[up[i]]) or (p[i] < 1.0 and reached[dn[i]]):
                reached[i + 1] = True
                changed = True
    return all(reached)


def _oracle_values(
    table: rb.WinProbTable, first: rb.StationaryStrategy, second: rb.StationaryStrategy
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Both players' value vectors of one profile and whether its chain absorbs."""
    M = table.M
    xs = range(1, M)
    p = np.array([table.array[first.bets[x], second.bets[M - x]] for x in xs])
    up = np.array([x + second.bets[M - x] for x in xs])
    dn = np.array([x - first.bets[x] for x in xs])
    if not _oracle_absorbs(M, p, up, dn):
        q, t = _iterate_chain(M, p, up, dn)[0]
        return q, t, False
    n = M - 1
    A = np.zeros((n, n))
    cI = np.zeros(n)
    cII = np.zeros(n)
    for i in range(n):
        for prob, target in ((p[i], up[i]), (1.0 - p[i], dn[i])):
            if 0 < target < M:
                A[i, target - 1] += prob
            elif target == M:
                cI[i] += prob
            else:
                cII[i] += prob
    solution = np.linalg.solve(np.eye(n) - A, np.stack([cI, cII], axis=1))
    q = np.array([0.0, *np.clip(solution[:, 0], 0.0, 1.0), 1.0])
    t = np.array([1.0, *np.clip(solution[:, 1], 0.0, 1.0), 0.0])
    return q, t, True


MAKERS = {
    "pow1": lambda M: rb.power_family(M, 1),
    "pow2": lambda M: rb.power_family(M, 2),
    "min_exp": lambda M: rb.min_exp_table(M, 1.0),
    "el": rb.exp_difference_table,
}

# (maker, M) pairs; "cycle" is the ``cycle_m4`` fixture, whose cycling
# pairs take the pinned solve inside enumeration and the value iteration in
# the oracle, and their values (0, 1/2 and 1) must agree to the bit.
ORACLE_CASES = [(maker, M) for maker in MAKERS for M in (3, 4, 5)] + [("cycle", 4)]


def _oracle_table(maker: str, M: int, request) -> rb.WinProbTable:
    if maker == "cycle":
        return request.getfixturevalue("cycle_m4")
    return MAKERS[maker](M)


def _against(opponent: rb.StationaryStrategy, response: rb.StationaryStrategy) -> rb.Profile:
    """The profile the response plays against the opponent."""
    if opponent.owner is Player.TWO:
        return rb.Profile(response, opponent)
    return rb.Profile(opponent, response)


def _unit_except(player: Player, M: int, stakes: dict[int, int]) -> rb.StationaryStrategy:
    """Stake 1 at every own fortune except those keyed in ``stakes``."""
    return rb.StationaryStrategy(player, (0, *(stakes.get(x, 1) for x in range(1, M)), 0))


@st.composite
def _random_games(draw):
    """A ``MAKERS`` table at M <= 30, a random opponent and a random response."""
    M = draw(st.integers(2, 30))
    table = MAKERS[draw(st.sampled_from(sorted(MAKERS)))](M)
    owner = draw(st.sampled_from([Player.ONE, Player.TWO]))

    def strategy(player: Player) -> rb.StationaryStrategy:
        return rb.StationaryStrategy(player, (0, *(draw(st.integers(1, t)) for t in range(1, M)), 0))

    return table, strategy(owner), strategy(owner.other)


class TestValueVector:
    def test_valid_vector(self) -> None:
        v = rb.ValueVector(2, (0.0, 0.5, 1.0), (1.0, 0.3, 0.0))
        assert v.q[1] == 0.5 and v.t[1] == 0.3

    def test_wrong_length(self) -> None:
        with pytest.raises(ValueError, match="3 values"):
            rb.ValueVector(2, (0.0, 1.0), (1.0, 0.5, 0.0))

    def test_player_one_boundaries(self) -> None:
        with pytest.raises(ValueError, match="player I"):
            rb.ValueVector(2, (0.1, 0.5, 1.0), (1.0, 0.5, 0.0))

    def test_player_two_boundaries(self) -> None:
        with pytest.raises(ValueError, match="player II"):
            rb.ValueVector(2, (0.0, 0.5, 1.0), (1.0, 0.5, 0.1))

    def test_range(self) -> None:
        with pytest.raises(ValueError, match="outside"):
            rb.ValueVector(2, (0.0, 1.5, 1.0), (1.0, 0.5, 0.0))

    @pytest.mark.parametrize(
        "q,t,fortune",
        [
            ((0.0, 0.5, 0.25, 1.0), (1.0, 0.5, -1e-300, 0.0), 2),
            ((0.0, 0.5, 1.0 + 2**-52, 1.0), (1.0, 0.5, 0.0, 0.0), 2),
            ((0.0, math.nan, 0.5, 1.0), (1.0, 0.5, 0.5, 0.0), 1),
            ((0.0, 0.5, 0.5, 1.0), (1.0, 0.5, math.nan, 0.0), 2),
        ],
    )
    def test_range_error_names_the_first_bad_fortune(self, q, t, fortune: int) -> None:
        with pytest.raises(ValueError, match=f"value at fortune {fortune} outside"):
            rb.ValueVector(3, q, t)

    def test_json_shape(self) -> None:
        payload = rb.ValueVector(2, (0.0, 0.5, 1.0), (1.0, 0.5, 0.0)).to_json_dict()
        assert payload == {"M": 2, "player_I": [0.0, 0.5, 1.0], "player_II": [1.0, 0.5, 0.0]}


class TestBoldTimidValues:
    def test_power_two_money_three_frozen(self, pow2_m3: rb.WinProbTable) -> None:
        values = rb.bold_timid_values(rb.unit_bet_curve(pow2_m3))
        for got, want in zip(values.q, (0.0, 1 / 9, 4 / 9, 1.0)):
            assert got == pytest.approx(want, abs=1e-15)

    def test_matches_running_product(self, min_exp_m4: rb.WinProbTable) -> None:
        curve = rb.unit_bet_curve(min_exp_m4)
        values = rb.bold_timid_values(curve)
        for x in range(1, curve.M + 1):
            oracle = math.prod(curve[i] for i in range(x, curve.M))
            assert values.q[x] == pytest.approx(oracle, abs=1e-15)

    @pytest.mark.parametrize("M", range(2, 13))
    def test_power_one_telescopes_to_x_over_M(self, M: int) -> None:
        values = rb.bold_timid_values(rb.unit_bet_curve(rb.power_family(M, 1)))
        for x in range(M + 1):
            assert values.q[x] == pytest.approx(x / M, abs=1e-12)

    def test_complement(self, pow2_m4: rb.WinProbTable) -> None:
        values = rb.bold_timid_values(rb.unit_bet_curve(pow2_m4))
        assert all(t == 1.0 - q for q, t in zip(values.q, values.t))

    def test_rejects_curve_with_live_zero_fortune(self) -> None:
        with pytest.raises(ValueError, match="vanish"):
            rb.bold_timid_values(rb.UnitBetCurve(2, (0.5, 0.5, 1.0)))


class TestHittingValues:
    @pytest.mark.parametrize("maker", ["pow1", "pow2", "min_exp", "el"])
    def test_bold_timid_agrees_with_closed_form(self, maker: str, request) -> None:
        table = request.getfixturevalue(f"{maker}_m4")
        chain = rb.hitting_values(table, _bold_timid(4))
        closed = rb.bold_timid_values(rb.unit_bet_curve(table))
        for x in range(5):
            assert chain.q[x] == pytest.approx(closed.q[x], abs=1e-12)
            assert chain.t[x] == pytest.approx(closed.t[x], abs=1e-12)

    def test_timid_timid_is_gamblers_ruin(self, pow2_m3: rb.WinProbTable) -> None:
        values = rb.hitting_values(pow2_m3, _timid_timid(3))
        assert values.q[1] == pytest.approx(1 / 13, abs=1e-12)
        assert values.q[2] == pytest.approx(4 / 13, abs=1e-12)
        assert values.t[1] == pytest.approx(12 / 13, abs=1e-12)

    @pytest.mark.parametrize("profile_maker", [_bold_timid, _timid_timid, _bold_bold])
    def test_absorbing_chains_split_the_stake(
        self, profile_maker, pow2_m4: rb.WinProbTable
    ) -> None:
        values = rb.hitting_values(pow2_m4, profile_maker(4))
        for x in range(5):
            assert values.q[x] + values.t[x] == pytest.approx(1.0, abs=1e-10)

    def test_iterate_agrees_with_solve(self) -> None:
        table = rb.power_family(5, 2)
        profile = _timid_timid(5)
        solved = rb.hitting_values(table, profile)
        iterated = rb.hitting_values(table, profile, method="iterate")
        for x in range(6):
            assert iterated.q[x] == pytest.approx(solved.q[x], abs=1e-10)
            assert iterated.t[x] == pytest.approx(solved.t[x], abs=1e-10)

    def test_unknown_method(self, pow2_m3: rb.WinProbTable) -> None:
        for method in ("guess", "solve"):
            with pytest.raises(ValueError, match="unknown method"):
                rb.hitting_values(pow2_m3, _timid_timid(3), method=method)

    def test_cycling_profile_is_not_absorbing(
        self, cycle_m4: rb.WinProbTable, cycle_profile: rb.Profile
    ) -> None:
        assert not rb.absorption_certain(cycle_m4, cycle_profile)
        assert rb.absorption_certain(cycle_m4, _timid_timid(4))

    def test_cycling_profile_auto_values_are_exact_zeros(
        self, cycle_m4: rb.WinProbTable, cycle_profile: rb.Profile
    ) -> None:
        values = rb.hitting_values(cycle_m4, cycle_profile)
        assert values.q == (0.0, 0.0, 0.0, 0.0, 1.0)
        assert values.t == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_no_value_is_negative_zero(self, tmp_path, monkeypatch) -> None:
        """LAPACK returns -0.0 on some fortunes of the fourth seed-41 profile
        on exp-diff at M = 41; neither the values nor the artifact keep it."""
        rng = random.Random(41)
        for _ in range(4):
            stakes = [[0, *(rng.randint(1, x) for x in range(1, 41)), 0] for _ in range(2)]
        payload = {"M": 41, "player_I": stakes[0], "player_II": stakes[1]}
        values = rb.hitting_values(rb.exp_difference_table(41), rb.Profile.from_json_dict(payload))
        assert 0.0 in values.q
        assert all(math.copysign(1.0, v) == 1.0 for v in values.q + values.t)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "profile.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["gen", "--M", "41", "--family", "exp-diff", "--out", "table.json"]) == 0
        argv = ["solve", "--table", "table.json", "--profile", "profile.json", "--out", "solve.json"]
        assert main(argv) == 0
        assert "-0.0" not in (tmp_path / "solve.json").read_text(encoding="utf-8")

    def test_iteration_diagnostics(self, pow2_m3: rb.WinProbTable) -> None:
        """Fair timid-timid at M = 40 takes 7 901 sweeps for either goal."""
        u, sweeps = _iterate_chain(3, *_one_chain(pow2_m3, _timid_timid(3)))
        assert (sweeps > 1).all()
        assert u[0, 1] == pytest.approx(1 / 13, abs=1e-10)
        assert u[1, 1] == pytest.approx(12 / 13, abs=1e-10)
        M = 40
        u, sweeps = _iterate_chain(M, *_one_chain(rb.power_family(M, 1), _timid_timid(M)))
        assert sweeps.tolist() == [7901, 7901]
        fair = np.arange(M + 1) / M
        assert np.abs(u[0] - fair).max() < 1e-10
        assert np.abs(u[1] - fair[::-1]).max() < 1e-10

    def test_goals_settling_apart_keep_their_own_sweeps(self) -> None:
        """On power p = 2 at M = 10, timid-timid settles at sweep 132 toward
        M and 161 toward 0: the first goal keeps its state and count while
        the other sweeps on."""
        M = 10
        chain = _one_chain(rb.power_family(M, 2), _timid_timid(M))
        values, sweeps = _iterate_chain(M, *chain)
        assert sweeps.tolist() == [132, 161]
        expected, counts = _oracle_iterate(M, *chain)
        assert values.tobytes() == expected.tobytes()
        assert np.array_equal(sweeps, counts)


def _one_chain(
    table: rb.WinProbTable, profile: rb.Profile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(M - 1,)`` chain arrays of one profile."""
    chain = _chain_arrays(table, _stake_rows([profile.first]), _stake_rows([profile.second]))
    return tuple(a[0] for a in chain)


def _oracle_iterate(
    M: int, p: np.ndarray, up: np.ndarray, dn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The value iteration of one chain toward M, then toward 0, each goal
    alone and tested after every sweep."""
    values = np.zeros((2, M + 1))
    sweeps = np.zeros(2, dtype=np.int64)
    for row, goal in enumerate((M, 0)):
        u = values[row]
        u[goal] = 1.0
        for sweep in range(1, solver.DEFAULT_MAX_SWEEPS + 1):
            fresh = p * u[up] + (1.0 - p) * u[dn]
            change = fresh - u[1:M]
            u[1:M] = fresh
            if change.max() < solver.DEFAULT_VI_TOL:
                break
        else:
            raise RuntimeError("value iteration did not settle")
        sweeps[row] = sweep
    return values, sweeps


@st.composite
def _random_chains(draw):
    """One random chain on a ``MAKERS`` table at M <= 30, with some steps
    forced to exact 0 or 1 so that it can cycle.  Each player is timid,
    bold or random: fair timid-timid is the slowest to settle."""
    M = draw(st.integers(2, 30))
    table = MAKERS[draw(st.sampled_from(sorted(MAKERS)))](M)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stakes = {
        "timid": np.ones(M - 1, dtype=np.int64),
        "bold": np.arange(1, M),
        "random": rng.integers(1, np.arange(2, M + 1)),
    }
    rows = np.zeros((2, M + 1), dtype=np.int64)
    for row in rows:
        row[1:M] = stakes[draw(st.sampled_from(sorted(stakes)))]
    p, up, dn = (a[0] for a in _chain_arrays(table, rows[:1], rows[1:]))
    forced = rng.random(p.shape) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    p = np.where(forced, rng.integers(0, 2, p.shape).astype(float), p)
    return M, p, up, dn


class TestBlockIteration:
    """The block iteration against :func:`_oracle_iterate`, bit for bit."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        chain=_random_chains(),
        goal=st.integers(0, 1),
        offset=st.sampled_from([-1, 0, 1, None]),
        single=st.booleans(),
    )
    def test_values_and_counts_equal_the_oracle(self, chain, goal, offset, single) -> None:
        """The block length is set so that one goal settles just before
        (``+1``), exactly at (``0``) or just after (``-1``) the end of a
        block, or left at its default; ``single`` forces blocks of one
        sweep."""
        M, p, up, dn = chain
        with pytest.MonkeyPatch.context() as patch:
            # Forced steps can make a goal settle only after millions of
            # sweeps; past this budget both iterations must raise.
            patch.setattr(solver, "DEFAULT_MAX_SWEEPS", 6000)
            try:
                expected, counts = _oracle_iterate(M, p, up, dn)
            except RuntimeError:
                expected = counts = None
            block = solver._SWEEP_BLOCK
            if offset is not None and counts is not None:
                block = max(1, int(counts[goal]) + offset)
            patch.setattr(solver, "_SWEEP_BLOCK", 1 if single else block)
            if counts is None:
                with pytest.raises(RuntimeError, match="did not settle"):
                    _iterate_chain(M, p, up, dn)
                return
            values, sweeps = _iterate_chain(M, p, up, dn)
        assert values.tobytes() == expected.tobytes()
        assert np.array_equal(sweeps, counts)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 128])
    def test_sweep_budget_is_exact(self, block: int, monkeypatch) -> None:
        """A budget of exactly both goals' sweep count is enough; one fewer
        raises, whatever the block length."""
        M = 10
        profile = _timid_timid(M)
        chain = _one_chain(rb.power_family(M, 1), profile)
        expected, counts = _oracle_iterate(M, *chain)
        assert counts[0] == counts[1]
        monkeypatch.setattr(solver, "_SWEEP_BLOCK", block)
        monkeypatch.setattr(solver, "DEFAULT_MAX_SWEEPS", int(counts[0]))
        values, sweeps = _iterate_chain(M, *chain)
        assert values.tobytes() == expected.tobytes()
        assert np.array_equal(sweeps, counts)
        monkeypatch.setattr(solver, "DEFAULT_MAX_SWEEPS", int(counts[0]) - 1)
        with pytest.raises(RuntimeError, match="did not settle"):
            _iterate_chain(M, *chain)
        with pytest.raises(RuntimeError, match="did not settle"):
            rb.hitting_values(rb.power_family(M, 1), profile, method="iterate")


# Every public entry point that turns a table and a profile into a chain.
CHAIN_ENTRY_POINTS = {
    "hitting_values": rb.hitting_values,
    "absorption_certain": rb.absorption_certain,
    "verify_nash": lambda table, profile: rb.verify_nash(table, profile, 1),
    "simulate": lambda table, profile: rb.simulate(
        table, profile, rb.SimConfig(x0=1, trials=10, seed=0)
    ),
    "replay_trial": lambda table, profile: rb.replay_trial(
        table, profile, rb.SimConfig(x0=1, trials=10, seed=0), 0
    ),
    # Rejected when called, before any path is asked for.
    "replay_trials": lambda table, profile: rb.replay_trials(
        table, profile, rb.SimConfig(x0=1, trials=10, seed=0), range(10)
    ),
}


class TestChainArrays:
    def test_interior_split_frozen(self, pow2_m3: rb.WinProbTable) -> None:
        """Bold against timid at fortune 2 stakes (2, 1): up to 3 w.p. P(2, 1) = 4/9."""
        profile = rb.Profile.from_name("bold-timid", 3)
        p, up, dn = _chain_arrays(
            pow2_m3, _stake_rows([profile.first]), _stake_rows([profile.second])
        )
        assert p[0, 1] == pytest.approx(4 / 9, abs=1e-15)
        assert (up[0, 1], dn[0, 1]) == (3, 0)

    @pytest.mark.parametrize("maker", sorted(MAKERS))
    def test_rows_are_stage_laws(self, maker: str) -> None:
        M = 5
        table = MAKERS[maker](M)
        names = ("bold-timid", "timid-bold", "bold-bold", "timid-timid")
        profiles = [rb.Profile.from_name(name, M) for name in names]
        p, up, dn = _chain_arrays(
            table,
            _stake_rows([profile.first for profile in profiles])[:, None],
            _stake_rows([profile.second for profile in profiles])[None],
        )
        x = np.arange(1, M)
        assert p.shape == up.shape == dn.shape == (len(profiles), len(profiles), M - 1)
        assert ((0.0 <= p) & (p <= 1.0)).all()
        assert ((0 <= dn) & (dn < x) & (x < up) & (up <= M)).all()

    @pytest.mark.parametrize("maker", sorted(MAKERS))
    def test_aligned_rows_pair_up_and_one_row_broadcasts(self, maker: str) -> None:
        """Aligned stake rows give the diagonal of their product, bit for
        bit; a side of one row meets every row of the other; a row of the
        wrong length raises."""
        M = 5
        table = MAKERS[maker](M)
        firsts = _stake_rows(list(rb.all_strategies(Player.ONE, M)))
        seconds = _stake_rows(list(rb.all_strategies(Player.TWO, M)))
        product = _chain_arrays(table, firsts[:, None], seconds[None])
        at = np.arange(len(firsts))
        cases = (
            (_chain_arrays(table, firsts, seconds), lambda grid: grid[at, at]),
            (_chain_arrays(table, firsts[3:4], seconds), lambda grid: grid[3]),
            (_chain_arrays(table, firsts, seconds[5:6]), lambda grid: grid[:, 5]),
        )
        for chain, pick in cases:
            for got, grid in zip(chain, product):
                expected = pick(grid)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="total money"):
            _chain_arrays(table, firsts, seconds[:, :-1])

    @pytest.mark.parametrize("M", [2, 5])
    @pytest.mark.parametrize("entry", sorted(CHAIN_ENTRY_POINTS))
    def test_profile_for_other_money_is_rejected(
        self, entry: str, M: int, pow2_m3: rb.WinProbTable
    ) -> None:
        with pytest.raises(ValueError, match="total money"):
            CHAIN_ENTRY_POINTS[entry](pow2_m3, rb.Profile.from_name("bold-timid", M))


class TestBatchedEngine:
    @pytest.mark.parametrize("maker,M", ORACLE_CASES)
    def test_tensors_are_bit_identical_to_per_pair_oracle(
        self, maker: str, M: int, request
    ) -> None:
        table = _oracle_table(maker, M, request)
        firsts = list(rb.all_strategies(Player.ONE, M))
        seconds = list(rb.all_strategies(Player.TWO, M))
        VI, VII = _product_values(table, _stake_rows(firsts), _stake_rows(seconds))
        verdicts = set()
        for i, first in enumerate(firsts):
            for j, second in enumerate(seconds):
                q, t, absorbs = _oracle_values(table, first, second)
                assert np.array_equal(VI[i, j], q) and np.array_equal(VII[i, j], t)
                assert rb.absorption_certain(table, rb.Profile(first, second)) is absorbs
                verdicts.add(absorbs)
        assert verdicts == ({True, False} if maker == "cycle" else {True})

    @pytest.mark.parametrize("maker,M", ORACLE_CASES)
    def test_enumerated_best_responses_match_per_pair_oracle(
        self, maker: str, M: int, request
    ) -> None:
        table = _oracle_table(maker, M, request)
        for owner in (Player.ONE, Player.TWO):
            for opponent in (rb.timid_strategy(owner, M), rb.bold_strategy(owner, M)):
                responses = list(rb.all_strategies(owner.other, M))
                if owner is Player.TWO:
                    rows = np.array([_oracle_values(table, s, opponent)[0] for s in responses])
                else:
                    rows = np.array([_oracle_values(table, opponent, s)[1] for s in responses])
                maxima = rows.max(axis=0)
                got = enumerate_best_response(table, opponent)
                assert got.values == tuple(maxima.tolist())
                assert got.per_state == tuple(
                    tuple(np.nonzero(rows[:, x] >= maxima[x] - DEFAULT_TIE_TOL)[0].tolist())
                    for x in range(M + 1)
                )

    def test_cold_tensor_build_memory_is_blocked(self) -> None:
        """The cold enumeration state of a table holds both players' 120
        best-response value vectors, the guard, and nothing per pair: its
        build peaks far below the 1.6 MiB that the two value tensors took at
        M = 6."""
        table = rb.power_family(6, 2)
        _enumeration.strategies.cache_clear()
        tracemalloc.start()
        try:
            state = _enumeration.TableEnumeration(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.best_I.shape == state.best_II.shape == (120, 7)
        assert vars(state).keys() == STATE_ATTRIBUTES and state.absorbs
        assert peak < 2**20

    def test_cold_first_start_memory(self, monkeypatch) -> None:
        """The cold first start of exp-diff at M = 6 builds the table's best
        responses and accepts all 14 400 of its candidate pairs with no
        solve: its traced peak, 0.37 MiB, stays below 0.5 MiB (2.05 MiB when
        it solved and kept every candidate's interior values)."""
        table = rb.exp_difference_table(6)
        _enumeration.strategies.cache_clear()
        _enumeration.table_enumeration.cache_clear()
        monkeypatch.setattr(_enumeration, "_pair_values", _no_solve)
        tracemalloc.start()
        try:
            found = rb.enumerate_equilibria(table, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _enumeration.table_enumeration.cache_clear()
        assert len(found) == 14400
        assert peak < 0.5 * 2**20

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("case", ["cycle", "exp_diff_41"])
    def test_pair_values_keep_their_bits_whatever_the_block(
        self, case: str, block: int, monkeypatch
    ) -> None:
        """``_stuck`` decides per block whether to skip its passes, so pairs
        solved in shuffled order in blocks of any size keep, at every
        interior start, the bits of one unblocked solve.  The cycling table
        has stuck fortunes.  On exp-diff at M = 41, with each player staking
        ``min(x, c)`` at own fortune ``x`` for c = 1..40, each of the 1 600
        chains has a step of probability exactly 0 or 1, and 80 have both, so
        only the blocks holding those run the reachability passes."""
        if case == "cycle":
            M = 5
            table = rb.power_family(M, 1).with_entry(1, 2, 1.0).with_entry(2, 1, 0.0)
            firsts = _stake_rows(list(rb.all_strategies(Player.ONE, M)))
            seconds = _stake_rows(list(rb.all_strategies(Player.TWO, M)))
        else:
            M = 41
            table = rb.exp_difference_table(M)
            x = np.arange(M + 1)
            firsts = seconds = np.array([np.where(x % M, np.minimum(x, c), 0) for c in range(1, M)])
        B, K = len(firsts), len(seconds)
        rows, cols = np.repeat(np.arange(B), K), np.tile(np.arange(K), B)
        p, up, dn = _chain_arrays(table, firsts[rows], seconds[cols])
        if case == "cycle":
            assert solver._stuck(M, p, up, dn).any()
        else:
            assert ((p == 0.0) | (p == 1.0)).any(axis=1).all()
            assert ((p == 0.0).any(axis=1) & (p == 1.0).any(axis=1)).sum() == 80
        unblocked = pair_values(table, firsts, seconds, rows, cols)
        order = np.random.default_rng(block).permutation(len(unblocked))
        monkeypatch.setattr(_enumeration, "_BLOCK_PAIRS", block)
        keys = (rows * K + cols)[order]
        for x0 in range(1, M):
            shuffled = _pair_values(table, firsts, seconds, keys, x0)
            assert _same_bits(shuffled, unblocked[order, :, x0])

    @pytest.mark.parametrize(
        "make,tol,solved",
        [
            (lambda: rb.power_family(6, 2), DEFAULT_TOL, [0] * 5),
            (lambda: rb.exp_difference_table(6), DEFAULT_TOL, [0] * 5),
            (lambda: rb.min_exp_table(6, 0.3), DEFAULT_TOL, [0] * 5),
            (lambda: rb.min_exp_table(6, 0.3), 1e-3, [480, 0, 0, 0, 0]),
            (lambda: _enum_table("cycle_pow2", 7), DEFAULT_TOL, [0, 0, 390, 1080, 2880]),
        ],
        ids=["pow2", "exp_diff", "min_exp_0.3", "min_exp_0.3_tol_1e-3", "cycling_7_pow2"],
    )
    def test_pairs_solved_per_start(self, make, tol: float, solved: list[int], monkeypatch) -> None:
        """The pairs each start x0 = 1..5 solves, from a cold state, and the
        table's state keeps nothing per pair after any of them.  At the
        default tol the guarded tables' band is empty; at tol = 1e-3 it holds
        480 of min-exp's 1 440 candidates at x0 = 1; off the guard it holds
        every candidate, each an equilibrium on this table."""
        table = make()
        _enumeration.table_enumeration.cache_clear()
        counts = []
        monkeypatch.setattr(_enumeration, "_pair_values", _counting(counts))
        for x0 in range(1, 6):
            counts.append(0)
            rb.enumerate_equilibria(table, x0, tol=tol)
            assert vars(_enumeration.table_enumeration(table)).keys() == STATE_ATTRIBUTES
        _enumeration.table_enumeration.cache_clear()
        assert counts == solved

    @pytest.mark.parametrize(
        "make",
        [lambda: rb.power_family(6, 2), lambda: _enum_table("cycle_pow2", 7)],
        ids=["pow2", "cycling_7_pow2"],
    )
    def test_starts_out_of_order_equal_the_starts_in_order(self, make) -> None:
        """Starts x0 = 5, 2, 4, 1, 3 find what the starts in order find, each
        set's keys strictly ascending, and each equilibrium's values, solved
        in blocks when the set is read, hold the bits of its pair solved
        alone."""
        table = make()
        _enumeration.table_enumeration.cache_clear()
        in_order = {x0: rb.enumerate_equilibria(table, x0) for x0 in range(1, 6)}
        _enumeration.table_enumeration.cache_clear()
        shuffled = {x0: rb.enumerate_equilibria(table, x0) for x0 in (5, 2, 4, 1, 3)}
        _enumeration.table_enumeration.cache_clear()
        firsts, seconds = _enumeration.strategies(table.M)
        for x0, found in shuffled.items():
            expected = in_order[x0]
            assert (np.diff(found.keys) > 0).all()
            assert np.array_equal(found.rows, expected.rows)
            assert np.array_equal(found.cols, expected.cols)
            assert _same_bits(found.values, expected.values)
            alone = [
                pair_values(table, firsts.rows, seconds.rows, found.rows[k, None], found.cols[k, None])
                for k in range(len(found))
            ]
            assert _same_bits(found.values, np.reshape([a[0, :, x0] for a in alone], (-1, 2)))

    @pytest.mark.parametrize(
        "make,x0",
        [(lambda: rb.power_family(6, 2), 3), (lambda: _enum_table("cycle_pow2", 7), 5)],
        ids=["pow2", "cycling_7_pow2"],
    )
    def test_member_values_are_their_hitting_values(self, make, x0: int) -> None:
        """Each member's ``value_I`` and ``value_II`` hold the bits, signed
        zeros included, of ``hitting_values`` of its profile at ``x0``."""
        table = make()
        _enumeration.table_enumeration.cache_clear()
        found = rb.enumerate_equilibria(table, x0)
        _enumeration.table_enumeration.cache_clear()
        exact = [rb.hitting_values(table, certificate.profile) for certificate in found]
        assert len(found) > 0
        assert _same_bits(found.value_I, np.array([values.q[x0] for values in exact]))
        assert _same_bits(found.value_II, np.array([values.t[x0] for values in exact]))

    def test_last_start_memory_is_bounded_by_its_keys(self) -> None:
        """The last start of ``power_family(7, 2)`` accepts its 86 400
        candidates with no solve, so its traced peak stays below 3.5 times
        the keys it keeps (0.66 MiB; the peak is 3.1 times that).  Reading
        its values solves them a block at a time, and that read peaks below
        twice the (86 400, 2) values it keeps (1.74 times)."""
        table = rb.power_family(7, 2)
        _enumeration.table_enumeration.cache_clear()
        for x0 in range(1, 6):
            rb.enumerate_equilibria(table, x0)
        tracemalloc.start()
        try:
            found = rb.enumerate_equilibria(table, 6)
            peaks = [tracemalloc.get_traced_memory()[1]]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            found.value_I
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        _enumeration.table_enumeration.cache_clear()
        assert found.keys.shape == (86400,) and found.values.shape == (86400, 2)
        assert peaks[0] < 3.5 * found.keys.nbytes
        assert peaks[1] < 2.0 * found.values.nbytes


# What a table's enumeration state holds, whatever the starts enumerated.
STATE_ATTRIBUTES = {"firsts", "seconds", "best_I", "best_II", "absorbs"}


def _no_solve(*args, **kwargs):
    raise AssertionError("a pair was solved")


def _counting(counts: list[int]):
    """A stand-in for ``_pair_values`` that adds the pairs it solves to
    ``counts[-1]``."""

    def solve(table, firsts, seconds, keys, x0):
        counts[-1] += len(keys)
        return _pair_values(table, firsts, seconds, keys, x0)

    return solve


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal float64 bit patterns, so -0.0 differs from 0.0."""
    return a.shape == b.shape and np.array_equal(np.signbit(a), np.signbit(b)) and (a == b).all()


class TestLinearSystem:
    def test_assembly_equals_the_step_law_reference(self) -> None:
        """``I - A`` and both right-hand sides equal the step-law reference
        ``eye - step`` entry for entry, the sign of zero included, with and
        without pinning.  Exp-diff rounds P(a, b) to exactly 0 and 1 from
        M = 41, so the seeded chains have steps of probability 0 at an up
        target, where writing ``-p`` would give -0.0, and stuck fortunes."""
        seen = np.zeros(3, dtype=bool)
        for M in range(41, 61):
            table = rb.exp_difference_table(M)
            rng = random.Random(M)
            stakes = [(0, *(rng.randint(1, x) for x in range(1, M)), 0) for _ in range(32)]
            chain = _chain_arrays(table, np.array(stakes[:16])[:, None], np.array(stakes[16:])[None])
            p, up, dn = (a.reshape(-1, M - 1) for a in chain)
            stuck = solver._stuck(M, p, up, dn)
            seen |= [(p == 0.0).any(), (p == 1.0).any(), stuck.any()]
            step = _step_laws(M, p, up, dn)
            pinned = step.copy()
            pinned[..., 1:M] *= ~stuck[:, None, :]
            for mask, law in ((np.zeros_like(stuck), step), (stuck, pinned)):
                lhs, rhs = _linear_system(M, p, up, dn, mask)
                assert _same_bits(lhs, np.eye(M - 1) - law[..., 1:M])
                assert _same_bits(rhs, law[..., [M, 0]])
        assert seen.all()

    def test_exact_one_without_zero_leaves_nothing_stuck(self, monkeypatch) -> None:
        """With an exact 1 in the table but no exact 0, every up step has
        positive probability and climbs, so every fortune reaches M and
        ``_stuck`` skips the reachability passes.  The passes agree that
        nothing is stuck, and ``hitting_values`` gives the bits it gave
        with them."""
        M = 5
        table = rb.power_family(M, 2).with_entry(1, 1, 1.0).with_entry(2, 1, 1.0)
        firsts = list(rb.all_strategies(Player.ONE, M))
        seconds = list(rb.all_strategies(Player.TWO, M))
        product = _chain_arrays(table, _stake_rows(firsts)[:, None], _stake_rows(seconds)[None])
        chain = tuple(a.reshape(-1, M - 1) for a in product)
        p = chain[0]
        assert (p == 1.0).any() and (p > 0.0).all()
        profiles = [rb.Profile(first, second) for first in firsts for second in seconds]
        ranks = solver._ranks

        def ranked(M, *chain):
            return ranks(M, [0, M], *(a[..., None] for a in chain))[:, 1:M] == M

        def values() -> np.ndarray:
            return np.array([(v.q, v.t) for v in map(partial(rb.hitting_values, table), profiles)])

        assert not ranked(M, *chain).any()
        monkeypatch.setattr(solver, "_ranks", lambda *args: pytest.fail("the passes ran"))
        assert not solver._stuck(M, *chain).any()
        skipped = values()
        monkeypatch.setattr(solver, "_stuck", ranked)
        assert _same_bits(values(), skipped)


class TestStrategyEnumeration:
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
    def test_count_is_factorial(self, M: int) -> None:
        strategies = list(rb.all_strategies(Player.ONE, M))
        assert len(strategies) == rb.strategy_count(M) == math.factorial(M - 1)

    def test_lexicographic_ends(self) -> None:
        strategies = list(rb.all_strategies(Player.TWO, 4))
        assert strategies[0].is_timid
        assert strategies[-1].is_bold
        assert all(s.owner is Player.TWO for s in strategies)

    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6, 7])
    def test_enumeration_rows_follow_all_strategies(self, M: int) -> None:
        """Enumeration's stake rows, generated without strategy objects, are
        those of ``all_strategies`` in its order, shared by both players."""
        firsts, seconds = _enumeration.strategies(M)
        assert firsts.owner is Player.ONE and seconds.owner is Player.TWO
        assert firsts.rows is seconds.rows and firsts.rows.dtype == np.int64
        assert np.array_equal(firsts.rows, _stake_rows(list(rb.all_strategies(Player.ONE, M))))


class TestBestResponse:
    def test_power_two_answers_timid_with_bold(self, pow2_m3: rb.WinProbTable) -> None:
        response = rb.best_response(pow2_m3, rb.timid_strategy(Player.TWO, 3))
        assert response.player is Player.ONE
        assert response.strategy.is_bold
        for got, want in zip(response.values, (0.0, 1 / 9, 4 / 9, 1.0)):
            assert got == pytest.approx(want, abs=1e-12)

    def test_min_exp_answers_timid_with_timid(self, min_exp_m4: rb.WinProbTable) -> None:
        response = rb.best_response(min_exp_m4, rb.timid_strategy(Player.TWO, 4))
        assert response.strategy.bets == (0, 1, 1, 1, 0)
        c = math.exp(-1)
        v3 = c * (1 - c + c * c) / (1 - 2 * c + 2 * c * c)
        assert response.values[3] == pytest.approx(v3, abs=1e-12)
        assert response.values[3] > c  # beats the bold value q(3) = c

    def test_exp_difference_second_player_wins_outright(self, el_m4: rb.WinProbTable) -> None:
        # player I never completes a unit climb (P(1, b) = 0), so player II
        # drives the chain down with certainty from every interior fortune
        response = rb.best_response(el_m4, rb.timid_strategy(Player.ONE, 4))
        assert response.player is Player.TWO
        assert response.strategy.is_timid
        assert response.values == (1.0, 1.0, 1.0, 1.0, 0.0)

    def test_greedy_tie_cannot_stall_in_a_cycle(
        self, cycle_m4: rb.WinProbTable, cycle_profile: rb.Profile
    ) -> None:
        """At fortune 3 the stakes 1 and 2 tie in one-stage value, but stake 2
        drops to the priced-but-never-paying cycle 1 -> 3 -> 1: following it
        would realize value 0, as the fixed cycling profile shows.  The
        extracted response must take the stake with ranked progress."""
        trapped = rb.hitting_values(cycle_m4, cycle_profile)
        assert trapped.q[3] == 0.0
        response = rb.best_response(cycle_m4, cycle_profile.second)
        assert response.strategy.bets == (0, 1, 1, 1, 0)
        assert response.values == (0.0, 1.0, 1.0, 1.0, 1.0)

    def test_progress_beats_a_smaller_tied_stake(self) -> None:
        """Against player II staking (0, 1, 2, 1, 0) on a fair table with
        P(1, 1) = 1 and P(1, 2) = 0, fortune 1 climbs to 2 surely and stake 1
        at fortune 2 drops back to 1 surely.  That stake ties the optimum
        1/2 of stake 2 but never pays; the rule must take stake 2."""
        table = rb.power_family(4, 1).with_entry(1, 1, 1.0).with_entry(1, 2, 0.0)
        opponent = rb.StationaryStrategy(Player.TWO, (0, 1, 2, 1, 0))
        response = rb.best_response(table, opponent)
        assert response.strategy.bets == (0, 1, 2, 1, 0)
        assert response.values == (0.0, 0.5, 0.5, 1.0, 1.0)

    def test_fortunes_that_cannot_reach_the_goal_are_worth_zero(self) -> None:
        """With P(2, 2) = 0 as well, fortunes 1 and 2 can only move between
        each other or to 0: every policy's system is singular there unless
        their values are pinned to 0 before the solve."""
        table = (
            rb.power_family(4, 1).with_entry(1, 1, 1.0).with_entry(1, 2, 0.0).with_entry(2, 2, 0.0)
        )
        opponent = rb.StationaryStrategy(Player.TWO, (0, 1, 2, 1, 0))
        response = rb.best_response(table, opponent)
        assert response.strategy.bets == (0, 1, 1, 1, 0)
        assert response.values == (0.0, 0.0, 0.0, 1.0, 1.0)
        assert response.values == enumerate_best_response(table, opponent).values

    @pytest.mark.parametrize("maker,M", [
        (maker, M)
        for maker in ("pow1", "pow2", "min_exp", "el")
        for M in (2, 3, 4, 5)
    ])
    def test_agrees_with_exhaustive_enumeration(self, maker: str, M: int) -> None:
        table = MAKERS[maker](M)
        opponents = [
            rb.timid_strategy(Player.TWO, M),
            rb.bold_strategy(Player.TWO, M),
            rb.timid_strategy(Player.ONE, M),
            rb.bold_strategy(Player.ONE, M),
        ]
        for opponent in opponents:
            fast = rb.best_response(table, opponent)
            oracle = enumerate_best_response(table, opponent)
            for x in range(M + 1):
                assert fast.values[x] == pytest.approx(oracle.values[x], abs=1e-9)

    @pytest.mark.parametrize("maker,M", [
        (maker, M) for maker in sorted(MAKERS) for M in (2, 3, 4, 5, 6)
    ] + [("cycle", 4)])
    def test_every_opponent_agrees_with_enumeration(self, maker: str, M: int, request) -> None:
        """Against every opponent of either owner, the extracted strategy is
        one of the enumerated optima and attains the maxima within the tie
        tolerance."""
        table = _oracle_table(maker, M, request)
        for owner in (Player.ONE, Player.TWO):
            for opponent in rb.all_strategies(owner, M):
                fast = rb.best_response(table, opponent)
                oracle = enumerate_best_response(table, opponent)
                assert fast.strategy in oracle.optimal
                for x in range(M + 1):
                    assert fast.values[x] == pytest.approx(oracle.values[x], abs=DEFAULT_TIE_TOL)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(game=_random_games())
    @example(game=(
        rb.min_exp_table(24, 1.0),
        _unit_except(Player.ONE, 24, {14: 3, 17: 4}),
        _unit_except(Player.TWO, 24, {7: 7, 10: 3, 21: 10}),
    ))
    def test_no_response_does_better(self, game) -> None:
        """Policy iteration stops when no stake gains more than
        _IMPROVE_MARGIN over one stage, so no response beats the best one by
        more than that times the expected number of stages the best
        response's profile plays from each fortune (counted on the fortunes
        it values above zero; elsewhere no response can win), plus 1e-12
        for rounding.  The example is a game where a tie rule that gave up
        up to DEFAULT_TIE_TOL per stage lost 1.005e-9 at fortune 3.  The
        best response's values are its own profile's ``hitting_values``, to
        the bit."""
        table, opponent, response = game
        M = table.M
        best = rb.best_response(table, opponent)
        theirs = rb.hitting_values(table, _against(opponent, response))
        own = np.array(theirs.q if opponent.owner is Player.TWO else theirs.t)
        profile = _against(opponent, best.strategy)
        own_solve = rb.hitting_values(table, profile)
        own_values = own_solve.q if opponent.owner is Player.TWO else own_solve.t
        assert _same_bits(np.array(best.values), np.array(own_values))
        chain = _chain_arrays(table, _stake_rows([profile.first]), _stake_rows([profile.second]))
        p, up, dn = (a[0] for a in chain)
        values = np.array(best.values)
        live = np.flatnonzero(values[1:M] > 0.0)
        step = _step_laws(M, p, up, dn)[live][:, live + 1]
        stages = np.zeros(M + 1)
        stages[live + 1] = np.linalg.solve(np.eye(len(live)) - step, np.ones(len(live)))
        assert (own <= values + _IMPROVE_MARGIN * stages + 1e-12).all()

    def test_near_singular_opponent_fails_fast(self) -> None:
        """Against this player I on exp-diff at M = 80, some stages go up
        with probability 1 - 2**-53: every chain absorbs, but a policy's
        system is singular in floating point.  The failure is a ValueError,
        which the CLI maps to exit 2, and comes within milliseconds instead
        of after a sweep budget."""
        rng = random.Random(5)
        bets = (0, *(rng.randint(1, x) for x in range(1, 80)), 0)
        opponent = rb.StationaryStrategy(Player.ONE, bets)
        with pytest.raises(np.linalg.LinAlgError):
            rb.best_response(rb.exp_difference_table(80), opponent)

    def test_enumeration_respects_cap(self) -> None:
        table = rb.power_family(9, 1)
        with pytest.raises(rb.EnumerationLimitError, match="cap"):
            enumerate_best_response(table, rb.timid_strategy(Player.TWO, 9))

    def test_revisited_policy_raises(
        self, cycling_first_m47: rb.StationaryStrategy, ten_second_alarm
    ) -> None:
        """Against this player I the iteration cycles through three
        policies on rounding-level "gains" of up to 5e-9.  It must raise
        within milliseconds, not loop forever."""
        with pytest.raises(RuntimeError, match="ill-conditioned"):
            rb.best_response(rb.exp_difference_table(47), cycling_first_m47)


class TestExcessivityChecks:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_power_tables_pass_both(self, p: float, M: int) -> None:
        table = rb.power_family(M, p)
        curve = rb.unit_bet_curve(table)
        assert rb.check_bold_excessive(curve).passed
        assert rb.check_timid_excessive(table).passed

    def test_power_two_frozen_terms(self, pow2_m3: rb.WinProbTable) -> None:
        curve = rb.unit_bet_curve(pow2_m3)
        values = rb.bold_timid_values(curve)
        # stake 1 at fortune 2: (1/4)(1) + (3/4)(1/9) = 1/3 <= q(2) = 4/9
        lhs = curve[1] * values.q[3] + (1 - curve[1]) * values.q[1]
        assert lhs == pytest.approx(1 / 3, abs=1e-15)
        assert values.q[2] == pytest.approx(4 / 9, abs=1e-15)
        # player II staking 2 at fortune 1 ties exactly: q(1) = P(1,2) q(3)
        assert values.q[1] == pytest.approx(pow2_m3.prob(1, 2) * values.q[3], abs=1e-15)

    def test_min_exp_bold_fails_first_at_two_one(self, min_exp_m4: rb.WinProbTable) -> None:
        report = rb.check_bold_excessive(rb.unit_bet_curve(min_exp_m4))
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.index == (2, 1)
        c = math.exp(-1)
        assert witness.margin == pytest.approx((1 - c) * c**3, abs=1e-12)

    def test_min_exp_timid_side_passes(self, min_exp_m4: rb.WinProbTable) -> None:
        assert rb.check_timid_excessive(min_exp_m4).passed

    def test_exp_difference_bold_passes_timid_fails(self, el_m4: rb.WinProbTable) -> None:
        assert rb.check_bold_excessive(rb.unit_bet_curve(el_m4)).passed
        report = rb.check_timid_excessive(el_m4)
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.index == (2, 2)
        assert witness.lhs == pytest.approx((1 - math.exp(-1)) * (1 - math.exp(-2)), abs=1e-12)
        assert witness.rhs == 0.0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        table=st.one_of(
            st.builds(rb.power_family, st.integers(3, 80), st.floats(1.0, 4.0)),
            st.builds(rb.min_exp_table, st.integers(3, 80), st.floats(0.02, 3.0)),
            st.builds(rb.exp_difference_table, st.integers(3, 80)),
        )
    )
    def test_both_pass_exactly_when_no_best_response_gains(self, table: rb.WinProbTable) -> None:
        """Both excessivity checks pass for bold-timid exactly when neither
        player's exact best response to the other's strategy gains more
        than ``tol`` over the profile's values at any fortune: the checks
        are the one-stage optimality conditions of bold and timid play, so
        ``verify_nash``'s shortcut certifies what the best responses would.
        Power tables pass, min-exp tables fail, and exp-diff fails from
        M = 4 on."""
        M = table.M
        curve = rb.unit_bet_curve(table)
        closed = rb.bold_timid_values(curve)
        passed = rb.check_bold_excessive(curve, closed).passed and (
            rb.check_timid_excessive(table, closed).passed
        )
        values = rb.hitting_values(table, _bold_timid(M))
        gains = (
            np.subtract(rb.best_response(table, rb.timid_strategy(Player.TWO, M)).values, values.q),
            np.subtract(rb.best_response(table, rb.bold_strategy(Player.ONE, M)).values, values.t),
        )
        assert passed == (max(gain.max() for gain in gains) <= DEFAULT_TOL)


class TestVerifyNash:
    def test_power_two_certified_for_all_strategies(self, pow2_m4: rb.WinProbTable) -> None:
        closed = rb.bold_timid_values(rb.unit_bet_curve(pow2_m4))
        for x0 in range(5):
            cert = rb.verify_nash(pow2_m4, _bold_timid(4), x0)
            assert cert.equilibrium
            assert cert.method == "excessivity"
            assert cert.coverage == "all-strategies"
            assert [r.passed for r in cert.reports] == [True, True]
            assert cert.deviation is None
            assert cert.value_I == pytest.approx(closed.q[x0], abs=1e-12)
            assert cert.value_II == pytest.approx(closed.t[x0], abs=1e-12)

    def test_min_exp_refuted_by_unit_stakes(self, min_exp_m4: rb.WinProbTable) -> None:
        cert = rb.verify_nash(min_exp_m4, _bold_timid(4), 3)
        assert not cert.equilibrium
        assert cert.method == "best-response"
        assert [r.passed for r in cert.reports] == [False, True]
        c = math.exp(-1)
        assert cert.value_I == pytest.approx(c, abs=1e-12)
        deviation = cert.deviation
        assert deviation is not None
        assert deviation.player is Player.ONE
        assert deviation.strategy.bets == (0, 1, 1, 1, 0)
        v3 = c * (1 - c + c * c) / (1 - 2 * c + 2 * c * c)
        assert deviation.value == pytest.approx(v3, abs=1e-9)
        assert deviation.baseline == pytest.approx(c, abs=1e-12)
        assert deviation.gain > 0.15

    def test_exp_difference_hopeless_start_is_equilibrium(self, el_m4: rb.WinProbTable) -> None:
        cert = rb.verify_nash(el_m4, _bold_timid(4), 1)
        assert cert.equilibrium
        assert cert.method == "best-response"
        assert cert.coverage == "all-strategies"
        assert [r.passed for r in cert.reports] == [True, False]
        assert cert.value_I == 0.0 and cert.value_II == 1.0

    def test_player_one_is_checked_first(self, pow2_m4: rb.WinProbTable) -> None:
        """Against timid-bold at fortune 2 both players can improve; the
        refutation names player I's deviation."""
        profile = rb.Profile.from_name("timid-bold", 4)
        cert = rb.verify_nash(pow2_m4, profile, 2)
        assert enumerate_best_response(pow2_m4, profile.first).values[2] > cert.value_II
        assert not cert.equilibrium
        assert cert.deviation is not None and cert.deviation.player is Player.ONE

    def test_start_out_of_range(self, pow2_m4: rb.WinProbTable) -> None:
        """A start outside 0..M, or not an ``int``, is named in a ``ValueError``."""
        for x0 in (5, -1, True, False, 2.0):
            with pytest.raises(ValueError, match=f"initial fortune {x0!r} outside"):
                rb.verify_nash(pow2_m4, _bold_timid(4), x0)

    def test_non_special_profile_past_the_enumeration_cap(self) -> None:
        """At M = 9 enumeration is capped, but the best responses are not.
        On the fair table timid-timid from 1 is worth exactly 1/9; on power
        p = 2 player I gains by going bold."""
        fair = rb.verify_nash(rb.power_family(9, 1), _timid_timid(9), 1)
        assert fair.equilibrium and fair.deviation is None
        assert fair.value_I == pytest.approx(1 / 9, abs=1e-15)
        cert = rb.verify_nash(rb.power_family(9, 2), _timid_timid(9), 1)
        assert not cert.equilibrium
        deviation = cert.deviation
        assert deviation is not None
        assert deviation.player is Player.ONE and deviation.strategy.is_bold
        assert deviation.gain == pytest.approx(0.0122440633228, abs=1e-12)

    @pytest.mark.parametrize("maker,M", [
        (maker, M) for maker in ("pow1", "pow2", "min_exp", "el") for M in (3, 4)
    ])
    def test_agrees_with_enumerated_deviations(self, maker: str, M: int) -> None:
        """Every profile at every start gets the verdict that the enumerated
        best responses give, with the same deviating player, a deviation
        worth the enumerated maximum at x0 and one of its maximisers."""
        table = MAKERS[maker](M)
        oracle = {}
        for profile in (
            rb.Profile(first, second)
            for first in rb.all_strategies(Player.ONE, M)
            for second in rb.all_strategies(Player.TWO, M)
        ):
            for x0 in range(M + 1):
                cert = rb.verify_nash(table, profile, x0)
                expected = None
                for opponent, baseline in (
                    (profile.second, cert.value_I), (profile.first, cert.value_II)
                ):
                    if opponent not in oracle:
                        oracle[opponent] = enumerate_best_response(table, opponent)
                    response = oracle[opponent]
                    if response.values[x0] > baseline + rb.DEFAULT_TOL:
                        expected = response
                        break
                assert cert.equilibrium is (expected is None)
                if expected is None:
                    continue
                deviation = cert.deviation
                assert deviation.player is expected.player
                assert abs(deviation.value - expected.values[x0]) <= 1e-15
                maximisers = [expected.strategies[i] for i in expected.per_state[x0]]
                assert deviation.strategy in maximisers


class TestEnumerateEquilibria:
    @pytest.mark.parametrize("x0", [1, 2])
    def test_power_two_money_three_has_two(self, pow2_m3: rb.WinProbTable, x0: int) -> None:
        """Exactly two stationary deterministic equilibria: the second keeps
        player I bold but has player II stake 2 against fortune 1; every
        ratio-form table makes player II indifferent against bold play, and
        that alternative response also moves the chain to an absorbing end."""
        certs = rb.enumerate_equilibria(pow2_m3, x0)
        assert len(certs) == 2
        assert all(c.profile.first.is_bold for c in certs)
        assert certs[0].profile.second.is_timid
        assert certs[1].profile.second.bets == (0, 1, 2, 0)
        closed = rb.bold_timid_values(rb.unit_bet_curve(pow2_m3))
        for cert in certs:
            assert cert.value_I == pytest.approx(closed.q[x0], abs=1e-12)

    @pytest.mark.parametrize("M", [3, 4])
    def test_power_two_equilibria_share_the_bold_timid_value(self, M: int) -> None:
        table = rb.power_family(M, 2)
        closed = rb.bold_timid_values(rb.unit_bet_curve(table))
        for x0 in range(1, M):
            certs = rb.enumerate_equilibria(table, x0)
            assert any(
                c.profile.first.is_bold and c.profile.second.is_timid for c in certs
            )
            for cert in certs:
                assert cert.value_I == pytest.approx(closed.q[x0], abs=1e-9)

    def test_exp_difference_hopeless_start_makes_everything_one(
        self, el_m4: rb.WinProbTable
    ) -> None:
        certs = rb.enumerate_equilibria(el_m4, 1)
        assert len(certs) == rb.strategy_count(4) ** 2 == 36
        assert all(c.value_I == 0.0 for c in certs)
        bold_bold = next(
            c for c in certs
            if c.profile.first.is_bold and c.profile.second.is_bold
        )
        assert bold_bold.value_II == 1.0

    def test_boundary_start_is_degenerate(self, pow2_m4: rb.WinProbTable) -> None:
        certs = rb.enumerate_equilibria(pow2_m4, 0)
        assert len(certs) == 36
        assert all(c.value_I == 0.0 and c.value_II == 1.0 for c in certs)

    @pytest.mark.parametrize("M", [3, 4, 5, 6])
    def test_power_two_tie_set_is_a_product(self, M: int) -> None:
        """The equilibria at x0 are exactly player I bold at every fortune
        >= x0, with any stakes below x0, against every player-II strategy:
        (M-1)! * (x0-1)! profiles (README, criterion 6)."""
        table = rb.power_family(M, 2)
        bold = rb.bold_strategy(Player.ONE, M).bets
        firsts = [s.bets for s in rb.all_strategies(Player.ONE, M)]
        seconds = [s.bets for s in rb.all_strategies(Player.TWO, M)]
        for x0 in range(1, M):
            found = {
                (c.profile.first.bets, c.profile.second.bets)
                for c in rb.enumerate_equilibria(table, x0)
            }
            predicted = {(f, s) for f in firsts if f[x0:] == bold[x0:] for s in seconds}
            assert found == predicted
            assert len(found) == math.factorial(M - 1) * math.factorial(x0 - 1)

    @pytest.mark.parametrize("M", [3, 4, 5])
    @pytest.mark.parametrize("maker", ["pow2", "el", "min_exp"])
    def test_certificates_equal_the_checked_constructors(self, maker: str, M: int) -> None:
        """Every certificate enumeration returns must equal, hash, print and
        serialise as the one built from the same stakes and the profile's
        own solve."""
        table = MAKERS[maker](M)
        for x0 in range(M + 1):
            for cert in rb.enumerate_equilibria(table, x0):
                profile = rb.Profile(
                    rb.StationaryStrategy(Player.ONE, cert.profile.first.bets),
                    rb.StationaryStrategy(Player.TWO, cert.profile.second.bets),
                )
                values = rb.hitting_values(table, profile)
                checked = rb.EquilibriumCertificate(
                    profile, x0, values.q[x0], values.t[x0], True, "enumeration",
                    "stationary-deterministic",
                )
                assert cert == checked and cert.profile == profile
                assert hash(cert) == hash(checked)
                assert repr(cert) == repr(checked)
                assert cert.to_json_dict() == checked.to_json_dict()

    def test_certificates_stay_frozen(self, pow2_m3: rb.WinProbTable) -> None:
        cert = rb.enumerate_equilibria(pow2_m3, 1)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.value_I = 1.0  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.profile.second = cert.profile.second  # type: ignore[misc]
        assert not hasattr(cert, "__dict__") and not hasattr(cert.profile, "__dict__")

    def test_cap_message_stays_short(self) -> None:
        """The limit names the strategy count as a factorial, not in full."""
        with pytest.raises(rb.EnumerationLimitError, match="cap") as raised:
            rb.enumerate_equilibria(rb.power_family(600, 2), 3)
        assert "599!" in str(raised.value)
        assert len(str(raised.value)) < 100

    def test_repeat_calls_are_identical(self, pow2_m3: rb.WinProbTable) -> None:
        assert rb.enumerate_equilibria(pow2_m3, 1) == rb.enumerate_equilibria(pow2_m3, 1)

    def test_start_out_of_range(self, pow2_m3: rb.WinProbTable) -> None:
        """A start outside 0..M, or not an ``int``, is named in a ``ValueError``."""
        for x0 in (4, -1, True, False, 2.0):
            with pytest.raises(ValueError, match=f"initial fortune {x0!r} outside"):
                rb.enumerate_equilibria(pow2_m3, x0)

    def test_certificate_dicts_round_trip_through_json(self) -> None:
        """An ``enum`` artifact's certificates read back as the dicts that
        were written, every value to the bit."""
        table = rb.min_exp_table(5, 1.0)
        for x0 in range(1, 5):
            for cert in rb.enumerate_equilibria(table, x0):
                written = cert.to_json_dict()
                read = json.loads(rb.canonical_json(written))
                assert read == written
                values = np.array([read["value_I"], read["value_II"]])
                assert values.tobytes() == np.array([cert.value_I, cert.value_II]).tobytes()


# The tables whose every start's equilibria must equal the exhaustive oracle's.
ENUM_MAKERS = {
    **MAKERS,
    "pow2.5": lambda M: rb.power_family(M, 2.5),
    "min_exp_0.3": lambda M: rb.min_exp_table(M, 0.3),
}
# Power tables of these p with the entries (1, 2) and (2, 1) forced to 1 and
# 0, so some chains cycle; ``cycle`` at M = 4 is the ``cycle_m4`` fixture.
CYCLE_POWERS = {"cycle": 1, "cycle_pow2": 2}
ENUM_CASES = [(maker, M) for maker in ENUM_MAKERS for M in (2, 3, 4, 5, 6)] + [
    ("cycle", 4), ("cycle", 5), ("cycle", 6), ("cycle_pow2", 5), ("cycle_pow2", 6)
]


def _enum_table(maker: str, M: int) -> rb.WinProbTable:
    if maker in CYCLE_POWERS:
        table = rb.power_family(M, CYCLE_POWERS[maker])
        return table.with_entry(1, 2, 1.0).with_entry(2, 1, 0.0)
    return ENUM_MAKERS[maker](M)


@lru_cache(maxsize=None)
def _enum_oracle_grid(maker: str, M: int) -> tuple[list, list, np.ndarray, np.ndarray]:
    """Every strategy of each player and the value tensors ``[i, j, x]`` of
    every pair, solved by the batched engine the oracle tests pin."""
    firsts = list(rb.all_strategies(Player.ONE, M))
    seconds = list(rb.all_strategies(Player.TWO, M))
    VI, VII = _product_values(_enum_table(maker, M), _stake_rows(firsts), _stake_rows(seconds))
    return firsts, seconds, VI, VII


def _enum_oracle_pairs(maker: str, M: int, x0: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The exhaustive rule: the pairs within ``tol`` of the best value over
    every pair of each player's column or row, as row and column indices."""
    _, _, VI, VII = _enum_oracle_grid(maker, M)
    vI, vII = VI[:, :, x0], VII[:, :, x0]
    return np.nonzero((vI >= vI.max(axis=0) - tol) & (vII >= vII.max(axis=1)[:, None] - tol))


def _oracle_certificates(
    maker: str, M: int, x0: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[rb.EquilibriumCertificate, ...]:
    """The certificates of the pairs ``(rows[k], cols[k])`` at ``x0``, built
    with the checked constructors from the oracle grid's values."""
    firsts, seconds, VI, VII = _enum_oracle_grid(maker, M)
    return tuple(
        rb.EquilibriumCertificate(
            rb.Profile(firsts[i], seconds[j]), x0, float(VI[i, j, x0]),
            float(VII[i, j, x0]), True, "enumeration", "stationary-deterministic",
        )
        for i, j in zip(rows.tolist(), cols.tolist())
    )


class TestStackedBestResponses:
    STACK_MAKERS = {maker: ENUM_MAKERS[maker] for maker in ("pow2", "min_exp_0.3", "el")}

    @pytest.mark.parametrize("M", [4, 5, 6, 7])
    @pytest.mark.parametrize("maker", sorted(STACK_MAKERS))
    def test_stack_equals_one_opponent_calls(self, maker: str, M: int) -> None:
        """Policy iteration against every opponent at once gives each
        opponent the strategy and the values, to the bit, of its own call."""
        table = self.STACK_MAKERS[maker](M)
        for owner in (Player.ONE, Player.TWO):
            opponents = list(rb.all_strategies(owner, M))
            policies, values = solver._best_responses(table, owner.other, _stake_rows(opponents))
            for opponent, policy, value in zip(opponents, policies, values):
                single = rb.best_response(table, opponent)
                bets = single.strategy.bets
                stakes = [bets[x] if owner is Player.TWO else bets[M - x] for x in range(1, M)]
                assert (policy + 1).tolist() == stakes
                assert _same_bits(value, np.array(single.values))

    def test_a_revisiting_opponent_raises_in_a_stack(
        self, cycling_first_m47: rb.StationaryStrategy, ten_second_alarm
    ) -> None:
        M = 47
        opponents = [
            rb.timid_strategy(Player.ONE, M), cycling_first_m47, rb.bold_strategy(Player.ONE, M)
        ]
        with pytest.raises(RuntimeError, match="ill-conditioned"):
            solver._best_responses(rb.exp_difference_table(M), Player.TWO, _stake_rows(opponents))

    def test_chunks_keep_the_bits(self, monkeypatch) -> None:
        """Opponents split into chunks of one grid each answer as one stack."""
        table = rb.min_exp_table(6, 0.3)
        stakes = _stake_rows(list(rb.all_strategies(Player.TWO, 6)))
        whole = solver._best_responses(table, Player.ONE, stakes)
        monkeypatch.setattr(solver, "_RESPONSE_BLOCK", 25)
        chunked = solver._best_responses(table, Player.ONE, stakes)
        assert (whole[0] == chunked[0]).all() and _same_bits(whole[1], chunked[1])


class TestEnumerationOracle:
    @pytest.mark.parametrize("maker,M", ENUM_CASES)
    def test_every_start_equals_the_exhaustive_oracle(self, maker: str, M: int) -> None:
        """At every start, the certificates are those the exhaustive rule
        builds with the checked constructors, in the same order, to the bit.
        Over every pair, cycling or not, ``q + t`` exceeds 1 by at most
        1.4e-15, far inside ``SUM_SLACK``."""
        table = _enum_table(maker, M)
        firsts, seconds, VI, VII = _enum_oracle_grid(maker, M)
        assert (VI + VII - 1.0).max() <= 1.4e-15 < _enumeration.SUM_SLACK / 400
        for x0 in range(M + 1):
            rows, cols = _enum_oracle_pairs(maker, M, x0, DEFAULT_TOL)
            expected = _oracle_certificates(maker, M, x0, rows, cols)
            found = rb.enumerate_equilibria(table, x0)
            assert len(found) == len(expected)
            assert repr(found) == repr(expected)

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    @pytest.mark.parametrize("maker,M", ENUM_CASES)
    def test_band_path_equals_rule_R_on_every_pair(self, maker: str, M: int, tol: float) -> None:
        """Where the band holds candidates, at every start the equilibria and
        their values are those of rule (R) tested on every pair with the
        best responses' values, to the bit.  At tol = 1e-3 the band holds some of a guarded
        table's candidates, and these are also the exhaustive rule's; at
        tol = 0 it holds all of them, and rounding decides ties that the two
        rules break apart (pow1 at M = 6, x0 = 1: 11 896 against 2 335).  On
        the cycling tables the guard fails and the band holds every
        candidate at any tol."""
        table = _enum_table(maker, M)
        firsts, seconds, VI, VII = _enum_oracle_grid(maker, M)
        best_I = solver._best_responses(table, Player.ONE, _stake_rows(seconds))[1]
        best_II = solver._best_responses(table, Player.TWO, _stake_rows(firsts))[1]
        for x0 in range(M + 1):
            rows, cols = np.nonzero(
                (VI[:, :, x0] >= best_I[:, x0] - tol)
                & (VII[:, :, x0] >= (best_II[:, x0] - tol)[:, None])
            )
            if tol > 0.0:
                exhaustive = _enum_oracle_pairs(maker, M, x0, tol)
                assert np.array_equal(rows, exhaustive[0]) and np.array_equal(cols, exhaustive[1])
            found = rb.enumerate_equilibria(table, x0, tol=tol)
            assert np.array_equal(found.rows, rows) and np.array_equal(found.cols, cols)
            assert _same_bits(found.value_I, VI[rows, cols, x0])
            assert _same_bits(found.value_II, VII[rows, cols, x0])

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from([(maker, M) for maker, M in ENUM_CASES if M >= 3]),
        x0=st.integers(0, 6),
        tol=st.just(0.0) | st.floats(1e-15, 1e-6),
    )
    def test_oracle_pairs_lie_among_the_candidates(self, case, x0: int, tol: float) -> None:
        """Every pair the exhaustive rule accepts satisfies the pair bound
        ``BI(j) + BII(i) <= 1 + 2 tol + SUM_SLACK``, cycling tables included,
        and enumeration, whose best-response maxima never exceed the
        oracle's, accepts it too."""
        maker, M = case
        x0 = min(x0, M)
        table = _enum_table(maker, M)
        rows, cols = _enum_oracle_pairs(maker, M, x0, tol)
        state = _enumeration.table_enumeration(table)
        sums = state.best_II[rows, x0] + state.best_I[cols, x0]
        assert (sums <= 1.0 + 2.0 * tol + _enumeration.SUM_SLACK).all()
        firsts, seconds, _, _ = _enum_oracle_grid(maker, M)
        found = rb.enumerate_equilibria(table, x0, tol=tol)
        pairs = {(c.profile.first, c.profile.second) for c in found}
        assert {(firsts[i], seconds[j]) for i, j in zip(rows.tolist(), cols.tolist())} <= pairs

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from([(maker, M) for maker, M in ENUM_CASES if M >= 3]),
        x0=st.integers(0, 6),
        tol=st.floats(-1.0, -1e-15) | st.just(math.nan),
    )
    def test_negative_or_nan_tol_matches_the_oracle(self, case, x0: int, tol: float) -> None:
        """The exhaustive rule accepts nothing at such a tolerance, and
        neither does enumeration."""
        maker, M = case
        x0 = min(x0, M)
        rows, _ = _enum_oracle_pairs(maker, M, x0, tol)
        assert len(rows) == 0
        assert rb.enumerate_equilibria(_enum_table(maker, M), x0, tol=tol) == ()


class TestEquilibriaSequence:
    def test_power_counts_follow_the_closed_form_without_a_solve(self, monkeypatch) -> None:
        """``power_family(7, 2)`` has the README's tie set, (M - 1)! (x0 - 1)!
        equilibria, at every interior start, found with no pair solved."""
        monkeypatch.setattr(_enumeration, "_pair_values", _no_solve)
        table = rb.power_family(7, 2)
        for x0 in range(1, 7):
            assert len(rb.enumerate_equilibria(table, x0)) == math.factorial(6) * math.factorial(x0 - 1)

    def test_a_kept_set_outlives_its_table_state(self) -> None:
        """A set holds no array of its table's enumeration state, so once the
        one-entry cache moves to another table that state is freed while the
        set lives, and the set's certificates, first read then, hold the
        bits of a fresh enumeration's."""
        table = rb.power_family(6, 2)
        _enumeration.table_enumeration.cache_clear()
        found = rb.enumerate_equilibria(table, 1)
        state = _enumeration.table_enumeration(table)
        assert found.keys.flags.owndata
        assert not any(
            np.shares_memory(found.keys, held)
            for held in vars(state).values()
            if isinstance(held, np.ndarray)
        )
        state = weakref.ref(state)
        rb.enumerate_equilibria(rb.exp_difference_table(6), 1)
        gc.collect()
        assert state() is None
        _enumeration.table_enumeration.cache_clear()
        fresh = rb.enumerate_equilibria(table, 1)
        assert repr(found) == repr(fresh)
        assert _same_bits(found.values, fresh.values)

    def test_indexing_slicing_and_iteration_agree(self) -> None:
        found = rb.enumerate_equilibria(rb.power_family(5, 2), 3)
        n = len(found)
        listed = tuple(found)
        assert n == len(listed) == 48
        assert listed == tuple(found[k] for k in range(n))
        assert found[-1] == listed[-1] and found[-n] == listed[0]
        for outside in (n, -n - 1):
            with pytest.raises(IndexError):
                found[outside]
        with pytest.raises(TypeError):
            found[1.0]  # type: ignore[index]
        for index in (
            slice(None), slice(1, None, 5), slice(None, None, -3), slice(-7, -1, 2),
            slice(40, 10), slice(n + 5, None),
        ):
            assert type(found[index]) is tuple and found[index] == listed[index]

    def test_equality_and_repr_follow_the_tuple(self) -> None:
        table = rb.power_family(4, 2)
        found, again = rb.enumerate_equilibria(table, 2), rb.enumerate_equilibria(table, 2)
        assert found is not again and found == again
        assert found == tuple(again) and tuple(found) == again
        assert found != rb.enumerate_equilibria(table, 3) and found != list(found)
        assert repr(found) == repr(tuple(found))
        empty = rb.enumerate_equilibria(table, 2, tol=-1.0)
        assert type(empty) is type(found)
        assert len(empty) == 0 and not empty and empty == () and repr(empty) == "()"
        assert empty.to_json_dicts() == []

    def test_strategies_are_built_on_read_and_shared(self) -> None:
        """Enumerating and writing the JSON dicts build no strategy object.
        Reading a certificate builds each of its strategies once, equal to
        the one ``all_strategies`` yields, and later reads share it."""
        M = 5
        _enumeration.strategies.cache_clear()
        _enumeration.table_enumeration.cache_clear()
        found = rb.enumerate_equilibria(rb.power_family(M, 2), 3)
        found.to_json_dicts()
        firsts, seconds = _enumeration.strategies(M)
        assert found.firsts is firsts and found.seconds is seconds
        assert not firsts.built and not seconds.built
        listed = (list(rb.all_strategies(Player.ONE, M)), list(rb.all_strategies(Player.TWO, M)))
        for k, certificate in enumerate(found):
            i, j = found.rows[k], found.cols[k]
            assert certificate.profile.first is firsts[i]
            assert certificate.profile.second is seconds[j]
            assert firsts[i] == listed[0][i] and seconds[j] == listed[1][j]
        assert sorted(firsts.built) == sorted(set(found.rows.tolist()))
        assert sorted(seconds.built) == sorted(set(found.cols.tolist()))

    @pytest.mark.parametrize("maker,M", ENUM_CASES)
    def test_json_dicts_equal_the_certificates(self, maker: str, M: int) -> None:
        table = _enum_table(maker, M)
        for x0 in range(M + 1):
            found = rb.enumerate_equilibria(table, x0)
            assert found.to_json_dicts() == [c.to_json_dict() for c in found]
