"""Hitting values against an exact rational oracle, on chains that can cycle.

``_exact_values`` reads every table entry as the exact rational its float
stores, gives value 0 to the fortunes from which the goal cannot be
reached, and solves the rest of ``u = A u + c`` by Gaussian elimination
over ``fractions.Fraction``.  That is the minimal fixed point of the
one-stage recursion, with no rounding anywhere.  The float solver must
come within 1e-15 of it, also on chains that cycle, where ``auto`` pins
the fortunes that reach neither boundary and solves the rest.

Every path to those values must get them without value iteration, except
``hitting_values(..., method="iterate")``, the one caller of it.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redblack as rb
from redblack import _enumeration, solver
from redblack.cli import main
from redblack.game import Player

# exp_difference_table(80) rounds the entries with a - b >= 38 to exactly 1,
# so these seeded profiles can cycle.  Under the former iterating fallback,
# seeds 20 and 37 came back about 8e-13 off and seeds 22 and 48 spent the
# 10**6-sweep budget (about 9 s each) and raised RuntimeError.
CYCLING_SEEDS = (20, 22, 37, 48)
# Best responses to these seeds' player I on exp_difference_table(80).  A
# rule that re-extracted the response from the optimal values within a tie
# tolerance picked strategies whose systems are singular in floating point:
# seed 3 raised LinAlgError, and seeds 0 and 22 came back 0.19 and 0.34 off
# the exact values of the strategy they returned.
RESPONSE_SEEDS = (0, 3, 22)
# Player II's last policy against seed 26's player I on exp_difference_table(80).
SEED_26_RESPONSE = (
    0, 1, 2, 3, 1, 2, 1, 6, 1, 2, 3, 6, 1, 2, 3, 12, 1, 14, 3, 2, 1, 6, 7, 8, 9, 9, 5, 1, 1,
    10, 1, 2, 1, 2, 3, 13, 1, 1, 13, 1, 2, 3, 4, 5, 6, 1, 1, 1, 1, 2, 1, 2, 1, 1, 3, 1, 2, 1,
    1, 3, 1, 1, 1, 1, 1, 2, 3, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 1, 0,
)


def _seeded_profile(seed: int, M: int) -> rb.Profile:
    """Player I's stakes ``randint(1, x)`` for ``x = 1 .. M - 1``, then player II's."""
    rng = random.Random(seed)
    first = (0, *(rng.randint(1, x) for x in range(1, M)), 0)
    second = (0, *(rng.randint(1, x) for x in range(1, M)), 0)
    return rb.Profile(
        rb.StationaryStrategy(Player.ONE, first), rb.StationaryStrategy(Player.TWO, second)
    )


_Moves = dict[int, tuple[tuple[Fraction, int], ...]]


def _moves(table: rb.WinProbTable, profile: rb.Profile) -> _Moves:
    """Per interior fortune, its two (exact probability, target) moves."""
    M = table.M
    moves = {}
    for x in range(1, M):
        a, b = profile.first.bets[x], profile.second.bets[M - x]
        p = Fraction(table.prob(a, b))
        moves[x] = ((p, x + b), (1 - p, x - a))
    return moves


def _reaching(moves: _Moves, targets: set[int]) -> set[int]:
    """The fortunes with a positive-probability path into ``targets``."""
    reached = set(targets)
    grew = True
    while grew:
        grew = False
        for x, steps in moves.items():
            if x not in reached and any(w > 0 and y in reached for w, y in steps):
                reached.add(x)
                grew = True
    return reached


def _exact_values(table: rb.WinProbTable, profile: rb.Profile, goal: int) -> list[Fraction]:
    """Exact chance of reaching ``goal`` from every fortune ``0 .. M``."""
    moves = _moves(table, profile)
    reached = _reaching(moves, {goal})
    unknown = [x for x in range(1, table.M) if x in reached]
    # Row of fortune x: u_x - sum_y w u_y = (chance of stepping onto the goal).
    pending = []
    for x in unknown:
        coef, rhs = {x: Fraction(1)}, Fraction(0)
        for w, y in moves[x]:
            if y == goal:
                rhs += w
            elif y in reached:
                coef[y] = coef.get(y, 0) - w
        pending.append([coef, rhs])
    eliminated = []
    for x in unknown:
        pivot = next(row for row in pending if row[0].get(x, 0) != 0)
        pending.remove(pivot)
        coef, rhs = pivot
        for row in pending:
            factor = row[0].pop(x, 0) / coef[x]
            if factor:
                for y, v in coef.items():
                    if y != x:
                        row[0][y] = row[0].get(y, 0) - factor * v
                row[1] -= factor * rhs
        eliminated.append((x, coef, rhs))
    values = [Fraction(0)] * (table.M + 1)
    values[goal] = Fraction(1)
    for x, coef, rhs in reversed(eliminated):
        values[x] = (rhs - sum(v * values[y] for y, v in coef.items() if y != x)) / coef[x]
    return values


def _assert_exact(table: rb.WinProbTable, profile: rb.Profile) -> None:
    values = rb.hitting_values(table, profile)
    for got, goal in ((values.q, table.M), (values.t, 0)):
        want = [float(v) for v in _exact_values(table, profile, goal)]
        assert list(got) == pytest.approx(want, rel=0, abs=1e-15)


def _cycle_profiles() -> list[rb.Profile]:
    return [
        rb.Profile(first, second)
        for first in rb.all_strategies(Player.ONE, 4)
        for second in rb.all_strategies(Player.TWO, 4)
    ]


class TestExactOracle:
    def test_oracle_prices_the_cycle_at_zero(
        self, cycle_m4: rb.WinProbTable, cycle_profile: rb.Profile
    ) -> None:
        assert _exact_values(cycle_m4, cycle_profile, 4) == [0, 0, 0, 0, 1]
        assert _exact_values(cycle_m4, cycle_profile, 0) == [1, 0, 0, 0, 0]

    def test_oracle_solves_gamblers_ruin(self, pow2_m3: rb.WinProbTable) -> None:
        profile = rb.Profile.from_name("timid-timid", 3)
        assert _exact_values(pow2_m3, profile, 3) == [0, Fraction(1, 13), Fraction(4, 13), 1]

    def test_every_cycle_m4_profile(self, cycle_m4: rb.WinProbTable) -> None:
        profiles = _cycle_profiles()
        assert len(profiles) == 36
        assert not all(rb.absorption_certain(cycle_m4, profile) for profile in profiles)
        for profile in profiles:
            _assert_exact(cycle_m4, profile)

    @pytest.mark.parametrize("seed", CYCLING_SEEDS)
    def test_cycling_exp_difference_profiles(self, seed: int, monkeypatch) -> None:
        # A solver that still iterated here would spend the full sweep
        # budget on seeds 22 and 48; a small budget makes it fail at once.
        monkeypatch.setattr(solver, "DEFAULT_MAX_SWEEPS", 1000)
        table = rb.exp_difference_table(80)
        profile = _seeded_profile(seed, 80)
        assert not rb.absorption_certain(table, profile)
        _assert_exact(table, profile)

    @pytest.mark.parametrize("seed", RESPONSE_SEEDS)
    def test_best_response_values_are_its_strategys(self, seed: int) -> None:
        table = rb.exp_difference_table(80)
        opponent = _seeded_profile(seed, 80).first
        response = rb.best_response(table, opponent)
        exact = _exact_values(table, rb.Profile(opponent, response.strategy), 0)
        assert list(response.values) == pytest.approx([float(v) for v in exact], rel=0, abs=1e-14)

    def test_best_response_refuses_values_outside_the_unit_interval(self) -> None:
        """Player II's final system against seed 26's player I has condition
        number 4.5e13, and its solve overshoots 1 by 6.8e-5: ``verify_nash``
        would name a deviation worth 1.0000677.  It raises instead."""
        table = rb.exp_difference_table(80)
        profile = rb.Profile(_seeded_profile(26, 80).first, rb.bold_strategy(Player.TWO, 80))
        with pytest.raises(np.linalg.LinAlgError, match=r"leaves \[0, 1\]"):
            rb.verify_nash(table, profile, 20)

    def test_values_outside_the_unit_interval_raise_on_every_path(self, tmp_path, capsys) -> None:
        """Player II's stakes here are the last policy of the best response
        above, whose values solve to 1 + 6.8e-5.  The same range rule
        refuses them in ``hitting_values``, and ``solve`` exits 2."""
        table = rb.exp_difference_table(80)
        second = rb.StationaryStrategy(Player.TWO, SEED_26_RESPONSE)
        profile = rb.Profile(_seeded_profile(26, 80).first, second)
        with pytest.raises(np.linalg.LinAlgError, match=r"leaves \[0, 1\]"):
            rb.hitting_values(table, profile)
        table_file, profile_file = tmp_path / "el-m80.json", tmp_path / "profile.json"
        assert main(["gen", "--M", "80", "--family", "exp-diff", "--out", str(table_file)]) == 0
        profile_file.write_text(json.dumps(profile.to_json_dict()))
        args = ["solve", "--table", str(table_file), "--profile", str(profile_file), "--x0", "20"]
        assert main(args) == 2
        assert "leaves [0, 1]" in capsys.readouterr().err


# Seeds whose player I on exp_difference_table(80) makes best_response raise:
# seeds 5, 27 and 40 in the first solve, seed 26 through the range rule.
FAILING_RESPONSE_SEEDS = (5, 26, 27, 40)


class TestStackedBestResponses:
    @pytest.mark.parametrize("owner", ["first", "second"])
    def test_seeded_opponents_stack_to_their_single_calls(self, owner: str) -> None:
        """Against the 50 seeded players of either side on
        exp_difference_table(80), all at once, each opponent's response and
        values are those of its own call, to the bit."""
        table = rb.exp_difference_table(80)
        seeds = [s for s in range(50) if owner == "second" or s not in FAILING_RESPONSE_SEEDS]
        opponents = [getattr(_seeded_profile(seed, 80), owner) for seed in seeds]
        responder = opponents[0].owner.other
        policies, values = solver._best_responses(table, responder, solver._stake_rows(opponents))
        for opponent, policy, value in zip(opponents, policies, values):
            single = rb.best_response(table, opponent)
            assert single.player is responder
            bets = single.strategy.bets
            stakes = [bets[x] if responder is Player.ONE else bets[80 - x] for x in range(1, 80)]
            assert (policy + 1).tolist() == stakes
            assert value.tobytes() == np.array(single.values).tobytes()

    @pytest.mark.parametrize("seed", FAILING_RESPONSE_SEEDS)
    def test_a_failing_opponent_raises_in_a_stack_as_alone(self, seed: int) -> None:
        """A stack holding one opponent whose response cannot be solved
        raises the error, and message, of that opponent's own call: seed 26
        still raises through the range rule."""
        table = rb.exp_difference_table(80)
        opponent = _seeded_profile(seed, 80).first
        with pytest.raises(np.linalg.LinAlgError) as alone:
            rb.best_response(table, opponent)
        stack = [_seeded_profile(0, 80).first, opponent, _seeded_profile(1, 80).first]
        with pytest.raises(np.linalg.LinAlgError) as stacked:
            solver._best_responses(table, Player.TWO, solver._stake_rows(stack))
        assert str(stacked.value) == str(alone.value)
        if seed == 26:
            assert "leaves [0, 1]" in str(stacked.value)


class _Iterated(Exception):
    """Raised by the stand-in for the value iteration."""


def _refuse(*args, **kwargs):
    raise _Iterated


@pytest.fixture
def no_iteration(monkeypatch):
    monkeypatch.setattr(solver, "_iterate_chain", _refuse)
    # Best responses cached by another test would hide their solves.
    _enumeration.table_enumeration.cache_clear()
    yield
    _enumeration.table_enumeration.cache_clear()


class TestNoDefaultPathIterates:
    def _values_and_responses(self, table: rb.WinProbTable, profile: rb.Profile) -> None:
        assert not rb.absorption_certain(table, profile)
        values = rb.hitting_values(table, profile)
        assert list(values.q[1:-1]) == pytest.approx(
            [float(v) for v in _exact_values(table, profile, table.M)[1:-1]], rel=0, abs=1e-15
        )
        for opponent in (profile.first, profile.second):
            assert rb.best_response(table, opponent).player is opponent.owner.other
        with pytest.raises(_Iterated):
            rb.hitting_values(table, profile, method="iterate")

    def test_cycle_m4(
        self, no_iteration, cycle_m4: rb.WinProbTable, cycle_profile: rb.Profile
    ) -> None:
        self._values_and_responses(cycle_m4, cycle_profile)
        for profile in _cycle_profiles():
            rb.hitting_values(cycle_m4, profile)
        for x0 in range(5):
            rb.enumerate_equilibria(cycle_m4, x0).value_I  # members solve when read
            assert rb.verify_nash(cycle_m4, cycle_profile, x0).x0 == x0

    def test_exp_difference_seed_22(self, no_iteration) -> None:
        self._values_and_responses(rb.exp_difference_table(80), _seeded_profile(22, 80))


# The entries one ulp inside [0, 1].
_NEAR_ENDS = (math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))


@st.composite
def _forced_games(draw):
    """A shipped table at M <= 8 with some entries forced to exactly 0 or 1,
    or to one ulp inside them, and a random profile."""
    M = draw(st.integers(2, 8))
    table = draw(st.sampled_from([
        rb.power_family(M, 1), rb.power_family(M, 2), rb.min_exp_table(M, 1.0),
        rb.exp_difference_table(M),
    ]))
    # About two thirds of the playable entries forced, so that many chains
    # cycle; one forced entry in five is one ulp inside, so that many chains
    # leave a cycle only through a step of probability 5e-324 or 2**-53.
    for a in range(1, M):
        for b in range(1, M):
            forced = draw(st.sampled_from([0.0, 1.0, None]))
            if forced is not None:
                if draw(st.integers(0, 4)) == 0:
                    forced = math.nextafter(forced, 0.5)
                table = table.with_entry(a, b, forced)

    def strategy(player: Player) -> rb.StationaryStrategy:
        stakes = (draw(st.integers(1, x)) for x in range(1, M))
        return rb.StationaryStrategy(player, (0, *stakes, 0))

    return table, rb.Profile(strategy(Player.ONE), strategy(Player.TWO))


def _cycle_m4_game(climb: float, drop: float) -> tuple[rb.WinProbTable, rb.Profile]:
    """The ``cycle_m4`` game of conftest, its sure climb 1 -> 3 (entry
    (1, 2)) set to ``climb`` and its sure drop 3 -> 1 (entry (2, 1)) to
    ``drop``."""
    stakes = (0, 1, 1, 2, 0)
    table = rb.power_family(4, 1).with_entry(1, 2, climb).with_entry(2, 1, drop)
    return table, rb.Profile(
        rb.StationaryStrategy(Player.ONE, stakes), rb.StationaryStrategy(Player.TWO, stakes)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(game=_forced_games())
# The cycle is left from 3 with probability 5e-324 only: singular in floating point.
@example(game=_cycle_m4_game(1.0, _NEAR_ENDS[0]))
# Left with probability 2**-53 from 1 and 5e-324 from 3: solves.
@example(game=_cycle_m4_game(_NEAR_ENDS[1], _NEAR_ENDS[0]))
def test_values_split_at_most_the_stake(game) -> None:
    """``q + t <= 1``; both are exactly 0 where no boundary is reachable; and
    ``q + t = 1`` everywhere exactly when absorption is certain."""
    table, profile = game
    M = table.M
    try:
        values = rb.hitting_values(table, profile)
    except np.linalg.LinAlgError as exc:
        # Only a step one ulp inside [0, 1] can make the solve singular or
        # ill-conditioned in floating point; it must raise as documented.
        moves = _moves(table, profile).values()
        assert any(float(p) in _NEAR_ENDS for steps in moves for p, _ in steps)
        assert str(exc).startswith(("singular matrix", "ill-conditioned solve"))
        return
    total = np.add(values.q, values.t)
    assert (total <= 1.0 + 1e-12).all()
    stuck = [x for x in range(1, M) if x not in _reaching(_moves(table, profile), {0, M})]
    assert all(values.q[x] == values.t[x] == 0.0 for x in stuck)
    absorbs = rb.absorption_certain(table, profile)
    assert absorbs is not bool(stuck)
    assert bool(total.min() >= 1.0 - 1e-12) is absorbs
