"""Shared fixtures: the preset tables exercised across the suite."""

from __future__ import annotations

import gc
import signal

import pytest

import redblack as rb


@pytest.fixture(scope="session")
def pow1_m4() -> rb.WinProbTable:
    return rb.power_family(4, 1)


@pytest.fixture(scope="session")
def pow2_m3() -> rb.WinProbTable:
    return rb.power_family(3, 2)


@pytest.fixture(scope="session")
def pow2_m4() -> rb.WinProbTable:
    return rb.power_family(4, 2)


@pytest.fixture(scope="session")
def min_exp_m4() -> rb.WinProbTable:
    return rb.min_exp_table(4, 1.0)


@pytest.fixture(scope="session")
def el_m4() -> rb.WinProbTable:
    return rb.exp_difference_table(4)


@pytest.fixture(scope="session")
def cycle_m4() -> rb.WinProbTable:
    """Fair linear table with two entries forced deterministic.

    With both players staking (1, 1, 2) the induced chain cycles
    1 -> 3 -> 1 forever: from fortune 1 the stakes are (1, 2) and the entry
    forces a sure climb to 3; from fortune 3 they are (2, 1) and the entry
    forces a sure drop back to 1.
    """
    return rb.power_family(4, 1).with_entry(1, 2, 1.0).with_entry(2, 1, 0.0)


@pytest.fixture(scope="session")
def cycle_profile() -> rb.Profile:
    return rb.Profile(
        rb.StationaryStrategy(rb.Player.ONE, (0, 1, 1, 2, 0)),
        rb.StationaryStrategy(rb.Player.TWO, (0, 1, 1, 2, 0)),
    )


@pytest.fixture(scope="session")
def cycling_first_m47() -> rb.StationaryStrategy:
    """Player I on ``exp_difference_table(47)`` against whom the best
    response's policy iteration cycles in floating point: its solves have
    condition numbers of 2e8 to 5e9, so their rounding reads as gains."""
    return rb.StationaryStrategy(rb.Player.ONE, (
        0, 1, 1, 1, 2, 1, 4, 4, 7, 8, 4, 9, 1, 4, 6, 2, 7, 3, 9, 10, 17, 19, 22, 7,
        18, 16, 1, 20, 14, 18, 29, 5, 21, 17, 18, 5, 16, 21, 23, 13, 3, 40, 4, 23,
        17, 23, 27, 0,
    ))


@pytest.fixture()
def ten_second_alarm():
    """Fail a test that is still running after 10 s instead of hanging."""

    def expire(signum, frame):
        pytest.fail("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def collector(request):
    """The cyclic garbage collector switched on, then off, for the test, and
    restored afterwards; the value is whether it is on."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()
