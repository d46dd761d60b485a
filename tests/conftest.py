"""Fixtures shared by the test modules."""

import math
import time

import pytest

from fracburgers.cli import parse_config, run_simulation


@pytest.fixture
def bad_reals():
    """Values every real-valued input refuses, each named back as given: no
    number, text, an int beyond float range, NaN and an infinity."""
    return (None, "fast", 10**400, math.nan, -math.inf)


@pytest.fixture
def bad_wholes():
    """Values every integer input refuses, each named back as given: no
    number, text that int() does not read, a fraction, NaN, an infinity
    and a negative int."""
    return (None, "x", "1.5", 2.5, math.nan, math.inf, -1)


@pytest.fixture
def bad_flags():
    """Values every true/false input refuses, each named back as given:
    other words for true and false, ints and no value."""
    return ("no", "True", 0, 1, None)


@pytest.fixture(scope="session")
def timed_run():
    """run(args) -> (result, seconds): run_simulation of the CLI arguments
    args and its wall time.

    Each argument list runs once per session, so the acceptance criteria and
    tests/test_viscous_runs.py share the runs they both grade; seconds is the
    time of that one run. Callers must not modify a result.
    """
    cache = {}

    def run(args):
        key = tuple(args)
        if key not in cache:
            cfg = parse_config([*args, "--output", "unused"])
            t0 = time.perf_counter()
            res = run_simulation(cfg)
            cache[key] = (res, time.perf_counter() - t0)
        return cache[key]

    return run
