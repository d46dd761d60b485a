"""Fixtures shared by the test modules."""

import math
import time

import pytest

from fracburgers._writer import OutputFiles
from fracburgers.cli import parse_config, run_simulation, write_outputs


class Collected:
    """A sink that keeps what a run hands it: records, every record in
    order; snapshots, the (t, u) pairs; and calls, the ordered log of its
    calls, ("record", rec) and ("snapshot", (t, u))."""

    def __init__(self):
        self.records, self.snapshots, self.calls = [], [], []

    def add_record(self, rec):
        self.calls.append(("record", rec))
        self.records.append(rec)

    def add_snapshot(self, t, u):
        self.calls.append(("snapshot", (t, u)))
        self.snapshots.append((t, u))


def collect(cfg):
    """(result, sink): run_simulation of cfg into a new Collected sink."""
    sink = Collected()
    return run_simulation(cfg, sink), sink


def write_run(cfg):
    """(result, written): cfg run as the command line runs it, into the
    OutputFiles of cfg.output_dir, and its report written there."""
    with OutputFiles(cfg.output_dir) as files:
        result = run_simulation(cfg, files)
    return result, write_outputs(result, cfg, files)


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
    """run(args) -> (result, sink, seconds): run_simulation of the CLI
    arguments args into a Collected sink, and its wall time.

    Each argument list runs once per session, so the acceptance criteria and
    tests/test_viscous_runs.py share the runs they both grade; seconds is the
    time of that one run. Callers must not modify a result or a sink.
    """
    cache = {}

    def run(args):
        key = tuple(args)
        if key not in cache:
            cfg = parse_config([*args, "--output", "unused"])
            t0 = time.perf_counter()
            res, sink = collect(cfg)
            cache[key] = (res, sink, time.perf_counter() - t0)
        return cache[key]

    return run
