"""Child-process entry points of the benchmark.

    python child.py setup ARGV...            set up a CLI run, stop before its first step
    python child.py trace SPANS ARGV...      run the CLI with every layer wrapped in spans
    python child.py grade SPANS IC T CSV     time characteristics_solution on a snapshot

`setup` prints "ready" once the run loop reaches its first call into the
stepper (any `*_step` function or `stable_dt` the CLI module holds), then
exits 0. Everything before that point is set-up: imports, parse_config,
make_grid, sampling the initial condition, predicted_blowup_time and the
first observe.

`trace` and `grade` wrap, from outside the package, every public function
of fracburgers.spectral, .dynamics, .diagnostics, .oracles and .cli, the
initial-condition call, and the numpy.fft transforms, then write the spans
to SPANS. The program's own source is untouched.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import numpy as np

MODULES = ("spectral", "dynamics", "diagnostics", "oracles", "cli")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")
GRADE_MAX_NODES = 1024


class _FirstStep(BaseException):
    """Raised at the first stepper call; BaseException so no handler eats it."""


def _fft_bytes(args, result) -> int:
    # Computed from array sizes: input plus output, not measured traffic.
    return np.asarray(args[0]).nbytes + result.nbytes


def instrument(rec: "SpanRecorder") -> None:
    import fracburgers

    mods = {m: importlib.import_module(f"fracburgers.{m}") for m in MODULES}
    wrapped = {}
    for name, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = rec.wrap(name, attr, obj)
    # Modules import each other's functions by name: rebind every reference.
    for mod in (fracburgers, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    ic_cls = mods["oracles"].InitialCondition
    for meth in ("__call__", "derivative"):
        setattr(ic_cls, meth, rec.wrap("oracles", f"InitialCondition.{meth}",
                                       getattr(ic_cls, meth)))
    for fname in FFT_FUNCTIONS:
        setattr(np.fft, fname, rec.wrap("numpy.fft", fname, getattr(np.fft, fname),
                                        nbytes=_fft_bytes))


def setup(argv: list[str]) -> int:
    from fracburgers import cli

    def first_step(*args, **kwargs):
        raise _FirstStep

    for attr in list(vars(cli)):
        if attr.endswith("_step") or attr == "stable_dt":
            setattr(cli, attr, first_step)
    try:
        cli.main(argv)
    except _FirstStep:
        print("ready", flush=True)
        return 0
    print("run finished without a step", file=sys.stderr)
    return 1


def trace(spans_path: str, argv: list[str]) -> int:
    from spans import SpanRecorder  # not imported by `setup`, whose import time is measured

    rec = SpanRecorder()
    instrument(rec)
    from fracburgers import cli

    code = cli.main(argv)
    rec.dump(Path(spans_path))
    return code


def grade(spans_path: str, ic: str, t: str, snapshot: str) -> int:
    from spans import SpanRecorder

    rec = SpanRecorder()
    instrument(rec)
    from fracburgers import cli, oracles

    f = cli.parse_config(["--ic", ic]).ic
    x = np.loadtxt(snapshot, delimiter=",", skiprows=1, usecols=0)
    stride = -(-len(x) // GRADE_MAX_NODES)
    for xi in x[::stride]:
        oracles.characteristics_solution(f, float(xi), float(t))
    rec.dump(Path(spans_path))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    if mode == "trace":
        sys.exit(trace(rest[0], rest[1:]))
    if mode == "grade":
        sys.exit(grade(*rest))
    sys.exit(f"unknown mode {mode!r}")
