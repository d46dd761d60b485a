"""The benchmark's workloads and the correctness checks read from their outputs.

Each workload is one CLI configuration. Its checks read only what a run
leaves behind: the exit code, diagnostics.csv, report.txt and the
snapshot files. A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SNAPSHOT_RE = re.compile(r"snapshot_(.+)\.csv")


@dataclass
class RunOutput:
    exit_code: int
    diagnostics: dict[str, np.ndarray]  # column name -> values, one row per step
    diagnostics_bytes: bytes
    report: dict[str, str]
    snapshots: list[tuple[float, Path]]  # sorted by time

    @property
    def steps(self) -> int:
        return len(self.diagnostics["t"]) - 1


def read_output(out_dir: Path, exit_code: int) -> RunOutput:
    raw = (out_dir / "diagnostics.csv").read_bytes()
    header, *rows = raw.decode().splitlines()
    table = np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(len(rows), -1)
    diagnostics = {name: table[:, i] for i, name in enumerate(header.split(","))}
    report = {}
    for line in (out_dir / "report.txt").read_text().splitlines():
        key, _, value = line.partition(": ")
        report.setdefault(key, value)
    snapshots = sorted((float(m.group(1)), p) for p in out_dir.iterdir()
                       if (m := SNAPSHOT_RE.fullmatch(p.name)))
    return RunOutput(exit_code, diagnostics, raw, report, snapshots)


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _check_status(out: RunOutput, exit_code: int, status: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, out.exit_code == exit_code, f"exit code {out.exit_code}, expected {exit_code}")
    _expect(problems, out.report.get("status") == status,
            f"status {out.report.get('status')!r}, expected {status!r}")
    _expect(problems, all(np.all(np.isfinite(v)) for v in out.diagnostics.values()),
            "non-finite diagnostics")
    return problems


def _check_snapshot_times(problems: list[str], out: RunOutput, every: float, until: float) -> None:
    expected = [k * every for k in range(int(until / every + 1e-9) + 1)]
    got = [t for t, _ in out.snapshots if t <= until + 1e-12]
    _expect(problems, len(got) == len(expected)
            and all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15) for a, b in zip(got, expected)),
            f"snapshot times {got}, expected {expected}")


def _l2_nonincreasing(problems: list[str], out: RunOutput) -> None:
    rise = float(np.max(np.diff(out.diagnostics["l2"]), initial=-np.inf))
    _expect(problems, rise <= 1e-10, f"L2 rises by {rise:.3e} in one step")


@dataclass(frozen=True)
class Workload:
    name: str
    args: Callable[[int], list[str]]  # seed -> CLI flags (without --output)
    check: Callable[[RunOutput, list[str]], list[str]]  # (output, flags) -> problems


def _flag(args: list[str], name: str) -> float:
    return float(args[args.index(name) + 1])


def _ends_at_t_final(problems: list[str], out: RunOutput, args: list[str]) -> None:
    # The run loop stops within 1e-12 * max(1, t_final) of t_final: the last
    # step may land on a snapshot time that rounds a hair below it.
    t_end, t_final = out.diagnostics["t"][-1], _flag(args, "--t-final")
    _expect(problems, abs(t_end - t_final) <= 1e-12 * max(1.0, t_final),
            f"ends at t = {t_end!r}, not at t_final = {t_final!r}")


# --- stiff-256: neg-sine, N = 256, gamma = 0.5, alpha = 2, dt auto ---------

def stiff_args(seed: int) -> list[str]:
    # The dissipative bound fixes dt = 0.5 / (0.5 * 128**2) from the first
    # step, so t = 0.05 is 820 steps with the same per-step mix as t = 0.25.
    return ["--n", "256", "--gamma", "0.5", "--alpha", "2", "--dt", "auto",
            "--t-final", "0.05", "--snapshot-every", "0.01", "--ic", "neg-sine"]


def stiff_check(out: RunOutput, args: list[str]) -> list[str]:
    problems = _check_status(out, 0, "completed")
    d = out.diagnostics
    _ends_at_t_final(problems, out, args)
    worst = float(np.max(np.abs(d["mass"])))
    _expect(problems, worst <= 1e-10, f"|mass| reaches {worst:.3e}")
    _l2_nonincreasing(problems, out)
    hi, lo = float(np.max(d["max_u"])), float(np.min(d["min_u"]))
    _expect(problems, hi <= 1.0 + 1e-6 and lo >= -1.0 - 1e-6,
            f"extrema [{lo!r}, {hi!r}] leave [-1, 1]")
    _check_snapshot_times(problems, out, _flag(args, "--snapshot-every"), _flag(args, "--t-final"))
    return problems


# --- shock-1024: neg-sine, N = 1024, gamma = 0, fixed dt, to detection -----

SHOCK_TOL = 1e-6


def shock_args(seed: int) -> list[str]:
    return ["--n", "1024", "--gamma", "0", "--dt", "0.001", "--t-final", "1.2",
            "--snapshot-every", "0.1", "--ic", "neg-sine"]


def shock_check(out: RunOutput, args: list[str]) -> list[str]:
    from fracburgers.oracles import InitialCondition, characteristics_solution, shock_time

    problems = _check_status(out, 2, "blowup_detected")
    cause = out.report.get("detection_cause")
    _expect(problems, cause == "slope_threshold", f"detection cause {cause!r}")
    try:
        detected_t = float(out.report.get("detected_t", "nan"))
    except ValueError:
        detected_t = math.nan
    _expect(problems, 0.9 <= detected_t <= 1.05, f"detected_t {detected_t!r} outside [0.9, 1.05]")
    bkm_drop = float(np.min(np.diff(out.diagnostics["bkm_integral"]), initial=np.inf))
    _expect(problems, bkm_drop >= 0.0, f"BKM integral falls by {-bkm_drop:.3e}")

    f = InitialCondition.neg_sine()
    pre_shock = min(shock_time(f), detected_t if detected_t == detected_t else 0.0)
    _check_snapshot_times(problems, out, _flag(args, "--snapshot-every"),
                          math.nextafter(pre_shock, 0.0))
    for t, path in out.snapshots:
        if t >= pre_shock:
            continue
        x, u = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        exact = np.array([characteristics_solution(f, xi, t) for xi in x])
        err = float(np.max(np.abs(u - exact)))
        _expect(problems, err <= SHOCK_TOL,
                f"snapshot t = {t:g} is {err:.3e} from characteristics_solution")
    return problems


# --- fine-16k: random:8:SEED, N = 16384, gamma = 0.05, alpha = 1, 2/3 rule --

FINE_N = 16384
FINE_STEPS = 100
FINE_SNAPSHOTS = 20


def fine_args(seed: int) -> list[str]:
    # max|u0| of random:8:SEED varies about fourfold across seeds and sets the
    # advective step, so the snapshot interval is scaled by it. An interval of
    # 4.5 initial steps takes 5 steps (the last one clipped) however the
    # interval is rounded, so every seed takes FINE_STEPS steps.
    from fracburgers.oracles import InitialCondition
    from fracburgers.spectral import make_grid

    umax = float(np.max(np.abs(InitialCondition.random_band(8, seed)(make_grid(FINE_N).nodes))))
    advective_dt = 0.5 / (umax * FINE_N / 2)
    every = float(f"{(FINE_STEPS / FINE_SNAPSHOTS - 0.5) * advective_dt:.3g}")
    return ["--n", str(FINE_N), "--gamma", "0.05", "--alpha", "1", "--dt", "auto",
            "--dealias", "two-thirds", "--t-final", f"{every * FINE_SNAPSHOTS:.6g}",
            "--snapshot-every", repr(every), "--ic", f"random:8:{seed}"]


def fine_check(out: RunOutput, args: list[str]) -> list[str]:
    problems = _check_status(out, 0, "completed")
    d = out.diagnostics
    _ends_at_t_final(problems, out, args)
    drift = float(np.max(np.abs(d["mass"] - d["mass"][0])))
    _expect(problems, drift <= 1e-10, f"mass drifts by {drift:.3e}")
    _l2_nonincreasing(problems, out)
    _check_snapshot_times(problems, out, _flag(args, "--snapshot-every"), _flag(args, "--t-final"))
    return problems


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("stiff-256", stiff_args, stiff_check),
    Workload("shock-1024", shock_args, shock_check),
    Workload("fine-16k", fine_args, fine_check),
)}
