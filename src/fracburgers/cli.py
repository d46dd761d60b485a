"""Command-line front end: configuration, run loop, deterministic outputs.

A run samples the chosen initial profile on the grid, advances it with RK4
(fixed or automatic step), records every diagnostic at every step, stores
nodal snapshots at exact multiples of snapshot_every, and stops early when
the detection policy fires, a step goes non-finite, the clock stalls or the
step budget runs out. Outputs are plain CSV plus a small report.txt, written
so that identical configs produce byte-identical files by the command line's
sink, OutputFiles: run_simulation hands it each record and snapshot as it
makes them, and write_outputs hands it the report's lines after the run.

A run's outcome is its RunResult: the detection cause, the step count and
the first and last records. The status, the exit code and report.txt's
detection lines are read from the cause's row of _OUTCOMES; exit code 64 is
a usage error, 1 an output I/O error and 130 an interrupted run.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import DetectionThresholds, DiagnosticsRecord, check_blowup, observe
from . import dynamics
from .dynamics import InstabilityError, SimParams, rk4_step, stable_dt
from ._writer import OutputFiles, _fmt
from .oracles import InitialCondition, breaking_time
from .spectral import (DEALIAS_RULES, as_float, dealias, flag, forward_dft, nodal_pair, nodes,
                       real, validate_n)

# Detection cause -> (status, exit code); None is a run that reached t_final.
_OUTCOMES = {None: ("completed", 0),
             "slope_threshold": ("blowup_detected", 2),
             "resolution_loss": ("resolution_lost", 3),
             "non_finite": ("numeric_failure", 4),
             "stalled_clock": ("numeric_failure", 4),
             "step_budget": ("budget_exceeded", 5)}
EXIT_CODES = dict(_OUTCOMES.values())

# Run budgets. A run takes at most 10**6 steps: RunConfig refuses a run
# certain to need more, and run_simulation ends one that reaches them with
# cause "step_budget". The stored snapshots, n values for each multiple of
# snapshot_every up to t_final (or up to _EPS * t_final past it), may hold at
# most 2**27 values, about 5 GB of CSV.
MAX_STEPS = 10**6
MAX_SNAPSHOT_VALUES = 2**27
# The run loop's clock tolerance, relative to t_final: a state within it of a
# snapshot multiple is stored, and one within it of t_final ends the run.
_EPS = 1e-12

# Config key -> (default, help). The flag is the key with "-" for "_". The
# equation's and the detection limits' defaults are SimParams' and
# DetectionThresholds' own, as text that parses back to the same value.
_OPTIONS = {
    "n": ("256", "grid size (even, >= 4)"),
    "gamma": (repr(SimParams.gamma), "dissipation strength, >= 0"),
    "alpha": (repr(SimParams.alpha), "fractional order in (0, 2]"),
    "dt": ("auto", 'time step, a number or "auto"'),
    "t_final": ("1", "end time, > 0"),
    "ic": ("neg-sine", " | ".join(InitialCondition.SELECTORS)),
    "dealias": (SimParams.dealias_rule, " | ".join(DEALIAS_RULES)),
    "snapshot_every": ("0.1", "time between stored snapshots"),
    "output": ("out", "output directory"),
    "detect_blowup": ("true", "true | false"),
    "slope_limit": (repr(DetectionThresholds.slope_limit), "detection threshold on |min slope|"),
    "tail_limit": (repr(DetectionThresholds.tail_limit), "detection threshold on tail fraction"),
    "linear_only": (str(SimParams.linear_only).lower(), "drop the nonlinear term (test mode)"),
}


class UsageError(Exception):
    """Bad flag or config value; maps to exit code 64."""


@dataclass(frozen=True)
class RunConfig:
    """One run of the equation params from the profile ic on n nodes.

    dt is a positive step or "auto", in which case the run loop calls
    stable_dt before every step. The run ends at t_final, stores snapshots
    at multiples of snapshot_every, and stops early when check_blowup fires
    under thresholds; None turns off the slope and tail rules, while a
    non-finite record still ends the run.

    Every run rule is checked here, ranges first, then the budgets and the
    cross-field rules, worded "<key>: <reason>", so a config built by hand
    or by dataclasses.replace meets the command line's rules. A config
    allocates nothing: the run forms the nodes from n (spectral.nodes).
    """

    n: int
    params: SimParams
    ic: InitialCondition
    dt: float | str
    t_final: float
    snapshot_every: float
    output_dir: Path
    thresholds: DetectionThresholds | None

    def __post_init__(self) -> None:
        n = validate_n(self.n)
        dt = self.dt
        if dt != "auto":
            dt = as_float(self.dt)
            if not 0.0 < dt < np.inf:
                raise ValueError(f'dt: must be finite and > 0 or "auto", got {self.dt!r}')
        t_final = real("t_final", self.t_final, 0.0)  # a NaN t_final would never end the run loop
        # 0 would clip every step to length 0; NaN would store no snapshot after t = 0.
        every = real("snapshot_every", self.snapshot_every, 0.0)
        # Two lower bounds on the step count: one step per snapshot interval
        # (first, as it refuses a ratio that overflows to inf) and t_final over
        # the longest step, which under auto is stable_dt at max|u| = 0. That
        # is read through the module, so the run loop makes cli's first call.
        ratio = t_final / every
        if ratio >= MAX_STEPS + 1:
            raise ValueError(f"snapshot_every: {every:g} leaves {ratio:.6g} intervals to t_final "
                             f"{t_final:g}, each at least one step: more than 10**6")
        longest = dynamics.stable_dt(0.0, n, self.params) if dt == "auto" else dt
        if t_final > MAX_STEPS * longest:
            raise ValueError(f"dt: {dt} steps are at most {longest:.6g} long, so t_final "
                             f"{t_final:g} takes more than 10**6")
        # The run stores the multiples 0..k of every, k = floor(ratio), and
        # k + 1 as well when it lies at most its tolerance past t_final.
        k = math.floor(ratio)
        stored = k + 2 if (k + 1) * every - t_final <= _EPS * t_final else k + 1
        if stored * n > MAX_SNAPSHOT_VALUES:
            raise ValueError(f"snapshot_every: {every:g} stores more than 2**27 snapshot values "
                             f"(about 5 GB of CSV) at n {n} and t_final {t_final:g}")
        if every > t_final:
            raise ValueError(f"snapshot_every: {every:g} exceeds t_final {t_final:g}")
        ic = self.ic  # a hand-built run may sample any callable
        if isinstance(ic, InitialCondition) and ic.kind == "random" and ic.params[0] >= n // 2:
            # Mode n/2 and above alias onto lower modes on an n-node grid.
            raise ValueError(f"ic: random kmax must be < n/2 = {n // 2}, got {ic.params[0]}")
        derived = {"n": n, "dt": dt, "t_final": t_final, "snapshot_every": every,
                   "output_dir": Path(self.output_dir)}
        for key, value in derived.items():
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class RunResult:
    """A run's summary: its t = 0 record and its last record (the same one
    for a run that took no step), the detection cause that ended it (None
    if it reached t_final), its steps and its warnings. The status is the
    cause's row of _OUTCOMES."""

    first: DiagnosticsRecord
    last: DiagnosticsRecord
    cause: str | None
    steps: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.cause not in _OUTCOMES:
            raise ValueError(f"unknown cause {self.cause!r}")

    @property
    def status(self) -> str:
        return _OUTCOMES[self.cause][0]


class _Parser(argparse.ArgumentParser):
    # argparse's default error handler exits with code 2; route everything
    # through UsageError so main() owns the exit code.
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="fracburgers",
                description="Pseudo-spectral fractional-Burgers simulator")
    for key, (_, text) in _OPTIONS.items():
        option = "--" + key.replace("_", "-")
        if key == "linear_only":
            p.add_argument(option, action="store_const", const="true", help=text)
        else:
            p.add_argument(option, help=text)
    p.add_argument("--config", help="key=value file; flags override it")
    return p


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not part of a key
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config file: {err}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve defaults, config file, and flags (in rising precedence).

    This reads only the --config file and detect_blowup (spectral.flag).
    Every other value reaches its owner as text (InitialCondition.parse,
    SimParams, DetectionThresholds, RunConfig); every grammar, range, budget
    and cross-field rule is theirs, a value's worded by spectral's rule for
    its type, and "<key>: <reason>" is reported as "invalid value for <key>: <reason>".
    """
    ns = _build_parser().parse_args(argv)
    merged = {key: default for key, (default, _) in _OPTIONS.items()}
    if ns.config is not None:
        merged.update(_read_config_file(ns.config))
    for key in _OPTIONS:
        given = getattr(ns, key)
        if given is not None:
            merged[key] = given

    try:
        detect_blowup = flag("detect_blowup", merged["detect_blowup"])
        ic = InitialCondition.parse(merged["ic"])
        # Both limits are checked even when detection is off.
        thresholds = DetectionThresholds(slope_limit=merged["slope_limit"],
                                         tail_limit=merged["tail_limit"])
        return RunConfig(
            n=merged["n"],
            params=SimParams(gamma=merged["gamma"], alpha=merged["alpha"],
                             dealias_rule=merged["dealias"], linear_only=merged["linear_only"]),
            ic=ic,
            dt=merged["dt"],
            t_final=merged["t_final"],
            snapshot_every=merged["snapshot_every"],
            output_dir=merged["output"],
            thresholds=thresholds if detect_blowup else None,
        )
    except ValueError as err:
        raise UsageError(f"invalid value for {err}") from None


def run_simulation(cfg: RunConfig, sink) -> RunResult:
    """Advance the configured run to t_final or to the first halting signal.

    The state is the half-spectrum c and the loop owns the clock t. Every
    state, t=0 included, takes one path: its nodal u and u_x are formed
    once (nodal_pair) and shared by its record, its snapshot and the first
    stage of the next step; observe sums the BKM integral from the previous
    record, handed in as prev; the record goes to the sink; the state is
    stored as a snapshot when t lies within eps of k * snapshot_every, k the
    count stored so far; and the detection policy meets the record before
    the next step. Steps are clipped to land exactly on the next snapshot
    multiple and on t_final; on landing, t is assigned the target value, so
    snapshot times are exact float multiples of snapshot_every and no
    drift-induced micro-steps occur. A step that does not land ends more
    than eps short of its target, so it stores no snapshot. A non-finite
    step (rk4_step's InstabilityError) ends the run with cause "non_finite",
    as a non-finite record does. A step too short to move the clock
    (t + dt == t; only dt auto can take one) is not taken, and ends the run
    with cause "stalled_clock". A run that has taken MAX_STEPS steps short of
    t_final ends with cause "step_budget": steps clipped to land on the
    snapshots, or auto steps that shrink as max|u| grows, can reach it past
    RunConfig's check.

    The loop hands its output to sink as it goes: sink.add_record(rec) with
    each state's record, and then, for a snapshot, sink.add_snapshot(t, u)
    with its nodal values. The sink may keep both; the loop holds neither.
    The result is the run's summary: its first and last records, its cause,
    its steps and its warnings.

    The run starts from the sampled profile's spectrum projected by the
    dealias rule, so under "two-thirds" the rows above K = band_limit(n,
    rule) are zero at every stage, and the t=0 record and snapshot read that
    projected state. Under "off" the projection keeps every row, and the
    t=0 snapshot is the sampled profile itself. The maximum-principle
    warning reads the t=0 snapshot.
    """
    p = cfg.params
    eps = _EPS * cfg.t_final
    sampled = cfg.ic(nodes(cfg.n))
    t, rec, cause, steps, stored = 0.0, None, None, 0, 0

    # Finiteness is checked explicitly: observe on each record, rk4_step on its result.
    with np.errstate(over="ignore", invalid="ignore"):
        c = dealias(forward_dft(sampled), p.dealias_rule)
        while True:
            nodal = nodal_pair(c)
            rec = observe(c, t, prev=rec, nodal=nodal, rule=p.dealias_rule)
            sink.add_record(rec)
            if abs(stored * cfg.snapshot_every - t) <= eps:
                u = nodal[0]
                if not stored:
                    first = rec
                    # Under "off" the t=0 snapshot stays the sampled profile, which
                    # irfft(rfft(sampled)) reproduces only to rounding.
                    u = sampled if p.dealias_rule == "off" else u
                    max0, min0 = np.max(u), np.min(u)
                    sampled = None
                sink.add_snapshot(t, u)
                stored += 1
                del u  # held by the sink, if at all
            cause = check_blowup(rec, cfg.thresholds)
            if cause is not None or t >= cfg.t_final - eps:
                break
            if steps == MAX_STEPS:
                cause = "step_budget"
                break
            target = min(stored * cfg.snapshot_every, cfg.t_final)
            # check_blowup has ruled out a non-finite max|u|, so stable_dt returns.
            cap = cfg.dt if cfg.dt != "auto" else stable_dt(max(rec.max_u, -rec.min_u), cfg.n, p)
            landed = cap >= target - t - eps
            dt_step = target - t if landed else cap
            if not landed and t + dt_step == t:  # the step is below the clock's resolution
                cause = "stalled_clock"
                break
            try:
                c = rk4_step(c, p, dt_step, nodal=nodal)
            except InstabilityError:  # the last record made is the last valid state
                cause = "non_finite"
                break
            steps += 1
            t = target if landed else t + dt_step

    warnings = () if max0 >= 0.0 >= min0 else (
        "maximum-principle hypotheses do not hold at t=0 "
        f"(need max u >= 0 >= min u, got max={max0:.6g}, min={min0:.6g}); "
        "the extrema bounds are monitored but not guaranteed",
    )
    return RunResult(first, rec, cause, steps, warnings)


def write_outputs(result: RunResult, cfg: RunConfig, files: OutputFiles) -> list[Path]:
    """Word report.txt from the summary of a run handed to files, which writes
    it beside its CSVs (add_report); return every file written, report.txt last.

    report.txt names the profile by its --ic selector, so a profile that is
    not an InitialCondition is refused (TypeError) before it is written.
    """
    if not isinstance(cfg.ic, InitialCondition):
        raise TypeError(f"report.txt names the profile by its --ic selector; {cfg.ic!r} has none")
    predicted = breaking_time(result.first.min_slope)
    label = " (inviscid prediction)" if cfg.params.gamma > 0.0 else ""
    detected = result.cause is not None
    report_lines = [
        f"status: {result.status}",
        f"ic: {cfg.ic.label()}",
        "rng: pcg64",
        f"seed: {'none' if cfg.ic.seed is None else cfg.ic.seed}",
        ("predicted_t_star: none" if math.isinf(predicted)
         else f"predicted_t_star: {_fmt(predicted)}{label}"),
        f"detected: {'true' if detected else 'false'}",
        f"detected_t: {_fmt(result.last.t) if detected else 'none'}",
        f"detection_cause: {result.cause or 'none'}",
        *[f"warning: {w}" for w in result.warnings],
    ]
    return files.add_report(report_lines)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else list(argv))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 64
    try:  # an unusable output directory fails before the run, not after it
        with OutputFiles(cfg.output_dir) as files:
            result = run_simulation(cfg, files)
        written = write_outputs(result, cfg, files)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # the with block has closed diagnostics.csv
        print("error: interrupted", file=sys.stderr)
        return 130
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{result.status} after {result.steps} steps (t = {result.last.t:.6g}); "
          f"{len(written)} files in {cfg.output_dir}")
    return _OUTCOMES[result.cause][1]
