"""Command-line front end: configuration, run loop, deterministic outputs.

A run samples the chosen initial profile on the grid, advances it with RK4
(fixed or automatic step), records every diagnostic at every step, stores
nodal snapshots at exact multiples of snapshot_every, and stops early when
the detection policy fires or a step goes non-finite. Outputs are plain CSV
plus a small report.txt, written so that identical configs produce
byte-identical files.

A run's outcome is its status and its records; report.txt derives its
prediction and detection lines from them.

Exit codes: 0 completed, 2 blow-up detected, 3 resolution lost,
4 numeric failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (
    DetectionThresholds,
    DiagnosticsRecord,
    check_blowup,
    extrema,
    observe,
)
from . import dynamics
from .dynamics import InstabilityError, SimParams, rk4_step, stable_dt
from ._writer import _fmt, format_column, write_csv
from .oracles import InitialCondition, breaking_time
from .spectral import DEALIAS_RULES, as_float, dealias, forward_dft, nodal_pair, nodes, validate_n

EXIT_CODES = {"completed": 0, "blowup_detected": 2, "resolution_lost": 3,
              "numeric_failure": 4}

# Run budgets, which RunConfig checks before a run starts. A run may take at
# most 10**6 steps (a record is about 440 B): a fixed dt by its count, dt auto
# by the count its step bound at max|u| = 0 already forces. The held
# snapshots, (floor(t_final / snapshot_every) + 1) * n values, may fill at
# most 1 GiB; that also keeps consecutive snapshot times at least t_final *
# 2**-25 apart, far wider than the 10 significant digits of the file names. A
# step holds about 16 arrays of n float64 values (state, stages, temporaries,
# nodal u, u_x and product), which get the same 1 GiB: n is at most 2**23.
MAX_FIXED_STEPS = 10**6
MAX_SNAPSHOT_VALUES = 2**27

# The status a detection cause ends a run with; "completed" pairs with "none".
_CAUSE_TO_STATUS = {"slope_threshold": "blowup_detected",
                    "resolution_loss": "resolution_lost",
                    "non_finite": "numeric_failure"}

# Config key -> (default, help). The flag is the key with "-" for "_".
_OPTIONS = {
    "n": ("256", "grid size (even, >= 4)"),
    "gamma": ("0", "dissipation strength, >= 0"),
    "alpha": ("1", "fractional order in (0, 2]"),
    "dt": ("auto", 'time step, a number or "auto"'),
    "t_final": ("1", "end time, > 0"),
    "ic": ("neg-sine", " | ".join(InitialCondition.SELECTORS)),
    "dealias": ("off", " | ".join(DEALIAS_RULES)),
    "snapshot_every": ("0.1", "time between stored snapshots"),
    "output": ("out", "output directory"),
    "detect_blowup": ("true", "true | false"),
    "slope_limit": ("100", "detection threshold on |min slope|"),
    "tail_limit": ("0.1", "detection threshold on tail fraction"),
    "linear_only": ("false", "drop the nonlinear term (test mode)"),
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
        t_final = as_float(self.t_final)  # a NaN t_final would never end the run loop
        if not 0.0 < t_final < np.inf:
            raise ValueError(f"t_final: must be finite and > 0, got {self.t_final!r}")
        # 0 would clip every step to length 0; NaN would store no snapshot after t = 0.
        every = as_float(self.snapshot_every)
        if not 0.0 < every < np.inf:
            raise ValueError(f"snapshot_every: must be finite and > 0, got {self.snapshot_every!r}")
        ratio = t_final / every  # may overflow to inf, which the first test catches
        if ratio >= MAX_SNAPSHOT_VALUES or (math.floor(ratio) + 1) * n > MAX_SNAPSHOT_VALUES:
            raise ValueError(
                f"snapshot_every: {every:g} holds more than 2**27 snapshot values (1 GiB) "
                f"at n {n} and t_final {t_final:g}"
            )
        if 16 * n > MAX_SNAPSHOT_VALUES:
            raise ValueError(
                f"n: a step at n {n} holds about 16 * n float64 values, more than 2**27 "
                "(1 GiB); n may be at most 2**23"
            )
        if every > t_final:
            raise ValueError(f"snapshot_every: {every:g} exceeds t_final {t_final:g}")
        if dt != "auto" and t_final / dt > MAX_FIXED_STEPS:
            raise ValueError(
                f"dt: {dt:g} needs {t_final / dt:.6g} steps to t_final {t_final:g}, "
                "more than 10**6"
            )
        # stable_dt falls as max|u| grows, so at max|u| = 0 it bounds every auto
        # step. It is read through the module so that the first call of cli's own
        # stable_dt stays the run loop's first step.
        longest = dynamics.stable_dt(0.0, n, self.params) if dt == "auto" else math.inf
        if t_final > MAX_FIXED_STEPS * longest:
            raise ValueError(
                f"dt: auto steps are at most {longest:.6g} at gamma {self.params.gamma:g}, "
                f"alpha {self.params.alpha:g} and n {n}, so t_final {t_final:g} takes "
                "more than 10**6"
            )
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
    records: tuple[DiagnosticsRecord, ...]
    snapshots: tuple[tuple[float, np.ndarray], ...]
    status: str
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in EXIT_CODES:
            raise ValueError(f"unknown status {self.status!r}")
        if not self.records:  # report.txt reads the first and the last record
            raise ValueError("a run has at least its t = 0 record")


class _Parser(argparse.ArgumentParser):
    # argparse's default error handler exits with code 2; route everything
    # through UsageError so main() owns the exit code.
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="fracburgers",
                description="Pseudo-spectral fractional-Burgers simulator")
    for key, (_, text) in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if key == "linear_only":
            p.add_argument(flag, action="store_const", const="true", help=text)
        else:
            p.add_argument(flag, help=text)
    p.add_argument("--config", help="key=value file; flags override it")
    return p


def _as_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"invalid value for {key}: {raw!r} is not an integer") from None


def _as_bool(key: str, raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise UsageError(f"invalid value for {key}: expected true or false, got {raw!r}")


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

    This only reads text: n as an integer and the two bools. The --ic text,
    the --dealias rule and the other numbers reach their owners
    (InitialCondition.parse, SimParams, DetectionThresholds, RunConfig);
    every grammar, range, budget and cross-field rule is theirs, and their
    "<key>: <reason>" is reported as "invalid value for <key>: <reason>".
    """
    ns = _build_parser().parse_args(argv)
    merged = {key: default for key, (default, _) in _OPTIONS.items()}
    if ns.config is not None:
        merged.update(_read_config_file(ns.config))
    for key in _OPTIONS:
        given = getattr(ns, key)
        if given is not None:
            merged[key] = given

    n = _as_int("n", merged["n"])
    linear_only = _as_bool("linear_only", merged["linear_only"])
    detect_blowup = _as_bool("detect_blowup", merged["detect_blowup"])
    try:
        ic = InitialCondition.parse(merged["ic"])
        # Both limits are checked even when detection is off.
        thresholds = DetectionThresholds(slope_limit=merged["slope_limit"],
                                         tail_limit=merged["tail_limit"])
        return RunConfig(
            n=n,
            params=SimParams(gamma=merged["gamma"], alpha=merged["alpha"],
                             dealias_rule=merged["dealias"], linear_only=linear_only),
            ic=ic,
            dt=merged["dt"],
            t_final=merged["t_final"],
            snapshot_every=merged["snapshot_every"],
            output_dir=merged["output"],
            thresholds=thresholds if detect_blowup else None,
        )
    except ValueError as err:
        raise UsageError(f"invalid value for {err}") from None


def run_simulation(cfg: RunConfig) -> RunResult:
    """Advance the configured run to t_final or to the first halting signal.

    The state is the half-spectrum c and the loop owns the clock t. Steps
    are clipped to land exactly on snapshot multiples and on t_final; on
    landing, t is assigned the target value, so snapshot times are exact
    float multiples of snapshot_every and no drift-induced micro-steps
    occur. One DiagnosticsRecord is appended per step, plus the initial
    record at t=0, and the detection policy meets each one before the next
    step. Each state's nodal u and u_x are formed once: its record, its
    snapshot and the first stage of the next step share them. observe sums
    the BKM integral from the previous record, handed in as prev. The run
    starts from the sampled profile's spectrum projected by the dealias rule,
    so under "two-thirds" the rows above K = band_limit(n, rule) are zero at
    every stage, and the t=0 record, snapshot and maximum-principle warning
    read that projected state. Under "off" the projection keeps every row,
    and the t=0 snapshot and warning read the sampled profile itself.
    """
    p = cfg.params
    u0 = cfg.ic(nodes(cfg.n))

    # Finiteness is checked explicitly: observe on each record, rk4_step on its result.
    with np.errstate(over="ignore", invalid="ignore"):
        c = dealias(forward_dft(u0), p.dealias_rule)
        nodal = nodal_pair(c)
        # u0 is the t=0 state at the nodes. Under "off" it stays the sampled
        # profile, which irfft(rfft(u0)) reproduces only to rounding.
        if p.dealias_rule != "off":
            u0 = nodal[0]

        warnings: list[str] = []
        max0, min0 = extrema(u0)
        if not (max0 >= 0.0 and min0 <= 0.0):
            warnings.append(
                "maximum-principle hypotheses do not hold at t=0 "
                f"(need max u >= 0 >= min u, got max={max0:.6g}, min={min0:.6g}); "
                "the extrema bounds are monitored but not guaranteed"
            )

        t = 0.0
        rec = observe(c, t, nodal=nodal, rule=p.dealias_rule)
        records = [rec]
        snapshots = [(t, u0)]
        status = "completed"

        eps = 1e-12 * cfg.t_final
        snap_idx = 1
        while True:
            cause = check_blowup(rec, cfg.thresholds)
            if cause is not None:
                status = _CAUSE_TO_STATUS[cause]
                break
            if t >= cfg.t_final - eps:
                break
            snap_t = snap_idx * cfg.snapshot_every
            target = min(snap_t, cfg.t_final)
            try:
                cap = cfg.dt if cfg.dt != "auto" else stable_dt(max(rec.max_u, -rec.min_u), cfg.n, p)
                remaining = target - t
                if cap >= remaining - eps:
                    dt_step, landed = remaining, True
                else:
                    dt_step, landed = cap, False
                c = rk4_step(c, p, dt_step, nodal=nodal)
            except InstabilityError:
                # Step blew up; the last appended record is the last valid state.
                status = "numeric_failure"
                break
            t = target if landed else t + dt_step
            nodal = nodal_pair(c)
            rec = observe(c, t, prev=rec, nodal=nodal, rule=p.dealias_rule)
            records.append(rec)
            if landed and abs(snap_t - t) <= eps:
                snapshots.append((t, nodal[0]))
                snap_idx += 1

    return RunResult(records=tuple(records), snapshots=tuple(snapshots),
                     status=status, warnings=tuple(warnings))


def _snapshot_name(t: float) -> str:
    return f"snapshot_{format(t, '.10g')}.csv"


def write_outputs(result: RunResult, cfg: RunConfig) -> list[Path]:
    """Write diagnostics.csv, one snapshot_<t>.csv per snapshot, report.txt.

    Every float is written as _fmt writes it, ``"%.17g" % (v + 0.0)``, and
    every line ends with LF on every platform. The CSVs are streamed as bytes
    by _writer.write_csv, which formats each column with numpy array
    operations, exactly for 1e-6 < |v| < 1e16 and with the same % for every
    other value; the node column is formatted once per call. report.txt
    names the profile by its --ic selector, so a profile that is not an
    InitialCondition is refused (TypeError) before any file is made.
    """
    if not isinstance(cfg.ic, InitialCondition):
        raise TypeError(f"report.txt names the profile by its --ic selector; {cfg.ic!r} has none")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    path = out / "diagnostics.csv"
    write_csv(path, ",".join(DiagnosticsRecord._fields) + "\n", result.records)
    written.append(path)

    x = format_column(nodes(cfg.n))
    for t, field in result.snapshots:
        path = out / _snapshot_name(t)
        write_csv(path, "x,u\n", np.asarray(field)[:, None], lead=x)
        written.append(path)

    predicted = breaking_time(result.records[0].min_slope)
    label = " (inviscid prediction)" if cfg.params.gamma > 0.0 else ""
    detected = result.status != "completed"
    cause = next((c for c, s in _CAUSE_TO_STATUS.items() if s == result.status), "none")
    report_lines = [
        f"status: {result.status}",
        f"ic: {cfg.ic.label()}",
        "rng: pcg64",
        f"seed: {'none' if cfg.ic.seed is None else cfg.ic.seed}",
        ("predicted_t_star: none" if math.isinf(predicted)
         else f"predicted_t_star: {_fmt(predicted)}{label}"),
        f"detected: {'true' if detected else 'false'}",
        f"detected_t: {_fmt(result.records[-1].t) if detected else 'none'}",
        f"detection_cause: {cause}",
    ]
    report_lines += [f"warning: {w}" for w in result.warnings]
    path = out / "report.txt"
    path.write_text("\n".join(report_lines) + "\n", encoding="utf-8", newline="\n")
    written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else list(argv))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 64
    try:  # an unusable output directory fails before the run, not after it
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = run_simulation(cfg)
    try:
        written = write_outputs(result, cfg)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    steps = len(result.records) - 1
    print(f"{result.status} after {steps} steps (t = {result.records[-1].t:.6g}); "
          f"{len(written)} files in {cfg.output_dir}")
    return EXIT_CODES[result.status]
