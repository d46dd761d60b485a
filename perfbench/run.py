"""Benchmark of the fracburgers CLI: end-to-end run cost and per-layer cost.

    python3 perfbench/run.py --workload stiff-256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

Run it from the repository root: it imports the package from ./src and
writes only under ./.perfbench_work, which it removes again.

--trace 0 runs `python -m fracburgers` in child processes, one after
another (a closed loop with one client), until --seconds have passed, and
reports medians: wall_s (spawn to exit of one run), peak_rss_mb (the
child's ru_maxrss) and setup_s (spawn to the first stepper call, from
SETUP_REPEATS separate set-up-only children).

--trace 1 alternates untraced runs with runs whose layers are wrapped in
spans (child.py) for the same --seconds, and reports per-layer metrics as
medians over the traced runs. Per-step metrics divide by the step count
read from diagnostics.csv (dynamics.steps), which is also the sample count
of the rk4_step percentiles; observe has one more sample, at t = 0.

Every run's outputs are checked (workloads.py), and diagnostics.csv must be
byte-identical across the repeats of one invocation. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import Trace, median, percentile
from workloads import WORKLOADS, RunOutput, read_output

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_WARMUP = 1   # discarded set-up children: they fill the bytecode and page caches
SETUP_REPEATS = 7
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
CHILD_TIMEOUT_S = 100.0
WORK_DIR = ".perfbench_work"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_bytes_per_step": "B-computed",
    "spectral.fft_us_per_step": "us",
    "spectral.self_us_per_step": "us",
    "spectral.forward_dft.us": "us",
    "spectral.inverse_dft.us": "us",
    "spectral.overhead_ratio": "ratio",
    "dynamics.steps": "count",
    "dynamics.rk4_step.us.p50": "us",
    "dynamics.rk4_step.us.p99": "us",
    "dynamics.rhs.us.p50": "us",
    "dynamics.rhs_calls_per_step": "count",
    "dynamics.stable_dt.us.p50": "us",
    "dynamics.stable_dt.calls": "count",
    "dynamics.self_us_per_step": "us",
    "diagnostics.observe.us.p50": "us",
    "diagnostics.observe.us.p99": "us",
    "diagnostics.check_blowup.us.p50": "us",
    "diagnostics.self_us_per_step": "us",
    "oracles.ic_sample.ms": "ms",
    "oracles.characteristics.us_per_node": "us",
    "oracles.ic_calls_per_node": "count",
    "cli.parse_config.ms": "ms",
    "cli.run_loop.self_us_per_step": "us",
    "cli.write_outputs.s": "s",
    "cli.write_outputs.mb": "MB",
    "trace.overhead_frac": "ratio",
    "trace.remainder_frac": "ratio",
}


def platform_info() -> dict:
    import numpy

    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (d / "type").read_text().strip() != "Instruction":
                info[f"L{(d / 'level').read_text().strip()}"] = (d / "size").read_text().strip()
    except OSError:
        pass  # informative only: leave out what this system does not expose
    return info


def working_set(args: list[str], out: RunOutput) -> dict:
    """Array sizes computed from N and the snapshot count, in bytes."""
    n = int(args[args.index("--n") + 1])
    return {"field_bytes": 8 * n, "spectrum_bytes": 16 * n,
            "snapshots_held_bytes": 8 * n * len(out.snapshots)}


class Child:
    """One child process; wait() gives its wall time, peak RSS and exit code."""

    def __init__(self, cmd: list[str], env: dict, stdout=subprocess.DEVNULL):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=stdout)

    def wait(self) -> tuple[float, float, int]:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return wall, usage.ru_maxrss * 1024 / 1e6, self.proc.returncode


class Checker:
    """Checks each run's outputs; repeats must write identical diagnostics.csv."""

    def __init__(self, workload, args: list[str]):
        self.workload, self.args = workload, args
        self.first_diagnostics: bytes | None = None
        self.verdicts: dict[str, list[str]] = {}  # digest of all outputs -> problems

    def __call__(self, out_dir: Path, exit_code: int) -> tuple[RunOutput | None, list[str]]:
        try:
            out = read_output(out_dir, exit_code)
            # Identical output bytes get the identical verdict, so each
            # distinct output is graded once.
            digest = hashlib.sha256(str(exit_code).encode())
            for p in sorted(out_dir.iterdir()):
                digest.update(p.name.encode() + b"\0" + p.read_bytes())
            key = digest.hexdigest()
            if key not in self.verdicts:
                self.verdicts[key] = self.workload.check(out, self.args)
        except (OSError, ValueError) as err:
            return None, [f"unreadable output: {err}"]
        problems = list(self.verdicts[key])
        if self.first_diagnostics is None:
            self.first_diagnostics = out.diagnostics_bytes
        elif out.diagnostics_bytes != self.first_diagnostics:
            problems.append("diagnostics.csv differs from the first repeat")
        return out, problems


class Bench:
    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)

    def cli(self, args: list[str], out: Path) -> Child:
        return Child([sys.executable, "-m", "fracburgers", *args, "--output", str(out)], self.env)

    def child(self, *argv: str, stdout=subprocess.DEVNULL) -> Child:
        return Child([sys.executable, str(HERE / "child.py"), *argv], self.env, stdout)

    def setup_time(self, args: list[str]) -> float | None:
        c = self.child("setup", *args, "--output", str(self.work / "setup"),
                       stdout=subprocess.PIPE)
        line = c.proc.stdout.readline()
        ready = time.perf_counter() - c.t0
        _, _, code = c.wait()
        return ready if line.strip() == b"ready" and code == 0 else None

    def end_to_end(self, w, args: list[str], seconds: float) -> tuple[dict, RunOutput | None]:
        start = time.perf_counter()
        setups = []
        for i in range(SETUP_WARMUP + SETUP_REPEATS):
            s = self.setup_time(args)
            if i >= SETUP_WARMUP:
                self.record(f"set-up {i}", [] if s else ["set-up child did not reach a step"])
                setups += [s] if s else []
        check = Checker(w, args)
        walls, rss, last = [], [], None
        while len(walls) < MIN_RUNS or time.perf_counter() - start < seconds:
            out_dir = self.work / f"run{len(walls)}"
            wall, peak, code = self.cli(args, out_dir).wait()
            out, problems = check(out_dir, code)
            self.record(f"run {len(walls)}", problems)
            walls.append(wall)
            rss.append(peak)
            last = out or last
            shutil.rmtree(out_dir, ignore_errors=True)
        print(f"{len(walls)} runs, wall_s: " + " ".join(f"{x:.4f}" for x in walls))
        print(f"{len(setups)} set-ups, setup_s: " + " ".join(f"{x:.4f}" for x in setups))
        return ({"wall_s": median(walls), "setup_s": median(setups), "peak_rss_mb": median(rss)},
                last)

    def traced(self, w, args: list[str], seconds: float) -> tuple[dict, RunOutput | None]:
        start = time.perf_counter()
        check = Checker(w, args)
        plain, traced, layers, accounts = [], [], [], []
        last = last_dir = None
        while len(traced) < MIN_TRACED_RUNS or time.perf_counter() - start < seconds:
            i = len(traced)
            out_dir = self.work / f"plain{i}"
            wall, _, code = self.cli(args, out_dir).wait()
            self.record(f"untraced run {i}", check(out_dir, code)[1])
            plain.append(wall)
            shutil.rmtree(out_dir, ignore_errors=True)

            out_dir, spans_file = self.work / f"traced{i}", self.work / f"spans{i}.json"
            wall, _, code = self.child("trace", str(spans_file), *args,
                                       "--output", str(out_dir)).wait()
            out, problems = check(out_dir, code)
            self.record(f"traced run {i}", problems)
            traced.append(wall)
            if not problems:
                written = sum(p.stat().st_size for p in out_dir.iterdir())
                metrics, account = layer_metrics(Trace(spans_file), out.steps, wall, written)
                layers.append(metrics)
                accounts.append(account)
                if last_dir is not None:
                    shutil.rmtree(last_dir, ignore_errors=True)
                last, last_dir = out, out_dir
            else:
                shutil.rmtree(out_dir, ignore_errors=True)
            spans_file.unlink(missing_ok=True)

        metrics = {k: median([m[k] for m in layers]) for k in layers[0]} if layers else {}
        if last is not None:
            metrics.update(self.grading_cost(args, last))
            shutil.rmtree(last_dir, ignore_errors=True)
        metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
        print(f"{len(plain)} untraced runs, wall_s: " + " ".join(f"{x:.4f}" for x in plain))
        print(f"{len(traced)} traced runs, wall_s: " + " ".join(f"{x:.4f}" for x in traced))
        if accounts:
            account = accounts[len(accounts) // 2]
            print("traced wall time = self time by module + remainder (s): "
                  + " + ".join(f"{k} {v:.4f}" for k, v in account.items() if k != "traced wall")
                  + f" = {account['traced wall']:.4f}")
        return {k: metrics.get(k, float("nan")) for k in LAYER_UNITS}, last

    def grading_cost(self, args: list[str], out: RunOutput) -> dict:
        """Cost of grading one snapshot with characteristics_solution, per node."""
        from fracburgers.cli import parse_config
        from fracburgers.oracles import shock_time

        ic = args[args.index("--ic") + 1]
        limit = shock_time(parse_config(["--ic", ic]).ic)
        pre_shock = [(t, p) for t, p in out.snapshots if 0.0 < t < limit]
        if not pre_shock:
            return {}
        t, path = pre_shock[-1]
        spans_file = self.work / "grade.json"
        _, _, code = self.child("grade", str(spans_file), ic, repr(t), str(path)).wait()
        self.record("grading run", [] if code == 0 else [f"grading child exit code {code}"])
        if code != 0:
            return {}
        tr = Trace(spans_file)
        solve = "oracles.characteristics_solution"
        nodes = tr.count(solve)
        return {"oracles.characteristics.us_per_node": sum(tr.durations_us(solve)) / nodes,
                "oracles.ic_calls_per_node":
                    tr.count("oracles.InitialCondition.__call__", parent=solve) / nodes}


def layer_metrics(tr: Trace, steps: int, wall_s: float, written_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and its wall-time accounting."""
    by_module = tr.self_s_by_module()
    fft_s = by_module.get("numpy.fft", 0.0)
    spectral_s = by_module.get("spectral", 0.0)
    rk4 = tr.durations_us("dynamics.rk4_step")
    observe = tr.durations_us("diagnostics.observe")
    per_step = 1e6 / steps
    account = dict(sorted(by_module.items(), key=lambda kv: -kv[1]))
    account["remainder"] = wall_s - tr.root_s()
    account["traced wall"] = wall_s
    metrics = {
        "spectral.fft_calls_per_step": tr.module_calls("numpy.fft") / steps,
        "spectral.fft_bytes_per_step":
            sum(v for k, v in tr.counters.items() if k.startswith("numpy.fft.")) / steps,
        "spectral.fft_us_per_step": fft_s * per_step,
        "spectral.self_us_per_step": spectral_s * per_step,
        "spectral.forward_dft.us": median(tr.durations_us("spectral.forward_dft")),
        "spectral.inverse_dft.us": median(tr.durations_us("spectral.inverse_dft")),
        "spectral.overhead_ratio": (spectral_s + fft_s) / fft_s,
        "dynamics.steps": steps,
        "dynamics.rk4_step.us.p50": median(rk4),
        "dynamics.rk4_step.us.p99": percentile(rk4, 99),
        "dynamics.rhs.us.p50": median(tr.durations_us("dynamics.rhs")),
        "dynamics.rhs_calls_per_step": tr.count("dynamics.rhs") / steps,
        "dynamics.stable_dt.us.p50": median(tr.durations_us("dynamics.stable_dt")),
        "dynamics.stable_dt.calls": tr.count("dynamics.stable_dt"),
        "dynamics.self_us_per_step": by_module.get("dynamics", 0.0) * per_step,
        "diagnostics.observe.us.p50": median(observe),
        "diagnostics.observe.us.p99": percentile(observe, 99),
        "diagnostics.check_blowup.us.p50": median(tr.durations_us("diagnostics.check_blowup")),
        "diagnostics.self_us_per_step": by_module.get("diagnostics", 0.0) * per_step,
        "oracles.ic_sample.ms": sum(tr.durations_us("oracles.InitialCondition.__call__",
                                                    parent="cli.run_simulation")) / 1e3,
        "cli.parse_config.ms": sum(tr.durations_us("cli.parse_config")) / 1e3,
        "cli.run_loop.self_us_per_step": tr.self_s_of("cli.run_simulation") * per_step,
        "cli.write_outputs.s": sum(tr.durations_us("cli.write_outputs")) / 1e6,
        "cli.write_outputs.mb": written_bytes / 1e6,
        "trace.remainder_frac": account["remainder"] / wall_s,
    }
    return metrics, account


def run_workload(bench: Bench, name: str, seed: int, seconds: float, trace: int) -> dict:
    w = WORKLOADS[name]
    args = w.args(seed)
    print(f"workload {name}, seed {seed}, trace {trace}: python -m fracburgers {' '.join(args)}")
    if trace:
        values, out = bench.traced(w, args, seconds)
        units = LAYER_UNITS
    else:
        values, out = bench.end_to_end(w, args, seconds)
        units = E2E_UNITS
    info = platform_info()
    if out is not None:
        info["working_set"] = working_set(args, out)
    print("platform: " + json.dumps(info))
    for k, u in units.items():
        print(f"  {k:<40} {values[k]:.6g} {u}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fracburgers" / "__init__.py").is_file():
        print(f"error: no fracburgers package under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(root, work)
    try:
        if a.workload == "all":
            metrics = {}
            for name in WORKLOADS:
                for trace in (0, 1):
                    for k, v in run_workload(bench, name, a.seed, a.seconds, trace).items():
                        metrics[f"{name}.{k}"] = v
        else:
            metrics = run_workload(bench, a.workload, a.seed, a.seconds, a.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"fail_frac {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} failed of {bench.attempted} attempted)")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
