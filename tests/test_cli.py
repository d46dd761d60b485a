"""Configuration parsing, the run loop, output files, and exit codes."""

import _pyio
import dataclasses
import itertools
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import collect, write_run
from fracburgers import _writer, cli
from fracburgers._writer import OutputFiles, _snapshot_name
from fracburgers.cli import (
    _OPTIONS,
    EXIT_CODES,
    MAX_STEPS,
    RunConfig,
    RunResult,
    UsageError,
    main,
    parse_config,
    run_simulation,
    write_outputs,
)
from fracburgers.diagnostics import (
    DetectionThresholds,
    DiagnosticsRecord,
    check_blowup,
)
from fracburgers.dynamics import (
    CFL_ADVECTION,
    CFL_DISSIPATION,
    DT_GUARD,
    InstabilityError,
    SimParams,
    rk4_step,
)
from fracburgers.oracles import InitialCondition, breaking_time, linear_decay_solution
from fracburgers.spectral import (
    DEALIAS_RULES,
    forward_dft,
    inverse_dft,
    nodes,
    spectral_derivative,
)

NUMERIC_FAILURE_ARGS = [
    "--gamma", "1", "--alpha", "2", "--n", "64", "--dt", "1", "--t-final", "40",
    "--snapshot-every", "1", "--linear-only", "--detect-blowup", "false",
]
RESOLUTION_LOSS_ARGS = [
    "--n", "32", "--t-final", "2", "--tail-limit", "0.01", "--slope-limit", "10000",
]
# With detection off, stable_dt's step falls below the clock's resolution at
# t = 0.4656566709323747, while max|u| grows without bound.
STALLED_CLOCK_ARGS = [
    "--n", "16", "--gamma", "0.3", "--alpha", "1.5", "--t-final", "0.6029",
    "--snapshot-every", "0.08612857", "--ic", "random:4:6", "--detect-blowup", "false",
]
# dt = 0.001 counts 1000 steps to t_final and 666 snapshot intervals of
# 0.0015, so the up-front rule accepts the run at MAX_STEPS lowered to 1000,
# as tests run it. But each interval takes a step of dt and one clipped to
# land on its snapshot, so the run reaches the budget at t < 1.
STEP_BUDGET_ARGS = [
    "--n", "4", "--linear-only", "--dt", "0.001", "--t-final", "1", "--snapshot-every", "0.0015",
]
# (args, status, cause) of report.txt; every row of the outcome table is one.
REPORT_CASES = [
    (["--n", "16", "--t-final", "0.3"], "completed", "none"),
    (["--n", "64", "--t-final", "1.2", "--slope-limit", "10"],
     "blowup_detected", "slope_threshold"),
    (RESOLUTION_LOSS_ARGS, "resolution_lost", "resolution_loss"),
    (NUMERIC_FAILURE_ARGS, "numeric_failure", "non_finite"),
    # predicted_t_star: none, for the zero field, the flat profile and a
    # subnormal slope whose reciprocal overflows.
    (["--ic", "random:0:1", "--n", "16", "--t-final", "0.1"], "completed", "none"),
    (["--ic", "scaled-neg-sine:0", "--n", "16", "--t-final", "0.1"], "completed", "none"),
    (["--ic", "scaled-neg-sine:1e-320", "--n", "16", "--t-final", "0.1"],
     "completed", "none"),
    # The first step's result is non-finite (rk4_step raises), so the run
    # ends at its t = 0 record.
    (["--n", "16", "--dt", "1e80", "--t-final", "1e80", "--snapshot-every", "1e80"],
     "numeric_failure", "non_finite"),
    (STALLED_CLOCK_ARGS, "numeric_failure", "stalled_clock"),
    (STEP_BUDGET_ARGS, "budget_exceeded", "step_budget"),
]


def config(*extra, out="unused"):
    return parse_config([*extra, "--output", str(out)])


class TestParseConfig:
    def test_defaults(self):
        """With no flag and no file, SimParams and DetectionThresholds get
        their own defaults; the values are README's."""
        cfg = parse_config([])
        assert cfg.params == SimParams() and cfg.thresholds == DetectionThresholds()
        assert cfg.n == 256
        assert cfg.params.gamma == 0.0 and cfg.params.alpha == 1.0
        assert cfg.dt == "auto" and cfg.t_final == 1.0
        assert cfg.params.dealias_rule == "off" and not cfg.params.linear_only
        assert cfg.ic.label() == "neg-sine"
        assert cfg.snapshot_every == 0.1
        assert str(cfg.output_dir) == "out"
        assert cfg.thresholds is not None
        assert cfg.thresholds.slope_limit == 100.0
        assert cfg.thresholds.tail_limit == 0.1

    def test_help_and_refusal_name_the_same_ic_selectors(self):
        """The --ic help text and InitialCondition.parse's refusal are both
        built from InitialCondition.SELECTORS."""
        with pytest.raises(UsageError) as err:
            parse_config(["--ic", "bogus"])
        listed = re.search(r"\(expected (.*)\)$", str(err.value)).group(1)
        helped = _OPTIONS["ic"][1].split(" | ")
        assert re.split(r", (?:or )?", listed) == helped == list(InitialCondition.SELECTORS)

    def test_dealias_text_reaches_simparams_unchanged(self, tmp_path, capsys):
        """--dealias is the library's spelling: parse_config passes it to
        SimParams, whose refusal and the help text are both built from
        spectral.DEALIAS_RULES."""
        assert _OPTIONS["dealias"][1] == " | ".join(DEALIAS_RULES) == "off | two-thirds"
        for rule in DEALIAS_RULES:
            assert parse_config(["--dealias", rule]).params.dealias_rule == rule
        for bad in ("half", "two_thirds"):
            with pytest.raises(ValueError) as refused:
                SimParams(dealias_rule=bad)
            assert str(refused.value) == f"dealias: expected off or two-thirds, got {bad!r}"
        assert main(["--dealias", "half", "--output", str(tmp_path / "o")]) == 64
        assert capsys.readouterr().err == (
            "error: invalid value for dealias: expected off or two-thirds, got 'half'\n")

    def test_flags_parsed(self):
        cfg = parse_config(["--n", "128", "--gamma", "0.5", "--alpha", "1.5",
                            "--dt", "0.001", "--t-final", "2", "--dealias", "two-thirds",
                            "--snapshot-every", "0.5", "--detect-blowup", "false",
                            "--slope-limit", "50", "--tail-limit", "0.2",
                            "--linear-only", "--output", "results"])
        assert cfg.n == 128 and cfg.params.gamma == 0.5 and cfg.params.alpha == 1.5
        assert cfg.dt == 0.001 and cfg.t_final == 2.0
        assert cfg.params.dealias_rule == "two-thirds" and cfg.params.linear_only
        assert cfg.snapshot_every == 0.5 and cfg.thresholds is None
        assert str(cfg.output_dir) == "results"
        on = parse_config(["--slope-limit", "50", "--tail-limit", "0.2"])
        assert on.thresholds.slope_limit == 50.0 and on.thresholds.tail_limit == 0.2

    @pytest.mark.parametrize("flag, value", [("--slope-limit", "0"), ("--tail-limit", "1.5")])
    def test_limits_checked_with_detection_off(self, flag, value):
        key = flag[2:].replace("-", "_")
        with pytest.raises(UsageError, match=rf"^invalid value for {key}: "):
            parse_config(["--detect-blowup", "false", flag, value])

    @pytest.mark.parametrize("raw, label", [
        ("scaled-neg-sine:1.23456789", "scaled-neg-sine:1.23456789"),
        ("gaussian:0.123456789", "gaussian:0.123456789"),
        ("scaled-neg-sine:2.0", "scaled-neg-sine:2"),
        ("gaussian:0.5", "gaussian:0.5"),
        ("scaled-neg-sine:1e150", "scaled-neg-sine:1e+150"),
        ("random:8:42", "random:8:42"),
    ])
    def test_ic_label_reads_back_as_the_same_profile(self, raw, label):
        """report.txt's ic line reruns the profile: at least 6 digits, more
        where 6 would round the parameter."""
        cfg = config("--ic", raw)
        assert cfg.ic.label() == label
        assert parse_config(["--ic", cfg.ic.label()]).ic == cfg.ic

    def test_ic_selector_grammar(self):
        assert config("--ic", "scaled-neg-sine:2.0").ic.params == (2.0,)
        assert config("--ic", "gaussian:0.5").ic.params == (0.5,)
        random = config("--ic", "random:8:42").ic
        assert random.params == (8, 42) and random.seed == 42

    @pytest.mark.parametrize("flag,value,key", [
        ("--n", "255", "n"),
        ("--n", "2", "n"),
        ("--n", "many", "n"),
        ("--gamma", "-1", "gamma"),
        ("--gamma", "nan", "gamma"),
        ("--alpha", "0", "alpha"),
        ("--alpha", "2.5", "alpha"),
        ("--dt", "-0.1", "dt"),
        ("--dt", "fast", "dt"),
        ("--dt", "0", "dt"),
        ("--t-final", "0", "t_final"),
        ("--t-final", "-1", "t_final"),  # reported before the default snapshot_every 0.1
        ("--dealias", "half", "dealias"),
        ("--snapshot-every", "0", "snapshot_every"),
        ("--detect-blowup", "maybe", "detect_blowup"),
        ("--slope-limit", "0", "slope_limit"),
        ("--slope-limit", "-5", "slope_limit"),
        ("--tail-limit", "1.5", "tail_limit"),
        ("--tail-limit", "0", "tail_limit"),
        ("--ic", "unknown:1", "ic"),
        ("--ic", "random:8", "ic"),
        ("--ic", "gaussian:wide", "ic"),
    ])
    def test_invalid_values_name_their_key(self, flag, value, key):
        with pytest.raises(UsageError, match=rf"^invalid value for {key}: "):
            parse_config([flag, value])

    def test_whole_values_refused_in_one_form(self, bad_wholes):
        """n and the random profile's parameters reach their owners as text,
        and come back refused by spectral.whole's rule, naming the text."""
        for bad in map(str, bad_wholes):
            for argv, reason in (
                    (["--n", bad], f"n: must be an even integer >= 4, got {bad!r}"),
                    (["--ic", f"random:{bad}:1"],
                     f"ic: max_mode: must be an integer >= 0, got {bad!r}"),
                    (["--ic", f"random:8:{bad}"],
                     f"ic: seed: must be an integer >= 0, got {bad!r}")):
                with pytest.raises(UsageError) as refused:
                    parse_config(argv)
                assert str(refused.value) == f"invalid value for {reason}"

    def test_flags_refused_in_one_form(self, bad_flags, tmp_path):
        """--detect-blowup is read by spectral.flag; linear_only, which only a
        config file can set to a value, reaches SimParams as text."""
        cfgfile = tmp_path / "run.cfg"
        for bad in map(str, bad_flags):
            with pytest.raises(UsageError) as refused:
                parse_config(["--detect-blowup", bad])
            assert str(refused.value) == (
                f"invalid value for detect_blowup: must be true or false, got {bad!r}")
            cfgfile.write_text(f"linear_only = {bad}\n", encoding="utf-8")
            with pytest.raises(UsageError) as refused:
                parse_config(["--config", str(cfgfile)])
            assert str(refused.value) == (
                f"invalid value for linear_only: must be true or false, got {bad!r}")
        cfgfile.write_text("linear_only = true\ndetect_blowup = false\n", encoding="utf-8")
        cfg = parse_config(["--config", str(cfgfile)])
        assert cfg.params.linear_only is True and cfg.thresholds is None

    def test_aliased_random_profile_rejected(self):
        """Modes at or above n/2 alias onto lower ones on an n-node grid."""
        for kmax in ("8", "9"):
            with pytest.raises(UsageError, match="invalid value for ic"):
                parse_config(["--n", "16", "--ic", f"random:{kmax}:1"])
        assert parse_config(["--n", "16", "--ic", "random:7:1"]).ic.params == (7, 1)

    def test_snapshot_interval_cannot_exceed_t_final(self):
        with pytest.raises(UsageError, match="snapshot_every"):
            parse_config(["--t-final", "0.5", "--snapshot-every", "1"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["--bogus", "1"])

    def test_config_file_supplies_values(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# reference shock run\n"
            "n = 64\n"
            "gamma = 0.5   # mid-strength\n"
            "t_final = 2\n",
            encoding="utf-8",
        )
        cfg = parse_config(["--config", str(cfgfile)])
        assert cfg.n == 64 and cfg.params.gamma == 0.5 and cfg.t_final == 2.0

    def test_flags_override_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("gamma = 0.5\n", encoding="utf-8")
        cfg = parse_config(["--config", str(cfgfile), "--gamma", "0.25"])
        assert cfg.params.gamma == 0.25

    def test_config_file_unknown_key_is_located(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 64\nviscosity = 1\n", encoding="utf-8")
        with pytest.raises(UsageError, match=r"run\.cfg:2.*viscosity"):
            parse_config(["--config", str(cfgfile)])

    def test_config_file_malformed_line_is_located(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(UsageError, match=r"run\.cfg:1"):
            parse_config(["--config", str(cfgfile)])

    def test_config_file_with_byte_order_mark(self, tmp_path):
        """Editors that save UTF-8 with a BOM put U+FEFF before the first key."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 64\ngamma = 0.5\n", encoding="utf-8-sig")
        assert cfgfile.read_bytes().startswith(b"\xef\xbb\xbfn")
        cfg = parse_config(["--config", str(cfgfile)])
        assert cfg.n == 64 and cfg.params.gamma == 0.5

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read config file"):
            parse_config(["--config", str(tmp_path / "absent.cfg")])

    def test_undecodable_config_file(self, tmp_path, capsys):
        """A config file that is not UTF-8 is a usage error, not a traceback."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"n = 64\n\xff\n")
        with pytest.raises(UsageError, match=r"^cannot read config file: .*0xff"):
            parse_config(["--config", str(cfgfile)])
        assert main(["--config", str(cfgfile), "--output", str(tmp_path / "o")]) == 64
        assert capsys.readouterr().err.startswith("error: cannot read config file: ")


class TestRunConfig:
    """RunConfig owns every run rule, so a replaced or hand-built config is
    checked as a parsed one is."""

    def test_bad_dt_rejected(self):
        cfg = parse_config([])
        for dt in (0.0, -1e-3, float("inf")):
            with pytest.raises(ValueError, match="dt"):
                dataclasses.replace(cfg, dt=dt)
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, dt="fast")

    @pytest.mark.parametrize("key, rule", [
        ("dt", 'must be finite and > 0 or "auto"'),
        ("t_final", "must be finite and > 0"),
        ("snapshot_every", "must be finite and > 0"),
    ])
    def test_non_number_worded_as_range_rule(self, key, rule, bad_reals):
        for bad in bad_reals:
            with pytest.raises(ValueError, match=f"^{key}: {rule}, got {re.escape(repr(bad))}$"):
                dataclasses.replace(parse_config([]), **{key: bad})

    @pytest.mark.parametrize("key, build", [
        ("gamma", lambda big: SimParams(gamma=big)),
        ("slope_limit", lambda big: DetectionThresholds(slope_limit=big)),
        ("t_final", lambda big: dataclasses.replace(parse_config([]), t_final=big)),
        ("amplitude", lambda big: InitialCondition.scaled_neg_sine(big)),
    ])
    def test_int_beyond_float_range_refused_by_its_owner(self, key, build):
        """float(10**400) overflows; the owner still names the value."""
        with pytest.raises(ValueError, match=f"^{key}: must be finite"):
            build(10**400)

    def test_nonpositive_t_final_rejected(self):
        with pytest.raises(ValueError, match="t_final"):
            dataclasses.replace(parse_config([]), t_final=0.0)

    @pytest.mark.parametrize("every", [0.0, -0.1, math.nan, math.inf])
    def test_bad_snapshot_every_rejected(self, every):
        """0 or -0.1 would clip the first step to a non-positive length, and
        NaN would complete with only the t = 0 snapshot."""
        cfg = parse_config(["--n", "16", "--t-final", "0.2", "--output", "unused"])
        with pytest.raises(ValueError, match=r"^snapshot_every: must be finite and > 0"):
            dataclasses.replace(cfg, snapshot_every=every)

    def test_hand_built_config_checked(self):
        """A NaN t_final would never end the run loop."""
        fields = dict(n=16, params=SimParams(), ic=InitialCondition.neg_sine(),
                      dt="auto", t_final=1.0, snapshot_every=0.1, output_dir=Path("out"),
                      thresholds=None)
        cfg = RunConfig(**{**fields, "dt": 1, "t_final": "2"})
        assert cfg.dt == 1.0 and cfg.t_final == 2.0 and type(cfg.dt) is float
        for key, value in (("dt", 0.0), ("dt", "fast"), ("dt", math.inf), ("t_final", math.nan)):
            with pytest.raises(ValueError, match=f"^{key}: must be finite and > 0"):
                RunConfig(**{**fields, key: value})

    def test_str_output_dir_written(self, tmp_path):
        """A str directory is stored as a Path, so OutputFiles can make it."""
        cfg = dataclasses.replace(config("--n", "16", "--t-final", "0.2"),
                                  output_dir=str(tmp_path / "out"))
        assert isinstance(cfg.output_dir, Path)
        _, written = write_run(cfg)
        assert (tmp_path / "out" / "report.txt") in written
        assert all(path.is_file() for path in written)

    def test_n_read_as_whole(self, bad_wholes):
        """RunConfig reads n as parse_config hands it over, as text."""
        cfg = parse_config([])
        assert dataclasses.replace(cfg, n="256") == cfg and cfg.n == 256
        assert RunConfig(**{**vars(cfg), "n": " 64"}).n == 64
        for bad in bad_wholes:
            with pytest.raises(ValueError) as refused:
                dataclasses.replace(cfg, n=bad)
            assert str(refused.value) == f"n: must be an even integer >= 4, got {bad!r}"

    def test_grid_derived_from_n(self):
        """n is the config's only record of the grid: the run samples the
        profile at nodes(n), and no grid field can disagree with it."""
        cfg = dataclasses.replace(config("--t-final", "0.1"), n=32.0)
        assert cfg.n == 32 and type(cfg.n) is int
        assert "grid" not in {f.name for f in dataclasses.fields(RunConfig)}
        with pytest.raises(TypeError, match="grid"):
            dataclasses.replace(cfg, grid=nodes(64))
        assert np.array_equal(collect(cfg)[1].snapshots[0][1], -np.sin(nodes(32)))

    @pytest.mark.parametrize("argv, changes", [
        (["--n", "16", "--ic", "random:8:1"], dict(n=16, ic=InitialCondition.random_band(8, 1))),
        (["--t-final", "0.2", "--snapshot-every", "0.5"], dict(t_final=0.2, snapshot_every=0.5)),
        (["--dt", "1e-12"], dict(dt=1e-12)),
        (["--gamma", "1e6", "--alpha", "2"], dict(params=SimParams(gamma=1e6, alpha=2.0))),
        (["--snapshot-every", "1e-9", "--t-final", "1e3"],
         dict(snapshot_every=1e-9, t_final=1e3)),
        (["--n", "16384", "--snapshot-every", repr(2.0**-13)],
         dict(n=16384, snapshot_every=2.0**-13)),
        (["--n", str(2**23 + 2), "--snapshot-every", "1"], dict(n=2**23 + 2, snapshot_every=1.0)),
    ], ids=["random-kmax", "snapshot-after-t-final", "fixed-steps", "auto-steps",
            "snapshot-intervals", "snapshot-values", "working-set"])
    def test_replaced_config_follows_the_command_line(self, argv, changes):
        """Each run rule the command line refuses, a replaced config refuses
        with the same "<key>: <reason>"."""
        with pytest.raises(UsageError) as refused:
            parse_config(argv)
        message = str(refused.value).removeprefix("invalid value for ")
        assert message != str(refused.value)
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(parse_config([]), **changes)
        assert str(replaced.value) == message


class TestRunBudgets:
    """Runs certain to take too many steps or to hold too many snapshots are
    refused, and a run that reaches the step budget all the same stops there."""

    # dt = 2**-20 makes t_final / dt exact: 10**6 steps pass, 10**6 + 1 do not.
    def test_fixed_step_budget(self):
        dt = 2.0**-20
        cfg = config("--dt", repr(dt), "--t-final", repr(10**6 * dt))
        assert cfg.t_final / cfg.dt == 10**6
        with pytest.raises(UsageError, match=r"^invalid value for dt: .*10\*\*6"):
            config("--dt", repr(dt), "--t-final", repr((10**6 + 1) * dt))

    def test_auto_steps_are_counted_at_their_longest(self):
        assert config("--t-final", repr((10**6 + 1) * 2.0**-20)).dt == "auto"

    def test_snapshot_interval_budget(self):
        """Each of the floor(t_final / snapshot_every) intervals takes a step,
        so there may be 10**6 of them, not 10**6 + 1. At n = 4 this binds long
        before the 2**27 snapshot values."""
        every = 2.0**-20
        inside = config("--n", "4", "--snapshot-every", repr(every),
                        "--t-final", repr(10**6 * every))
        assert inside.t_final / inside.snapshot_every == 10**6
        with pytest.raises(UsageError, match=r"^invalid value for snapshot_every: .*10\*\*6"):
            config("--n", "4", "--snapshot-every", repr(every),
                   "--t-final", repr((10**6 + 1) * every))

    def test_one_step_per_interval_refused_before_any_file(self, tmp_path, capsys):
        """A fixed dt of 1 counts one step to t_final, but 3e-8 leaves about
        3.3e7 intervals of a step each; the snapshots alone would pass."""
        out = tmp_path / "o"
        assert main(["--n", "4", "--dt", "1", "--t-final", "1", "--snapshot-every", "3e-8",
                     "--output", str(out)]) == 64
        assert capsys.readouterr().err.startswith("error: invalid value for snapshot_every: ")
        assert not out.exists()

    def test_run_stops_at_the_step_budget(self, tmp_path, capsys, monkeypatch):
        """A run the up-front rule accepts ends after exactly MAX_STEPS steps,
        short of t_final, with its own cause and exit code."""
        monkeypatch.setattr(cli, "MAX_STEPS", 1000)
        res, sink = collect(config(*STEP_BUDGET_ARGS))
        assert (res.cause, res.status) == ("step_budget", "budget_exceeded")
        assert len(sink.records) == 1001 and sink.records[-1].t < 1.0
        code = main([*STEP_BUDGET_ARGS, "--output", str(tmp_path / "o")])
        assert code == EXIT_CODES["budget_exceeded"] == cli._OUTCOMES["step_budget"][1]
        assert capsys.readouterr().out.startswith("budget_exceeded after 1000 steps ")

    def test_clipped_steps_can_reach_the_step_budget(self, monkeypatch):
        """STEP_BUDGET_ARGS passes the up-front rule at MAX_STEPS = 1000, but
        its clipped steps reach the budget after 500 of its 666 intervals;
        at the real budget it completes."""
        monkeypatch.setattr(cli, "MAX_STEPS", 1000)
        res, sink = collect(config(*STEP_BUDGET_ARGS))
        assert res.cause == "step_budget" and len(sink.records) == 1001
        assert sink.records[-1].t < 1.0 and len(sink.snapshots) == 501
        monkeypatch.undo()
        res, sink = collect(config(*STEP_BUDGET_ARGS))
        assert res.cause is None and len(sink.records) > 1001

    @pytest.mark.parametrize("args, steps", [
        (["--n", "16", "--linear-only", "--t-final", "1e12", "--snapshot-every", "1e11"], 10),
        (["--linear-only", "--gamma", "0.1", "--alpha", "1", "--n", "256", "--t-final", "1"], 10),
    ])
    def test_linear_only_auto_steps_have_no_advective_bound(self, args, steps):
        """Under linear_only an auto step is stable_dt at max|u| = 0, the
        step the up-front rule counts, so each of these runs takes one step
        per snapshot interval, though its max|u| is 1."""
        res, sink = collect(config(*args))
        assert res.cause is None and res.steps == steps
        assert len(sink.snapshots) == steps + 1

    def test_auto_dissipative_step_budget(self):
        """An auto step is at most stable_dt at max|u| = 0. At n = 256 and
        alpha = 2 that is CFL_DISSIPATION / (16384 gamma + 1e-12), so t_final
        = 1 takes at least 16384 gamma / CFL_DISSIPATION steps: 10**6 at the
        edge gamma = 10**6 CFL_DISSIPATION / 16384. A gamma a relative 1e-9
        below it passes; one 1e-9 above it is refused."""
        edge = MAX_STEPS * CFL_DISSIPATION / 16384
        below, above = repr(edge * (1 - 1e-9)), repr(edge * (1 + 1e-9))
        assert config("--gamma", below, "--alpha", "2").params.gamma == float(below)
        with pytest.raises(UsageError, match=r"^invalid value for dt: auto .*10\*\*6"):
            config("--gamma", above, "--alpha", "2")
        with pytest.raises(UsageError, match=r"^invalid value for dt: auto "):
            config("--gamma", "1e6", "--alpha", "2", "--n", "1024")
        # With gamma = 0 the advective bound CFL_ADVECTION / 1e-12 is the
        # smaller, so t_final may reach 10**6 times it, not 2% beyond.
        edge = MAX_STEPS * (CFL_ADVECTION / DT_GUARD)
        assert config("--t-final", repr(edge), "--snapshot-every", repr(edge)).dt == "auto"
        with pytest.raises(UsageError, match=r"^invalid value for dt: auto "):
            config("--t-final", repr(1.02 * edge), "--snapshot-every", repr(1.02 * edge))

    def test_auto_dissipative_bound_overflow(self, tmp_path, capsys):
        """gamma * (n/2)**alpha overflows to inf, so auto steps would be 0."""
        assert main(["--gamma", "1e308", "--alpha", "2", "--output", str(tmp_path / "o")]) == 64
        assert capsys.readouterr().err.startswith(
            "error: invalid value for dt: auto steps are at most 0 ")
        assert not (tmp_path / "o").exists()

    def test_auto_budget_leaves_the_run_loop_stable_dt_alone(self, monkeypatch):
        """parse_config reads the bound through fracburgers.dynamics, so the
        first call of cli's own stable_dt is still the run loop's first step."""
        def first_step(*args):
            raise AssertionError("cli.stable_dt called while parsing")

        monkeypatch.setattr("fracburgers.cli.stable_dt", first_step)
        assert config("--gamma", "0.5", "--alpha", "2").dt == "auto"

    @pytest.mark.parametrize("n, every, t_inside, t_refused", [
        pytest.param(256, 2.0**-19, 1.0 - 2.0**-19, 1.0, id="256-19"),
        pytest.param(16384, 2.0**-13, 1.0 - 2.0**-13, 1.0, id="16384-13"),
        # 0.27999999999999997 / 0.0175 rounds to 15.999999999999996, yet
        # 16 * 0.0175 lies within 1e-12 * t_final of t_final: 17 snapshots.
        pytest.param(2**23, 0.0175, 15 * 0.0175, 0.27999999999999997, id="8388608-ratio-below-16"),
    ])
    def test_snapshot_budget(self, n, every, t_inside, t_refused):
        """The stored snapshots, n values each, may reach 2**27 values, not
        pass it. Snapshot k is stored while k * snapshot_every is at most
        1e-12 * t_final past t_final, the run loop's rule."""
        inside = config("--n", str(n), "--snapshot-every", repr(every),
                        "--t-final", repr(t_inside))
        t = inside.t_final
        count = next(k for k in itertools.count(math.floor(t / every))
                     if k * every - t > 1e-12 * t)
        assert count * n == 2**27
        with pytest.raises(UsageError, match=r"^invalid value for snapshot_every: .*2\*\*27"):
            config("--n", str(n), "--snapshot-every", repr(every), "--t-final", repr(t_refused))

    @pytest.mark.parametrize("t_final, stored", [("0.27999999999999997", 17), ("0.27", 16)])
    def test_snapshot_budget_counts_the_stored_snapshots(self, monkeypatch, t_final, stored):
        """0.27999999999999997 / 0.0175 rounds to 15.999999999999996, yet the
        run stores 16 * 0.0175 at t_final: the budget counts the same 17."""
        args = ("--n", "16", "--dt", "0.005", "--t-final", t_final, "--snapshot-every", "0.0175")
        monkeypatch.setattr("fracburgers.cli.MAX_SNAPSHOT_VALUES", stored * 16)
        assert len(collect(config(*args))[1].snapshots) == stored
        monkeypatch.setattr("fracburgers.cli.MAX_SNAPSHOT_VALUES", stored * 16 - 1)
        with pytest.raises(UsageError, match=r"^invalid value for snapshot_every: "):
            config(*args)

    def test_oversized_grid_refused_before_allocation(self):
        """n's own ceiling refuses 2**62 nodes before any run forms them, and
        before the snapshot budget reads n."""
        with pytest.raises(UsageError, match=r"^invalid value for n: must be at most 2\*\*23 "):
            config("--n", str(2**62))

    def test_working_set_budget(self, monkeypatch, capsys):
        """A step holds about 16 n-sized arrays, so n may reach 2**23, not pass it.
        A config allocates nothing: only the run forms the nodes."""
        built = []
        monkeypatch.setattr("fracburgers.cli.nodes", built.append)
        assert config("--n", str(2**23), "--snapshot-every", "1").n == 2**23
        assert main(["--n", "8388610", "--snapshot-every", "1", "--output", "unused"]) == 64
        assert capsys.readouterr().err.startswith("error: invalid value for n: ")
        assert built == []

    def test_snapshot_count_overflow_rejected(self):
        with pytest.raises(UsageError, match=r"^invalid value for snapshot_every: "):
            config("--snapshot-every", "1e-300", "--t-final", "1e300")

    @pytest.mark.parametrize("t_final", [1.0 - 2.0**-25, 7.3, 1e-3])
    def test_snapshot_names_distinct_at_the_budget(self, t_final):
        """The last 1000 snapshot times at the 10**6-interval limit get 1000
        file names."""
        every = t_final / 10**6
        cfg = config("--n", "4", "--snapshot-every", repr(every), "--t-final", repr(t_final))
        last = math.floor(cfg.t_final / cfg.snapshot_every)
        assert 10**6 - 1 <= last <= 10**6  # within rounding of the 10**6-interval limit
        names = {_snapshot_name(i * cfg.snapshot_every) for i in range(last - 999, last + 1)}
        assert len(names) == 1000


class TestRunSimulation:
    def test_zero_profile_stays_zero(self):
        res, sink = collect(config("--ic", "random:0:1"))
        assert res.status == "completed"
        assert len(sink.records) == 11  # stable_dt is huge, so steps land on snapshots
        assert [r.t for r in sink.records] == pytest.approx(np.arange(11) * 0.1, abs=1e-12)
        for r in sink.records:
            assert r.mass == 0.0 and r.l2 == 0.0 and r.h3 == 0.0
        assert len(sink.snapshots) == 11
        assert breaking_time(sink.records[0].min_slope) == np.inf

    def test_snapshots_land_on_exact_multiples(self):
        _, sink = collect(config("--n", "64", "--gamma", "0.1", "--t-final", "0.5"))
        times = [t for t, _ in sink.snapshots]
        assert times == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]
        assert all(t == i * 0.1 for i, t in enumerate(times))
        assert np.array_equal(sink.snapshots[0][1], -np.sin(nodes(64)))

    @pytest.mark.parametrize("args", [
        ["--n", "64", "--gamma", "0.1", "--dt", "0.01", "--t-final", "0.5"],
        ["--n", "128", "--dt", "0.005", "--t-final", "0.8", "--ic", "random:6:3"],
    ], ids=["neg-sine-damped", "random-steepening"])
    def test_bkm_column_is_the_trapezoid_of_the_snapshot_slopes(self, tmp_path, args):
        """With snapshot_every = dt every state is a snapshot, so the
        bkm_integral column can be recomputed from the files' inputs: the
        cumulative trapezoid of ||u_x||_inf over the record times, u_x taken
        from each snapshot through the transforms. The snapshots round-trip
        the state, so the two agree to rounding: 3.4e-15 relative at worst
        measured, against a 1e-14 tolerance."""
        dt = args[args.index("--dt") + 1]
        cfg = config(*args, "--snapshot-every", dt, out=tmp_path)
        _, sink = collect(cfg)
        _write_at_once(cfg, sink.records, sink.snapshots)
        column = np.loadtxt(tmp_path / "diagnostics.csv", delimiter=",", skiprows=1,
                            usecols=DiagnosticsRecord._fields.index("bkm_integral"))
        t = np.array([t for t, _ in sink.snapshots])
        assert len(sink.snapshots) == len(sink.records) > 40
        assert np.array_equal(t, [r.t for r in sink.records])
        norms = np.array([np.abs(inverse_dft(spectral_derivative(forward_dft(u)))).max()
                          for _, u in sink.snapshots])
        trapezoid = np.concatenate([[0.0], np.cumsum(np.diff(t) * (norms[:-1] + norms[1:]) / 2)])
        assert column[0] == 0.0
        assert np.allclose(column, trapezoid, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("args, status", [
        (["--n", "256", "--gamma", "0.1", "--t-final", "0.5"], "completed"),
        (["--n", "1024", "--dt", "0.001", "--t-final", "0.3", "--ic", "random:6:3"],
         "blowup_detected"),
        (["--n", "256", "--gamma", "0.05", "--alpha", "0.5", "--t-final", "0.5",
          "--dealias", "two-thirds"], "completed"),
        (["--n", "128", "--t-final", "1.2", "--snapshot-every", "0.25"], "completed"),
    ], ids=["auto-dt", "fixed-dt-1024", "two-thirds", "inviscid-auto-dt"])
    def test_bkm_column_is_the_trapezoid_of_its_own_slope_columns(self, tmp_path, args, status):
        """diagnostics.csv alone reproduces its bkm_integral column, bit for
        bit: the cumulative trapezoid of S = max(max_slope, -min_slope) over
        the file's own t, clipped steps and early stops included."""
        cfg = config(*args, out=tmp_path)
        res, _ = write_run(cfg)
        assert res.status == status
        table = np.loadtxt(tmp_path / "diagnostics.csv", delimiter=",", skiprows=1)
        col = dict(zip(DiagnosticsRecord._fields, table.T))
        t, s = col["t"], np.maximum(col["max_slope"], -col["min_slope"])
        trapezoid = np.concatenate([[0.0], np.cumsum(np.diff(t) * (s[:-1] + s[1:]) / 2)])
        assert len(t) > 40
        assert np.array_equal(col["bkm_integral"], trapezoid)

    def test_record_times_are_increasing_and_bounded(self):
        _, sink = collect(config("--n", "64", "--t-final", "0.5"))
        ts = [r.t for r in sink.records]
        assert ts[0] == 0.0 and ts[-1] == 0.5
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_neg_sine_prediction_recorded(self):
        _, sink = collect(config("--n", "64", "--t-final", "0.2"))
        assert breaking_time(sink.records[0].min_slope) == pytest.approx(1.0, rel=1e-9)

    def test_blowup_detected_by_slope_threshold(self):
        cfg = config("--n", "64", "--t-final", "1.2", "--slope-limit", "10")
        res, sink = collect(cfg)
        assert res.status == "blowup_detected"
        assert check_blowup(sink.records[-1], cfg.thresholds) == "slope_threshold"
        # slope law: |m| crosses 10 at t = 1 - 1/10
        assert 0.85 <= sink.records[-1].t <= 1.0

    def test_resolution_loss_detected(self):
        cfg = config(*RESOLUTION_LOSS_ARGS)
        res, sink = collect(cfg)
        assert res.status == "resolution_lost"
        assert check_blowup(sink.records[-1], cfg.thresholds) == "resolution_loss"
        assert sink.records[-1].tail_fraction > 0.01

    def test_resolution_loss_detected_under_the_two_thirds_rule(self, tmp_path):
        """The tail reads rows the 2/3 rule keeps, so it can fire on a
        dealiased run; at alpha = 0.5 this one overshoots its initial maximum."""
        args = ["--n", "256", "--alpha", "0.5", "--gamma", "0.05", "--ic", "random:8:0",
                "--t-final", "1", "--dealias", "two-thirds"]
        assert main([*args, "--output", str(tmp_path)]) == EXIT_CODES["resolution_lost"] == 3
        res, sink = collect(config(*args))
        assert res.status == "resolution_lost"
        assert sink.records[-1].tail_fraction > 0.1 >= sink.records[-2].tail_fraction

    def test_numeric_failure_keeps_finite_snapshots(self):
        res, sink = collect(config(*NUMERIC_FAILURE_ARGS))
        assert res.status == "numeric_failure"
        for _, field in sink.snapshots:
            assert np.all(np.isfinite(field))

    def test_non_finite_step_ends_the_run(self, monkeypatch):
        """A step whose result is non-finite (rk4_step raises) ends the run
        as numeric_failure at the last finite record; the snapshots taken so
        far are states of that record list."""
        real_step, calls = cli.rk4_step, []

        def failing_third_step(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise InstabilityError("non-finite RK4 step")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(cli, "rk4_step", failing_third_step)
        res, sink = collect(config("--n", "16", "--dt", "0.05", "--t-final", "0.3"))
        assert res.status == "numeric_failure"
        assert [r.t for r in sink.records] == [0.0, 0.05, 0.1]
        assert [t for t, _ in sink.snapshots] == [0.0, 0.1]  # both are record times

    def test_a_step_that_cannot_move_the_clock_ends_the_run(self):
        """The run stops before a step with t + dt == t, as stalled_clock,
        so every record has its own t. Default detection stops the same
        profile earlier, on its tail."""
        cfg = config(*STALLED_CLOCK_ARGS)
        res, sink = collect(cfg)
        ts = [r.t for r in sink.records]
        assert (res.cause, res.status) == ("stalled_clock", "numeric_failure")
        assert len(ts) == 104 and ts[-1] == 0.4656566709323747
        assert all(b > a for a, b in zip(ts, ts[1:]))
        last = sink.records[-1]
        assert ts[-1] + cli.stable_dt(max(last.max_u, -last.min_u), cfg.n, cfg.params) == ts[-1]
        res, sink = collect(config(*STALLED_CLOCK_ARGS, "--detect-blowup", "true"))
        assert res.status == "resolution_lost" and len(sink.records) == 6

    def test_snapshots_follow_the_landing_rule(self):
        """Seeded random runs: n in {8, 16, 32}, a fixed or auto step, and
        t_final and snapshot_every of 1 to 16 significant digits, some a
        hair off a divisor of t_final. Every snapshot time is exactly
        k * snapshot_every, or t_final where k * snapshot_every lies within
        eps = 1e-12 * t_final of it, and is a record time. On completed runs
        the clock advances at every record, the last record reaches t_final
        - eps, and the snapshots are the k with k * snapshot_every <= t_final
        + eps. Clock advance is asserted on completed runs only: a step below
        the clock's resolution leaves t where it is, and such a run ends by
        detection or as numeric_failure (the stalled clock on ROADMAP item
        11)."""
        rng = np.random.default_rng(20261020)
        outcomes = set()
        for _ in range(600):
            n = int(rng.choice([8, 16, 32]))
            t_final = float(f"{10.0 ** rng.uniform(-4, 0.3):.{rng.integers(1, 17)}g}")
            m = int(rng.integers(1, 21))
            every = t_final / m
            match rng.integers(4):
                case 0:  # a hair off the divisor, across the landing tolerance
                    every *= 1.0 + float(rng.choice([-1, 1])) * 10.0 ** rng.uniform(-16, -11)
                case 1:
                    every = float(f"{every:.{rng.integers(1, 17)}g}")
                case 2:
                    every = t_final / rng.uniform(1, 20)
            every = min(every, t_final)
            dt = "auto" if rng.integers(2) else repr(t_final / rng.uniform(1, 40))
            ic = "neg-sine" if rng.integers(2) else f"random:3:{rng.integers(100)}"
            cfg = config("--n", str(n), "--dt", dt, "--ic", ic, "--gamma",
                         str(rng.choice([0.0, 0.1])), "--t-final", repr(t_final),
                         "--snapshot-every", repr(every))
            res, sink = collect(cfg)
            outcomes.add(res.status)
            eps = 1e-12 * cfg.t_final
            record_times = [r.t for r in sink.records]
            for k, (t, _) in enumerate(sink.snapshots):
                assert t == k * every or (t == t_final and abs(k * every - t_final) <= eps), cfg
                assert t in record_times, cfg
            if res.status != "completed":
                continue
            assert all(b > a for a, b in zip(record_times, record_times[1:])), cfg
            assert record_times[-1] >= cfg.t_final - eps, cfg
            expected = next(k for k in itertools.count() if k * every > t_final + eps)
            assert len(sink.snapshots) == expected, cfg
        assert "completed" in outcomes

    def test_tiny_t_final_takes_a_step(self):
        """The landing tolerance scales with t_final, so a run to 1e-13 steps."""
        res, sink = collect(config("--n", "16", "--t-final", "1e-13",
                                   "--snapshot-every", "1e-13"))
        assert res.status == "completed"
        assert [r.t for r in sink.records] == [0.0, 1e-13]
        assert [_snapshot_name(t) for t, _ in sink.snapshots] == [
            "snapshot_0.csv", "snapshot_1e-13.csv"]

    def test_positive_profile_warns_about_extrema_hypotheses(self):
        res, _ = collect(config("--ic", "gaussian:1.0", "--n", "32", "--t-final", "0.2"))
        assert res.warnings and "maximum-principle" in res.warnings[0]

    def test_dealiased_warning_reads_the_projected_state(self):
        """gaussian:0.2 is positive at every node, but its projection onto
        the kept band of 32 nodes dips below 0, so only the run with
        dealiasing off warns."""
        args = ("--ic", "gaussian:0.2", "--n", "32", "--t-final", "0.01",
                "--snapshot-every", "0.01")
        assert collect(config(*args))[0].warnings
        res, sink = collect(config(*args, "--dealias", "two-thirds"))
        assert sink.records[0].min_u < 0.0 and res.warnings == ()

    def test_linear_run_matches_decay_oracle(self):
        """End to end against the exact semigroup, not just one step."""
        cfg = config("--gamma", "1", "--alpha", "2", "--n", "64",
                     "--t-final", "0.5", "--linear-only")
        _, sink = collect(cfg)
        s0 = forward_dft(-np.sin(nodes(64)))
        exact = inverse_dft(linear_decay_solution(s0, 0.5, 1.0, 2.0))
        final = sink.snapshots[-1][1]
        assert np.max(np.abs(final - exact)) <= 1e-8

    @pytest.mark.parametrize("args, status, cause", [
        (["--ic", "scaled-neg-sine:200"], "blowup_detected", "slope_threshold"),
        (["--ic", "random:100:1", "--tail-limit", "0.001"], "resolution_lost", "resolution_loss"),
        (["--ic", "scaled-neg-sine:1e150", "--dt", "1"], "blowup_detected", "slope_threshold"),
        # K = 1 on 4 nodes: row 1 is the top third of the kept band.
        (["--n", "4", "--dealias", "two-thirds", "--t-final", "0.1"],
         "resolution_lost", "resolution_loss"),
    ])
    def test_detection_applies_to_the_t0_record(self, args, status, cause):
        """A profile that already fires the policy takes no step."""
        cfg = config(*args)
        res, sink = collect(cfg)
        assert res.status == status
        assert [r.t for r in sink.records] == [0.0]
        assert check_blowup(sink.records[0], cfg.thresholds) == cause
        assert len(sink.snapshots) == 1

    def test_detection_can_be_disabled(self):
        args = ["--n", "64", "--t-final", "1.2", "--slope-limit", "10",
                "--detect-blowup", "false"]
        res, _ = collect(config(*args))
        assert res.status == "completed"


class TestWriteOutputs:
    def test_file_set_and_header(self, tmp_path):
        cfg = config("--n", "16", "--t-final", "0.3", out=tmp_path)
        _, paths = write_run(cfg)
        assert {p.name for p in paths} == {
            "diagnostics.csv", "report.txt",
            "snapshot_0.csv", "snapshot_0.1.csv", "snapshot_0.2.csv", "snapshot_0.3.csv",
        }
        lines = (tmp_path / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("t,mass,l2,max_u,min_u,min_slope,max_slope,bkm_integral,h3,"
                            "tail_fraction")

    def test_diagnostics_rows_match_records(self, tmp_path):
        cfg = config("--n", "16", "--t-final", "0.2", out=tmp_path)
        _, sink = collect(cfg)
        _write_at_once(cfg, sink.records, sink.snapshots)
        lines = (tmp_path / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(sink.records) + 1
        first = [float(cell) for cell in lines[1].split(",")]
        assert first == list(sink.records[0])

    def test_zero_run_serializes_plain_zeros(self, tmp_path):
        """-0.0 is normalized, so a quiescent run is all literal "0" cells."""
        cfg = config("--ic", "random:0:1", "--n", "16", out=tmp_path)
        write_run(cfg)
        lines = (tmp_path / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            assert line.split(",")[1:] == ["0"] * (len(DiagnosticsRecord._fields) - 1)

    def test_snapshot_columns(self, tmp_path):
        cfg = config("--n", "16", "--t-final", "0.2", out=tmp_path)
        write_run(cfg)
        lines = (tmp_path / "snapshot_0.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,u"
        xs = np.array([float(l.split(",")[0]) for l in lines[1:]])
        us = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.array_equal(xs, nodes(16))
        assert np.allclose(us, -np.sin(xs), rtol=0, atol=1e-16)

    def test_report_for_seeded_profile(self, tmp_path):
        cfg = config("--ic", "random:4:42", "--n", "32", "--t-final", "0.2", out=tmp_path)
        write_run(cfg)
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "status: completed" in text
        assert "ic: random:4:42" in text
        assert "rng: pcg64" in text
        assert "seed: 42" in text
        assert "detection_cause: none" in text

    def test_report_marks_viscous_prediction_as_inviscid_estimate(self, tmp_path):
        cfg = config("--gamma", "0.5", "--n", "16", "--t-final", "0.2", out=tmp_path)
        write_run(cfg)
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "(inviscid prediction)" in text

    @pytest.mark.parametrize("args,status,cause", REPORT_CASES)
    @pytest.mark.filterwarnings("error")
    def test_report_derived_from_status_and_records(self, tmp_path, monkeypatch,
                                                    args, status, cause):
        """detected_t is the last row's t, the status is the cause's row of
        the outcome table, and predicted_t_star is -1/min_slope of row 0, or
        none where that is not a finite time. No warning is raised on the
        way. Only the step_budget case takes 1000 steps."""
        assert cli._OUTCOMES[None if cause == "none" else cause][0] == status
        monkeypatch.setattr(cli, "MAX_STEPS", 1000)
        cfg = config(*args, out=tmp_path)
        write_run(cfg)
        lines = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
        report = dict(line.split(": ", 1) for line in lines)
        header, *rows = [
            line.split(",")
            for line in (tmp_path / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        ]
        first, last = dict(zip(header, rows[0])), dict(zip(header, rows[-1]))
        assert report["status"] == status and report["detection_cause"] == cause
        detected = cause != "none"
        assert report["detected"] == ("true" if detected else "false")
        assert report["detected_t"] == (last["t"] if detected else "none")
        m0 = float(first["min_slope"])
        predicted = report["predicted_t_star"].split(" ")[0]
        if m0 < 0.0 and -1.0 / m0 < math.inf:
            assert float(predicted) == -1.0 / m0
        else:
            assert predicted == "none"

    def test_report_cases_cover_every_row(self):
        assert {cause for _, _, cause in REPORT_CASES} == {c or "none" for c in cli._OUTCOMES}

    def test_every_cause_is_a_row_of_the_outcome_table(self):
        """The causes check_blowup returns, one record per rule, and the run
        loop's stalled_clock and step_budget are the table's keys. The loop's
        own "non_finite", "stalled_clock" and "step_budget" pass RunResult in
        the report cases."""
        rec = DiagnosticsRecord(0.0, 0.0, 1.0, 1.0, -1.0, -1.0, 1.0, 0.0, 1.0, 0.0)
        fired = {check_blowup(rec._replace(**change), DetectionThresholds()) for change in (
            {}, {"h3": math.inf}, {"min_slope": -1e3}, {"tail_fraction": 0.5})}
        assert fired == {None, "non_finite", "slope_threshold", "resolution_loss"}
        assert set(cli._OUTCOMES) == fired | {"stalled_clock", "step_budget"}
        assert EXIT_CODES == {status: code for status, code in cli._OUTCOMES.values()}

    def test_result_needs_a_known_cause_and_a_record(self):
        rec = DiagnosticsRecord(0.0, 0.0, 1.0, 1.0, -1.0, -1.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="unknown cause"):
            RunResult(rec, rec, "exploded", 0)
        with pytest.raises(ValueError, match="unknown cause"):
            RunResult(rec, rec, "numeric_failure", 0)  # a status
        with pytest.raises(TypeError, match="first"):
            RunResult(cause=None, steps=0)
        result = RunResult(rec, rec, "stalled_clock", 0)
        assert result.status == "numeric_failure"
        with pytest.raises(AttributeError):
            result.status = "completed"

    def test_warnings_echoed_into_report(self, tmp_path):
        cfg = config("--ic", "gaussian:1.0", "--n", "16", "--t-final", "0.2", out=tmp_path)
        write_run(cfg)
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "warning: maximum-principle" in text

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ("--ic", "random:6:9", "--n", "64", "--gamma", "0.1", "--t-final", "0.4")
        a, b = tmp_path / "a", tmp_path / "b"
        write_run(config(*args, out=a))
        write_run(config(*args, out=b))
        for name in ("diagnostics.csv", "report.txt", "snapshot_0.2.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_report_goes_to_the_sink_directory(self, tmp_path):
        """report.txt joins the CSVs in the sink's directory; the config's
        own output_dir is not read, so it is never made."""
        cfg = config("--n", "16", "--t-final", "0.2", out=tmp_path / "configured")
        with OutputFiles(tmp_path / "sink") as files:
            result = run_simulation(cfg, files)
        written = write_outputs(result, cfg, files)
        assert written[-1] == tmp_path / "sink" / "report.txt" and written[-1].is_file()
        assert {p.parent for p in written} == {tmp_path / "sink"}
        assert not cfg.output_dir.exists()

    def test_nested_output_directory_created(self, tmp_path):
        target = tmp_path / "deep" / "er" / "out"
        cfg = config("--n", "16", "--t-final", "0.2", out=target)
        write_run(cfg)
        assert (target / "diagnostics.csv").exists()

    def test_plain_callable_profile_writes_csvs_but_no_report(self, tmp_path):
        """A hand-built config may sample any callable, but report.txt names
        the profile by its --ic selector: write_outputs refuses such a
        config before it writes report.txt, after the run has written its
        CSVs."""
        cfg = dataclasses.replace(config("--n", "16", "--t-final", "0.2", out=tmp_path),
                                  ic=lambda x: -np.sin(x))
        with OutputFiles(cfg.output_dir) as files:
            result = run_simulation(cfg, files)
        assert result.status == "completed"
        with pytest.raises(TypeError, match=r"report\.txt names the profile by its --ic selector"):
            write_outputs(result, cfg, files)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "diagnostics.csv", "snapshot_0.1.csv", "snapshot_0.2.csv", "snapshot_0.csv"]

    def test_output_path_collision_raises_oserror(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("file, not a directory", encoding="utf-8")
        cfg = config("--n", "16", "--t-final", "0.2", out=blocker)
        with pytest.raises(OSError):
            write_run(cfg)


# 450 steps between snapshots, and a snapshot interval that does not divide
# t_final.
STREAMED_ARGS = ["--n", "16", "--gamma", "0.1", "--dt", "0.001", "--t-final", "1",
                 "--snapshot-every", "0.45"]
# fine-16k's configuration at seed 1: 21 snapshots, or 2 with --snapshot-every 0.00344.
FINE_ARGS = ["--n", "16384", "--gamma", "0.05", "--alpha", "1", "--dt", "auto",
             "--dealias", "two-thirds", "--t-final", "0.00344", "--ic", "random:8:1"]


def _write_at_once(cfg, records, snapshots):
    """The OutputFiles of cfg handed every record, then each snapshot, and
    closed: a run's CSVs written after it, not as it goes."""
    with OutputFiles(cfg.output_dir) as files:
        for rec in records:
            files.add_record(rec)
        for t, u in snapshots:
            files.add_snapshot(t, u)
    return files


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _peak_bytes(argv, out):
    """tracemalloc's peak over main(argv). Run main at the same n once
    before, so that the caches a first run fills (transform plans,
    multipliers) are not counted."""
    tracemalloc.start()
    try:
        main([*argv, "--output", str(out)])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedOutputs:
    """The run loop hands its output to a sink as it goes; the command line's
    writes each file as the run makes it, with the bytes of the same files
    written at once after the run."""

    def test_streamed_files_match_the_replayed_result(self, tmp_path, capsys):
        assert main([*STREAMED_ARGS, "--output", str(tmp_path / "streamed")]) == 0
        assert capsys.readouterr().out.startswith("completed after 1000 steps (t = 1); 5 files")
        cfg = config(*STREAMED_ARGS, out=tmp_path / "replayed")
        result, sink = collect(cfg)
        written = write_outputs(result, cfg, _write_at_once(cfg, sink.records, sink.snapshots))
        assert [p.name for p in written] == [
            "diagnostics.csv", "snapshot_0.csv", "snapshot_0.45.csv", "snapshot_0.9.csv",
            "report.txt"]
        assert _files(tmp_path / "streamed") == _files(tmp_path / "replayed")

    def test_sink_gets_one_record_per_state_before_its_snapshot(self):
        """The sink gets one add_record call per state, in order of t, and
        each add_snapshot comes right after the record of its own t."""
        result, sink = collect(config(*STREAMED_ARGS))
        kinds = [kind for kind, _ in sink.calls]
        assert kinds.count("record") == len(sink.records) == result.steps + 1 == 1001
        assert all(a.t < b.t for a, b in zip(sink.records, sink.records[1:]))
        assert kinds[0] == "record" and [t for t, _ in sink.snapshots] == [0.0, 0.45, 0.9]
        for before, (kind, item) in zip(sink.calls, sink.calls[1:]):
            if kind == "snapshot":
                assert before[0] == "record" and before[1].t == item[0]

    def test_run_without_a_step_streams_one_record(self):
        cfg = config("--n", "16", "--dt", "1e80", "--t-final", "1e80", "--snapshot-every", "1e80")
        result, sink = collect(cfg)
        assert result.cause == "non_finite" and result.steps == 0 and len(sink.records) == 1

    @pytest.mark.parametrize("args, cause", [
        (["--n", "16", "--t-final", "0.3"], None),
        (["--n", "64", "--t-final", "1.2", "--slope-limit", "10"], "slope_threshold"),
        (STEP_BUDGET_ARGS, "step_budget"),
        (["--n", "16", "--dt", "1e80", "--t-final", "1e80", "--snapshot-every", "1e80"],
         "non_finite"),
    ], ids=["completed", "slope", "step-budget", "no-step"])
    def test_summary_does_not_depend_on_the_sink(self, tmp_path, monkeypatch, args, cause):
        """Collected and written to files, a run returns the same RunResult:
        first and last are the first and last records the sink got, and
        steps counts the records after the first. The run that takes no step
        has one record, its first and its last. Only the step_budget run
        takes 1000 steps."""
        monkeypatch.setattr(cli, "MAX_STEPS", 1000)
        cfg = config(*args, out=tmp_path)
        collected, sink = collect(cfg)
        with OutputFiles(cfg.output_dir) as files:
            assert run_simulation(cfg, files) == collected
        assert collected.cause == cause
        assert (collected.first, collected.last) == (sink.records[0], sink.records[-1])
        assert collected.steps == len(sink.records) - 1
        no_step = cause == "non_finite"  # the dt = 1e80 run ends at its t = 0 record
        assert (collected.steps == 0) == (collected.first == collected.last) == no_step

    def test_interrupted_run_keeps_what_it_wrote(self, tmp_path, monkeypatch, capsys):
        """A run interrupted at its 880th step exits 130 with one line on
        stderr, and leaves the snapshots it reached, byte for byte, the rows
        of the 880 states it made and no report."""
        full, cut = tmp_path / "full", tmp_path / "cut"
        assert main([*STREAMED_ARGS, "--output", str(full)]) == 0
        steps = itertools.count(1)

        def interrupted(c, p, dt, **kwargs):
            if next(steps) == 880:
                raise KeyboardInterrupt
            return rk4_step(c, p, dt, **kwargs)

        monkeypatch.setattr(cli, "rk4_step", interrupted)
        capsys.readouterr()
        assert main([*STREAMED_ARGS, "--output", str(cut)]) == 130
        assert capsys.readouterr() == ("", "error: interrupted\n")
        kept = _files(cut)
        assert set(kept) == {"diagnostics.csv", "snapshot_0.csv", "snapshot_0.45.csv"}
        for name in ("snapshot_0.csv", "snapshot_0.45.csv"):
            assert kept[name] == (full / name).read_bytes(), name
        # The header and the rows of t = 0 and of the 879 steps taken.
        full_lines = (full / "diagnostics.csv").read_bytes().splitlines(keepends=True)
        assert kept["diagnostics.csv"] == b"".join(full_lines[:1 + 880])

    def test_rows_through_t_are_on_disk_before_its_snapshot(self, tmp_path, monkeypatch):
        """As each snapshot_<t>.csv is opened, diagnostics.csv on disk holds
        the header and every row through t, so no snapshot is ahead of the
        rows a stopped run leaves."""
        seen = {}
        path_open = Path.open

        def spying_open(self, *args, **kwargs):
            if self.name.startswith("snapshot_"):
                with open(self.parent / "diagnostics.csv", "rb") as f:
                    seen[self.name] = f.read()
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", spying_open)
        assert main([*STREAMED_ARGS, "--output", str(tmp_path)]) == 0
        lines = (tmp_path / "diagnostics.csv").read_bytes().splitlines(keepends=True)
        times = [float(line.split(b",")[0]) for line in lines[1:]]
        assert list(seen) == ["snapshot_0.csv", "snapshot_0.45.csv", "snapshot_0.9.csv"]
        for name, t in zip(seen, (0.0, 0.45, 0.9)):
            assert seen[name] == b"".join(lines[:2 + times.index(t)]), name

    def test_output_error_while_streaming_exits_one(self, tmp_path, capsys):
        """A snapshot that cannot be written ends the run with exit code 1."""
        (tmp_path / "snapshot_0.1.csv").mkdir()
        code = main(["--n", "16", "--t-final", "0.3", "--output", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "snapshot_0.csv").is_file() and not (tmp_path / "report.txt").exists()

    def test_one_sink_writes_each_grid_it_is_handed(self, tmp_path):
        """A sink reads the grid from each snapshot: handed 16, then 32, then
        16 values, it writes each file as a fresh sink writes it for that
        grid, with the nodes of that grid in its x column."""
        rng = np.random.default_rng(43)
        snapshots = [(0.0, rng.standard_normal(16)), (0.1, rng.standard_normal(32)),
                     (0.2, rng.standard_normal(16))]
        with OutputFiles(tmp_path / "one") as one:
            for t, u in snapshots:
                one.add_snapshot(t, u)
        for i, (t, u) in enumerate(snapshots):
            with OutputFiles(tmp_path / str(i)) as fresh:
                fresh.add_snapshot(t, u)
            name = _snapshot_name(t)
            text = (tmp_path / str(i) / name).read_bytes()
            assert (tmp_path / "one" / name).read_bytes() == text, name
            rows = [line.split(b",") for line in text.splitlines()[1:]]
            assert [float(x) for x, _ in rows] == nodes(u.size).tolist()
            assert [float(v) for _, v in rows] == u.tolist()

    def test_node_column_is_formatted_once_per_run(self, tmp_path, monkeypatch):
        """Over fine-16k's configuration, 21 snapshots of 16384 values, the
        sink forms the nodes once, at the t = 0 snapshot, not when it is made."""
        calls = []

        def counted(n):
            calls.append((n, [p.name for p in files.written]))
            return nodes(n)

        monkeypatch.setattr(_writer, "nodes", counted)
        cfg = config(*FINE_ARGS, "--snapshot-every", "0.000172", out=tmp_path)
        with OutputFiles(cfg.output_dir) as files:
            assert calls == []
            run_simulation(cfg, files)
        assert calls == [(16384, ["diagnostics.csv"])] and len(files.written) == 22

    def test_snapshot_off_every_grid_is_refused_before_its_file(self, tmp_path):
        """A snapshot of 15 values is refused by nodes' own rule before its
        file is opened; the rows and the snapshot already written stay."""
        rec = DiagnosticsRecord(0.0, 0.0, 1.0, 1.0, -1.0, -1.0, 1.0, 0.0, 1.0, 0.0)
        with OutputFiles(tmp_path) as files:
            files.add_record(rec)
            files.add_snapshot(0.0, np.ones(16))
            files.add_record(rec._replace(t=0.1))
            with pytest.raises(ValueError, match=r"^n: must be an even integer >= 4, got 15$"):
                files.add_snapshot(0.1, np.ones(15))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["diagnostics.csv", "snapshot_0.csv"]
        assert [p.name for p in files.written] == ["diagnostics.csv", "snapshot_0.csv"]
        assert (tmp_path / "diagnostics.csv").read_bytes().splitlines()[1:] == [
            b"0,0,1,1,-1,-1,1,0,1,0", b"0.10000000000000001,0,1,1,-1,-1,1,0,1,0"]

    def test_held_memory_does_not_grow_with_the_snapshots(self, tmp_path):
        """fine-16k's configuration peaks within one snapshot, 8 * n bytes,
        with 21 snapshots as with 2: none is held after it is written. The
        two peaks differ by under 1 kB (2 MiB when every one was held)."""
        two_args = [*FINE_ARGS, "--snapshot-every", "0.00344"]
        main([*two_args, "--output", str(tmp_path / "warm")])
        many = _peak_bytes([*FINE_ARGS, "--snapshot-every", "0.000172"], tmp_path / "21")
        two = _peak_bytes(two_args, tmp_path / "2")
        assert len(list((tmp_path / "21").glob("snapshot_*.csv"))) == 21
        assert abs(many - two) < 8 * 16384

    def test_held_memory_does_not_grow_with_the_records(self, tmp_path):
        """Ten times the steps, 500 and 5000 records, move the peak by about
        1 kB (1.6 MB when every record was held): no record is held after
        its row is written, in either run."""
        args = ["--n", "16", "--linear-only", "--dt", "0.002", "--t-final", "1",
                "--snapshot-every", "1"]
        main([*args, "--output", str(tmp_path / "warm")])
        short = _peak_bytes(args, tmp_path / "1")
        long = _peak_bytes([*args, "--t-final", "10", "--snapshot-every", "10"], tmp_path / "10")
        assert abs(long - short) < 64 * 1024


def _nan_with_payload(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Values the writer must format exactly as the per-value path did: signed
# zeros, quiet NaNs with payloads and signs, infinities, the smallest
# subnormal, the smallest normal, huge values, an inexact sum, and integers.
SPECIAL_VALUES = [
    0.0, -0.0, math.nan, -math.nan, _nan_with_payload(0x7FF8000000000001),
    _nan_with_payload(0xFFFC00000000ABCD), math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e308,
    -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 3, -7, 2**53 + 1, np.float64(-0.0),
]


def _ulps_around(v, count):
    """The 2 * count + 1 doubles nearest v (v > 0), v included."""
    bits = np.array([v]).view(np.int64) + np.arange(-count, count + 1, dtype=np.int64)
    return bits.view(np.float64)


def _ties(rng, per_exponent):
    """Doubles exactly halfway between two 17-digit decimals, per_exponent of
    them at every decimal exponent E from -6 to 15: odd multiples of
    2**-(17 - E), whose 18th significant digit is the last and a 5."""
    ties = []
    for e in range(-6, 16):
        scale = 2 ** (17 - e)
        low = math.ceil(Fraction(10) ** e * scale)
        high = min(math.floor(Fraction(10) ** (e + 1) * scale), 2**53)
        for m in rng.integers(low, high, per_exponent).tolist():
            m |= 1
            ties.append(m / scale)  # exact: m < 2**53
            assert (Fraction(ties[-1]) * Fraction(10) ** (16 - e)).denominator == 2
    return ties


def _random_bits(rng, count, exponents=None):
    """Doubles with random bit patterns; with exponents (a range of binary
    exponents), only normal values of either sign within it."""
    bits = rng.integers(0, 2**64, count, dtype=np.uint64)
    if exponents is not None:
        biased = rng.integers(exponents.start + 1023, exponents.stop + 1023, count, dtype=np.uint64)
        bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (biased << np.uint64(52))
    return bits.view(np.float64)


# Doubles just below a power of ten whose 17-digit rounding carries to it
# (1e-14, 1e98, ...).
CARRIES = [v for k in range(-320, 309) for v in [float(f"1e{k}")]
           if Fraction(v) < Fraction(10) ** k and format(v, ".17g").startswith("1e")]


def reference_outputs(records, snapshots, n):
    """The per-value writer: one format() call per float, one f-string per row."""
    def fmt(v):
        return format(float(v) + 0.0, ".17g")

    lines = [",".join(DiagnosticsRecord._fields)]
    lines += [",".join(fmt(v) for v in rec) for rec in records]
    files = {"diagnostics.csv": "\n".join(lines) + "\n"}
    xs = [fmt(x) for x in nodes(n)]
    for t, field in snapshots:
        rows = ["x,u"]
        rows += [f"{x},{fmt(v)}" for x, v in zip(xs, field)]
        files[f"snapshot_{format(t, '.10g')}.csv"] = "\n".join(rows) + "\n"
    return files


class TestWriterReference:
    """OutputFiles is byte-identical to the per-value reference writer."""

    def test_matches_per_value_writer(self, tmp_path):
        n = 16384
        cfg = config("--n", str(n), "--gamma", "0.5", out=tmp_path)
        rng = np.random.default_rng(20240917)
        cells = SPECIAL_VALUES * 2 + rng.standard_normal(25).tolist()
        width = len(DiagnosticsRecord._fields)
        records = [DiagnosticsRecord(*cells[i:i + width])
                   for i in range(0, len(cells) - width + 1, width)]
        # report.txt reads predicted_t_star from row 0 and detected_t from the last row.
        records[0] = records[0]._replace(min_slope=-1 / (0.1 + 0.2))
        records[-1] = records[-1]._replace(t=-0.0)
        scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-330, 308, n)
        snapshots = (
            (0.0, np.resize(np.array(SPECIAL_VALUES, dtype=float), n)),
            (0.1, rng.standard_normal(n)),
            (0.1 + 0.2, scaled),
            (0.5, rng.integers(-1000, 1000, n)),
        )
        files = _write_at_once(cfg, records, snapshots)
        result = RunResult(records[0], records[-1], "non_finite", len(records) - 1, ("a warning",))
        written = write_outputs(result, cfg, files)

        expected = reference_outputs(records, snapshots, n)
        assert {p.name for p in written} == {*expected, "report.txt"}
        for name, text in expected.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name
        assert (tmp_path / "report.txt").read_bytes() == (
            "status: numeric_failure\n"
            "ic: neg-sine\n"
            "rng: pcg64\n"
            "seed: none\n"
            "predicted_t_star: 0.30000000000000004 (inviscid prediction)\n"
            "detected: true\n"
            "detected_t: 0\n"
            "detection_cause: non_finite\n"
            "warning: a warning\n"
        ).encode("utf-8")


    def test_edge_values_and_partial_chunks(self, tmp_path):
        """The values the array formatter must get right, written through
        snapshots of 6146 rows (one full chunk of 4096 and a partial one) and
        4100 diagnostics rows."""
        n = 6146
        cfg = config("--n", str(n), out=tmp_path)
        rng = np.random.default_rng(20261019)
        edges = np.concatenate([_ulps_around(v, 3) for v in (1e-6, 1e16)])
        powers = np.concatenate([_ulps_around(float(f"1e{k}"), 300) for k in range(-8, 18)])
        values = np.concatenate([
            edges, -edges, powers, -powers[::7], _ties(rng, 20), -np.array(_ties(rng, 5)),
            CARRIES, np.negative(CARRIES), _random_bits(rng, 3000),
            _random_bits(rng, 6000, exponents=range(-21, 55)),
        ])
        fields = np.resize(values, (-(-values.size // n), n))
        width = len(DiagnosticsRecord._fields)
        cells = rng.permutation(np.resize(values, 4100 * width))
        records = [DiagnosticsRecord(*row) for row in cells.reshape(4100, width).tolist()]
        records[0] = records[0]._replace(min_slope=-1.0)
        snapshots = tuple((0.1 * i, f) for i, f in enumerate(fields))
        files = _write_at_once(cfg, records, snapshots)
        write_outputs(RunResult(records[0], records[-1], None, len(records) - 1), cfg, files)

        for name, text in reference_outputs(records, snapshots, n).items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name

    def test_carries_lie_outside_the_exact_range(self):
        """A 17-digit rounding that carries to the next power of ten happens
        only outside the writer's exact range, where it formats per value."""
        assert 1e-14 in CARRIES and 1e98 in CARRIES
        assert [v for v in CARRIES if _writer._LOW < v < _writer._HIGH] == []

    def test_every_file_is_lf_terminated_when_the_platform_writes_crlf(self, tmp_path, monkeypatch):
        """With os.linesep set to CRLF, the pure-Python io writes each LF of a
        text-mode file as CRLF, as Windows does; no output may hold a CR.
        Path.open itself is replaced, since before Python 3.11 it holds the C
        io.open taken at import."""
        monkeypatch.setattr(os, "linesep", "\r\n")
        monkeypatch.setattr(Path, "open", lambda self, *a, **k: _pyio.open(self, *a, **k))
        probe = tmp_path / "probe.txt"
        probe.write_text("a\n", encoding="utf-8")
        assert probe.read_bytes() == b"a\r\n"  # text mode now writes CRLF
        cfg = config("--n", "16", "--t-final", "0.2", "--ic", "gaussian:1.0", out=tmp_path / "o")
        _, written = write_run(cfg)
        assert {p.name for p in written} >= {"diagnostics.csv", "report.txt", "snapshot_0.2.csv"}
        for path in written:
            assert b"\r" not in path.read_bytes(), path.name


class TestMain:
    def test_completed_run_exits_zero(self, tmp_path, capsys):
        code = main(["--n", "16", "--t-final", "0.3", "--output", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("completed after ")
        assert (tmp_path / "o" / "diagnostics.csv").exists()

    def test_usage_error_exits_64(self, tmp_path, capsys):
        code = main(["--n", "255", "--output", str(tmp_path)])
        assert code == 64
        assert "n" in capsys.readouterr().err

    def test_blowup_exit_code(self, tmp_path, capsys):
        code = main(["--n", "64", "--t-final", "1.2", "--slope-limit", "10",
                     "--output", str(tmp_path / "o")])
        assert code == EXIT_CODES["blowup_detected"] == 2
        assert capsys.readouterr().out.startswith("blowup_detected")

    def test_resolution_loss_exit_code(self, tmp_path):
        code = main([*RESOLUTION_LOSS_ARGS, "--output", str(tmp_path / "o")])
        assert code == EXIT_CODES["resolution_lost"] == 3

    def test_numeric_failure_exit_code(self, tmp_path):
        code = main([*NUMERIC_FAILURE_ARGS, "--output", str(tmp_path / "o")])
        assert code == EXIT_CODES["numeric_failure"] == 4

    def test_non_finite_record_ends_a_run_without_detection(self, tmp_path):
        """--detect-blowup false turns off the slope and tail rules only: a
        profile whose h3 overflows still ends the run at t = 0."""
        out = tmp_path / "o"
        code = main(["--n", "64", "--gamma", "0", "--ic", "scaled-neg-sine:3e153",
                     "--dt", "1e-300", "--t-final", "1e-298", "--snapshot-every", "1e-298",
                     "--detect-blowup", "false", "--output", str(out)])
        assert code == EXIT_CODES["numeric_failure"] == 4
        rows = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("0,")
        assert "detection_cause: non_finite\n" in (out / "report.txt").read_text(encoding="utf-8")

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("in the way", encoding="utf-8")
        code = main(["--n", "16", "--t-final", "0.2", "--output", str(blocker)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unusable_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def run_simulation(cfg, sink):
            raise AssertionError("the run started")

        monkeypatch.setattr("fracburgers.cli.run_simulation", run_simulation)
        blocker = tmp_path / "taken"
        blocker.write_text("in the way", encoding="utf-8")
        code = main(["--n", "16", "--t-final", "0.2", "--output", str(blocker / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_output_file_exits_one(self, tmp_path, capsys):
        """The directory exists, but one output path is taken by a directory."""
        (tmp_path / "report.txt").mkdir()
        code = main(["--n", "16", "--t-final", "0.2", "--output", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        code = main(["--ic", "gaussian:1.0", "--n", "16", "--t-final", "0.2",
                     "--output", str(tmp_path / "o")])
        assert code == 0
        assert "warning:" in capsys.readouterr().err

    def test_overflowing_profile_is_a_quiet_numeric_failure(self, tmp_path):
        """Overflow in the set-up transforms raises no warning, even under -W error."""
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fracburgers",
             "--ic", "scaled-neg-sine:1e307", "--output", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_CODES["numeric_failure"]
        assert proc.stderr == ""
        report = (tmp_path / "o" / "report.txt").read_text(encoding="utf-8")
        assert report.startswith("status: numeric_failure\n")

    @pytest.mark.parametrize("width, code", [
        ("1e-200", 64), ("1.49e-154", 64), ("1.5e-154", EXIT_CODES["resolution_lost"])])
    def test_gaussian_width_floor(self, tmp_path, capsys, width, code):
        """Below sqrt(float tiny), about 1.4917e-154, w**2 is subnormal and the
        profile overflows; such widths are refused, wider ones run warning-free."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(["--ic", f"gaussian:{width}", "--n", "16",
                        "--output", str(tmp_path / "o")])
        assert got == code
        err = capsys.readouterr().err
        assert err.startswith("error: invalid value for ic: width") == (code == 64)

    def test_negative_random_seed_exits_64(self, tmp_path, capsys):
        code = main(["--ic", "random:3:-1", "--output", str(tmp_path / "o")])
        assert code == 64
        assert capsys.readouterr().err == (
            "error: invalid value for ic: seed: must be an integer >= 0, got '-1'\n")

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fracburgers", "--n", "5", "--output", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 64
        assert "n" in proc.stderr
