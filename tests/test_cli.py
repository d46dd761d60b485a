"""Configuration parsing, the run loop, output files, and exit codes."""

import _pyio
import dataclasses
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fracburgers import _writer
from fracburgers.cli import (
    _OPTIONS,
    EXIT_CODES,
    MAX_FIXED_STEPS,
    RunConfig,
    RunResult,
    UsageError,
    _snapshot_name,
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
from fracburgers.dynamics import CFL_ADVECTION, CFL_DISSIPATION, DT_GUARD, SimParams
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


def config(*extra, out="unused"):
    return parse_config([*extra, "--output", str(out)])


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config([])
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
    def test_non_number_worded_as_range_rule(self, key, rule):
        with pytest.raises(ValueError, match=f"^{key}: {rule}, got 'fast'$"):
            dataclasses.replace(parse_config([]), **{key: "fast"})

    @pytest.mark.parametrize("key, build", [
        ("gamma", lambda big: SimParams(gamma=big)),
        ("slope_limit", lambda big: DetectionThresholds(slope_limit=big)),
        ("t_final", lambda big: dataclasses.replace(parse_config([]), t_final=big)),
        ("amplitude", lambda big: InitialCondition.scaled_neg_sine(big)),
    ])
    def test_int_beyond_float_range_refused_by_its_owner(self, key, build):
        """float(10**400) overflows; the owner still names the value."""
        with pytest.raises(ValueError, match=f"^{key}:? must be finite"):
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
        """A str directory is stored as a Path, so write_outputs can make it."""
        cfg = dataclasses.replace(config("--n", "16", "--t-final", "0.2"),
                                  output_dir=str(tmp_path / "out"))
        assert isinstance(cfg.output_dir, Path)
        written = write_outputs(run_simulation(cfg), cfg)
        assert (tmp_path / "out" / "report.txt") in written
        assert all(path.is_file() for path in written)

    def test_grid_derived_from_n(self):
        """n is the config's only record of the grid: the run samples the
        profile at nodes(n), and no grid field can disagree with it."""
        cfg = dataclasses.replace(config("--t-final", "0.1"), n=32.0)
        assert cfg.n == 32 and type(cfg.n) is int
        assert "grid" not in {f.name for f in dataclasses.fields(RunConfig)}
        with pytest.raises(TypeError, match="grid"):
            dataclasses.replace(cfg, grid=nodes(64))
        assert np.array_equal(run_simulation(cfg).snapshots[0][1], -np.sin(nodes(32)))

    @pytest.mark.parametrize("argv, changes", [
        (["--n", "16", "--ic", "random:8:1"], dict(n=16, ic=InitialCondition.random_band(8, 1))),
        (["--t-final", "0.2", "--snapshot-every", "0.5"], dict(t_final=0.2, snapshot_every=0.5)),
        (["--dt", "1e-12"], dict(dt=1e-12)),
        (["--gamma", "1e6", "--alpha", "2"], dict(params=SimParams(gamma=1e6, alpha=2.0))),
        (["--snapshot-every", "1e-9", "--t-final", "1e3"],
         dict(snapshot_every=1e-9, t_final=1e3)),
        (["--n", str(2**23 + 2), "--snapshot-every", "1"], dict(n=2**23 + 2, snapshot_every=1.0)),
    ], ids=["random-kmax", "snapshot-after-t-final", "fixed-steps", "auto-steps",
            "snapshot-values", "working-set"])
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
    """Runs that would take too many steps or hold too many snapshots are refused."""

    # dt = 2**-20 makes t_final / dt exact: 10**6 steps pass, 10**6 + 1 do not.
    def test_fixed_step_budget(self):
        dt = 2.0**-20
        cfg = config("--dt", repr(dt), "--t-final", repr(10**6 * dt))
        assert cfg.t_final / cfg.dt == 10**6
        with pytest.raises(UsageError, match=r"^invalid value for dt: .*10\*\*6"):
            config("--dt", repr(dt), "--t-final", repr((10**6 + 1) * dt))

    def test_auto_step_is_not_bounded_up_front(self):
        assert config("--t-final", repr((10**6 + 1) * 2.0**-20)).dt == "auto"

    def test_auto_dissipative_step_budget(self):
        """An auto step is at most stable_dt at max|u| = 0. At n = 256 and
        alpha = 2 that is CFL_DISSIPATION / (16384 gamma + 1e-12), so t_final
        = 1 takes at least 16384 gamma / CFL_DISSIPATION steps: 10**6 at the
        edge gamma = 10**6 CFL_DISSIPATION / 16384. A gamma a relative 1e-9
        below it passes; one 1e-9 above it is refused."""
        edge = MAX_FIXED_STEPS * CFL_DISSIPATION / 16384
        below, above = repr(edge * (1 - 1e-9)), repr(edge * (1 + 1e-9))
        assert config("--gamma", below, "--alpha", "2").params.gamma == float(below)
        with pytest.raises(UsageError, match=r"^invalid value for dt: auto .*10\*\*6"):
            config("--gamma", above, "--alpha", "2")
        with pytest.raises(UsageError, match=r"^invalid value for dt: auto "):
            config("--gamma", "1e6", "--alpha", "2", "--n", "1024")
        # With gamma = 0 the advective bound CFL_ADVECTION / 1e-12 is the
        # smaller, so t_final may reach 10**6 times it, not 2% beyond.
        edge = MAX_FIXED_STEPS * (CFL_ADVECTION / DT_GUARD)
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

    @pytest.mark.parametrize("n,log2_every", [(4, 25), (256, 19), (16384, 13)])
    def test_snapshot_budget(self, n, log2_every):
        """(floor(t_final / snapshot_every) + 1) * n may reach 2**27, not pass it."""
        every = 2.0**-log2_every
        inside = config("--n", str(n), "--snapshot-every", repr(every),
                        "--t-final", repr(1.0 - every))
        count = math.floor(inside.t_final / inside.snapshot_every) + 1
        assert count * n == 2**27
        with pytest.raises(UsageError, match=r"^invalid value for snapshot_every: .*2\*\*27"):
            config("--n", str(n), "--snapshot-every", repr(every), "--t-final", "1")

    def test_oversized_grid_refused_before_allocation(self):
        """The snapshot budget refuses 2**62 nodes before any run forms them."""
        with pytest.raises(UsageError, match="invalid value for snapshot_every"):
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
        """The last 1000 snapshot times at the n = 4 limit get 1000 file names."""
        every = t_final / (2**25 - 1)
        cfg = config("--n", "4", "--snapshot-every", repr(every), "--t-final", repr(t_final))
        last = math.floor(cfg.t_final / cfg.snapshot_every)
        assert 2**25 - 2 <= last + 1 <= 2**25  # within rounding of the 2**27-value limit
        names = {_snapshot_name(i * cfg.snapshot_every) for i in range(last - 999, last + 1)}
        assert len(names) == 1000


class TestRunSimulation:
    def test_zero_profile_stays_zero(self):
        res = run_simulation(config("--ic", "random:0:1"))
        assert res.status == "completed"
        assert len(res.records) == 11  # stable_dt is huge, so steps land on snapshots
        assert [r.t for r in res.records] == pytest.approx(np.arange(11) * 0.1, abs=1e-12)
        for r in res.records:
            assert r.mass == 0.0 and r.l2 == 0.0 and r.h3 == 0.0
        assert len(res.snapshots) == 11
        assert breaking_time(res.records[0].min_slope) == np.inf

    def test_snapshots_land_on_exact_multiples(self):
        res = run_simulation(config("--n", "64", "--gamma", "0.1", "--t-final", "0.5"))
        times = [t for t, _ in res.snapshots]
        assert times == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]
        assert all(t == i * 0.1 for i, t in enumerate(times))
        assert np.array_equal(res.snapshots[0][1], -np.sin(nodes(64)))

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
        res = run_simulation(cfg)
        write_outputs(res, cfg)
        column = np.loadtxt(tmp_path / "diagnostics.csv", delimiter=",", skiprows=1,
                            usecols=DiagnosticsRecord._fields.index("bkm_integral"))
        t = np.array([t for t, _ in res.snapshots])
        assert len(res.snapshots) == len(res.records) > 40
        assert np.array_equal(t, [r.t for r in res.records])
        norms = np.array([np.abs(inverse_dft(spectral_derivative(forward_dft(u)))).max()
                          for _, u in res.snapshots])
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
        res = run_simulation(cfg)
        write_outputs(res, cfg)
        assert res.status == status
        table = np.loadtxt(tmp_path / "diagnostics.csv", delimiter=",", skiprows=1)
        col = dict(zip(DiagnosticsRecord._fields, table.T))
        t, s = col["t"], np.maximum(col["max_slope"], -col["min_slope"])
        trapezoid = np.concatenate([[0.0], np.cumsum(np.diff(t) * (s[:-1] + s[1:]) / 2)])
        assert len(t) > 40
        assert np.array_equal(col["bkm_integral"], trapezoid)

    def test_record_times_are_increasing_and_bounded(self):
        res = run_simulation(config("--n", "64", "--t-final", "0.5"))
        ts = [r.t for r in res.records]
        assert ts[0] == 0.0 and ts[-1] == 0.5
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_neg_sine_prediction_recorded(self):
        res = run_simulation(config("--n", "64", "--t-final", "0.2"))
        assert breaking_time(res.records[0].min_slope) == pytest.approx(1.0, rel=1e-9)

    def test_blowup_detected_by_slope_threshold(self):
        cfg = config("--n", "64", "--t-final", "1.2", "--slope-limit", "10")
        res = run_simulation(cfg)
        assert res.status == "blowup_detected"
        assert check_blowup(res.records[-1], cfg.thresholds) == "slope_threshold"
        # slope law: |m| crosses 10 at t = 1 - 1/10
        assert 0.85 <= res.records[-1].t <= 1.0

    def test_resolution_loss_detected(self):
        cfg = config(*RESOLUTION_LOSS_ARGS)
        res = run_simulation(cfg)
        assert res.status == "resolution_lost"
        assert check_blowup(res.records[-1], cfg.thresholds) == "resolution_loss"
        assert res.records[-1].tail_fraction > 0.01

    def test_resolution_loss_detected_under_the_two_thirds_rule(self, tmp_path):
        """The tail reads rows the 2/3 rule keeps, so it can fire on a
        dealiased run; at alpha = 0.5 this one overshoots its initial maximum."""
        args = ["--n", "256", "--alpha", "0.5", "--gamma", "0.05", "--ic", "random:8:0",
                "--t-final", "1", "--dealias", "two-thirds"]
        assert main([*args, "--output", str(tmp_path)]) == EXIT_CODES["resolution_lost"] == 3
        res = run_simulation(config(*args))
        assert res.status == "resolution_lost"
        assert res.records[-1].tail_fraction > 0.1 >= res.records[-2].tail_fraction

    def test_numeric_failure_keeps_finite_snapshots(self):
        res = run_simulation(config(*NUMERIC_FAILURE_ARGS))
        assert res.status == "numeric_failure"
        for _, field in res.snapshots:
            assert np.all(np.isfinite(field))

    def test_tiny_t_final_takes_a_step(self):
        """The landing tolerance scales with t_final, so a run to 1e-13 steps."""
        res = run_simulation(config("--n", "16", "--t-final", "1e-13",
                                    "--snapshot-every", "1e-13"))
        assert res.status == "completed"
        assert [r.t for r in res.records] == [0.0, 1e-13]
        assert [_snapshot_name(t) for t, _ in res.snapshots] == [
            "snapshot_0.csv", "snapshot_1e-13.csv"]

    def test_positive_profile_warns_about_extrema_hypotheses(self):
        res = run_simulation(config("--ic", "gaussian:1.0", "--n", "32", "--t-final", "0.2"))
        assert res.warnings and "maximum-principle" in res.warnings[0]

    def test_dealiased_warning_reads_the_projected_state(self):
        """gaussian:0.2 is positive at every node, but its projection onto
        the kept band of 32 nodes dips below 0, so only the run with
        dealiasing off warns."""
        args = ("--ic", "gaussian:0.2", "--n", "32", "--t-final", "0.01",
                "--snapshot-every", "0.01")
        assert run_simulation(config(*args)).warnings
        res = run_simulation(config(*args, "--dealias", "two-thirds"))
        assert res.records[0].min_u < 0.0 and res.warnings == ()

    def test_linear_run_matches_decay_oracle(self):
        """End to end against the exact semigroup, not just one step."""
        cfg = config("--gamma", "1", "--alpha", "2", "--n", "64",
                     "--t-final", "0.5", "--linear-only")
        res = run_simulation(cfg)
        s0 = forward_dft(-np.sin(nodes(64)))
        exact = inverse_dft(linear_decay_solution(s0, 0.5, 1.0, 2.0))
        final = res.snapshots[-1][1]
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
        res = run_simulation(cfg)
        assert res.status == status
        assert [r.t for r in res.records] == [0.0]
        assert check_blowup(res.records[0], cfg.thresholds) == cause
        assert len(res.snapshots) == 1

    def test_detection_can_be_disabled(self):
        args = ["--n", "64", "--t-final", "1.2", "--slope-limit", "10",
                "--detect-blowup", "false"]
        res = run_simulation(config(*args))
        assert res.status == "completed"


class TestWriteOutputs:
    def test_file_set_and_header(self, tmp_path):
        cfg = config("--n", "16", "--t-final", "0.3", out=tmp_path)
        paths = write_outputs(run_simulation(cfg), cfg)
        assert {p.name for p in paths} == {
            "diagnostics.csv", "report.txt",
            "snapshot_0.csv", "snapshot_0.1.csv", "snapshot_0.2.csv", "snapshot_0.3.csv",
        }
        lines = (tmp_path / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("t,mass,l2,max_u,min_u,min_slope,max_slope,bkm_integral,h3,"
                            "tail_fraction")

    def test_diagnostics_rows_match_records(self, tmp_path):
        cfg = config("--n", "16", "--t-final", "0.2", out=tmp_path)
        res = run_simulation(cfg)
        write_outputs(res, cfg)
        lines = (tmp_path / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(res.records) + 1
        first = [float(cell) for cell in lines[1].split(",")]
        assert first == list(res.records[0])

    def test_zero_run_serializes_plain_zeros(self, tmp_path):
        """-0.0 is normalized, so a quiescent run is all literal "0" cells."""
        cfg = config("--ic", "random:0:1", "--n", "16", out=tmp_path)
        write_outputs(run_simulation(cfg), cfg)
        lines = (tmp_path / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            assert line.split(",")[1:] == ["0"] * (len(DiagnosticsRecord._fields) - 1)

    def test_snapshot_columns(self, tmp_path):
        cfg = config("--n", "16", "--t-final", "0.2", out=tmp_path)
        write_outputs(run_simulation(cfg), cfg)
        lines = (tmp_path / "snapshot_0.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,u"
        xs = np.array([float(l.split(",")[0]) for l in lines[1:]])
        us = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.array_equal(xs, nodes(16))
        assert np.allclose(us, -np.sin(xs), rtol=0, atol=1e-16)

    def test_report_for_seeded_profile(self, tmp_path):
        cfg = config("--ic", "random:4:42", "--n", "32", "--t-final", "0.2", out=tmp_path)
        write_outputs(run_simulation(cfg), cfg)
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "status: completed" in text
        assert "ic: random:4:42" in text
        assert "rng: pcg64" in text
        assert "seed: 42" in text
        assert "detection_cause: none" in text

    def test_report_marks_viscous_prediction_as_inviscid_estimate(self, tmp_path):
        cfg = config("--gamma", "0.5", "--n", "16", "--t-final", "0.2", out=tmp_path)
        write_outputs(run_simulation(cfg), cfg)
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "(inviscid prediction)" in text

    @pytest.mark.parametrize("args,status,cause", [
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
    ])
    @pytest.mark.filterwarnings("error")
    def test_report_derived_from_status_and_records(self, tmp_path, args, status, cause):
        """detected_t is the last row's t, the cause pairs with the status,
        and predicted_t_star is -1/min_slope of row 0, or none where that is
        not a finite time. No warning is raised on the way."""
        cfg = config(*args, out=tmp_path)
        write_outputs(run_simulation(cfg), cfg)
        lines = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
        report = dict(line.split(": ", 1) for line in lines)
        header, first, *_, last = [
            line.split(",")
            for line in (tmp_path / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        ]
        first, last = dict(zip(header, first)), dict(zip(header, last))
        assert report["status"] == status and report["detection_cause"] == cause
        detected = status != "completed"
        assert report["detected"] == ("true" if detected else "false")
        assert report["detected_t"] == (last["t"] if detected else "none")
        m0 = float(first["min_slope"])
        predicted = report["predicted_t_star"].split(" ")[0]
        if m0 < 0.0 and -1.0 / m0 < math.inf:
            assert float(predicted) == -1.0 / m0
        else:
            assert predicted == "none"

    def test_result_needs_a_known_status_and_a_record(self):
        rec = DiagnosticsRecord(0.0, 0.0, 1.0, 1.0, -1.0, -1.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="unknown status"):
            RunResult(records=(rec,), snapshots=(), status="exploded")
        with pytest.raises(ValueError, match="t = 0 record"):
            RunResult(records=(), snapshots=(), status="completed")

    def test_warnings_echoed_into_report(self, tmp_path):
        cfg = config("--ic", "gaussian:1.0", "--n", "16", "--t-final", "0.2", out=tmp_path)
        write_outputs(run_simulation(cfg), cfg)
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "warning: maximum-principle" in text

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ("--ic", "random:6:9", "--n", "64", "--gamma", "0.1", "--t-final", "0.4")
        a, b = tmp_path / "a", tmp_path / "b"
        write_outputs(run_simulation(config(*args, out=a)), config(*args, out=a))
        write_outputs(run_simulation(config(*args, out=b)), config(*args, out=b))
        for name in ("diagnostics.csv", "report.txt", "snapshot_0.2.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_nested_output_directory_created(self, tmp_path):
        target = tmp_path / "deep" / "er" / "out"
        cfg = config("--n", "16", "--t-final", "0.2", out=target)
        write_outputs(run_simulation(cfg), cfg)
        assert (target / "diagnostics.csv").exists()

    def test_plain_callable_profile_refused_before_any_file(self, tmp_path):
        """A hand-built config may sample any callable, but report.txt names
        the profile by its --ic selector: write_outputs refuses such a
        config before it makes the directory or any file."""
        cfg = dataclasses.replace(config("--n", "16", "--t-final", "0.2", out=tmp_path / "o"),
                                  ic=lambda x: -np.sin(x))
        result = run_simulation(cfg)
        assert result.status == "completed"
        with pytest.raises(TypeError, match=r"report\.txt names the profile by its --ic selector"):
            write_outputs(result, cfg)
        assert list(tmp_path.iterdir()) == []

    def test_output_path_collision_raises_oserror(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("file, not a directory", encoding="utf-8")
        cfg = config("--n", "16", "--t-final", "0.2", out=blocker)
        with pytest.raises(OSError):
            write_outputs(run_simulation(cfg), cfg)


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


def reference_outputs(result, cfg):
    """The per-value writer: one format() call per float, one f-string per row."""
    def fmt(v):
        return format(float(v) + 0.0, ".17g")

    lines = [",".join(DiagnosticsRecord._fields)]
    lines += [",".join(fmt(v) for v in rec) for rec in result.records]
    files = {"diagnostics.csv": "\n".join(lines) + "\n"}
    xs = [fmt(x) for x in nodes(cfg.n)]
    for t, field in result.snapshots:
        rows = ["x,u"]
        rows += [f"{x},{fmt(v)}" for x, v in zip(xs, field)]
        files[f"snapshot_{format(t, '.10g')}.csv"] = "\n".join(rows) + "\n"
    return files


class TestWriterReference:
    """write_outputs is byte-identical to the per-value reference writer."""

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
        result = RunResult(records=tuple(records), snapshots=snapshots,
                           status="numeric_failure", warnings=("a warning",))

        written = write_outputs(result, cfg)

        expected = reference_outputs(result, cfg)
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
        result = RunResult(records=tuple(records),
                           snapshots=tuple((0.1 * i, f) for i, f in enumerate(fields)),
                           status="completed")

        write_outputs(result, cfg)

        for name, text in reference_outputs(result, cfg).items():
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
        written = write_outputs(run_simulation(cfg), cfg)
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
        def run_simulation(cfg):
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
            "error: invalid value for ic: seed must be >= 0, got -1\n")

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fracburgers", "--n", "5", "--output", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 64
        assert "n" in proc.stderr
