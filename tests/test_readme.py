"""The README against the package in src/: its library example runs, its
diagnostics.csv header is the one written, its flag table gives the
command line's defaults, and its causes and exit codes are those of the
outcome table."""

import os
import re
import subprocess
import sys
from pathlib import Path

from fracburgers.cli import _OPTIONS, _OUTCOMES, _build_parser, parse_config
from fracburgers.diagnostics import DiagnosticsRecord

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README 'Library use' has no python block"
    return match.group(1)


def test_library_use_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-W", "error", "-c", library_example()],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_outputs_header_is_the_record_fields():
    """The diagnostics.csv header the README shows is the one written."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"`diagnostics\.csv`: one row per time step with header\s+`([^`]+)`", text)
    assert match, "README 'Outputs' names no diagnostics.csv header"
    assert match.group(1) == ",".join(DiagnosticsRecord._fields)


def flag_table() -> dict[str, str]:
    """README's command-line table, flag -> default as written."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| flag | default | meaning |", 1)[1].split("\n\n", 1)[0]
    return dict(re.findall(r"^\| `(--[a-z-]+)` \| ([^|]*?) \|", table, re.MULTILINE))


def test_flag_table_defaults_are_the_parsed_ones():
    """Each default in the table is the value parse_config([]) resolves:
    numbers compared as floats, --linear-only off as False, --detect-blowup
    true as thresholds that are not None, --config none as no file."""
    table = flag_table()
    assert set(table) == {"--" + key.replace("_", "-") for key in _OPTIONS} | {"--config"}
    cfg = parse_config([])
    p, th = cfg.params, cfg.thresholds
    numbers = {"--n": cfg.n, "--gamma": p.gamma, "--alpha": p.alpha,
               "--t-final": cfg.t_final, "--snapshot-every": cfg.snapshot_every,
               "--slope-limit": th.slope_limit, "--tail-limit": th.tail_limit}
    for flag, value in numbers.items():
        assert float(table[flag]) == float(value), flag
    assert table["--dt"] == cfg.dt
    assert table["--ic"] == cfg.ic.label()
    assert table["--dealias"] == p.dealias_rule
    assert Path(table["--output"]) == cfg.output_dir
    assert {"off": False, "on": True}[table["--linear-only"]] is p.linear_only
    assert {"true": True, "false": False}[table["--detect-blowup"]] is (th is not None)
    assert table["--config"] == "none" and _build_parser().parse_args([]).config is None


def test_report_causes_are_the_outcome_table():
    """README's report.txt paragraph lists each cause with its status, as
    "- `cause`: `status`", and those pairs are the table's rows."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("- `report.txt`:", 1)[1].split("\n\n", 1)[0]
    pairs = re.findall(r"^  - `([a-z_]+)`: `([a-z_]+)`", section, re.MULTILINE)
    assert dict(pairs) == {cause or "none": status for cause, (status, _) in _OUTCOMES.items()}
    assert len(pairs) == len(_OUTCOMES)


def test_exit_codes_are_the_outcome_table():
    """README's exit-code paragraph names every code of the table, and the
    usage, I/O and interrupt codes, each once."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("Exit codes: ", 1)[1].split(". ", 1)[0]
    codes = [int(code) for code in re.findall(r"`(\d+)`", section)]
    assert sorted(codes) == sorted({code for _, code in _OUTCOMES.values()} | {64, 1, 130})
