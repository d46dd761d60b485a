"""The README against the package in src/: its library example runs, and
its diagnostics.csv header is the one written."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
