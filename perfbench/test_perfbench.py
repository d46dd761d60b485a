"""The benchmark's own machinery: the span recorder and the output checks.

Each workload's checks must pass on a real run and fail on a deliberately
corrupted copy of its outputs.
"""

import shutil
import time

import numpy as np
import pytest

from fracburgers.cli import main
from run import Checker
from spans import SpanRecorder, Trace, percentile
from workloads import WORKLOADS, read_output


def test_self_times_add_up_to_the_root(tmp_path):
    rec = SpanRecorder()
    leaf = rec.wrap("m", "leaf", lambda: time.sleep(0.002))
    mid = rec.wrap("m", "mid", lambda: [leaf() for _ in range(3)])
    root = rec.wrap("r", "root", lambda: (mid(), leaf()))
    root()
    rec.dump(tmp_path / "spans.json")
    tr = Trace(tmp_path / "spans.json")

    assert tr.count("m.leaf") == 4 and tr.count("m.leaf", parent="m.mid") == 3
    assert tr.count("m.leaf", parent="r.root") == 1
    assert sum(tr.self_ns) == tr.duration_ns[0]  # span 0 is the root
    by_module = tr.self_s_by_module()
    assert by_module["m"] + by_module["r"] == pytest.approx(tr.root_s())
    assert by_module["m"] >= 0.008


def test_percentile_is_nearest_rank():
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([5.0], 99) == 5.0
    assert percentile([], 50) == 0.0


def run_workload(name, out, seed=1):
    args = WORKLOADS[name].args(seed)
    return args, main([*args, "--output", str(out)])


@pytest.fixture(scope="module")
def shock(tmp_path_factory):
    out = tmp_path_factory.mktemp("shock")
    return (out, *run_workload("shock-1024", out))


@pytest.fixture(scope="module")
def stiff(tmp_path_factory):
    out = tmp_path_factory.mktemp("stiff")
    return (out, *run_workload("stiff-256", out))


def corrupted(src, dst, edit):
    shutil.copytree(src, dst)
    edit(dst)
    return dst


def replace_line(path, prefix, new):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(new if ln.startswith(prefix) else ln for ln in lines) + "\n")


def edit_column(path, column, row, fn):
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index(column)
    cells = rows[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    rows[row] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")


def shift_snapshot(path):
    x, u = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    rows = [f"{a!r},{b!r}" for a, b in zip(x.tolist(), np.roll(u, 1).tolist())]
    path.write_text("\n".join(["x,u", *rows]) + "\n")


def problems(name, out, args, code):
    return WORKLOADS[name].check(read_output(out, code), args)


def test_shock_run_passes(shock):
    out, args, code = shock
    assert problems("shock-1024", out, args, code) == []


@pytest.mark.parametrize("edit, code, expect", [
    (lambda d: shift_snapshot(d / "snapshot_0.5.csv"), 2, "from characteristics_solution"),
    (lambda d: replace_line(d / "report.txt", "detected_t:", "detected_t: 0.5"), 2, "detected_t"),
    (lambda d: (d / "snapshot_0.3.csv").unlink(), 2, "snapshot times"),
    (lambda d: edit_column(d / "diagnostics.csv", "bkm_integral", 5, lambda v: v - 1.0), 2, "BKM"),
    (lambda d: None, 0, "exit code"),
])
def test_corrupted_shock_output_fails(shock, tmp_path, edit, code, expect):
    out, args, _ = shock
    bad = corrupted(out, tmp_path / "bad", edit)
    found = problems("shock-1024", bad, args, code)
    assert any(expect in p for p in found), found


def test_stiff_run_passes(stiff):
    out, args, code = stiff
    assert problems("stiff-256", out, args, code) == []


@pytest.mark.parametrize("column, fn, expect", [
    ("mass", lambda v: 1e-9, "|mass|"),
    ("l2", lambda v: v * (1 + 1e-3), "L2 rises"),
    ("max_u", lambda v: 1.01, "extrema"),
])
def test_corrupted_stiff_output_fails(stiff, tmp_path, column, fn, expect):
    out, args, code = stiff
    bad = corrupted(out, tmp_path / "bad",
                    lambda d: edit_column(d / "diagnostics.csv", column, 10, fn))
    found = problems("stiff-256", bad, args, code)
    assert any(expect in p for p in found), found


def test_run_stopped_early_fails(stiff, tmp_path):
    out, args, code = stiff

    def drop_last_row(d):
        path = d / "diagnostics.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

    bad = corrupted(out, tmp_path / "bad", drop_last_row)
    assert any("not at t_final" in p for p in problems("stiff-256", bad, args, code))


def test_fine_run_passes_and_checks_mass(tmp_path):
    out = tmp_path / "fine"
    args, code = run_workload("fine-16k", out, seed=2)
    assert problems("fine-16k", out, args, code) == []
    bad = corrupted(out, tmp_path / "bad",
                    lambda d: edit_column(d / "diagnostics.csv", "mass", 7, lambda v: v + 1e-6))
    assert any("mass drifts" in p for p in problems("fine-16k", bad, args, code))


def test_repeats_must_write_identical_diagnostics(stiff, tmp_path):
    out, args, code = stiff
    check = Checker(WORKLOADS["stiff-256"], args)
    assert check(out, code)[1] == []
    assert check(out, code)[1] == []
    bad = corrupted(out, tmp_path / "bad",
                    lambda d: edit_column(d / "diagnostics.csv", "h3", 3, lambda v: v * (1 + 1e-15)))
    assert "diagnostics.csv differs from the first repeat" in check(bad, code)[1]
