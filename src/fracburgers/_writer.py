"""CSV writer: every float as _fmt writes it.

A diagnostics.csv row is one record, formatted by one % of _FLOAT. A
snapshot is formatted a column at a time: a value becomes a cell of CELL
bytes, its text at fixed places and NUL everywhere else, and
OutputFiles.add_snapshot lays out the cells of CHUNK rows at a time and
drops the NULs with one bytes.translate. For
1e-6 < |v| < 1e16 the cells are computed with numpy array operations, and
exactly:

- E = floor(log10|v|) is found by a binary search in _BOUNDS, which holds
  10**E for each E, rounded to the nearest double.
- 10**(16 - E) is an exact double, and Dekker's two-product (Dekker 1971)
  gives hi + lo == |v| * 10**(16 - E) exactly. numpy evaluates each ufunc
  separately, so no fused multiply-add changes it.
- hi >= 2**53 is an even integer, so D = hi + rint(lo) is the 17-digit
  significand rounded half to even, as %.17g rounds. D stays below 10**17:
  only a double within 5e-18 of a power of ten below it could carry, and
  those (1e-14, 1e98, ...) lie outside the range.
- The digits are laid out as %g lays them out: fixed notation for
  -4 <= E < 17, d.ddd...e-XX below, trailing zeros and a bare "." dropped,
  and "-" from v < 0, so -0.0 gets no sign.

Zero (and -0.0) gets the cell of "0"; non-finite values and every other
value outside the range are formatted with _FLOAT, one % for all of them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsRecord
from .spectral import nodes

# The one spelling of the output float format: 17 significant digits
# round-trip every float64. Every value gets + 0.0 first, so -0.0 prints "0".
_FLOAT = "%.17g"


def _fmt(v: float) -> str:
    return _FLOAT % (float(v) + 0.0)  # -0.0 + 0.0 is +0.0


# A diagnostics.csv row: one record, formatted by one %.
_ROW = (",".join([_FLOAT] * len(DiagnosticsRecord._fields)) + "\n").encode("ascii")

CHUNK = 4096  # values formatted and written at a time
# A cell, by byte: 0 the sign, 1-5 the "0.000" of 0.000ddd, then the digits
# d0 ... d16 at 6, 8, ..., 38, each followed by a slot for the point, 40-43
# the exponent of d.ddde-XX, and 44 the separator. A value formatted by %
# (at most 24 bytes) starts at 0.
CELL = 48
_SEPARATOR = 44

_ZERO = np.frombuffer(b"0".ljust(CELL, b"\0"), dtype=np.uint8)  # the cell of 0.0 and -0.0
_LOW, _HIGH = 1e-6, 1e16  # the exact range, both ends excluded
_EXPONENTS = range(-6, 16)  # the decimal exponents E of the values in it


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == a, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# By E + 6: 10**E rounded to the nearest double. From E = 0 up it is exact;
# for -5 <= E < 0 it lies above 10**E with no double between them; at E = -6
# it lies below, but the range starts above it. So a value of the range is at
# least _BOUNDS[E + 6] exactly when it is at least 10**E.
_BOUNDS = np.array([float(f"1e{e}") for e in _EXPONENTS])
# By E + 6: 10**(16 - E), exact since 16 - E <= 22, and its Veltkamp split.
_SCALES = np.array([float(f"1e{16 - e}") for e in _EXPONENTS])
_SCALES_HI, _SCALES_LO = _split(_SCALES)
# By quad q < 10**4: its four digits, each followed by an empty slot, as one
# uint64, and its trailing zeros (q = 0 has 4).
_QUADS = np.zeros((10**4, 8), dtype=np.uint8)
_QUADS[:, ::2] = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_QUADS = _QUADS.view(np.uint64).ravel()
_QUAD_TRAILING = np.zeros(10**4, dtype=np.uint8)
for _power in (10, 100, 1000, 10000):
    _QUAD_TRAILING[::_power] += 1


def _table(rows: list[bytes]) -> np.ndarray:
    """Each row NUL-padded to 8 bytes, as one uint64."""
    return np.frombuffer(b"".join(r.ljust(8, b"\0") for r in rows), dtype=np.uint64)


# By E + 6: bytes 0-7 of a cell (+ len(_EXPONENTS) for a negative value),
# bytes 40-47, and the digits before the point: E + 1 in fixed notation from
# 1 up, none in 0.000ddd, and one in d.ddde-XX.
_HEADS = _table([sign + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                 for sign in (b"\0", b"-") for e in _EXPONENTS])
_TAILS = _table([b"e-%02d" % -e if e < -4 else b"" for e in _EXPONENTS])
_BEFORE_POINT = np.array([e + 1 if e >= 0 else 0 if e >= -4 else 1 for e in _EXPONENTS],
                         dtype=np.int64)
# _QUAD_MASKS[i, kept] keeps those digits of quad i, d(4i + 1) ... d(4i + 4),
# that come before digit d(kept).
_QUAD_MASKS = _table([b"\xff\0" * count for count in range(5)])[
    np.clip(np.arange(18) - 1 - 4 * np.arange(4)[:, None], 0, 4)]


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E + 6 and the 17-digit significand D of each a, 1e-6 < a < 1e16."""
    e = np.searchsorted(_BOUNDS, a, side="right") - 1
    # Dekker's two-product: hi + lo == a * 10**(16 - E) exactly.
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _SCALES_HI[e], _SCALES_LO[e]
    hi = a * _SCALES[e]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return e, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fill(v: np.ndarray, words: np.ndarray) -> None:
    """Write the cells of values with 1e-6 < |v| < 1e16 into the rows of
    words, (len(v), CELL // 8) uint64."""
    e, rest = _significand(np.abs(v))  # e is E + 6

    # d0, then d1-d16 as four quads, and the trailing zeros those end in.
    d0, rest = np.divmod(rest, np.int64(10**16))
    quads = []
    for scale in (10**12, 10**8, 10**4):
        quad, rest = np.divmod(rest, np.int64(scale))
        quads.append(quad)
    quads.append(rest)
    trailing = _QUAD_TRAILING[quads[0]]
    for quad in quads[1:]:  # a quad of zeros adds its 4 to the trailing zeros of those before it
        trailing = _QUAD_TRAILING[quad] + (quad == 0) * trailing
    # Digits written: the significant ones, and every one before the point.
    before = _BEFORE_POINT[e]
    kept = np.maximum(np.int64(17) - trailing, before)

    words[:, 0] = _HEADS[e + np.int64(len(_EXPONENTS)) * (v < 0.0)]
    for i, quad in enumerate(quads):
        words[:, 1 + i] = _QUADS[quad] & _QUAD_MASKS[i, kept]
    words[:, 5] = _TAILS[e]
    chars = words.view(np.uint8)
    chars[:, 6] = d0.astype(np.uint8) + np.uint8(ord("0"))
    # The point goes in the slot after digit before - 1; 0.000ddd has its own.
    pointed = np.flatnonzero((kept > before) & (before > 0))
    chars[pointed, 2 * before[pointed] + 5] = ord(".")


def _cells(values: np.ndarray, out: np.ndarray) -> None:
    """Write the cell of each value into the rows of out, (len(values), CELL) uint8."""
    a = np.abs(values)
    fast = (a > _LOW) & (a < _HIGH)  # False for NaN
    if fast.any():
        _fill(np.where(fast, values, 1.0), out.view(np.uint64))  # the other rows are replaced
    out[a == 0.0] = _ZERO  # -0.0 as well
    slow = np.flatnonzero(~fast & (a != 0.0))
    if slow.size:  # formatted by one %
        text = "\n".join([_FLOAT] * slow.size) % tuple(values[slow].tolist())
        texts = np.array(text.encode("ascii").split(b"\n"), dtype=f"S{CELL}")
        out[slow] = texts.view(np.uint8).reshape(-1, CELL)


def _snapshot_name(t: float) -> str:
    return f"snapshot_{format(t, '.10g')}.csv"


class OutputFiles:
    """A run's files in directory, written as the run makes them: the sink
    the command line hands cli.run_simulation.

    Made before the run, it creates directory and opens diagnostics.csv,
    writing its header; enter it with `with`, which closes that file.
    add_record writes a record as one row, one % of _FLOAT. add_snapshot
    formats the node column of nodes(u.size) when it first meets that grid,
    then flushes diagnostics.csv, so every row through t is on disk, and
    writes snapshot_<t>.csv at once, CHUNK rows at a time; add_report writes
    report.txt last. written lists the files in the order they were made,
    so an interrupted run leaves every snapshot it reached, every row it
    made (closing the file writes the rest) and no report.txt.
    """

    def __init__(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self._x = None  # the node column of the last grid, each cell ending ","
        path = directory / "diagnostics.csv"
        self._rows = path.open("wb")
        self._rows.write((",".join(DiagnosticsRecord._fields) + "\n").encode("ascii"))
        self.written = [path]

    def __enter__(self) -> OutputFiles:
        return self

    def __exit__(self, *exc) -> None:
        self._rows.close()

    def add_record(self, rec) -> None:
        self._rows.write(_ROW % tuple([float(v) + 0.0 for v in rec]))  # -0.0 prints "0"

    def add_snapshot(self, t: float, u) -> None:
        u = np.asarray(u, dtype=np.float64)
        if u.ndim != 1:
            raise ValueError(f"u: must be one row of nodal values, got shape {u.shape}")
        if self._x is None or len(self._x) != u.size:
            x = nodes(u.size)
            self._x = np.empty((u.size, CELL), dtype=np.uint8)
            for start in range(0, u.size, CHUNK):
                _cells(x[start:start + CHUNK], self._x[start:start + CHUNK])
            self._x[:, _SEPARATOR] = ord(",")
        self._rows.flush()  # no snapshot on disk ahead of the rows through its t
        path = self.directory / _snapshot_name(t)
        with path.open("wb") as f:
            f.write(b"x,u\n")
            for start in range(0, u.size, CHUNK):
                block = u[start:start + CHUNK]
                line = np.empty((block.size, 2, CELL), dtype=np.uint8)
                line[:, 0] = self._x[start:start + CHUNK]
                _cells(block, line[:, 1])
                line[:, 1, _SEPARATOR] = ord("\n")
                f.write(line.tobytes().translate(None, b"\0"))
        self.written.append(path)

    def add_report(self, lines: list[str]) -> list[Path]:
        """Write lines to report.txt, UTF-8 with LF line ends; return written."""
        path = self.directory / "report.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        self.written.append(path)
        return self.written
