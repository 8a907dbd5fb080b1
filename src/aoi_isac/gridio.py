"""Deterministic artifact formats: CSV grids, JSON reports, ASCII maps, PGM.

Grid CSV layout: rows alpha_s = 0..a_max ascending, columns alpha_b
ascending, an index header row and column, and '#'-prefixed comment lines
carrying the resolved run configuration so every artifact is
self-describing. Reals are printed with 17 significant digits, which
round-trips float64 losslessly; rerunning a writer with identical inputs
reproduces identical bytes.

The grid writers work a row at a time: one precomposed '%' format per row
("%.17g", or "%d" for integer grids) over the row's Python values, which
gives the bytes fmt_real and str(int(v)) give cell by cell. The readers
check each data line's length and index, then convert its cells with one
numpy call, which reads every cell as float() or int() does; so an error
names the first malformed line in file order. A row at a time, not the
whole grid in one call: that would hold every cell's string at once, about
5 MB more at a_max=300.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CORNER = "alpha_s\\alpha_b"
# decision-map glyphs, indexed by "is comm": b"S" for sense, b"C" otherwise
GLYPHS = np.frombuffer(b"SC", dtype=np.uint8)


def fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def read_text(path) -> str:
    """The text of an input file. A file that is missing, cannot be read (a
    directory) or is not UTF-8 raises ValueError naming the path and the
    reason."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid {exc.encoding} ({exc.reason} at "
                         f"byte {exc.start})") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def grid_csv_text(grid: np.ndarray, comments: list[str] = (),
                  integer: bool = False) -> str:
    grid = np.asarray(grid)
    n = grid.shape[0]
    if grid.shape != (n, n):
        raise ValueError(f"grid must be square, got shape {grid.shape}")
    # one precomposed format per row; "%.17g" prints a float as fmt_real does
    # and "%d" an integer-valued cell as str(int(v)) does
    row_fmt = ",".join(["%d"] + ["%d" if integer else "%.17g"] * n)
    lines = [f"# {c}" for c in comments]
    lines.append(",".join([CORNER] + [str(j) for j in range(n)]))
    lines += [row_fmt % (i, *row) for i, row in enumerate(grid.tolist())]
    return "\n".join(lines) + "\n"


def write_grid_csv(path, grid: np.ndarray, comments: list[str] = (),
                   integer: bool = False) -> None:
    Path(path).write_text(grid_csv_text(grid, comments, integer))


def read_grid_csv(path, integer: bool = False) -> tuple[np.ndarray, list[str]]:
    """Parse a grid CSV back into an array plus its comment lines.

    Cells are read as float() or int() reads them. Malformed content, a
    non-finite real cell included, raises ValueError naming the offending
    line number.
    """
    grid, comments, _ = _read_grid(Path(path), integer)
    return grid, comments


def _read_grid(path: Path, integer: bool):
    """read_grid_csv's grid and comments, plus each grid row's line number."""
    dtype = np.int64 if integer else float
    comments = []
    rows = []
    linenos = []
    expected_cols = None
    row_index = 0
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        cells = line.split(",")
        if expected_cols is None:  # header row
            if cells[0] != CORNER:
                raise ValueError(f"{path}:{lineno}: expected header starting "
                                 f"with {CORNER!r}, got {cells[0]!r}")
            expected_cols = len(cells) - 1
            if cells[1:] != [str(j) for j in range(expected_cols)]:
                raise ValueError(f"{path}:{lineno}: expected column labels "
                                 f"0..{expected_cols - 1}, got "
                                 f"{','.join(cells[1:])!r}")
            continue
        if len(cells) != expected_cols + 1:
            raise ValueError(f"{path}:{lineno}: expected {expected_cols + 1} "
                             f"cells, got {len(cells)}")
        if cells[0] != str(row_index):
            raise ValueError(f"{path}:{lineno}: expected row index "
                             f"{row_index}, got {cells[0]!r}")
        try:
            rows.append(np.array(cells[1:], dtype=dtype))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: bad cell value ({exc})") from None
        linenos.append(lineno)
        row_index += 1
    if expected_cols is None:
        raise ValueError(f"{path}:1: no header row found")
    if row_index != expected_cols:
        raise ValueError(f"{path}: expected {expected_cols} data rows, got {row_index}")
    grid = np.array(rows, dtype=dtype)
    if not np.isfinite(grid).all():
        i, j = np.argwhere(~np.isfinite(grid))[0]
        raise ValueError(f"{path}:{linenos[i]}: non-finite cell value "
                         f"{grid[i, j]} in column {j}")
    return grid, comments, linenos


def read_policy_csv(path) -> tuple[np.ndarray, list[str]]:
    """Grid CSV restricted to action codes {0, 1}."""
    grid, comments, linenos = _read_grid(Path(path), integer=True)
    bad = np.argwhere((grid != 0) & (grid != 1))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}:{linenos[i]}: policy cell ({i},{j}) is "
                         f"{grid[i, j]}, expected 0 (sense) or 1 (comm)")
    return grid.astype(np.int8), comments


def decision_map_text(policy: np.ndarray, comments: list[str] = ()) -> str:
    """Glyph map of a policy: 'S' for sense, 'C' for comm; rows alpha_s
    top-to-bottom, columns alpha_b left-to-right."""
    policy = np.asarray(policy)
    lines = [f"# {c}" for c in comments]
    lines.append("# rows: alpha_s = 0..%d (top to bottom); "
                 "cols: alpha_b = 0..%d (left to right)"
                 % (policy.shape[0] - 1, policy.shape[1] - 1))
    glyphs = GLYPHS[(policy != 0).astype(np.intp)]
    lines += [row.tobytes().decode("ascii") for row in glyphs]
    return "\n".join(lines) + "\n"


def value_pgm_text(grid: np.ndarray) -> str:
    """Plain (ASCII, P2) portable graymap of a value surface, linearly
    rescaled to 0..255 for external plotting."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = float(grid.min()), float(grid.max())
    if hi > lo:
        levels = np.rint((grid - lo) / (hi - lo) * 255).astype(int)
    else:
        levels = np.zeros(grid.shape, dtype=int)
    lines = ["P2", f"{grid.shape[1]} {grid.shape[0]}", "255"]
    row_fmt = " ".join(["%d"] * grid.shape[1])
    lines += [row_fmt % tuple(row) for row in levels.tolist()]
    return "\n".join(lines) + "\n"
