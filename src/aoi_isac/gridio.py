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

A policy grid, whose cells are all 0 or 1, goes as bytes both ways: the
writer fills an (n, 2n) uint8 array of commas and digits and decodes it a
row at a time, and the integer reader takes a line that is exactly its row
index and n cells of "0" or "1" between commas with np.frombuffer. Any
other integer grid or line goes through the '%d' format or int() as above,
so "+1", " 0" or "1_0" cells and every line-numbered error are unchanged.

JSON reports are json.dumps(obj, indent=2, sort_keys=True) byte for byte,
but that call always runs json's pure-Python encoder. write_json recurses
over dicts and mixed lists itself and hands each list or dict of scalars,
and each list of rows of scalars, to the C encoder in one call, with the
line break and indent as its item separator.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

CORNER = "alpha_s\\alpha_b"
# decision-map glyphs, indexed by "is comm": b"S" for sense, b"C" otherwise
GLYPHS = np.frombuffer(b"SC", dtype=np.uint8)
# Values json's C encoder writes as its pure-Python (indent) encoder does,
# decided by exact type: a subclass such as IntEnum or np.float64 takes the
# pure-Python encoder.
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})
_JSON_LISTS = frozenset({list, tuple})


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
    """Write json.dumps(obj, indent=2, sort_keys=True) plus a newline."""
    Path(path).write_text(_json_text(obj, "\n") + "\n")


def _json_text(obj, nl: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) for a value nested where
    each line break is followed by nl's indent."""
    kind = type(obj)
    if kind in _JSON_LISTS and obj:
        values = obj
    elif kind is dict and obj and set(map(type, obj)) == {str}:
        values = obj.values()
    elif kind in _JSON_SCALARS:
        return json.dumps(obj)
    else:  # empty, a subclass, or keys that are not str
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)
    inner = nl + "  "
    types = set(map(type, values))
    if types <= _JSON_SCALARS:
        # one C-encoder call; ensure_ascii escapes every newline in a
        # string, so each newline it writes is a separator
        text = json.dumps(obj, separators=("," + inner, ": "), sort_keys=True)
        return text[0] + inner + text[1:-1] + nl + text[-1]
    if kind is dict:
        items = [json.dumps(k) + ": " + _json_text(obj[k], inner)
                 for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if (types <= _JSON_LISTS and all(obj)
            and set(map(type, chain.from_iterable(obj))) <= _JSON_SCALARS):
        # rows of scalars in one call, at the rows' indent; then each row
        # boundary "],<cell>[" is moved out to the list's own indent
        cell = inner + "  "
        body = json.dumps(obj, separators=("," + cell, ": "))[2:-2]
        body = body.replace("]," + cell + "[", inner + "]," + inner + "[" + cell)
        return "[" + inner + "[" + cell + body + inner + "]" + nl + "]"
    items = [_json_text(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def grid_csv_text(grid: np.ndarray, comments: list[str] = (),
                  integer: bool = False) -> str:
    grid = np.asarray(grid)
    n = grid.shape[0]
    if grid.shape != (n, n):
        raise ValueError(f"grid must be square, got shape {grid.shape}")
    lines = [f"# {c}" for c in comments]
    lines.append(",".join([CORNER] + [str(j) for j in range(n)]))
    if integer and ((grid == 0) | (grid == 1)).all():
        # a 0/1 grid as bytes: each row's cells are "," and "0" or "1"
        body = np.full((n, 2 * n), ord(","), dtype=np.uint8)
        body[:, 1::2] = ord("0") + (grid != 0)
        lines += [str(i) + row.tobytes().decode("ascii")
                  for i, row in enumerate(body)]
    else:
        # one precomposed format per row; "%.17g" prints a float as fmt_real
        # does and "%d" an integer-valued cell as str(int(v)) does
        row_fmt = ",".join(["%d"] + ["%d" if integer else "%.17g"] * n)
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
    commas = None  # an integer grid's commas between its cells, once known
    row_index = 0
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        row = None if commas is None else _zero_one_row(line, row_index, commas)
        if row is None:
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
                if integer and expected_cols:
                    commas = "," * (expected_cols - 1)
                continue
            if len(cells) != expected_cols + 1:
                raise ValueError(f"{path}:{lineno}: expected {expected_cols + 1} "
                                 f"cells, got {len(cells)}")
            if cells[0] != str(row_index):
                raise ValueError(f"{path}:{lineno}: expected row index "
                                 f"{row_index}, got {cells[0]!r}")
            try:
                row = np.array(cells[1:], dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: bad cell value ({exc})") from None
        rows.append(row)
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


def _zero_one_row(line: str, row_index: int, commas: str) -> np.ndarray | None:
    """The cells of a data line that reads row_index and then 0/1 cells
    between the given commas, as uint8; None for any other line, which the
    caller reads cell by cell."""
    head, _, rest = line.partition(",")
    if (head == str(row_index) and len(rest) == 2 * len(commas) + 1
            and rest[1::2] == commas and not rest[::2].strip("01")):
        return np.frombuffer(rest[::2].encode("ascii"), np.uint8) - ord("0")
    return None


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
