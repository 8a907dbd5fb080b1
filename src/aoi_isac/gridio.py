"""Deterministic artifact formats: CSV grids, JSON reports, ASCII maps, PGM.

Grid CSV layout: rows alpha_s = 0..a_max ascending, columns alpha_b
ascending, an index header row and column, and '#'-prefixed comment lines
carrying the resolved run configuration so every artifact is
self-describing. Reals are printed with 17 significant digits, which
round-trips float64 losslessly; rerunning a writer with identical inputs
reproduces identical bytes.

One rule gives every grid's text: a CSV cell is fmt_real of the cell, and
a PGM level is the cell's place in the grid's range, 0..255. A bool or
integer grid whose cells are all 0 or 1 (a policy) is written as an
(n, 2n + 1) uint8 array of commas, the digits fmt_real writes and
newlines. Any other grid goes in blocks of whole rows of at most
_CELLS_PER_BLOCK cells, so its working memory is bounded whatever a_max
is, through an exact array kernel. For each cell it computes the 17
significant digits of "%.17g" as one integer, round_half_even(m 5^k
2^(e + k)) for x = m 2^e, from uint64 arithmetic (P mod 2^64) and a
float64 estimate of the high bits: the fixed-precision conversion of
Adams, "Ryu revisited: printf floating point conversion" (OOPSLA 2019), on
arrays. The digits, the dot and the sign go into a fixed-width byte array,
and one mask keeps the columns that "%.17g" writes. It covers 0, -0.0 and
magnitudes in [1e-4, 1e16), where "%.17g" uses fixed notation; a block
holding any other cell (1e16, 5e-324, nan, 2^62) is written by one
precomposed "%.17g" format over its values. The PGM writer looks each
level's text up in a byte table and drops the padding with one mask; a
grid that is not finite, or whose range overflows, raises ValueError.

The readers check each data line's length and index, then convert its
cells with one numpy call, which reads every cell as float() or int()
does; so an error names the first malformed line in file order. A row at
a time, not the whole grid in one call: that would hold every cell's
string at once, about 5 MB more at a_max=300.

The policy reader takes a line that is exactly its row index and n cells
of "0" or "1" between commas with np.frombuffer, and any other line as
above. The two readers share _read_grid and its integer flag: the text of
value.csv's real 1.0 and of policy.csv's action 1 is the same "1".

JSON reports are json.dumps(obj, indent=2, sort_keys=True) byte for byte,
but that call always runs json's pure-Python encoder. write_json recurses
over dicts and mixed lists itself and hands each list or dict of scalars,
and each list of rows of scalars, to the C encoder in one call, with the
line break and indent as its item separator.
"""

from __future__ import annotations

import json
import math
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

# Cells, the row index column included, in one block of the real-grid writer
# (whole rows, at least one); bounds the 17-digit kernel's working memory,
# about 150 bytes a cell, whatever a_max is.
_CELLS_PER_BLOCK = 1 << 14
# exact in their dtypes for every exponent k the kernel uses (0..21)
_POW5 = np.array([5 ** k for k in range(23)], dtype=np.uint64)
_POW10 = np.array([float(10 ** k) for k in range(23)])
_ONES64 = np.uint64(2 ** 64 - 1)
_E9, _E17 = np.uint64(10 ** 9), np.uint64(10 ** 17)
# A kernel cell's text is laid out in _WIDTH columns, then the columns it
# does not use are dropped: 0 the sign, 1-5 "0.000" (what precedes the
# digits when the exponent X < 0), 6-23 the 17 digits with the dot after
# digit X (or, for X < 0, the digits from column 7), 24 the separator.
_WIDTH = 25
_TEMPLATE = np.frombuffer(b"-0.000" + b"\0" * 18 + b",", dtype=np.uint8)
_DIGIT_INDEX = np.arange(17, dtype=np.uint8)[:, None]


def _fixed_masks() -> np.ndarray:
    """The columns that a cell with exponent X (-4..15) and last nonzero
    digit `last` (0..16) keeps, less the sign, at row (X + 4) * 17 + last."""
    col = np.arange(_WIDTH)
    X = np.arange(-4, 16)[:, None, None]
    last = np.arange(17)[None, :, None]
    # for X < 0 "0." and -X - 1 zeros, then the digits up to the last
    # nonzero one; otherwise the X + 1 integer digits, and the dot and the
    # fraction digits when a nonzero one follows them
    first = np.where(X < 0, 7, 6)
    end = np.where((X < 0) | (last > X), 7 + last, 6 + X)
    keep = (((first <= col) & (col <= end)) | (col == _WIDTH - 1)
            | ((X < 0) & (1 <= col) & (col <= 1 - X)))
    return keep.reshape(-1, _WIDTH)


_FIXED_MASKS = _fixed_masks()
# the P2 text of each gray level, right-aligned in three bytes padded with
# NUL, then a separator; one uint32 a level
_LEVEL_TEXT = np.frombuffer(b"".join(str(v).encode().rjust(3, b"\0") + b" "
                                     for v in range(256)), dtype=np.uint32)


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


def grid_csv_text(grid: np.ndarray, comments: list[str] = ()) -> str:
    grid = np.asarray(grid)
    n = grid.shape[0]
    if grid.shape != (n, n):
        raise ValueError(f"grid must be square, got shape {grid.shape}")
    if grid.dtype.kind in "biu" and ((grid == 0) | (grid == 1)).all():
        # a 0/1 grid as bytes: each row's cells are "," and "0" or "1"
        body = np.full((n, 2 * n + 1), ord(","), dtype=np.uint8)
        np.add(grid != 0, np.uint8(ord("0")), out=body[:, 1::2])
        body[:, -1] = ord("\n")
        rows = [str(i) + row.tobytes().decode("ascii") for i, row in enumerate(body)]
        del body  # before the join: the rows, the text and body are three copies
    else:
        rows = _real_blocks(grid)
    header = ",".join([CORNER] + [str(j) for j in range(n)]) + "\n"
    return "".join(chain((f"# {c}\n" for c in comments), [header], rows))


def _real_blocks(grid: np.ndarray):
    """The data lines of a real grid, as fmt_real writes its cells, in
    blocks of whole rows: each one float64 array whose column 0 is the row
    index, an integer whose "%.17g" text is its "%d" text. A block whose
    cells are all 0 or between 1e-4 and 1e16 in magnitude goes through the
    17-digit kernel, any other through one precomposed "%.17g" format.
    """
    n = grid.shape[0]
    row_fmt = ",".join(["%.17g"] * (n + 1)) + "\n"
    step = max(1, _CELLS_PER_BLOCK // (n + 1))
    for lo in range(0, n, step):
        x = np.empty((min(step, n - lo), n + 1))
        x[:, 0] = np.arange(lo, lo + len(x))
        x[:, 1:] = grid[lo:lo + len(x)]
        a = np.abs(x)
        if (((a >= 1e-4) & (a < 1e16)) | (a == 0)).all():
            yield _fixed17_text(x)
        else:
            yield (row_fmt * len(x)) % tuple(x.ravel().tolist())


def _fixed17_text(x: np.ndarray) -> str:
    """The cells of the rows of x, as "%.17g" writes them, each followed by
    "," or, at the end of its row, a newline. Every cell is 0 or has a
    magnitude in [1e-4, 1e16), where "%.17g" uses fixed notation."""
    cells = x.size
    a = np.abs(x.ravel())
    zero = np.flatnonzero(a == 0)
    a[zero] = 1.0
    N, X = _sig17(a)
    N[zero], X[zero] = 0, 0  # "0": digits all 0, kept up to the first
    # the digits, most significant first, one row per position; from two
    # halves below 10^9 (uint32 division by a scalar is the fast kind)
    digits = np.empty((17, cells), np.uint8)
    high = N // _E9
    for top, bottom, v in ((8, 16, (N - high * _E9).astype(np.uint32)),
                           (0, 7, high.astype(np.uint32))):
        for j in range(bottom, top, -1):
            q = v // 10
            np.subtract(v, q * 10, out=digits[j], casting="unsafe")
            v = q
        digits[top] = v
    last = np.max((digits != 0) * _DIGIT_INDEX, axis=0)
    digits += ord("0")
    text = np.empty((cells, _WIDTH), np.uint8)
    text[:] = _TEMPLATE
    column = text.T
    # every digit one column right, as the fraction digits stand; then the
    # integer digits move left over the dot's column and the dot follows
    column[7:24] = digits
    for c in range(min(int(X.max()) + 2, 17)):
        np.copyto(column[6 + c], digits[c], where=X >= c)
        np.copyto(column[6 + c], ord("."), where=X == c - 1)
    text.reshape(-1, x.shape[-1], _WIDTH)[:, -1, -1] = ord("\n")
    keep = _FIXED_MASKS.take((X + 4) * 17 + last, axis=0)
    # (np.signbit into the strided column skips cells in numpy 2.4)
    keep[:, 0] = np.signbit(x.ravel())
    return text[keep].tobytes().decode("ascii")


def _sig17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, X) for each a in [1e-4, 1e16): its 17 significant digits as an
    integer, 10^16 <= N < 10^17, rounded half to even as "%.16e" rounds
    them, and its decimal exponent, so a is about N 10^(X - 16)."""
    f, E = np.frexp(a)
    m = (f * 2.0 ** 53).astype(np.uint64)  # a = m 2^(E - 53)
    # floor(log10(2^(E - 1))) (exact for |E| < 1100): X or X - 1, as
    # 2^(E - 1) <= a < 2^E
    X = ((E - 1).astype(np.int64) * 78913) >> 18
    N = _round17(a, m, E, X)
    # one short, X leaves N at 10^17 or more; one step up then gives N in
    # [10^16, 10^17): no double in [1e-4, 1e16) is within 5e-17 (half a
    # 17th digit) below a power of ten, so no rounding carries N to 10^17
    redo = np.flatnonzero(N >= _E17)
    X[redo] += 1
    N[redo] = _round17(a[redo], m[redo], E[redo], X[redo])
    return N, X


def _round17(a, m, E, X) -> np.ndarray:
    """round_half_even(a 10^k) for k = 16 - X, exactly, as uint64.

    a 10^k = P / 2^s with P = m 5^k 2^t (t > 0 only where s would be
    negative). uint64 arithmetic gives P mod 2^64 exactly, and so the low
    64 - s bits of floor(P / 2^s) (s is at most 46 here). The float64
    product a 10^k is within a relative 2^-53 of it, which is below 10^18,
    so it is less than 2^7 off, and those bits fix floor(P / 2^s) exactly.
    The remainder P mod 2^s decides the rounding.
    """
    k = 16 - X
    s = 53 - E - k
    shift = np.maximum(s, 0)
    P = np.multiply(m, _POW5.take(k))
    P <<= (shift - s).view(np.uint64)
    shift = shift.view(np.uint64)
    estimate = np.multiply(a, _POW10.take(k)).astype(np.uint64)
    # floor = estimate + the offset, taken modulo 2^(64 - s) into
    # [-2^(63 - s), 2^(63 - s)), that brings its low bits to P's
    bits = _ONES64 >> shift
    half = (bits >> 1) + 1
    q = P >> shift
    q -= estimate
    q += half
    q &= bits
    q += estimate
    q -= half
    # up when the remainder r (over 2^s) passes one half, or meets it and
    # q is odd: r + (q & 1) > 2^(s - 1) (s = 0 has r = 0 and never rounds)
    below = ~(_ONES64 << shift)
    P &= below
    P += q & 1
    q += P > (below >> 1) + 1
    return q


def write_grid_csv(path, grid: np.ndarray, comments: list[str] = ()) -> None:
    Path(path).write_text(grid_csv_text(grid, comments))


def read_grid_csv(path) -> tuple[np.ndarray, list[str]]:
    """Parse a real grid CSV back into an array plus its comment lines.

    Cells are read as float() reads them. Malformed content, a non-finite
    cell included, raises ValueError naming the offending line number.
    """
    grid, comments, _ = _read_grid(Path(path), False)
    return grid, comments


def _read_grid(path: Path, integer: bool):
    """A grid CSV's grid, read as int() (integer) or float() reads its
    cells, and its comments, plus each grid row's line number."""
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
    # (a grid with no columns has no rows to take its shape from)
    grid = np.array(rows, dtype=dtype).reshape(row_index, expected_cols)
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
    rescaled to 0..255 for external plotting. A grid that is not finite, or
    whose range max - min overflows, raises ValueError."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = float(grid.min()), float(grid.max())
    if not math.isfinite(hi - lo):
        raise ValueError(f"value surface has no gray levels: min {lo!r}, "
                         f"max {hi!r}")
    if hi > lo:
        levels = np.rint((grid - lo) / (hi - lo) * 255).astype(int)
    else:
        levels = np.zeros(grid.shape, dtype=int)
    text = _LEVEL_TEXT.take(levels).view(np.uint8)
    text.reshape(*grid.shape, 4)[:, -1, -1] = ord("\n")
    return (f"P2\n{grid.shape[1]} {grid.shape[0]}\n255\n"
            + text[text != 0].tobytes().decode("ascii"))
