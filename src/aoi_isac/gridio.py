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
arrays. The digits and the dot go into a fixed-width byte array, and one
mask keeps the columns that "%.17g" writes. The kernel takes unsigned
cells only, +0.0 and [1e-4, 1e16), where "%.17g" writes no sign and uses
fixed notation (a value grid's costs are nonnegative); a block holding
any other cell (-0.0, -7, 1e16, 5e-324, nan, 2^62) is written by one
precomposed "%.17g" format over its values. The PGM writer looks each
level's text up in a byte table and drops the padding with one mask; a
grid that is not finite, or whose range overflows, raises ValueError.

The two readers share _read_grid and its integer flag (the text of
value.csv's real 1.0 and of policy.csv's action 1 is the same "1"), which
returns the grid in the dtype its caller keeps, float64 or an int8 grid
of 0 and 1, and has two paths. An array parser reads a file in the
writers' layout, with no strtod: its blocks of whole rows are numpy arrays
of the file's bytes, where one scan finds the separators and dots, each
cell's last 24 bytes are gathered as three little-endian words, and SWAR
multiply-shifts (Lemire, "Number parsing at a gigabyte per second",
SP&E 51(8), 2021) turn them into an integer significand N and a count f of
fraction digits. The estimate N / 10^f of a real cell is certified by the
writer's kernel: a double whose 17 digits are the cell's is the correctly
rounded value, since the 17th digit's unit is below the spacing of doubles
in [1e-4, 1e16); an estimate one ulp off (from rounding N above 2^53) is
stepped once toward the cell. Any other file goes whole to the line
reader: a line outside the layout (a signed cell among them, as the
kernel writes none), a real cell that is not 0 and not certified in that
range, an integer cell other than 0 and 1. The line reader checks each
data line's length and index, then converts its cells with one numpy
call, which reads every cell as float() or int() does, and checks a
policy's cells for 0 and 1 once the whole file is read; so what either
path accepts and every error are those of float() and int(), and an
error names the first malformed line in file order.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from pathlib import Path

import numpy as np

CORNER = "alpha_s\\alpha_b"
# decision-map glyphs, indexed by "is comm": b"S" for sense, b"C" otherwise
GLYPHS = np.frombuffer(b"SC", dtype=np.uint8)

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
# does not use are dropped: 0-4 "0.000" (what precedes the digits when the
# exponent X < 0), 5-22 the 17 digits with the dot after digit X (or, for
# X < 0, the digits from column 6), 23 the separator.
_WIDTH = 24
_TEMPLATE = np.frombuffer(b"0.000" + b"\0" * 18 + b",", dtype=np.uint8)
_DIGIT_INDEX = np.arange(17, dtype=np.uint8)[:, None]


def _fixed_masks() -> np.ndarray:
    """The columns that a cell with exponent X (-4..15) and last nonzero
    digit `last` (0..16) keeps, at row (X + 4) * 17 + last."""
    col = np.arange(_WIDTH)
    X = np.arange(-4, 16)[:, None, None]
    last = np.arange(17)[None, :, None]
    # for X < 0 "0." and -X - 1 zeros, then the digits up to the last
    # nonzero one; otherwise the X + 1 integer digits, and the dot and the
    # fraction digits when a nonzero one follows them
    first = np.where(X < 0, 6, 5)
    end = np.where((X < 0) | (last > X), 6 + last, 5 + X)
    keep = (((first <= col) & (col <= end)) | (col == _WIDTH - 1)
            | ((X < 0) & (col <= -X)))
    return keep.reshape(-1, _WIDTH)


_FIXED_MASKS = _fixed_masks()
# The array parser's tables. _LAYOUT: the bytes other than digits that a
# row may hold, "\n" (10), "," (44) and "." (46).
_LAYOUT = np.zeros(256, bool)
_LAYOUT[list(b"\n,.")] = True
# comment lines of printable ASCII, then the header and its labels
_HEAD = re.compile(rb"((?:#[ -~]*\n)*)" + re.escape(CORNER.encode())
                   + rb"((?:,[0-9]+)*)\n")
# SWAR: a word of 8 digit bytes, the first digit lowest, to its number by
# three multiply-shifts that join pairs, fours and then all eight
_SWAR = [(np.uint64(mask), np.uint64(mul), np.uint64(shift)) for mask, mul, shift
         in ((0x0F0F0F0F0F0F0F0F, 10 * 2 ** 8 + 1, 8),
             (0x00FF00FF00FF00FF, 100 * 2 ** 16 + 1, 16),
             (0x0000FFFF0000FFFF, 10000 * 2 ** 32 + 1, 32))]
_E8 = np.uint64(10 ** 8)
_P10U = np.array([10 ** k for k in range(18)], dtype=np.uint64)
# 10^(z + 1) and 9 10^z (mod 2^64) for a cell with z digits after its dot;
# from z = 19 (and z = 24, no dot) V < 10^18 divided by 2^64 - 1 leaves 0
_DIVISOR = np.array([10 ** (z + 1) if z < 19 else 2 ** 64 - 1 for z in range(25)],
                    dtype=np.uint64)
_NINE_POW = np.array([9 * 10 ** z % 2 ** 64 for z in range(25)], dtype=np.uint64)


def _keep_masks() -> np.ndarray:
    """Which of a cell's last 24 bytes to keep, as three words at row
    25 L + z: its last L bytes, less the dot z bytes before its end (z = 24:
    no dot)."""
    L = np.arange(25)[:, None, None]
    z = np.arange(25)[None, :, None]
    at = np.arange(24)
    keep = (at >= 24 - L) & (at != 23 - z)
    return (keep * np.uint8(255)).view("<u8").reshape(625, 3)


_KEEP = _keep_masks()
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
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
    cells are all +0.0 or in [1e-4, 1e16) goes through the 17-digit kernel,
    any other (a signed one among them) through one "%.17g" format.
    """
    n = grid.shape[0]
    row_fmt = ",".join(["%.17g"] * (n + 1)) + "\n"
    step = max(1, _CELLS_PER_BLOCK // (n + 1))
    for lo in range(0, n, step):
        x = np.empty((min(step, n - lo), n + 1))
        x[:, 0] = np.arange(lo, lo + len(x))
        x[:, 1:] = grid[lo:lo + len(x)]
        if not np.signbit(x).any() and ((x == 0) | (x >= 1e-4) & (x < 1e16)).all():
            yield _fixed17_text(x)
        else:
            yield (row_fmt * len(x)) % tuple(x.ravel().tolist())


def _fixed17_text(x: np.ndarray) -> str:
    """The cells of the rows of x, as "%.17g" writes them, each followed by
    "," or, at the end of its row, a newline. Every cell is +0.0 or in
    [1e-4, 1e16), where "%.17g" writes no sign and uses fixed notation;
    x's 0 cells are overwritten."""
    cells = x.size
    a = x.ravel()
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
    column[6:23] = digits
    for c in range(min(int(X.max()) + 2, 17)):
        np.copyto(column[5 + c], digits[c], where=X >= c)
        np.copyto(column[5 + c], ord("."), where=X == c - 1)
    text.reshape(-1, x.shape[-1], _WIDTH)[:, -1, -1] = ord("\n")
    keep = _FIXED_MASKS.take((X + 4) * 17 + last, axis=0)
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
    return _read_grid(path, False)


def read_policy_csv(path) -> tuple[np.ndarray, list[str]]:
    """Grid CSV restricted to action codes {0, 1}, as an int8 grid."""
    return _read_grid(path, True)


def _read_grid(path, integer: bool):
    """A grid CSV's grid, float64 as float() reads its cells or (integer)
    int8 cells that int() reads as 0 or 1, and its comments: from the array
    parser, or from the line reader below for a file it turns down. Errors
    name the file as a Path."""
    path = Path(path)
    parsed = _parse_grid(path, integer)
    if parsed is not None:
        return parsed
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
    # (a grid with no columns has no rows to take its shape from)
    grid = np.array(rows, dtype=dtype).reshape(row_index, expected_cols)
    if integer:
        bad = np.argwhere((grid != 0) & (grid != 1))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"{path}:{linenos[i]}: policy cell ({i},{j}) is "
                             f"{grid[i, j]}, expected 0 (sense) or 1 (comm)")
        return grid.astype(np.int8), comments
    if not np.isfinite(grid).all():
        i, j = np.argwhere(~np.isfinite(grid))[0]
        raise ValueError(f"{path}:{linenos[i]}: non-finite cell value "
                         f"{grid[i, j]} in column {j}")
    return grid, comments


def _parse_grid(path: Path, integer: bool):
    """_read_grid's result for a file in the writers' layout, from the array
    parser; None for any other file, or one that cannot be read.

    The layout: comment lines of printable ASCII, the header, then n rows
    "i,c,...,c" with n unsigned cells digits[.digits] (a sign sends the
    file to the line reader), each line ending in a newline. A real cell
    must be 0 or certified in [1e-4, 1e16), an integer cell 0 or 1, which
    goes straight into the int8 grid. Blocks hold a quarter of the writer's
    cells: the parser's working memory is about 250 bytes a cell, so a
    block's arrays stay below 128 KiB (glibc's mmap threshold) and the
    whole read below 2.5 files of value.csv and 3.5 of policy.csv.
    """
    try:
        data = path.read_bytes()
    except OSError:  # the line reader names the reason
        return None
    head = _HEAD.match(data)
    if head is None:
        return None
    labels, comments, lo = head.group(2), head.group(1), head.end()
    del head  # it holds the bytes
    n = labels.count(b",")
    # a cell's last 24 bytes must not start before the file, and each row
    # has at least 2 n + 2 bytes, so the grid takes at most 4 times the file
    # (an int8 grid half of it)
    if (lo < 24 or len(data) - lo < n * (2 * n + 2)
            or labels != b"".join(b",%d" % j for j in range(n))):
        return None
    grid = np.empty((n, n), np.int8 if integer else float)
    step = max(1, _CELLS_PER_BLOCK // 4 // (n + 1))
    for r0 in range(0, n, step):
        hi = lo
        for r in range(r0, min(r0 + step, n)):
            if not data.startswith(b"%d," % r, hi):
                return None
            hi = data.find(b"\n", hi) + 1
            if not hi:
                return None
        if not _parse_rows(data, lo, hi, grid[r0:r0 + step], integer):
            return None
        lo = hi
    if lo != len(data):
        return None
    return grid, [line[1:].strip() for line in comments.decode().splitlines()]


def _parse_rows(data: bytes, lo: int, hi: int, out, integer: bool) -> bool:
    """Parse data[lo:hi], whole data rows whose row indices are checked, into
    out; False if a row is outside the layout or a cell is not certified."""
    rows, n = out.shape
    cells = rows * (n + 1)
    b = np.frombuffer(data, np.uint8, hi - lo, lo)
    sp = np.flatnonzero((b - 48) > 9)  # the bytes that are not digits
    byte = b.take(sp)
    if not _LAYOUT.take(byte).all():
        return False
    at_sep = np.flatnonzero(byte <= 44)  # "\n" and ","
    if len(at_sep) != cells or (byte.take(at_sep[n::n + 1]) != 10).any():
        return False
    # each cell's start and end, but for the row index (checked already)
    at_sep = at_sep.reshape(rows, n + 1)
    s = sp.take(at_sep[:, :-1]).ravel() + 1
    at_sep = at_sep[:, 1:].ravel()
    e = sp.take(at_sep)
    cells -= rows
    # at most one "." in a cell, the last byte before its end that is not a
    # digit. z: the digits after the dot, 24 for a cell without one
    z = np.full(cells, 24)
    dots = np.count_nonzero(byte == 46)
    if dots:
        prev = at_sep - 1
        dotted = byte.take(prev) == 46
        if integer or np.count_nonzero(dotted) != dots:
            return False
        np.subtract(e, sp.take(prev) + 1, out=z, where=dotted)
    L = e - s  # the cell's bytes
    # (a cell needs a digit: "" and "." have none)
    if (L + np.minimum(z, 1)).min() < 2 or L.max() > 24:
        return False
    # V: each cell's last 24 bytes as three little-endian words, the bytes
    # before the cell and its dot masked to 0, and the digits of each word
    # combined by SWAR multiply-shift; cells of one digit (a policy's) are
    # their byte
    if L.max() == 1:
        V = b.take(e - 1) - np.uint8(48)
    else:
        W = np.ndarray((len(data) - 23,), "V24", data, 0, (1,))
        W = W[e + (lo - 24)].view(np.uint64).reshape(cells, 3)
        W &= _KEEP.take(L * 25 + z, axis=0)
        for mask, mul, shift in _SWAR:
            W &= mask
            W *= mul
            W >>= shift
        if W[:, 0].max() >= 100:
            return False  # V >= 10^18: more digits than a cell has
        V = (W[:, 0] * _E8 + W[:, 1]) * _E8 + W[:, 2]
    if integer:  # 0 and 1
        if V.max() > 1:
            return False
        np.copyto(out, V.reshape(out.shape), casting="unsafe")
        return True
    # with the dot read as a 0 digit V is I 10^(f+1) + F, and the cell's
    # significand N is I 10^f + F (z = 24: no dot, N = V)
    N = V - V // _DIVISOR.take(z) * _NINE_POW.take(z)
    f = np.where(z < 24, z, 0)
    digits = np.searchsorted(_P10U, N, "right")
    X = digits - 1 - f  # the cell's decimal exponent
    zero = N == 0
    if zero.any():
        X[zero] = 0
    if X.min() < -4 or X.max() > 15 or digits.max() > 17:
        return False
    values = N / _POW10.take(f, mode="clip")  # (a 0 cell may have f = 23)
    # certify: _round17 of the correctly rounded double is the cell's 17
    # significant digits; an estimate one ulp off steps toward the cell
    T = N * _P10U.take(17 - digits)
    q = _round17_of(values, X)
    miss = np.flatnonzero(q != T)
    if miss.size:
        toward = np.where(q[miss] < T[miss], 1, -1)
        near = (values[miss].view(np.int64) + toward).view(np.float64)
        if (_round17_of(near, X[miss]) != T[miss]).any():
            return False
        values[miss] = near
    out[:] = values.reshape(out.shape)
    return True


def _round17_of(a, X):
    """_round17 of positive doubles a at decimal exponents X."""
    f, E = np.frexp(a)
    return _round17(a, (f * 2.0 ** 53).astype(np.uint64), E, X)


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
    # a constant grid has range 0 and every level 0
    levels = np.rint((grid - lo) / ((hi - lo) or 1.0) * 255).astype(int)
    text = _LEVEL_TEXT.take(levels).view(np.uint8)
    text.reshape(*grid.shape, 4)[:, -1, -1] = ord("\n")
    return (f"P2\n{grid.shape[1]} {grid.shape[0]}\n255\n"
            + text[text != 0].tobytes().decode("ascii"))
