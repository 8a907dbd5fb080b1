"""Grid writers and readers against per-cell reference implementations.

The grid writer prints a 0/1 grid of bool or integer dtype as bytes and
any other grid's 17 digits with an array kernel in blocks of rows. The
readers take a file in the writers' layout through an array parser and
any other file through a line reader, which converts each line's cells in
one numpy call. The references below format and parse one cell at a time
with fmt_real, float() and int(); the fast paths must give the same bytes,
accept and reject the same cells, and name the same lines.
"""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from aoi_isac import cli, gridio, solver
from aoi_isac.model import ModelParams

SPECIAL = [-0.0, 5e-324, 0.1, 1e17, 1e300, -1e300, 1 / 3, 2.0**53 + 2, -7.0]


def csv_per_cell(grid, comments=()):
    grid = np.asarray(grid)
    n = grid.shape[0]
    lines = [f"# {c}" for c in comments]
    lines.append(",".join([gridio.CORNER] + [str(j) for j in range(n)]))
    for i in range(n):
        lines.append(",".join([str(i)] + [gridio.fmt_real(v) for v in grid[i]]))
    return "\n".join(lines) + "\n"


def pgm_per_cell(grid):
    grid = np.asarray(grid, dtype=float)
    lo, hi = float(grid.min()), float(grid.max())
    if hi > lo:
        levels = np.rint((grid - lo) / (hi - lo) * 255).astype(int)
    else:
        levels = np.zeros(grid.shape, dtype=int)
    lines = ["P2", f"{grid.shape[1]} {grid.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in levels]
    return "\n".join(lines) + "\n"


def map_per_cell(policy, comments=()):
    policy = np.asarray(policy)
    lines = [f"# {c}" for c in comments]
    lines.append("# rows: alpha_s = 0..%d (top to bottom); "
                 "cols: alpha_b = 0..%d (left to right)"
                 % (policy.shape[0] - 1, policy.shape[1] - 1))
    glyphs = np.where(policy == 0, "S", "C")
    lines += ["".join(row) for row in glyphs]
    return "\n".join(lines) + "\n"


def real_grids():
    rng = np.random.default_rng(7)
    special = np.array(SPECIAL * 4)[:36].reshape(6, 6)
    # one row below the kernel's 1e-4 among rows it takes (as a value grid
    # at gamma = 1e-6 and no costs has at alpha_s = 0): their block mixes
    # both formats
    mixed_block = rng.uniform(1.0, 1e3, size=(5, 5))
    mixed_block[2] = 1.000002e-06
    return {
        "special": special,
        "special_negated": -special,
        "special_transposed": special.T.copy(),
        "random": rng.normal(scale=1e3, size=(9, 9)),
        "float32": rng.normal(size=(4, 4)).astype(np.float32),
        "int64_as_real": rng.integers(-2**62, 2**62, size=(5, 5)),
        "one_cell": np.array([[5e-324]]),
        "mixed_block": mixed_block,
    }


def integer_grids():
    rng = np.random.default_rng(8)
    return {
        "float": rng.integers(0, 2, size=(7, 7)).astype(float),
        "float_negative_zero": np.array([[-0.0, 1.0], [0.0, -3.0]]),
        "int8": np.array([[0, 1, -128], [127, 1, 0], [0, 0, 1]], dtype=np.int8),
        "int64": np.array([[2**62, -2**63], [0, 1]], dtype=np.int64),
        "bool": rng.random((6, 6)) < 0.5,
        "uint8": np.array([[0, 1], [255, 7]], dtype=np.uint8),
        "uint64_max": np.array([[2**64 - 1, 1], [0, 2**53 + 1]], dtype=np.uint64),
        "int64_min": np.full((2, 2), -2**63, dtype=np.int64),
        "int8_min": np.full((3, 3), -128, dtype=np.int8),
    }


@pytest.mark.parametrize("name", list(real_grids()))
def test_real_csv_matches_per_cell_formatting(name):
    grid = real_grids()[name]
    comments = ["config = {}", "status = converged"]
    assert gridio.grid_csv_text(grid, comments) == csv_per_cell(grid, comments)


@pytest.mark.parametrize("name", list(integer_grids()))
def test_integer_csv_matches_per_cell_formatting(name):
    grid = integer_grids()[name]
    assert gridio.grid_csv_text(grid, ["c"]) == csv_per_cell(grid, ["c"])


def square(values, rng):
    """values in random order and with random signs, cycled to fill the
    smallest square grid that holds them all."""
    values = rng.permutation(np.asarray(values, dtype=float))
    n = int(np.ceil(np.sqrt(values.size)))
    cells = np.resize(values, n * n) * rng.choice([-1.0, 1.0], n * n)
    return cells.reshape(n, n)


def adversarial_grids():
    """Grids for the 17-digit kernel: its range's edges, exact ties, short
    decimals, and rows where cells outside its range send the row to the
    "%.17g" format."""
    rng = np.random.default_rng(20)
    decades = np.array([float(f"1e{k}") for k in range(-4, 17)])
    around = np.concatenate([np.nextafter(decades, 0), decades,
                             np.nextafter(decades, np.inf)])
    odd = rng.integers(2 ** 52, 2 ** 53, 400) | 1
    integers = np.concatenate([rng.integers(0, 2 ** 53, 400), [2 ** 53 - 1, 2 ** 53]])
    short = np.concatenate([np.round(rng.uniform(0, 1000, 100), d) for d in range(6)])
    # every double in [1e-4, 1e16) equally likely, by its bits
    bits = rng.integers(*np.array([1e-4, 1e16]).view(np.int64), 4000)
    mixed = square(10.0 ** rng.uniform(-4, 16, 400), rng)
    for row, cell in ((1, 1e16), (4, 9.9e-5), (7, 5e-324), (11, 1e300), (12, -1e16)):
        mixed[row, row % 5] = cell
    return {
        # every decade, both its neighbours, and 2x and 5x each
        "decades": square(np.concatenate([around, 2 * around, 5 * around]), rng),
        "decades_in_range": square(around[(around >= 1e-4) & (around < 1e16)], rng),
        "random_bits": square(bits.view(np.float64), rng),
        # m / 4 with m odd in [2^52, 2^53): the 17th digit is an exact tie
        "ties": square(np.concatenate([odd / 4, odd / 2, odd / 8]), rng),
        "integers": square(integers, rng),
        "short_decimals": square(short, rng),
        "zeros": square([0.0, -0.0, 1e-4, 0.5, 1e15], rng),
        # cells of at most 8 bytes, "-999.5" the longest: whole blocks of
        # them read through the parser's 24-byte window
        "short_cells": square(np.arange(2000) / 2, rng),
        "mixed_rows": mixed,
    }


@pytest.mark.parametrize("name", list(adversarial_grids()))
def test_adversarial_real_csv_matches_per_cell_formatting(tmp_path, name):
    """Each grid, with random signs, and its magnitudes, so the kernel and
    the array parser see the same values unsigned."""
    signed = adversarial_grids()[name]
    path = tmp_path / "v.csv"
    for grid in (signed, np.abs(signed)):
        assert gridio.grid_csv_text(grid, ["c"]) == csv_per_cell(grid, ["c"])
        # and reads back bit for bit: through the array parser when every
        # cell is +0.0 or in [1e-4, 1e16), else through the line reader
        gridio.write_grid_csv(path, grid, ["c"])
        back, _ = gridio.read_grid_csv(path)
        assert back.tobytes() == grid.tobytes()
        unsigned = ((grid == 0) | (grid >= 1e-4) & (grid < 1e16)) & ~np.signbit(grid)
        assert (gridio._parse_grid(path, False) is not None) == unsigned.all()


def test_array_parser_reads_a_million_cells_as_float_does(tmp_path):
    """About 10^6 cells written by "%.17g" and read back, against float() of
    each cell's text: doubles in [1e-4, 1e16) drawn by their bits, each
    decade with its neighbours, the exact 17th-digit ties and 0. Every grid
    takes the array parser."""
    rng = np.random.default_rng(26)
    decades = np.array([float(f"1e{k}") for k in range(-4, 17)])
    edges = np.concatenate([decades[:-1], np.nextafter(decades[:-1], np.inf),
                            np.nextafter(decades[1:], 0), [0.0]])
    ties = np.abs(adversarial_grids()["ties"].ravel())
    n = 300
    path = tmp_path / "v.csv"
    for k in range(11):
        bits = rng.integers(*np.array([1e-4, 1e16]).view(np.int64), n * n)
        cells = bits.view(np.float64)
        if k == 0:
            cells[:edges.size + ties.size] = np.concatenate([edges, ties])
        grid = rng.permutation(cells).reshape(n, n)
        gridio.write_grid_csv(path, grid, ["c"])
        assert gridio._parse_grid(path, False) is not None
        back, _ = gridio.read_grid_csv(path)
        want = [[float(c) for c in line.split(",")[1:]]
                for line in path.read_text().splitlines()[2:]]
        assert back.tobytes() == np.array(want).tobytes() == grid.tobytes()


@pytest.mark.parametrize("cell, parsed", [
    # certified: their 17 digits are those of float(cell)
    ("2.5", True), ("1.", True), (".5", True), ("0.000", True),
    ("000000000000000000012.5", True),
    # not: a signed cell is outside the layout, 0.1 is 0.10000000000000001,
    # 1e16 and up are outside the range, and a cell has at most 17
    # significant digits
    ("-0", False), ("-0.000", False),
    ("0.1", False), ("0.10000000000000000", False), ("10000000000000002", False),
    ("123456789012345678", False), ("1.23456789012345678", False),
    ("0.000123456789012345678", False),
])
def test_cells_that_no_write_produces_read_as_float_does(tmp_path, cell, parsed):
    grid = np.random.default_rng(27).uniform(1.0, 100.0, size=(30, 30))
    lines = gridio.grid_csv_text(grid, ["c"]).splitlines()
    cells = lines[3].split(",")  # row 1, after a comment and the header
    cells[5] = cell
    lines[3] = ",".join(cells)
    path = tmp_path / "v.csv"
    path.write_text("\n".join(lines) + "\n")
    grid[1, 4] = float(cell)
    assert gridio.read_grid_csv(path)[0].tobytes() == grid.tobytes()
    assert (gridio._parse_grid(path, False) is not None) == parsed


def test_grid_larger_than_a_block_round_trips_bit_for_bit(tmp_path):
    n = 150
    step = gridio._CELLS_PER_BLOCK // (n + 1)  # rows, with the index column
    assert 0 < step < n  # a block edge falls mid-grid
    grid = np.random.default_rng(21).normal(scale=100.0, size=(n, n))
    # "%.17g" rows on both sides of the block edge
    grid[step - 1, 3], grid[step, 5], grid[step + 1, 7] = 1e300, -0.0, 5e-324
    path = tmp_path / "v.csv"
    gridio.write_grid_csv(path, grid, ["c"])
    assert path.read_text() == csv_per_cell(grid, ["c"])
    back, comments = gridio.read_grid_csv(path)
    assert back.tobytes() == grid.tobytes() and comments == ["c"]


@pytest.fixture(scope="module")
def large_solve():
    params = ModelParams(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1,
                         gamma=0.95, a_max=300)
    V, policy, _ = solver.solve(params)
    return {"value.csv": V, "policy.csv": policy}


@pytest.mark.parametrize("name, bound", [("value.csv", 2.5), ("policy.csv", 3.5)])
def test_grid_readers_peak_below_a_bound_on_the_file(tmp_path, large_solve, name,
                                                      bound):
    """The array parser holds the file's bytes, the grid (8 bytes a cell; a
    policy's int8 grid is half its file) and one block's working memory."""
    path = tmp_path / name
    gridio.write_grid_csv(path, large_solve[name], ["c"])
    integer = name == "policy.csv"
    assert gridio._parse_grid(path, integer) is not None
    read = gridio.read_policy_csv if integer else gridio.read_grid_csv
    tracemalloc.start()
    try:
        read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * path.stat().st_size


@pytest.mark.parametrize("name", ["value.csv", "policy.csv"])
def test_grid_writer_peaks_below_two_and_a_half_texts(tmp_path, large_solve, name):
    """write_grid_csv of a solved a_max=300 grid holds the text's blocks
    and their join, then the text and its bytes: about two copies, and the
    kernel's or the digits' working memory on top."""
    path = tmp_path / name
    tracemalloc.start()
    try:
        gridio.write_grid_csv(path, large_solve[name], ["c"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * path.stat().st_size


@pytest.mark.parametrize("edge", [
    {}, {"a_max": 2}, {"a_max": 300}, {"gamma": 0.0},
    {"lambda_s": 1.0, "lambda_c": 0.0}, {"lambda_s": 0.0, "lambda_c": 1.0},
    {"c_s": 0.0, "c_c": 0.0},
], ids=lambda edge: ",".join(f"{k}={v}" for k, v in edge.items()) or "reference")
def test_solved_grids_take_the_unsigned_kernel_and_the_array_parser(
        tmp_path, monkeypatch, large_solve, edge):
    """A solved value grid is a discounted sum of nonnegative costs: no cell
    has a sign bit, every block of value.csv goes through the 17-digit
    kernel, and the array parser reads both files."""
    if edge == {"a_max": 300}:
        V, policy = large_solve["value.csv"], large_solve["policy.csv"]
    else:
        V, policy, _ = solver.solve(ModelParams(**{
            "lambda_s": 0.6, "lambda_c": 0.9, "c_s": 0.2, "c_c": 0.1,
            "gamma": 0.95, "a_max": 30, **edge}))
    assert not np.signbit(V).any()
    rows = []  # of each block the kernel writes
    monkeypatch.setattr(gridio, "_fixed17_text",
                        lambda x, kernel=gridio._fixed17_text:
                        rows.append(len(x)) or kernel(x))
    gridio.write_grid_csv(tmp_path / "value.csv", V, ["c"])
    gridio.write_grid_csv(tmp_path / "policy.csv", policy, ["c"])
    assert sum(rows) == len(V)
    assert gridio._parse_grid(tmp_path / "value.csv", False) is not None
    assert gridio._parse_grid(tmp_path / "policy.csv", True) is not None


def test_special_reals_round_trip_bit_for_bit(tmp_path):
    path = tmp_path / "v.csv"
    # -0.0 and subnormals included; one whose first cells end within 24
    # bytes of the file's start; and a grid of no columns, whose file is the
    # header alone
    for grid in (real_grids()["special"], np.array([[0.0, 1 / 3], [1 / 3, 2 / 3]]),
                 np.zeros((0, 0))):
        gridio.write_grid_csv(path, grid)
        back, _ = gridio.read_grid_csv(path)
        assert back.shape == grid.shape and back.tobytes() == grid.tobytes()
    assert gridio.read_policy_csv(path)[0].shape == (0, 0)


@pytest.mark.parametrize("grid", [
    *real_grids().values(),
    np.full((3, 5), 2.5),                       # constant: every level 0
    np.arange(12.0).reshape(3, 4),              # not square
    np.array([[0.0, 1e300], [-1e300, 5e-324]]),
])
def test_pgm_matches_per_cell_formatting(grid):
    assert gridio.value_pgm_text(grid) == pgm_per_cell(grid)


def test_grid_csv_text_turns_down_a_non_square_grid():
    with pytest.raises(ValueError, match=r"grid must be square, got shape \(3, 4\)"):
        gridio.grid_csv_text(np.zeros((3, 4)))


@pytest.mark.parametrize("integer", [False, True])
def test_grid_without_a_final_newline_reads_through_the_line_reader(tmp_path,
                                                                   integer):
    rng = np.random.default_rng(33)
    grid = (rng.integers(0, 2, size=(4, 4)) if integer
            else rng.uniform(-5.0, 5.0, size=(4, 4)))
    path = tmp_path / "g.csv"
    path.write_text(gridio.grid_csv_text(grid, ["c"]).rstrip("\n"))
    assert gridio._parse_grid(path, integer) is None
    read, comments = gridio._read_grid(path, integer)
    assert comments == ["c"]
    assert read.dtype == (np.int8 if integer else float)
    assert np.array_equal(read, grid)


def test_pgm_matches_per_cell_formatting_on_every_level():
    grid = np.random.default_rng(5).permutation(np.linspace(-3.0, 7.0, 400))
    text = gridio.value_pgm_text(grid.reshape(20, 20))
    assert text == pgm_per_cell(grid.reshape(20, 20))
    assert {int(v) for v in text.split()[4:]} == set(range(256))


def test_pgm_of_a_non_finite_grid_or_range_raises():
    for grid in ([[0.0, np.inf], [1.0, 2.0]], [[0.0, 1.0], [np.nan, 2.0]],
                 [[-np.inf, 0.0], [1.0, 2.0]], [[1.7e308, -1.7e308]]):
        with pytest.raises(ValueError, match="value surface has no gray levels"):
            gridio.value_pgm_text(np.array(grid))


@pytest.mark.parametrize("policy", [
    *integer_grids().values(),
    np.array([[0, 1, 2, -1]], dtype=np.int64),  # every nonzero code is comm
    np.array([[0.0], [0.5], [1.0]]),
    np.zeros((3, 7), dtype=np.int8),
])
def test_decision_map_matches_per_cell_glyphs(policy):
    assert (gridio.decision_map_text(policy, ["c"])
            == map_per_cell(policy, ["c"]))


def csv_with_cell(cell, row=1, n=3):
    """A valid n x n grid CSV whose cell (row, 1) reads `cell`."""
    text = gridio.grid_csv_text(np.ones((n, n)), ["comment"])
    lines = text.splitlines()
    header = 1  # one comment line, then the header
    cells = lines[header + 1 + row].split(",")
    cells[2] = cell
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n", header + 2 + row  # text, 1-based line


CELLS = ["1_0", "1__0", "_1", " 7 ", "\t7", "7\t", "nan", "-nan", "inf",
         "-Infinity", "1.0", "1.", "1e3", "-0", "+3", "0x10", "", " ", "1e",
         "١٢", "12345678901234567"]


def reference_cell(cell, integer):
    """What the per-cell reader made of a cell: its value, or None when it
    rejected the cell (a non-finite real included)."""
    try:
        v = int(cell) if integer else float(cell)
    except ValueError:
        return None
    return v if integer or np.isfinite(v) else None


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("cell", CELLS)
def test_reader_accepts_exactly_what_float_and_int_accept(tmp_path, cell, integer):
    """A real grid takes each finite cell float() reads; a policy grid,
    int8, each cell int() reads as 0 or 1, and any other int() reads is a
    policy cell error."""
    text, lineno = csv_with_cell(cell)
    path = tmp_path / "g.csv"
    path.write_text(text)
    want = reference_cell(cell, integer)
    if want is None:
        with pytest.raises(ValueError, match=f"g.csv:{lineno}: "):
            gridio._read_grid(path, integer)
    elif integer and want not in (0, 1):
        with pytest.raises(ValueError, match=f"g.csv:{lineno}: policy cell "
                                             rf"\(1,1\) is {want}, expected 0"):
            gridio._read_grid(path, integer)
    else:
        grid, comments = gridio._read_grid(path, integer)
        assert grid[1, 1] == want and grid.sum() == 8 + want
        assert grid.dtype == (np.int8 if integer else np.float64)
        assert comments == ["comment"]


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("row", [0, 2, 4])
def test_bad_cell_names_its_line_in_any_row(tmp_path, integer, row):
    text, lineno = csv_with_cell("oops", row=row, n=5)
    path = tmp_path / "g.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"g.csv:{lineno}: bad cell value"):
        gridio._read_grid(path, integer)


def test_integer_cell_beyond_int64_names_its_line(tmp_path):
    text, lineno = csv_with_cell(str(2**63), row=2)
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"p.csv:{lineno}: bad cell value"):
        gridio._read_grid(path, True)


def good_lines(n=3):
    return gridio.grid_csv_text(np.zeros((n, n)), ["a", "b"]).splitlines()


def write(tmp_path, lines):
    path = tmp_path / "g.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("edit, lineno, message", [
    (lambda ls: ls.__setitem__(4, "1,0,0"), 5, "expected 4 cells, got 3"),
    (lambda ls: ls.__setitem__(5, "2,0,0,0,0"), 6, "expected 4 cells, got 5"),
    (lambda ls: ls.__setitem__(4, "2,0,0,0"), 5, "expected row index 1, got '2'"),
    (lambda ls: ls.__setitem__(2, "a\\b,0,1,2"), 3, "expected header starting"),
    (lambda ls: ls.__setitem__(5, "2,0,2,0"), 6, r"policy cell \(2,1\) is 2"),
    (lambda ls: ls.__setitem__(3, "0,0,0,-1"), 4, r"policy cell \(0,2\) is -1"),
])
def test_policy_reader_names_the_faulty_line(tmp_path, edit, lineno, message):
    lines = good_lines()
    edit(lines)
    with pytest.raises(ValueError, match=f"g.csv:{lineno}: {message}"):
        gridio.read_policy_csv(write(tmp_path, lines))


def test_reader_reports_the_first_fault_in_file_order(tmp_path):
    lines = good_lines(4)
    lines[4] = "1,0,oops,0,0"   # bad cell on line 5
    lines[6] = "3,0,0"          # short row on line 7
    with pytest.raises(ValueError, match="g.csv:5: bad cell value"):
        gridio._read_grid(write(tmp_path, lines), True)


@pytest.mark.parametrize("row, cell, lineno", [(1, "2", 5), (2, "oops", 6)])
def test_policy_reader_names_the_file_one_way_for_every_fault(
        tmp_path, monkeypatch, row, cell, lineno):
    lines = good_lines()
    lines[lineno - 1] = f"{row},0,{cell},0"
    write(tmp_path, lines).rename(tmp_path / "p.csv")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as exc:
        gridio.read_policy_csv("./p.csv")
    assert str(exc.value).startswith(f"p.csv:{lineno}: ")


def test_reader_counts_rows_after_checking_them(tmp_path):
    lines = good_lines()
    with pytest.raises(ValueError, match="expected 3 data rows, got 2"):
        gridio.read_grid_csv(write(tmp_path, lines[:-1]))
    with pytest.raises(ValueError, match="expected 3 data rows, got 4"):
        gridio.read_grid_csv(write(tmp_path, lines + ["3,0,0,0"]))
    with pytest.raises(ValueError, match="g.csv:1: no header row found"):
        gridio.read_grid_csv(write(tmp_path, ["# only a comment"]))


def test_reader_turns_down_a_header_wider_than_its_rows(tmp_path):
    # a grid of 10^6 x 10^6 cells would need 8 TB; the file has no rows
    header = ",".join([gridio.CORNER] + [str(j) for j in range(10 ** 6)])
    with pytest.raises(ValueError, match="expected 1000000 data rows, got 0"):
        gridio.read_grid_csv(write(tmp_path, ["# c", header]))


def test_reader_skips_blank_and_comment_lines_between_rows(tmp_path):
    lines = good_lines()
    lines[4:4] = ["", "# between rows", "   "]
    grid, comments = gridio._read_grid(write(tmp_path, lines), True)
    assert grid.shape == (3, 3) and grid.dtype == np.int8
    assert comments == ["a", "b", "between rows"]
    lines[-1] = "2,0,nan,0"
    with pytest.raises(ValueError, match="g.csv:9: non-finite"):
        gridio.read_grid_csv(write(tmp_path, lines))


@pytest.mark.parametrize("header", [
    "alpha_s\\alpha_b,7,x,0",
    "alpha_s\\alpha_b,0,2,1",
    "alpha_s\\alpha_b,1,2,3",
    "alpha_s\\alpha_b,0,1,02",
    "alpha_s\\alpha_b,0, 1,2",
])
def test_reader_requires_column_labels_0_to_n_minus_1(tmp_path, header):
    lines = good_lines()
    lines[2] = header
    with pytest.raises(ValueError, match="g.csv:3: expected column labels 0..2"):
        gridio._read_grid(write(tmp_path, lines), True)


def zero_one_grids():
    comm = np.random.default_rng(9).random((6, 6)) < 0.5
    return {
        "int8": comm.astype(np.int8),
        "int64": comm.astype(np.int64),
        "bool": comm,
        "float_negative_zero": np.where(comm, 1.0, -0.0),
        "one_cell": np.ones((1, 1), dtype=np.int64),
        # near misses, written through the 17-digit kernel
        "float_half": np.where(comm, 1.0, 0.5),
        "int64_two": comm + 1,
    }


@pytest.mark.parametrize("name", list(zero_one_grids()))
def test_zero_one_csv_matches_per_cell_formatting(name):
    grid = zero_one_grids()[name]
    assert gridio.grid_csv_text(grid, ["c"]) == csv_per_cell(grid, ["c"])


def policy_per_cell(path):
    """read_policy_csv one cell at a time, with int(); raises ValueError whose
    text starts as read_policy_csv's does: the path, and the line if any."""
    rows, linenos, n = [], [], None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if n is None:  # the header, intact in every case below
            n = len(cells) - 1
            continue
        if len(cells) != n + 1 or cells[0] != str(len(rows)):
            raise ValueError(f"{path}:{lineno}: ")
        try:
            rows.append([int(c) for c in cells[1:]])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: ") from None
        linenos.append(lineno)
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} data rows, got {len(rows)}")
    for lineno, row in zip(linenos, rows):
        if any(v not in (0, 1) for v in row):
            raise ValueError(f"{path}:{lineno}: ")
    return np.array(rows, dtype=np.int8)


NEAR_MISSES = {
    **{f"cell {c!r}": (lambda c: lambda cells, j: cells.__setitem__(j, c))(c)
       for c in ["+1", " 1", "1_0", "01", "-0", "١", "2", ""]},
    "trailing comma": lambda cells, j: cells.append(""),
    "wrong row index": lambda cells, j: cells.__setitem__(0, str(int(cells[0]) + 1)),
}


@pytest.mark.parametrize("name", [*NEAR_MISSES, "row past the last"])
def test_policy_reader_matches_per_cell_reader_on_near_misses(tmp_path, name):
    """The 0/1 byte path takes only lines the per-cell reader reads the same;
    every other line falls through to it, so grid or error are the same."""
    n = 5
    policy = np.random.default_rng(3).integers(0, 2, size=(n, n))
    lines = gridio.grid_csv_text(policy, ["c"]).splitlines()
    first = 2  # one comment line and the header come first
    cases = []
    if name == "row past the last":
        cases.append(lines + [",".join([str(n)] + ["0"] * n)])
    else:
        for row in (0, 2, n - 1):
            for j in (1, 3, n):
                edited = list(lines)
                cells = edited[first + row].split(",")
                NEAR_MISSES[name](cells, j)
                edited[first + row] = ",".join(cells)
                cases.append(edited)
    for edited in cases:
        path = write(tmp_path, edited)
        try:
            want = policy_per_cell(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                gridio.read_policy_csv(path)
            assert str(got.value).startswith(str(exc))
        else:
            grid, comments = gridio.read_policy_csv(path)
            assert grid.dtype == np.int8 and np.array_equal(grid, want)
            assert comments == ["c"]
    # and the unedited grid
    grid, _ = gridio.read_policy_csv(write(tmp_path, lines))
    assert np.array_equal(grid, policy)


def value_per_cell(path):
    """policy_per_cell's twin for a value grid: read_grid_csv one cell at a
    time, with float()."""
    rows, linenos, n = [], [], None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if n is None:  # the header, intact where this reference is used
            n = len(cells) - 1
            continue
        if len(cells) != n + 1 or cells[0] != str(len(rows)):
            raise ValueError(f"{path}:{lineno}: ")
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: ") from None
        linenos.append(lineno)
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} data rows, got {len(rows)}")
    for lineno, row in zip(linenos, rows):
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: ")
    return np.array(rows, dtype=float)


# bytes inserted by the fuzz below: layout bytes, bytes outside it, and
# whole non-ASCII characters (an Arabic-Indic digit, which float() and
# int() read, a no-break space, which strip() drops, and a line separator,
# which splitlines() splits at)
FUZZ_BYTES = [b"0", b"1", b"7", b"-", b".", b",", b"\n", b" ", b"\t", b"\r",
              b"+", b"_", b"e", b"#", b"\x1c", b"\x0b", "\u0661".encode(),
              "\u00a0".encode(), "\u2028".encode()]


def fuzzed(text: bytes, rnd: random.Random):
    """(a variant of text, the offset of its first change): single-byte
    inserts, deletes, replacements and swaps at random offsets, then
    whole-file edits and cells that each break one rule of the layout."""
    for _ in range(800):
        at = rnd.randrange(len(text) - 1)
        edit = rnd.randrange(4)
        if edit == 0:
            yield text[:at] + rnd.choice(FUZZ_BYTES) + text[at:], at
        elif edit == 1:
            yield text[:at] + text[at + 1:], at
        elif edit == 2:
            yield text[:at] + rnd.choice(FUZZ_BYTES) + text[at + 1:], at
        else:
            yield text[:at] + text[at + 1:at + 2] + text[at:at + 1] + text[at + 2:], at
    first = text.index(b"\n0,") + 1
    second = text.index(b"\n", first) + 1
    yield text.replace(b"\n", b"\r\n"), 0
    yield text[:second] + b"\n   \n" + text[second:], second
    yield text[:second] + b"# between rows\n" + text[second:], second
    yield text[:second] + b"\x1c" + text[second:], second
    # row 0's last comma and its newline trade places
    last = text.rindex(b",", first, second)
    yield (text[:last] + b"\n" + text[last + 1:second - 1] + b","
           + text[second:]), last
    for cell in (b"1_0", b"+1", b"1e3", b"nan", b"-0", b"01", b"0.000", b".",
                 b"-.", b"", b"-", b"0.5.5", b"0-5", b"--1", b"1.-1",
                 b"0.00000000000000000001", b"12345678901234567",
                 b"18446744073709551617", b"18446744073709551621"):
        at = text.index(b",", second) + 1
        end = text.index(b",", at)
        yield text[:at] + cell + text[end:], at


def outcome(read, path):
    try:
        grid, comments = read(path)
    except ValueError as exc:
        return str(exc)
    return grid.dtype, grid.tobytes(), comments


@pytest.mark.parametrize("integer", [False, True])
def test_array_parser_and_line_reader_agree_on_fuzzed_grids(tmp_path, monkeypatch,
                                                            integer):
    """Any text the array parser turns down goes whole to the line reader:
    on every variant each reader returns what the line reader alone
    returns, the same bits or the same error, and what the per-cell
    reference returns where the header is intact."""
    rnd = random.Random(2026 + integer)
    rng = np.random.default_rng(28)
    if integer:
        grid = rng.integers(0, 2, size=(5, 5))
    else:
        # unsigned, as the array parser takes it; the fuzz inserts signs
        grid = rng.uniform(0.0, 50.0, size=(5, 5))
        grid[1, 2], grid[4, 0] = 0.0, 0.5
    grid[0, -1] = 1  # row 0 ends in "1", so a newline before it starts row 1
    read = gridio.read_policy_csv if integer else gridio.read_grid_csv
    per_cell = policy_per_cell if integer else value_per_cell
    text = gridio.grid_csv_text(grid, ["config = {}", "status = converged"]).encode()
    header_end = text.index(b"\n0,") + 1
    path = tmp_path / "g.csv"
    path.write_bytes(text)
    assert gridio._parse_grid(path, integer) is not None
    parsed = 0
    for variant, at in fuzzed(text, rnd):
        path.write_bytes(variant)
        parsed += gridio._parse_grid(path, integer) is not None
        got = outcome(read, path)
        with monkeypatch.context() as m:
            m.setattr(gridio, "_parse_grid", lambda path, integer: None)
            assert outcome(read, path) == got, variant
        if at < header_end:
            continue
        try:
            want = per_cell(path)
        except ValueError as exc:
            assert isinstance(got, str) and got.startswith(str(exc)), variant
        else:
            assert got[1] == want.astype(got[0]).tobytes(), variant
    assert parsed > 0  # and the parser took some variants itself


def test_reports_are_json_dumps_indent_2_byte_for_byte(tmp_path, monkeypatch):
    written = {}
    write_json = gridio.write_json

    def recording(path, obj):
        write_json(path, obj)
        written[path.name] = path, obj

    monkeypatch.setattr(gridio, "write_json", recording)
    flags = ["--model.a_max", "8", "--sim.n", "50", "--sim.horizon", "40",
             "--output.directory", str(tmp_path)]
    for argv in (["solve"], ["verify"], ["simulate"],
                 ["sweep", "--axis", "c_c", "--values", "0.1,0.2"]):
        cli.main([*argv, *flags])
    assert sorted(written) == ["simulate_report.json", "solve_report.json",
                               "sweep_report.json", "verify_report.json"]
    for path, obj in written.values():
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode()
