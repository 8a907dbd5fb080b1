"""Grid writers and readers against per-cell reference implementations.

The writers format a row at a time and the readers convert each line's
cells in one numpy call. The references below format and parse one cell at
a time with fmt_real, str(int(v)), float() and int(); the fast paths must
give the same bytes, accept and reject the same cells, and name the same
lines.
"""

import numpy as np
import pytest

from aoi_isac import gridio

SPECIAL = [-0.0, 5e-324, 0.1, 1e17, 1e300, -1e300, 1 / 3, 2.0**53 + 2, -7.0]


def csv_per_cell(grid, comments=(), integer=False):
    grid = np.asarray(grid)
    n = grid.shape[0]
    fmt = (lambda v: str(int(v))) if integer else gridio.fmt_real
    lines = [f"# {c}" for c in comments]
    lines.append(",".join([gridio.CORNER] + [str(j) for j in range(n)]))
    for i in range(n):
        lines.append(",".join([str(i)] + [fmt(v) for v in grid[i]]))
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
    return {
        "special": special,
        "special_negated": -special,
        "special_transposed": special.T.copy(),
        "random": rng.normal(scale=1e3, size=(9, 9)),
        "float32": rng.normal(size=(4, 4)).astype(np.float32),
        "int64_as_real": rng.integers(-2**62, 2**62, size=(5, 5)),
        "one_cell": np.array([[5e-324]]),
    }


def integer_grids():
    rng = np.random.default_rng(8)
    return {
        "float": rng.integers(0, 2, size=(7, 7)).astype(float),
        "float_negative_zero": np.array([[-0.0, 1.0], [0.0, -3.0]]),
        "int8": np.array([[0, 1, -128], [127, 1, 0], [0, 0, 1]], dtype=np.int8),
        "int64": np.array([[2**62, -2**63], [0, 1]], dtype=np.int64),
        "bool": rng.random((6, 6)) < 0.5,
    }


@pytest.mark.parametrize("name", list(real_grids()))
def test_real_csv_matches_per_cell_formatting(name):
    grid = real_grids()[name]
    comments = ["config = {}", "status = converged"]
    assert gridio.grid_csv_text(grid, comments) == csv_per_cell(grid, comments)


@pytest.mark.parametrize("name", list(integer_grids()))
def test_integer_csv_matches_per_cell_formatting(name):
    grid = integer_grids()[name]
    assert (gridio.grid_csv_text(grid, ["c"], integer=True)
            == csv_per_cell(grid, ["c"], integer=True))


def test_special_reals_round_trip_bit_for_bit(tmp_path):
    grid = real_grids()["special"]
    path = tmp_path / "v.csv"
    gridio.write_grid_csv(path, grid)
    back, _ = gridio.read_grid_csv(path)
    assert back.tobytes() == grid.tobytes()  # -0.0 and subnormals included


@pytest.mark.parametrize("grid", [
    *real_grids().values(),
    np.full((3, 5), 2.5),                       # constant: every level 0
    np.arange(12.0).reshape(3, 4),              # not square
    np.array([[0.0, 1e300], [-1e300, 5e-324]]),
])
def test_pgm_matches_per_cell_formatting(grid):
    assert gridio.value_pgm_text(grid) == pgm_per_cell(grid)


@pytest.mark.parametrize("policy", [
    *integer_grids().values(),
    np.array([[0, 1, 2, -1]], dtype=np.int64),  # every nonzero code is comm
    np.array([[0.0], [0.5], [1.0]]),
    np.zeros((3, 7), dtype=np.int8),
])
def test_decision_map_matches_per_cell_glyphs(policy):
    assert (gridio.decision_map_text(policy, ["c"])
            == map_per_cell(policy, ["c"]))


def csv_with_cell(cell, integer=False, row=1, n=3):
    """A valid n x n grid CSV whose cell (row, 1) reads `cell`."""
    text = gridio.grid_csv_text(np.ones((n, n)), ["comment"], integer=integer)
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
    text, lineno = csv_with_cell(cell, integer)
    path = tmp_path / "g.csv"
    path.write_text(text)
    want = reference_cell(cell, integer)
    if want is None:
        with pytest.raises(ValueError, match=f"g.csv:{lineno}: "):
            gridio.read_grid_csv(path, integer=integer)
    else:
        grid, comments = gridio.read_grid_csv(path, integer=integer)
        assert grid[1, 1] == want and grid.sum() == 8 + want
        assert grid.dtype == (np.int64 if integer else np.float64)
        assert comments == ["comment"]


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("row", [0, 2, 4])
def test_bad_cell_names_its_line_in_any_row(tmp_path, integer, row):
    text, lineno = csv_with_cell("oops", integer, row=row, n=5)
    path = tmp_path / "g.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"g.csv:{lineno}: bad cell value"):
        gridio.read_grid_csv(path, integer=integer)


def test_integer_cell_beyond_int64_names_its_line(tmp_path):
    text, lineno = csv_with_cell(str(2**63), integer=True, row=2)
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"p.csv:{lineno}: bad cell value"):
        gridio.read_grid_csv(path, integer=True)


def good_lines(n=3):
    return gridio.grid_csv_text(np.zeros((n, n)), ["a", "b"], integer=True).splitlines()


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
        gridio.read_grid_csv(write(tmp_path, lines), integer=True)


def test_reader_counts_rows_after_checking_them(tmp_path):
    lines = good_lines()
    with pytest.raises(ValueError, match="expected 3 data rows, got 2"):
        gridio.read_grid_csv(write(tmp_path, lines[:-1]))
    with pytest.raises(ValueError, match="expected 3 data rows, got 4"):
        gridio.read_grid_csv(write(tmp_path, lines + ["3,0,0,0"]))
    with pytest.raises(ValueError, match="g.csv:1: no header row found"):
        gridio.read_grid_csv(write(tmp_path, ["# only a comment"]))


def test_reader_skips_blank_and_comment_lines_between_rows(tmp_path):
    lines = good_lines()
    lines[4:4] = ["", "# between rows", "   "]
    grid, comments = gridio.read_grid_csv(write(tmp_path, lines), integer=True)
    assert grid.shape == (3, 3) and comments == ["a", "b", "between rows"]
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
        gridio.read_grid_csv(write(tmp_path, lines), integer=True)
