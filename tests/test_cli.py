import numpy as np
import pytest

from sigma_forge import cli, solver, symmetry
from sigma_forge.cli import format_grid, main, parse_grid
from sigma_forge.game import GridShape, adjacency_matrix, parse_game
from sigma_forge.gf2 import BitVector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------
# grid formatting
# ---------------------------------------------------------------------

def test_format_1d():
    assert format_grid(BitVector.from_bits([1, 0, 1]), GridShape((3,))) == "1 0 1"


def test_format_2d_axis1_rows():
    v = BitVector.from_bits([1, 0, 0, 0, 1, 0])
    assert format_grid(v, GridShape((2, 3))) == "1 0 0\n0 1 0"


def test_format_3d_slices():
    v = BitVector.from_bits([1, 0, 0, 0, 0, 0, 0, 1])
    assert format_grid(v, GridShape((2, 2, 2))) == "1 0\n0 0\n\n0 0\n0 1"


def test_parse_grid_round_trip():
    shape = GridShape((3, 4))
    v = BitVector.from_int(12, 0b101101001011)
    assert parse_grid(format_grid(v, shape), shape) == v


def test_parse_grid_contiguous_digits():
    assert parse_grid("10\n01", GridShape((2, 2))) == BitVector.from_bits([1, 0, 0, 1])


def test_parse_grid_rejects_bad_data():
    with pytest.raises(ValueError):
        parse_grid("1 0 1", GridShape((2, 2)))
    with pytest.raises(ValueError):
        parse_grid("1 0 2 0", GridShape((2, 2)))


# the per-cell writer and reader that format_grid and parse_grid replace;
# the byte-array versions must agree with them on every input

def reference_format(v, shape):
    def fmt(block):
        if block.ndim == 1:
            return " ".join(str(int(b)) for b in block)
        if block.ndim == 2:
            return "\n".join(" ".join(str(int(b)) for b in row) for row in block)
        return "\n\n".join(fmt(sub) for sub in block)

    return fmt(v.to_array().reshape(shape.dims))


def reference_parse(text, shape):
    digits = "".join(text.split())
    if len(digits) != shape.total or any(c not in "01" for c in digits):
        raise ValueError(f"grid data does not match shape {shape} "
                         f"(need {shape.total} 0/1 entries)")
    return BitVector.from_bits(int(c) for c in digits)


GRID_SHAPES = [(1,), (7,), (1, 1), (1, 5), (5, 1), (3, 4), (1, 1, 1), (2, 1, 3),
               (4, 1, 5), (1, 3, 1), (3, 1, 1), (2, 3, 4), (1, 1, 1, 1), (2, 1, 2, 3),
               (3, 2, 1, 2), (1, 2, 3, 1), (49, 49)]


@pytest.mark.parametrize("dims", GRID_SHAPES, ids=lambda dims: "x".join(map(str, dims)))
def test_grid_writer_and_reader_match_the_per_cell_reference(dims):
    shape = GridShape(dims)
    rng = np.random.default_rng(shape.total)
    vectors = [BitVector.zeros(shape.total), BitVector.ones(shape.total)]
    vectors += [BitVector.from_bits(rng.integers(0, 2, shape.total)) for _ in range(3)]
    for v in vectors:
        text = format_grid(v, shape)
        assert text == reference_format(v, shape)
        assert parse_grid(text, shape) == reference_parse(text, shape) == v


@pytest.mark.parametrize("text", [
    "1 0 1", "1 0 1 0 1", "", "1 0 2 0", "1 0 a 0", "1 0 \u0660 0", "1 0 \uff11 0",
    "1 0 0 0 \u0660", "1010\x00", "1 0 -1 0", "1 0 1 0.",
], ids=["short", "long", "empty", "two", "letter", "arabic-indic-zero",
        "fullwidth-one", "extra-non-ascii", "nul", "minus", "dot"])
def test_parse_grid_refuses_what_the_reference_refuses(text):
    shape = GridShape((2, 2))
    with pytest.raises(ValueError) as want:
        reference_parse(text, shape)
    with pytest.raises(ValueError) as got:
        parse_grid(text, shape)
    assert str(got.value) == str(want.value) == \
        "grid data does not match shape 2x2 (need 4 0/1 entries)"


@pytest.mark.parametrize("text", [
    "1\t0\n0\t1\n", "1 0\r\n0 1\r\n", "10\n01", "1001", "\n 1\t\t0 \r\n\n01 \n\n",
    "1\u00a00\u20030\x0b1\x0c",
], ids=["tabs", "crlf", "runs", "one-run", "mixed", "unicode-space"])
def test_parse_grid_accepts_what_the_reference_accepts(text):
    shape = GridShape((2, 2))
    assert parse_grid(text, shape) == reference_parse(text, shape) == \
        BitVector.from_bits([1, 0, 0, 1])


# ---------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------

def test_solve_achievable(capsys):
    code, out, _ = run(capsys, "solve", "--shape", "3x5",
                       "--game", "sigma-:boxtimes", "--target", "all-on")
    assert code == 0
    shape = GridShape((3, 5))
    witness = parse_grid(out, shape)
    g = parse_game("sigma-:boxtimes", shape)
    assert adjacency_matrix(g).mul_vec(witness) == BitVector.ones(15)


def test_solve_unachievable_prints_certificate(capsys):
    code, out, _ = run(capsys, "solve", "--shape", "3x3",
                       "--game", "sigma-:boxtimes", "--target", "all-on")
    assert code == 1
    assert out.startswith("UNACHIEVABLE")
    cert_text = out.split(":\n", 1)[1]
    cert = parse_grid(cert_text, GridShape((3, 3)))
    g = parse_game("sigma-:boxtimes", GridShape((3, 3)))
    assert adjacency_matrix(g).mul_vec(cert).is_zero()
    assert cert.dot(BitVector.ones(9)) == 1


def test_solve_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", "--shape", "4x4",
                       "--game", "sigma+:box", "--target", "all-on")
    assert code == 0
    wfile = tmp_path / "witness.txt"
    wfile.write_text(out)
    code, out2, _ = run(capsys, "solve", "--shape", "4x4", "--game", "sigma+:box",
                        "--target", "all-on", "--verify", str(wfile))
    assert code == 0
    assert out2.strip() == "VERIFIED"


def test_solve_verify_detects_mismatch(capsys, tmp_path):
    wfile = tmp_path / "witness.txt"
    wfile.write_text("0 " * 16)
    code, out, _ = run(capsys, "solve", "--shape", "4x4", "--game", "sigma+:box",
                       "--target", "all-on", "--verify", str(wfile))
    assert code == 1
    assert out.startswith("MISMATCH")


def test_solve_central_target(capsys):
    code, out, _ = run(capsys, "solve", "--shape", "3x3",
                       "--game", "sigma+:box", "--target", "central")
    assert code == 0
    shape = GridShape((3, 3))
    witness = parse_grid(out, shape)
    g = parse_game("sigma+:box", shape)
    from sigma_forge.symmetry import central_configuration
    assert adjacency_matrix(g).mul_vec(witness) == central_configuration(shape)


def test_solve_file_target(capsys, tmp_path):
    tfile = tmp_path / "target.txt"
    tfile.write_text("0 1 0\n1 0 1\n0 1 0\n")
    code, out, _ = run(capsys, "solve", "--shape", "3x3",
                       "--game", "sigma+:boxtimes", "--target", f"file:{tfile}")
    assert code == 0
    witness = parse_grid(out, GridShape((3, 3)))
    g = parse_game("sigma+:boxtimes", GridShape((3, 3)))
    assert adjacency_matrix(g).mul_vec(witness) == \
        BitVector.from_bits([0, 1, 0, 1, 0, 1, 0, 1, 0])


MAIN_CALLS = [
    ["solve", "--shape", "4x4", "--game", "sigma+:box"],
    ["solve", "--shape", "3x3", "--game", "sigma-:boxtimes"],
    ["check-symmetric", "--shape", "3x3", "--game", "sigma-:box"],
    ["solve", "--shape", "3x", "--game", "sigma-:box"],
    ["solve", "--game", "sigma-:box"],
    ["solve", "--shape", "3x3", "--game", "sigma-:box", "--bogus"],
    ["sweep", "--game", "sigma+:box", "--max-n", "x"],
    ["nonsense"],
    [],
    ["solve", "--help"],
    ["cheb", "--n", "5"],
    ["predicate", "--shape", "3x3", "--game", "sigma-:boxtimes"],
]


def test_main_reuses_one_parser(monkeypatch, capsys):
    # each call alone, on a parser of its own
    first = []
    for argv in MAIN_CALLS:
        cli._parser.cache_clear()
        first.append(run(capsys, *argv))
    assert {code for code, _, _ in first} == {0, 1, 2}
    built = []

    def counted(real=cli.build_parser):
        built.append(1)
        return real()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    order = list(range(len(MAIN_CALLS)))
    for i in order + order[::-1] + order[::2] + order[1::2]:
        assert run(capsys, *MAIN_CALLS[i]) == first[i]
    assert len(built) == 1


def test_byte_identical_runs(capsys):
    first = run(capsys, "solve", "--shape", "5x5", "--game", "sigma-:box")
    second = run(capsys, "solve", "--shape", "5x5", "--game", "sigma-:box")
    assert first == second


# ---------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------

def test_check_symmetric(capsys):
    code, out, _ = run(capsys, "check-symmetric", "--shape", "4x6",
                       "--game", "sigma-:boxtimes")
    assert code == 0 and out.startswith("ACHIEVABLE")
    code, out, _ = run(capsys, "check-symmetric", "--shape", "3x3",
                       "--game", "sigma-:box")
    assert code == 1 and out.startswith("UNACHIEVABLE")


def test_predicate_output(capsys):
    code, out, _ = run(capsys, "predicate", "--shape", "3x3",
                       "--game", "sigma-:boxtimes")
    assert code == 0
    assert out == "closed_form: 0\nground_truth: 0\nagree: 1\n"


def test_predicate_custom_label(capsys):
    code, out, _ = run(capsys, "predicate", "--shape", "3x4",
                       "--game", "custom:1,1")
    assert "(hypothesis unverified)" in out
    assert code in (0, 1)


def test_predicate_on_a_huge_exponent_finishes(capsys):
    code, out, _ = run(capsys, "predicate", "--shape", "5x5",
                       "--game", "custom:10000000,0;1,1")
    assert code in (0, 1)
    assert out.startswith("closed_form: ")


def test_cheb_command(capsys):
    code, out, _ = run(capsys, "cheb", "--n", "3")
    assert code == 0 and out.strip() == "X^3"
    code, out, _ = run(capsys, "cheb", "--n", "5")
    assert out.strip() == "X^5+X"
    code, out, _ = run(capsys, "cheb", "--n", "0")
    assert out.strip() == "1"


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--shape", "2x3",
                       "--game", "sigma-:box", "--target", "all-on")
    assert code == 0
    assert "agree: 1" in out


def test_oracle_command_cap_env(capsys, monkeypatch):
    monkeypatch.setenv(solver.ORACLE_CAP_ENV, "2")
    code, _, err = run(capsys, "oracle", "--shape", "2x3",
                       "--game", "sigma-:box", "--target", "all-on")
    assert code == 2
    assert "too large" in err


def test_oracle_command_cap_env_is_bounded(capsys, monkeypatch):
    def no_loop(g):
        raise AssertionError("the Gray-code loop started")
    monkeypatch.setattr(solver, "_push_columns", no_loop)
    monkeypatch.setenv(solver.ORACLE_CAP_ENV, "40")
    code, out, err = run(capsys, "oracle", "--shape", "5x5",
                         "--game", "sigma-:box", "--target", "all-on")
    assert code == 2
    assert solver.ORACLE_CAP_ENV in err
    assert out == ""


def test_the_oracle_cap_is_checked_before_the_target(capsys, monkeypatch):
    # the central target of 8000x1 alone peaks at about 150 MB
    def no_target(shape):
        raise AssertionError("target built before the oracle cap check")
    monkeypatch.setattr(symmetry, "central_configuration", no_target)
    code, out, err = run(capsys, "oracle", "--shape", "8000x1",
                         "--game", "sigma+:box", "--target", "central")
    assert code == 2 and out == ""
    assert err == "error: shape 8000x1 too large for brute force (total 8000 > cap 20)\n"


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--game", "sigma-:boxtimes",
                       "--dims", "2", "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "shape,game,closed_form,ground_truth,agree"
    assert len(lines) == 17
    assert all(line.endswith(",1") for line in lines[1:])


def test_sweep_text(capsys):
    code, out, _ = run(capsys, "sweep", "--game", "sigma+:box",
                       "--dims", "1", "--max-n", "5")
    assert code == 0
    assert len(out.splitlines()) == 5
    assert "agree=1" in out.splitlines()[0]


# ---------------------------------------------------------------------
# usage errors exit 2
# ---------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["solve", "--shape", "3x", "--game", "sigma-:box"],
    ["solve", "--shape", "3x3", "--game", "sigma?:box"],
    ["solve", "--shape", "3x3", "--game", "sigma-:box", "--target", "bogus"],
    ["solve", "--shape", "3x3", "--game", "sigma-:box", "--target", "file:/nonexistent"],
    ["solve", "--game", "sigma-:box"],
    ["predicate", "--shape", "3x3x3", "--game", "sigma-:box"],
    ["nonsense"],
    [],
    # boards above 32,768 cells are refused before a dense build
    ["solve", "--shape", "200x200", "--game", "sigma-:box"],
    ["check-symmetric", "--shape", "200x200", "--game", "sigma+:box"],
    ["sweep", "--game", "sigma+:box", "--dims", "40", "--max-n", "13"],
    # sweep arguments below 1
    ["sweep", "--game", "sigma-:box", "--dims", "-1", "--max-n", "3"],
    ["sweep", "--game", "sigma-:box", "--dims", "0", "--max-n", "3"],
    ["sweep", "--game", "sigma-:box", "--max-n", "0"],
    ["sweep", "--game", "sigma-:box", "--max-n", "-3"],
    ["sweep", "--game", "sigma-:box", "--max-n", "3", "--jobs", "0"],
    ["sweep", "--game", "sigma-:box", "--max-n", "3", "--jobs", "-2"],
])
def test_usage_errors(capsys, argv):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["solve", "--shape", "40000x1", "--game", "sigma+:box", "--target", "central"],
    ["solve", "--shape", "100000x100000", "--game", "sigma+:box", "--target", "all-on"],
    ["oracle", "--shape", "40000x1", "--game", "sigma+:box", "--target", "central"],
    ["oracle", "--shape", "100000x100000", "--game", "sigma+:box", "--target", "all-on"],
])
def test_a_board_over_the_dense_limit_is_refused_before_its_target(monkeypatch, capsys, argv):
    # the central target of 40000x1 alone would need gigabytes
    def no_target(shape):
        raise AssertionError("target built before the size check")

    monkeypatch.setattr(symmetry, "central_configuration", no_target)
    monkeypatch.setattr(solver, "all_on", no_target)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: a dense ") and "1,073,741,824" in err
