import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadrikit.cli import _json, main

DATA = Path(__file__).resolve().parent.parent / "data"
UNIVERSAL = str(DATA / "universal.qf")
CORANK2 = str(DATA / "corank2.qf")


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "quadrikit.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_degeneration_k2_prints_coordinate_ideal(capsys):
    code = main(["degeneration", UNIVERSAL, "--k", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(a, b, c)"


def test_degeneration_k1_prints_discriminant(capsys):
    code = main(["degeneration", UNIVERSAL, "--k", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(b^2 - 4*a*c)"


def test_degeneration_k0_exit_3(capsys):
    assert main(["degeneration", UNIVERSAL, "--k", "0"]) == 3


def test_missing_file_exit_2(tmp_path):
    assert main(["degeneration", "no_such_file.qf", "--k", "1"]) == 2
    assert main(["degeneration", str(tmp_path), "--k", "1"]) == 2  # a directory


def test_malformed_qf_exit_2(tmp_path):
    bad = tmp_path / "bad.qf"
    bad.write_text("base_vars = [a]\nfiber_rank = 2\nq = \"x1 + * x2\"\n")
    assert main(["degeneration", str(bad), "--k", "1"]) == 2


def test_exponent_over_cap_exit_2(tmp_path, capsys):
    from quadrikit.polyalg import MAX_EXPONENT

    big = tmp_path / "big.qf"
    big.write_text(f'base_vars = [a]\nfiber_rank = 2\nq = "(a + 1)^{MAX_EXPONENT + 1}*x1*x2"\n')
    assert main(["degeneration", str(big), "--k", "1"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_zero_denominator_exit_2(tmp_path, capsys):
    """A literal 1/0 is a parse error in a .qf polynomial and in a Clifford
    element, not a ZeroDivisionError."""
    bad = tmp_path / "zero.qf"
    bad.write_text('base_vars = [a]\nfiber_rank = 2\nq = "1/0*x1^2"\n')
    assert main(["degeneration", str(bad), "--k", "1"]) == 2
    assert "zero denominator" in capsys.readouterr().err
    assert main(["clifford", UNIVERSAL, "--trace", "1/0*e1*e2*l^-1"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_non_utf8_qf_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.qf"
    bad.write_bytes(b'base_vars = [a]\nfiber_rank = 2\nq = "x1*x2" # \xe9\n')
    assert main(["degeneration", str(bad), "--k", "1"]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_repeated_qf_key_exit_2(tmp_path, capsys):
    """A key given twice is refused, not overwritten by its last value."""
    bad = tmp_path / "twice.qf"
    bad.write_text('base_vars = [a]\nfiber_rank = 2\nq = "x1*x2"\nq = "a*x1^2"\n')
    assert main(["degeneration", str(bad), "--k", "1"]) == 2
    assert "line 4: duplicate key 'q'" in capsys.readouterr().err


def test_unknown_qf_key_exit_2(tmp_path, capsys):
    """A key the format does not define, such as a misspelled one, is
    refused with its name and line, not ignored."""
    bad = tmp_path / "typo.qf"
    bad.write_text('base_vars = [a]\nfiber_rank = 2\nq = "x1*x2"\nfiber_rnak = 3\n')
    assert main(["degeneration", str(bad), "--k", "1"]) == 2
    assert "line 4: unknown key 'fiber_rnak'" in capsys.readouterr().err


def test_unknown_identifier_in_qf_exit_2(tmp_path, capsys):
    """A name in q that is no base or fiber variable is a parse error
    naming it, as it is in a Clifford element."""
    bad = tmp_path / "bad.qf"
    bad.write_text('base_vars = [a]\nfiber_rank = 2\nq = "x1x2 + a*x1^2"\n')
    assert main(["degeneration", str(bad), "--k", "1"]) == 2
    assert "unknown identifier 'x1x2'" in capsys.readouterr().err
    assert main(["clifford", UNIVERSAL, "--trace", "e1*x1"]) == 2
    assert "unknown identifier 'x1'" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["1.5", "1e3", "1_0", "\u0664"])
def test_cli_numbers_follow_the_numeral_rule(number, capsys):
    """Vector entries, point values and node-rank arguments are numerals of
    the expression grammar; Python literal forms are parse errors."""
    assert main(["node-rank", number, "1"]) == 2
    assert main(["reduce", UNIVERSAL, "--v", f"{number},0,0,0"]) == 2
    assert main(["fiber", UNIVERSAL, "--point", f"a={number},b=0,c=1"]) == 2
    assert capsys.readouterr().err.count("not a rational number") == 3


@pytest.mark.parametrize(
    "args",
    [
        ["degeneration", UNIVERSAL, "--k", "\u0664"],
        ["verify", UNIVERSAL, "--suite", "duality", "--samples", "1_0"],
        ["verify", UNIVERSAL, "--suite", "duality", "--seed", "\u0661"],
        ["clifford", UNIVERSAL, "--table", "1/2"],
        ["spinor", UNIVERSAL, "--n", "1e3"],
    ],
)
def test_cli_counts_follow_the_numeral_rule(args, capsys):
    """--k, --n, --table, --seed and --samples are integers by the same
    numeral rule; Python literal forms and fractions are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "not an integer" in capsys.readouterr().err


def test_cli_count_may_be_negative(capsys):
    """The matrix-factorization suite starts at degree -1, and so can --n."""
    assert main(["ideal", UNIVERSAL, "--w", "1,0,0,0", "--n", "-1"]) == 0
    assert capsys.readouterr().out.startswith("left ideal, degree -1: 4 generators")


@pytest.mark.parametrize(
    "args",
    [
        ["degeneration", UNIVERSAL, "--k", "1", "--samples", "3"],
        ["node-rank", "1", "2", "--seed", "1"],
    ],
)
def test_options_only_where_read(args):
    """--seed and --samples belong to the commands that read them."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


@pytest.mark.parametrize("names", ["1a, b", "a, b c", "a, b@c", "a-b"])
def test_base_variable_not_an_identifier_exit_2(tmp_path, names, capsys):
    """A base variable name the expression grammar cannot read as one
    identifier is refused when the file is read."""
    bad = tmp_path / "bad.qf"
    bad.write_text(f'base_vars = [{names}]\nfiber_rank = 2\nq = "x1*x2"\n')
    assert main(["degeneration", str(bad), "--k", "1"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_duplicate_base_variable_exit_3(tmp_path):
    bad = tmp_path / "bad.qf"
    bad.write_text('base_vars = [a, a]\nfiber_rank = 2\nq = "x1*x2"\n')
    assert main(["degeneration", str(bad), "--k", "1"]) == 3


def test_clifford_table_lists_basis(capsys):
    assert main(["clifford", UNIVERSAL, "--table", "0"]) == 0
    out = capsys.readouterr().out
    assert "degree 0: 8 monomials" in out
    assert "e1*e2*e3*e4*l^-2" in out


def test_clifford_center_output(capsys):
    assert main(["clifford", UNIVERSAL, "--center"]) == 0
    out = capsys.readouterr().out
    assert "discriminant alpha^2 - 4*beta = b^2 - 4*a*c" in out
    assert "discriminant / det = 1" in out


R6_CENTER_TEXT = """\
omega = b*e*e1*e2*l^-1 + e*e3*e4*l^-1 + b*e5*e6*l^-1 - 2*e*e1*e2*e3*e4*l^-2 - 2*b*e1*e2*e5*e6*l^-2 - 2*e3*e4*e5*e6*l^-2 + 4*e1*e2*e3*e4*e5*e6*l^-3
relation: omega^2 + (-b*e)*omega + (a*c*e^2 + b^2*d*f - 4*a*c*d*f) = 0
discriminant alpha^2 - 4*beta = b^2*e^2 - 4*a*c*e^2 - 4*b^2*d*f + 16*a*c*d*f
det b_q = -b^2*e^2 + 4*a*c*e^2 + 4*b^2*d*f - 16*a*c*d*f
discriminant / det = -1 (square scale 1)
commutes with degree-0 monomials: True
twisted law on degree-1 monomials: True
"""

R6_CENTER_JSON = """\
{
  "alpha": "-b*e",
  "beta": "a*c*e^2 + b^2*d*f - 4*a*c*d*f",
  "center": "b*e*e1*e2*l^-1 + e*e3*e4*l^-1 + b*e5*e6*l^-1 - 2*e*e1*e2*e3*e4*l^-2 - 2*b*e1*e2*e5*e6*l^-2 - 2*e3*e4*e5*e6*l^-2 + 4*e1*e2*e3*e4*e5*e6*l^-3",
  "checks": {
    "commutes_degree0": true,
    "twisted_degree1": true
  },
  "command": "clifford",
  "det_bilinear": "-b^2*e^2 + 4*a*c*e^2 + 4*b^2*d*f - 16*a*c*d*f",
  "discriminant": "b^2*e^2 - 4*a*c*e^2 - 4*b^2*d*f + 16*a*c*d*f",
  "ratio": "-1",
  "square_scale": "1"
}
"""


def test_clifford_center_r6_pinned(capsys):
    assert main(["clifford", str(DATA / "r6.qf"), "--center"]) == 0
    assert capsys.readouterr().out == R6_CENTER_TEXT
    assert main(["clifford", str(DATA / "r6.qf"), "--center", "--json"]) == 0
    assert capsys.readouterr().out == R6_CENTER_JSON


def test_clifford_trace(capsys):
    assert main(["clifford", UNIVERSAL, "--trace", "e1*e2*e3*e4*l^-2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize(
    "modes",
    [[], ["--center", "--trace", "e1"], ["--table", "0", "--center"], ["--table", "1", "--trace", "e1"]],
    ids=["none", "center-trace", "table-center", "table-trace"],
)
def test_clifford_needs_exactly_one_mode(modes, capsys):
    """`clifford` runs one of --table, --center and --trace; none, or more
    than one, is a failed precondition that prints nothing on stdout."""
    assert main(["clifford", UNIVERSAL, *modes]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "choose one of --table, --center, --trace" in out.err


def test_cli_import_loads_no_dataclasses():
    """`import quadrikit.cli` loads neither `dataclasses` nor `inspect`:
    the report classes are plain slotted classes."""
    code = "import sys, quadrikit.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_node_rank_degenerate_message(capsys):
    assert main(["node-rank", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "rank 2 (degenerate: 1 - lambda*mu = 0)"


def test_node_rank_negative_fraction_after_double_dash(capsys):
    """`--` ends the options, so a negative fraction reads as lambda."""
    assert main(["node-rank", "--", "-1/2", "-2"]) == 0
    assert capsys.readouterr().out.strip() == "rank 2 (degenerate: 1 - lambda*mu = 0)"


def test_node_rank_json_roundtrip(capsys):
    assert main(["node-rank", "2", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 4
    assert payload["degenerate"] is False
    assert json.loads(json.dumps(payload)) == payload


def test_reduce_command(capsys):
    assert main(["reduce", UNIVERSAL, "--v", "1,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "reduced form: a*x1^2 + b*x1*x2 + c*x2^2" in out
    assert "Ideal over Q[a,b,c,x3,x4]: a*x3^2 + b*x3*x4 + c*x4^2" in out
    assert "certified: True" in out


def test_ideal_command_json(capsys):
    assert main(["ideal", UNIVERSAL, "--w", "1,0,0,0", "--n", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 4
    assert len(payload["generators"]) == 4


def test_spinor_command(capsys):
    assert main(["spinor", UNIVERSAL, "--w", "1,0,0,0", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "phi_1: 4 x 4" in out


def test_lines_command(capsys):
    assert main(["lines", UNIVERSAL]) == 0
    out = capsys.readouterr().out
    assert "Ideal over Q[a,b,c,y13,y14,y23,y24]" in out


def test_fiber_command(capsys):
    assert main(["fiber", UNIVERSAL, "--point", "a=0,b=0,c=0"]) == 0
    out = capsys.readouterr().out
    assert "corank 2: two planes meeting at a point" in out


def test_fiber_unknown_point_variable_exit_2(capsys):
    assert main(["fiber", UNIVERSAL, "--point", "z=1"]) == 2
    assert "'z' is not a base variable" in capsys.readouterr().err


def test_fiber_repeated_point_variable_exit_2(capsys):
    """A name given twice in --point is refused, not overwritten by its
    last value (a=1 would make this fiber a smooth conic)."""
    assert main(["fiber", UNIVERSAL, "--point", "a=0,b=0,c=0,a=1"]) == 2
    captured = capsys.readouterr()
    assert "'a' is given twice in --point" in captured.err
    assert captured.out == ""


def test_fiber_missing_point_variable_exit_3(capsys):
    assert main(["fiber", UNIVERSAL, "--point", "a=0,b=0"]) == 3
    assert "no value for variable 'c'" in capsys.readouterr().err


def test_fiber_rational_point_pinned(capsys):
    """A non-integral base point: the bilinear matrix is evaluated with
    Fractions, and the corank-1 fiber is found from them."""
    assert main(["fiber", UNIVERSAL, "--point", "a=1/2,b=1,c=1/2", "--json"]) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / "universal_fiber_rational.json"
    assert capsys.readouterr().out == pinned.read_text()


def test_net_command(tmp_path, capsys):
    paths = []
    for i, coeffs in enumerate(
        ([1, 2, 3, 4, 5, 6], [7, 1, 2, 1, 3, 1], [1, 1, 1, 2, 1, 4])
    ):
        src = " + ".join(f"{c}*x{k}^2" for k, c in enumerate(coeffs, start=1))
        p = tmp_path / f"f{i}.qf"
        p.write_text(f'base_vars = []\nfiber_rank = 6\nq = "{src}"\n')
        paths.append(str(p))
    assert main(["net", *paths]) == 0
    out = capsys.readouterr().out
    assert "det(b) degree in parameters: 6 (homogeneous: True, bound 6)" in out


def test_verify_matrix_factorization_suite(capsys):
    code = main(
        ["verify", UNIVERSAL, "--suite", "matrix-factorization", "--seed", "24237"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "suite matrix-factorization: PASS" in out


def test_verify_all_json_schema(capsys):
    code = main(["verify", UNIVERSAL, "--suite", "all", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["seed"] == 24237
    operations = {r["operation"] for r in payload["reports"]}
    assert operations == {
        "multiplication-iso",
        "cokernel",
        "flag",
        "duality",
        "matrix-factorization",
    }
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_verify_exit_4_on_failure(monkeypatch, capsys):
    import quadrikit.cli as cli
    from quadrikit.cliffmod import Report

    failing = Report(operation="duality", configuration={}, samples=[], ok=False)
    monkeypatch.setattr(cli, "_run_suites", lambda *a, **k: [failing])
    assert main(["verify", UNIVERSAL, "--suite", "duality"]) == 4


@pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-3")])
def test_verify_rejects_nonpositive_counts(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", UNIVERSAL, "--suite", "duality", flag, value])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "{path}", "--suite", "cokernel", "--json"],
        ["verify", "{path}", "--suite", "cokernel"],
        ["ideal", "{path2}", "--w", "1,0;0,1", "--n", "2"],
        ["spinor", "{path2}", "--w", "1,0;0,1", "--n", "1"],
    ],
    ids=["verify-json", "verify-text", "ideal", "spinor"],
)
def test_subbundle_of_full_fiber_rank_exit_3(tmp_path, args, capsys):
    """Only q = 0 has an isotropic subbundle of full fiber rank, whose
    ideals would have rank 2^(-1): it is refused as a failed precondition,
    with no traceback and nothing on stdout."""
    path, path2 = tmp_path / "zero1.qf", tmp_path / "zero2.qf"
    path.write_text('base_vars = []\nfiber_rank = 1\nq = "0"\n')
    path2.write_text('base_vars = []\nfiber_rank = 2\nq = "0"\n')
    assert main([a.format(path=path, path2=path2) for a in args]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "subbundle rank" in err and "below the fiber rank" in err


def test_verify_all_odd_rank_skips_duality(tmp_path, capsys):
    """On an odd rank `--suite all` runs every other suite and notes the
    skipped duality pairing; `--suite duality` alone fails its
    precondition."""
    odd = tmp_path / "odd.qf"
    odd.write_text('base_vars = [a, b]\nfiber_rank = 3\nq = "x1*x2 + a*x3^2 + b*x3*x1"\n')
    assert main(["verify", str(odd), "--suite", "all", "--samples", "2", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["operation"] for r in reports].count("duality") == 1
    duality = next(r for r in reports if r["operation"] == "duality")
    assert duality["notes"] == ["skipped: the duality pairing needs even rank"]
    assert {r["operation"] for r in reports} == {
        "multiplication-iso", "cokernel", "flag", "duality", "matrix-factorization"
    }
    assert main(["verify", str(odd), "--suite", "duality"]) == 3
    assert "even rank" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [0, 40])
@pytest.mark.parametrize(
    "command",
    [["verify", "--suite", "all"], ["spinor", "--w", "1", "--n", "1"], ["clifford", "--center"]],
    ids=["verify", "spinor", "center"],
)
def test_fiber_rank_out_of_range_exit_3(tmp_path, rank, command):
    path = tmp_path / "rank.qf"
    path.write_text(f'base_vars = []\nfiber_rank = {rank}\nq = "x1*x2"\n')
    name, *flags = command
    proc = subprocess.run(
        [sys.executable, "-m", "quadrikit.cli", name, str(path), *flags],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 3
    assert "fiber_rank" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["degeneration", "--k", "1"], ["verify"]])
def test_nested_exponent_exit_2(tmp_path, command):
    """The degree of a power is checked before it is expanded."""
    path = tmp_path / "nested.qf"
    path.write_text('base_vars = [a]\nfiber_rank = 2\nq = "((x1+a)^64)^64"\n')
    name, *flags = command
    proc = subprocess.run(
        [sys.executable, "-m", "quadrikit.cli", name, str(path), *flags],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "degree 4096 exceeds the maximum 64" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["degeneration", "--k", "1"], ["verify"]])
def test_term_count_bound_exit_2(tmp_path, command):
    """The term count of a power is bounded before it is expanded: this one
    passes the degree cap and would have over a million terms."""
    path = tmp_path / "terms.qf"
    path.write_text(
        'base_vars = [a, b, c, d, e, f]\nfiber_rank = 2\nq = "(a+b+c+d+e+f)^40*x1*x2"\n'
    )
    name, *flags = command
    proc = subprocess.run(
        [sys.executable, "-m", "quadrikit.cli", name, str(path), *flags],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "term count bound 1221759 exceeds the maximum 4096" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("suite", ["cokernel", "flag", "multiplication-iso", "duality"])
def test_verify_r8_pinned(suite, monkeypatch, capsys):
    """Rank 8 (data/r8.qf): `flag` takes the stacked ranks through one
    reused echelon per block; `multiplication-iso` and `duality` were
    recorded from the swap-and-contract product the generator action
    replaced."""
    monkeypatch.chdir(DATA.parent)
    args = ["verify", "data/r8.qf", "--suite", suite, "--samples", "2", "--json"]
    assert main(args) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / f"r8_{suite}.json"
    assert capsys.readouterr().out == pinned.read_text()


@pytest.mark.parametrize("suite", ["multiplication-iso", "cokernel", "flag"])
def test_verify_r6_pinned(suite, monkeypatch, capsys):
    """R6 with ten samples at seed 7, recorded from the evaluation of every
    row at every point that the prepared, deduplicated rows replaced."""
    monkeypatch.chdir(DATA.parent)
    args = ["verify", "data/r6.qf", "--suite", suite, "--samples", "10", "--seed", "7", "--json"]
    assert main(args) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / f"r6_{suite}_seed7.json"
    assert capsys.readouterr().out == pinned.read_text()


@pytest.mark.parametrize(
    "pinned_name, args",
    [
        ("r8_spinor_n1", ["spinor", "data/r8.qf", "--w", "1,0,0,0,0,0,0,0", "--n", "1"]),
        ("r6_mf", ["verify", "data/r6.qf", "--suite", "matrix-factorization"]),
        ("r8_mf", ["verify", "data/r8.qf", "--suite", "matrix-factorization"]),
        ("universal_reduce", ["reduce", "data/universal.qf", "--v", "1,0,0,0"]),
        ("split_reduce", ["reduce", "data/split.qf", "--v", "1,2,3,-2/3"]),
        ("r10_mf", ["verify", "tests/pinned/r10.qf", "--suite", "matrix-factorization"]),
        ("r10_duality", ["verify", "tests/pinned/r10.qf", "--suite", "duality"]),
    ],
)
def test_fraction_free_paths_pinned(pinned_name, args, monkeypatch, capsys):
    """Outputs built on `fraction_free_rref` and `PolyMatrix` (spinor_phi,
    the matrix factorization suite, the `reduce` transform and the rank-10
    duality determinant), recorded from the dense elimination and dense
    matrix rows, or, for r10_duality, from the tuple-keyed Clifford product."""
    monkeypatch.chdir(DATA.parent)
    assert main(args + ["--json"]) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / f"{pinned_name}.json"
    assert capsys.readouterr().out == pinned.read_text()


@pytest.mark.parametrize(
    "pinned_name, args",
    [
        ("r8_spinor_n1", ["spinor", "data/r8.qf", "--w", "1,0,0,0,0,0,0,0", "--n", "1"]),
        ("split_reduce", ["reduce", "data/split.qf", "--v", "1,2,3,-2/3"]),
    ],
)
def test_matrix_text_pinned(pinned_name, args, monkeypatch, capsys):
    """Text-mode matrices, every entry right-aligned to its column's width,
    recorded from dense matrix rows."""
    monkeypatch.chdir(DATA.parent)
    assert main(args) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / f"{pinned_name}.txt"
    assert capsys.readouterr().out == pinned.read_text()


@pytest.mark.parametrize(
    "pinned_name, args",
    [
        ("rat6_verify", ["verify", "--suite", "all", "--samples", "2"]),
        ("rat6_center", ["clifford", "--center"]),
        ("rat6_degeneration_k2", ["degeneration", "--k", "2"]),
    ],
)
def test_rational_form_pinned(pinned_name, args, monkeypatch, capsys):
    """A rank-6 form with non-integral coefficients over Q[a,b]
    (tests/pinned/rat6.qf), recorded from term maps that stored every
    coefficient as a Fraction."""
    monkeypatch.chdir(DATA.parent)
    command, *flags = args
    assert main([command, "tests/pinned/rat6.qf", *flags, "--json"]) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / f"{pinned_name}.json"
    assert capsys.readouterr().out == pinned.read_text()


@pytest.mark.parametrize(
    "pinned_name, path, suite",
    [
        ("universal_verify", "data/universal.qf", "all"),
        ("dense6_verify", "tests/pinned/dense6.qf", "all"),
        ("corank2_cokernel", "data/corank2.qf", "cokernel"),
        ("corank2_flag", "data/corank2.qf", "flag"),
        ("degenerate_a_cokernel", "tests/pinned/degenerate_a.qf", "cokernel"),
        ("degenerate_a_flag", "tests/pinned/degenerate_a.qf", "flag"),
    ],
    ids=["universal", "dense6", "corank2-cokernel", "corank2-flag",
         "degenerate_a-cokernel", "degenerate_a-flag"],
)
def test_verify_all_pinned(pinned_name, path, suite, monkeypatch, capsys):
    """`verify --json` with default samples and seed.  `--suite all` on the
    universal form and the dense rank-6 form (no unit c_ij) was recorded
    from Clifford products over `Poly` coefficients with every ideal rebuilt
    per suite, before products ran on raw term maps.  The cokernel and flag
    suites on two forms with det b_q identically zero (`--suite all` exits 3
    on both) were recorded while each verifier added its own
    degenerate-base note: data/corank2.qf, whose base is a point, and
    tests/pinned/degenerate_a.qf, whose base variable is sampled."""
    monkeypatch.chdir(DATA.parent)
    assert main(["verify", path, "--suite", suite, "--json"]) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / f"{pinned_name}.json"
    assert capsys.readouterr().out == pinned.read_text()


def test_verify_text_pinned(monkeypatch, capsys):
    """`verify` without `--json`: each report's text and the suite verdict,
    recorded while `--json` runs still rendered the text too."""
    monkeypatch.chdir(DATA.parent)
    assert main(["verify", "data/universal.qf", "--suite", "all"]) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / "universal_verify.txt"
    assert capsys.readouterr().out == pinned.read_text()


def test_verify_json_renders_no_text(monkeypatch, capsys):
    """`verify --json` prints only the JSON payload and renders no report
    text for it."""
    from quadrikit.cliffmod import Report

    def refused(report):
        raise AssertionError("text rendered in --json mode")

    monkeypatch.setattr(Report, "to_text", refused)
    assert main(["verify", UNIVERSAL, "--suite", "cokernel", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_run_suites_builds_each_ideal_once(monkeypatch):
    """R6 `--suite all` uses 23 ideals, 9 of them distinct; the run's table
    builds each distinct (w, n, side) ideal exactly once."""
    from quadrikit import cli, cliffmod
    from quadrikit.quadform import load_qf

    built = []
    build = cliffmod.clifford_ideal

    def counted(ctx, w, n, side, seed):
        built.append((w.r, n, side))
        return build(ctx, w, n, side, seed)

    monkeypatch.setattr(cliffmod, "clifford_ideal", counted)
    reports = cli._run_suites(load_qf(DATA / "r6.qf"), "all", 5, 1)
    assert all(r.ok for r in reports)
    assert len(built) == len(set(built)) == 9


def _recorded_draws(monkeypatch):
    """Every point `Specialization.generic` returns, in call order."""
    from quadrikit.cliffmod import Specialization

    drawn = []
    generic = Specialization.generic.__func__

    def recorded(cls, ring, rng, avoid=None):
        drawn.append(generic(cls, ring, rng, avoid))
        return drawn[-1]

    monkeypatch.setattr(Specialization, "generic", classmethod(recorded))
    return drawn


@pytest.mark.parametrize("samples", [5, 8])
def test_run_suites_draws_each_point_once(samples, monkeypatch):
    """R6 `--suite all` draws each seeded sample point once: one
    `Specialization.generic` call per point, its rejected draws inside that
    call, for the first max(samples, 1 + CERT_SAMPLES) points of the seed's
    sequence, which the ideals and every verifier share.  Each sample's
    printed point is the drawn point's own dict.  The seed is the first
    whose points include a rejected draw, so rejections are exercised."""
    import random

    from quadrikit import cli, cliffmod
    from quadrikit.quadform import load_qf

    q = load_qf(DATA / "r6.qf")
    count = max(samples, 1 + cliffmod.CERT_SAMPLES)

    def reference(seed):
        rng = random.Random(seed)
        return [
            cliffmod.Specialization.generic(q.base, rng, avoid=q.det_bilinear())
            for _ in range(count)
        ]

    seed = next(s for s in range(100) if any(p.rejections for p in reference(s)))
    expected = [(p.assignment, p.rejections) for p in reference(seed)]
    drawn = _recorded_draws(monkeypatch)
    reports = cli._run_suites(q, "all", seed, samples)
    assert all(r.ok for r in reports)
    assert [(p.assignment, p.rejections) for p in drawn] == expected
    sampled = [r for r in reports if r.operation != "matrix-factorization"]
    assert len(sampled) == 9
    for r in sampled:
        assert len(r.samples) == samples
        assert all(s.point is p.as_strings() for s, p in zip(r.samples, drawn))


def test_run_suites_leaves_no_points_or_ideals():
    """With the cyclic collector off, a finished R6 `--suite all` run leaves
    no context, ideal, row block or sample point alive: clearing the
    context's ideals lets reference counting free all of them, and the
    ranks a constant row block keeps go with the block."""
    import gc

    from quadrikit import cli
    from quadrikit.clifford import CliffordContext
    from quadrikit.cliffmod import IdealBasis, Specialization
    from quadrikit.linalg import PointRows
    from quadrikit.quadform import load_qf

    kinds = (CliffordContext, IdealBasis, PointRows, Specialization)

    def alive():
        return {id(x) for x in gc.get_objects() if isinstance(x, kinds)}

    q = load_qf(DATA / "r6.qf")
    gc.collect()
    gc.disable()
    try:
        before = alive()  # other tests' objects, held by their modules
        reports = cli._run_suites(q, "all", 5, 2)
        left = alive() - before
    finally:
        gc.enable()
    assert all(r.ok for r in reports)
    assert left == set()


def test_run_suites_leaves_no_context_to_the_cyclic_collector(monkeypatch, capsys):
    """A context and its ideals refer to each other; a finished run breaks
    the cycle, so reference counting alone frees the run's context.  So do
    finished `spinor` and `clifford --center` commands."""
    import gc

    from quadrikit import cli
    from quadrikit.clifford import CliffordContext
    from quadrikit.quadform import load_qf

    def contexts():
        return {id(x) for x in gc.get_objects() if isinstance(x, CliffordContext)}

    monkeypatch.chdir(DATA.parent)
    q = load_qf(DATA / "universal.qf")
    runs = [
        lambda: all(r.ok for r in cli._run_suites(q, "all", 5, 1)),
        lambda: main(["spinor", "data/universal.qf", "--w", "1,0,0,0", "--n", "1"]) == 0,
        lambda: main(["clifford", "data/universal.qf", "--center"]) == 0,
    ]
    for run in runs:
        gc.collect()
        gc.disable()
        try:
            alive = contexts()  # other tests' contexts, held by their modules
            ok = run()
            left = contexts() - alive
        finally:
            gc.enable()
        assert ok
        assert left == set()
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, path",
    [
        ("r8", "data/r8.qf"),
        ("dense6", "tests/pinned/dense6.qf"),
        ("r10", "tests/pinned/r10.qf"),
    ],
    ids=["r8", "dense6", "r10"],
)
def test_center_pinned(name, path, monkeypatch, capsys):
    """`clifford --center --json` from the closed-form center, pinned from
    the commutator elimination it replaced: R8, and a dense rank-6 form
    over Q[a,b] on which that elimination took ~49 s.  The README's
    rank-10 form is pinned from the checks on every basis monomial (1024
    products per side), before they ran on the algebra generators (55)."""
    monkeypatch.chdir(DATA.parent)
    assert main(["clifford", path, "--center", "--json"]) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / f"{name}_center.json"
    assert capsys.readouterr().out == pinned.read_text()


@pytest.mark.parametrize(
    "name, k",
    [(name, k) for name in ("g4", "r6", "universal", "corank2") for k in (1, 2, 3, 4)]
    + [("r8", k) for k in (2, 3, 4)],
)
def test_degeneration_pinned(name, k, monkeypatch, capsys):
    """Reduced Groebner bases of the corank >= k loci, recorded from the
    Fraction division loop the integer `normal_form` replaced."""
    monkeypatch.chdir(DATA.parent)
    assert main(["degeneration", f"data/{name}.qf", "--k", str(k), "--json"]) == 0
    pinned = Path(__file__).resolve().parent / "pinned" / f"degeneration_{name}_k{k}.json"
    assert capsys.readouterr().out == pinned.read_text()


def test_successive_main_calls_match_fresh_processes(monkeypatch, capsys):
    """main() builds its parser once per process; later calls, with other
    subcommands, --json on and off, and a usage error after a good call,
    print and exit as a fresh process does."""
    monkeypatch.chdir(DATA.parent)
    calls = [
        ["degeneration", "data/universal.qf", "--k", "1", "--json"],
        ["degeneration", "data/universal.qf", "--k", "2"],
        ["fiber", "data/universal.qf", "--point", "a=1,b=0,c=1", "--json"],
        ["degeneration", "data/universal.qf"],  # --k is required: exit 2
        ["node-rank", "1", "2"],
        ["verify", "data/universal.qf", "--suite", "duality", "--samples", "0"],  # exit 2
        ["degeneration", "data/corank2.qf", "--k", "2", "--json"],
    ]
    for args in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "quadrikit.cli", *args], capture_output=True, text=True
        )
        try:
            code = main(args)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), args


def test_cli_byte_determinism_subprocess():
    a = run_cli(["verify", UNIVERSAL, "--suite", "duality", "--json"])
    b = run_cli(["verify", UNIVERSAL, "--suite", "duality", "--json"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_seed_changes_sample_points():
    a = run_cli(["verify", UNIVERSAL, "--suite", "duality", "--json", "--seed", "1"])
    b = run_cli(["verify", UNIVERSAL, "--suite", "duality", "--json", "--seed", "2"])
    assert a.returncode == b.returncode == 0
    assert a.stdout != b.stdout


def test_console_script_installed():
    proc = run_cli(["--help"])
    assert proc.returncode == 0
    assert "quadrikit" in proc.stdout


class _Int(int):
    """An int subclass, encoded by `json` as its int value."""


class _Str(str):
    """A str subclass, encoded by `json` as its str value."""


_json_keys = st.text(st.characters() | st.sampled_from('"\\\n\x00\x1f\u00e9\u2028\U0001f600'))
_json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.integers().map(_Int)
    | st.text().map(_Str)
    | st.text(),
    lambda tree: st.lists(tree, max_size=4) | st.dictionaries(_json_keys, tree, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
@example({"b": True, "f": False, "i": _Int(-7), "n": None, "s": _Str("\u00e9"), "x": {}})
@example([True, None, _Int(2**70), _Str("q"), [False, {"k": _Int(0)}]])
def test_json_emitter_matches_the_json_module(tree):
    """`cli._json` prints the bytes of `json.dumps(indent=2, sort_keys=True)`:
    keys with quotes, backslashes, control and non-ASCII characters, big and
    negative ints, bools, None, int and str subclasses, inside dicts and
    lists, and nested empty containers."""
    assert _json(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("leaf", [1.5, (1, 2), {1: "a"}, b"x", Path("x")])
def test_json_emitter_refuses_other_types(leaf):
    with pytest.raises(TypeError):
        _json({"a": [leaf]})
    with pytest.raises(TypeError):
        _json({"a": leaf})
