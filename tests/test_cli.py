import json

import pytest

from gcurv import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_from_family(capsys):
    code, out, _ = run(capsys, "info", "--family", "J 5 2")
    assert code == 0
    assert "vertices: 10" in out and "edges: 30" in out


def test_info_from_file(tmp_path, capsys):
    path = tmp_path / "edge.txt"
    path.write_text("3 3\n0 1\n1 2\n# closing edge\n2 0\n")
    code, out, _ = run(capsys, "info", "--file", str(path))
    assert code == 0
    assert "vertices: 3" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--family", "CP 3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["eff_bm_sharp"] is True
    assert data["prime_factors"][0]["family"] == "CP(3)"


def test_classify_json_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "--family", "Q 3", "--json")
    _, second, _ = run(capsys, "classify", "--family", "Q 3", "--json")
    assert first == second


def test_reflective_failure_exit_code(capsys):
    code, out, _ = run(capsys, "reflective", "--family", "C 5")
    assert code == 1
    assert "counterexample edge" in out


def test_unknown_family_is_input_error(capsys):
    code, _, err = run(capsys, "curvature", "--family", "Z 9")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("expr", ["(", "( K 2 x"])
def test_truncated_family_is_input_error(capsys, expr):
    code, _, err = run(capsys, "info", "--family", expr)
    assert code == 2
    assert "input error" in err


def test_edgeless_graph_curvature_is_input_error(capsys):
    code, _, err = run(capsys, "curvature", "--family", "K 1")
    assert code == 2
    assert "input error" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "info", "--file", "/no/such/file.txt")
    assert code == 2
    assert "input error" in err


def test_malformed_file_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 x\n")
    code, _, err = run(capsys, "info", "--file", str(path))
    assert code == 2
    assert "line 2" in err


def test_bakry_emery_flat_graph(capsys):
    code, out, _ = run(capsys, "bakry-emery", "--family", "C 6")
    assert code == 0
    assert "not applicable" in out


def test_bakry_emery_json_bound(capsys):
    code, out, _ = run(capsys, "bakry-emery", "--family", "Q 3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bound"]["equality"] is True


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ("classify", "--family", "Q 3"),
    ("bakry-emery", "--family", "Q 3"),
    ("verify-theorems", "--corpus", "standard"),
], ids=["classify", "bakry-emery", "verify-theorems"])
def test_tolerance_must_be_finite_and_positive(capsys, argv, tol):
    # rejected while parsing, before any graph or corpus is built
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_spectrum_and_factorize_smoke(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "K 3")
    assert code == 0
    code, out, _ = run(capsys, "factorize", "--family", "Q 3", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["factors"]) == 3


def test_verify_theorems_file_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("K 3\nC 5\nQ 2\n# comment\n( K 2 x K 3 )\n")
    code, out, _ = run(capsys, "verify-theorems", "--corpus", str(corpus))
    assert code == 0
    assert "0 failed" in out


def test_verify_theorems_json(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("K 2\nC 4\n")
    code, out, _ = run(
        capsys, "verify-theorems", "--corpus", str(corpus), "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert all(c["passed"] for c in data["checks"])
