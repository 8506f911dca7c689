import itertools
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from gcurv import cli, verify
from gcurv.classify import TheoremVerdict, classify
from gcurv.families import FamilySpec, parse_family
from gcurv.graphs import build_graph
from gcurv.verify import (
    ACCEPTANCE_CHECKS,
    INVARIANT_CHECKS,
    CorpusMember,
    _check_classification,
    _check_oracle_equivalence,
    standard_corpus,
)


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
    for expr in ("Q 3", "C 5", "( Q 2 x CP 3 )"):
        _, first, _ = run(capsys, "classify", "--family", expr, "--json")
        _, second, _ = run(capsys, "classify", "--family", expr, "--json")
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


@pytest.mark.parametrize("expr,where", [("Z 4", "(column 1)"), ("( K 2 x", "(column 5)")])
def test_family_error_reports_token_position(capsys, expr, where):
    code, _, err = run(capsys, "info", "--family", expr)
    assert code == 2
    assert err.startswith("input error: ") and err.rstrip().endswith(where)


@pytest.mark.parametrize("expr", ["Q 30", "K 100000", "( Q 10 x Q 10 )"])
def test_family_over_budget_is_input_error(capsys, monkeypatch, expr):
    monkeypatch.setattr(FamilySpec, "build",
                        lambda self: pytest.fail("built an over-budget graph"))
    code, _, err = run(capsys, "info", "--family", expr)
    assert code == 2
    assert "input budget" in err


def test_deeply_nested_family_is_input_error(capsys):
    expr = "( " * 2000 + "K 2" + " )" * 2000
    code, _, err = run(capsys, "curvature", "--family", expr)
    assert code == 2
    assert "input error" in err and "nest" in err
    assert "Traceback" not in err


def test_edgeless_graph_curvature_is_input_error(capsys):
    code, _, err = run(capsys, "curvature", "--family", "K 1")
    assert code == 2
    assert "input error" in err


# small graphs of every keyword, the one-vertex and edgeless corner cases,
# stars, paths and products with K 1 among them
_SMALL_EXPRESSIONS = [
    "K 1", "K 2", "K 3", "K 5", "C 3", "C 4", "C 5", "C 6", "P 1", "P 2",
    "P 3", "P 4", "KB 1 1", "KB 1 3", "KB 2 2", "KB 2 3", "KB 3 3", "CP 2",
    "CP 3", "J 2 1", "J 4 2", "J 5 2", "HQ 2", "HQ 3", "HQ 4", "Q 1", "Q 2",
    "Q 3", "H 1 3", "H 2 3", "petersen", "( K 1 x K 1 )", "( K 1 x K 2 )",
    "( P 3 x K 2 )", "( C 5 x K 2 )", "( KB 1 3 x P 2 )",
]


@pytest.mark.parametrize("command", sorted(cli._GRAPH_COMMANDS))
def test_graph_commands_end_in_a_result_or_an_input_error(capsys, command):
    # no exception escapes main, and no command reports an internal error
    for expr in _SMALL_EXPRESSIONS:
        for mode in ([], ["--json"]):
            code = cli.main([command, "--family", expr, *mode])
            assert code in (0, 1, 2), (command, expr, mode, code)
    assert "Traceback" not in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [("info", "--file"), ("verify-theorems", "--corpus")])
def test_file_that_is_not_utf8_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\x00bad\n")
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert f"input error: {path}: not UTF-8 text" in err


def test_bakry_emery_flat_graph(capsys):
    code, out, _ = run(capsys, "bakry-emery", "--family", "C 6")
    assert code == 0
    assert "not applicable" in out


def test_bakry_emery_json_bound(capsys):
    code, out, _ = run(capsys, "bakry-emery", "--family", "Q 3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bound"]["equality"] is True


@pytest.mark.parametrize("option,value", [
    pytest.param("--tol", "nan", id="nan"),
    pytest.param("--tol", "inf", id="inf"),
    pytest.param("--tol", "0", id="0"),
    pytest.param("--tol", "-1", id="-1"),
])
@pytest.mark.parametrize("argv", [
    ("classify", "--family", "Q 3"),
    ("bakry-emery", "--family", "Q 3"),
    ("verify-theorems", "--corpus", "standard"),
], ids=["classify", "bakry-emery", "verify-theorems"])
def test_tolerance_must_be_finite_and_positive(capsys, argv, option, value):
    # the verdicts are exact, so --tol is gone: argparse refuses it as an
    # unknown option, before any graph or corpus is built
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, option, value])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("support", ["-1", "0", "1"])
def test_max_lp_support_must_be_at_least_two(capsys, support):
    # the oracle has no support cap, so --max-lp-support is gone and every
    # value, these too, is refused while parsing, before any corpus is built
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-theorems", "--corpus", "standard",
                  "--max-lp-support", support])
    assert exc.value.code == 2
    assert "--max-lp-support" in capsys.readouterr().err


def test_criterion_08_checks_every_standard_edge(monkeypatch):
    corpus = standard_corpus()
    seen = set()
    real = verify.brute_force_curvature_oracle
    monkeypatch.setattr(verify, "brute_force_curvature_oracle",
                        lambda g, x, y: seen.add((id(g), x, y)) or real(g, x, y))
    assert _check_oracle_equivalence(corpus) is None
    assert len(seen) == sum(len(mem.graph.edges) for mem in corpus) == 2261


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


def test_verify_theorems_empty_corpus_is_input_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# nothing but a comment\n\n")
    code, out, err = run(capsys, "verify-theorems", "--corpus", str(corpus))
    assert code == 2
    assert "corpus file lists no graphs" in err
    assert out == ""


@pytest.mark.parametrize("expr", ["K 1", "( K 1 x K 1 )"])
def test_verify_theorems_single_vertex_member_is_input_error(tmp_path, capsys, expr):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"K 2\n# a comment\n{expr}\n")
    code, out, err = run(capsys, "verify-theorems", "--corpus", str(corpus))
    assert code == 2
    assert f"corpus line 3: {expr} needs at least two vertices" in err
    assert out == ""


def test_classification_reports_a_failure_without_witness(monkeypatch):
    mem = CorpusMember(parse_family("K 2"), build_graph(2, [(0, 1)]))
    report = replace(classify(mem.graph),
                     theorem_verdicts={"eff_bm_sharp": TheoremVerdict(False, None)})
    monkeypatch.setattr(verify, "classify", lambda g: report)
    assert _check_classification((mem,)) == "K 2: eff_bm_sharp: failed without witness"


def test_check_timings_ignore_a_wall_clock_that_steps_back(monkeypatch):
    # each read of the wall clock is a second earlier than the one before
    wall = itertools.count(1e9, -1.0)
    monkeypatch.setattr(time, "time", lambda: next(wall))
    result = verify._run_one("check", lambda corpus: None, ())
    assert result.passed and result.seconds >= 0


def test_check_names_unique_and_readme_total():
    names = [name for name, _ in ACCEPTANCE_CHECKS + INVARIANT_CHECKS]
    assert len(set(names)) == len(names)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"(\d+) in total", readme)
    assert stated is not None
    assert int(stated.group(1)) == len(names)


@pytest.mark.parametrize("family,code", [("CP 3", 0), ("CP x", 2)])
def test_module_entry_point_runs_from_a_checkout(family, code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gcurv", "classify", "--family", family],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("input error:")
    else:
        assert "prime factors: CP(3)" in proc.stdout


def test_closed_output_pipe_exits_141_without_a_traceback():
    # stdout is a pipe whose read end is already closed, as when a reader
    # such as `head -1` has left: not an input error
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "gcurv", "classify", "--family", "J 7 3",
                               "--json"], env=env, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    # a directory given as the edge list or the corpus cannot be read
    for argv in (["info", "--file", str(tmp_path)], ["verify-theorems", "--corpus", str(tmp_path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("input error:") and "Errno" in err
