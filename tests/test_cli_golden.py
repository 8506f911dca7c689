"""Golden outputs of every graph command, text and --json.

`cli_golden.json` holds stdout, stderr and the exit code of each run below.
Output is compared byte for byte, except where it carries floats from LAPACK
(`spectrum`, and `lambda` in `classify --json`): there the text around the
numbers must match exactly and each number must agree within 1e-9, since the
last bits of an eigenvalue differ between LAPACK builds.

Rewrite the file from the current code with `python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from gcurv import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = ("info", "curvature", "effective-diameter", "reflective", "spectrum",
            "factorize", "bakry-emery", "classify")
EXPRESSIONS = ("K 1", "CP 3", "Q 3", "petersen", "( Q 2 x CP 3 )", "Z 9")
MODES = ((), ("--json",))

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?")
_LAMBDA = re.compile(r'"lambda": (\S+),')


def _argv_list():
    return [[command, "--family", expr, *mode]
            for command in COMMANDS for expr in EXPRESSIONS for mode in MODES]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _assert_floats_close(actual: str, expected: str, pattern: re.Pattern) -> None:
    assert pattern.sub("#", actual) == pattern.sub("#", expected)
    got = [float(v) for v in pattern.findall(actual)]
    want = [float(v) for v in pattern.findall(expected)]
    assert got == pytest.approx(want, rel=0, abs=1e-9)


def _cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_run():
    assert [case["argv"] for case in _cases()] == _argv_list()
    assert sorted(COMMANDS) == sorted(cli._GRAPH_COMMANDS)


@pytest.mark.parametrize("case", _cases(), ids=lambda case: " ".join(case["argv"]))
def test_graph_command_output_is_pinned(case):
    run = _run(case["argv"])
    assert (run["code"], run["stderr"]) == (case["code"], case["stderr"])
    if case["argv"][0] == "spectrum":
        _assert_floats_close(run["stdout"], case["stdout"], _NUMBER)
    elif case["argv"][0] == "classify" and "--json" in case["argv"]:
        _assert_floats_close(run["stdout"], case["stdout"], _LAMBDA)
    else:
        assert run["stdout"] == case["stdout"]


def test_unknown_family_is_pinned_on_every_command():
    unknown = [case for case in _cases() if case["argv"][2] == "Z 9"]
    assert len(unknown) == len(COMMANDS) * len(MODES)
    for case in unknown:
        assert (case["code"], case["stdout"]) == (2, "")
        assert case["stderr"] == "input error: unknown family keyword 'Z' (column 1)\n"


if __name__ == "__main__":
    cases = [_run(argv) for argv in _argv_list()]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
