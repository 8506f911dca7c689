"""Acceptance gate: one verify-theorems run, one pass/fail line per criterion.

A module fixture runs `verify-theorems --corpus standard --json` through the
command line entry point once.  Each criterion test reports its own row of
that run's payload, and the final test holds the whole run to exit code 0,
every check passing and the ten minute budget.
"""

import contextlib
import io
import json
import time

import pytest

from gcurv import cli
from gcurv.verify import ACCEPTANCE_CHECKS

_LABELS = {
    "criterion_01_curvature_constants": "curvature constants across the corpus",
    "criterion_02_effective_diameter": "effective diameter values and bound",
    "criterion_03_reflectiveness": "reflection symmetry across the corpus",
    "criterion_04_lichnerowicz_sharpness": "spectral gap sharpness",
    "criterion_05_factorization_round_trip": "factorization round trips",
    "criterion_06_structural_suite": "structural identities at sharp members",
    "criterion_07_orbit_certificate": "pair orbit certificates",
    "criterion_08_lp_oracle_equivalence": "solver agrees with brute oracle",
    "criterion_09_bakry_emery": "vertex curvature values and rigidity",
    "criterion_10_classification": "classification reports",
}


@pytest.fixture(scope="module")
def suite():
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-theorems", "--corpus", "standard", "--json"])
    elapsed = time.monotonic() - start
    payload = json.loads(out.getvalue())
    rows = {row["check"]: row for row in payload["checks"]}
    # every acceptance check has exactly one labelled criterion test
    assert set(_LABELS) == {name for name, _ in ACCEPTANCE_CHECKS}
    assert set(_LABELS) <= set(rows)
    return code, payload, rows, elapsed


def _report(suite, capsys, name):
    _, _, rows, _ = suite
    row = rows[name]
    line = f"{name} ({_LABELS[name]}): {'PASS' if row['passed'] else 'FAIL'}"
    if not row["passed"]:
        line += f"  [{row['witness']}]"
    with capsys.disabled():
        print("\n" + line)
    assert row["passed"], f"{name} failed: {row['witness']}"


def test_criterion_01(suite, capsys):
    _report(suite, capsys, "criterion_01_curvature_constants")


def test_criterion_02(suite, capsys):
    _report(suite, capsys, "criterion_02_effective_diameter")


def test_criterion_03(suite, capsys):
    _report(suite, capsys, "criterion_03_reflectiveness")


def test_criterion_04(suite, capsys):
    _report(suite, capsys, "criterion_04_lichnerowicz_sharpness")


def test_criterion_05(suite, capsys):
    _report(suite, capsys, "criterion_05_factorization_round_trip")


def test_criterion_06(suite, capsys):
    _report(suite, capsys, "criterion_06_structural_suite")


def test_criterion_07(suite, capsys):
    _report(suite, capsys, "criterion_07_orbit_certificate")


def test_criterion_08(suite, capsys):
    _report(suite, capsys, "criterion_08_lp_oracle_equivalence")


def test_criterion_09(suite, capsys):
    _report(suite, capsys, "criterion_09_bakry_emery")


def test_criterion_10(suite, capsys):
    _report(suite, capsys, "criterion_10_classification")


def test_verify_theorems_standard(suite, capsys):
    code, payload, rows, elapsed = suite
    failed = [name for name, row in rows.items() if not row["passed"]]
    with capsys.disabled():
        print(f"\nverify-theorems --corpus standard: exit {code}, "
              f"{len(rows)} checks, {len(failed)} failed, {elapsed:.1f}s")
    assert code == 0
    assert payload["all_passed"], f"failed checks: {failed}"
    assert elapsed < 600.0
