"""scripts/tier1_gate.py passes a JUnit report only when the failed or
errored tests are exactly acceptance criteria 06 and 07."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CRITERION_06 = ("tests.test_acceptance", "test_criterion_06_optimal_fraction_shape")
CRITERION_07 = ("tests.test_acceptance", "test_criterion_07_figure_gap_claims")
PASSING = ("tests.test_model.TestNetworkParams", "test_hop_terms")
OTHER = ("tests.test_cli.TestSweep", "test_any_other_check")


def case(test, outcome=None):
    """One <testcase>; ``outcome`` is the name of its child element, if any."""
    classname, name = test
    child = f'<{outcome} message="boom">trace</{outcome}>' if outcome else ""
    return f'<testcase classname="{classname}" name="{name}" time="0.1">{child}</testcase>'


def gate(tmp_path, *cases):
    report = tmp_path / "tier1.xml"
    report.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                      f'<testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "tier1_gate.py"), str(report)],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


def test_exactly_the_known_red_pass_the_gate(tmp_path):
    code, out = gate(tmp_path, case(PASSING), case(CRITERION_06, "failure"),
                     case(CRITERION_07, "failure"))
    assert code == 0
    assert out == "3 tests, 2 failed\n"


def test_one_more_failure_is_named(tmp_path):
    code, out = gate(tmp_path, case(PASSING), case(OTHER, "failure"),
                     case(CRITERION_06, "failure"), case(CRITERION_07, "failure"))
    assert code == 1
    assert f"unexpected failure: {OTHER[0]}::{OTHER[1]}" in out.splitlines()


def test_known_red_passing_is_named(tmp_path):
    code, out = gate(tmp_path, case(PASSING), case(CRITERION_06), case(CRITERION_07, "failure"))
    assert code == 1
    assert f"known-red test did not fail: {CRITERION_06[0]}::{CRITERION_06[1]}" in out.splitlines()


@pytest.mark.parametrize("known_red,other,expected", [
    ("error", None, 0),        # an errored known-red test is red
    ("failure", "error", 1),   # an errored other test is an unexpected failure
])
def test_error_counts_as_failure(tmp_path, known_red, other, expected):
    code, out = gate(tmp_path, case(OTHER, other), case(CRITERION_06, known_red),
                     case(CRITERION_07, known_red))
    assert code == expected
    assert (f"unexpected failure: {OTHER[0]}::{OTHER[1]}" in out.splitlines()) == bool(other)
