"""scripts/tier1_gate.py passes a JUnit report only when the failed or
errored tests are exactly acceptance criteria 06 and 07 and the xfailed or
skipped ones exactly the four known xfails."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CRITERION_06 = ("tests.test_acceptance", "test_criterion_06_optimal_fraction_shape")
CRITERION_07 = ("tests.test_acceptance", "test_criterion_07_figure_gap_claims")
PASSING = ("tests.test_model.TestNetworkParams", "test_hop_terms")
OTHER = ("tests.test_cli.TestSweep", "test_any_other_check")
WITNESS_ROWS = [("tests.test_schemes", f"test_joint_split_reaches_witness[{row}]")
                for row in ("mcp-3dB", "mcp-10dB", "coop-draw950", "mcp-draw928")]


def case(test, outcome=None):
    """One <testcase>; ``outcome`` is the name of its child element, if any."""
    classname, name = test
    child = f'<{outcome} message="boom">trace</{outcome}>' if outcome else ""
    return f'<testcase classname="{classname}" name="{name}" time="0.1">{child}</testcase>'


def gate(tmp_path, *cases, xfails=WITNESS_ROWS):
    """The gate's exit code and stdout on a report of ``cases`` plus each of
    ``xfails`` reported as JUnit's ``<skipped>``, as pytest reports an xfail."""
    cases += tuple(case(test, "skipped") for test in xfails)
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
    assert out == "7 tests, 2 failed\n"


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


def test_extra_xfail_or_skip_is_named(tmp_path):
    code, out = gate(tmp_path, case(PASSING), case(OTHER, "skipped"),
                     case(CRITERION_06, "failure"), case(CRITERION_07, "failure"))
    assert code == 1
    assert out.splitlines()[1:] == [f"unexpected xfail or skip: {OTHER[0]}::{OTHER[1]}"]


def test_missing_xfail_is_named(tmp_path):
    # the first witness row ran and passed instead of xfailing
    code, out = gate(tmp_path, case(WITNESS_ROWS[0]), case(CRITERION_06, "failure"),
                     case(CRITERION_07, "failure"), xfails=WITNESS_ROWS[1:])
    assert code == 1
    missing = "::".join(WITNESS_ROWS[0])
    assert out.splitlines()[1:] == [f"known xfail did not xfail: {missing}"]
