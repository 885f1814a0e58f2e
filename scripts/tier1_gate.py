#!/usr/bin/env python3
"""Fail unless the only failing Tier-1 tests are the two known-red ones and
the only xfailed or skipped ones are the four known xfails.

Reads a pytest JUnit XML report (``pytest --junitxml=FILE``) and exits 0 only
if the tests that failed or errored are exactly acceptance criteria 06 and
07, and the tests reported as skipped (JUnit's ``<skipped>``, which is also
how a strict xfail is reported) are exactly the four rows of
``test_joint_split_reaches_witness``. Criteria 06 and 07 keep running: they
stay red, unloosened, until the model is shown wrong. Any other failure,
xfail or skip, or one of the known ones going missing, fails the gate, so a
new xfail or skip cannot hide a failure.

Usage: python scripts/tier1_gate.py REPORT.xml
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_RED = {
    "tests.test_acceptance::test_criterion_06_optimal_fraction_shape",
    "tests.test_acceptance::test_criterion_07_figure_gap_claims",
}
KNOWN_XFAIL = {
    f"tests.test_schemes::test_joint_split_reaches_witness[{row}]"
    for row in ("mcp-3dB", "mcp-10dB", "coop-draw950", "mcp-draw928")
}


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))

    def having(*outcomes):
        return {f"{case.get('classname')}::{case.get('name')}" for case in cases
                if any(case.find(outcome) is not None for outcome in outcomes)}

    failed, skipped = having("failure", "error"), having("skipped")
    print(f"{len(cases)} tests, {len(failed)} failed")
    for name in sorted(failed - KNOWN_RED):
        print(f"unexpected failure: {name}")
    for name in sorted(KNOWN_RED - failed):
        print(f"known-red test did not fail: {name}")
    for name in sorted(skipped - KNOWN_XFAIL):
        print(f"unexpected xfail or skip: {name}")
    for name in sorted(KNOWN_XFAIL - skipped):
        print(f"known xfail did not xfail: {name}")
    return 0 if failed == KNOWN_RED and skipped == KNOWN_XFAIL else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
