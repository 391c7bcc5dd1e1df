"""Pass only when a Tier-1 junit report has exactly the one expected failure.

    python .github/check_tier1.py tier1.xml

The order-4 record test fails by design (see README), naming exactly the
nine labels the README lists; any other failure or error, another label
set, that test passing, or any skipped test fails the check.  CI installs
the test extras, so a skip means an oracle such as a sympy importorskip
silently dropped out.  Also prints the line count of the library sources
under src/, the suite's wall time and its three slowest tests, none of
which changes the verdict.
"""

import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

EXPECTED = "test_criterion_5_rootedness_positivity_equivalence_order4_as_stated"
EXPECTED_LABELS = (
    "1,3,3:- 1,4,5:- 2,4,3:- 2,5,4:- 3,3,1:- 3,4,2:- 3,5,3:- 4,5,2:- 5,4,1:-".split()
)
SRC = Path(__file__).resolve().parents[1] / "src"


def main(path: str) -> int:
    lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    print(f"src/ line count: {lines}")
    root = ET.parse(path).getroot()
    cases = list(root.iter("testcase"))
    wall = sum(float(suite.get("time", 0)) for suite in root.iter("testsuite"))
    print(f"Tier-1 wall time: {wall:.1f} s")
    for case in sorted(cases, key=lambda c: -float(c.get("time", 0)))[:3]:
        print(f"  {float(case.get('time', 0)):6.2f} s  {case.get('classname')}::{case.get('name')}")
    bad = [
        case
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    ]
    names = [f"{case.get('classname')}::{case.get('name')}" for case in bad]
    print(f"{len(cases)} tests, {len(bad)} failed or errored: {names}")
    skipped = [
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if case.find("skipped") is not None
    ]
    print(f"{len(skipped)} skipped: {skipped}")
    if skipped:
        print("expected no skipped tests")
        return 1
    if not cases or len(bad) != 1 or not names[0].endswith("::" + EXPECTED):
        print(f"expected exactly one failure: {EXPECTED}")
        return 1
    failure = bad[0].find("failure")
    message = "" if failure is None else failure.get("message", "")
    # the first line lists every label; pytest's repeat of it is truncated
    labels = re.findall(r"'(\d+(?:,\d+)*:[+-])'", message.split("\n", 1)[0])
    print(f"order-4 record test names: {' '.join(labels)}")
    if sorted(labels) != sorted(EXPECTED_LABELS):
        print(f"expected it to name exactly: {' '.join(EXPECTED_LABELS)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
