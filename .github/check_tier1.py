"""Pass only when a Tier-1 junit report has exactly the one expected failure.

    python .github/check_tier1.py tier1.xml

The order-4 record test fails by design (see README); any other failure or
error, or that test passing, fails the check.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = "test_criterion_5_rootedness_positivity_equivalence_order4_as_stated"


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    bad = [
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    ]
    print(f"{len(cases)} tests, {len(bad)} failed or errored: {bad}")
    if not cases or len(bad) != 1 or not bad[0].endswith("::" + EXPECTED):
        print(f"expected exactly one failure: {EXPECTED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
