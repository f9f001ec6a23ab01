"""Byte-for-byte reports of claims whose code paths were rewritten.

Each file in tests/golden/ holds the stable report_json of one claim,
followed by a newline; the file name is the claim id.
"""

from pathlib import Path

import pytest

from sympgen import claims

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")),
                         ids=lambda path: path.stem)
def test_claim_report_matches_golden(path):
    report = claims.report_json([claims.run_claim(path.stem)])
    assert report + "\n" == path.read_text()
