"""Byte-for-byte reports of every registered claim.

Each file in tests/golden/ holds the stable report_json of one claim,
followed by a newline; the file name is the claim id.  A golden is
re-recorded only with a stated reason: it pins what the claim computes.
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


def test_every_claim_has_a_golden():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == claims.claim_ids()
