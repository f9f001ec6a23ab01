"""Shared fixtures for the test suite."""

import pytest

from sympgen import grouporder


@pytest.fixture(autouse=True)
def _fresh_splits():
    """Empty element_order's cache of characteristic-polynomial splits
    (grouporder._split) before and after each test, so that no test reads a
    split made by another, or under another test's monkeypatch."""
    grouporder._split.cache_clear()
    yield
    grouporder._split.cache_clear()
