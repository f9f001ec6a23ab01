"""Shared fixtures for the test suite."""

import pytest

from sympgen import grouporder, matrix


@pytest.fixture(autouse=True)
def _fresh_splits():
    """Empty element_order's cache of characteristic-polynomial splits
    (grouporder._split) and the spin's cache of products of the rho_i
    (matrix._chi) before and after each test, so that no test reads a split
    or a chi made by another, or under another test's monkeypatch."""
    grouporder._split.cache_clear()
    matrix._chi.cache_clear()
    yield
    grouporder._split.cache_clear()
    matrix._chi.cache_clear()
