"""Shared fixtures."""

import pytest

from klspecht import qrkit, specht


def clear_caches(*modules):
    """Empty every cache these modules define: their memoized functions
    (cells, block factors, tableau tables, chain data, chain states, ...)."""
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, 'cache_clear') and value.__module__ == module.__name__:
                value.cache_clear()


def _clear_caches():
    """Empty every cache `specht` and `qrkit` define."""
    clear_caches(specht, qrkit)


@pytest.fixture
def cold_caches():
    """Every specht and qrkit cache empty before and after the test; the
    test gets the function that empties them, to call again mid-way."""
    _clear_caches()
    yield _clear_caches
    _clear_caches()
