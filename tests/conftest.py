import pytest

from tambara import lattice


@pytest.fixture
def low_trial_limit(monkeypatch):
    """Trial division capped at 100, with every cached factorization dropped.

    Whatever the capped run caches is still right: factorize either
    finishes or raises, and a raise is not cached.
    """
    lattice.factorize.cache_clear()
    lattice.is_prime.cache_clear()
    monkeypatch.setattr(lattice, "_DIVISORS", {})
    monkeypatch.setattr(lattice, "TRIAL_DIVISION_LIMIT", 100)
    return 100
