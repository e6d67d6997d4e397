import pytest

from eulerlab import partitions


@pytest.fixture(autouse=True)
def fresh_series_cache():
    """Start every test with the held tables empty.

    partitions._held keeps, for the life of the process, every series the
    builders make and every count table by dynamic program, and serves a
    lower order as a prefix of the longest one held.  A series held by an
    earlier test would hide a fault a later test seeds (the final chain stage
    holds a built gf(D)), and a warm entry would let a test of a build route
    pass without building anything: a warm count table hides a rebound
    _dp_counts, and a warm Euler base 1/(q;q)_inf or 1/(-q;q)_inf lets a
    test's first left side skip its cold build.
    """
    partitions._held.clear()
