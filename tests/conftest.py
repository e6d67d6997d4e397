import pytest

from eulerlab import partitions, series

CACHED_BUILDERS = (series.gf_class, series.gf_c_variant, series.gf_c_chain_stage)


@pytest.fixture(autouse=True)
def fresh_series_cache():
    """Start every test with empty builder caches and count tables.

    A series cached by an earlier test would hide a fault a later test seeds
    (the final chain stage holds a built gf(D)), and a warm entry, which
    serves its own order and every lower one, would let a test of the build
    route pass without building anything.  The dynamic-program count tables
    are held the same way, so a warm one would hide a rebound _dp_counts and
    serve a count without entering the dynamic program.  The same clear
    empties the bases 1/(q;q)_inf and 1/(-q;q)_inf that _euler_lhs holds,
    so a test's first left side of each sign builds its base cold.
    """
    for builder in CACHED_BUILDERS:
        builder.cache_clear()
    partitions.count_table.cache_clear()
