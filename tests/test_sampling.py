"""The seeded generator behind ``rng_for``: draws built on ``random()`` alone.

Python keeps the sequence of ``random()`` for a given seed across versions,
and makes that promise for no other method, so the first draws of seed 0
are pinned by ``repr``, which round-trips a float exactly.  Every golden
report rests on these draws.
"""

import pytest
from hypothesis import given, settings, strategies as st

from weilc.errors import WeilcError
from weilc.sampling import rng_for

SEEDS = st.integers(0, 2**70)


def test_seed_zero_draws_are_pinned():
    rng = rng_for(0)
    assert [repr(rng.random()) for _ in range(5)] == [
        "0.8444218515250481",
        "0.7579544029403025",
        "0.420571580830845",
        "0.25891675029296335",
        "0.5112747213686085",
    ]


def test_uniform_and_integers_are_built_on_random():
    ours, base = rng_for(7), rng_for(7)
    assert ours.uniform(-1.0, 3.0) == -1.0 + 4.0 * base.random()
    assert ours.integers(2, 12) == 2 + int(base.random() * 10)
    assert ours.integers(5) == int(base.random() * 5)
    assert ours.uniform(0.5, 1.5, (1, 2)) == [[0.5 + base.random(), 0.5 + base.random()]]


@settings(max_examples=200)
@given(seed=SEEDS, low=st.integers(-2**40, 2**40), span=st.sampled_from([1, 2, 3, 2**32]),
       one_bound=st.booleans())
def test_integers_stay_in_range(seed, low, span, one_bound):
    rng = rng_for(seed)
    if one_bound:
        value, low = rng.integers(span), 0
    else:
        value = rng.integers(low, low + span)
    assert type(value) is int and low <= value < low + span


@settings(max_examples=100)
@given(seed=SEEDS, low=st.floats(-10, 10), width=st.floats(0.5, 10),
       size=st.one_of(st.none(), st.integers(0, 5),
                      st.tuples(st.integers(0, 4), st.integers(0, 4))))
def test_uniform_returns_a_float_a_list_or_rows(seed, low, width, size):
    high = low + width
    value = rng_for(seed).uniform(low, high, size)
    if size is None:
        rows = [[value]]
    elif isinstance(size, int):
        assert type(value) is list and len(value) == size
        rows = [value]
    else:
        assert type(value) is list and [len(row) for row in value] == [size[1]] * size[0]
        rows = value
    assert all(type(x) is float and low <= x <= high for row in rows for x in row)


@pytest.mark.parametrize("args", [(0,), (5, 5), (3, 2)])
def test_an_empty_range_is_refused(args):
    with pytest.raises(ValueError, match="is empty"):
        rng_for(1).integers(*args)


def test_negative_seed_is_refused():
    with pytest.raises(WeilcError, match="seed -1 is negative"):
        rng_for(-1)
