"""The pure-Python PCG64 behind ``rng_for`` against numpy's ``Generator(PCG64)``.

Every draw must equal numpy's bit for bit: the seeded suites, and so the
golden reports, were fixed with numpy's generator.  Draws are compared by
``repr``, which round-trips a float exactly.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilc._pcg64 import PCG64
from weilc.errors import WeilcError
from weilc.sampling import rng_for

SEEDS = [0, 1, 42, 2**31 - 1, 2**32, 2**64 + 1, 2**70 + 3]
# integer ranges, from one value (which draws nothing) to 2**32
SPANS = [1, 2, 3, 4, 7, 10, 100, 2**16 + 1, 2**31 - 1, 2**31 + 5, 2**32 - 1, 2**32]


def _draw(rng, kind: str, args: tuple):
    """A draw as Python ints, floats and lists; numpy's arrays and scalars
    convert with tolist."""
    value = getattr(rng, kind)(*args)
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _plan(seed: int, n: int) -> list[tuple[str, tuple]]:
    """n draws of every kind weilc makes, interleaved at random: scalar and
    sized random, scalar, 1-D and 2-D uniform, and integers with one or two
    bounds."""
    pick = random.Random(seed)
    out = []
    for _ in range(n):
        kind = pick.randrange(7)
        span = pick.choice(SPANS)
        low = pick.randrange(-5, 6)
        out.append([
            ("random", ()),
            ("random", (pick.randrange(5),)),
            ("uniform", (-1.0, 1.0)),
            ("uniform", (-0.5, 0.5, pick.randrange(5))),
            ("uniform", (-1, 1, (pick.randrange(4), pick.randrange(4)))),
            ("integers", (span,)),
            ("integers", (low, low + span)),
        ][kind])
    return out


def _assert_same_draws(seed: int, plan) -> None:
    ours, theirs = rng_for(seed), np.random.Generator(np.random.PCG64(seed))
    for step, (kind, args) in enumerate(plan):
        mine, numpys = _draw(ours, kind, args), _draw(theirs, kind, args)
        assert repr(mine) == repr(numpys), (seed, step, kind, args)


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_numpy(seed):
    _assert_same_draws(seed, _plan(seed, 600))


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**130)),
       plan_seed=st.integers(0, 2**16))
def test_any_seed_matches_numpy(seed, plan_seed):
    _assert_same_draws(seed, _plan(plan_seed, 60))


@pytest.mark.parametrize("between", ["random", "uniform"])
def test_the_spare_half_outlives_other_draws(between):
    # an integers draw keeps the high half of its 64-bit draw, and the next
    # one takes it, whatever full-width draws come between
    others = {"random": ("random", ()), "uniform": ("uniform", (-1.0, 1.0, 3))}
    plan = [("integers", (10,)), others[between], ("integers", (10,)),
            ("integers", (10,)), others[between], ("integers", (1, 2**31 + 5))]
    for seed in SEEDS:
        _assert_same_draws(seed, plan)


def test_a_one_value_range_draws_nothing():
    ours = PCG64(7)
    assert ours.integers(1) == 0 and ours.integers(3, 4) == 3
    assert ours.random() == PCG64(7).random()


@pytest.mark.parametrize("args", [(0,), (5, 5), (2**32 + 1,), (-1, 2**32)])
def test_an_empty_or_too_wide_range_is_refused(args):
    with pytest.raises(ValueError, match="empty or wider than 2"):
        PCG64(1).integers(*args)


def test_sized_draws_are_lists_of_floats():
    rng = rng_for(3)
    assert all(type(x) is float for x in rng.random(3) + rng.uniform(-1.0, 1.0, 2))
    matrix = rng.uniform(-1.0, 1.0, (2, 3))
    assert [len(row) for row in matrix] == [3, 3]
    assert all(type(x) is float for row in matrix for x in row)
    assert type(rng.integers(5)) is int


def test_negative_seed_is_refused():
    with pytest.raises(WeilcError, match="seed -1 is negative"):
        rng_for(-1)
