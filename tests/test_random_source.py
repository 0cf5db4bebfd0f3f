"""RecordingSource draws straight from the bit generator; numpy's own
``Generator`` calls on a twin generator are the reference for every draw
and for the state each draw leaves behind."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim import RecordingSource

BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64)

_bounds = st.floats(-1e6, 1e6)
_op = st.one_of(
    st.just(("coin",)),
    st.tuples(st.just("uniform"), _bounds, st.floats(0.0, 1e6)),
    st.just(("unit",)),  # uniform() with its default bounds
    st.tuples(st.just("random"), st.integers(1, 9)),
    st.just(("numpy_coin",)),  # numpy's own integers(0, 2) on the shared generator
)


def _twins(bit_generator, seed):
    return np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))


def _state(g):
    """The bit generator's whole state, arrays included, as comparable text."""
    return json.dumps(g.bit_generator.state, sort_keys=True, default=lambda a: a.tolist())


def _same_float(a, b):
    return type(a) is float and a.hex() == float(b).hex()


@settings(max_examples=300, deadline=None)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**64 - 1),
    ops=st.lists(_op, max_size=60),
)
def test_draws_match_numpy_on_a_twin_generator(bit_generator, seed, ops):
    g, twin = _twins(bit_generator, seed)
    src = RecordingSource(g)
    for op in ops:
        if op[0] == "coin":
            got, want = src.integers(0, 2), twin.integers(0, 2)
            assert type(got) is int and got == want
        elif op[0] == "uniform":
            low, width = op[1], op[2]
            high = low + width
            assert _same_float(src.uniform(low, high), twin.uniform(low, high))
        elif op[0] == "unit":
            assert _same_float(src.uniform(), twin.uniform())
        elif op[0] == "random":
            assert g.random(op[1]).tobytes() == twin.random(op[1]).tobytes()
        else:
            assert g.integers(0, 2) == twin.integers(0, 2)
    assert src.total_draws == sum(op[0] in ("coin", "uniform", "unit") for op in ops)
    # A half-word left in (or taken from) the wrong place shows in the
    # coins that follow; a word drawn too many or too few in the raw words.
    assert _state(g) == _state(twin)
    assert g.integers(0, 2, size=64).tolist() == twin.integers(0, 2, size=64).tolist()
    assert g.bit_generator.random_raw(4).tolist() == twin.bit_generator.random_raw(4).tolist()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_many_mixed_draws_over_each_bit_generator(bit_generator):
    """A long fixed interleaving per bit generator, seeds 0-9."""
    for seed in range(10):
        g, twin = _twins(bit_generator, seed)
        src = RecordingSource(g)
        script = np.random.default_rng([seed, 1]).integers(0, 4, size=400).tolist()
        for k, op in enumerate(script):
            if op == 0:
                assert src.integers(0, 2) == twin.integers(0, 2)
            elif op == 1:
                low = k - 200.5
                assert _same_float(src.uniform(low, low + 0.1 * k), twin.uniform(low, low + 0.1 * k))
            elif op == 2:
                assert g.random(3).tobytes() == twin.random(3).tobytes()
            else:
                assert g.integers(0, 2) == twin.integers(0, 2)
        assert _state(g) == _state(twin)


def test_coins_are_recorded_per_robot():
    g, twin = _twins(np.random.PCG64, 5)
    src = RecordingSource(g)
    src.begin_robot()
    drawn = [src.integers(0, 2) for _ in range(5)]
    assert src.coins() == tuple(drawn) == tuple(twin.integers(0, 2, size=5).tolist())
    src.begin_robot()
    assert src.coins() == ()


@pytest.mark.parametrize(
    "source",
    [
        np.random.PCG64(1),
        np.random.RandomState(1),
        None,
        RecordingSource(np.random.default_rng(1)),
    ],
    ids=["bit_generator", "RandomState", "None", "RecordingSource"],
)
def test_anything_but_a_generator_is_refused(source):
    with pytest.raises(TypeError, match="numpy.random.Generator"):
        RecordingSource(source)


@pytest.mark.parametrize("low, high", [(0, 3), (1, 2), (0, 1), (-1, 1), (0, 2**32)])
def test_only_the_fair_coin_range_is_served(low, high):
    g = np.random.default_rng(3)
    before = _state(g)
    src = RecordingSource(g)
    with pytest.raises(ValueError, match=r"integers\(0, 2\)"):
        src.integers(low, high)
    assert src.total_draws == 0 and src.coins() == ()
    assert _state(g) == before


@pytest.mark.parametrize(
    "low, high", [(1.0, 0.0), (0.0, float("inf")), (0.0, float("nan")), (-float("inf"), 0.0), (-1e308, 1e308)]
)
def test_bad_uniform_bounds_fail_as_in_numpy(low, high):
    g, twin = _twins(np.random.PCG64, 4)
    with pytest.raises(Exception) as want:
        twin.uniform(low, high)
    src = RecordingSource(g)
    with pytest.raises(want.type, match=str(want.value)):
        src.uniform(low, high)
    assert src.total_draws == 0
    assert _state(g) == _state(twin)
