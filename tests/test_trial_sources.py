"""``trial_sources`` seeds one reused generator per trial; numpy's own
``default_rng([seed, trial])`` is the reference for every state it sets
and every draw that follows."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scattersim.engine import MAX_TRIALS, TRIAL_BLOCK, trial_sources

# Seeds of one to six uint32 words: a seed of four words or more makes
# five or more entropy words with the trial, past SeedSequence's 4-word
# pool, so its extra mixing loop runs.
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64, 2**96, 2**128 + 5, 2**160, 2**160 - 1)
BOUNDARY_TRIALS = (0, 1, TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1, 1023, 1024, 1025)


def _assert_same_stream(g, src, seed, trial):
    """The yielded pair starts as ``default_rng([seed, trial])`` does and
    draws as it does: 64 coins through the source, then ``random(5)`` and
    ``integers(0, 2**63)`` on the generator."""
    ref = np.random.default_rng([seed, trial])
    assert g.bit_generator.state == ref.bit_generator.state
    assert src.total_draws == 0 and src.coins() == ()
    assert [src.integers(0, 2) for _ in range(64)] == [int(ref.integers(0, 2)) for _ in range(64)]
    assert g.random(5).tobytes() == ref.random(5).tobytes()
    assert int(g.integers(0, 2**63)) == int(ref.integers(0, 2**63))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**160),
    trial=st.one_of(st.sampled_from(BOUNDARY_TRIALS), st.integers(0, 1100)),
)
@example(seed=2**160, trial=1024)
def test_each_trial_matches_default_rng(seed, trial):
    for t, (g, src) in enumerate(trial_sources(seed, trial + 1)):
        if t == trial:
            _assert_same_stream(g, src, seed, trial)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_state_across_a_block_boundary(seed):
    trials = max(BOUNDARY_TRIALS) + 1
    for t, (g, src) in enumerate(trial_sources(seed, trials)):
        assert g.bit_generator.state == np.random.default_rng([seed, t]).bit_generator.state
        if t in BOUNDARY_TRIALS:
            _assert_same_stream(g, src, seed, t)
    assert t == trials - 1


def test_draws_of_one_trial_do_not_reach_the_next():
    sources = trial_sources(7, 3)
    g, src = next(sources)
    g.random(100)
    for _ in range(3):  # an odd count of 32-bit draws leaves half a word buffered
        src.integers(0, 2)
    assert g.bit_generator.state["has_uint32"] == 1
    g2, src2 = next(sources)
    assert g2 is g and src2 is src
    _assert_same_stream(g2, src2, 7, 1)


def test_numpy_integer_seed_and_count():
    (g, _), = trial_sources(np.uint64(2**63 + 1), np.int64(1))
    assert g.bit_generator.state == np.random.default_rng([2**63 + 1, 0]).bit_generator.state


def test_largest_count_seeds_its_first_trial_from_one_block():
    g, src = next(trial_sources(5, MAX_TRIALS - 1))
    _assert_same_stream(g, src, 5, 0)


def test_no_trials_yields_nothing():
    assert list(trial_sources(3, 0)) == []


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError) as want:
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError, match=f"^{want.value}$"):
        trial_sources(-1, 5)


@pytest.mark.parametrize("seed", [1.5, "3", None, True, [1, 2]])
def test_non_integer_seed_is_a_type_error(seed):
    with pytest.raises(TypeError, match="seed must be an integer"):
        trial_sources(seed, 5)


@pytest.mark.parametrize("trials", [MAX_TRIALS, MAX_TRIALS + 1, 2**64, -1])
def test_count_outside_32_bits_names_the_limit(trials):
    with pytest.raises(ValueError, match=r"from 0 to below 2\*\*32 = 4294967296, got "):
        trial_sources(0, trials)
