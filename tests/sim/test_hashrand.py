"""Unit and property tests for counter-based randomness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.hashrand import hash_choice_mask, hash_normal, hash_u64, hash_uniform

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
INDICES = st.integers(min_value=0, max_value=2**31 - 1)


@given(SEEDS, INDICES)
def test_hash_is_deterministic(seed, index):
    assert hash_u64(seed, index) == hash_u64(seed, index)


@given(SEEDS, INDICES)
def test_uniform_in_unit_interval(seed, index):
    u = hash_uniform(seed, index)
    assert 0.0 <= u < 1.0


@given(SEEDS)
@settings(max_examples=25)
def test_vectorized_matches_scalar(seed):
    idx = np.arange(64)
    vec = hash_uniform(seed, idx)
    scalars = np.array([float(hash_uniform(seed, int(i))) for i in idx])
    np.testing.assert_array_equal(vec, scalars)


def test_different_seeds_decorrelate():
    idx = np.arange(4096)
    a = hash_uniform(1, idx)
    b = hash_uniform(2, idx)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_uniform_mean_and_spread():
    u = hash_uniform(42, np.arange(100_000))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.std() - (1.0 / np.sqrt(12.0))) < 0.01


def test_normal_moments():
    z = hash_normal(7, np.arange(100_000))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normal_deterministic():
    np.testing.assert_array_equal(hash_normal(9, np.arange(10)), hash_normal(9, np.arange(10)))


def test_choice_mask_probability():
    mask = hash_choice_mask(3, np.arange(100_000), 0.25)
    assert abs(mask.mean() - 0.25) < 0.01


def test_choice_mask_validates_probability():
    import pytest

    with pytest.raises(ValueError):
        hash_choice_mask(1, 0, 1.5)


@given(SEEDS, st.sampled_from([-(2**63), -5, -1, 0, 1, 2**63 - 1, 2**63,
                               2**64 - 1, 2**64 + 3]))
@settings(max_examples=50)
def test_scalar_index_hashes_like_a_one_element_array(seed, index):
    """Scalar and array indices both wrap mod 2**64."""
    as_array = np.array([index % 2**64], dtype=np.uint64)
    for fn in (hash_u64, hash_uniform, hash_normal):
        assert fn(seed, index) == fn(seed, as_array)[0]
    if index < 0:
        signed = np.array([index], dtype=np.int64)
        assert hash_normal(seed, index) == hash_normal(seed, signed)[0]


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
                max_size=16),
       st.integers(min_value=-(2**40), max_value=2**40))
@settings(max_examples=50)
def test_seed_array_broadcasts_like_per_seed_calls(seeds, index):
    seed_array = np.array(seeds, dtype=np.uint64)
    for fn in (hash_u64, hash_uniform, hash_normal):
        block = fn(seed_array, index)
        assert block.shape == (len(seeds),)
        assert block.tolist() == [fn(seed, index).item() for seed in seeds]


def test_seed_array_broadcasts_against_index_array():
    seeds = np.array([3, 77, 2**63 + 9], dtype=np.uint64)
    idx = np.arange(-2, 5)
    block = hash_normal(seeds[:, None], idx[None, :])
    assert block.shape == (3, 7)
    for row, seed in zip(block, [3, 77, 2**63 + 9]):
        np.testing.assert_array_equal(row, hash_normal(seed, idx))
