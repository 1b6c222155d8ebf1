"""Unit and property tests for counter-based randomness."""

import math

import numpy as np
import pytest
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


# -- the kernel against a pure-Python SplitMix64 --------------------------

_M64 = 2**64 - 1


def _splitmix_ref(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _u64_ref(seed: int, index: int) -> int:
    return _splitmix_ref(_splitmix_ref(index % 2**64) ^ (seed % 2**64))


def _uniform_ref(seed: int, index: int) -> float:
    return (_u64_ref(seed, index) >> 11) * 2.0 ** -53


def _normal_ref(seed: int, index: int) -> float:
    u1 = max(_uniform_ref(seed, index), 1e-300)
    u2 = _uniform_ref(seed ^ 0x5DEECE66D, index)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _check_against_reference(seed, index, seeds, indices, shape):
    """Every hash of (seed, index) matches the int reference at each
    element of the broadcast; ``seeds``/``indices`` are the element
    values as Python ints, shaped like the result."""
    bits = hash_u64(seed, index)
    uniform = hash_uniform(seed, index)
    normal = hash_normal(seed, index)
    for value in (bits, uniform, normal):
        assert np.shape(value) == shape
    if shape == ():
        assert type(bits) is np.uint64
        assert type(uniform) is np.float64 and type(normal) is np.float64
    else:
        assert isinstance(bits, np.ndarray) and bits.dtype == np.uint64
        assert uniform.dtype == np.float64 and normal.dtype == np.float64
    pairs = list(np.broadcast(np.asarray(seeds, dtype=object),
                              np.asarray(indices, dtype=object)))
    assert np.ravel(bits).tolist() == [_u64_ref(s, i) for s, i in pairs]
    assert np.ravel(uniform).tolist() == [_uniform_ref(s, i)
                                          for s, i in pairs]
    # Box-Muller goes through log and cos, which numpy may vectorize to
    # within an ulp of Python's math module.
    np.testing.assert_allclose(np.ravel(normal),
                               [_normal_ref(s, i) for s, i in pairs],
                               rtol=1e-12, atol=1e-12)


WIDE = [-(2**63), -(2**40) - 7, -5, -1, 0, 1, 2**31, 2**63 - 1, 2**63,
        2**64 - 1, 2**64, 2**64 + 3, 2**70 + 11]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 7, -3, 2**64 - 1, 2**64 + 5, -(2**70)])
@pytest.mark.parametrize("index", WIDE)
def test_int_inputs_match_the_reference_as_numpy_scalars(seed, index):
    _check_against_reference(seed, index, seed, index, ())


@pytest.mark.filterwarnings("error")
def test_zero_d_inputs_match_the_reference_as_numpy_scalars():
    for seed, index in ((np.array(9, dtype=np.uint64), np.array(-4)),
                        (np.uint64(2**63 + 1), np.int64(12)),
                        (5, np.array(2**64 - 2, dtype=np.uint64)),
                        (np.array(-2, dtype=np.int64), 3)):
        _check_against_reference(seed, index, int(seed), int(index), ())


@pytest.mark.filterwarnings("error")
def test_one_d_indices_match_the_reference():
    indices = np.array([i % 2**64 for i in WIDE], dtype=np.uint64)
    _check_against_reference(11, indices, 11, indices.tolist(),
                             (len(WIDE),))
    signed = np.arange(-6, 40)
    _check_against_reference(2**64 + 9, signed, 2**64 + 9, signed.tolist(),
                             (46,))


@pytest.mark.filterwarnings("error")
def test_seed_column_broadcasts_against_an_index_row():
    seed_values = [3, 2**63 + 9, 2**64 - 1, 0]
    seeds = np.array(seed_values, dtype=np.uint64)[:, None]
    indices = np.arange(-3, 9)
    grid_seeds = [[s] * len(indices) for s in seed_values]
    grid_indices = [indices.tolist()] * len(seed_values)
    _check_against_reference(seeds, indices, grid_seeds, grid_indices,
                             (4, 12))
    # A one-element index still broadcasts to the seeds' shape.
    _check_against_reference(seeds, 5, [[s] for s in seed_values],
                             [[5]] * 4, (4, 1))
    _check_against_reference(seeds[:, 0], np.int64(-7), seed_values,
                             [-7] * 4, (4,))


def test_inputs_are_left_unchanged():
    indices = np.arange(10, dtype=np.uint64)
    seeds = np.array([1, 2], dtype=np.uint64)[:, None]
    hash_normal(seeds, indices)
    assert indices.tolist() == list(range(10))
    assert seeds.ravel().tolist() == [1, 2]
