"""The generator must match the published splitmix64 algorithm bit for bit."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from failcast import rng

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_mix(z):
    """The published output mix, on Python ints."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_splitmix64(seed, n):
    """Independent transcription of the published algorithm."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + GAMMA) & MASK
        out.append(reference_mix(state))
    return out


def reference_derive(seed, keys):
    """The fold ``s = mix((s ^ mix(key + GAMMA)) + GAMMA)`` of rng.derive's
    docstring, all mod 2**64."""
    s = seed & MASK
    for key in keys:
        s = reference_mix(((s ^ reference_mix((key + GAMMA) & MASK)) + GAMMA) & MASK)
    return s


def test_known_answer_seed_zero():
    # first outputs for seed 0, as quoted in published implementations
    assert list(rng.Stream(0).u64(3)) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@given(st.integers(min_value=0, max_value=MASK), st.integers(1, 200))
def test_matches_reference_implementation(seed, n):
    assert list(rng.Stream(seed).u64(n)) == reference_splitmix64(seed, n)


def test_counter_based_blocks_are_call_pattern_independent():
    whole = rng.Stream(42).u64(10)
    split = rng.Stream(42)
    parts = np.concatenate([split.u64(3), split.u64(1), split.u64(6)])
    assert list(whole) == list(parts)


@given(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
       st.lists(st.integers(min_value=-2 ** 70, max_value=2 ** 70), max_size=3))
def test_derive_matches_reference_fold(seed, keys):
    derived = rng.derive(seed, *keys)
    assert type(derived) is int
    assert derived == reference_derive(seed, keys)


def test_derive_differs_per_key():
    seeds = {rng.derive(9, k) for k in range(100)}
    assert len(seeds) == 100
    assert rng.derive(9, 1, 2) != rng.derive(9, 2, 1)
    assert rng.derive(9, 1) != rng.derive(10, 1)


def test_uniforms_in_unit_interval():
    u = rng.Stream(5).uniforms(10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_have_unit_moments():
    z = rng.Stream(6).normals(100_000)
    assert np.isfinite(z).all()
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normals_odd_count():
    assert rng.Stream(7).normals(5).shape == (5,)


def test_below_bounds():
    draws = rng.Stream(8).below(5000, 4)
    assert set(np.unique(draws)) <= {0, 1, 2, 3}
    assert len(set(np.unique(draws))) == 4


def test_below_a_bound_of_one_draws_zeros_and_a_smaller_one_raises():
    # The clamp to bound - 1 was the only bound applied: below(3, 0) gave -1s.
    assert np.array_equal(rng.Stream(8).below(50, 1), np.zeros(50, np.int64))
    for bound in (0, -5):
        stream = rng.Stream(8)
        with pytest.raises(ValueError, match="bound must be at least 1"):
            stream.below(3, bound)
        assert np.array_equal(stream.u64(2), rng.Stream(8).u64(2))  # nothing was drawn


@given(st.lists(st.integers(), max_size=40), st.integers(0, MASK))
def test_shuffle_is_a_permutation(items, seed):
    shuffled = list(items)
    rng.Stream(seed).shuffle(shuffled)
    assert sorted(shuffled) == sorted(items)


def reference_shuffle(items, seed):
    """Fisher-Yates from the top on a fresh stream: for i = n-1 down to 1, swap
    item i with item floor(u * (i + 1)), u the next top-53-bit uniform; the
    n - 1 draws (none below two items) are all the shuffle takes."""
    items = list(items)
    draws = reference_splitmix64(seed, max(len(items) - 1, 0))
    for i, x in zip(range(len(items) - 1, 0, -1), draws):
        j = int((x >> 11) * 2.0 ** -53 * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items, len(draws)


@given(st.integers(0, 40), st.integers(0, MASK))
def test_shuffle_matches_reference_fisher_yates(n, seed):
    stream, items = rng.Stream(seed), list(range(n))
    stream.shuffle(items)
    want, used = reference_shuffle(range(n), seed)
    assert items == want
    # The stream goes on right after the shuffle's draws.
    assert int(stream.u64(1)[0]) == reference_splitmix64(seed, used + 1)[-1]


def test_shuffle_deterministic():
    a, b = list(range(20)), list(range(20))
    rng.Stream(3).shuffle(a)
    rng.Stream(3).shuffle(b)
    assert a == b
    c = list(range(20))
    rng.Stream(4).shuffle(c)
    assert c != a


def test_streams_restart_identically():
    assert list(rng.Stream(77).u64(8)) == list(rng.Stream(77).u64(8))
