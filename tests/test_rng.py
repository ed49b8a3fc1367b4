import math
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import adamlab
from adamlab.rng import ALGORITHM_ID, SplitMix64, _mix64, stream_for_run


def test_importing_rng_loads_no_numpy():
    # SplitMix64.permutations imports NumPy when first called, so a process
    # that only draws scalar streams never loads it
    src = os.path.dirname(os.path.dirname(adamlab.__file__))
    code = "import sys, adamlab.rng; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_mix64_reference_vectors():
    # independent transcription of the two-multiply finalizer
    def ref(z):
        mask = (1 << 64) - 1
        z &= mask
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & mask
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        return z

    for x in (0, 1, 2**63, 0xDEADBEEF, (1 << 64) - 1):
        assert _mix64(x) == ref(x)


def test_stream_is_deterministic_and_stable():
    a = SplitMix64(42)
    b = SplitMix64(42)
    seq_a = [a.next_u64() for _ in range(5)]
    seq_b = [b.next_u64() for _ in range(5)]
    assert seq_a == seq_b
    # frozen first outputs for seed 42 (golden-gamma state advance plus mix)
    assert seq_a[0] == _mix64((42 + 0x9E3779B97F4A7C15) & ((1 << 64) - 1))


def test_distinct_seeds_and_run_indices_give_distinct_streams():
    s0 = stream_for_run(7, 0)
    s1 = stream_for_run(7, 1)
    s2 = stream_for_run(8, 0)
    x0 = [s0.next_u64() for _ in range(4)]
    x1 = [s1.next_u64() for _ in range(4)]
    x2 = [s2.next_u64() for _ in range(4)]
    assert x0 != x1 and x0 != x2 and x1 != x2
    # and the same key replays the same stream
    replay = stream_for_run(7, 0)
    assert [replay.next_u64() for _ in range(4)] == x0


def test_stream_for_run_rejects_negative_keys():
    import pytest

    with pytest.raises(ValueError):
        stream_for_run(-1, 0)
    with pytest.raises(ValueError):
        stream_for_run(0, -2)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=1000))
@settings(max_examples=200)
def test_randbelow_in_range(seed, n):
    r = SplitMix64(seed)
    for _ in range(5):
        v = r.randbelow(n)
        assert 0 <= v < n


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=50))
@settings(max_examples=200)
def test_permutation_is_a_permutation(seed, n):
    r = SplitMix64(seed)
    p = r.permutation(n)
    assert sorted(p) == list(range(n))


def test_randbelow_distribution_roughly_uniform():
    r = SplitMix64(999)
    counts = [0] * 10
    trials = 20_000
    for _ in range(trials):
        counts[r.randbelow(10)] += 1
    expected = trials / 10
    for c in counts:
        assert abs(c - expected) < 5 * math.sqrt(expected)


def test_algorithm_id_frozen():
    assert ALGORITHM_ID == "splitmix64/fisher-yates-v1"


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=64),
)
@settings(max_examples=300)
def test_block_permutations_equal_successive_scalar_draws(seed, run_index, n, count):
    block, scalar = stream_for_run(seed, run_index), stream_for_run(seed, run_index)
    drawn = block.permutations(n, count)
    assert drawn == [scalar.permutation(n) for _ in range(count)]
    assert all(type(v) is int for p in drawn for v in p)
    assert block._state == scalar._state


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def _unmix64(z):
    """Inverse of the finalizer: undo each xorshift and odd multiply."""
    mod = 1 << 64
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, mod)) % mod
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, mod)) % mod
    return _unxorshift(z, 30)


def test_block_permutations_fall_back_to_scalar_draws_on_rejection():
    # a stream whose next output is 2**64 - 1: randbelow(3) rejects it, since
    # 2**64 % 3 == 1 puts only that value in the rejection zone
    top = (1 << 64) - 1
    state = _unmix64(top)
    assert _mix64(state) == top
    start = (state - 0x9E3779B97F4A7C15) % (1 << 64)
    assert SplitMix64(start).next_u64() == top

    block, scalar = SplitMix64(start), SplitMix64(start)
    count = 4
    assert block.permutations(3, count) == [scalar.permutation(3) for _ in range(count)]
    assert block._state == scalar._state
    # two draws per permutation plus the rejected one
    assert block._state == (start + (2 * count + 1) * 0x9E3779B97F4A7C15) % (1 << 64)
