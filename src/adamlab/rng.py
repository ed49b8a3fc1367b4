"""Deterministic random streams for reshuffling experiments.

Everything here is exact 64-bit integer arithmetic, so results are
bit-identical across platforms and Python versions. The generator is
SplitMix64 (Steele/Lea/Flood mixing constants); shuffles are Fisher-Yates
with rejection-sampled bounded draws, so no modulo bias.

SplitMix64 is counter-based: draw t of a stream at state s is
mix(s + t * gamma). ``SplitMix64.permutations`` uses that to draw a block of
epoch permutations with one vectorized uint64 mix and a Fisher-Yates pass
vectorized over the block. It returns exactly what as many successive
``permutation`` calls would and leaves the state where they would. Every
rejection zone lies in the top n values of the 64-bit range; a block with
any draw there (about n / 2**64 likely per draw) is redrawn by those
scalar calls from the same state.

Algorithm identifier echoed into configs and reports: ``ALGORITHM_ID``.
"""

from __future__ import annotations

from .schema import Count, Seed, check

ALGORITHM_ID = "splitmix64/fisher-yates-v1"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 output scrambler (finalizer only, no state advance)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based 64-bit generator with a tiny API.

    State advances by the 64-bit golden gamma; outputs pass through the
    standard two-multiply scrambler.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (no bias)."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        if n == 1:
            return 0
        # largest multiple of n that fits in 64 bits
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randbelow(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def permutation(self, n: int) -> list[int]:
        out = list(range(n))
        self.shuffle(out)
        return out

    def permutations(self, n: int, count: int) -> list[list[int]]:
        """``count`` successive ``permutation(n)`` results, drawn as a block."""
        import numpy as np  # deferred: importing rng alone loads no NumPy

        draws = max(n - 1, 0)  # permutation(n) takes one draw per m = n, ..., 2
        # draw t mixes state + t * gamma: the _mix64 finalizer on uint64 arrays
        t = np.arange(1, count * draws + 1, dtype=np.uint64)
        z = t * np.uint64(_GOLDEN) + np.uint64(self._state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = (z ^ (z >> np.uint64(31))).reshape(count, draws)
        moduli = range(n, 1, -1)
        # randbelow(m) rejects r > 2**64 - 1 - 2**64 % m. Any draw above the
        # lowest of these bounds sends the block to the scalar path, which
        # is exact whether or not that draw is rejected.
        lowest_bound = _MASK64 - max(((1 << 64) % m for m in moduli), default=0)
        if int(z.max(initial=0)) > lowest_bound:
            return [self.permutation(n) for _ in range(count)]
        picks = (z % np.array(moduli, dtype=np.uint64)).astype(np.intp)
        out = np.tile(np.arange(n), (count, 1))
        rows = np.arange(count)
        for col, i in enumerate(range(n - 1, 0, -1)):
            j = picks[:, col]
            held = out[:, i].copy()
            out[:, i] = out[rows, j]
            out[rows, j] = held
        self._state = (self._state + count * draws * _GOLDEN) & _MASK64
        return out.tolist()


def stream_for_run(seed: Seed, run_index: Count = 0) -> SplitMix64:
    """Derive an independent stream from a base seed and a run index.

    Both inputs are scrambled separately, then combined, so neighbouring
    seeds or run indices do not give correlated streams. Same (seed,
    run_index) always gives the same stream.
    """
    check(stream_for_run, seed=seed, run_index=run_index)
    root = _mix64(seed & _MASK64)
    sub = _mix64((run_index & _MASK64) ^ _GOLDEN)
    return SplitMix64(root ^ sub)
