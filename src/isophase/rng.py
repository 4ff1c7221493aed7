"""Deterministic pseudo-random streams.

Seed handling is split in two layers so that every consumer of randomness in
the package is bit-reproducible:

* splitmix64 expands or folds seeds (`fold_seed` absorbs a tuple of integers
  into a single 64-bit seed, one splitmix64 step per component);
* xoshiro256** generates the uniform draw stream.

Both follow the reference algorithms, so any other implementation of the same
pair produces identical streams for identical seeds.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + _SM_GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SM_MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _SM_MUL2) & MASK64
    return state, z ^ (z >> 31)


def fold_seed(seed: int, *parts: int) -> int:
    """Fold integer components into a 64-bit seed.

    The accumulator starts at `seed`; each component is XORed in and passed
    through one splitmix64 output step.  Used to derive per-trial seeds from
    (master_seed, n, trial, stream) tuples.
    """
    acc = seed & MASK64
    for v in parts:
        _, acc = splitmix64(acc ^ (int(v) & MASK64))
    return acc


class Xoshiro256StarStar:
    """xoshiro256** stream seeded via splitmix64 state expansion."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int):
        state = seed & MASK64
        state, self.s0 = splitmix64(state)
        state, self.s1 = splitmix64(state)
        state, self.s2 = splitmix64(state)
        state, self.s3 = splitmix64(state)

    def next_u64(self) -> int:
        s1 = self.s1
        x = (s1 * 5) & MASK64
        result = (((x << 7) | (x >> 57)) & MASK64) * 9 & MASK64
        t = (s1 << 17) & MASK64
        s2 = self.s2 ^ self.s0
        s3 = self.s3 ^ s1
        self.s1 = s1 ^ s2
        self.s0 = self.s0 ^ s3
        self.s2 = s2 ^ t
        self.s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        return result

    def random(self) -> float:
        """Uniform double in [0, 1): top 53 bits of one 64-bit draw."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def randint_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on the top bits."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        span = (MASK64 + 1) - (MASK64 + 1) % bound
        while True:
            u = self.next_u64()
            if u < span:
                return u % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_distinct(self, n: int, k: int) -> list[int]:
        """k distinct values from range(n), in draw order."""
        if k > n:
            raise ValueError("cannot sample more values than the range holds")
        chosen: list[int] = []
        seen = 0
        while len(chosen) < k:
            v = self.randint_below(n)
            if not (seen >> v) & 1:
                seen |= 1 << v
                chosen.append(v)
        return chosen
