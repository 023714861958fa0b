"""The draws listfair's outputs depend on, stated in pure Python.

- ``SeedSequence``'s hash-mix pool, and the state words it generates;
- PCG64: a 128-bit LCG step and the XSL-RR 128/64 output (O'Neill, "PCG:
  A Family of Simple Fast Space-Efficient Statistically Good Algorithms
  for Random Number Generation", HMC-CS-2014-0905), seeded as numpy
  seeds it;
- ``random()``: a word's top 53 bits times 2**-53;
- numpy's 32-bit Lemire step (Lemire, *Fast Random Integer Generation in
  an Interval*, 2019) on 32-bit halves, the low half of a word first.

``tests/test_streams.py`` checks each against numpy and against
``listfair.streams``, so a failure names the primitive that moved.
"""

from __future__ import annotations

MASK32 = 2**32 - 1
MASK64 = 2**64 - 1
MASK128 = 2**128 - 1
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _hash(value: int, multiplier: int, const: int) -> tuple[int, int]:
    """One hash step of ``value``: the hashed value and the next constant."""
    value = (value ^ const) * (const * multiplier & MASK32) & MASK32
    return value ^ value >> 16, const * multiplier & MASK32


def _mix(x: int, y: int) -> int:
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ result >> 16


def seed_pool(key) -> list[int]:
    """``SeedSequence(key).pool`` for a tuple of non-negative ints."""
    entropy = []
    for value in key:  # each int as 32-bit words, least significant first
        entropy.append(value & MASK32)
        while value > MASK32:
            value >>= 32
            entropy.append(value & MASK32)
    pool, const = [], INIT_A
    for i in range(POOL_SIZE):
        hashed, const = _hash(entropy[i] if i < len(entropy) else 0, MULT_A, const)
        pool.append(hashed)
    for source in range(POOL_SIZE):  # every pool word into every other
        for target in range(POOL_SIZE):
            if source != target:
                hashed, const = _hash(pool[source], MULT_A, const)
                pool[target] = _mix(pool[target], hashed)
    for value in entropy[POOL_SIZE:]:  # entropy past the pool into every word
        for target in range(POOL_SIZE):
            hashed, const = _hash(value, MULT_A, const)
            pool[target] = _mix(pool[target], hashed)
    return pool


class PCG64:
    """numpy's PCG64 seeded through ``SeedSequence(key)``, with its buffered half."""

    def __init__(self, key):
        pool, const, words = seed_pool(key), INIT_B, []
        for i in range(8):
            hashed, const = _hash(pool[i % POOL_SIZE], MULT_B, const)
            words.append(hashed)
        # four little-endian 64-bit words: the state's high and low, the sequence's high and low
        seed, sequence = (words[i + 1] << 96 | words[i] << 64 | words[i + 3] << 32 | words[i + 2] for i in (0, 4))
        self.inc = (sequence << 1 | 1) & MASK128
        self.state = (self.inc + seed) * MULTIPLIER + self.inc & MASK128
        self.half = None

    def next64(self) -> int:
        self.state = self.state * MULTIPLIER + self.inc & MASK128
        value, rotation = (self.state >> 64 ^ self.state) & MASK64, self.state >> 122
        return (value >> rotation | value << (64 - rotation)) & MASK64

    def random(self) -> float:
        return (self.next64() >> 11) * 2.0**-53

    def next32(self) -> int:
        if self.half is not None:
            half, self.half = self.half, None
            return half
        word = self.next64()
        self.half = word >> 32
        return word & MASK32

    def integer(self, bound: int) -> int:
        """A draw uniform on [0, bound) for a bound in [1, 2**32]."""
        if bound == 1:
            return 0
        if bound == 2**32:
            return self.next32()
        product = self.next32() * bound
        while product & MASK32 < (2**32 - bound) % bound:
            product = self.next32() * bound
        return product >> 32
