"""Keyed PCG64 streams, and the uniforms and bounded integers drawn from
their raw 64-bit words.

numpy guarantees the words of PCG64 seeded through ``SeedSequence`` on
every release (NEP 19), but not the draws of ``Generator``'s methods. So
this module makes the draws from the words, as ``Generator.random`` and
``Generator.integers`` make them; ``tests/pcg64_spec.py`` states each
step in pure Python. Draws consume the stream: re-create it to replay one.
"""

from __future__ import annotations

import numpy as np


def random_stream(seed: int, stream_index: int = 0):
    """numpy's PCG64 seeded through ``SeedSequence((seed, stream_index))``."""
    for name, value in (("seed", seed), ("stream_index", stream_index)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):  # SeedSequence takes True as 1
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if seed < 0 or seed >= 2**64:
        raise ValueError("seed must be a 64-bit non-negative integer")
    if stream_index < 0:
        raise ValueError("stream_index must be non-negative")
    # np.random, not a module-level import: numpy loads numpy.random on
    # first use, so callers that only read sample files never load it
    return np.random.PCG64(np.random.SeedSequence((seed, stream_index)))


def uniforms(streams, count: int) -> np.ndarray:
    """The next ``count`` doubles in [0, 1) of each stream, as the rows of
    a ``(len(streams), count)`` array: a word's top 53 bits times 2**-53."""
    words = np.empty((len(streams), count), np.uint64)
    for row, stream in zip(words, streams):
        row[:] = stream.random_raw(count)
    words >>= 11
    return words * 2.0**-53


def bounded(stream, bound, count: int, halves=()):
    """``count`` integers, the i-th uniform on ``[0, bound_i)``, and the
    32-bit halves left over for the next call.

    ``bound`` is an int in [1, 2**32] or a uint64 array of ``count`` bounds
    in [2, 2**32]: numpy draws no half for a bound of 1, and a scalar bound
    of 1 gives zeros from halves that numpy would not draw. Draws take
    ``halves`` first, then each word's low and high half, by numpy's Lemire
    step (Lemire, *Fast Random Integer Generation in an Interval*, 2019):
    half x gives (x * bound) >> 32, unless the low half of x * bound is
    below (2**32 - bound) % bound and the next half is tried.
    """
    draws = np.empty(count, "<u8")
    per_draw = np.ndim(bound) > 0
    # a rejection needs a low half below the threshold, so below the bound
    top = int(bound.max(initial=1)) if per_draw else bound
    # A rejected half moves each later draw on to the next half. Under one
    # bound their products stay; under a bound per draw they are redone, in
    # windows of 2**35 // top draws, with under eight rejections expected.
    window = 2**35 // top if per_draw else count
    done = 0
    while done < count:
        stop = min(done + window, count)
        if stop - done > len(halves):
            # little-endian words, so that each low half comes first
            fresh = stream.random_raw((count - done - len(halves) + 1) // 2).astype("<u8", copy=False).view("<u4")
            halves = np.concatenate((halves, fresh)) if len(halves) else fresh
        b = bound[done:stop] if per_draw else bound
        product = np.multiply(halves[: stop - done], b, out=draws[done:stop], dtype="<u8")
        low = product.view("<u4")[::2]
        rejected = np.flatnonzero(low < (2**32 - b) % b).tolist() if low.min() < top else []
        used = stop - done
        if rejected and per_draw:
            stop, used = done + rejected[0], rejected[0] + 1
        elif rejected:
            # move each run of accepted draws down over the rejections so far
            for shift, (start, end) in enumerate(zip(rejected, [*rejected[1:], used]), 1):
                product[start + 1 - shift : end - shift] = product[start + 1 : end]
            stop -= len(rejected)
        halves = halves[used:]
        done = stop
    draws >>= 32
    return draws.view("<i8"), halves
