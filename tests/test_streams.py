"""Known answers for the draws: the pure-Python statement in
``pcg64_spec.py`` against numpy, one primitive per test, and
``listfair.streams`` against that statement. numpy's ``Generator`` serves
only as a reference here; a numpy release that moved a primitive fails
the test named after it."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcg64_spec
from listfair import streams
from listfair.experiments import PERCF, _agg_stream
from listfair.streams import bounded, random_stream, uniforms

keys = st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64))
KNOWN_KEYS = [(42, 0), (0, 0), (2**64 - 1, _agg_stream(PERCF, 0))]
# 3 * 10**9 rejects about 30 % of the 32-bit halves
BOUNDS = [np.arange(300, 1, -1), 100, 3 * 10**9]
COUNTS = [299, 999, 50]


def known_keys(test):
    for key in KNOWN_KEYS:
        test = example(key)(test)
    return settings(max_examples=30, deadline=None)(given(keys)(test))


def spec_integers(spec, bound, count):
    return [spec.integer(int(b)) for b in np.broadcast_to(bound, count)]


@known_keys
def test_seed_sequence_pool(key):
    assert pcg64_spec.seed_pool(key) == np.random.SeedSequence(key).pool.tolist()


@known_keys
def test_pcg64_seeded_state(key):
    state = np.random.PCG64(np.random.SeedSequence(key)).state["state"]
    spec = pcg64_spec.PCG64(key)
    assert (spec.state, spec.inc) == (state["state"], state["inc"])


@known_keys
def test_pcg64_words(key):
    spec = pcg64_spec.PCG64(key)
    assert [spec.next64() for _ in range(9)] == np.random.PCG64(np.random.SeedSequence(key)).random_raw(9).tolist()


@known_keys
def test_generator_random(key):
    spec = pcg64_spec.PCG64(key)
    assert [spec.random() for _ in range(7)] == np.random.default_rng(np.random.SeedSequence(key)).random(7).tolist()


@known_keys
def test_generator_integers(key):
    spec, generator = pcg64_spec.PCG64(key), np.random.default_rng(np.random.SeedSequence(key))
    for bound, count in zip(BOUNDS, COUNTS):
        assert spec_integers(spec, bound, count) == generator.integers(0, bound, count).tolist()
    state = generator.bit_generator.state
    assert spec.state == state["state"]["state"]
    assert state["has_uint32"] == (spec.half is not None)
    if spec.half is not None:
        assert state["uinteger"] == spec.half


@known_keys
def test_streams_follow_the_spec(key):
    stream, spec = random_stream(*key), pcg64_spec.PCG64(key)
    assert stream.state["state"] == {"state": spec.state, "inc": spec.inc}
    assert uniforms([stream], 7)[0].tolist() == [spec.random() for _ in range(7)]
    halves = ()
    for bound, count in zip(BOUNDS, COUNTS):
        bound = np.asarray(bound, np.uint64) if np.ndim(bound) else bound
        drawn, halves = bounded(stream, bound, count, halves)
        assert drawn.tolist() == spec_integers(spec, bound, count)
    # the stream and the spec's buffered half hold the same words
    assert stream.state["state"]["state"] == spec.state
    assert [int(half) for half in halves] == ([] if spec.half is None else [spec.half])


@given(
    bound=st.sampled_from([1, 2, 2**31 + 1, 3 * 10**9, 2**32]),
    count=st.integers(0, 300),
    block=st.integers(1, 300),
    key=keys,
)
@example(bound=2**31 + 1, count=301, block=301, key=(0, 0))
@example(bound=3 * 10**9, count=2, block=1, key=(42, 0))
@settings(max_examples=150, deadline=None)
def test_bounded_blocks_match_integers(bound, count, block, key):
    # blocks of up to ``block`` draws, each starting with the halves the
    # last one left, give the draws of one integers(0, bound, count) call
    stream, generator = random_stream(*key), np.random.Generator(random_stream(*key))
    blocks, halves = [], ()
    for start in range(0, count, block):
        drawn, halves = bounded(stream, bound, min(block, count - start), halves)
        blocks.append(drawn)
    expected = generator.integers(0, bound, count)
    assert np.concatenate([np.empty(0, np.intp), *blocks]).tolist() == expected.tolist()
    if bound > 1:  # numpy draws no half for a bound of 1
        assert stream.state["state"] == generator.bit_generator.state["state"]
        assert len(halves) == generator.bit_generator.state["has_uint32"]


@given(n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2000)), key=keys)
@settings(max_examples=100, deadline=None)
def test_bounded_array_bounds_match_integers(n, key):
    # the Fisher-Yates bounds n, n-1, ..., 2 in one call
    stream, generator = random_stream(*key), np.random.Generator(random_stream(*key))
    drawn, halves = bounded(stream, np.arange(n, 1, -1, dtype=np.uint64), max(n - 1, 0))
    assert drawn.dtype == np.intp
    assert drawn.tolist() == generator.integers(0, np.arange(n, 1, -1)).tolist()
    assert stream.state["state"] == generator.bit_generator.state["state"]
    assert len(halves) == generator.bit_generator.state["has_uint32"]


@given(bounds=st.lists(st.integers(2, 2**32), max_size=300), key=keys)
@example(bounds=[2**31 + 1, 3 * 10**9, 5] * 100, key=(0, 0))
@settings(max_examples=100, deadline=None)
def test_bounded_windows_match_integers(bounds, key):
    # bounds this large are drawn a few at a time, a rejection redoing the
    # draws after it; a bound of 1 is left out, as numpy draws no half for
    # it where this takes one
    stream, generator = random_stream(*key), np.random.Generator(random_stream(*key))
    drawn, halves = bounded(stream, np.array(bounds, np.uint64), len(bounds))
    assert drawn.tolist() == generator.integers(0, np.array(bounds, np.int64)).tolist()
    assert stream.state["state"] == generator.bit_generator.state["state"]
    assert len(halves) == generator.bit_generator.state["has_uint32"]


class _CountingNumpy:
    """numpy, counting the halves that ``multiply`` is given."""

    def __init__(self):
        self.multiplied = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, halves, *args, **kwargs):
        self.multiplied += len(halves)
        return np.multiply(halves, *args, **kwargs)


@pytest.mark.parametrize("bound", ["fisher-yates", 10**6], ids=["fisher-yates", "bootstrap"])
def test_bounded_work_grows_with_the_count_alone(monkeypatch, bound):
    # at 10**6 draws the Fisher-Yates bounds reject about 60 halves and a
    # bound of 10**6 about 250; redoing every later draw after each would
    # multiply tens of times the count
    count = 10**6
    counting = _CountingNumpy()
    monkeypatch.setattr(streams, "np", counting)
    bounds = np.arange(count + 1, 1, -1, dtype=np.uint64) if bound == "fisher-yates" else bound
    drawn, _ = streams.bounded(random_stream(3), bounds, count)
    assert counting.multiplied < 4 * count
    assert drawn.tolist() == np.random.Generator(random_stream(3)).integers(0, bounds, count).tolist()
