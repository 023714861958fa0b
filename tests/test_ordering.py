import unicodedata

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from listfair.ordering import alphabetical_order, collation_key, collation_ranks, _dense_rank, sort_alphabetical


@pytest.mark.parametrize(
    "name, key",
    [
        ("José", "JOSE"),
        ("andré", "ANDRE"),
        ("Inês", "INES"),
        ("Hélène", "HELENE"),
        ("ZOE", "ZOE"),
        ("maria", "MARIA"),
    ],
)
def test_collation_key_strips_accents_and_case(name, key):
    assert collation_key(name) == key


def test_collation_orders_accented_with_plain():
    names = ["Álvaro", "Adam", "ana", "Ézio", "Bruno"]
    ordered = sorted(names, key=collation_key)
    assert ordered == ["Adam", "Álvaro", "ana", "Bruno", "Ézio"]


def decomposition_key(name):
    decomposed = unicodedata.normalize("NFD", name)
    return "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn").upper()


@given(st.lists(st.text(alphabet=st.characters(max_codepoint=127)), max_size=20))
def test_collation_ranks_ascii_fast_path_matches_decomposition(names):
    # collation_ranks keys an ASCII name by upper() alone, not by collation_key
    assert collation_ranks(names).tolist() == dict_dense_rank([decomposition_key(name) for name in names])


name_pool = st.sampled_from(
    ["Ana", "ana", "ANA", "André", "Andre", "Bruno", "José", "Jose", "Zoé", "Alex"]
)
names_strategy = st.lists(name_pool, max_size=50)


@given(names_strategy)
def test_sort_is_a_permutation(names):
    order = sort_alphabetical(names).tolist()
    assert sorted(order) == list(range(len(names)))


@given(names_strategy)
def test_sort_is_idempotent(names):
    once = [names[i] for i in sort_alphabetical(names)]
    twice = [once[i] for i in sort_alphabetical(once)]
    assert once == twice
    assert sort_alphabetical(once).tolist() == list(range(len(names)))


@given(names_strategy)
def test_sort_keys_are_monotone(names):
    keys = [collation_key(names[i]) for i in sort_alphabetical(names)]
    assert keys == sorted(keys)


def test_sort_stability_preserves_arrival_order_on_ties():
    arrivals = ["Alex", "alex", "ALEX", "Aaron"]
    assert sort_alphabetical(arrivals).tolist() == [3, 0, 1, 2]


@given(names_strategy)
def test_rank_sort_matches_keyed_sorted(names):
    # reference: Python's stable sort on the collation key itself
    expected = sorted(range(len(names)), key=lambda i: collation_key(names[i]))
    assert sort_alphabetical(names).tolist() == expected


def dict_dense_rank(keys):
    """The dense rank as this package first computed it: a dict from each
    distinct key to its place among the sorted distinct keys."""
    rank_of = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [rank_of[key] for key in keys]


# spellings of one stem that share or nearly share a collation key
VARIANTS = [
    str,
    str.upper,
    str.lower,
    lambda s: unicodedata.normalize("NFD", s),
    lambda s: unicodedata.normalize("NFC", s),
    lambda s: s + "\u0301",
    lambda s: s + "\x00",
    lambda s: s[:1] + "\x00" + s[1:],
]
stems = st.lists(st.text(alphabet=st.characters(), max_size=6), min_size=1, max_size=5)
unicode_names = stems.flatmap(
    lambda stems: st.lists(
        st.tuples(st.sampled_from(stems), st.sampled_from(VARIANTS)).map(lambda p: p[1](p[0])),
        max_size=30,
    )
)


@example([])
@example(["A", "A\x00", "a", "\x00", "", "Á", "A\u0301"])
@given(unicode_names)
def test_collation_ranks_compare_as_keys(names):
    ranks = collation_ranks(names)
    keys = [collation_key(n) for n in names]
    # the narrowest unsigned dtype that holds the largest rank
    assert ranks.dtype == np.min_scalar_type(max(len(set(keys)) - 1, 0))
    assert ranks.shape == (len(names),)
    assert ranks.tolist() == dict_dense_rank(keys)
    ranks = ranks.tolist()
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            assert (ranks[i] < ranks[j]) == (a < b)
            assert (ranks[i] == ranks[j]) == (a == b)


@given(unicode_names)
def test_dense_rank_matches_dict_reference(keys):
    assert _dense_rank(keys).tolist() == dict_dense_rank(keys)


@pytest.mark.parametrize(
    "distinct, dtype",
    [(1, np.uint8), (255, np.uint8), (256, np.uint8), (257, np.uint16), (65_535, np.uint16),
     (65_536, np.uint16), (65_537, np.uint32)],
)
def test_dense_rank_is_narrow_and_sorts_as_int64(distinct, dtype):
    rng = np.random.default_rng(distinct)
    # every distinct key once, a few of them again, in random order
    keys = [f"K{i:06d}" for i in rng.permutation(distinct).tolist()]
    keys += keys[: distinct // 3]
    keys = [keys[i] for i in rng.permutation(len(keys)).tolist()]
    ranks = _dense_rank(keys)
    assert ranks.dtype == dtype
    assert int(ranks.max()) == distinct - 1
    wide = ranks.astype(np.int64)
    assert np.array_equal(alphabetical_order(ranks), np.argsort(wide, kind="stable"))
    # one row per sample, as the experiments sort them
    rows = np.stack([ranks, ranks[::-1]])
    expected = np.stack([np.argsort(row, kind="stable") for row in rows.astype(np.int64)])
    assert np.array_equal(alphabetical_order(rows), expected)
