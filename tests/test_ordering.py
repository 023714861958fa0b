import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from listfair.ordering import collation_key, collation_ranks, sort_alphabetical


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


@given(st.text(alphabet=st.characters(max_codepoint=127)))
def test_collation_key_ascii_fast_path_matches_decomposition(name):
    decomposed = unicodedata.normalize("NFD", name)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    assert collation_key(name) == stripped.upper()


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


@given(st.lists(name_pool, max_size=30))
def test_collation_ranks_compare_as_keys(names):
    ranks = collation_ranks(names).tolist()
    assert sorted(set(ranks)) == list(range(len({collation_key(n) for n in names})))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            assert (ranks[i] < ranks[j]) == (collation_key(a) < collation_key(b))
            assert (ranks[i] == ranks[j]) == (collation_key(a) == collation_key(b))
