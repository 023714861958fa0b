import io
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from listfair.dataset import Gender
from listfair.ordering import (
    collation_key,
    collation_ranks,
    dump_pages_csv,
    paginate,
    sort_alphabetical,
)
from listfair.sampling import Individual

from helpers import individuals_from_pattern


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
individual_strategy = st.builds(
    Individual, name=name_pool, gender=st.sampled_from([Gender.FEMALE, Gender.MALE])
)
individuals_strategy = st.lists(individual_strategy, max_size=50).map(tuple)
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


@given(
    individuals_strategy.filter(lambda t: len(t) > 0),
    st.integers(min_value=1, max_value=60),
)
def test_pagination_concatenates_back(individuals, k1):
    pages = paginate(individuals, k1)
    flattened = tuple(ind for page in pages for ind in page.individuals)
    assert flattened == individuals
    assert [p.index for p in pages] == list(range(1, len(pages) + 1))
    assert all(len(p.individuals) == k1 for p in pages[:-1])
    assert 1 <= len(pages[-1].individuals) <= k1


def test_paginate_rejects_bad_page_size():
    with pytest.raises(ValueError):
        paginate(individuals_from_pattern("FM"), 0)


def test_dump_pages_uses_global_positions():
    individuals = individuals_from_pattern("FMFMF", names=["Ana", "Bo", "Cy", "Di", "Ed"])
    pages = paginate(individuals, 2)
    buf = io.StringIO()
    dump_pages_csv(pages, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "page,position,name,gender"
    assert lines[1] == "1,1,Ana,F"
    assert lines[3] == "2,3,Cy,F"
    assert lines[5] == "3,5,Ed,F"


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
