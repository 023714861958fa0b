import io
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from listfair.dataset import Gender
from listfair.ordering import (
    ALPHABETICAL,
    RANDOM,
    OrderedSample,
    as_random_order,
    collation_key,
    collation_ranks,
    dump_pages_csv,
    paginate,
    sort_alphabetical,
)
from listfair.sampling import Individual

from helpers import sample_from_pattern


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
    assert collation_key.__wrapped__(name) == stripped.upper()


name_pool = st.sampled_from(
    ["Ana", "ana", "ANA", "André", "Andre", "Bruno", "José", "Jose", "Zoé", "Alex"]
)
individual_strategy = st.builds(
    Individual, name=name_pool, gender=st.sampled_from([Gender.FEMALE, Gender.MALE])
)
individuals_strategy = st.lists(individual_strategy, max_size=50).map(tuple)


@given(individuals_strategy)
def test_sort_is_a_permutation(individuals):
    ordered = sort_alphabetical(individuals)
    assert sorted(ordered.individuals, key=id) != individuals or True
    assert sorted(map(repr, ordered.individuals)) == sorted(map(repr, individuals))
    assert ordered.ordering == ALPHABETICAL


@given(individuals_strategy)
def test_sort_is_idempotent(individuals):
    once = sort_alphabetical(individuals)
    twice = sort_alphabetical(once)
    assert once.individuals == twice.individuals


@given(individuals_strategy)
def test_sort_keys_are_monotone(individuals):
    ordered = sort_alphabetical(individuals).individuals
    keys = [collation_key(i.name) for i in ordered]
    assert keys == sorted(keys)


def test_sort_stability_preserves_arrival_order_on_ties():
    arrivals = (
        Individual("Alex", Gender.MALE),
        Individual("alex", Gender.FEMALE),
        Individual("ALEX", Gender.MALE),
        Individual("Aaron", Gender.MALE),
    )
    ordered = sort_alphabetical(arrivals).individuals
    assert ordered[0].name == "Aaron"
    assert [i.name for i in ordered[1:]] == ["Alex", "alex", "ALEX"]


def test_as_random_order_keeps_arrival_order():
    sample = sample_from_pattern("FMFM")
    ordered = as_random_order(sample)
    assert ordered.individuals == sample.individuals
    assert ordered.ordering == RANDOM
    assert ordered.source == sample.provenance


def test_sort_carries_provenance_from_sample():
    sample = sample_from_pattern("FMFM")
    assert sort_alphabetical(sample).source == sample.provenance
    assert sort_alphabetical(sample.individuals).source is None


@given(
    individuals_strategy.filter(lambda t: len(t) > 0),
    st.integers(min_value=1, max_value=60),
)
def test_pagination_concatenates_back(individuals, k1):
    ordered = OrderedSample(individuals, RANDOM)
    pages = paginate(ordered, k1)
    flattened = tuple(ind for page in pages for ind in page.individuals)
    assert flattened == individuals
    assert [p.index for p in pages] == list(range(1, len(pages) + 1))
    assert all(len(p.individuals) == k1 for p in pages[:-1])
    assert 1 <= len(pages[-1].individuals) <= k1


def test_paginate_rejects_bad_page_size():
    ordered = as_random_order(sample_from_pattern("FM"))
    with pytest.raises(ValueError):
        paginate(ordered, 0)


def test_dump_pages_uses_global_positions():
    sample = sample_from_pattern("FMFMF", names=["Ana", "Bo", "Cy", "Di", "Ed"])
    pages = paginate(as_random_order(sample), 2)
    buf = io.StringIO()
    dump_pages_csv(pages, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "page,position,name,gender"
    assert lines[1] == "1,1,Ana,F"
    assert lines[3] == "2,3,Cy,F"
    assert lines[5] == "3,5,Ed,F"


@given(individuals_strategy)
def test_rank_sort_matches_keyed_sorted(individuals):
    # reference: Python's stable sort on the collation key itself
    expected = tuple(sorted(individuals, key=lambda ind: collation_key(ind.name)))
    ordered = sort_alphabetical(individuals).individuals
    assert all(a is b for a, b in zip(ordered, expected))
    assert len(ordered) == len(expected)


@given(st.lists(name_pool, max_size=30))
def test_collation_ranks_compare_as_keys(names):
    ranks = collation_ranks(names).tolist()
    assert sorted(set(ranks)) == list(range(len({collation_key(n) for n in names})))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            assert (ranks[i] < ranks[j]) == (collation_key(a) < collation_key(b))
            assert (ranks[i] == ranks[j]) == (collation_key(a) == collation_key(b))
