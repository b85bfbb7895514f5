"""Statistics, family membership and enumeration."""

import itertools
import math
import sys

import pytest
from hypothesis import given, strategies as st

import rascent
from rascent.gentree import Rule
from rascent.words import (
    CapExceededError,
    Family,
    ascent_bottoms,
    ascent_tops,
    check_word,
    count_family,
    descent_bottoms,
    descent_tops,
    enumerate_family,
    family_members,
    format_word,
    is_ascent_sequence,
    is_cayley,
    is_member,
    nub,
    parse_word,
    search_family,
    stat_sets,
)
from rascent.words import _DEPTH_HEADROOM, _MODE, _candidates, _stats
from rascent.patterns import avoid_filter
from rascent.oracle import fishburn, stirling2

import reference


def test_statistic_sets_on_worked_word():
    w = parse_word("135144312")
    assert ascent_tops(w) == {1, 2, 3, 5, 9}
    assert ascent_bottoms(w) == {1, 2, 4, 8}
    assert descent_tops(w) == {1, 3, 6, 7}
    assert descent_bottoms(w) == {1, 4, 7, 8}
    assert nub(w) == {1, 2, 3, 5, 9}


def test_statistic_sets_position_one_always_in():
    for w in [(1,), (2, 1), (1, 2, 3), (3, 3, 3)]:
        s = stat_sets(w)
        assert 1 in s.asctop and 1 in s.ascbot
        assert 1 in s.destop and 1 in s.desbot


def _assert_statistics_are_naive(w):
    # the bit-set cores, through every public form, against the naive positions
    naive = (reference.ascent_top_positions(w), reference.ascent_bottom_positions(w),
             reference.descent_top_positions(w), reference.descent_bottom_positions(w))
    public = (ascent_tops(w), ascent_bottoms(w), descent_tops(w), descent_bottoms(w))
    assert public == tuple(stat_sets(w)) == naive, w
    assert nub(w) == reference.leftmost_positions(w), w
    assert all(type(s) is frozenset for s in (*public, *stat_sets(w), nub(w)))
    if max(w) <= 255:  # the search hands the sweeps the same word as bytes
        assert _stats(bytes(w)) == _stats(w), w


def test_statistics_match_the_naive_positions_on_every_cayley_word():
    for n in range(1, 8):
        for w in enumerate_family(n, Family.CAYLEY):
            _assert_statistics_are_naive(w)


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12))
def test_statistics_match_the_naive_positions(values):
    _assert_statistics_are_naive(tuple(values))


def test_statistics_match_the_naive_positions_beyond_cayley_words():
    # the public statistics take any word, not only Cayley ones
    for n in range(1, 7):
        for w in itertools.product(range(1, 5), repeat=n):
            _assert_statistics_are_naive(w)
    for w in [(1,), (7,), (300,), (1, 257, 1), (1, 300, 2, 300, 256), (255, 256, 1)]:
        _assert_statistics_are_naive(w)
    # 200 positions: the bit sets run past 64 bits
    long_word = tuple(1 + (i * 37) % 11 for i in range(200))
    _assert_statistics_are_naive(long_word)
    assert _stats(long_word)[0].bit_length() > 64


def test_ascent_bottoms_second_worked_word():
    assert ascent_bottoms((1, 2, 2, 1, 3, 2, 4, 5)) == {1, 4, 6, 7}


def test_ascent_sequence_recognition():
    assert is_ascent_sequence((1, 2, 2, 1, 3, 2, 4, 5))
    assert not is_ascent_sequence((1, 1, 2, 1, 4, 2))
    assert not is_ascent_sequence((2,))


def test_cayley_recognition():
    assert is_cayley((2, 1, 2))
    assert not is_cayley((1, 3))


def test_singletons_and_smallest_members():
    assert enumerate_family(1, Family.REVISED) == [(1,)]
    assert enumerate_family(2, Family.REVISED) == [(1, 1)]
    assert enumerate_family(3, Family.REVISED) == [(1, 1, 1), (2, 1, 2)]


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_naive_filter(family, n):
    got = enumerate_family(n, family)
    want = reference.brute_family(n, family.value)
    assert got == sorted(want)
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("family, n_max", [
    (Family.ASCENT, 9), (Family.CAYLEY, 6), (Family.MODIFIED, 9), (Family.DESBOT, 9),
    (Family.REVISED, 9), (Family.DESTOP, 9),
])
def test_search_visits_no_dead_end(family, n_max):
    # the completion bound is exact: every extension the search offers
    # to accept is a prefix of some member
    for n in range(1, n_max + 1):
        prefixes = {w[:k] for w in enumerate_family(n, family) for k in range(1, n + 1)}
        offered = set()
        search_family(n, family, lambda e: None,
                      accept=lambda e, v: offered.add((*e, v)) or True)
        assert offered <= prefixes, sorted(offered - prefixes)[:5]


@pytest.mark.parametrize("family", list(Family))
def test_search_offers_exactly_the_member_prefixes(family):
    # each node's candidate set is exact both ways, against the naive
    # filter: nothing that cannot be completed, and every value some
    # member continues with, each offered once
    for n in range(1, 7):
        prefixes = {w[:k] for w in reference.brute_family(n, family.value) for k in range(1, n + 1)}
        offered = []
        search_family(n, family, lambda e: None,
                      accept=lambda e, v: offered.append((*e, v)) or True)
        assert sorted(offered) == sorted(prefixes)


@pytest.mark.parametrize("family", list(Family))
def test_candidates_depend_only_on_the_state(family):
    # the search step sees only the state a level-by-level count keys
    # on, derived here from the prefix, and its bit set holds exactly
    # the values v for which prefix + v is a member prefix
    for n in range(1, 7):
        prefixes = {w[:k] for w in reference.brute_family(n, family.value) for k in range(n + 1)}
        for x in prefixes:
            if len(x) == n:
                continue
            if family is Family.ASCENT:
                top = len(reference.ascent_top_positions(x)) if x else 0
            else:
                top = max(x, default=0)
            seen = sum(1 << v for v in set(x))
            fresh = bool(x) and x[-1] not in x[:-1]
            last = x[-1] if x else 0
            p = len(x) + 1
            cand = _candidates(_MODE[family], n - p, p, top, seen, fresh, last)
            want = {v for v in range(1, n + 1) if (*x, v) in prefixes}
            assert {v for v in range(cand.bit_length()) if cand >> v & 1} == want, (n, x)


@pytest.mark.parametrize("family, n, count, nodes", [
    (Family.ASCENT, 9, 31_240, 6_643), (Family.CAYLEY, 7, 47_293, 35_856),
    (Family.MODIFIED, 9, 31_240, 24_086), (Family.REVISED, 9, 5_335, 5_126),
    (Family.DESTOP, 9, 5_335, 4_322), (Family.DESBOT, 9, 31_240, 35_812),
])
def test_unfiltered_counts_visit_the_pinned_nodes(monkeypatch, family, n, count, nodes):
    # an unfiltered search has no frontier, so the stop at a forbidden
    # missing value never fires: it builds the candidates of every node
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _candidates(*args)

    monkeypatch.setattr(rascent.words, "_candidates", counted)
    assert count_family.__wrapped__(n, family) == count
    assert calls[0] == nodes


def test_cayley_counts_are_fubini_numbers():
    # ordered set partitions: sum over k of k! S(n, k)
    fubini = [sum(math.factorial(k) * stirling2(n, k) for k in range(n + 1)) for n in range(1, 9)]
    assert fubini == [1, 3, 13, 75, 541, 4683, 47293, 545835]
    assert [count_family(n, Family.CAYLEY) for n in range(1, 9)] == fubini


@pytest.mark.parametrize("family, shift", [
    (Family.DESTOP, 1), (Family.MODIFIED, 0), (Family.DESBOT, 0),
])
def test_family_counts_match_fishburn(family, shift):
    # modified and descent-bottom words of length n number F_n; the
    # descent-top words, like the revised ones, F_{n-1}
    f = (1,) + fishburn(9)
    for n in range(1, 10):
        assert count_family(n, family) == f[n - shift]


def test_counts_against_printed_sequence():
    counts = [count_family(n, Family.REVISED) for n in range(1, 11)]
    assert counts == [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240]


def test_ascent_family_counts_shift_by_one():
    for n in range(1, 10):
        assert count_family(n, Family.ASCENT) == count_family(n + 1, Family.REVISED)


def test_first_entry_is_repeated_maximum():
    for n in range(1, 10):
        for w in family_members(n, Family.REVISED):
            m = max(w)
            assert w[0] == m
            if n >= 2:
                assert w.count(m) >= 2
            s = stat_sets(w)
            assert m == len(s.ascbot) == len(s.asctop)


@pytest.mark.parametrize("family", list(Family))
def test_is_member_consistent_with_naive_filter(family):
    members = set(reference.brute_family(5, family.value))
    for w in itertools.product(range(1, 6), repeat=5):
        assert is_member(w, family) == (w in members)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_family(15, Family.REVISED)
    with pytest.raises(ValueError):
        enumerate_family(0, Family.REVISED)
    assert count_family(3, Family.REVISED, cap=3) == 2


def test_search_refuses_lengths_past_its_depth_limit():
    # the search recurses once per entry: past its depth limit a length is
    # refused as the cap refuses it, before the first leaf, whatever the cap
    limit = sys.getrecursionlimit() - _DEPTH_HEADROOM
    lengths = []
    for n, accept in ((1200, None), (limit + 1, avoid_filter((1, 2)))):
        with pytest.raises(CapExceededError, match=f"length {n} exceeds the search's depth limit {limit}"):
            search_family(n, Family.ASCENT, lambda e: lengths.append(len(e)), accept=accept, cap=5000)
    assert lengths == []
    # at the limit the search still reaches its one 12-avoider, 1...1
    search_family(limit, Family.ASCENT, lambda e: lengths.append(len(e)),
                  accept=avoid_filter((1, 2)), cap=limit)
    assert lengths == [limit]


# Every public function that takes a family, called with the family f.
_FAMILY_TAKERS = {
    "search_family": lambda f: search_family(3, f, lambda e: None),
    "enumerate_family": lambda f: rascent.enumerate_family(3, f),
    "count_family": lambda f: rascent.count_family(3, f),
    "family_members": lambda f: rascent.family_members(3, f),
    "is_member": lambda f: rascent.is_member((1,), f),
    "avoider_words": lambda f: rascent.avoider_words(5, (1, 1, 1), f),
    "count_avoiders": lambda f: rascent.count_avoiders(5, (1, 1, 1), f),
    "wilf_classes": lambda f: rascent.wilf_classes(2, 3, family=f),
}


@pytest.mark.parametrize("name", list(_FAMILY_TAKERS))
def test_unknown_family_is_a_value_error(name):
    # a family's value string is not a Family
    with pytest.raises(ValueError, match="unknown family 'rasc'"):
        _FAMILY_TAKERS[name]("rasc")


def test_check_word_rejections():
    for bad in [(), (0,), (1, -2), (1, True)]:
        with pytest.raises(ValueError):
            check_word(bad)


# Every exported function that takes a word, with the arguments it takes
# after the word.  Each checks the word at its boundary before it runs a
# core that trusts it.
_WORD_TAKERS = [
    ("revise", ()), ("unrevise", ()), ("add_entry", (1,)), ("remove_entry", ()), ("shift_trim", ()),
    ("complement", ()), ("standardize", ()), ("is_member", (Family.REVISED,)), ("is_cayley", ()),
    ("is_ascent_sequence", ()), ("word_label", (Rule.FULL,)), ("word_label", (Rule.AVOID123,)),
    ("smallest_rise_top", ()), ("format_word", ()),
]


@pytest.mark.parametrize("bad", [(), (0,), (1, True)], ids=repr)
@pytest.mark.parametrize("name, rest", _WORD_TAKERS,
                         ids=[name + "".join(f"-{getattr(a, 'value', a)}" for a in rest) for name, rest in _WORD_TAKERS])
def test_every_word_taking_function_rejects_a_bad_word(name, rest, bad):
    with pytest.raises(ValueError, match="word must be nonempty|word entries must be integers"):
        getattr(rascent, name)(bad, *rest)


def test_serialization_examples():
    assert format_word((1, 3, 5, 1, 4, 4, 3, 1, 2)) == "135144312"
    assert format_word((10, 1, 2)) == "10,1,2"
    # entry 48 is the byte of "0", and 300 is no byte at all
    assert format_word((48, 1)) == "48,1"
    assert format_word((300, 1)) == "300,1"
    assert parse_word("10,1,2") == (10, 1, 2)
    assert parse_word("212") == (2, 1, 2)
    for text in ("\u00b2", "1,\u00b2"):
        with pytest.raises(ValueError, match="bad word"):
            parse_word(text)


@given(st.one_of(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12),
    st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=12),
))
def test_serialization_round_trip(values):
    # a lone entry >= 10 has no unambiguous text form; no family or
    # pattern ever produces one, so the property excludes that class
    w = tuple(values)
    assert parse_word(format_word(w)) == w


def test_family_members_caches_and_guards():
    assert family_members(4, Family.REVISED) == tuple(enumerate_family(4, Family.REVISED))
    with pytest.raises(ValueError):
        family_members(11, Family.REVISED)
