"""Occurrence counting, avoidance, normal forms, Wilf grouping."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rascent import patterns, words
from rascent.patterns import (
    FORM_NAMES,
    PATTERN_CAP,
    avoid_filter,
    avoider_words,
    avoids,
    check_pattern,
    contains,
    count_avoiders,
    count_occurrences,
    frontier,
    matches_form,
    occurrence_test,
    wilf_classes,
)
from rascent.words import Family, FrontierVeto, enumerate_family, family_members, search_family
from rascent.maps import standardize
from rascent.verify import run_suite

import reference


def test_occurrence_counts_on_small_words():
    assert count_occurrences((1, 1, 1), (1, 1)) == 3
    assert count_occurrences((4, 1, 3, 4, 2, 3, 2), (1, 2, 3)) == 2
    assert count_occurrences((2, 1, 2), (1, 2)) == 1
    assert count_occurrences((2, 1, 2), (2, 1)) == 1
    assert count_occurrences((1, 2, 3), (3, 2, 1)) == 0


def test_occurrences_respect_equalities():
    # 11 needs a genuine repeat; 12 needs a strict rise
    assert count_occurrences((1, 2), (1, 1)) == 0
    assert count_occurrences((1, 1), (1, 2)) == 0


words_strategy = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8)
patterns_strategy = st.lists(st.integers(min_value=1, max_value=PATTERN_CAP), min_size=1,
                             max_size=PATTERN_CAP)


@settings(max_examples=300)
@given(words_strategy, patterns_strategy)
def test_occurrences_match_naive_search(word_values, pattern_values):
    text = tuple(word_values)
    pattern = standardize(tuple(pattern_values))
    expected = reference.count_subsequence_matches(text, pattern)
    assert count_occurrences(text, pattern) == expected
    assert contains(text, pattern) == (expected > 0)
    assert avoids(text, pattern) == (expected == 0)
    has = occurrence_test(pattern)
    assert has(text) == (expected > 0)
    # a compiled test serves many words; the next one sees no stale state
    assert has(text[::-1]) == (reference.count_subsequence_matches(text[::-1], pattern) > 0)


def test_pattern_cap():
    assert PATTERN_CAP == 6
    with pytest.raises(ValueError):
        check_pattern((1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(ValueError):
        check_pattern((1, 3))  # not a Cayley permutation
    with pytest.raises(ValueError):
        occurrence_test((1, 3))
    with pytest.raises(ValueError):
        # the length-4 patterns other than x y x z, and lengths 5 and 6,
        # keep the matching veto
        frontier((1, 2, 3, 4))


# all 17 Cayley permutations of length 1 to 3
SHORT_PATTERNS = [p for k in (1, 2, 3) for p in enumerate_family(k, Family.CAYLEY)]
# the 13 of length 4 of the form x y x z, which have a frontier too
XYXZ_PATTERNS = [p for p in enumerate_family(4, Family.CAYLEY) if p[2] == p[0]]
FRONTIER_PATTERNS = SHORT_PATTERNS + XYXZ_PATTERNS


def _check_frontier(prefix: list, v_max: int) -> None:
    # bit v of the frontier after the prefix is on exactly when v
    # completes a new occurrence, for every v up to v_max; only the
    # bits below the lane width are the forbidden set
    assert v_max < patterns._LANE
    for pattern in FRONTIER_PATTERNS:
        forbid, step = frontier(pattern)
        seen = 0
        for u in prefix:
            forbid, seen = step(forbid, seen, u), seen | 1 << u
        forbid &= (1 << patterns._LANE) - 1
        before = reference.count_subsequence_matches(prefix, pattern)
        for v in range(1, v_max + 1):
            after = reference.count_subsequence_matches(prefix + [v], pattern)
            assert (forbid >> v & 1) == (after > before), (pattern, prefix, v)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=7), max_size=8))
def test_frontier_marks_exactly_the_completing_values(prefix):
    # prefixes that already contain the pattern are drawn too
    _check_frontier(prefix, 9)


def test_frontier_marks_exactly_the_completing_values_on_every_short_prefix():
    # every prefix of length <= 4 over 1..4, the empty one included
    for k in range(5):
        for prefix in itertools.product(range(1, 5), repeat=k):
            _check_frontier(list(prefix), 5)


def test_avoider_sets_match_filtered_enumeration():
    # one matched pattern of every length from 4 up to the cap, and every
    # pattern with a frontier in every family; the naive search is the oracle
    cases = [(Family.REVISED, n, pattern) for n in range(1, 8)
             for pattern in [(1, 2, 3, 4), (1, 2, 3, 4, 5), (2, 1, 2, 1, 2, 1)]]
    cases += [(family, n, pattern) for family in Family
              for n in range(1, {Family.REVISED: 8, Family.CAYLEY: 6}.get(family, 7))
              for pattern in FRONTIER_PATTERNS]
    for family, n, pattern in cases:
        want = [w for w in enumerate_family(n, family)
                if reference.count_subsequence_matches(w, pattern) == 0]
        assert avoider_words(n, pattern, family) == want
        assert count_avoiders(n, pattern, family) == len(want)
        # a plain wrapper, as a tracer installs, hides the frontier and
        # makes the search call the veto itself
        veto = avoid_filter(pattern)
        got: list = []
        search_family(n, family, lambda e: got.append(tuple(e)), accept=lambda e, v: veto(e, v))
        assert got == want


@pytest.mark.parametrize("family", list(Family))
def test_search_never_calls_a_frontier_veto(family):
    # every family threads the frontier through its state, and finds
    # the same words as a search that calls the veto
    calls = []
    for pattern in FRONTIER_PATTERNS:
        veto = avoid_filter(pattern)
        counted = FrontierVeto(lambda e, v, veto=veto: calls.append(v) or veto(e, v),
                               veto.init, veto.step, veto.limit)
        for n in range(1, 7):
            got: list = []
            want: list = []
            search_family(n, family, lambda e: got.append(tuple(e)), accept=counted)
            search_family(n, family, lambda e: want.append(tuple(e)), accept=lambda e, v: veto(e, v))
            assert got == want, (pattern, n)
    assert calls == []


@pytest.mark.parametrize("family", list(Family))
def test_a_length_past_the_lanes_falls_back_to_the_veto(monkeypatch, family):
    # lanes of 6 bits hold the values up to 5: to length 5 the search
    # keeps the frontier, and at length 6 it calls the veto instead;
    # either way it finds the naive set
    monkeypatch.setattr(patterns, "_LANE", 6)
    assert len(XYXZ_PATTERNS) == 13
    for pattern in XYXZ_PATTERNS:
        veto = avoid_filter(pattern)
        assert veto.limit == 5
        for n in (5, 6):
            calls: list = []
            counted = FrontierVeto(lambda e, v: calls.append(v) or veto(e, v), veto.init, veto.step, veto.limit)
            got: list = []
            search_family(n, family, lambda e: got.append(tuple(e)), accept=counted)
            assert got == [w for w in enumerate_family(n, family)
                           if reference.count_subsequence_matches(w, pattern) == 0], (pattern, n)
            assert bool(calls) == (n == 6), (pattern, n)


@pytest.mark.parametrize("pattern, count, nodes", [((3, 1, 3, 2), 2_327, 3_571), ((2, 3, 1), 503, 1_452)])
def test_search_stops_where_a_missing_value_is_forbidden(monkeypatch, pattern, count, nodes):
    # REVISED at n = 10: a prefix missing a forbidden value below its
    # maximum has no avoiding member, so the search stops there (it
    # computed the candidates of 6,438 and 3,572 nodes without the stop)
    calls = [0]
    real = words._candidates

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(words, "_candidates", counted)
    assert count_avoiders.__wrapped__(10, pattern) == count
    assert calls[0] == nodes


def test_avoider_count_spot_values():
    assert count_avoiders(6, (1, 1, 1)) == 10
    assert count_avoiders(5, (2, 2, 1)) == 4
    assert count_avoiders(6, (3, 1, 2)) == 16
    assert count_avoiders(6, (2, 1, 3)) == 42
    assert count_avoiders(2, (2, 2, 1)) == 1
    assert count_avoiders(1, (1,)) == 0


def test_form_examples():
    assert matches_form((3, 1, 2, 3, 3, 3), "221")
    assert matches_form((2, 1, 2, 2), "211")
    assert not matches_form((2, 1, 2, 1), "211")
    with pytest.raises(ValueError):
        matches_form((1, 1), "999")


def test_forms_cover_exactly_the_avoider_sets():
    by_form = {"221": (2, 2, 1), "312": (3, 1, 2), "321": (3, 2, 1),
               "122": (1, 2, 2), "211": (2, 1, 1)}
    assert set(FORM_NAMES) == set(by_form)
    for name, pattern in by_form.items():
        for n in range(2, 9):
            shaped = {w for w in family_members(n, Family.REVISED) if matches_form(w, name)}
            assert shaped == set(avoider_words(n, pattern))


# matches_form takes any word: on every word of length <= 6 over 1..6,
# members or not, each form accepts this many words, with this SHA-256 of
# repr() of their sorted list.
_FORM_VERDICTS = {
    "122": (32, "9d3f12b9470662f4affc603348b3f732548f8b473a7fa2e0c9e435dbb3b1cbe5"),
    "211": (40, "1acc5f9ac4cbec590de040f166d3e0b9c3d1f91aa33a86a07779fee2a6a85864"),
    "221": (21, "4f92578e628c83d64eb5de0b3839e9030ece916f23e74c8f6600660bdd10cf54"),
    "312": (32, "e8f6a3c9c2cd57dc9e67e35042c6ce25c496598f3c2887622ed44f5e986a1179"),
    "321": (48, "28b16c21781253e47c83b32ba4cabfec46223aadd84bdb78da097e82094f6ff5"),
}


def test_forms_judge_every_small_word_as_pinned():
    words = [w for n in range(1, 7) for w in itertools.product(range(1, 7), repeat=n)]
    assert len(words) == 55_986
    assert set(_FORM_VERDICTS) == set(FORM_NAMES)
    for name, (count, digest) in _FORM_VERDICTS.items():
        accepted = sorted(w for w in words if matches_form(w, name))
        assert (len(accepted), hashlib.sha256(repr(accepted).encode()).hexdigest()) == (count, digest), name


@pytest.mark.parametrize("name", FORM_NAMES)
def test_forms_reject_an_oversized_first_entry_at_once(name):
    # each form holds every value 1..m below its first entry m, so a
    # first entry above the length or below a later entry fits none
    for w in [(10**9, 1), (10**9,) * 3, (2, 1, 3, 2, 2), (1, 10**9)]:
        assert matches_form(w, name) is False


@pytest.mark.parametrize("name", ["312", "321"])
def test_forms_judge_a_word_with_an_entry_past_the_unicode_range(name):
    # its first entry is its maximum and no larger than its length, so
    # only its missing values keep it out of the shape
    assert matches_form((1_200_000,) + (1,) * 1_199_999, name) is False


def test_forms_match_entries_of_two_digits_as_whole_entries():
    # 1 and 11 are different entries although "11" starts with "1"
    m = 12
    staircase = (m, *(e for k in range(m - 1, 0, -1) for e in (k, m)))
    rise = (m, *range(1, m), m)
    for w, fits, other in [(staircase, "312", "321"), (rise, "321", "312")]:
        assert matches_form(w, fits) and not contains(w, tuple(map(int, fits)))
        assert not matches_form(w, other) and contains(w, tuple(map(int, other)))


def test_equal_avoider_sets_for_proved_pairs():
    for n in range(1, 9):
        assert avoider_words(n, (2, 3, 1)) == avoider_words(n, (3, 2, 1))
        assert avoider_words(n, (1, 2, 1)) == avoider_words(n, (2, 1, 1))


def _prefix_lemma(n_max):
    return next(c for c in run_suite("wilf", n_max) if c.name == "prepending-the-maximum-is-neutral")


def test_prefixing_the_maximum_changes_nothing():
    # the wilf suite compares the avoider sets of 12, 121, 231 and 132
    # with those of 212, 2121, 3231 and 3132
    lemma = _prefix_lemma(8)
    assert (lemma.passed, lemma.scope, lemma.counterexample) == (True, "n<=8", None)


def test_prefix_lemma_check_fails_when_the_sets_differ(monkeypatch):
    def wrong(n, pattern, *args, **kwargs):
        # 212 loses its one avoider of length 3, 111
        return [] if (n, tuple(pattern)) == (3, (2, 1, 2)) else avoider_words(n, pattern, *args, **kwargs)

    monkeypatch.setattr("rascent.patterns.avoider_words", wrong)
    lemma = _prefix_lemma(8)
    assert (lemma.passed, lemma.counterexample) == (False, "12")


def test_wilf_classes_of_length_two():
    report = wilf_classes(2, 6)
    assert report.pattern_length == 2
    assert report.n_max == 6
    groups = [cls.patterns for cls in report.classes]
    assert groups == [((1, 1),), ((1, 2), (2, 1))]


def test_wilf_classes_of_length_three_match_known_rows():
    report = wilf_classes(3, 8)
    grouped = {frozenset(cls.patterns) for cls in report.classes}
    assert frozenset({(1, 2, 1), (2, 1, 1)}) in grouped
    assert frozenset({(2, 3, 1), (3, 2, 1)}) in grouped
    assert frozenset({(1, 2, 2), (3, 1, 2)}) in grouped
    # singletons stay alone
    assert frozenset({(1, 1, 1)}) in grouped
    assert frozenset({(2, 1, 3)}) in grouped
    total = sum(len(cls.patterns) for cls in report.classes)
    assert total == 13  # all Cayley permutations of length 3


def test_containment_is_monotone_in_the_pattern():
    patterns = [p for k in (1, 2, 3) for p in family_members(k, Family.CAYLEY)]
    for w in family_members(7, Family.REVISED):
        avoided = {p: avoids(w, p) for p in patterns}
        for small, big in itertools.permutations(patterns, 2):
            if contains(big, small) and avoided[small]:
                assert avoided[big]
