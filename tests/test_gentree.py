"""Succession rules, label dynamics, and tree-based counting."""

from collections import Counter

import pytest

from rascent.gentree import (
    ROOT_LABEL,
    ROOT_WORD,
    Rule,
    expand_level,
    label_counts,
    level_totals,
    rule_children,
    rule_children_123,
    smallest_rise_top,
    word_label,
)
from rascent.maps import add_entry
from rascent.oracle import expand_gf, fishburn
from rascent.patterns import avoider_words, avoids
from rascent.words import CapExceededError, Family, family_members


def test_roots():
    assert ROOT_LABEL == (1, 1)
    assert ROOT_WORD == (1, 1)
    assert word_label(ROOT_WORD, Rule.FULL) == ROOT_LABEL
    assert word_label(ROOT_WORD, Rule.AVOID123) == ROOT_LABEL


def test_generic_rule_examples():
    assert rule_children((2, 2)) == [(2, 1), (2, 2), (3, 3)]
    assert rule_children((2, 1)) == [(2, 1), (3, 2), (3, 3)]
    assert rule_children((1, 1)) == [(1, 1), (2, 2)]
    with pytest.raises(ValueError):
        rule_children((2, 4))


def test_avoid123_rule_examples():
    assert rule_children_123((1, 1)) == [(1, 1), (2, 2)]
    assert rule_children_123((2, 1)) == [(2, 1), (2, 2), (3, 3)]
    assert rule_children_123((2, 2)) == [(2, 1), (2, 2)]
    with pytest.raises(ValueError):
        rule_children_123((2, 3))  # labels with last >= 2 force g == last


def test_generic_children_match_rule():
    for n in range(2, 9):
        for x in family_members(n, Family.REVISED):
            got = Counter(word_label(add_entry(x, v), Rule.FULL)
                          for v in range(1, max(x) + 2))
            assert got == Counter(rule_children(word_label(x, Rule.FULL)))


def test_avoid123_children_match_rule():
    for n in range(2, 9):
        for x in avoider_words(n, (1, 2, 3)):
            children = [add_entry(x, v) for v in range(1, max(x) + 2)]
            children = [y for y in children if avoids(y, (1, 2, 3))]
            got = Counter(word_label(y, Rule.AVOID123) for y in children)
            assert got == Counter(rule_children_123(word_label(x, Rule.AVOID123)))


def test_smallest_rise_top_examples():
    assert smallest_rise_top((2, 1, 2)) == 2
    assert smallest_rise_top((1, 1)) == 1
    assert smallest_rise_top((5, 4, 5, 3, 4, 2, 3, 1, 3, 3)) == 3
    with pytest.raises(ValueError):
        smallest_rise_top((3, 1, 2, 3))  # contains a strict triple rise


def test_level_totals_prefixes():
    assert level_totals(Rule.FULL, 8) == [1, 2, 5, 15, 53, 217, 1014, 5335]
    assert level_totals(Rule.AVOID123, 8) == [1, 2, 4, 9, 22, 57, 154, 429]


def test_level_totals_match_series_far_out():
    assert level_totals(Rule.FULL, 25) == list(fishburn(25))
    assert level_totals(Rule.AVOID123, 25) == list(expand_gf("b123", 26))[1:]


def test_expanded_levels_match_enumeration():
    for n in range(2, 9):
        assert tuple(expand_level(Rule.FULL, n)) == family_members(n, Family.REVISED)
        assert expand_level(Rule.AVOID123, n) == avoider_words(n, (1, 2, 3))


def test_expand_level_refuses_lengths_outside_the_tree():
    with pytest.raises(ValueError, match="tree levels start at length 2"):
        expand_level(Rule.FULL, 1)
    with pytest.raises(CapExceededError, match="length 6 exceeds cap 5"):
        expand_level(Rule.AVOID123, 6, cap=5)


def test_label_dp_matches_materialized_words():
    for rule in (Rule.FULL, Rule.AVOID123):
        for n in range(2, 9):
            got = Counter(word_label(w, rule) for w in expand_level(rule, n))
            assert dict(got) == label_counts(rule, n - 1)[-1].counts


def test_avoid123_labels_obey_invariant():
    for lc in label_counts(Rule.AVOID123, 25):
        for (g, last) in lc.counts:
            assert last < 2 or g == last


def test_label_counts_shape():
    levels = label_counts(Rule.FULL, 4)
    assert [lc.level for lc in levels] == [1, 2, 3, 4]
    assert levels[0].counts == {(1, 1): 1}
    assert levels[0].total == 1
    assert levels[3].total == 15
