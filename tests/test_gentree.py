"""Succession rules, label dynamics, and tree-based counting."""

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
from rascent.patterns import avoider_words
from rascent.words import CapExceededError, Family, enumerate_family


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
        rule_children((2, 3))  # no word's last entry exceeds its maximum
    with pytest.raises(ValueError):
        rule_children((2, 4))


def test_avoid123_rule_examples():
    assert rule_children_123((1, 1)) == [(1, 1), (2, 2)]
    assert rule_children_123((2, 1)) == [(2, 1), (2, 2), (3, 3)]
    assert rule_children_123((2, 2)) == [(2, 1), (2, 2)]
    with pytest.raises(ValueError):
        rule_children_123((2, 3))  # labels with last >= 2 force g == last


def test_smallest_rise_top_examples():
    assert smallest_rise_top((2, 1, 2)) == 2
    assert smallest_rise_top((1, 1)) == 1
    assert smallest_rise_top((5, 4, 5, 3, 4, 2, 3, 1, 3, 3)) == 3
    with pytest.raises(ValueError):
        smallest_rise_top((3, 1, 2, 3))  # contains a strict triple rise


def test_level_totals_prefixes():
    assert level_totals(Rule.FULL, 8) == [1, 2, 5, 15, 53, 217, 1014, 5335]
    assert level_totals(Rule.AVOID123, 8) == [1, 2, 4, 9, 22, 57, 154, 429]


def test_expanded_levels_match_enumeration():
    for n in range(2, 9):
        assert expand_level(Rule.FULL, n) == enumerate_family(n, Family.REVISED)
        assert expand_level(Rule.AVOID123, n) == avoider_words(n, (1, 2, 3))


def test_expand_level_refuses_lengths_outside_the_tree():
    with pytest.raises(ValueError, match="tree levels start at length 2"):
        expand_level(Rule.FULL, 1)
    with pytest.raises(CapExceededError, match="length 6 exceeds cap 5"):
        expand_level(Rule.AVOID123, 6, cap=5)


@pytest.mark.parametrize("call", [
    lambda rule: word_label((3, 2, 3, 1, 2), rule),
    lambda rule: label_counts(rule, 3),
    lambda rule: level_totals(rule, 3),
    lambda rule: expand_level(rule, 6),
], ids=["word_label", "label_counts", "level_totals", "expand_level"])
@pytest.mark.parametrize("rule", ["full", "avoid123", None])
def test_a_rule_that_is_not_a_rule_is_refused(call, rule):
    # the value of a Rule is no Rule: word_label once labelled it as the
    # 123 rule and expand_level grew the full tree
    with pytest.raises(ValueError, match=f"unknown rule {rule!r}"):
        call(rule)


def test_label_counts_shape():
    levels = label_counts(Rule.FULL, 4)
    assert [lc.level for lc in levels] == [1, 2, 3, 4]
    assert levels[0].counts == {(1, 1): 1}
    assert levels[0].total == 1
    assert levels[3].total == 15
