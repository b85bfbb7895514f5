"""Generating trees for revised ascent sequences.

Both trees grow words with `add_entry`, starting from the seed 11 at
level 1; a word of length n sits at level n - 1.  The full tree labels
a word by (max, last entry); the 123-avoiding subtree labels it by
(smallest value topping a strict rise, last entry).  Both label maps
admit self-contained succession rules, so level populations can be
computed by a cheap dynamic program over label counts and checked
against the materialized trees.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, NamedTuple

# Loaded on first use, maybe while a tracer (perfbench/layers.py) has
# wrapped public functions of other modules: so those are called through
# their module; private functions, classes and constants may be bound.
from . import maps as _maps, patterns as _patterns, words as _words
from .words import DEFAULT_CAP, CapExceededError, Family, Word

Label = tuple[int, int]

_PATTERN_123 = (1, 2, 3)


class Rule(enum.Enum):
    FULL = "full"
    AVOID123 = "avoid123"


def rule_children(label: Label) -> list[Label]:
    """Children of a (max, last) label in the full tree.

    A word with label (m, l) has m + 1 extensions: the bounded ones
    keep the maximum, the rest raise it by one.

    >>> rule_children((2, 2))
    [(2, 1), (2, 2), (3, 3)]
    >>> rule_children((2, 1))
    [(2, 1), (3, 2), (3, 3)]
    """
    m, last = label
    if m < 1 or not 1 <= last <= m:
        raise ValueError(f"label out of range: {label}")
    return _rule_children(label)


def _rule_children(label: Label) -> list[Label]:
    m, last = label
    return [(m, i) for i in range(1, last + 1)] + [(m + 1, i) for i in range(last + 1, m + 2)]


def rule_children_123(label: Label) -> list[Label]:
    """Children of a (g, last) label in the 123-avoiding subtree.

    Here g is the smallest-rise-top statistic.  Labels with last >= 2
    always satisfy g = last; a violation means the label could not have
    come from a 123-avoiding word and is rejected.

    >>> rule_children_123((1, 1))
    [(1, 1), (2, 2)]
    >>> rule_children_123((2, 1))
    [(2, 1), (2, 2), (3, 3)]
    >>> rule_children_123((2, 2))
    [(2, 1), (2, 2)]
    """
    g, last = label
    if g < 1 or last < 1:
        raise ValueError(f"label out of range: {label}")
    if last >= 2 and g != last:
        raise ValueError(f"unreachable label for the 123 subtree: {label}")
    return _rule_children_123(label)


def _rule_children_123(label: Label) -> list[Label]:
    # unchecked: the label DP carries an unreachable label on to its check
    g, last = label
    bonus = 1 if last == 1 else 0
    return [(g, 1)] + [(i, i) for i in range(2, g + bonus + 1)]


_RULE_CHILDREN = {
    Rule.FULL: _rule_children,
    Rule.AVOID123: _rule_children_123,
}

def _check_rule(rule: Rule) -> None:
    if not isinstance(rule, Rule):
        raise ValueError(f"unknown rule {rule!r}")


ROOT_LABEL: Label = (1, 1)
ROOT_WORD: Word = (1, 1)


class LabelCounts(NamedTuple):
    """Population of one tree level, keyed by label."""

    level: int
    counts: dict[Label, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def label_counts(rule: Rule, level_max: int) -> list[LabelCounts]:
    """Label populations for levels 1 .. level_max.

    Pure integer dynamic program; counts stay exact however large they
    get.  Label maps are walked in sorted order so runs are repeatable.
    """
    _check_rule(rule)
    if level_max < 1:
        raise ValueError("level_max must be >= 1")
    children = _RULE_CHILDREN[rule]
    out = [LabelCounts(level=1, counts={ROOT_LABEL: 1})]
    for level in range(2, level_max + 1):
        nxt: dict[Label, int] = {}
        for lab, c in sorted(out[-1].counts.items()):
            for child in children(lab):
                nxt[child] = nxt.get(child, 0) + c
        out.append(LabelCounts(level=level, counts=nxt))
    return out


def level_totals(rule: Rule, level_max: int) -> list[int]:
    """Total population per level, by the label dynamic program."""
    return [lc.total for lc in label_counts(rule, level_max)]


def smallest_rise_top(x: Iterable[int]) -> int:
    """The smallest value that ends a strict rise, or 1 if none does.

    Only defined on 123-avoiding revised ascent sequences, where it
    drives the subtree's succession rule.

    >>> smallest_rise_top((2, 1, 2))
    2
    >>> smallest_rise_top((5, 4, 5, 3, 4, 2, 3, 1, 3, 3))
    3
    """
    w = _words.check_word(x)
    if not _words._is_member(w, Family.REVISED):
        raise ValueError(f"not a revised ascent sequence: {w}")
    if _patterns.occurrence_test(_PATTERN_123)(w):
        raise ValueError(f"word contains the pattern 123: {w}")
    return _smallest_rise_top(w)


def _smallest_rise_top(w: Word) -> int:
    best = None
    lowest = w[0]
    for v in w[1:]:
        if v > lowest and (best is None or v < best):
            best = v
        if v < lowest:
            lowest = v
    return 1 if best is None else best


def word_label(x: Iterable[int], rule: Rule) -> Label:
    """Label of a word under either rule."""
    _check_rule(rule)
    if rule is Rule.FULL:
        return _word_label(_words.check_word(x), rule)
    w = tuple(x)  # smallest_rise_top validates it
    return (smallest_rise_top(w), w[-1])


def _word_label(w: Word, rule: Rule) -> Label:
    # word_label on a valid word, and for the 123 rule a 123-avoiding one
    return (max(w) if rule is Rule.FULL else _smallest_rise_top(w), w[-1])


def _children(w: Word, has_123: Callable[[Word], bool] | None = None) -> list[Word]:
    """The children of w, add_entry(w, v) for v = 1 .. max(w) + 1 in
    order; given the compiled 123 test, only the 123-avoiding ones."""
    kids = [_maps._add_entry(w, v) for v in range(1, max(w) + 2)]
    return kids if has_123 is None else [y for y in kids if not has_123(y)]


def expand_level(rule: Rule, n: int, cap: int = DEFAULT_CAP) -> list[Word]:
    """Materialize every word of length n in the tree, sorted.

    Grows the seed 11 with add_entry level by level; the 123 subtree
    keeps only extensions that stay 123-avoiding.

    >>> expand_level(Rule.FULL, 3)
    [(1, 1, 1), (2, 1, 2)]
    """
    _check_rule(rule)
    if n < 2:
        raise ValueError("tree levels start at length 2")
    if n > cap:
        raise CapExceededError(f"length {n} exceeds cap {cap}")
    has_123 = _patterns.occurrence_test(_PATTERN_123) if rule is Rule.AVOID123 else None
    words = [ROOT_WORD]
    for _ in range(n - 2):
        words = [y for w in words for y in _children(w, has_123)]
    return sorted(words)
