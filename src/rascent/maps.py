"""Bijections between ascent sequences, revised ascent sequences and
their pattern-restricted relatives.

The centrepiece is `revise`, which relabels an ascent sequence of
length n into a revised ascent sequence of length n + 1, and its
constructive inverse `unrevise`.  The one-letter extension `add_entry`
and its inverse `remove_entry` are the growth operations underlying
both the bijection and the generating trees.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

# Loaded on first use, maybe while a tracer (perfbench/layers.py) has
# wrapped public functions of other modules: so those are called through
# their module; private functions, classes and constants may be bound.
from . import patterns as _patterns, words as _words
from .words import Family, Word


class ReviseTrace(NamedTuple):
    """Full record of one application of `revise`.

    source    the ascent sequence that went in
    relabeled the same word after the incremental relabeling pass
    revised   the output: max(relabeled) prepended to relabeled
    bottoms   ascent-bottom positions of the source, in increasing order
    """

    source: Word
    relabeled: Word
    revised: Word
    bottoms: tuple[int, ...]


def revise(x: Iterable[int]) -> ReviseTrace:
    """Turn an ascent sequence into a revised ascent sequence.

    Walk the ascent-bottom positions of the source from left to right;
    at each such position i, bump every earlier entry that is >= the
    current entry at i.  Comparisons use the values as already bumped
    by earlier rounds.  Finally prepend the maximum of the result.

    >>> revise((1, 2, 1, 3, 2, 1, 2, 4)).revised
    (5, 4, 5, 3, 5, 4, 1, 2, 4)
    >>> revise((1,)).revised
    (1, 1)
    """
    w = _words.check_word(x)
    if not _words._is_ascent(w):
        raise ValueError(f"not an ascent sequence: {w}")
    return _revise(w)


def _revise(w: Word) -> ReviseTrace:
    bottoms = _words._positions(_words._stats(w)[1])
    relabeled = relabel(w, bottoms)
    return ReviseTrace(source=w, relabeled=relabeled, revised=(max(relabeled),) + relabeled, bottoms=bottoms)


def relabel(w: Word, positions: Iterable[int]) -> Word:
    """The bumping pass of `revise`, driven by the given positions.

    For each position i in increasing order, every earlier entry that
    is >= the current entry at i goes up by one.  w is not checked.

    >>> relabel((1, 2, 1, 3, 2, 1, 2, 4), (1, 3, 6, 7))
    (4, 5, 3, 5, 4, 1, 2, 4)
    """
    work = list(w)
    for i in sorted(positions):
        vi = work[i - 1]
        for j in range(i - 1):
            if work[j] >= vi:
                work[j] += 1
    return tuple(work)


def unrevise(y: Iterable[int]) -> Word:
    """The unique ascent sequence that `revise` maps onto y.

    Peels the last entry with `remove_entry` down to the length-2 seed,
    collecting the removed values; they are exactly x_n, ..., x_2.

    >>> unrevise((2, 1, 2))
    (1, 2)
    >>> unrevise((1, 1))
    (1,)
    """
    w = _words.check_word(y)
    if len(w) < 2:
        raise ValueError("input must have length >= 2")
    if not _words._is_member(w, Family.REVISED):
        raise ValueError(f"not a revised ascent sequence: {w}")
    return _unrevise(w)


def _unrevise(w: Word) -> Word:
    tail: list[int] = []
    while len(w) > 2:
        tail.append(w[-1])
        w = _peel(w)
    # the only revised ascent sequence of length 2 is 11
    return (1,) + tuple(reversed(tail))


def add_entry(x: Iterable[int], v: int) -> Word:
    """Append v, bumping earlier entries when v starts a new ascent.

    For v <= x_n the word is plainly extended.  Otherwise every entry
    before position n that is >= x_n gets incremented, and v lands at
    the end.  Valid range: 1 <= v <= max(x) + 1.

    >>> add_entry((1, 1), 2)
    (2, 1, 2)
    >>> add_entry((2, 1, 2), 3)
    (3, 1, 2, 3)
    """
    w = _words.check_word(x)
    if not 1 <= v <= max(w) + 1:
        raise ValueError(f"entry {v} out of range for {w}")
    return _add_entry(w, v)


def _add_entry(w: Word, v: int) -> Word:
    last = w[-1]
    if v <= last:
        return w + (v,)
    return (*[e + 1 if e >= last else e for e in w[:-1]], last, v)


def remove_entry(y: Iterable[int]) -> Word:
    """Undo `add_entry`: strip the final entry and its bumps.

    >>> remove_entry((3, 1, 2, 3))
    (2, 1, 2)
    >>> remove_entry((1, 1, 1))
    (1, 1)
    """
    w = _words.check_word(y)
    if len(w) < 2:
        raise ValueError("input must have length >= 2")
    return _peel(w)


def _peel(w: Word) -> Word:
    # remove_entry on a word already validated, of length >= 2
    if w[-1] <= w[-2]:
        return w[:-1]
    pivot = w[-2]  # the new last entry: only the entries above it come down
    return tuple([e - 1 if e > pivot else e for e in w[:-1]])


def complement(x: Iterable[int]) -> Word:
    """Replace each entry v by max(x) + 1 - v.

    An involution on Cayley permutations.  Every ascent becomes a
    descent at the same two positions, so the ascent tops of x are the
    descent bottoms of its complement and the ascent bottoms of x are
    its descent tops; the leftmost-occurrence set stays the same.

    >>> from rascent.words import ascent_tops, descent_bottoms
    >>> w = (1, 3, 5, 1, 4, 4, 3, 1, 2)
    >>> complement(w)
    (5, 3, 1, 5, 2, 2, 3, 5, 4)
    >>> sorted(ascent_tops(w)), sorted(descent_bottoms(complement(w)))
    ([1, 2, 3, 5, 9], [1, 2, 3, 5, 9])
    """
    return _complement(_words.check_word(x))


def _complement(w: Sequence[int]) -> Word:
    # complement on a valid word, as a tuple or bytes from the search
    m = max(w)
    return tuple([m + 1 - v for v in w])


def standardize(x: Iterable[int]) -> Word:
    """Relabel the values by their rank, preserving order and ties.

    >>> standardize((7, 4, 2, 4, 3, 2, 6))
    (5, 3, 1, 3, 2, 1, 4)
    """
    w = _words.check_word(x)
    rank = {v: r for r, v in enumerate(sorted(set(w)), start=1)}
    return tuple(rank[v] for v in w)


def shift_trim(x: Iterable[int]) -> Word:
    """Cyclic value shift followed by dropping the last entry.

    Every value goes up by one, the new top value wraps around to 1,
    and the final position is removed.  Restricted to 211-avoiding
    revised ascent sequences this lands bijectively on the 122-avoiding
    modified ascent sequences, one letter shorter.

    >>> shift_trim((6, 4, 6, 3, 6, 1, 2, 6, 5, 6))
    (1, 5, 1, 4, 1, 2, 3, 1, 6)
    """
    w = _words.check_word(x)
    if len(w) < 2:
        raise ValueError("input must have length >= 2")
    if not _words._is_member(w, Family.REVISED):
        raise ValueError(f"not a revised ascent sequence: {w}")
    if _patterns.occurrence_test((2, 1, 1))(w):
        raise ValueError(f"input contains the pattern 211: {w}")
    return _shift_trim(w)


def _shift_trim(w: Word) -> Word:
    top = max(w)
    return tuple(1 if v == top else v + 1 for v in w[:-1])
