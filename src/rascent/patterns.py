"""Pattern containment and avoidance for words with repeated letters.

A pattern is itself a Cayley permutation.  An occurrence of a pattern
p in a word x is a subsequence of x that is order-isomorphic to p with
equalities preserved: picked entries compare to each other exactly as
the corresponding pattern entries do.  So 4134232 has two occurrences
of 123 (134 and 123) and none of 112.

One occurrence core answers every question.  A pattern is compiled
once into a plan that binds its slots in a chosen order; each plan step
records either the earlier step whose value it must equal, or the two
earlier steps whose values it must lie strictly between.  A single
recursion applies that one constraint to each candidate entry.
Counting, containment and avoidance bind the slots in pattern order;
the search veto binds the last slot first, to the candidate value, so
that a match in the prefix is exactly an occurrence the candidate would
complete.  Two factories compile a pattern once for many words:
`occurrence_test` for containment (what `contains` wraps) and
`avoid_filter` for the search veto.

That core stays the one reference, and the search veto for the
patterns of length 4 to 6 that have no frontier.  For length <= 3, and
for the 13 patterns x y x z of length 4, the search instead keeps the
pattern's `frontier`: the bit set of values that would complete an
occurrence, so the veto is one bit test.  One rule, read off the
pattern's three comparisons, updates it per entry; an x y x z pattern
also keeps, in lanes above the forbidden set, what the rule of y x z
would add if each value seen came again.  Tests check the frontier
against the naive oracle and the search it drives against the core.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .words import (
    DEFAULT_CAP,
    AcceptFn,
    Family,
    FrontierVeto,
    StepFn,
    Word,
    _is_cayley,
    check_word,
    enumerate_family,
    search_family,
)

# Occurrence search is exponential in the pattern length, so the engine
# refuses anything longer than this.
PATTERN_CAP = 6
# wilf_classes counts avoiders of every Cayley permutation of one
# length, and there are 75 of length 4 but 541 of length 5.
WILF_LENGTH_CAP = 4


def check_pattern(p: Iterable[int]) -> Word:
    """Validate a pattern: a Cayley permutation of length <= 6."""
    w = check_word(p)
    if len(w) > PATTERN_CAP:
        raise ValueError(f"pattern longer than {PATTERN_CAP}: {w}")
    if not _is_cayley(w):
        raise ValueError(f"pattern must be a Cayley permutation: {w}")
    return w


def _plan(p: Word, order: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    """Compile p for binding its slots in the given order.

    Step s binds slot order[s] and becomes (lo, hi, strict).  With
    strict 0, lo == hi is the earlier step whose value it must equal;
    with strict 1, it must lie strictly between the values of steps lo
    and hi.  A missing bound is -2 or -1, which index the sentinels 0
    and infinity that `_chosen` puts after the step values.

    >>> _plan((1, 2, 1), range(3))
    ((-2, -1, 1), (0, -1, 1), (0, 0, 0))
    """
    steps = []
    for s, slot in enumerate(order):
        seen = {p[order[t]]: t for t in range(s)}
        c = p[slot]
        if c in seen:
            steps.append((seen[c], seen[c], 0))
        else:
            lo = max((d for d in seen if d < c), default=None)
            hi = min((d for d in seen if d > c), default=None)
            steps.append((-2 if lo is None else seen[lo], -1 if hi is None else seen[hi], 1))
    return tuple(steps)


def _chosen(plan: tuple) -> list:
    # one value per step, then the two bound sentinels (entries are >= 1)
    return [0] * len(plan) + [0, math.inf]


def _match(w: Sequence[int], plan: tuple, chosen: list, s: int, start: int,
           first_only: bool) -> int:
    """Number of ways to bind steps s.. of the plan to positions start..
    of w, in increasing order, given the values of steps ..s-1 in chosen;
    with first_only, 1 as soon as one is found."""
    if s == len(plan):
        return 1
    lo, hi, strict = plan[s]
    low, high = chosen[lo] + strict, chosen[hi] - strict
    total = 0
    for i in range(start, len(w) - len(plan) + s + 1):
        v = w[i]
        if low <= v <= high:
            chosen[s] = v
            total += _match(w, plan, chosen, s + 1, i + 1, first_only)
            if first_only and total:
                break
    return total


def count_occurrences(x: Iterable[int], pattern: Iterable[int]) -> int:
    """Number of occurrences of the pattern in x.

    >>> count_occurrences((1, 1, 1), (1, 1))
    3
    >>> count_occurrences((4, 1, 3, 4, 2, 3, 2), (1, 2, 3))
    2
    """
    w, p = check_word(x), check_pattern(pattern)
    plan = _plan(p, range(len(p)))
    return _match(w, plan, _chosen(plan), 0, 0, first_only=False)


def occurrence_test(pattern: Iterable[int]) -> Callable[[Word], bool]:
    """Compile the pattern once into a containment test for many words.

    The test takes a word already validated by check_word and says
    whether the pattern occurs in it, stopping at the first occurrence.

    >>> has_12 = occurrence_test((1, 2))
    >>> has_12((2, 1, 1)), has_12((2, 1, 2))
    (False, True)
    """
    p = check_pattern(pattern)
    plan = _plan(p, range(len(p)))
    chosen = _chosen(plan)

    def test(w: Word) -> bool:
        return _match(w, plan, chosen, 0, 0, True) > 0

    return test


def contains(x: Iterable[int], pattern: Iterable[int]) -> bool:
    """Existence version of count_occurrences, with early exit."""
    w = check_word(x)
    return occurrence_test(pattern)(w)


def avoids(x: Iterable[int], pattern: Iterable[int]) -> bool:
    """True when x has no occurrence of the pattern.

    >>> avoids((1, 2, 3, 4), (2, 1))
    True
    >>> avoids((4, 1, 3, 4, 2, 3, 2), (1, 1, 2))
    True
    """
    return not contains(x, pattern)


# The frontier of a pattern p of length <= 3 after a prefix is the bit
# set of the values v that would complete an occurrence ending at v.
# Appending u adds each v for which some earlier a makes (a, u, v) an
# occurrence.  Let A be the values seen before u that stand to u as p1
# to p2.  If A is empty the step adds nothing; if p3 = p1 it adds A;
# otherwise it adds the values that stand to u as p3 to p2 and lie
# above min A (p3 > p1) or below max A (p3 < p1), a bound that only
# cuts when p3 and p1 lie on the same side of p2.  Length 2 adds the
# values that stand to u as p2 to p1; length 1 forbids every value.
# Each kind of step is one closure, so that no step calls a helper.

def _relation(x: int, y: int) -> tuple[int, int]:
    # (c, d) with (c << u) + d the values that stand to u as x to y
    return (1, 0) if x == y else (-2, 0) if x > y else (1, -2)


def _frontier_step(p: Word) -> StepFn:
    if len(p) == 1:
        return lambda forbid, seen, u: forbid
    (ca, da), (c, d) = _relation(p[0], p[1]), _relation(p[-1], p[-2])
    if len(p) == 2:
        return lambda forbid, seen, u: forbid | (c << u) + d
    if p[2] == p[0]:
        return lambda forbid, seen, u: forbid | seen & (ca << u) + da
    if (p[0] - p[1]) * (p[2] - p[1]) <= 0:
        return lambda forbid, seen, u: forbid | (c << u) + d if seen & (ca << u) + da else forbid
    if p[2] > p[0]:
        def step(forbid: int, seen: int, u: int) -> int:
            a = seen & (ca << u) + da  # a ^ -a: the values above min A
            return forbid | (c << u) + d & (a ^ -a) if a else forbid
    else:
        def step(forbid: int, seen: int, u: int) -> int:
            a = seen & (ca << u) + da  # the values below max A: (1 << max A) - 1
            return forbid | (c << u) + d & (1 << a.bit_length() - 1) - 1 if a else forbid
    return step


# A pattern x y x z of length 4 is completed by appending v to a prefix
# holding a, b, u in order exactly when a = u and (b, u, v) is an
# occurrence of y x z.  The first occurrence of u gives b the most room,
# so appending u again forbids what the length-3 step of y x z adds for
# u when it is given, in place of seen, the values seen since u first
# came.  That step adds the union of what it adds for each of those
# values alone, so the frontier keeps, for each value w seen, the set
# G_w that appending w again would add: the union, over the values b
# seen since w first came, of what the step adds for w given b alone.
#
# The sets sit in the same int, in lanes of _LANE bits.  Lane 0 is the
# forbidden set; lane w is G_w less the forbidden set, with bit 0 (no
# value) marking w as seen.  Appending u adds lane u to lane 0 if u was
# seen, adds to every marked lane w the step's set for w after u alone
# (one table row per u), clears the forbidden values from every lane,
# and marks lane u if u is new.  The frontier so holds only what later
# steps read, not the values seen since each value came, and the
# search's block memo, which keys on it, lists far fewer states.  A
# lane holds values up to _LANE - 1, so the search calls the veto for
# longer words.

_LANE = 64


@lru_cache(maxsize=None)
def _lane_step(p: Word, width: int) -> StepFn:
    inner = _frontier_step((p[1], p[0], p[3]))
    lane = (1 << width) - 1
    marks = sum(1 << width * w for w in range(1, width))
    adds: list = [None] * width  # row u, filled when first needed

    def step(forbid: int, seen: int, u: int) -> int:
        add = adds[u]
        if add is None:  # a length-3 step may add a negative set: mask it
            add = adds[u] = sum((inner(0, 1 << u, w) & lane) << width * w for w in range(1, width))
        f = forbid & lane
        if seen >> u & 1:
            f |= forbid >> width * u & lane - 1  # G_u, without the mark
        # (forbid & marks) * (lane ^ f) covers each marked lane, less f
        grown = f | (forbid | add) & (forbid & marks) * (lane ^ f)
        return grown if seen >> u & 1 else grown | 1 << width * u
    return step


def frontier(pattern: Iterable[int]) -> tuple[int, StepFn]:
    """The forbidden-next-value frontier of a pattern of length <= 3 or
    of the form x y x z.

    Returns (init, step): init is the frontier of the empty prefix, and
    step(forbid, seen, u) the frontier after u is appended to a prefix
    with frontier forbid and value bit set seen.  Bit v of the frontier,
    for v < _LANE, is on exactly when appending v completes a new
    occurrence; a length-4 frontier keeps more state above those bits.

    >>> init, step = frontier((1, 3, 2))
    >>> forbid = step(step(init, 0, 2), 1 << 2, 5)  # after the prefix 2 5
    >>> [v for v in range(1, 8) if forbid >> v & 1]
    [3, 4]
    >>> init, step = frontier((2, 1, 2, 1))
    >>> forbid = step(step(step(init, 0, 2), 1 << 2, 1), 3 << 1, 2)  # after 2 1 2
    >>> [v for v in range(1, 8) if forbid >> v & 1]
    [1]
    """
    p = check_pattern(pattern)
    if len(p) <= 3:
        return (-1 if len(p) == 1 else 0), _frontier_step(p)
    if len(p) == 4 and p[2] == p[0]:
        return 0, _lane_step(p, _LANE)
    raise ValueError(f"frontiers cover patterns of length <= 3 and x y x z, got {p}")


def avoid_filter(pattern: Iterable[int]) -> AcceptFn:
    """The search veto for avoiding the pattern: an `accept` for
    `search_family` that refuses exactly the candidates completing an
    occurrence in a prefix that avoids it.  For the patterns with a
    `frontier` it is a FrontierVeto, so the search clears the frontier
    from its candidates instead of calling it (for x y x z, up to
    length _LANE - 1, the longest its lanes hold).

    >>> veto = avoid_filter((1, 2))
    >>> veto([2, 1], 1), veto([2, 1], 3)
    (True, False)
    """
    # The last slot is bound first, to the candidate, so a match of the
    # rest in the prefix is an occurrence the candidate would complete.
    p = check_pattern(pattern)
    k = len(p)
    plan = _plan(p, (k - 1,) + tuple(range(k - 1)))
    chosen = _chosen(plan)

    def accept(entries: list[int], v: int) -> bool:
        chosen[0] = v
        return not _match(entries, plan, chosen, 1, 0, True)

    if k > 4 or k == 4 and p[2] != p[0]:
        return accept
    return FrontierVeto(accept, *frontier(p), limit=_LANE - 1 if k == 4 else math.inf)


def avoider_words(n: int, pattern: Iterable[int], family: Family = Family.REVISED,
                  cap: int = DEFAULT_CAP) -> list[Word]:
    """Members of the family of length n avoiding the pattern, in
    lexicographic order.  Generation prunes any prefix that already
    contains the pattern, so the work scales with the avoider count."""
    out: list[Word] = []
    search_family(n, family, lambda e: out.append(tuple(e)),
                  accept=avoid_filter(pattern), cap=cap)
    return out


@lru_cache(maxsize=None)
def count_avoiders(n: int, pattern: Word, family: Family = Family.REVISED,
                   cap: int = DEFAULT_CAP) -> int:
    """Number of members of the family of length n avoiding the pattern.

    >>> count_avoiders(6, (1, 1, 1))
    10
    """
    total = [0]

    def leaf(_entries: list[int]) -> None:
        total[0] += 1

    search_family(n, family, leaf, accept=avoid_filter(pattern), cap=cap)
    return total[0]


class WilfClass(NamedTuple):
    """Patterns sharing one avoidance-count sequence."""

    patterns: tuple[Word, ...]
    counts: tuple[int, ...]


class WilfReport(NamedTuple):
    """Partition of all patterns of one length by count sequence.

    Counts run over n = 1 .. n_max, so equality of two classes is only
    evidence up to that length, not a theorem.
    """

    pattern_length: int
    n_max: int
    classes: tuple[WilfClass, ...]


def wilf_classes(pattern_length: int, n_max: int,
                 family: Family = Family.REVISED,
                 cap: int = DEFAULT_CAP) -> WilfReport:
    """Group all Cayley permutations of one length by their avoidance
    counts in the family, for n = 1 .. n_max.

    Engine cap: pattern_length <= WILF_LENGTH_CAP.
    """
    if not 1 <= pattern_length <= WILF_LENGTH_CAP:
        raise ValueError(f"pattern length must be between 1 and {WILF_LENGTH_CAP}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    groups: dict[tuple[int, ...], list[Word]] = {}
    for p in enumerate_family(pattern_length, Family.CAYLEY):
        seq = tuple(count_avoiders(n, p, family, cap=cap) for n in range(1, n_max + 1))
        groups.setdefault(seq, []).append(p)
    classes = tuple(
        WilfClass(patterns=tuple(sorted(ps)), counts=seq)
        for seq, ps in sorted(groups.items())
    )
    return WilfReport(pattern_length=pattern_length, n_max=n_max, classes=classes)


# ---------------------------------------------------------------------------
# The five structurally solved avoidance classes, each as its shape: a
# revised ascent sequence fits the shape exactly when it avoids the
# pattern.  In the shapes m is the first entry, k* is a run of k's and k+
# a nonempty one; 312 and 321 are regular expressions over the entries,
# each written as its digits and a comma.

def _fits(x: Word, shape: Callable[[int], str]) -> bool:
    # every shape holds each of 1..m and nothing else: a word whose first
    # entry is not its maximum or that misses a value below it fits none,
    # and builds no expression
    m = x[0]
    if m != max(x) or len(set(x)) != m:
        return False
    return re.fullmatch(shape(m), "".join(f"{v}," for v in x)) is not None


def _c(v: int, times: str = "") -> str:
    return f"(?:{v},){times}"  # entry v, repeated as times says


def _form_221(x: Word) -> bool:
    # m 1 2 ... (m-1) m^(n-m)
    m = x[0]
    return m <= len(x) and x == (m, *range(1, m)) + (m,) * (len(x) - m)


def _form_312(x: Word) -> bool:
    # m+ (m-1) m+ (m-1)* (m-2) m+ (m-2)* ... 1 m+ 1*
    return _fits(x, lambda m: _c(m, "+") + "".join(_c(k) + _c(m, "+") + _c(k, "*") for k in range(m - 1, 0, -1)))


def _form_321(x: Word) -> bool:
    # m+ 1 m* 2 m* ... (m-2) m* (m-1) m+ (m-1)*, and 1+ for m = 1
    return _fits(x, lambda m: _c(m, "+") + "".join(_c(k) + _c(m, "*") for k in range(1, m - 1))
                 + (_c(m - 1) + _c(m, "+") + _c(m - 1, "*") if m > 1 else ""))


def _form_122(x: Word) -> bool:
    # a1^(b+1) then for a1 > a2 > ... > a_i = 1: ascending run a_{j+1}..a_j
    # followed by a_{j+1}^*; the word ends once level 1 is reached.
    i, n, cur = 0, len(x), x[0]
    while i < n and x[i] == cur:
        i += 1
    while cur > 1:
        if i >= n or x[i] >= cur:
            return False
        nxt = x[i]
        for v in range(nxt, cur + 1):  # ascending run nxt, nxt+1, ..., cur
            if i >= n or x[i] != v:
                return False
            i += 1
        while i < n and x[i] == nxt:
            i += 1
        cur = nxt
    return i == n


def _form_211(x: Word) -> bool:
    # m B1 m B2 ... m Bk m: the last entry is m, the entries below m are
    # 1..m-1, each once, and between two m's they rise
    m = x[0]
    below = sorted(v for v in x if v != m)
    return (x[-1] == m and len(below) == m - 1 and below == [*range(1, m)]
            and all(a < b for a, b in zip(x, x[1:]) if m not in (a, b)))


_FORM_CHECKS = {
    "221": _form_221,
    "312": _form_312,
    "321": _form_321,
    "122": _form_122,
    "211": _form_211,
}

FORM_NAMES = tuple(sorted(_FORM_CHECKS))


def matches_form(x: Iterable[int], form: str) -> bool:
    """Test a word against one of the named shapes.

    >>> matches_form((3, 1, 2, 3, 3, 3), "221")
    True
    >>> matches_form((2, 1, 2, 2), "211")
    True
    """
    w = check_word(x)
    try:
        checker = _FORM_CHECKS[form]
    except KeyError:
        raise ValueError(f"unknown form {form!r}; choose from {FORM_NAMES}") from None
    return checker(w)
