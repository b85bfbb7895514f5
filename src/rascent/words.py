"""Words over the positive integers and their ascent statistics.

A word x = x_1 x_2 ... x_n (every entry at least 1) is a Cayley
permutation when its set of values is {1, ..., max(x)}.  Four classical
position statistics are attached to a word: the ascent tops and bottoms
and the descent tops and bottoms.  By convention position 1 belongs to
all four sets.  Matching one of these sets against the set of leftmost
occurrences singles out four families of Cayley permutations; the
ascent-bottom variant is the family of revised ascent sequences that
most of this package revolves around.

Positions are 1-based everywhere.  Words are plain tuples of ints.
"""

from __future__ import annotations

import enum
import math
import sys
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

Word = tuple[int, ...]

# Exhaustive generation refuses lengths above this unless the caller
# raises the cap explicitly.  Counts grow like the Fishburn numbers,
# so every extra unit of length costs roughly a factor of eight.
DEFAULT_CAP = 14


class CapExceededError(Exception):
    """Enumeration request exceeds the configured length cap."""


class Family(enum.Enum):
    """Families of words singled out by their statistic sets.

    ASCENT    classical ascent sequences: x_1 = 1 and each entry is at
              most one more than the number of ascent tops of the
              preceding prefix.
    CAYLEY    words whose image is an initial segment {1..max}.
    MODIFIED  Cayley permutations whose ascent-top set equals the set
              of leftmost occurrences (modified ascent sequences).
    REVISED   Cayley permutations whose ascent-bottom set equals the
              set of leftmost occurrences (revised ascent sequences).
    DESTOP    like REVISED but matching descent tops instead.
    DESBOT    like MODIFIED but matching descent bottoms instead.
    """

    ASCENT = "asc"
    CAYLEY = "cayley"
    MODIFIED = "mod"
    REVISED = "rasc"
    DESTOP = "destop"
    DESBOT = "desbot"


def check_word(x: Iterable[int]) -> Word:
    """Return x as a tuple, rejecting anything that is not a valid word."""
    w = tuple(x)
    if not w:
        raise ValueError("word must be nonempty")
    for v in w:
        # a plain int takes the cheap test, and only anything else the full one
        if type(v) is not int or v < 1:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"word entries must be integers >= 1, got {v!r}")
    return w


def parse_word(text: str) -> Word:
    """Parse the textual form of a word.

    Words with all entries at most 9 are written as bare digit strings;
    anything else is comma-separated.

    >>> parse_word("135144312")
    (1, 3, 5, 1, 4, 4, 3, 1, 2)
    >>> parse_word("10,1,2")
    (10, 1, 2)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    parts = [p.strip() for p in text.split(",")] if "," in text else list(text)
    # str.isdigit alone also accepts characters such as "²" that int() rejects
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"bad word: {text!r}")
    return check_word(tuple(int(p) for p in parts))


def format_word(x: Iterable[int]) -> str:
    """Serialize a word; inverse of parse_word.

    >>> format_word((1, 3, 5, 1, 4, 4, 3, 1, 2))
    '135144312'
    >>> format_word((10, 1, 2))
    '10,1,2'
    """
    return _format_word(check_word(x))


def _format_word(w: Iterable[int]) -> str:
    # format_word on a valid word, as a tuple or the search's entry list;
    # this runs once per word enumerate writes, so no max() over w
    try:
        text = bytes(w).translate(_DIGITS)
    except ValueError:  # an entry above 255
        text = b","
    if text.isdigit():
        return text.decode()
    return ",".join(map(str, w))


# entry v of a word is byte v, written as its digit when v <= 9 and as a
# comma, which no digit string holds, when v >= 10
_DIGITS = bytes.maketrans(bytes(range(256)), b"0123456789" + b"," * 246)


def ascent_tops(x: Iterable[int]) -> frozenset[int]:
    """Positions i with x_{i-1} < x_i, together with position 1.

    >>> sorted(ascent_tops((1, 3, 5, 1, 4, 4, 3, 1, 2)))
    [1, 2, 3, 5, 9]
    """
    return frozenset(_positions(_stats(check_word(x))[0]))


def ascent_bottoms(x: Iterable[int]) -> frozenset[int]:
    """Positions i < n with x_i < x_{i+1}, together with position 1."""
    return frozenset(_positions(_stats(check_word(x))[1]))


def descent_tops(x: Iterable[int]) -> frozenset[int]:
    """Positions i < n with x_i > x_{i+1}, together with position 1."""
    return frozenset(_positions(_stats(check_word(x))[2]))


def descent_bottoms(x: Iterable[int]) -> frozenset[int]:
    """Positions i with x_{i-1} > x_i, together with position 1."""
    return frozenset(_positions(_stats(check_word(x))[3]))


# The statistics of a word already validated by check_word (a tuple, the
# search's entry list, or bytes with entry v as byte v) come from one
# kernel, _stats, which returns the position bit sets (asctop, ascbot,
# destop, desbot, nub), bit i for position i, from one pass over the
# word; _positions lists a bit set in order.  A Cayley-based family is
# cut out by the field in _MARKS whose set must equal the leftmost
# occurrences, the nub (for CAYLEY, the nub itself).

def _positions(bits: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, bits.bit_length()) if bits >> i & 1)


def _stats(w: Sequence[int]) -> tuple[int, int, int, int, int]:
    # up and down mark the later position of each ascent and descent (an
    # ascent top, a descent bottom), and one shift down marks the earlier;
    # position 1 belongs to all four statistics
    up = down = seen = nub = 0
    bit, prev = 1, w[0]
    for v in w:
        bit <<= 1
        if v > prev:
            up |= bit
        elif v < prev:
            down |= bit
        prev = v
        if not seen >> v & 1:
            seen |= 1 << v
            nub |= bit
    return 2 | up, 2 | up >> 1, 2 | down >> 1, 2 | down, nub


def _is_cayley(w: Word) -> bool:
    # entries are >= 1, so the values are {1..max} exactly when there are max of them
    return len(set(w)) == max(w)


def _is_ascent(w: Word) -> bool:
    if w[0] != 1:
        return False
    atop = 1
    for i in range(1, len(w)):
        if w[i] > atop + 1:
            return False
        if w[i] > w[i - 1]:
            atop += 1
    return True


_MARKS = {Family.CAYLEY: 4, Family.MODIFIED: 0, Family.REVISED: 1, Family.DESTOP: 2, Family.DESBOT: 3}


def _is_member(w: Word, family: Family) -> bool:
    if family is Family.ASCENT:
        return _is_ascent(w)
    stats = _stats(w)
    return _is_cayley(w) and stats[_MARKS[family]] == stats[4]


class StatSets(NamedTuple):
    """The four statistic sets of one word."""

    asctop: frozenset[int]
    ascbot: frozenset[int]
    destop: frozenset[int]
    desbot: frozenset[int]


def stat_sets(x: Iterable[int]) -> StatSets:
    """Compute all four statistic sets in one go."""
    return StatSets(*(frozenset(_positions(bits)) for bits in _stats(check_word(x))[:4]))


def nub(x: Iterable[int]) -> frozenset[int]:
    """Positions carrying the leftmost copy of each value.

    >>> sorted(nub((2, 1, 2)))
    [1, 2]
    """
    return frozenset(_positions(_stats(check_word(x))[4]))


def is_cayley(x: Iterable[int]) -> bool:
    """True when the set of values is exactly {1, ..., max(x)}.

    >>> is_cayley((1, 1, 3))
    False
    >>> is_cayley((2, 1, 2))
    True
    """
    return _is_cayley(check_word(x))


def is_ascent_sequence(x: Iterable[int]) -> bool:
    """True when x_1 = 1 and each entry is at most asctop(prefix) + 1.

    >>> is_ascent_sequence((1, 2, 2, 1, 3, 2, 4, 5))
    True
    >>> is_ascent_sequence((1, 1, 2, 1, 4, 2))
    False
    """
    return _is_ascent(check_word(x))


def is_member(x: Iterable[int], family: Family) -> bool:
    """Membership test for any of the six families."""
    if not isinstance(family, Family):
        raise ValueError(f"unknown family {family!r}")
    return _is_member(check_word(x), family)


# Membership of every family is decided by a local rule: a leftmost
# occurrence must sit after a smaller entry (MODIFIED) or a larger one
# (DESBOT), or before a larger entry (REVISED) or a smaller one
# (DESTOP), and in the last two families the final entry must repeat an
# earlier value; an ASCENT entry is at most one more than atop, the
# number of ascent tops before it.  Generation is a backtracking search
# that applies the rule one step at a time and, on top of it, an exact
# completion bound: a candidate v is tried only if need, the fewest
# further entries that can complete a member after it, fits in the open
# slots.  need depends on the family, on v, on whether v is new, and on
# M, the set of values missing below the new maximum:
#
#   family            M empty           M not empty
#   ASCENT            0 for every v <= atop+1 (M plays no part)
#   CAYLEY            0                 |M|
#   MODIFIED          0                 |M| if min M > v; inf if 1 in M;
#                                       else |M|+1
#   DESBOT            0                 |M| if max M < v; else |M|+1
#   REVISED, v new    inf if v = max;   inf if v = max; |M|+1 if
#                     else 1            min M > v; else |M|+2
#   REVISED, repeat   0                 |M|+1 if min M < v; else inf
#   DESTOP, v new     inf if v = 1;     inf if 1 in M or v = 1; |M|+1 if
#                     else 1            max M < v; else |M|+2
#   DESTOP, repeat    0                 inf if 1 in M; |M|+1 if
#                                       max M > v; else |M|+2
#
# Position 1 of REVISED and DESTOP constrains nothing after it, so there
# need is |M|+1 (inf for DESTOP once 1 is missing), and 0 when M is
# empty.  A member can always grow by repeating its last entry, so
# need <= rest is exactly "some member extends this prefix": every
# node the search visits leads to a member.  _candidates is the one
# search step: from the node's state alone it builds the bit set of the
# values that meet the rule and the bound, and the search tries them in
# increasing order, which makes the output lexicographic.
#
# The search state is the prefix's length, its maximum (in ASCENT, its
# atop instead), the bit set of values seen, whether the last entry was
# new, the last entry, and forbid, the bit set of values a pattern veto
# refuses as the next entry.  A FrontierVeto (what patterns.avoid_filter
# builds for patterns of length <= 3 and of the form x y x z) carries
# forbid's initial value and its update step, which patterns.frontier
# derives from the pattern; the search then clears forbid from the
# candidates instead of calling the veto.  A length-4 frontier keeps its
# own state in fixed-width lanes above the forbidden values, so forbid
# is the whole int (the candidates only meet its low lane) and the memo
# below keys on all of it; past the length its lanes hold (its limit),
# the search calls the veto.  Any other accept leaves forbid at 0 and
# is called as before.  forbid only grows along a path, so in a
# Cayley-based family a node whose forbid holds a value missing below
# its maximum has no member below it, and the search returns there.
#
# So every completion below a node depends only on the node's state.
# When the leaf is a BlockLeaf and there is no accept (or only a
# FrontierVeto), a node with rest < _BLOCK_DEPTH whose values all fit in
# a byte (maxv + rest + 1 <= 255) hands its prefix and the list of its
# completions to the leaf's block in one call.  The list is built once
# per distinct state, by the same walk with a leaf that collects each
# word's tail, and keyed by the fields the mode reads: (rest, maxv,
# seen, fresh, last, forbid) for REVISED and DESTOP, without fresh for
# MODIFIED and DESBOT, without fresh and last for CAYLEY, and without
# seen and fresh for unfiltered ASCENT.  Equal tails share one bytes
# object, and both dicts live only as long as one search.  Any other
# leaf or accept takes every word one at a time.

AcceptFn = Callable[[list[int], int], bool]
StepFn = Callable[[int, int, int], int]


class FrontierVeto:
    """A pattern veto that also carries the pattern's frontier.

    Called with (prefix, candidate) it is a plain AcceptFn and runs the
    veto it wraps.  The frontier is an int whose low bits are the bit
    set of values no next entry may take: init for the empty prefix,
    and step(forbid, seen, v) for the frontier after v is appended to a
    prefix whose values are the bit set seen.  Up to length limit the
    search threads the frontier through its state instead of calling
    the veto; past it, where the frontier cannot hold the values, the
    search calls the veto.
    """

    __slots__ = ("veto", "init", "step", "limit")

    def __init__(self, veto: AcceptFn, init: int, step: StepFn, limit: float = math.inf) -> None:
        self.veto, self.init, self.step, self.limit = veto, init, step, limit

    def __call__(self, entries: list[int], v: int) -> bool:
        return self.veto(entries, v)


class BlockLeaf:
    """A leaf that can also take every completion of a prefix at once.

    Called with (entries) it is a plain leaf.  block(prefix, tails)
    receives the scratch entry list of a prefix and the list of its
    completions, each as bytes with entry v stored as byte v, in
    lexicographic order; the list may be empty.  The search hands a
    BlockLeaf whole subtrees where it can, and calls it per word where
    it cannot.
    """

    __slots__ = ("leaf", "block")

    def __init__(self, leaf: Callable[[list[int]], None],
                 block: Callable[[list[int], list[bytes]], None]) -> None:
        self.leaf, self.block = leaf, block

    def __call__(self, entries: list[int]) -> None:
        self.leaf(entries)


# A rule mode is two flags: _DESC when a leftmost occurrence sits next
# to a larger entry, _DEFERRED when the rule looks at the entry after it.
_DESC = 1
_DEFERRED = 2
_CAYLEY = 4
_ATOP = 8  # ASCENT: at most one more than the ascent tops so far

# A BlockLeaf takes the completions of the last three levels in one block.
_BLOCK_DEPTH = 3

# The search recurses once per entry, so it refuses a length above the
# recursion limit less these frames (900 by default), whatever the cap.
_DEPTH_HEADROOM = 100

_MODE = {
    Family.ASCENT: _ATOP,
    Family.CAYLEY: _CAYLEY,
    Family.MODIFIED: 0,
    Family.DESBOT: _DESC,
    Family.REVISED: _DEFERRED,
    Family.DESTOP: _DEFERRED | _DESC,
}


def _tops(maxv: int, j: int) -> int:
    """The bit set of the new maxima maxv+1 .. maxv+j."""
    return ((2 << j) - 2) << maxv if j > 0 else 0


def _candidates(mode: int, rest: int, p: int, maxv: int, seen: int, fresh: bool, last: int) -> int:
    """The bit set of the values v that meet the family rule and need <=
    rest at position p, after a prefix with maximum (in ASCENT, atop)
    maxv, bit set of values seen, and last entry last (0 if none), which
    was new if fresh."""
    if mode == _ATOP:
        # 1 .. atop+1 all need 0, as a repeat of the last entry always fits
        return (4 << maxv) - 2
    # gaps is M after a repeat, and k = |gaps|.  Taking a value from gaps
    # leaves k-1 missing, and a new maximum maxv+j leaves k+j-1.
    gaps = ((2 << maxv) - 2) ^ seen
    k = gaps.bit_count()
    if mode == _CAYLEY:
        # a gap k-1, a repeat k, maxv+j k+j-1
        return gaps | _tops(maxv, rest - k + 1) | (seen if k <= rest else 0)
    if p == 1:
        # a first entry v leaves 1 .. v-1 missing, which MODIFIED and
        # DESTOP refuse; DESBOT then needs v-1 more entries, REVISED v
        return _tops(0, rest + 1 if mode == _DESC else max(rest, 1) if mode == _DEFERRED else 1)
    # A descending mode mirrors an ascending one: its pivot is max M
    # instead of min M, toward holds the repeats above the pivot instead
    # of below it and away the rest, and beyond the values below last
    # instead of above it.  MODIFIED and DESTOP start with 1, so 1 is
    # never missing in them later.
    if mode & _DESC:
        pivot = 1 << gaps.bit_length() >> 1
        toward, away, beyond = seen & -(pivot << 1), seen & (pivot - 1), (1 << last) - 2
    else:
        pivot = gaps & -gaps
        toward, away, beyond = seen & (pivot - 1), seen & -(pivot << 1), -(2 << last)
    others = gaps ^ pivot
    if mode & _DEFERRED:  # new and rep: the new values and repeats that fit
        # the pivot k, other gaps k+1; a repeat away k+1; in REVISED a
        # repeat toward and a new maximum inf, in DESTOP k+2 and maxv+j
        # k+j, as values are bounded below but not above
        new = (pivot if k <= rest else 0) | (others if k < rest else 0)
        rep = away if k < rest else 0
        if mode & _DESC:
            new |= _tops(maxv, rest - k)
            rep |= toward if k + 1 < rest else 0
    else:
        # the pivot k-1, other gaps k; a repeat toward k, away k+1;
        # maxv+j k+j, and 0 for j = 1 when k = 0 (DESBOT's beyond
        # clears the new maxima)
        new = pivot | (others if k <= rest else 0) | _tops(maxv, rest - k if k else rest or 1)
        rep = (toward if k <= rest else 0) | (away if k < rest else 0)
    if not gaps:  # a repeat needs 0 in every family
        rep = seen
    if not mode & _DEFERRED:
        return new & beyond | rep & ~beyond
    return (new | rep) & (beyond if fresh else ~beyond) if p > 2 else new | rep


def _check_length(n: int, cap: int) -> None:
    """Refuse a search of length n above cap or the search's depth limit."""
    if n > cap:
        raise CapExceededError(f"length {n} exceeds cap {cap}")
    limit = sys.getrecursionlimit() - _DEPTH_HEADROOM
    if n > limit:
        raise CapExceededError(f"length {n} exceeds the search's depth limit {limit}")


def search_family(n: int, family: Family, leaf: Callable[[list[int]], None],
                  accept: Optional[AcceptFn] = None,
                  cap: int = DEFAULT_CAP) -> None:
    """Drive a backtracking search over one family.

    leaf receives the scratch entry list each time a full member is
    reached; it must copy if it wants to keep the word.  accept, when
    given, is consulted with (prefix, candidate) before every extension
    and may veto it; vetoing must be monotone for the search to stay
    exhaustive over the accepted set.  accept only sees candidates
    that some member of length n extends: the family rule and the
    exact completion bound (see above) are applied first.  A
    FrontierVeto is not called up to its limit: the search tests its
    frontier instead, which refuses exactly what the veto refuses.  A BlockLeaf may be
    handed each prefix's completions in one block (see above).  A length
    above cap or the depth limit raises CapExceededError.
    """
    mode = _MODE.get(family)
    if mode is None:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("length must be >= 1")
    _check_length(n, cap)
    step: Optional[StepFn] = None
    forbid = 0
    if isinstance(accept, FrontierVeto) and n <= accept.limit:
        accept, forbid, step = None, accept.init, accept.step
    entries: list[int] = []
    depth = _BLOCK_DEPTH if isinstance(leaf, BlockLeaf) and accept is None else 0
    memo: dict[tuple, list[bytes]] = {}
    share: dict[bytes, bytes] = {}  # one object for each distinct tail
    # the key holds only what the mode's candidates and child state read:
    # unfiltered ASCENT never reads seen, CAYLEY never last, and only
    # REVISED and DESTOP read fresh
    keep_seen = mode != _ATOP or step is not None
    keep_last = mode != _CAYLEY
    keep_fresh = bool(mode & _DEFERRED)
    cayley_based = mode != _ATOP

    def rec(maxv: int, seen: int, fresh: bool, last: int, forbid: int) -> None:
        nonlocal leaf, depth
        if forbid and cayley_based and forbid & ~seen & (2 << maxv) - 2:
            return  # a missing value is forbidden: no member completes this
        p = len(entries) + 1
        rest = n - p
        if rest < depth and maxv + rest < 255:
            key = (rest, maxv, keep_seen and seen, keep_fresh and fresh, keep_last and last, forbid)
            got = memo.get(key)
            if got is None:
                # a miss lists the tails with the per-word walk below,
                # its leaf collecting the entries past this prefix
                found: list[bytes] = []
                block_leaf, base = leaf, len(entries)
                leaf, depth = lambda e: found.append(bytes(e[base:])), 0
                rec(maxv, seen, fresh, last, forbid)
                leaf, depth = block_leaf, _BLOCK_DEPTH
                got = memo[key] = [share.setdefault(t, t) for t in found]
            leaf.block(entries, got)
            return
        cand = _candidates(mode, rest, p, maxv, seen, fresh, last) & ~forbid
        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            if accept is not None and not accept(entries, v):
                continue
            entries.append(v)
            if rest:
                rec(maxv + (v > last) if mode == _ATOP else v if v > maxv else maxv,
                    seen | bit, not seen & bit, v, step(forbid, seen, v) if step else forbid)
            else:
                leaf(entries)
            entries.pop()

    rec(0, 0, False, 0, forbid)


def enumerate_family(n: int, family: Family, cap: int = DEFAULT_CAP) -> list[Word]:
    """All members of the family with length n, in lexicographic order.

    >>> [format_word(w) for w in enumerate_family(3, Family.REVISED)]
    ['111', '212']
    """
    out: list[Word] = []
    search_family(n, family, lambda e: out.append(tuple(e)), cap=cap)
    return out


@lru_cache(maxsize=None)
def count_family(n: int, family: Family, cap: int = DEFAULT_CAP) -> int:
    """Number of members of the family with length n."""
    total = [0]

    def leaf(_entries: list[int]) -> None:
        total[0] += 1

    search_family(n, family, leaf, cap=cap)
    return total[0]


@lru_cache(maxsize=None)
def family_members(n: int, family: Family) -> tuple[Word, ...]:
    """Cached enumeration for repeated small-n sweeps.  Capped at n = 10;
    stream through search_family for anything longer."""
    if n > 10:
        raise ValueError("family_members caches small lengths only; use search_family")
    return tuple(enumerate_family(n, family))
