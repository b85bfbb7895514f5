"""Named invariant suites behind `rascent verify`.

Each suite re-checks a group of structural claims by brute force and
reports one `Check` per property.  The suites recompute everything from
the definitions so they can be pointed at larger sizes from the command
line; the acceptance tests drive them at their own ranges.  A suite
sweeps the sizes once: it builds the objects of each size a single time
and derives every check from them.  Each check is a lazy stream of
counterexamples of which only the first is drawn.  A sweep pays once
per word and once per pattern: a pattern tested against many words is
compiled once for all of them (`occurrence_test`), and the statistics
sweep tests the Cayley words as the search hands them over, a block of
completions at a time, keeps none, and compares the position bit sets
of one statistics kernel call on each word and one on its complement.
Suite names are part of the CLI contract.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# Loaded on first use, maybe while a tracer (perfbench/layers.py) has
# wrapped public functions of other modules: so those are called through
# their module; private functions, classes and constants may be bound.
from . import SUITE_NAMES
from . import gentree as _gentree, maps as _maps, oracle as _oracle, patterns as _patterns, words as _words
from .gentree import _RULE_CHILDREN, Rule
from .oracle import OPEN_111_PREFIX, TABLE_ROWS
from .series import PowerSeries
from .words import DEFAULT_CAP, BlockLeaf, Family, Word, _format_word, _positions, _stats


class Check(NamedTuple):
    """Outcome of one verified property.

    scope records the range actually exercised (e.g. "n<=9") so a
    passing line is never mistaken for a proof.
    """

    suite: str
    name: str
    scope: str
    passed: bool
    counterexample: str | None = None


class _Sweep:
    """The first counterexample of each check of one suite.

    A check that already has one draws nothing more from later streams,
    so a sweep over growing sizes reports the smallest failing size.
    """

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.found: dict[str, str] = {}

    def note(self, name: str, witnesses: Iterable[str]) -> None:
        if name not in self.found:
            witness = next(iter(witnesses), None)
            if witness is not None:
                self.found[name] = witness

    def check(self, name: str, scope: str, witnesses: Iterable[str] = ()) -> Check:
        self.note(name, witnesses)
        witness = self.found.get(name)
        return Check(suite=self.suite, name=name, scope=scope, passed=witness is None, counterexample=witness)


# ---------------------------------------------------------------- eta

def _bijection_misses(image: Iterable[Word], target: Iterable[Word]) -> Iterator[str]:
    # the one test that a map is a bijection onto a family: a collision,
    # then a word in the image or the target but not both
    seen: set[Word] = set()
    for w in image:
        if w in seen:
            yield f"collision at {_format_word(w)}"
        seen.add(w)
    wanted = set(target)
    if seen != wanted:
        yield _format_word(next(iter(seen ^ wanted)))


def suite_eta(n_max: int) -> list[Check]:
    """The relabeling bijection and its one-step recursion."""
    s = _Sweep("eta")
    scope = f"n<={n_max}"
    relabel_top = min(n_max, 9)
    fib = (1,) + _oracle.fishburn(max(n_max, 2))
    image: dict[Word, Word] = {}
    revised = _words.enumerate_family(1, Family.REVISED)
    for n in range(1, n_max + 1):
        shorter = image
        image = {x: _maps._revise(x).revised for x in _words.enumerate_family(n, Family.ASCENT)}
        if n >= 2:
            s.note("one-step-recursion", (_format_word(x) for x, y in image.items()
                                          if y != _maps._add_entry(shorter[x[:-1]], x[-1])))
        s.note("max-counts-ascent-tops", (_format_word(x) for x, y in image.items()
                                          if max(y) != _stats(x)[0].bit_count()))
        s.note("counts-match-fishburn", [f"n={n}"] if len(revised) != fib[n - 1] else [])
        revised = _words.enumerate_family(n + 1, Family.REVISED)
        s.note("bijection-onto-next-length", _bijection_misses(image.values(), revised))
        if n <= relabel_top:
            s.note("equals-relabel-of-padded-word",
                   (_format_word(x) for x, y in image.items()
                    if y != _maps.relabel((1,) + x, _positions(_stats((1,) + x)[1]))))
        s.note("inverse-round-trip", (_format_word(x) for x, y in image.items()
                                      if _maps._unrevise(y) != x))
    return [
        s.check("one-step-recursion", scope),
        s.check("max-counts-ascent-tops", scope),
        s.check("bijection-onto-next-length", scope),
        s.check("equals-relabel-of-padded-word", f"n<={relabel_top}"),
        s.check("inverse-round-trip", scope),
        s.check("counts-match-fishburn", scope),
    ]


# ------------------------------------------------------------- addrom

def _extension_misses(words: Sequence[Word], longer: set[Word]) -> Iterator[str]:
    for x in words:
        for v, y in enumerate(_gentree._children(x), start=1):
            if y not in longer:
                yield f"{_format_word(x)}+{v}"
            elif _maps._peel(y) != x:
                yield f"{_format_word(y)} peels wrong"


def _peel_misses(words: Sequence[Word], shorter: set[Word]) -> Iterator[str]:
    for y in words:
        x = _maps._peel(y)
        if x not in shorter or _maps._add_entry(x, y[-1]) != y:
            yield _format_word(y)


def _complement_misses(n: int, revised: Sequence[Word]) -> Iterator[str]:
    for fam, mate in ((Family.REVISED, Family.DESTOP), (Family.MODIFIED, Family.DESBOT)):
        source = revised if fam is Family.REVISED else _words.enumerate_family(n, fam)
        for miss in _bijection_misses(map(_maps._complement, source), _words.enumerate_family(n, mate)):
            yield f"{fam.value}->{mate.value} at n={n}: {miss}"


def _stat_miss(w: Sequence[int]) -> bool:
    # w is a valid word, built by the search or standardize, and so is its
    # complement: one kernel call on each, then the three comparisons
    asctop, ascbot, _, _, nub = _stats(w)
    _, _, destop, desbot, mate_nub = _stats(_maps._complement(w))
    return asctop != desbot or ascbot != destop or nub != mate_nub


def _cayley_stat_misses(n: int) -> Iterator[str]:
    # each word is tested as the search reaches it, most of them a block
    # of completions of one prefix at a time; after a miss, none is
    misses: list[str] = []

    def leaf(entries: Sequence[int]) -> None:
        if not misses and _stat_miss(entries):
            misses.append(_format_word(entries))

    def block(prefix: list[int], tails: list[bytes]) -> None:
        head = bytes(prefix)
        for tail in tails:
            leaf(head + tail)

    _words.search_family(n, Family.CAYLEY, BlockLeaf(leaf, block))
    yield from misses


def _sampled_cayley(lengths: Iterable[int], per_length: int) -> Iterator[Word]:
    rng = random.Random(0x5EED)
    for n in lengths:
        for _ in range(per_length):
            yield _maps.standardize(tuple(rng.randint(1, n) for _ in range(n)))


def _max_misses(words: Sequence[Word]) -> Iterator[str]:
    for w in words:
        m = max(w)
        asctop, ascbot, *_ = _stats(w)
        if (w[0] != m or (len(w) >= 2 and w.count(m) < 2)
                or m != ascbot.bit_count() or m != asctop.bit_count()):
            yield _format_word(w)


def suite_addrom(n_max: int) -> list[Check]:
    """One-letter extension, its inverse, and the complement symmetries."""
    s = _Sweep("addrom")
    scope = f"n<={n_max}"
    shorter: Sequence[Word] = ()
    for n in range(1, n_max + 2):
        words = _words.enumerate_family(n, Family.REVISED)
        if n >= 3:
            # extension and peeling move between neighbouring sizes
            s.note("extension-stays-in-family", _extension_misses(shorter, set(words)))
            s.note("every-word-is-an-extension", _peel_misses(words, set(shorter)))
        if n > n_max:
            break
        shorter = words
        s.note("complement-swaps-families", _complement_misses(n, words))
        if n <= 7:
            s.note("complement-swaps-statistics", _cayley_stat_misses(n))
        s.note("first-entry-is-repeated-max", _max_misses(words))
    if n_max >= 8:
        # lengths 8 and 9 are sampled; exhaustive Cayley sweeps get large
        s.note("complement-swaps-statistics",
               (_format_word(w) for w in _sampled_cayley((8, 9), 2000) if _stat_miss(w)))
    return [
        s.check("extension-stays-in-family", scope),
        s.check("every-word-is-an-extension", f"n<={n_max + 1}"),
        s.check("complement-swaps-families", scope),
        s.check("complement-swaps-statistics",
                f"n<={min(n_max, 7)} full" + (", n<=9 sampled" if n_max >= 8 else "")),
        s.check("first-entry-is-repeated-max", scope),
    ]


# ------------------------------------------------------------ gentree

def _rule_misses(words: Sequence[Word], rule: Rule,
                 has_123: Callable[[Word], bool] | None = None) -> Iterator[str]:
    label = _gentree._word_label
    for x in words:
        if (Counter(label(y, rule) for y in _gentree._children(x, has_123))
                != Counter(_RULE_CHILDREN[rule](label(x, rule)))):
            yield _format_word(x)


def _tree_series_misses(full: list[int], sub: list[int]) -> Iterator[str]:
    if full != list(_oracle.fishburn(25)):
        yield "full tree vs product-sum series"
    if sub != list(_oracle.expand_gf("b123", 26))[1:]:
        yield "123 subtree vs algebraic series"


def suite_gentree(n_max: int) -> list[Check]:
    """Succession rules, label dynamics and their counting power."""
    s = _Sweep("gentree")
    scope = f"n<={n_max}"
    dp = {rule: _gentree.label_counts(rule, 25) for rule in (Rule.FULL, Rule.AVOID123)}
    full = [lc.total for lc in dp[Rule.FULL]]
    sub = [lc.total for lc in dp[Rule.AVOID123]]
    has_123 = _patterns.occurrence_test((1, 2, 3))
    for n in range(2, n_max + 1):
        words = _words.enumerate_family(n, Family.REVISED)
        avoiders = _patterns.avoider_words(n, (1, 2, 3))
        s.note("generic-children-match-rule", _rule_misses(words, Rule.FULL))
        s.note("avoid123-children-match-rule", _rule_misses(avoiders, Rule.AVOID123, has_123))
        if full[n - 2] != len(words):
            s.note("level-totals-match-enumeration", [f"full tree at n={n}"])
        elif sub[n - 2] != len(avoiders):
            s.note("level-totals-match-enumeration", [f"123 subtree at n={n}"])
    top = min(n_max, 10)
    return [
        s.check("generic-children-match-rule", scope),
        s.check("avoid123-children-match-rule", scope),
        s.check("avoid123-label-invariant", "level<=25",
                (f"label ({g},{last}) at level {lc.level}" for lc in dp[Rule.AVOID123]
                 for g, last in sorted(lc.counts) if last >= 2 and g != last)),
        s.check("level-totals-match-enumeration", scope),
        s.check("level-totals-match-series", "level<=25", _tree_series_misses(full, sub)),
        s.check("materialized-labels-match-dp", f"n<={top}",
                (f"{rule.value} at n={n}" for rule in (Rule.FULL, Rule.AVOID123) for n in range(2, top + 1)
                 if Counter(_gentree._word_label(w, rule) for w in _gentree.expand_level(rule, n))
                 != dp[rule][n - 2].counts)),
    ]


# ------------------------------------------------------------- table1

def _refinement_112_misses(top: int) -> Iterator[str]:
    for n in range(2, top + 1):
        by_max = Counter(max(w) for w in _patterns.avoider_words(n, (1, 1, 2)))
        for m in range(2, n + 1):
            if by_max.get(m, 0) != _oracle.stirling2(n - 1, n - m):
                yield f"n={n} m={m}"
        if sum(by_max.values()) != _oracle.bell_numbers(n)[n - 1]:
            yield f"row sum at n={n}"


def suite_table1(n_max: int) -> list[Check]:
    """Closed-form counts against brute-force avoidance, row by row."""
    s = _Sweep("table1")
    checks = [
        s.check("row-" + "-".join(_format_word(p) for p in group), f"n<={n_max}",
                (f"{_format_word(pat)} at n={n}" for pat in group for n in range(1, n_max + 1)
                 if _patterns.count_avoiders(n, pat, Family.REVISED, cap=DEFAULT_CAP)
                 != _oracle.closed_form(pat, n)))
        for group in TABLE_ROWS
    ]
    top = min(n_max, 8)
    got = tuple(_patterns.count_avoiders(n, (1, 1, 1), Family.REVISED, cap=DEFAULT_CAP)
                for n in range(2, top + 1))
    checks.append(s.check("row-111-open-prefix", f"n<={top}",
                          [f"prefix {got}"] if got != OPEN_111_PREFIX[: top - 1] else []))
    top = min(n_max, 10)
    checks.append(s.check("refinement-112-by-maximum", f"n<={top}", _refinement_112_misses(top)))
    return checks


# ---------------------------------------------------------------- phi

def _shift_trim_misses(top: int) -> Iterator[str]:
    has_122 = _patterns.occurrence_test((1, 2, 2))
    for n in range(1, top + 1):
        image = map(_maps._shift_trim, _patterns.avoider_words(n + 1, (2, 1, 1)))
        target = (w for w in _words.enumerate_family(n, Family.MODIFIED) if not has_122(w))
        for miss in _bijection_misses(image, target):
            yield f"n={n}: {miss}"


def suite_phi(n_max: int) -> list[Check]:
    """The value-rotation bijection between two restricted families."""
    s = _Sweep("phi")
    top = min(n_max, 9)
    worked = _maps.shift_trim((6, 4, 6, 3, 6, 1, 2, 6, 5, 6))
    return [
        s.check("worked-example", "single word",
                [_format_word(worked)] if worked != (1, 5, 1, 4, 1, 2, 3, 1, 6) else []),
        s.check("bijection-onto-modified-family", f"n<={top}", _shift_trim_misses(top)),
    ]


# ------------------------------------------------------------- series

def _pinned_prefix_misses() -> Iterator[str]:
    if tuple(_oracle.fishburn(7)) != (1, 2, 5, 15, 53, 217, 1014):
        yield "product-sum prefix"
    if _oracle.expand_gf("b123", 10)[1:] != (1, 2, 4, 9, 22, 57, 154, 429, 1223):
        yield "123 prefix"
    if _oracle.expand_gf("b132", 10) != (1, 1, 2, 5, 13, 35, 97, 275, 794, 2327):
        yield "132 prefix"
    if _oracle.expand_gf("b213", 4)[3] != 5:
        yield "213 coefficient t^4"


def suite_series(n_max: int) -> list[Check]:
    """Algebraic identities tying the generating functions together."""
    s = _Sweep("series")
    order = 30
    t = PowerSeries.variable(order)
    disc = (t ** 4 + 2 * t ** 2 - 4 * t + 1).truncate(order)

    def lift(name: str) -> PowerSeries:
        return PowerSeries.from_coefficients((0,) + _oracle.expand_gf(name, order), order)

    z, y = lift("b123"), lift("b132")
    st = _oracle.system_132(27)
    b123 = _oracle.expand_gf("b123", 26)
    bells = _oracle.bell_numbers(16)
    cats = _oracle.catalan_numbers(25)
    rec = _oracle.recurrence_213(25)
    b213 = _oracle.expand_gf("b213", 25)
    return [
        s.check("quadratic-identity-123", f"order<={order}",
                [] if (2 * (t - 1) * z - t * t + 1) ** 2 == disc else ["123 identity"]),
        s.check("quadratic-identity-132", f"order<={order}",
                [] if (t * t - 2 * t + 1 - 2 * t * y) ** 2 == disc else ["132 identity"]),
        s.check("cross-link-132-sums-count-123", "2<=n<=25",
                (f"n={n}" for n in range(2, 26) if b123[n - 1] != st.s[n + 1])),
        s.check("partition-counts-consistent", "n<=15",
                (f"n={n}" for n in range(2, 16)
                 if sum(_oracle.stirling2(n - 1, n - m) for m in range(1, n + 1)) != bells[n - 1]
                 or _oracle.closed_form((1, 1, 2), n) != bells[n - 1])),
        s.check("recurrence-213-is-catalan", "n<=25",
                (f"n={n}" for n in range(1, 26) if rec[n - 1] != cats[n - 1] or b213[n - 1] != cats[n - 1])),
        s.check("pinned-prefixes", "printed values", _pinned_prefix_misses()),
        s.check("tree-totals-match-product-sum", "level<=25",
                [] if list(_gentree.level_totals(Rule.FULL, 25)) == list(_oracle.fishburn(25))
                else ["full tree vs series"]),
    ]


# -------------------------------------------------------------- forms

def _form_misses(n: int, words: Sequence[Word], form: str) -> Iterator[str]:
    # the words that fit the shape are exactly the avoiders
    shaped = (w for w in words if _patterns._FORM_CHECKS[form](w))
    for miss in _bijection_misses(shaped, _patterns.avoider_words(n, tuple(map(int, form)))):
        yield f"{miss} at n={n}"


def suite_forms(n_max: int) -> list[Check]:
    """Structural normal forms versus brute-force avoider sets."""
    s = _Sweep("forms")
    for n in range(2, n_max + 1):
        words = _words.enumerate_family(n, Family.REVISED)
        for form in _patterns._FORM_CHECKS:
            s.note(f"form-{form}-characterizes-avoiders", _form_misses(n, words, form))
    return [s.check(f"form-{form}-characterizes-avoiders", f"n<={n_max}") for form in _patterns._FORM_CHECKS]


# --------------------------------------------------------------- wilf

_SAME_AVOIDERS = (((2, 3, 1), (3, 2, 1)), ((1, 2, 1), (2, 1, 1)))
# second entry is the unique maximum, so prepending it is neutral
_MAX_LED = ((1, 2), (1, 2, 1), (2, 3, 1), (1, 3, 2))


def _monotone_misses(words: Sequence[Word], nests: list[tuple[Word, Word]],
                     has: dict[Word, Callable[[Word], bool]]) -> Iterator[str]:
    for w in words:
        # a pattern's avoidance is computed once, and only when needed
        avoided: dict[Word, bool] = {}
        for a, b in nests:
            if a not in avoided:
                avoided[a] = not has[a](w)
            if avoided[a]:
                if b not in avoided:
                    avoided[b] = not has[b](w)
                if not avoided[b]:
                    yield f"{_format_word(w)} vs {_format_word(a)}<{_format_word(b)}"


def _class_misses(classes: set[frozenset[Word]]) -> Iterator[str]:
    for pair in (((1, 2, 1), (2, 1, 1)), ((2, 3, 1), (3, 2, 1)), ((1, 2, 2), (3, 1, 2))):
        if frozenset(pair) not in classes:
            yield "-".join(_format_word(p) for p in pair)


def suite_wilf(n_max: int) -> list[Check]:
    """Avoidance equivalences: proved pairs, prefix lemma, monotonicity."""
    s = _Sweep("wilf")
    scope = f"n<={n_max}"
    top = min(n_max, 8)
    # one compiled test per pattern serves the nests and every word
    has = {p: _patterns.occurrence_test(p) for k in range(1, 5)
           for p in _words.enumerate_family(k, Family.CAYLEY)}
    nests = [(a, b) for a in has for b in has if a != b and has[a](b)]
    swept = {p for pair in _SAME_AVOIDERS for p in pair} | {q for p in _MAX_LED for q in (p, (max(p),) + p)}
    unequal: set[Word] = set()
    for n in range(1, n_max + 1):
        avoiders = {p: _patterns.avoider_words(n, p) for p in sorted(swept)}
        for a, b in _SAME_AVOIDERS:
            s.note(f"same-avoiders-{_format_word(a)}-{_format_word(b)}",
                   [f"n={n}"] if avoiders[a] != avoiders[b] else [])
        unequal.update(p for p in _MAX_LED if avoiders[p] != avoiders[(max(p),) + p])
        if n <= top:
            s.note("containment-monotone",
                   _monotone_misses(_words.enumerate_family(n, Family.REVISED), nests, has))
    # the table's classes first separate at n=2 (length 2) and n=6 (length 3),
    # so the class checks never run below those sizes
    top2, top3 = max(2, min(n_max, 6)), max(6, min(n_max, 8))
    pairs = tuple(cls.patterns for cls in _patterns.wilf_classes(2, top2).classes)
    return [
        *(s.check(f"same-avoiders-{_format_word(a)}-{_format_word(b)}", scope)
          for a, b in _SAME_AVOIDERS),
        s.check("prepending-the-maximum-is-neutral", scope,
                (_format_word(p) for p in _MAX_LED if p in unequal)),
        s.check("containment-monotone", f"n<={top}, patterns k<=4"),
        s.check("length-2-classes", f"n<={top2}",
                [str(pairs)] if pairs != (((1, 1),), ((1, 2), (2, 1))) else []),
        s.check("length-3-classes-match-table", f"n<={top3}",
                _class_misses({frozenset(cls.patterns) for cls in _patterns.wilf_classes(3, top3).classes})),
    ]


_SUITES: dict[str, Callable[[int], list[Check]]] = {
    "eta": suite_eta,
    "addrom": suite_addrom,
    "gentree": suite_gentree,
    "table1": suite_table1,
    "phi": suite_phi,
    "series": suite_series,
    "forms": suite_forms,
    "wilf": suite_wilf,
}


def run_suite(name: str, n_max: int = 9) -> list[Check]:
    """Run one named suite, or every suite for name "all"."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if name == "all":
        out: list[Check] = []
        for key in SUITE_NAMES:
            out.extend(_SUITES[key](n_max))
        return out
    try:
        suite = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}") from None
    return suite(n_max)
