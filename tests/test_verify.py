"""The invariant suites themselves."""

import tracemalloc

import pytest

import rascent.gentree as gentree
import rascent.maps as maps
import rascent.oracle as oracle
import rascent.patterns as patterns
import rascent.verify as verify
import rascent.words as words
from rascent.gentree import _RULE_CHILDREN, Rule
from rascent.patterns import count_avoiders
from rascent.verify import SUITE_NAMES, run_suite


def test_suite_names_fixed():
    assert SUITE_NAMES == ("eta", "addrom", "gentree", "table1", "phi",
                           "series", "forms", "wilf")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_at_small_size(name):
    for n_max in (1, 3, 6):
        checks = run_suite(name, n_max)
        assert checks, name
        for c in checks:
            assert c.passed, (n_max, c.name, c.counterexample)
            assert c.suite == name
            assert c.scope


def test_all_concatenates_every_suite():
    combined = run_suite("all", 4)
    assert [c.suite for c in combined] == sorted(
        (c.suite for c in combined),
        key=lambda s: SUITE_NAMES.index(s),
    )
    assert {c.suite for c in combined} == set(SUITE_NAMES)


def test_unknown_suite_and_bad_size():
    with pytest.raises(ValueError):
        run_suite("bogus", 5)
    with pytest.raises(ValueError):
        run_suite("eta", 0)


def test_scope_names_only_what_ran():
    by_name = {c.name: c for c in run_suite("addrom", 4)}
    assert by_name["complement-swaps-statistics"].scope == "n<=4 full"


def test_avoider_counts_are_shared_across_suites():
    count_avoiders.cache_clear()
    run_suite("table1", 6)
    before = count_avoiders.cache_info()
    run_suite("wilf", 6)
    assert count_avoiders.cache_info().hits > before.hits


def _verdict(suite, name, n_max):
    return next(c for c in run_suite(suite, n_max) if c.name == name)


# each fault rewrites the kernel's fields (asctop, ascbot, destop, desbot, nub)
_STAT_FAULTS = {
    "swapped-descent-statistics": lambda s: (s[0], s[1], s[3], s[2], s[4]),
    "swapped-ascent-statistics": lambda s: (s[1], s[0], s[2], s[3], s[4]),
    "ascent-tops-as-nub": lambda s: (*s[:4], s[0]),
}


@pytest.mark.parametrize("fault", ["identity-complement", *_STAT_FAULTS])
def test_statistics_check_still_fails_on_a_fault(monkeypatch, fault):
    if fault == "identity-complement":
        monkeypatch.setattr(maps, "_complement", tuple)
    else:
        real, wrong = verify._stats, _STAT_FAULTS[fault]
        monkeypatch.setattr(verify, "_stats", lambda w: wrong(real(w)))
    check = _verdict("addrom", "complement-swaps-statistics", 4)
    assert not check.passed and check.counterexample == "12"


def test_complement_family_check_still_fails_on_a_fault(monkeypatch):
    # the identity sends the modified word 12 outside the desbot family
    monkeypatch.setattr(maps, "_complement", tuple)
    check = _verdict("addrom", "complement-swaps-families", 4)
    assert (check.passed, check.counterexample) == (False, "mod->desbot at n=2: 12")


def test_complement_family_check_reports_a_collision(monkeypatch):
    # a constant map sends the modified words 11 and 12 to one word
    monkeypatch.setattr(maps, "_complement", lambda w: (1,) * len(w))
    check = _verdict("addrom", "complement-swaps-families", 4)
    assert (check.passed, check.counterexample) == (False, "mod->desbot at n=2: collision at 11")


def test_repeated_max_check_still_fails_on_a_fault(monkeypatch):
    # a kernel that loses the ascent bottoms: the word 1 has one
    real = verify._stats
    monkeypatch.setattr(verify, "_stats", lambda w: (real(w)[0], 0, *real(w)[2:]))
    check = _verdict("addrom", "first-entry-is-repeated-max", 4)
    assert (check.passed, check.counterexample) == (False, "1")


def test_statistics_sweep_holds_no_word_list():
    tracemalloc.start()
    try:
        assert all(c.passed for c in run_suite("addrom", 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of the 47,293 Cayley words of length 7 alone peaks near 5.6 MB
    assert peak < 2_000_000


def test_statistics_sweep_streams_the_cayley_words(monkeypatch):
    real, families = words.enumerate_family, []

    def recorded(n, family, *args, **kwargs):
        families.append(family)
        return real(n, family, *args, **kwargs)

    monkeypatch.setattr(words, "enumerate_family", recorded)
    assert all(c.passed for c in run_suite("addrom", 7))
    assert families and words.Family.CAYLEY not in families


def test_monotonicity_check_still_fails_on_a_wrong_pattern_test(monkeypatch):
    real = patterns.occurrence_test

    def wrong(pattern):
        # every word "contains" 1111; 11 is in 1111, so a word avoiding 11
        # but not 1111 breaks monotonicity
        return (lambda w: True) if tuple(pattern) == (1, 1, 1, 1) else real(pattern)

    monkeypatch.setattr(patterns, "occurrence_test", wrong)
    check = _verdict("wilf", "containment-monotone", 4)
    assert not check.passed and check.counterexample


# The eta, addrom, phi and gentree sweeps run the trusted cores of the
# maps on the words they enumerate; a wrong core must still fail its
# checks.
_WRONG_CORES = {
    "_unrevise": lambda w: (1,) * (len(w) - 1),  # forgets every entry
    "_add_entry": lambda w, v: w + (v,),  # never bumps
    "_peel": lambda w: w[:-1],  # never lowers
    "_shift_trim": lambda w: w[:-1],  # never shifts
}


@pytest.mark.parametrize("core, suite, name", [
    ("_unrevise", "eta", "inverse-round-trip"),
    ("_add_entry", "eta", "one-step-recursion"),
    ("_add_entry", "addrom", "extension-stays-in-family"),
    ("_add_entry", "addrom", "every-word-is-an-extension"),
    ("_peel", "eta", "inverse-round-trip"),
    ("_peel", "addrom", "extension-stays-in-family"),
    ("_peel", "addrom", "every-word-is-an-extension"),
    ("_shift_trim", "phi", "bijection-onto-modified-family"),
    ("_add_entry", "gentree", "generic-children-match-rule"),
    ("_add_entry", "gentree", "avoid123-children-match-rule"),
])
def test_map_checks_still_fail_on_a_wrong_core(monkeypatch, core, suite, name):
    monkeypatch.setattr(maps, core, _WRONG_CORES[core])
    check = _verdict(suite, name, 4)
    assert not check.passed and check.counterexample


def test_eta_sweep_validates_no_word(monkeypatch):
    # every word the sweep handles is one it enumerated or a map built
    calls = []
    real = words.check_word

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(words, "check_word", counted)
    monkeypatch.setattr(patterns, "check_word", counted)
    assert all(c.passed for c in run_suite("eta", 6))
    assert calls == []


def test_label_invariant_reports_a_faulty_123_rule(monkeypatch):
    # a 123 rule that gives the root a child (2, 3), whose last entry is
    # not its smallest rise top: the label DP must carry it on to the
    # check rather than stop on it
    core = _RULE_CHILDREN[Rule.AVOID123]
    monkeypatch.setitem(_RULE_CHILDREN, Rule.AVOID123,
                        lambda label: core(label) + [(2, 3)] if label == (1, 1) else core(label))
    check = _verdict("gentree", "avoid123-label-invariant", 4)
    assert not check.passed and check.counterexample == "label (2,3) at level 2"


# The checks that read the oracle must fail on a wrong oracle: each fault
# raises the third term of a series by one.
def _third_term_wrong(terms):
    return tuple(c + (k == 2) for k, c in enumerate(terms))


@pytest.mark.parametrize("suite, name, counterexample", [
    ("gentree", "level-totals-match-series", "full tree vs product-sum series"),
    ("series", "tree-totals-match-product-sum", "full tree vs series"),
    ("series", "pinned-prefixes", "product-sum prefix"),
    ("eta", "counts-match-fishburn", "n=4"),
])
def test_oracle_checks_fail_on_a_wrong_product_sum(monkeypatch, suite, name, counterexample):
    real = oracle.fishburn
    monkeypatch.setattr(oracle, "fishburn", lambda count: _third_term_wrong(real(count)))
    check = _verdict(suite, name, 4)
    assert (check.passed, check.counterexample) == (False, counterexample)


@pytest.mark.parametrize("suite, name, counterexample", [
    ("series", "pinned-prefixes", "123 prefix"),
    ("gentree", "level-totals-match-series", "123 subtree vs algebraic series"),
])
def test_oracle_checks_fail_on_a_wrong_123_series(monkeypatch, suite, name, counterexample):
    real = oracle.expand_gf
    monkeypatch.setattr(oracle, "expand_gf", lambda name, order: (
        _third_term_wrong(real(name, order)) if name == "b123" else real(name, order)))
    check = _verdict(suite, name, 4)
    assert (check.passed, check.counterexample) == (False, counterexample)


@pytest.mark.parametrize("sequence, fault, counterexample", [
    ("stirling2", lambda real: lambda n, k: real(n, k) + 1, "n=2 m=2"),
    ("bell_numbers", lambda real: lambda count: tuple(b + 1 for b in real(count)), "row sum at n=2"),
])
def test_refinement_check_fails_on_a_wrong_sequence(monkeypatch, sequence, fault, counterexample):
    monkeypatch.setattr(oracle, sequence, fault(getattr(oracle, sequence)))
    check = _verdict("table1", "refinement-112-by-maximum", 4)
    assert (check.passed, check.counterexample) == (False, counterexample)


# the first word that fits the shape but contains the pattern, for a form
# check that accepts every word
_FORM_WITNESSES = {
    "122": "2122 at n=4",
    "211": "2121 at n=4",
    "221": "2121 at n=4",
    "312": "3123 at n=4",
    "321": "31231 at n=5",
}


@pytest.mark.parametrize("form", patterns.FORM_NAMES)
def test_form_checks_fail_on_a_form_that_accepts_every_word(monkeypatch, form):
    monkeypatch.setitem(patterns._FORM_CHECKS, form, lambda w: True)
    check = _verdict("forms", f"form-{form}-characterizes-avoiders", 5)
    assert (check.passed, check.counterexample) == (False, _FORM_WITNESSES[form])


def _split_class(real, pattern):
    # wilf_classes with the class of pattern split into singletons
    def split(pattern_length, n_max):
        report = real(pattern_length, n_max)
        classes = []
        for cls in report.classes:
            if pattern in cls.patterns:
                classes.extend(cls._replace(patterns=(p,)) for p in cls.patterns)
            else:
                classes.append(cls)
        return report._replace(classes=tuple(classes))
    return split


def test_class_check_fails_when_121_and_211_split(monkeypatch):
    monkeypatch.setattr(patterns, "wilf_classes", _split_class(patterns.wilf_classes, (1, 2, 1)))
    check = _verdict("wilf", "length-3-classes-match-table", 4)
    assert (check.passed, check.counterexample) == (False, "121-211")


def _drops_first_avoider(real, pattern):
    # avoider_words without the first avoider of pattern, at every length
    return lambda n, p, *args: real(n, p, *args)[1:] if tuple(p) == pattern else real(n, p, *args)


# The checks that are the only sweep of their claim: each one, with the
# function it reads made wrong, fails with its first counterexample.
_SOLE_SWEEP_FAULTS = [
    (maps, "_revise", lambda real: lambda x: real((1,) * len(x)),  # every word to 1...1
     "eta", "bijection-onto-next-length", 4, "collision at 111"),
    (gentree, "expand_level", lambda real: lambda rule, n: real(rule, n)[1:],  # drops a word
     "gentree", "materialized-labels-match-dp", 4, "full at n=2"),
    (patterns, "avoider_words", lambda real: _drops_first_avoider(real, (3, 2, 1)),
     "wilf", "same-avoiders-231-321", 4, "n=1"),
    (patterns, "avoider_words", lambda real: _drops_first_avoider(real, (2, 1, 1)),
     "wilf", "same-avoiders-121-211", 4, "n=1"),
    (patterns, "wilf_classes", lambda real: _split_class(real, (1, 2)),
     "wilf", "length-2-classes", 6, "(((1, 1),), ((1, 2),), ((2, 1),))"),
    (oracle, "system_132", lambda real: lambda n_max: real(n_max)._replace(s=tuple(c + 1 for c in real(n_max).s)),
     "series", "cross-link-132-sums-count-123", 4, "n=2"),
    (oracle, "recurrence_213", lambda real: lambda count: _third_term_wrong(real(count)),
     "series", "recurrence-213-is-catalan", 4, "n=3"),
]


@pytest.mark.parametrize("module, attr, fault, suite, name, n_max, counterexample", _SOLE_SWEEP_FAULTS,
                         ids=[row[4] for row in _SOLE_SWEEP_FAULTS])
def test_sole_sweep_checks_fail_on_a_wrong_function(monkeypatch, module, attr, fault, suite, name, n_max,
                                                    counterexample):
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    check = _verdict(suite, name, n_max)
    assert (check.passed, check.counterexample) == (False, counterexample)
