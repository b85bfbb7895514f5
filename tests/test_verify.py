"""The invariant suites themselves."""

import pytest

import rascent.maps as maps
import rascent.patterns as patterns
import rascent.verify as verify
import rascent.words as words
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


@pytest.mark.parametrize("fault", ["identity-complement", "swapped-descent-statistics"])
def test_statistics_check_still_fails_on_a_fault(monkeypatch, fault):
    if fault == "identity-complement":
        monkeypatch.setattr(maps, "complement", lambda x: tuple(x))
    else:
        monkeypatch.setattr(verify, "_descent_bottoms", verify._descent_tops)
    check = _verdict("addrom", "complement-swaps-statistics", 4)
    assert not check.passed and check.counterexample


def test_monotonicity_check_still_fails_on_a_wrong_pattern_test(monkeypatch):
    real = patterns.occurrence_test

    def wrong(pattern):
        # every word "contains" 1111; 11 is in 1111, so a word avoiding 11
        # but not 1111 breaks monotonicity
        return (lambda w: True) if tuple(pattern) == (1, 1, 1, 1) else real(pattern)

    monkeypatch.setattr(patterns, "occurrence_test", wrong)
    check = _verdict("wilf", "containment-monotone", 4)
    assert not check.passed and check.counterexample


# The eta and addrom sweeps run the trusted cores of the maps on the
# words they enumerate; a wrong core must still fail its checks.
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
