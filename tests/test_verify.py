"""The invariant suites themselves."""

import pytest

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
