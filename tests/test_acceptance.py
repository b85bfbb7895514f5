"""Acceptance battery: every headline count, identity, and bijection.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible under ``pytest -s``).  Most criteria run `rascent verify`
suites at the sizes given here and require every returned check to
pass; the claims no suite states are checked directly.  All comparisons
are exact; the whole file is budgeted to finish within a few minutes.
"""

from functools import lru_cache

from rascent import (
    Family,
    add_entry,
    avoider_words,
    count_avoiders,
    count_family,
    enumerate_family,
    expand_gf,
    format_word,
    remove_entry,
    run_suite,
    system_132,
)


@lru_cache(maxsize=None)
def _suite(name, n_max=9):
    # several criteria share a suite run, so each runs once
    return tuple(run_suite(name, n_max))


def _report(number, label, problems=(), suites=()):
    problems = list(problems) + [
        f"{c.suite}.{c.name} [{c.scope}]: {c.counterexample}"
        for name, n_max in suites for c in _suite(name, n_max) if not c.passed]
    status = "FAIL" if problems else "PASS"
    print(f"criterion {number:2d} {status}  {label}")
    assert not problems, f"criterion {number}: " + "; ".join(problems[:5])


def test_criterion_01_counts_match_series():
    problems = []
    series = expand_gf("fishburn", 26)
    for n in range(1, 13):
        expected = 1 if n == 1 else series[n - 2]
        got = count_family(n, Family.REVISED)
        if got != expected:
            problems.append(f"length {n}: counted {got}, series says {expected}")
    _report(1, "family counts match the product-sum series", problems,
            suites=[("gentree", 9)])


def test_criterion_02_revision_bijection_and_extension():
    # addrom's extension check starts at length 2
    problems = [f"peel broke at {format_word(x)} + {v}"
                for x in enumerate_family(1, Family.REVISED)
                for v in range(1, max(x) + 2) if remove_entry(add_entry(x, v)) != x]
    _report(2, "revision is a bijection; peeling undoes extension", problems,
            suites=[("eta", 10), ("addrom", 10)])


def test_criterion_03_closed_forms_match_brute_force():
    _report(3, "avoidance table rows reproduce exactly", suites=[("table1", 12)])


def test_criterion_04_series_pins_and_quadratic_identities():
    _report(4, "series expansions and quadratic identities hold", suites=[("series", 9)])


def test_criterion_05_forms_characterize_avoiders():
    _report(5, "structural forms accept exactly the avoiders", suites=[("forms", 10)])


def test_criterion_06_avoider_set_equalities():
    _report(6, "equal-avoider pattern pairs agree as sets", suites=[("wilf", 10)])


def test_criterion_07_123_tree_matches_counts():
    _report(7, "123 generating tree reproduces the counts",
            suites=[("table1", 12), ("gentree", 9)])


def test_criterion_08_132_recurrence_system():
    problems = []
    state = system_132(13)
    for n in range(1, 13):
        words = avoider_words(n, (1, 3, 2))
        if state.g[n] != len(words):
            problems.append(f"g at {n}: {state.g[n]} vs {len(words)}")
        ends_at_max = [x for x in words if x[-1] == max(x)]
        if state.r[n] != len(ends_at_max):
            problems.append(f"r at {n}: {state.r[n]} vs {len(ends_at_max)}")
        fresh_max = [x for x in ends_at_max if len(x) >= 2 and x[-2] < max(x)]
        if state.s[n] != len(fresh_max):
            problems.append(f"s at {n}: {state.s[n]} vs {len(fresh_max)}")
    for n in range(2, 13):
        if state.s[n + 1] != count_avoiders(n, (1, 2, 3)):
            problems.append(f"s link at {n}")
    _report(8, "132 recurrence system matches direct counts", problems)


def test_criterion_09_112_refined_by_maximum():
    _report(9, "112 avoiders refine into Stirling counts", suites=[("table1", 12)])


def test_criterion_10_shift_trim_bijection():
    _report(10, "shift-trim is a bijection between the two classes", suites=[("phi", 10)])
