"""Counting oracles: product-sum series, closed forms, recurrences."""

import pytest

from rascent.cli import MAX_ORDER
from rascent.gentree import Rule, level_totals
from rascent.oracle import (
    GF_NAMES,
    OPEN_111_PREFIX,
    TABLE_ROWS,
    bell_numbers,
    catalan_numbers,
    closed_form,
    closed_form_counts,
    expand_gf,
    fishburn,
    recurrence_213,
    stirling2,
    system_132,
)

import reference


def test_fishburn_printed_prefix():
    assert fishburn(7) == (1, 2, 5, 15, 53, 217, 1014)


def test_fishburn_longer_prefix():
    # frozen from an independent expansion of the product-sum series
    assert fishburn(13) == (1, 2, 5, 15, 53, 217, 1014, 5335, 31240,
                            201608, 1422074, 10886503, 89903100)


def test_catalan_numbers():
    assert catalan_numbers(8) == (1, 1, 2, 5, 14, 42, 132, 429)


def test_bell_numbers_against_partition_count():
    bells = bell_numbers(8)
    assert bells == tuple(reference.bell_by_partitions(n) for n in range(8))


@pytest.mark.parametrize("n", range(0, 7))
def test_stirling_against_partition_count(n):
    for k in range(0, n + 2):
        assert stirling2(n, k) == reference.stirling_by_partitions(n, k)


def test_stirling_spot_values():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 5) == 1
    assert stirling2(4, 3) == 6


def test_recurrence_213_shifts_catalan():
    assert recurrence_213(6) == (1, 1, 2, 5, 14, 42)


def test_system_132_values():
    st = system_132(8)
    assert st.g[1:7] == (1, 1, 2, 5, 13, 35)
    assert st.r[1:6] == (1, 1, 2, 4, 8)
    assert st.s[2] == 0
    assert st.g[0] == st.r[0] == st.s[0] == 0


def test_gf_names_and_guards():
    assert GF_NAMES == ("fishburn", "b123", "b132", "b213")
    with pytest.raises(ValueError):
        expand_gf("nope", 5)
    with pytest.raises(ValueError):
        expand_gf("b123", 0)


def test_gf_expansions_pinned():
    assert expand_gf("fishburn", 7) == (1, 2, 5, 15, 53, 217, 1014)
    assert expand_gf("b123", 10) == (1, 1, 2, 4, 9, 22, 57, 154, 429, 1223)
    assert expand_gf("b132", 10) == (1, 1, 2, 5, 13, 35, 97, 275, 794, 2327)
    assert expand_gf("b213", 6) == (1, 1, 2, 5, 14, 42)


def test_gf_expansions_at_the_cli_order_match_independent_sources():
    # as far as `rascent gf` expands: the label DP, the 132 recurrences
    # and the Catalan convolution share no code with the series
    assert expand_gf("fishburn", MAX_ORDER) == tuple(level_totals(Rule.FULL, MAX_ORDER))
    assert expand_gf("b123", MAX_ORDER)[1:] == tuple(level_totals(Rule.AVOID123, MAX_ORDER - 1))
    assert expand_gf("b132", MAX_ORDER) == system_132(MAX_ORDER).g[1:]
    assert expand_gf("b213", MAX_ORDER) == catalan_numbers(MAX_ORDER)


def test_closed_form_spot_values():
    assert closed_form((3, 2, 1), 6) == 27
    assert closed_form((2, 2, 1), 2) == 1
    assert closed_form((1, 1, 2), 5) == 15
    assert closed_form((1, 1), 4) == 0
    assert closed_form((2, 1, 3), 7) == 132
    assert closed_form((2, 1, 2), 9) == 1
    assert closed_form((1, 2, 1), 5) == 9
    assert closed_form((3, 1, 2), 8) == 64


def test_closed_form_base_and_unknowns():
    for row in TABLE_ROWS:
        for pattern in row:
            assert closed_form(pattern, 1) == 1
    assert closed_form((1, 1, 1), 6) is None
    assert closed_form((1,), 3) is None


def test_closed_form_row_agreement():
    # every pattern in a row shares one counting function
    for row in TABLE_ROWS:
        for n in range(1, 10):
            values = {closed_form(p, n) for p in row}
            assert len(values) == 1


def test_closed_form_counts_is_the_column_of_closed_form():
    for row in TABLE_ROWS:
        for p in row:
            counts = closed_form_counts(p, 14)
            assert counts == tuple(closed_form(p, n) for n in range(1, 15)), p
    assert closed_form_counts((1, 1, 1), 14) is None
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        closed_form_counts((1, 2, 3), 0)


def test_open_row_prefix_constant():
    assert OPEN_111_PREFIX == (1, 1, 2, 4, 10, 29, 97)
