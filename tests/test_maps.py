"""The relabeling bijection, one-letter extensions, and companions."""

import pytest
from hypothesis import given, strategies as st

from rascent.maps import (
    add_entry,
    complement,
    remove_entry,
    revise,
    shift_trim,
    standardize,
    unrevise,
)
from rascent.words import Family, family_members, is_member, parse_word
from rascent.patterns import avoids


def test_revise_worked_example():
    trace = revise(parse_word("12132124"))
    assert trace.bottoms == (1, 3, 6, 7)
    assert trace.relabeled == parse_word("45354124")
    assert trace.revised == parse_word("545354124")


def test_revise_shortest_inputs():
    assert revise((1,)).revised == (1, 1)
    assert revise((1, 1)).revised == (1, 1, 1)
    assert revise((1, 2)).revised == (2, 1, 2)


def test_revise_rejects_non_ascent_sequences():
    with pytest.raises(ValueError):
        revise((2, 1))
    with pytest.raises(ValueError):
        revise((1, 3))


def test_unrevise_examples():
    assert unrevise((2, 1, 2)) == (1, 2)
    assert unrevise((1, 1)) == (1,)
    assert unrevise(parse_word("545354124")) == parse_word("12132124")


def test_unrevise_rejects_outsiders():
    with pytest.raises(ValueError):
        unrevise((1,))
    with pytest.raises(ValueError):
        unrevise((1, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_revise_bijects_onto_longer_family(n):
    image = [revise(x).revised for x in family_members(n, Family.ASCENT)]
    assert len(set(image)) == len(image)
    assert sorted(image) == list(family_members(n + 1, Family.REVISED))
    for x in family_members(n, Family.ASCENT):
        assert unrevise(revise(x).revised) == x


def test_add_entry_examples():
    assert add_entry((1, 1), 1) == (1, 1, 1)
    assert add_entry((1, 1), 2) == (2, 1, 2)
    assert add_entry((2, 1, 2), 3) == (3, 1, 2, 3)
    assert add_entry((2, 1, 2), 1) == (2, 1, 2, 1)


def test_add_entry_range_check():
    with pytest.raises(ValueError):
        add_entry((1, 1), 3)
    with pytest.raises(ValueError):
        add_entry((1, 1), 0)


def test_remove_entry_undoes_add_entry():
    for n in range(2, 9):
        for x in family_members(n, Family.REVISED):
            for v in range(1, max(x) + 2):
                y = add_entry(x, v)
                assert is_member(y, Family.REVISED)
                assert remove_entry(y) == x


def test_every_member_peels_back():
    for n in range(3, 10):
        for y in family_members(n, Family.REVISED):
            x = remove_entry(y)
            assert is_member(x, Family.REVISED)
            assert add_entry(x, y[-1]) == y


def test_complement_examples():
    assert complement((1, 2, 1)) == (2, 1, 2)
    assert complement((3, 1, 2, 3)) == (1, 3, 2, 1)


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=9))
def test_complement_is_an_involution_on_cayley_words(values):
    w = standardize(tuple(values))
    assert complement(complement(w)) == w


def test_standardize_examples():
    assert standardize((7, 4, 2, 4, 3, 2, 6)) == (5, 3, 1, 3, 2, 1, 4)
    assert standardize((1, 1, 2)) == (1, 1, 2)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=9))
def test_standardize_is_idempotent(values):
    w = standardize(tuple(values))
    assert standardize(w) == w


def test_shift_trim_worked_example():
    assert shift_trim(parse_word("6463612656")) == parse_word("151412316")


def test_shift_trim_domain_checks():
    # 2121 is a revised ascent sequence, so only the 211 guard refuses it
    with pytest.raises(ValueError, match="input contains the pattern 211"):
        shift_trim((2, 1, 2, 1))
    with pytest.raises(ValueError, match="not a revised ascent sequence"):
        shift_trim((1, 2))
    with pytest.raises(ValueError, match="length >= 2"):
        shift_trim((1,))


def test_remove_entry_refuses_a_single_entry():
    with pytest.raises(ValueError, match="length >= 2"):
        remove_entry((1,))


@pytest.mark.parametrize("n", range(1, 8))
def test_shift_trim_bijects_onto_modified_avoiders(n):
    source = [w for w in family_members(n + 1, Family.REVISED) if avoids(w, (2, 1, 1))]
    image = [shift_trim(w) for w in source]
    target = [w for w in family_members(n, Family.MODIFIED) if avoids(w, (1, 2, 2))]
    assert len(set(image)) == len(image)
    assert sorted(image) == sorted(target)
