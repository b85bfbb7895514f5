"""Exact truncated power-series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rascent.series import PowerSeries


def series_of(ints, order=8):
    return PowerSeries.from_coefficients(ints, order)


small_series = st.builds(
    series_of,
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=9),
)


def test_constructors():
    one = PowerSeries.constant(1, 5)
    t = PowerSeries.variable(5)
    assert one.coefficient(0) == 1
    assert all(one.coefficient(k) == 0 for k in range(1, 6))
    assert t.coefficient(1) == 1
    assert series_of([1, 2]).coeffs == (1, 2, 0, 0, 0, 0, 0, 0, 0)


def test_coefficient_range_checked():
    s = PowerSeries.constant(1, 3)
    with pytest.raises(ValueError):
        s.coefficient(4)


@given(small_series, small_series, small_series)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == PowerSeries.constant(0, a.order)


@given(small_series)
def test_scalar_operations(a):
    assert 2 * a == a + a
    assert a * 1 == a
    assert -(-a) == a
    assert a / 2 * 2 == a


def test_division_round_trips():
    t = PowerSeries.variable(10)
    denom = 1 - 2 * t + t ** 3
    num = 3 + t ** 2
    assert (num / denom) * denom == num.truncate(10)
    with pytest.raises(ValueError):
        num / t  # no constant term to invert


def test_geometric_series():
    t = PowerSeries.variable(6)
    geo = 1 / (1 - t)
    assert geo.coeffs == tuple(Fraction(1) for _ in range(7))


def test_power_and_shift():
    t = PowerSeries.variable(6)
    assert (1 + t) ** 3 == 1 + 3 * t + 3 * t ** 2 + t ** 3
    assert (t ** 2 + t ** 3).shift_down(2) == (1 + t).truncate(4)
    with pytest.raises(ValueError):
        (1 + t).shift_down(1)


def test_sqrt_of_binomial():
    s = (1 + 2 * PowerSeries.variable(8)).sqrt()
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 1
    assert s.coefficient(2) == Fraction(-1, 2)
    assert s * s == (1 + 2 * PowerSeries.variable(8)).truncate(8)


def test_sqrt_requires_unit_constant_term():
    t = PowerSeries.variable(5)
    with pytest.raises(ValueError):
        t.sqrt()
    with pytest.raises(ValueError):
        (2 + t).sqrt()


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=7))
def test_sqrt_round_trip(tail):
    s = series_of([1] + tail, order=10)
    root = s.sqrt()
    assert root * root == s.truncate(10)


def test_integer_coefficients_guard():
    s = series_of([1, 2, 3])
    assert list(s.integer_coefficients()) == [1, 2, 3, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ArithmeticError):
        (s / 2).integer_coefficients()


scalars = st.one_of(st.integers(min_value=-6, max_value=6),
                    st.fractions(min_value=-6, max_value=6, max_denominator=6))
exact_series = st.builds(lambda cs: PowerSeries.from_coefficients(cs, 6),
                         st.lists(scalars, min_size=1, max_size=7))


def with_constant(s, c):
    return s - s.coefficient(0) + c


def assert_exact(s, integral=False):
    # an int when integral, a Fraction otherwise, never a float
    for c in s.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
        assert type(c) is int or not integral, c


@given(exact_series, exact_series, scalars.filter(bool), st.sampled_from([1, -1]),
       scalars.filter(lambda c: c not in (0, 1, -1)))
def test_coefficients_stay_exact(a, b, k, unit, non_unit):
    integral = all(type(c) is int for c in a.coeffs + b.coeffs)
    for result in (a + b, a - b, a * b, -a, a + k, k - a, k * a, a / k):
        assert_exact(result)
    for result in (a + b, a - b, a * b, a ** 3):
        assert_exact(result, integral)
    for c in (unit, non_unit):
        d = with_constant(b, c)
        q = a / d
        assert_exact(q, integral and c == unit)
        assert q * d == a
    root = with_constant(a, 1).sqrt()
    assert_exact(root)
    assert root * root == with_constant(a, 1)


def test_coefficients_are_normalized_on_construction():
    s = PowerSeries([Fraction(4, 2), 0.5, True])
    assert s.coeffs == (2, Fraction(1, 2), 1)
    assert [type(c) for c in s.coeffs] == [int, Fraction, int]
    assert hash(s) == hash(PowerSeries([2, Fraction(1, 2), 1]))


def test_truncate_and_equality():
    a = series_of([1, 2, 3], order=8)
    assert a.truncate(2).coeffs == (1, 2, 3)
    assert a.truncate(2) != a
    assert hash(a) == hash(series_of([1, 2, 3], order=8))
