"""Exact truncated power series over the rationals.

Coefficients are exact: an `int` when integral, a `fractions.Fraction`
otherwise, never a float.  Integral series (the counting series of this
package) so run on int arithmetic, and integrality of a combinatorial
series is something callers can assert rather than hope for.  Only
series division and `sqrt` can leave a remainder, and both divide
through `Fraction`.  A series carries its own truncation order, and
mixed-order arithmetic truncates to the smaller order.

>>> t = PowerSeries.variable(5)
>>> ((PowerSeries.constant(1, 5) + 2 * t).sqrt() * 2).coefficient(1)
2
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _exact(c: Scalar) -> Scalar:
    """c as an int when it is integral, as a Fraction otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class PowerSeries:
    """A power series truncated after the term of degree `order`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(map(_exact, coeffs))
        if not cs:
            raise ValueError("a series needs at least the constant term")
        self.coeffs: tuple[Scalar, ...] = cs

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "PowerSeries":
        return cls([value] + [0] * order)

    @classmethod
    def variable(cls, order: int) -> "PowerSeries":
        """The series t, truncated at the given order (>= 1)."""
        if order < 1:
            raise ValueError("order must be >= 1 for the variable")
        return cls([0, 1] + [0] * (order - 1))

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[Scalar], order: int) -> "PowerSeries":
        """Build a series of exactly the given order, zero-padding."""
        cs = list(coeffs)
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        return cls(cs + [0] * (order + 1 - len(cs)))

    # -- basics -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Scalar:
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient {k} outside truncation order {self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: order + 1])

    def integer_coefficients(self) -> list[int]:
        """All coefficients as ints; raises if any is non-integral."""
        for k, c in enumerate(self.coeffs):
            if type(c) is not int:
                raise ArithmeticError(f"coefficient of t^{k} is not an integer: {c}")
        return list(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"

    # -- arithmetic -------------------------------------------------------

    def _pair(self, other: "PowerSeries") -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
        n = min(self.order, other.order)
        return self.coeffs[: n + 1], other.coeffs[: n + 1]

    def __add__(self, other: Union["PowerSeries", Scalar]) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs)
            cs[0] += other
            return PowerSeries(cs)
        a, b = self._pair(other)
        return PowerSeries(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(-c for c in self.coeffs)

    def __sub__(self, other: Union["PowerSeries", Scalar]) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        a, b = self._pair(other)
        return PowerSeries(x - y for x, y in zip(a, b))

    def __rsub__(self, other: Scalar) -> "PowerSeries":
        return (-self) + other

    def __mul__(self, other: Union["PowerSeries", Scalar]) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return PowerSeries(c * other for c in self.coeffs)
        a, b = self._pair(other)
        n = len(a)
        out: list[Scalar] = [0] * n
        for i, x in enumerate(a):
            if x:
                out[i:] = [o + x * y for o, y in zip(out[i:], b)]
        return PowerSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["PowerSeries", Scalar]) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / other)
        a, b = self._pair(other)
        if b[0] == 0:
            raise ValueError("divisor must have a nonzero constant term")
        n = len(a)
        out: list[Scalar] = [0] * n
        inv0 = _exact(Fraction(1) / b[0])
        for k in range(n):
            acc = a[k]
            for j in range(1, k + 1):
                if b[j]:
                    acc -= b[j] * out[k - j]
            out[k] = _exact(acc * inv0)
        return PowerSeries(out)

    def __rtruediv__(self, other: Scalar) -> "PowerSeries":
        return PowerSeries.constant(other, self.order) / self

    def __pow__(self, e: int) -> "PowerSeries":
        if e < 0:
            raise ValueError("negative powers are not supported")
        result = PowerSeries.constant(1, self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift_down(self, k: int = 1) -> "PowerSeries":
        """Divide by t^k; the k lowest coefficients must vanish."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError(f"series is not divisible by t^{k}")
        if k > self.order:
            raise ValueError("shift exceeds truncation order")
        return PowerSeries(self.coeffs[k:])

    def sqrt(self) -> "PowerSeries":
        """Square root with constant term 1, coefficient by coefficient:
        y_0 = 1 and y_k = (a_k - sum_{0<j<k} y_j y_{k-j}) / 2, which is
        the coefficient of t^k in y * y = a solved for y_k."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        y: list[Scalar] = [1]
        for k in range(1, len(self.coeffs)):
            rest = self.coeffs[k] - sum(y[j] * y[k - j] for j in range(1, k))
            y.append(_exact(Fraction(rest, 2)))
        return PowerSeries(y)
