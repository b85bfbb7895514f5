"""Independent counting oracles: classical sequences, closed forms for
solved avoidance classes, and exact generating-function expansions.

Nothing here touches the enumeration engine; agreement between these
formulas and brute-force counts is what the verification suites check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import GF_NAMES
from .words import Word, check_word


def _poly_mul_trunc(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x and i <= order:
            for j, y in enumerate(b):
                if i + j > order:
                    break
                if y:
                    out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def fishburn(count: int) -> tuple[int, ...]:
    """The first `count` Fishburn numbers F_1, F_2, ...

    Expanded from sum_{n>=1} prod_{i=1..n} (1 - (1-x)^i); the n-th
    product term has valuation n, so terms beyond the truncation order
    contribute nothing.

    >>> fishburn(7)
    (1, 2, 5, 15, 53, 217, 1014)
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    order = count
    total = [0] * (order + 1)
    prod = [1] + [0] * order
    pow_one_minus = [1] + [0] * order  # (1-x)^i, updated in place
    for i in range(1, order + 1):
        pow_one_minus = _poly_mul_trunc(pow_one_minus, [1, -1], order)
        factor = [-c for c in pow_one_minus]
        factor[0] += 1
        prod = _poly_mul_trunc(prod, factor, order)
        for k in range(order + 1):
            total[k] += prod[k]
    return tuple(total[1:])


@lru_cache(maxsize=None)
def catalan_numbers(count: int) -> tuple[int, ...]:
    """C_0 .. C_{count-1} by the standard convolution recurrence."""
    if count < 1:
        raise ValueError("count must be >= 1")
    cs = [1]
    for n in range(1, count):
        cs.append(sum(cs[k] * cs[n - 1 - k] for k in range(n)))
    return tuple(cs)


@lru_cache(maxsize=None)
def bell_numbers(count: int) -> tuple[int, ...]:
    """B_0 .. B_{count-1} via the Bell triangle."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = [1]
    row = [1]
    for _ in range(count - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return tuple(out)


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind S(n, k).

    >>> stirling2(4, 2)
    7
    """
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        nxt = [0] * (m + 1)
        for j in range(1, m + 1):
            below = row[j] if j < len(row) else 0
            nxt[j] = j * below + row[j - 1]
        row = nxt
    return row[k]


def recurrence_213(count: int) -> tuple[int, ...]:
    """f_1 .. f_count with f_n = 1 + sum_{k<=n-2} f_k sum_{2<=j<=n-k} f_j.

    Starts 1, 1, 2, 5, 14, ...; equals the shifted Catalan numbers,
    which the verification suites confirm independently.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    f = [0, 1]  # 1-based, f[1] = 1
    for n in range(2, count + 1):
        acc = 1
        for k in range(1, n - 1):
            acc += f[k] * sum(f[2: n - k + 1])
        f.append(acc)
    return tuple(f[1:])


class Seq132State(NamedTuple):
    """Joint solution of the 132-avoidance counting system.

    g[n] counts all 132-avoiding revised ascent sequences of length n,
    r[n] those ending in their maximum, s[n] those ending in their
    maximum right after a smaller entry.  Index 0 is a zero pad.
    """

    g: tuple[int, ...]
    r: tuple[int, ...]
    s: tuple[int, ...]


def system_132(n_max: int) -> Seq132State:
    """Solve the coupled recurrences for 132-avoiders up to n_max.

    s_n = sum_{k>=1} g_{n-1-k};  r_n = r_{n-1} + s_n;
    g_n = 1 + sum_{i=3..n} (r_i - 1) g_{n+1-i}.
    The length-1 seeds g_1 = r_1 = 1 come from the single word 1.

    >>> system_132(6).g
    (0, 1, 1, 2, 5, 13, 35)
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    g = [0] * (n_max + 1)
    r = [0] * (n_max + 1)
    s = [0] * (n_max + 1)
    g[1] = r[1] = 1
    for n in range(2, n_max + 1):
        s[n] = sum(g[1: n - 1])
        r[n] = r[n - 1] + s[n]
        g[n] = 1 + sum((r[i] - 1) * g[n + 1 - i] for i in range(3, n + 1))
    return Seq132State(g=tuple(g), r=tuple(r), s=tuple(s))


# ---------------------------------------------------------------------------
# Generating functions.  All four are algebraic; the two quadratic ones
# share the discriminant t^4 + 2t^2 - 4t + 1.

def _discriminant_root(t):
    # t is the series variable; the root has t's truncation order
    disc = t ** 4 + 2 * t ** 2 - 4 * t + 1
    return disc.sqrt()


@lru_cache(maxsize=None)
def expand_gf(name: str, order: int) -> tuple[int, ...]:
    """Coefficients of t^1 .. t^order of a named series.

    fishburn  counts revised ascent sequences by length (shifted once)
    b123      counts the 123-avoiders among them
    b132      counts the 132-avoiders
    b213      counts the 213-avoiders (shifted Catalan numbers)

    >>> expand_gf("b213", 6)
    (1, 1, 2, 5, 14, 42)
    """
    if name not in GF_NAMES:
        raise ValueError(f"unknown series {name!r}; choose from {GF_NAMES}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if name == "fishburn":
        return fishburn(order)
    from fractions import Fraction

    from .series import PowerSeries
    t = PowerSeries.variable(order + 1)
    if name == "b123":
        root = _discriminant_root(t)
        numerator = t ** 2 - 1 + root
        series = numerator / (2 * (t - 1))
    elif name == "b132":
        root = _discriminant_root(t)
        numerator = t ** 2 - 2 * t + 1 - root
        series = numerator.shift_down(1) * Fraction(1, 2)
    else:  # b213
        inner = 1 - 4 * t
        series = (1 - inner.sqrt()) * Fraction(1, 2)
    coeffs = series.integer_coefficients()
    return tuple(coeffs[1: order + 1])


# ---------------------------------------------------------------------------
# Closed forms for the solved avoidance classes, keyed by pattern.  Each
# class gives its counts for n = 2..n_max in one call, so that a series
# or a sequence is expanded once for a whole column, not once per n.

def _count_121_class(n: int) -> int:
    # sum_{k=1..n-1} k^(n-k-1), with 0^0 = 1
    return sum(k ** (n - k - 1) for k in range(1, n))


def _per_n(fn):
    return lambda n_max: tuple(fn(n) for n in range(2, n_max + 1))


_CLOSED: dict[Word, object] = {}
_ROWS: list[tuple[Word, ...]] = []


def _register(patterns: tuple[Word, ...], counts) -> None:
    _ROWS.append(patterns)
    for p in patterns:
        _CLOSED[p] = counts


_register(((1, 1),), _per_n(lambda n: 0))
_register(((1, 2), (2, 1), (2, 1, 2)), _per_n(lambda n: 1))
_register(((2, 2, 1),), _per_n(lambda n: n - 1))
_register(((3, 1, 2), (1, 2, 2)), _per_n(lambda n: 2 ** (n - 2)))
_register(((2, 3, 1), (3, 2, 1), (3, 2, 3, 1)), _per_n(lambda n: 2 ** (n - 1) - n + 1))
_register(((2, 1, 3),), lambda n_max: catalan_numbers(n_max)[1:])
_register(((1, 2, 1), (2, 1, 1), (2, 1, 2, 1)), _per_n(_count_121_class))
_register(((1, 1, 2),), lambda n_max: bell_numbers(n_max)[1:])
_register(((1, 2, 3),), lambda n_max: expand_gf("b123", n_max)[1:])
_register(((1, 3, 2), (3, 1, 3, 2)), lambda n_max: expand_gf("b132", n_max)[1:])

#: Patterns with a known closed form or algebraic series, one row per
#: registration above, grouped by shared avoidance counts.
TABLE_ROWS: tuple[tuple[Word, ...], ...] = tuple(_ROWS)

#: No closed form is known for 111-avoiders; this prefix (n = 2..8) is
#: the best exhaustive search currently gives.
OPEN_111_PREFIX: tuple[int, ...] = (1, 1, 2, 4, 10, 29, 97)


def closed_form_counts(pattern: Word, n_max: int) -> tuple[int, ...] | None:
    """Predicted numbers of revised ascent sequences of lengths 1..n_max
    avoiding the pattern, or None when the class is unsolved.

    >>> closed_form_counts((2, 1, 3), 6)
    (1, 1, 2, 5, 14, 42)
    """
    p = check_word(pattern)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    counts = _CLOSED.get(p)
    # the single word 1 avoids every pattern here (all have length >= 2)
    return None if counts is None else (1,) + counts(n_max)


def closed_form(pattern: Word, n: int) -> int | None:
    """Predicted number of length-n revised ascent sequences avoiding
    the pattern, or None when the class is unsolved: the last entry of
    `closed_form_counts(pattern, n)`.

    >>> closed_form((3, 2, 1), 6)
    27
    >>> closed_form((1, 1, 1), 6) is None
    True
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = closed_form_counts(pattern, n)
    return None if counts is None else counts[-1]
