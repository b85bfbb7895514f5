"""
Exact series arithmetic and the numeric oracles
===============================================

Everything here runs on rationals; no floats, so identities either
hold on the nose or fail loudly.
"""

from rascent import (
    PowerSeries,
    bell_numbers,
    catalan_numbers,
    expand_gf,
    fishburn,
    stirling2,
    system_132,
)

print("Fishburn numbers:   ", fishburn(10))
print("Catalan numbers:    ", catalan_numbers(10))
print("Bell numbers:       ", bell_numbers(10))
print("Stirling row n=6:   ", tuple(stirling2(6, k) for k in range(7)))
print()

# The two algebraic generating functions both satisfy a quadratic with
# the same discriminant.  Squaring the solved radical part must land
# back on the discriminant exactly.
order = 24
t = PowerSeries.variable(order)
disc = t ** 4 + 2 * t ** 2 - 4 * t + 1


def lift(name):
    return PowerSeries.from_coefficients((0,) + expand_gf(name, order), order)


z = lift("b123")
y = lift("b132")
print("b123 prefix:", expand_gf("b123", 10))
print("b132 prefix:", expand_gf("b132", 10))
print("123 radical squares to discriminant:",
      (2 * (t - 1) * z - t * t + 1) ** 2 == disc.truncate(order))
print("132 radical squares to discriminant:",
      (t * t - 2 * t + 1 - 2 * t * y) ** 2 == disc.truncate(order))
print()

# sqrt on series works too, and is how the expansions are produced in
# the first place.
root = disc.sqrt()
print("sqrt(discriminant) starts:", root.coeffs[:5])
print("squares back:", root * root == disc.truncate(order))
print()

# The 132 count comes out of a three-sequence recurrence system; its
# auxiliary sequence s secretly counts the 123-avoiders, one index up.
state = system_132(12)
print("g:", state.g[1:])
print("r:", state.r[1:])
print("s:", state.s[1:])
print("s shifted equals b123:",
      state.s[3:] == expand_gf("b123", 11)[1:])
