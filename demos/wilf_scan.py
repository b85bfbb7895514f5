"""
Scanning short patterns for equal avoider counts
================================================
"""

from collections import defaultdict

from rascent import (
    Family,
    count_avoiders,
    enumerate_family,
    format_word,
    run_suite,
)

# Group every Cayley pattern of length up to 3 by its avoider-count
# profile over small lengths.  Patterns sharing a profile are
# candidates for a genuine equivalence; the split below matches the
# known classification.
n_max = 8
profiles = defaultdict(list)
for k in (1, 2, 3):
    for pattern in enumerate_family(k, Family.CAYLEY):
        profile = tuple(count_avoiders(n, pattern) for n in range(1, n_max + 1))
        profiles[profile].append(pattern)

for profile, patterns in sorted(profiles.items(), reverse=True):
    names = ", ".join(format_word(p) for p in patterns)
    print(f"{{{names}}}")
    print(f"  counts to length {n_max}: {list(profile)}")
print()

# Two of the multi-member classes are theorems, not just data: 231/321
# and 121/211 have identical avoider sets, and a pattern whose second
# entry is its unique maximum may have a copy of that maximum glued to
# its front without changing its avoiders.  The wilf suite checks this
# prefix lemma on avoider sets, for these four patterns together.
lemma = next(c for c in run_suite("wilf", n_max) if c.name == "prepending-the-maximum-is-neutral")
for p in [(1, 2), (1, 2, 1), (2, 3, 1), (1, 3, 2)]:
    extended = (max(p),) + p
    print(f"{format_word(p)} vs {format_word(extended)}: "
          f"avoider sets agree to length {n_max}: {lemma.passed}")
