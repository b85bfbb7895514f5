"""
Counting by succession rules instead of search
==============================================
"""

from rascent import (
    Rule,
    expand_gf,
    expand_level,
    format_word,
    label_counts,
    level_totals,
    rule_children,
    rule_children_123,
    smallest_rise_top,
)

# The generic rule labels a word by (maximum, last entry); each child
# label describes one legal extension.
print("children of (1,1):", rule_children((1, 1)))
print("children of (3,2):", rule_children((3, 2)))
print()

# Materializing a few levels shows the tree holds the words themselves.
# Level l carries the words of length l + 1.
for level in range(1, 4):
    words = expand_level(Rule.FULL, level + 1)
    print(f"level {level}: {' '.join(format_word(x) for x in words)}")
print()

# Dynamic programming on label multiplicities reaches depths far beyond
# any exhaustive search.  Totals per level are the Fishburn numbers.
totals = level_totals(Rule.FULL, 12)
print("label-DP totals, levels 1..12:")
print(" ", totals)
print("  matches series:", tuple(totals) == expand_gf("fishburn", 12))
print()

# The 123-avoiding subtree runs on labels (g, last entry), g the
# smallest value that ends a strict rise, and its rule leans on a
# structural fact: once the last entry exceeds 1 it equals g (323122
# has maximum 3 and label (2, 2)).  The label distribution stays thin.
print("children of (2,1) in the 123 tree:", rule_children_123((2, 1)))
print("children of (2,2) in the 123 tree:", rule_children_123((2, 2)))
counts = label_counts(Rule.AVOID123, 6)
for lc in counts[-2:]:
    row = " ".join(f"{a},{b}:{c}" for (a, b), c in sorted(lc.counts.items()))
    print(f"level {lc.level}: {row}")
print()

totals = level_totals(Rule.AVOID123, 20)
print("123-avoiding totals, levels 1..20:")
print(" ", totals)
print("  matches series:", tuple(totals) == expand_gf("b123", 21)[1:])
print()

# The rise statistic behind the 123 rule, on a couple of words.
for w in [(1, 1, 1), (2, 1, 2), (5, 4, 5, 3, 4, 2, 3, 1, 3, 3)]:
    print(f"smallest rise top of {format_word(w)}: {smallest_rise_top(w)}")
