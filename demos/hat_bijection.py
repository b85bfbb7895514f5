"""
From classical to revised sequences, one relabeling at a time
=============================================================
"""

from rascent import (
    Family,
    add_entry,
    avoids,
    family_members,
    format_word,
    parse_word,
    remove_entry,
    revise,
    shift_trim,
    unrevise,
)

# The revision map takes a classical ascent sequence, bumps the values
# sitting over each ascent bottom, and prepends the new maximum.  The
# trace object keeps the intermediate stages.
x = parse_word("12132124")
trace = revise(x)
print("input:              ", format_word(trace.source))
print("ascent bottoms:     ", sorted(trace.bottoms))
print("after the bumps:    ", format_word(trace.relabeled))
print("with maximum affixed:", format_word(trace.revised))
print("round trip:         ", format_word(unrevise(trace.revised)))
print()

# The same output falls out of a single extension step applied to the
# image of the shorter word.  Chasing that recursion down to length one
# rebuilds the whole image entry by entry.
y = revise(x[:-1]).revised
print("image of", format_word(x[:-1]), "is", format_word(y))
print("extend by the dropped entry:", format_word(add_entry(y, x[-1])))
print()

# Extension and peeling invert each other, which is how one walks the
# family without ever touching the classical side.
w = parse_word("545354124")
inner = remove_entry(w)
print(f"{format_word(w)} peels to {format_word(inner)} "
      f"(dropped value {w[-1]})")
print("re-extending:", format_word(add_entry(inner, w[-1])))
print()

# The headline fact: the map is a bijection, so both sides count the
# same.
for n in range(1, 8):
    source = family_members(n, Family.ASCENT)
    images = {revise(s).revised for s in source}
    target = set(family_members(n + 1, Family.REVISED))
    status = "match" if images == target else "MISMATCH"
    print(f"length {n} -> {n + 1}: {len(source)} words, images {status}")
print()

# A second, sparser bijection: raise every entry by one, wrap the new
# top value around to 1, drop the last entry.  It carries 211-avoiding
# revised words onto 122-avoiding modified ones.
v = parse_word("6463612656")
print(f"shift and trim {format_word(v)} -> {format_word(shift_trim(v))}")
for n in range(2, 8):
    dom = [y for y in family_members(n + 1, Family.REVISED)
           if avoids(y, (2, 1, 1))]
    img = {shift_trim(y) for y in dom}
    tgt = {x for x in family_members(n, Family.MODIFIED)
           if avoids(x, (1, 2, 2))}
    status = "match" if img == tgt and len(img) == len(dom) else "MISMATCH"
    print(f"length {n + 1} -> {n}: {len(dom)} words, images {status}")
