"""From a root vector to a complex, and from the complex to a character.

The builder runs a recursion on the root vector: each step tilts the
current leading object at a pivot vertex and splices the result into a
mapping cone.  The outcome is a bounded complex of formal objects, each
kept as its class, one int of the height's packing (`xi.classes`) that
is printed here decoded to its monomial, whose Euler characteristic, after
specializing the connector symbols to -1 and dividing by the frontier
denominator, is the truncated character.

Run:  python3 demos/04_building_complexes.py
"""

import json

from qhammock import (
    build_complex,
    build_quiver,
    class_object,
    complex_to_json,
    default_height,
    euler_char,
    verify_d_squared,
)
from qhammock.quiver import beta_combinatorics

q = build_quiver("A", 2, [(1, 2)])
xi = default_height(q)

theta = (1, 1)
fc = build_complex(q, xi, theta)

print(f"complex for beta={theta}:")
print("  denominator exponents:", fc.den)
# each summand is its class, one int: xi.classes.decode gives its monomial
# and class_object rebuilds the object it names
for n in sorted(fc.num.terms):
    for idx, m in enumerate(fc.num.terms[n]):
        print(f"  degree {n}[{idx}]: {class_object(q, xi, m)}  class={xi.classes.decode(m)}")
for n in sorted(fc.num.diffs):
    for comp in fc.num.diffs[n]:
        print(f"  d{n}: {comp.src} -> {comp.dst}  tag={comp.tag} sign={comp.sign:+d}")

rep = verify_d_squared(q, fc.num)
print("d^2 = 0 check:", rep["ok"])

chi = euler_char(q, xi, fc, specialize_f=-1)
print("euler characteristic:", chi)

# Pivot choice does not change the character.  On the out-star 1 <- 2 -> 3
# the highest root admits two valid pivots, so there is something to compare.
q3 = build_quiver("A", 3, [(2, 1), (2, 3)])
xi3 = default_height(q3)
top = (1, 1, 1)
bd = beta_combinatorics(q3, xi3, top)
print(f"pivot candidates for {top} on the out-star:", bd.pivot_candidates)
chis = [
    euler_char(q3, xi3, build_complex(q3, xi3, top, pivot=pvt), specialize_f=-1)
    for pvt in bd.pivot_candidates
]
print("  all pivots give the same character:", all(c == chis[0] for c in chis))

# The whole structure serializes to JSON for external tooling.
print()
print(json.dumps(complex_to_json(q, xi, fc), indent=1)[:400], "...")
