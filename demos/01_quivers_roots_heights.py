"""Tour of the base layer: Dynkin quivers, orientations, heights, roots.

Everything downstream hangs off a `DynkinQuiver` (an orientation of a
simply-laced diagram) and a `HeightFunction` (integer labels that drop by
one along every arrow).  This script builds a few, pokes at them, and
enumerates root systems.

Run from the repository root:  python3 demos/01_quivers_roots_heights.py
"""

from qhammock import (
    all_orientations,
    beta_combinatorics,
    build_quiver,
    coxeter_number,
    default_height,
    height_from_values,
    nakayama_involution,
    positive_roots,
    simple_root,
)

# ----------------------------------------------------------------- build

# A chain 1 -> 2 -> 3 <- 4: the running example used throughout the demos.
q = build_quiver("A", 4, [(1, 2), (2, 3), (4, 3)])
print("quiver:", q.family, q.rank, "arrows", q.arrows)

# The D-family convention: vertices 1..n-2 form the chain, the two fork
# vertices n-1 and n hang off vertex n-2.
d4 = build_quiver("D", 4, [(1, 2), (2, 3), (2, 4)])
print("D4 fork neighbors of 2:", sorted(d4.neighbors(2)))

# Orientations are just arrow-direction choices; a tree with e edges has
# 2^e of them.
print("A4 orientations:", len(list(all_orientations("A", 4))))
print("D4 orientations:", len(list(all_orientations("D", 4))))

# ----------------------------------------------------------------- heights

# A height function labels vertices so that each arrow drops the value by
# exactly one.  The default pins vertex 1 to its two-coloring class, which
# keeps vertex/slot parities aligned across every module in the package.
xi = default_height(q)
print("default heights:", dict(zip(q.vertices, xi.values)))

# You can also supply a full assignment; anything that fails to drop by
# one along an arrow is rejected with ParityViolation.
xi_shift = height_from_values(q, {1: 3, 2: 2, 3: 1, 4: 2})
print("pinned at 3:   ", dict(zip(q.vertices, xi_shift.values)))

# ----------------------------------------------------------------- symmetry

# The Coxeter number controls the global periodicity of everything built
# on the repetition quiver; the involution below tells you which vertex
# the long symmetry sends each vertex to.
for fam, n, arrows in [("A", 4, [(1, 2), (2, 3), (4, 3)]), ("D", 4, [(1, 2), (2, 3), (2, 4)])]:
    qq = build_quiver(fam, n, arrows)
    nu = {i: nakayama_involution(qq, i) for i in qq.vertices}
    print(f"{fam}{n}: coxeter={coxeter_number(qq)} involution={nu}")

# ----------------------------------------------------------------- roots

roots = positive_roots(q)
print(f"A4 positive roots ({len(roots)}):")
for r in roots:
    print("  ", r)

# Root arithmetic is plain tuple arithmetic; the combinatorics bundle
# computes support, path closures and the pivot-selection data that the
# complex builder consumes.
theta = max(roots, key=sum)
bd = beta_combinatorics(q, xi, theta)
print("highest root:", theta)
print("  support        ", bd.support)
print("  pivot candidates", bd.pivot_candidates, "-> chosen", bd.pivot)
print("  simple roots    ", [simple_root(q, i) for i in q.vertices])
