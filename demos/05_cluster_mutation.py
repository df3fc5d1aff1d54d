"""Exchange dynamics: seeds, mutation, and the variable census.

A seed couples a skew matrix of arrow counts with a cluster of Laurent
polynomials; mutation at a vertex replaces one entry by (product over
incoming + product over outgoing) / old entry, with the division required
to be exact.  In finite type repeated mutation at sinks closes up after
about one step per positive root, and meets one variable for every
almost-positive root.

Run:  python3 demos/05_cluster_mutation.py
"""

from qhammock import (
    build_quiver,
    enumerate_cluster_variables,
    initial_seed,
    mutate,
    positive_roots,
)

q = build_quiver("A", 2, [(1, 2)])


def entries(s):
    """The mutable cluster entries, as a multiset (labels forgotten)."""
    cl = s.cluster  # converted from the seed's rows on each read
    return sorted(cl[v].canonical() for v in s.mutable_vertices())


seed = initial_seed(q)
print("initial cluster:")
cl = seed.cluster
for v in seed.mutable_vertices():
    print("  ", v, "->", cl[v])

# one mutation
s1 = mutate(seed, (1, 0))
print("after mutating at vertex 1:")
cl = s1.cluster
for v in s1.mutable_vertices():
    print("  ", v, "->", cl[v])

# mutation is an involution
assert entries(mutate(s1, (1, 0))) == entries(seed)
print("mutate twice = identity: True")

# the pentagon: in rank two with one arrow, alternating mutations close
# up after ten steps
s = seed
for step in range(10):
    s = mutate(s, ((step % 2) + 1, 0))
print("pentagon closes after 10 alternating mutations:", entries(s) == entries(seed))

# ------------------------------------------------------------- census

for fam, n, arrows in [
    ("A", 2, [(1, 2)]),
    ("A", 3, [(1, 2), (2, 3)]),
    ("D", 4, [(1, 2), (2, 3), (2, 4)]),
]:
    qq = build_quiver(fam, n, arrows)
    variables = enumerate_cluster_variables(qq)
    print(f"{fam}{n}: {len(variables)} variables "
          f"(= {len(positive_roots(qq))} positive roots + {n} initial)")

# variables are keyed by their denominator vectors; fetch one directly
theta = (1, 1)
print(f"variable with denominator {theta}:", enumerate_cluster_variables(q)[theta])
