"""Object calculus: formal tensor products of hammock generators.

An `Obj` is a multiset of repetition-quiver vertices (its generators)
and a quasi-additive function (its shadow).  A product of hammock objects
on the two base sections and ghosts is named by a symbolic class, a
monomial that the height packs into one int (`xi.classes.encode`) and from
which `class_object` builds it again.  Serre tilting swaps chosen
generators for their Serre shifts while
adjusting the function; the dominant ones among these objects encode
root vectors, and that encoding is exactly invertible.

Run:  python3 demos/03_objects_and_tilting.py
"""

from qhammock import (
    build_quiver,
    class_object,
    default_height,
    factor_dominant,
    ghost_object,
    hammock_object,
    is_iso,
    kr_object,
    leading_object,
    mono_from_dict,
    obj_pow,
    root_of_dominant,
    serre_tilt,
    tensor_obj,
    translate_base,
)

q = build_quiver("A", 2, [(1, 2)])
xi = default_height(q)

y1 = hammock_object(q, xi, translate_base(xi, 1))
k1 = kr_object(q, xi, 1)
g1 = ghost_object(q, xi, translate_base(xi, 1))
for name, obj, powers in [
    ("generator object", y1, {("Y", 1, -1): 1}),
    ("kirillov-reshetikhin object", k1, {("Y", 1, -1): 1, ("Y", 1, 1): 1}),
    ("ghost object", g1, {("f", 1): 1}),
]:
    mono = mono_from_dict(powers)
    assert class_object(q, xi, xi.classes.encode(mono)) == obj
    print(f"{name}:", obj, " class:", mono)

# tensoring concatenates multisets and adds functions
sq = tensor_obj(y1, y1)
print("square:", sq, "=", obj_pow(y1, 2))

# Serre tilting at a vertex contained in the multiset
t = serre_tilt(q, k1, [translate_base(xi, 1)])
print("tilt of the KR object at its left generator:", t)

# ---------------------------------------------------- dominant encoding

# leading_object(beta) is the dominant object whose exponent data encodes
# the integer vector beta; root_of_dominant inverts it exactly.
for beta in [(1, 0), (0, 1), (1, 1), (3, 2)]:
    ob = leading_object(q, xi, beta)
    back = root_of_dominant(q, xi, ob)
    print(f"beta={beta}  object={ob}  omega={back}")
    assert back == beta

# factor_dominant peels KR factors off a dominant object and returns the
# remaining leading part -- a unique factorization.
prod = tensor_obj(k1, leading_object(q, xi, (1, 1)))
fac = factor_dominant(q, xi, prod)
print("factor KR^1 * Y[(1,1)]:", "kr exponents", dict(fac.k_exp), "remainder", fac.remainder)

# ---------------------------------------------------- the mutation move

# Tilting one generator against its own vertex trades it for the ghost
# there times the mesh neighbors; is_iso compares multiset + function.
from qhammock import ZVertex, arrows_out, translate

v = translate_base(xi, 1)
lhs = tensor_obj(serre_tilt(q, hammock_object(q, xi, v), [v]),
                 hammock_object(q, xi, translate(v, -1)))
rhs = tensor_obj(ghost_object(q, xi, v),
                 *[hammock_object(q, xi, y) for y in arrows_out(q, v)])
print("mutation move is an isomorphism:", is_iso(q, lhs, rhs))
