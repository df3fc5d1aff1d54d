"""Leading objects by tensoring copies, and equality of presented
functions by evaluating both sides, for small ranks.

Builds Y[β] the long way: one hammock object per unit of each b-vector
entry, folded together one factor at a time, each step taking a multiset
union and a ``QFun`` sum.  The library scales each factor by its exponent
in a single pass instead; the two objects must be equal.  It shares only
``b_vector``, ``hammock_object`` and ``QFun`` addition with the library.
The cost grows with the coordinate sum of β, so keep the vectors small.

``qfun_equal_by_evaluation`` decides equality the presentation way: it
builds f − g as a ``QFun``, takes its defect, and then evaluates f and g
separately over the two slots left of every coefficient of either.  The
library subtracts the coefficients once and never evaluates; the
verdicts must agree.

``hammock_values_by_knitting`` knits the hammock generator h_v from its
defect, the indicator of v, up to a horizon, slot by slot with the mesh
rule.  The library reads h_v off the hom table as an alternating sum
over the Serre orbit of v instead; the values must agree.
"""

from __future__ import annotations

from collections import Counter

import qhammock.hammock as hammock
from qhammock.hammock import QFun
from qhammock.objects import Obj, hammock_object
from qhammock.quiver import DynkinQuiver, HeightFunction, Root, b_vector
from qhammock.repetition import ZVertex, base_vertex, section_through, translate_base, window_vertices


def leading_object_by_copies(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> Obj:
    """Y[β] for a nonzero nonnegative β, as ⊗ of |b_i| copies per vertex."""
    copies: list[Obj] = []
    for i, b in zip(q.vertices, b_vector(q, beta)):
        x = translate_base(xi, i) if b > 0 else base_vertex(xi, i)
        copies += [hammock_object(q, xi, x)] * abs(b)
    mult: Counter = Counter()
    fun = QFun()
    for a in copies:
        mult.update(a.mult)
        fun = fun + a.fun
    return Obj(mult, fun)


def qfun_equal_by_evaluation(q: DynkinQuiver, f: QFun, g: QFun) -> bool:
    """f == g as functions: zero defect of f − g, and f(y) == g(y) on the
    far-left window."""
    if hammock.qfun_defect(q, f - g):
        return False
    slots = [v.p for v in f.gens] + [v.p for v in g.gens]
    slots += [v.p for v in f.deltas] + [v.p for v in g.deltas]
    if slots:
        p0 = min(slots) - 1
        for y in window_vertices(q, p0 - 1, p0):
            if hammock.qfun_eval(q, f, y) != hammock.qfun_eval(q, g, y):
                return False
    return True


def hammock_values_by_knitting(q: DynkinQuiver, v: ZVertex, horizon: int) -> dict[ZVertex, int]:
    """h_v on every vertex from the section through v to slot `horizon`;
    every vertex left of that section, or missing from the map, is 0."""
    sec = section_through(q, v)
    values: dict[ZVertex, int] = {}
    for p in range(min(sec.values()), horizon + 1):
        for i in q.vertices:
            if p < sec[i] or (p - sec[i]) % 2:
                continue
            y = ZVertex(i, p)
            values[y] = (
                (y == v)
                + sum(values.get(ZVertex(j, p - 1), 0) for j in q.neighbors(i))
                - values.get(ZVertex(i, p - 2), 0)
            )
    return values
