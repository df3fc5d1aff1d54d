"""Leading objects by tensoring copies, for small ranks.

Builds Y[β] the long way: one hammock object per unit of each b-vector
entry, folded together one factor at a time, each step taking a multiset
union, a ``QFun`` sum and a class product.  The library scales each
factor by its exponent in a single pass instead; the two objects must be
equal, class included.  It shares only ``b_vector``, ``hammock_object``,
``QFun`` addition and ``mono_mul`` with the library.  The cost grows
with the coordinate sum of β, so keep the vectors small.
"""

from __future__ import annotations

from collections import Counter

from qhammock.hammock import QFun
from qhammock.laurent import MONO_ONE, mono_mul
from qhammock.objects import Obj, hammock_object
from qhammock.quiver import DynkinQuiver, HeightFunction, Root, b_vector
from qhammock.repetition import base_vertex, translate_base


def leading_object_by_copies(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> Obj:
    """Y[β] for a nonzero nonnegative β, as ⊗ of |b_i| copies per vertex."""
    copies: list[Obj] = []
    for i, b in zip(q.vertices, b_vector(q, beta)):
        x = translate_base(xi, i) if b > 0 else base_vertex(xi, i)
        copies += [hammock_object(q, xi, x)] * abs(b)
    mult: Counter = Counter()
    fun = QFun()
    kclass = MONO_ONE
    for a in copies:
        mult.update(a.mult)
        fun = fun + a.fun
        kclass = None if kclass is None or a.kclass is None else mono_mul(kclass, a.kclass)
    return Obj(mult, fun, kclass)
