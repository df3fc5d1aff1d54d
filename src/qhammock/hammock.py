"""Quasi-additive functions on the repetition quiver, by knitting.

The central recurrence: a function f on the repetition quiver is *knitted*
from a starting section and a defect map D by

    f(y) = sum of f over arrows into y  -  f(translate y)  +  D(y),

with f = 0 strictly left of the starting section.  The *defect* of any f is
recovered pointwise as  f(y) + f(τy) − Σ_{w→y} f(w),  so knitting and defect
extraction are mutually inverse; that is what makes presentations by
(generator, delta) pairs exact and cheap to compare.

Two families of knitted functions matter here:

* the hammock generator h_x: defect is the indicator of x (zero left of the
  section through x); on the section through x the values are oriented-path
  indicators, and further right they follow the mesh rule;
* the hom-counting function g_x: defect is the indicator of x plus the
  indicator of the inverse translate of the Serre shift of x; its values
  are dimensions of morphism spaces out of x, supported on the closed band
  between the sections through x and through Serre(x).

Only g_x is knitted, once per (quiver, label): the translate moves a hom
table with its source, so every other vertex of a label reads the table of
the label's reference vertex, moved, and lru_cache keeps each per (quiver,
vertex).  Knitting is linear, so g_x = h_x + h_{τ⁻¹Sx}, and h_x is the
alternating sum of the g over the orbit x_m = (τ⁻¹S)^m x:
h_x(y) = Σ_{m≥0} (−1)^m dim Hom(x_m, y).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .errors import InvariantViolation
from .quiver import DynkinQuiver, coxeter_number, nakayama_involution
from .repetition import ZVertex, check_vertex, section_through, serre, translate

__all__ = [
    "QFun",
    "hammock_fun",
    "qfun_eval",
    "qfun_defect",
    "qfun_equal",
    "dim_hom",
    "hom_values",
    "qfun_grid_tsv",
]


# ───────────────────────── presentations ─────────────────────────

_Coeffs = Mapping[ZVertex, int]


class QFun:
    """A function presented as  Σ c_v · h_v  +  Σ d_z · (pointwise delta at z).

    Immutable: gens and deltas are read-only views and neither can be
    reassigned.  Supports ring-module arithmetic.  Equality of
    presentations is *syntactic*; use qfun_equal for equality of the
    presented functions.
    """

    __slots__ = ("gens", "deltas")

    def __init__(
        self,
        gens: Mapping[ZVertex, int] | None = None,
        deltas: Mapping[ZVertex, int] | None = None,
    ):
        object.__setattr__(self, "gens", _coefficients(gens))
        object.__setattr__(self, "deltas", _coefficients(deltas))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"QFun is immutable: cannot change {name}")

    __delattr__ = __setattr__

    def canonical(self) -> tuple:
        return (
            tuple(sorted(self.gens.items())),
            tuple(sorted(self.deltas.items())),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QFun) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __add__(self, other: "QFun") -> "QFun":
        g = dict(self.gens)
        for v, c in other.gens.items():
            g[v] = g.get(v, 0) + c
        d = dict(self.deltas)
        for v, c in other.deltas.items():
            d[v] = d.get(v, 0) + c
        return _qfun(g, d)

    def __sub__(self, other: "QFun") -> "QFun":
        return self + other.scaled(-1)

    def scaled(self, k: int) -> "QFun":
        return _qfun(
            {v: k * c for v, c in self.gens.items()},
            {v: k * c for v, c in self.deltas.items()},
        )

    def __repr__(self) -> str:
        gs = " + ".join(f"{c}*h{tuple(v)}" for v, c in sorted(self.gens.items()))
        ds = " + ".join(f"{c}*e{tuple(v)}" for v, c in sorted(self.deltas.items()))
        return f"QFun({gs or '0'}; {ds or '0'})"

    def to_json_dict(self) -> dict:
        return {
            "gens": [[v.i, v.p, c] for v, c in sorted(self.gens.items())],
            "deltas": [[v.i, v.p, c] for v, c in sorted(self.deltas.items())],
        }


def _coefficients(items: Mapping[ZVertex, int] | None) -> Mapping[ZVertex, int]:
    """Read-only copy of the nonzero coefficients, keys coerced to ZVertex."""
    return _owned({v if type(v) is ZVertex else ZVertex(*v): c for v, c in (items or {}).items()})


def _qfun(gens: _Coeffs, deltas: _Coeffs) -> QFun:
    """A presentation around coefficient maps whose keys are already
    ZVertex (read from valid presentations), skipping QFun's key coercion.
    It owns the maps it is handed, as laurent._wrap does: each is a fresh
    dict or a presentation's read-only view, copied only to drop a zero."""
    f = object.__new__(QFun)
    object.__setattr__(f, "gens", _owned(gens))
    object.__setattr__(f, "deltas", _owned(deltas))
    return f


def _owned(coeffs: _Coeffs) -> Mapping[ZVertex, int]:
    """A coefficient map taken over as a read-only view, copied only when a
    zero entry must drop."""
    if 0 in coeffs.values():
        coeffs = {v: c for v, c in coeffs.items() if c}
    return coeffs if type(coeffs) is MappingProxyType else MappingProxyType(coeffs)


def hammock_fun(q: DynkinQuiver, x: ZVertex) -> QFun:
    """The hammock generator h_x as a presentation."""
    return QFun({check_vertex(q, x): 1}, {})


# ───────────────────────── knitting ─────────────────────────


def _knit(
    q: DynkinQuiver,
    sec: dict[int, int],
    defects: Mapping[ZVertex, int],
    horizon: int,
) -> dict[ZVertex, int]:
    """Knit values on the staircase between `sec` and slot `horizon`."""
    values: dict[ZVertex, int] = {}
    for p in range(min(sec.values()), horizon + 1):
        for i in q.vertices:
            s = sec[i]
            if p < s or (p - s) % 2:
                continue
            acc = defects.get(ZVertex(i, p), 0)
            for j in q.neighbors(i):
                if p - 1 >= sec[j]:
                    acc += values.get(ZVertex(j, p - 1), 0)
            if p - 2 >= s:
                acc -= values.get(ZVertex(i, p - 2), 0)
            values[ZVertex(i, p)] = acc
    return values


def _hvalue(q: DynkinQuiver, v: ZVertex, y: ZVertex) -> int:
    """Value of the hammock generator h_v at y, from the hom table.

    h_v(y) = Σ_{m≥0} (−1)^m dim Hom(v_m, y) with v_m = (ν^m i, p + m·h) for
    v = (i, p) and h the Coxeter number.  Hom(x, y) ≠ 0 only for
    x.p ≤ y.p ≤ Serre(x).p = x.p + h − 2, so the one term that can be
    nonzero has m = ⌊(y.p − v.p)/h⌋.  v_m and y are moved left by the same
    even amount, so the table is keyed only by v and by (ν i, p + (h mod 2)).
    """
    h = coxeter_number(q)
    m = (y.p - v.p) // h
    if m < 0:
        return 0
    odd = m * h % 2
    x = ZVertex(nakayama_involution(q, v.i) if m % 2 else v.i, v.p + odd)
    return (-1) ** m * hom_values(q, x).get(ZVertex(y.i, y.p - m * h + odd), 0)


def qfun_eval(q: DynkinQuiver, f: QFun, y: ZVertex) -> int:
    """Evaluate a presented function at one vertex."""
    y = check_vertex(q, y)
    total = f.deltas.get(y, 0)
    for v, c in f.gens.items():
        total += c * _hvalue(q, v, y)
    return total


def qfun_defect(q: DynkinQuiver, f: QFun) -> dict[ZVertex, int]:
    """Defect map of the presented function, computed symbolically.

    A generator h_v contributes its own indicator; a pointwise delta at z
    contributes +1 at z, +1 at the inverse translate of z, and -1 at every
    head of an arrow out of z.
    """
    return _defect(q, f.gens, f.deltas)


def _defect(q: DynkinQuiver, gens: _Coeffs, deltas: _Coeffs) -> dict[ZVertex, int]:
    """qfun_defect on the coefficient maps of a presentation."""
    out: dict[ZVertex, int] = {}

    def bump(v: ZVertex, c: int) -> None:
        n = out.get(v, 0) + c
        if n:
            out[v] = n
        else:
            out.pop(v, None)

    for v, c in gens.items():
        bump(v, c)
    for z, c in deltas.items():
        bump(z, c)
        bump(translate(z, -1), c)
        for j in q.neighbors(z.i):
            bump(ZVertex(j, z.p + 1), -c)
    return out


def qfun_equal(q: DynkinQuiver, f: QFun, g: QFun) -> bool:
    """Equality of presented functions.

    Both presentations vanish far enough left, so equality is equivalent to
    the difference of their coefficients having zero defect.
    """
    return not _defect(q, _difference(f.gens, g.gens), _difference(f.deltas, g.deltas))


def _difference(a: _Coeffs, b: _Coeffs) -> dict[ZVertex, int]:
    """a − b on coefficient maps, zero entries dropped."""
    out = dict(a)
    for v, c in b.items():
        out[v] = out.get(v, 0) - c
    return {v: c for v, c in out.items() if c}


# ───────────────────────── hom dimensions ─────────────────────────


@lru_cache(maxsize=None)
def hom_values(q: DynkinQuiver, x: ZVertex) -> Mapping[ZVertex, int]:
    """All nonzero morphism-space dimensions out of x, as a read-only
    vertex -> dim map, cached per (quiver, source).

    Knitted once per label, from its reference vertex (i, parity of i):
    the translate moves every hom table with its source, so the table of
    any other (i, p) is the reference's moved p − parity slots, in the
    same order.  The reference's support is checked to lie in the closed
    band between the sections through it and through its Serre shift,
    with nonnegative values throughout; violations would mean a
    convention bug, so they raise InvariantViolation.
    """
    x = check_vertex(q, x)
    ref = ZVertex(x.i, q.parity_class(x.i))
    if x != ref:
        moved = x.p - ref.p
        return MappingProxyType(
            {ZVertex(v.i, v.p + moved): c for v, c in hom_values(q, ref).items()}
        )
    sx = serre(q, x)
    sec_x = section_through(q, x)
    sec_sx = section_through(q, sx)
    defects = {x: 1}
    tsx = translate(sx, -1)
    defects[tsx] = defects.get(tsx, 0) + 1
    horizon = max(sec_sx.values()) + 4
    values = _knit(q, sec_x, defects, horizon)
    out: dict[ZVertex, int] = {}
    for v, val in values.items():
        if v.p > sec_sx[v.i]:
            if val != 0:
                raise InvariantViolation(
                    f"hom function of {x} leaks past the Serre section at {v}"
                )
            continue
        if val < 0:
            raise InvariantViolation(f"negative hom dimension at {v} from {x}")
        if val:
            out[v] = val
    return MappingProxyType(out)


def dim_hom(q: DynkinQuiver, x: ZVertex, y: ZVertex) -> int:
    """Dimension of the morphism space from x to y."""
    y = check_vertex(q, y)
    return hom_values(q, x).get(y, 0)


# ───────────────────────── text output ─────────────────────────


def qfun_grid_tsv(q: DynkinQuiver, f: QFun, p_min: int, p_max: int) -> str:
    """Tab-separated value grid: one row per vertex label, one column per slot.

    Invalid-parity cells are rendered as '.', so the mesh texture is visible
    in plain terminals.
    """
    header = ["i\\p"] + [str(p) for p in range(p_min, p_max + 1)]
    rows = ["\t".join(header)]
    for i in q.vertices:
        cells = [str(i)]
        for p in range(p_min, p_max + 1):
            if p % 2 != q.parity_class(i):
                cells.append(".")
            else:
                cells.append(str(qfun_eval(q, f, ZVertex(i, p))))
        rows.append("\t".join(cells))
    return "\n".join(rows) + "\n"
