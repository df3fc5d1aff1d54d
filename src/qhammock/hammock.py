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

Both are cached per process, keyed by (quiver, vertex): g_x by lru_cache,
h_x in a dict whose entries are only ever replaced by extensions of
themselves, so racing writers are harmless.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .errors import InvariantViolation
from .quiver import DynkinQuiver
from .repetition import ZVertex, check_vertex, section_through, serre, translate, window_vertices

__all__ = [
    "QFun",
    "hammock_fun",
    "qfun_eval",
    "qfun_window",
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
        return QFun(g, d)

    def __sub__(self, other: "QFun") -> "QFun":
        return self + other.scaled(-1)

    def scaled(self, k: int) -> "QFun":
        return QFun(
            {v: k * c for v, c in self.gens.items()},
            {v: k * c for v, c in self.deltas.items()},
        )

    def shift_deltas(self, extra: Mapping[ZVertex, int]) -> "QFun":
        d = dict(self.deltas)
        for v, c in extra.items():
            d[v] = d.get(v, 0) + c
        return QFun(self.gens, d)

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
    return MappingProxyType(
        {v if type(v) is ZVertex else ZVertex(*v): c for v, c in items.items() if c}
        if items
        else {}
    )


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
    if horizon < min(sec.values()):
        return values
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


# generator values: (quiver, vertex) -> (horizon, values).  The one memo
# not kept by lru_cache: it is not a function of its key, since an entry is
# knitted again further right whenever a query reaches past its horizon.
_HCACHE: dict[tuple, tuple[int, dict[ZVertex, int]]] = {}


def _hvalue(q: DynkinQuiver, v: ZVertex, y: ZVertex) -> int:
    """Value of the hammock generator h_v at y (0 strictly left of v's section)."""
    if y.p < v.p - q.potential(v.i) + q.potential(y.i):
        return 0
    key = (q, v)
    cached = _HCACHE.get(key)
    if cached is None or cached[0] < y.p:
        horizon = max(y.p, v.p + 4)
        values = _knit(q, section_through(q, v), {v: 1}, horizon)
        _HCACHE[key] = (horizon, values)
        return values.get(y, 0)
    return cached[1].get(y, 0)


def qfun_eval(q: DynkinQuiver, f: QFun, y: ZVertex) -> int:
    """Evaluate a presented function at one vertex."""
    return _eval(q, f.gens, f.deltas, check_vertex(q, y))


def _eval(q: DynkinQuiver, gens: _Coeffs, deltas: _Coeffs, y: ZVertex) -> int:
    """Value at a valid vertex y of Σ c_v · h_v + Σ d_z · (delta at z)."""
    total = deltas.get(y, 0)
    for v, c in gens.items():
        total += c * _hvalue(q, v, y)
    return total


def qfun_window(
    q: DynkinQuiver, f: QFun, p_min: int, p_max: int
) -> dict[ZVertex, int]:
    """Evaluate on every parity-valid vertex with slot in [p_min, p_max]."""
    return {y: qfun_eval(q, f, y) for y in window_vertices(q, p_min, p_max)}


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
    the difference of their coefficients having zero defect.  A cheap
    independent guard evaluates that difference on the two slots left of
    every coefficient of f and g (by linearity, f(y) == g(y) there); it is
    skipped when no generator is left, as the deltas then lie right of it.
    """
    gens = _difference(f.gens, g.gens)
    deltas = _difference(f.deltas, g.deltas)
    if _defect(q, gens, deltas):
        return False
    if gens:
        p0 = min(v.p for m in (f.gens, g.gens, f.deltas, g.deltas) for v in m) - 1
        for y in window_vertices(q, p0 - 1, p0):
            if _eval(q, gens, deltas, y):
                return False
    return True


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
    vertex -> dim map.

    Knitted once per (quiver, source) and cached.  The support is checked to
    lie in the closed band between the sections through x and through the
    Serre shift of x, with nonnegative values throughout; violations would
    mean a convention bug, so they raise InvariantViolation.
    """
    x = check_vertex(q, x)
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
