"""The repetition (translation) quiver of a Dynkin quiver.

Vertices are pairs (i, p) with p congruent mod 2 to the parity class of i;
arrows go (i, p) -> (j, p+1) for every tree edge {i, j}.  The translate
moves two steps left, the suspension shifts by the Coxeter number composed
with the Nakayama involution, and the Serre shift is suspension-after-
translate.  Base vertices sit on the section cut out by a height function.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import ParityViolation
from .quiver import (
    DynkinQuiver,
    HeightFunction,
    coxeter_number,
    nakayama_involution,
)

__all__ = [
    "ZVertex",
    "check_vertex",
    "arrows_out",
    "translate",
    "section_through",
    "suspend",
    "serre",
    "base_vertex",
    "translate_base",
    "window_vertices",
    "zq_dot",
]


class ZVertex(NamedTuple):
    """A vertex (i, p) of the repetition quiver: label i at horizontal slot p."""

    i: int
    p: int


def check_vertex(q: DynkinQuiver, v: ZVertex) -> ZVertex:
    """Validate the parity constraint p ≡ parity_class(i) (mod 2)."""
    i, p = v
    if not 1 <= i <= q.rank:
        raise ParityViolation(f"vertex label {i} out of range for rank {q.rank}")
    if p % 2 != q.parity_class(i):
        raise ParityViolation(f"slot parity violated at ({i},{p})")
    return v if type(v) is ZVertex else ZVertex(i, p)


def arrows_out(q: DynkinQuiver, v: ZVertex) -> tuple[ZVertex, ...]:
    """Arrows leaving (i,p): one to (j, p+1) for every neighbor j of i."""
    i, p = v
    return tuple(ZVertex(j, p + 1) for j in q.neighbors(i))


def translate(v: ZVertex, steps: int = 1) -> ZVertex:
    """The translate: two slots to the left per step (negative steps go right)."""
    return ZVertex(v.i, v.p - 2 * steps)


def section_through(q: DynkinQuiver, v: ZVertex) -> dict[int, int]:
    """The section (one slot per label) containing v.

    A section drops by one slot along every arrow a -> b of the quiver,
    so it is the canonical height (``default_height``) shifted to pass
    through v: slot(j) = v.p − h(v.i) + h(j).
    """
    h = q.potential
    shift = v.p - h(v.i)
    return {j: shift + h(j) for j in q.vertices}


def suspend(q: DynkinQuiver, v: ZVertex) -> ZVertex:
    """Suspension: apply the Nakayama involution and jump by the Coxeter number."""
    return ZVertex(nakayama_involution(q, v.i), v.p + coxeter_number(q))


def serre(q: DynkinQuiver, v: ZVertex) -> ZVertex:
    """Serre shift: suspension composed with the translate (they commute)."""
    return ZVertex(nakayama_involution(q, v.i), v.p + coxeter_number(q) - 2)


def base_vertex(xi: HeightFunction, i: int) -> ZVertex:
    """The copy of vertex i on the base section cut out by xi."""
    return ZVertex(i, xi.ht(i))


def translate_base(xi: HeightFunction, i: int) -> ZVertex:
    return ZVertex(i, xi.ht(i) - 2)


def window_vertices(
    q: DynkinQuiver, p_min: int, p_max: int
) -> list[ZVertex]:
    """All parity-valid vertices with slot in [p_min, p_max], sorted."""
    out = []
    for i in q.vertices:
        par = q.parity_class(i)
        start = p_min + ((par - p_min) % 2)
        for p in range(start, p_max + 1, 2):
            out.append(ZVertex(i, p))
    return sorted(out)


def zq_dot(
    q: DynkinQuiver,
    p_min: int,
    p_max: int,
    labels: dict[ZVertex, str] | None = None,
    highlight: Iterable[ZVertex] = (),
) -> str:
    """Graphviz source for a window of the repetition quiver.

    Vertices are pinned on a grid (slot = x, label = y) so the mesh pattern
    is visible without layout surprises.  `labels` may override the default
    "(i,p)" text; highlighted vertices are drawn filled.
    """
    hi = set(highlight)
    lines = [
        "digraph zq {",
        "  graph [rankdir=LR, splines=line];",
        '  node [shape=box, fontsize=10, margin="0.04,0.02"];',
    ]
    verts = window_vertices(q, p_min, p_max)
    for v in verts:
        name = f"v{v.i}_{v.p}".replace("-", "m")
        text = labels.get(v, f"({v.i},{v.p})") if labels else f"({v.i},{v.p})"
        style = ', style=filled, fillcolor="gray85"' if v in hi else ""
        pos = f', pos="{v.p},{-v.i}!"'
        lines.append(f'  {name} [label="{text}"{style}{pos}];')
    vset = set(verts)
    for v in verts:
        for w in arrows_out(q, v):
            if w in vset:
                a = f"v{v.i}_{v.p}".replace("-", "m")
                b = f"v{w.i}_{w.p}".replace("-", "m")
                lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
