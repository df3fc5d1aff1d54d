"""Connector search that checks only complete matchings, for small ranks.

For every complete matching of tiltable dom summands to same-degree cod
summands, it rebuilds every component of the cone with the connector
signs left symbolic, regroups every composite of the cone, and solves the
resulting sign system; the first matching whose system is solvable wins.
The library's search closes the chain map's squares one DFS depth at a
time and checks the dom and cod ledgers once; it must choose exactly the
same connectors.  It carries its own general ±1 solver, where the
library keeps parity classes.  It finds connector targets on objects: each
summand class is materialised (``class_object``), and a target is a cod
summand isomorphic (``is_iso``) to the ``serre_tilt`` of a ``tiltable``
dom summand, where the library looks up the class times f_i·A_i⁻¹; so it
referees the library's class rule too.  ``tiltable`` lives only here.  The
cost is one full ledger per leaf, so keep it to rank ≤ 5 (D5 takes about
2 s).
"""

from __future__ import annotations

from qhammock.complexes import Complex
from qhammock.errors import InconsistentConnector
from qhammock.hammock import qfun_defect
from qhammock.objects import Obj, class_object, is_iso, serre_tilt
from qhammock.quiver import DynkinQuiver, HeightFunction
from qhammock.repetition import translate_base


def tiltable(q: DynkinQuiver, xi: HeightFunction, a: Obj) -> tuple[int, ...]:
    """Vertices i whose translated base vertex sits in the multiset with
    positive function defect — the admissible single tilts."""
    defect = qfun_defect(q, a.fun)
    out = []
    for i in q.vertices:
        tx = translate_base(xi, i)
        if a.mult.get(tx, 0) > 0 and defect.get(tx, 0) > 0:
            out.append(i)
    return tuple(out)


def solve_sign_system(equations) -> dict | None:
    """Assign ±1 to connector edges satisfying const + Σ coeff·u = 0.

    A general search: unit propagation, then branching on the least free
    edge, +1 before −1, so it returns the first solution in edge order.
    """
    edges = sorted({e for _, terms in equations for _, e in terms})
    assign: dict[tuple, int] = {}

    def propagate() -> bool | None:
        changed = True
        while changed:
            changed = False
            for const, terms in equations:
                total = const
                unknown = []
                for coeff, e in terms:
                    if e in assign:
                        total += coeff * assign[e]
                    else:
                        unknown.append((coeff, e))
                if not unknown:
                    if total != 0:
                        return False
                elif len(unknown) == 1:
                    coeff, e = unknown[0]
                    val = -total * coeff
                    if val not in (1, -1):
                        return False
                    assign[e] = val
                    changed = True
        return True

    def search() -> bool:
        snapshot = dict(assign)
        if propagate() is False:
            assign.clear()
            assign.update(snapshot)
            return False
        free = [e for e in edges if e not in assign]
        if not free:
            return True
        e = free[0]
        for val in (1, -1):
            snap = dict(assign)
            assign[e] = val
            if search():
                return True
            assign.clear()
            assign.update(snap)
        return False

    if not search():
        return None
    for _, terms in equations:
        for _, e in terms:
            assign.setdefault(e, 1)
    return assign


def _symbolic_components(dom: Complex, cod: Complex, matching, tag):
    """All components of cone(dom, cod) with connectors left symbolic.

    Constant components carry ("c", sign); connector components carry
    ("v", edge) with edge = (input_degree, dom_summand).  Indexing matches
    cone() exactly.
    """
    comps: dict[int, list[tuple[int, int, tuple, tuple]]] = {}
    for n, cs in dom.diffs.items():
        for c in cs:
            comps.setdefault(n - 1, []).append((c.src, c.dst, c.tag, ("c", c.sign)))
    for n, cs in cod.diffs.items():
        off_src = len(dom.terms.get(n + 1, ()))
        off_dst = len(dom.terms.get(n + 2, ()))
        for c in cs:
            comps.setdefault(n, []).append(
                (off_src + c.src, off_dst + c.dst, c.tag, ("c", -c.sign))
            )
    for (n, s), t in matching.items():
        off_dst = len(dom.terms.get(n + 1, ()))
        comps.setdefault(n - 1, []).append((s, off_dst + t, tag, ("v", (n, s))))
    return comps


def _cancellation_equations(q: DynkinQuiver, comps) -> list[tuple[int, tuple]] | None:
    """Cancellation constraints for the composite groups of a symbolic cone.

    Returns a list of equations const + Σ coeff·u_edge = 0, one per group
    containing a non-excused composable pair; None when a group without
    free connector signs fails outright.
    """
    groups: dict[tuple, list] = {}
    for n in sorted(comps):
        for src1, dst1, tag1, k1 in comps[n]:
            for src2, dst2, tag2, k2 in comps.get(n + 1, ()):
                if src2 != dst1:
                    continue
                key = (n, src1, dst2, tuple(sorted((tag1, tag2))))
                excused = (
                    tag1[0] == "eta"
                    and tag2[0] == "eta"
                    and q.has_path(tag2[1], tag1[1])
                )
                groups.setdefault(key, []).append((k1, k2, excused))
    equations = []
    for routes in groups.values():
        if all(exc for _, _, exc in routes):
            continue
        const = 0
        terms: list[tuple[int, tuple]] = []
        for k1, k2, _ in routes:
            if k1[0] == "c" and k2[0] == "c":
                const += k1[1] * k2[1]
            elif k1[0] == "c":
                terms.append((k1[1], k2[1]))
            elif k2[0] == "c":
                terms.append((k2[1], k1[1]))
            else:  # two connectors cannot compose: u lands in cod, starts in dom
                raise InconsistentConnector("composable connector pair")
        if not terms:
            if const != 0:
                return None
            continue
        equations.append((const, tuple(terms)))
    return equations


def resolve_connectors_per_leaf(
    q: DynkinQuiver, xi: HeightFunction, i: int, dom: Complex, cod: Complex
) -> dict[int, list[tuple[int, int, tuple, int]]]:
    """Choose connector targets and signs making the cone's ledger close.

    Every tiltable dom summand is matched to an isomorphic image among the
    same-degree cod summands when possible; ambiguity between isomorphic
    twins and the free ±1 signs are settled by requiring all non-excused
    composite groups to cancel, with backtracking.
    """
    tx = translate_base(xi, i)
    tag = ("eta", i)
    keys: list[tuple[int, int]] = []
    cands: dict[tuple[int, int], tuple[int, ...]] = {}
    for n in sorted(set(dom.terms) & set(cod.terms)):
        targets = [class_object(q, xi, m) for m in cod.terms[n]]
        for s, m in enumerate(dom.terms[n]):
            src_obj = class_object(q, xi, m)
            if i not in tiltable(q, xi, src_obj):
                continue
            tilted = serre_tilt(q, src_obj, [tx])
            opts = tuple(
                t for t, dst in enumerate(targets) if is_iso(q, tilted, dst)
            )
            if opts:
                keys.append((n, s))
                cands[(n, s)] = opts

    used: dict[int, set[int]] = {}
    choice: dict[tuple[int, int], int | None] = {}
    solution: list = []

    def attempt() -> bool:
        matching = {k: t for k, t in choice.items() if t is not None}
        comps = _symbolic_components(dom, cod, matching, tag)
        equations = _cancellation_equations(q, comps)
        if equations is None:
            return False
        signs = solve_sign_system(equations)
        if signs is None:
            return False
        solution.append((matching, signs))
        return True

    def dfs(idx: int) -> bool:
        if idx == len(keys):
            return attempt()
        key = keys[idx]
        n, _ = key
        for t in cands[key] + (None,):
            if t is not None and t in used.setdefault(n, set()):
                continue
            choice[key] = t
            if t is not None:
                used[n].add(t)
            if dfs(idx + 1):
                return True
            if t is not None:
                used[n].discard(t)
        del choice[key]
        return False

    if not dfs(0):
        raise InconsistentConnector(
            f"no connector matching closes the d² ledger for the tilt at {i}"
        )
    matching, signs = solution[0]
    connectors: dict[int, list[tuple[int, int, tuple, int]]] = {}
    for (n, s), t in sorted(matching.items()):
        connectors.setdefault(n, []).append((s, t, tag, signs.get((n, s), 1)))
    return connectors
