"""Command line surface: parse, validate, execute, emit.

The driver is deliberately thin — every subcommand is a wrapper around
one library entry point plus an emitter.  All output is built from
sorted containers so identical configuration (and seed, where sampling
is involved) produces byte-identical bytes; that is what makes the
golden-file tests meaningful.

Exit codes: 0 success, 1 a verification ran and failed, 2 invalid input
(bad config or flags, unknown root, parity violations, recursion too deep).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from .errors import ConfigError, QHError, TooLarge, UnknownRoot
from .laurent import LaurentPoly, mono_key_str
from .quiver import (
    DynkinQuiver,
    HeightFunction,
    all_orientations,
    beta_combinatorics,
    build_quiver,
    coxeter_number,
    default_height,
    height_from_values,
    positive_roots,
    root_height,
    sample_orientations,
)
from .repetition import ZVertex, window_vertices, zq_dot
from .hammock import hammock_fun, qfun_eval, qfun_grid_tsv
from .complexes import build_complex, complex_to_json, euler_char
from .cluster import enumerate_cluster_variables
from .qchar import (
    dominant_monomial,
    qchar_cluster,
    qchar_euler,
    qchar_recursion,
    qchar_to_json,
    qchar_to_tsv,
    verify_beta,
)

__all__ = ["RunConfig", "load_run_config", "main"]


# ───────────────────────── config ingestion ─────────────────────────


_QUIVER_KEYS = {"type", "rank", "arrows", "xi"}


@dataclass
class RunConfig:
    quiver: DynkinQuiver
    height: HeightFunction
    fmt: str
    out: str | None


def _config_int(value: object, what: str) -> int:
    """An integer or an integer string; bools, floats and anything else raise."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _parse_quiver_json(data: object) -> tuple[DynkinQuiver, HeightFunction]:
    if not isinstance(data, dict):
        raise ConfigError("quiver config must be a JSON object")
    unknown = set(data) - _QUIVER_KEYS
    if unknown:
        raise ConfigError(f"unknown quiver config keys: {sorted(unknown)}")
    for key in ("type", "rank", "arrows"):
        if key not in data:
            raise ConfigError(f"quiver config is missing '{key}'")
    rank = _config_int(data["rank"], "'rank'")
    pairs = data["arrows"]
    if not isinstance(pairs, list) or not all(isinstance(a, list) and len(a) == 2 for a in pairs):
        raise ConfigError("'arrows' must be a list of [source, target] pairs")
    if rank < 1 or len(pairs) != rank - 1:
        raise ConfigError(f"a Dynkin quiver of rank {rank} has rank - 1 arrows, got {len(pairs)}")
    arrows = [(_config_int(a, "an arrow end"), _config_int(b, "an arrow end")) for a, b in pairs]
    q = build_quiver(str(data["type"]), rank, arrows)
    if "xi" in data and data["xi"] is not None:
        raw = data["xi"]
        if not isinstance(raw, dict):
            raise ConfigError("'xi' must map vertex labels to integers")
        partial = {_config_int(k, "an xi label"): _config_int(v, f"xi[{k!r}]") for k, v in raw.items()}
        xi = _extend_height(q, partial)
    else:
        xi = default_height(q)
    return q, xi


def _extend_height(q: DynkinQuiver, partial: Dict[int, int]) -> HeightFunction:
    """Extend a partial height: an adapted height on a tree is the
    potential shifted, so the least pinned vertex fixes the shift."""
    for i in partial:
        if i not in q.vertices:
            raise ConfigError(f"xi names vertex {i}, not in 1..{q.rank}")
    if not partial:
        return default_height(q)
    least = min(partial)
    shift = partial[least] - q.potential(least)
    wrong = [i for i in sorted(partial) if partial[i] != q.potential(i) + shift]
    if wrong:
        raise ConfigError(f"xi is not adapted: vertices {wrong} disagree with vertex {least}")
    return height_from_values(q, {i: q.potential(i) + shift for i in q.vertices})


def load_run_config(args: argparse.Namespace) -> RunConfig:
    spec = getattr(args, "quiver", None)
    if spec is None:
        raise ConfigError("this command needs --quiver (a JSON file or literal)")
    path = Path(spec)
    try:
        is_file = path.is_file()
    except OSError:
        # a name the system cannot look up, such as an inline JSON literal
        # longer than a file name may be, is read as a literal
        is_file = False
    try:
        text = path.read_text() if is_file else spec
    except OSError as exc:
        raise ConfigError(f"cannot read quiver config: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"quiver config is not valid JSON: {exc}")
    q, xi = _parse_quiver_json(data)
    return RunConfig(q, xi, getattr(args, "format", "text"), getattr(args, "out", None))


def _emit(cfg_out: str | None, text: str) -> None:
    if cfg_out:
        try:
            Path(cfg_out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}")
    else:
        sys.stdout.write(text)


def _parse_beta(q: DynkinQuiver, raw: str) -> tuple[int, ...]:
    try:
        beta = tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ConfigError(f"--beta must be comma-separated integers, got {raw!r}")
    if len(beta) != q.rank:
        raise ConfigError(f"--beta has {len(beta)} entries, quiver has rank {q.rank}")
    return beta


def _parse_pair(raw: str, what: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in raw.split(","))
    except ValueError:
        raise ConfigError(f"--{what} must be two comma-separated integers, got {raw!r}")
    if what == "window" and a > b:
        raise ConfigError(f"--window needs pmin <= pmax, got {raw!r}")
    return a, b


def _json_dumps(data: object) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _poly_text(poly: LaurentPoly, fmt: str) -> str:
    if fmt == "json":
        return _json_dumps(qchar_to_json(poly))
    if fmt == "tsv":
        return qchar_to_tsv(poly)
    if fmt == "text":
        return repr(poly) + "\n"
    raise ConfigError(f"polynomials cannot be emitted as {fmt!r}")


# ───────────────────────── subcommands ─────────────────────────


def cmd_roots(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    q, xi = cfg.quiver, cfg.height
    rows = []
    for beta in positive_roots(q):
        bd = beta_combinatorics(q, xi, beta)
        rows.append(
            {
                "root": list(beta),
                "height": root_height(beta),
                "dominant": mono_key_str(dominant_monomial(q, xi, beta)),
                "support": sorted(bd.support),
                "pivots": sorted(bd.pivot_candidates),
            }
        )
    if cfg.fmt == "json":
        _emit(cfg.out, _json_dumps(rows))
    elif cfg.fmt == "tsv":
        lines = ["root\theight\tdominant\tsupport\tpivots"]
        for r in rows:
            cells = (r["root"], [r["height"]], [r["dominant"]], r["support"], r["pivots"])
            lines.append("\t".join(",".join(map(str, cell)) for cell in cells))
        _emit(cfg.out, "\n".join(lines) + "\n")
    elif cfg.fmt == "text":
        lines = [f"positive roots of {q.family}{q.rank} {q.arrows}"]
        for r in rows:
            lines.append(
                f"  ({','.join(map(str, r['root']))})  ht={r['height']}"
                f"  m={r['dominant']}  supp={r['support']}  pivots={r['pivots']}"
            )
        _emit(cfg.out, "\n".join(lines) + "\n")
    else:
        raise ConfigError(f"roots cannot be emitted as {cfg.fmt!r}")
    return 0


def cmd_hammock(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    q, xi = cfg.quiver, cfg.height
    i, p = _parse_pair(args.vertex, "vertex")
    x = ZVertex(i, p)
    f = hammock_fun(q, x)
    if args.window:
        p_min, p_max = _parse_pair(args.window, "window")
    else:
        p_min, p_max = p - 2, p + coxeter_number(q)
    if cfg.fmt in ("tsv", "text"):
        _emit(cfg.out, qfun_grid_tsv(q, f, p_min, p_max))
    elif cfg.fmt == "json":
        vals = {
            f"{y.i},{y.p}": qfun_eval(q, f, y)
            for y in window_vertices(q, p_min, p_max)
        }
        _emit(cfg.out, _json_dumps(vals))
    elif cfg.fmt == "dot":
        labels = {
            y: f"{qfun_eval(q, f, y)}" for y in window_vertices(q, p_min, p_max)
        }
        _emit(cfg.out, zq_dot(q, p_min, p_max, labels=labels, highlight=[x]))
    else:
        raise ConfigError(f"hammock cannot be emitted as {cfg.fmt!r}")
    return 0


def cmd_complex(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    q, xi = cfg.quiver, cfg.height
    beta = _parse_beta(q, args.beta)
    pivot = args.pivot
    fc = build_complex(q, xi, beta, pivot=pivot)
    if args.emit == "terms":
        lines = [f"complex for beta={','.join(map(str, beta))}"]
        den = ",".join(f"{i}:{e}" for i, e in sorted(fc.den.items()))
        lines.append(f"denominator exponents: {den or '(none)'}")
        for n in sorted(fc.num.terms):
            row = fc.num.terms[n]
            lines.append(f"degree {n}: {len(row)} summand(s)")
            lines.extend(f"    {mono_key_str(m)}" for m in row)
        _emit(cfg.out, "\n".join(lines) + "\n")
    elif args.emit == "json":
        _emit(cfg.out, _json_dumps(complex_to_json(q, xi, fc)))
    else:  # chi, the one other choice
        chi = euler_char(q, xi, fc, specialize_f=-1)
        _emit(cfg.out, _poly_text(chi, cfg.fmt if cfg.fmt != "dot" else "text"))
    return 0


def cmd_qchar(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    q, xi = cfg.quiver, cfg.height
    beta = _parse_beta(q, args.beta)
    route = args.route
    routes: Dict[str, LaurentPoly] = {}
    if route in ("euler", "all"):
        routes["euler"] = qchar_euler(q, xi, beta)
    if route in ("recursion", "all"):
        routes["recursion"] = qchar_recursion(q, xi, beta)
    if route in ("cluster", "all"):
        routes["cluster"] = qchar_cluster(q, xi, beta)

    if route != "all":
        _emit(cfg.out, _poly_text(routes[route], cfg.fmt))
        return 0

    polys = list(routes.values())
    agree = all(p == polys[0] for p in polys)
    if cfg.fmt == "json":
        payload = {
            "beta": list(beta),
            "routes": {name: qchar_to_json(p) for name, p in routes.items()},
            "equal": agree,
        }
        _emit(cfg.out, _json_dumps(payload))
    else:
        lines = []
        for name in sorted(routes):
            lines.append(f"{name}: {routes[name]!r}")
        lines.append(f"verdict: {'pass' if agree else 'FAIL'}")
        _emit(cfg.out, "\n".join(lines) + "\n")
    return 0 if agree else 1


def cmd_cluster(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    q = cfg.quiver
    table = enumerate_cluster_variables(q)
    if args.beta:
        beta = _parse_beta(q, args.beta)
        if tuple(beta) not in table:
            raise UnknownRoot(f"no cluster variable has denominator vector {beta}")
        _emit(cfg.out, _poly_text(table[tuple(beta)], cfg.fmt))
        return 0
    # --list (default): every variable, keyed by denominator vector
    payload = {
        ",".join(map(str, key)): qchar_to_json(poly)
        for key, poly in sorted(table.items())
    }
    if cfg.fmt in ("json", "text"):
        _emit(cfg.out, _json_dumps(payload))
    elif cfg.fmt == "tsv":
        lines = ["dvector\tpolynomial"]
        for key, poly in sorted(table.items()):
            lines.append(f"{','.join(map(str, key))}\t{poly!r}")
        _emit(cfg.out, "\n".join(lines) + "\n")
    else:
        raise ConfigError(f"cluster listing cannot be emitted as {cfg.fmt!r}")
    return 0


_CLAUSES = (
    "routes_agree",
    "highest_is_dominant",
    "lowest_is_antidominant",
    "coefficients_positive",
    "leading_coefficient_one",
)


# the largest rank of any family: E stops at 8, and an A or D sweep expands
# 2^(rank−1) orientations with a full exchange walk each
_MAX_VERIFY_RANK = 8


def _verify_quivers(args: argparse.Namespace) -> List[DynkinQuiver]:
    if args.max_rank > _MAX_VERIFY_RANK:
        raise TooLarge(f"--max-rank {args.max_rank} is above {_MAX_VERIFY_RANK}")
    types = [t.strip().upper() for t in args.types.split(",") if t.strip()]
    min_rank = {"A": 1, "D": 4, "E": 6}
    for fam in types:
        if fam not in min_rank:
            raise ConfigError(f"unknown family {fam!r} (expected A, D or E)")
    pairs = [(fam, rank) for fam in types for rank in range(min_rank[fam], args.max_rank + 1)]
    if not pairs:
        raise ConfigError(f"--types {args.types!r} has no rank up to --max-rank {args.max_rank}")
    quivers: List[DynkinQuiver] = []
    mode = args.orientations
    for fam, rank in pairs:
        if mode == "all":
            quivers.extend(all_orientations(fam, rank))
        elif mode.startswith("random:"):
            try:
                k = int(mode.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"bad --orientations {mode!r}")
            if k < 1:
                raise ConfigError(f"--orientations {mode!r} samples no quiver")
            quivers.extend(sample_orientations(fam, rank, k, seed=args.seed))
        else:
            raise ConfigError(f"--orientations must be 'all' or 'random:k', got {mode!r}")
    return quivers


def cmd_verify(args: argparse.Namespace) -> int:
    quivers = _verify_quivers(args)
    counts = {name: {"pass": 0, "fail": 0} for name in _CLAUSES}
    failures = []
    roots_checked = 0
    for q in sorted(quivers, key=lambda qq: (qq.family, qq.rank, qq.arrows)):
        xi = default_height(q)
        head = {"family": q.family, "rank": q.rank, "arrows": [list(a) for a in q.arrows]}
        for beta in positive_roots(q):
            roots_checked += 1
            try:
                rep = verify_beta(q, xi, beta)
            except QHError as exc:
                # a broken engine invariant surfaces as a failure, not a crash
                for name in _CLAUSES:
                    counts[name]["fail"] += 1
                failures.append(
                    {**head, "beta": list(beta), "error": f"{type(exc).__name__}: {exc}"}
                )
                continue
            for name in _CLAUSES:
                counts[name]["pass" if rep[name] else "fail"] += 1
            if not rep["ok"]:
                clauses = {name: rep[name] for name in _CLAUSES}
                failures.append({**head, "beta": rep["beta"], "clauses": clauses})
    ok = not failures
    report = {
        "quivers": len(quivers),
        "roots": roots_checked,
        "seed": args.seed,
        "clauses": counts,
        "failures": failures,
        "ok": ok,
    }
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        _emit(getattr(args, "out", None), _json_dumps(report))
    else:
        lines = [f"quivers: {len(quivers)}", f"roots: {roots_checked}"]
        for name in _CLAUSES:
            c = counts[name]
            lines.append(f"{name}: {c['pass']} pass, {c['fail']} fail")
        for row in failures[:20]:
            # with the qq call that reruns the root on all three routes
            spec = {"type": row["family"], "rank": row["rank"], "arrows": row["arrows"]}
            lines.append(
                f"FAIL {row['family']}{row['rank']} beta={row['beta']}  replay: qq qchar --quiver "
                f"{shlex.quote(json.dumps(spec, separators=(',', ':')))} "
                f"--beta {','.join(map(str, row['beta']))} --route all"
            )
        lines.append("ok" if ok else f"FAILED ({len(failures)} roots)")
        _emit(getattr(args, "out", None), "\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_ar_view(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    q = cfg.quiver
    p_min, p_max = _parse_pair(args.window, "window")
    labels = None
    highlight = []
    if args.vertex:
        i, p = _parse_pair(args.vertex, "vertex")
        x = ZVertex(i, p)
        f = hammock_fun(q, x)
        labels = {
            y: f"({y.i},{y.p})={qfun_eval(q, f, y)}"
            for y in window_vertices(q, p_min, p_max)
        }
        highlight = [x]
    if cfg.fmt not in ("dot", "text"):
        raise ConfigError("ar-view only emits DOT (use --format dot)")
    _emit(cfg.out, zq_dot(q, p_min, p_max, labels=labels, highlight=highlight))
    return 0


# ───────────────────────── parser wiring ─────────────────────────


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--quiver", required=True, help="quiver config: JSON file or literal")
    sub.add_argument(
        "--format",
        default="text",
        choices=["json", "tsv", "dot", "text"],
        help="output format",
    )
    sub.add_argument("--out", default=None, help="write output to this file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qq",
        description="Exact hammock calculus, complexes and truncated characters",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("roots", help="positive roots with dominant monomials")
    _add_common(p)
    p.set_defaults(func=cmd_roots)

    p = subs.add_parser("hammock", help="value grid of one hammock function")
    _add_common(p)
    p.add_argument("--vertex", required=True, help='repetition vertex "i,p"')
    p.add_argument("--window", default=None, help='slot window "pmin,pmax"')
    p.set_defaults(func=cmd_hammock)

    p = subs.add_parser("complex", help="build the complex for a vector")
    _add_common(p)
    p.add_argument("--beta", required=True, help='vector "a1,...,an"')
    p.add_argument("--pivot", type=int, default=None, help="force the recursion pivot")
    p.add_argument("--emit", default="terms", choices=["terms", "json", "chi"])
    p.set_defaults(func=cmd_complex)

    p = subs.add_parser("qchar", help="truncated character of a root")
    _add_common(p)
    p.add_argument("--beta", required=True, help='vector "a1,...,an"')
    p.add_argument(
        "--route",
        default="all",
        choices=["euler", "cluster", "recursion", "all"],
    )
    p.set_defaults(func=cmd_qchar)

    p = subs.add_parser("cluster", help="exchange-walk variables")
    _add_common(p)
    p.add_argument("--list", action="store_true", help="emit every variable (default)")
    p.add_argument("--beta", default=None, help="emit only this denominator vector")
    p.set_defaults(func=cmd_cluster)

    p = subs.add_parser("verify", help="sweep verify_beta over generated quivers")
    p.add_argument("--types", default="A,D", help="comma-separated families")
    p.add_argument("--max-rank", type=int, default=4, dest="max_rank")
    p.add_argument(
        "--orientations", default="all", help="'all' or 'random:k' (seeded)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("ar-view", help="DOT picture of a repetition-quiver window")
    _add_common(p)
    p.add_argument("--window", required=True, help='slot window "pmin,pmax"')
    p.add_argument("--vertex", default=None, help="overlay this vertex's hammock values")
    p.set_defaults(func=cmd_ar_view)

    return parser


def _signed_betas(argv: Sequence[str]) -> List[str]:
    """argv with `--beta -1,0` joined to `--beta=-1,0`, which argparse
    would take for an unknown option: it is not a lone negative number."""
    out: List[str] = []
    for arg in argv:
        if out[-1:] == ["--beta"] and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--beta={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_signed_betas(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QHError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the vector is too deep for the recursion limit", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
