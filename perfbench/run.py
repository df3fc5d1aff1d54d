"""qhammock benchmark: one workload, every item verified, metrics by name.

    python3 perfbench/run.py --workload {sweep3,roundtrip,pivots}
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run it from anywhere inside a checkout; it imports the library from the
checkout's ``src/`` and exits 2 if that is missing.  Each pass over the
workload runs in a fresh child process, one at a time, so every pass pays
the per-quiver cache fills a ``qq`` call pays.  Passes repeat until
``--seconds`` of passes have been measured (at least one whole pass).

``--trace 0`` reports the end-to-end metrics: set-up time (median over
several fresh children), verified items per second, per-quiver seconds
(p50, p75), and peak RSS.  ``--trace 1`` makes one untraced and one traced
pass and reports the per-layer metrics of the traced one; its spans are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer, a
library error or, at the default seed, an output digest that differs from
``expected.json`` makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 20260816  # the acceptance gate's SEED
WORKLOADS = ("sweep3", "roundtrip", "pivots")
SETUP_CHILDREN = 5
# a run must end within 180 s; stop starting passes well before that
DEADLINE_S = 165.0


class ChildError(RuntimeError):
    pass


def spawn(mode: str, args: argparse.Namespace, deadline: float) -> dict:
    """Run one child to completion and return its JSON, plus its set-up time."""
    cmd = [
        sys.executable,
        str(CHILD),
        "--mode",
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *(["--smoke"] if args.smoke else []),
    ]
    # a fixed hash seed keeps set iteration order, and so the work done,
    # the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    if deadline - t0 <= 0:
        raise ChildError("out of time before a child could start")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=deadline - t0
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} child did not finish before the deadline") from None
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - t0
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(setups: list[float], passes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics and the sample count behind each."""
    wall = sum(p["wall_s"] for p in passes)
    verified = sum(p["attempted"] - len(p["failures"]) for p in passes)
    qs = [t for p in passes for t in p["quiver_s"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (verified / wall, "1/s"),
        "quiver_s.p50": (statistics.median(qs), "s"),
        "quiver_s.p75": (statistics.quantiles(qs, n=4)[2], "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    samples = {
        "setup_s": f"median of {len(setups)} children",
        "items_per_s": f"{verified} items in {wall:.2f} s",
        "quiver_s.p50": f"{len(qs)} quivers",
        "quiver_s.p75": f"{len(qs)} quivers",
        "peak_rss_mb": f"max of {len(passes)} passes",
    }
    return metrics, samples


def per_layer(plain: dict, traced: dict) -> tuple[dict, dict]:
    layers = dict(traced["layers"], **{"trace.overhead_ratio": traced["wall_s"] / plain["wall_s"]})
    metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    samples = {"trace.overhead_ratio": f"{traced['wall_s']:.2f} s traced / {plain['wall_s']:.2f} s untraced"}
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="measure at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="A2 and A3 quivers only (self-tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qhammock" / "__init__.py").is_file():
        print(f"perfbench: no qhammock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}{' smoke' if args.smoke else ''}"
    )
    print(
        f"python {platform.python_version()} | cpu {cpu_model()} | "
        f"nproc {os.cpu_count()} | git {git_sha()}"
    )
    try:
        if args.trace:
            plain = spawn("run", args, deadline)
            traced = spawn("trace", args, deadline)
            passes = [plain, traced]
            metrics, samples = per_layer(plain, traced)
        else:
            setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_CHILDREN)]
            passes = []
            measured = 0.0
            while not passes or measured < args.seconds:
                if passes and time.monotonic() + 1.5 * passes[-1]["wall_s"] > deadline:
                    print(f"note: stopped after {measured:.1f} s, the next pass would pass the deadline")
                    break
                passes.append(spawn("run", args, deadline))
                measured += passes[-1]["wall_s"]
            setups += [p["setup_s"] for p in passes]
            metrics, samples = end_to_end(setups, passes)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    inputs = passes[0]["inputs"]
    print("inputs: " + " ".join(f"{k}={v}" for k, v in inputs.items()) + f" | passes: {len(passes)}")
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]

    digests = {p["digest"] for p in passes}
    expected = json.loads(EXPECTED.read_text())
    if args.seed == expected["seed"] and not args.smoke:
        want = expected["workloads"][args.workload]
        digest_ok = digests == {want["digest"]} and inputs == want["inputs"]
        if digest_ok:
            print(f"digest: ok {want['digest']}")
        else:
            print(f"digest: MISMATCH {sorted(digests)} {inputs}, expected {want}")
    else:
        digest_ok = len(digests) == 1
        print(f"digest: {sorted(digests)} (recorded only for seed {expected['seed']})")

    for name, (value, unit) in metrics.items():
        note = samples.get(name)
        print(f"  {name:28s} {value:>14.6g} {unit:6s}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_frac':28s} {len(failures) / attempted:>14.6g} ratio   ({len(failures)} of {attempted} items)")
    for f in failures[:20]:
        print(
            f"FAIL {f['family']}{f['rank']} arrows={f['arrows']} beta={f['beta']} "
            f"at={f['at']}: {f['why']}"
        )

    correct = not failures and digest_ok
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
