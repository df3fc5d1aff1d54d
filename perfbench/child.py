"""One benchmark child process: set up, then optionally run one pass.

    python3 perfbench/child.py --mode {setup,run,trace} --workload W --seed N [--smoke]

The parent (``run.py``) starts a fresh child for every pass, because the
library's caches are keyed per quiver and live for the process: a fresh
process is the only way to start each pass cold without touching private
names.  The child prints one JSON object as its last line of output.
``ready`` is read from the same monotonic clock as the parent's spawn time,
so the parent can take set-up time from spawn to ready.  A traced pass
also writes its spans to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"


def _import_library():
    """Import qhammock from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qhammock" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qhammock sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # imports qhammock and qhammock.cli

    loaded = Path(workloads.qh.__file__).resolve()
    if SRC not in loaded.parents:
        sys.exit(f"perfbench: qhammock was imported from {loaded}, not {SRC}")
    return workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    workloads = _import_library()
    inputs = workloads.make_inputs(args.workload, args.seed, smoke=args.smoke)
    ready = time.monotonic()
    out = {"ready": ready, "inputs": workloads.input_counts(args.workload, inputs)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            res = workloads.run_pass(args.workload, inputs, tracer)
        out["layers"] = tracer.layer_metrics(res.wall_s)
        out["layers"]["qchar.terms"] = res.terms
        OUT_DIR.mkdir(exist_ok=True)
        with (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").open("w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "wall_s": res.wall_s,
                    "item_self_s": tracer.item_self_s,
                    "layers": out["layers"],
                    "spans": tracer.span_rows(),
                },
                fh,
            )
    else:
        res = workloads.run_pass(args.workload, inputs)

    out.update(
        attempted=res.attempted,
        failures=res.failures,
        quiver_s=res.quiver_s,
        wall_s=res.wall_s,
        digest=res.digest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
