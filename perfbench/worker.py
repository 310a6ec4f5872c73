"""One pass of one workload, in a fresh interpreter.

Started by run.py, one at a time, from the root of the checkout.  Prints one
JSON object as its last line of output.  ``--spawned-at`` is the wall-clock
time just before the parent started this process, so ``setup_s`` covers
interpreter start, importing eqloc and building or parsing the inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    import workloads
    out_dir = Path(args.out_dir)
    wl = workloads.make(args.workload, out_dir)
    state = wl.setup(Path(args.inputs) if args.inputs else None)

    tracer = None
    if args.traced:
        from layers import TARGETS
        from tracer import Tracer
        tracer = Tracer(TARGETS).install()
    setup_s = time.time() - args.spawned_at
    try:
        outcome = wl.run(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "workload": args.workload,
        "traced": args.traced,
        "setup_s": setup_s,
        "wall_s": sum(outcome.op_wall),
        "cpu_s": sum(outcome.op_cpu),
        "peak_rss_mb": peak_rss_mb,
        "op_wall": outcome.op_wall,
        "ops": len(outcome.op_wall),
        "failed_ops": outcome.failed,
    }
    if outcome.outputs is None:
        result["checks"], result["digest"] = {"completed": False}, None
    else:
        result["checks"], result["digest"] = wl.check(outcome.outputs)
    if args.workload == "search":
        result["answers"] = outcome.outputs
    if tracer is not None:
        from layers import layer_metrics
        result["layers"] = layer_metrics(tracer)
        tracer.write_spans(out_dir / f"spans_{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
