"""The eqloc benchmark: one command, four workloads, outside-in tracing.

    python3 perfbench/run.py --workload classical --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  Each pass is a fresh interpreter (worker.py), started
only after the previous one has exited: the library keeps process-lifetime
caches, so a second pass in one process would mostly measure cache hits.
Passes repeat until ``--seconds`` have gone by (and at least MIN_PASSES
have run); the reported figures are medians over passes.

With ``--trace 0`` every pass is untraced; the end-to-end metrics are
reported, and the times are printed as a trend.  With ``--trace 1``
untraced and traced passes alternate; the per-layer metrics come from the
traced ones, the ``run.*`` times from the untraced ones, and
``trace.overhead_s`` is the difference of the two wall-time medians.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 1 when any output check
failed, 2 when the checkout has no library to run.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REQUIRED = ("src/eqloc/__init__.py", "tests/oracles.py",
            "tests/data/z2_example.json")

MIN_PASSES = 3          # per pass kind, whatever --seconds says
# A run must end within 180 s: no pass starts later than HARD_LIMIT_S after
# the run began, and none outlives PASS_END_S, which leaves time for the
# oracle check.
HARD_LIMIT_S = 140
PASS_END_S = 160
PASS_TIMEOUT_S = 120

# The gated end-to-end metrics, (name, unit).  Times are not among them: on
# the 2-vCPU host the benchmark was written on, identical runs minutes apart
# took 2.0 to 3.9 s (NOTES.md), wider than any bound the gate allows.  They
# are printed as a trend, and traced runs report them as run.* figures.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB")]
TIMES = [("wall_s", "s"), ("cpu_s", "s"), ("op_p50_ms", "ms"),
         ("op_p99_ms", "ms")]


def context():
    """Informational fields recorded next to the results, never gated."""
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"src_lines": src_lines, "commit": _commit(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def _commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(name, traced, inputs, seed, budget_s):
    """One pass in a fresh interpreter; its JSON result, or None."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--out-dir", str(OUT_DIR), "--traced", str(traced)]
    if inputs is not None:
        cmd += ["--inputs", str(inputs)]
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=budget_s)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"{name}: pass timed out after {budget_s:.0f} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: pass exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_passes(name, seed, seconds, trace, inputs, run_start):
    kinds = (0, 1) if trace else (0,)
    start = time.monotonic()
    passes = []
    while True:
        now = time.monotonic()
        done = [sum(1 for k, _ in passes if k == kind) for kind in kinds]
        if (now - start >= seconds and min(done) >= MIN_PASSES) \
                or now - run_start >= HARD_LIMIT_S:
            break
        kind = kinds[len(passes) % len(kinds)]
        budget = min(PASS_TIMEOUT_S, PASS_END_S - (now - run_start))
        passes.append((kind, spawn(name, kind, inputs, seed, budget)))
    return passes


def judge(wl, passes, expected, verify):
    """Count attempted and failed operations over every pass.

    An operation fails on an exception, a crashed pass, a failed check, or
    an output that differs from the recorded digest (fixed workloads) or
    from the brute-force oracles and the other passes (search).
    """
    attempted = failed = 0
    notes = {}
    reference = next((p for _, p in passes if p is not None), None)
    oracle_ok = None
    if verify is not None and reference is not None:
        oracle_ok, notes["oracle_checks"], notes["oracle_s"] = verify(
            reference["answers"])
    for _, p in passes:
        attempted += wl.ops_per_pass
        if p is None:
            failed += wl.ops_per_pass
            continue
        if oracle_ok is not None:  # an unanswered instance is not ok
            failed += sum(not ok or a != b for ok, a, b in
                          zip(oracle_ok, p["answers"], reference["answers"]))
            continue
        good = all(p["checks"].values()) and p["digest"] == expected
        failed += 0 if good else 1
        if not good:
            notes.setdefault("failed_checks", []).extend(
                [k for k, v in p["checks"].items() if not v]
                or [f"digest {p['digest']} != recorded {expected}"])
    return attempted, failed, notes


def _median(values):
    return statistics.median(values) if values else None


def untraced_figures(plain):
    """Medians over the untraced passes, and their sample counts."""
    figures, samples = {}, {}
    for key in ("setup_s", "peak_rss_mb", "wall_s", "cpu_s"):
        figures[key] = _median([p[key] for p in plain])
        samples[key] = len(plain)
    ops = [t for p in plain for t in p["op_wall"]]
    if ops:
        figures["op_p50_ms"] = statistics.median(ops) * 1000
        figures["op_p99_ms"] = (
            statistics.quantiles(ops, n=100, method="inclusive")[98] * 1000
            if len(ops) > 1 else ops[0] * 1000)
    samples["op_p50_ms"] = samples["op_p99_ms"] = len(ops)
    return figures, samples


def aggregate(passes, trace):
    """Untraced figures; with trace, the PER_LAYER metrics instead."""
    plain = [p for k, p in passes if k == 0 and p is not None]
    figures, samples = untraced_figures(plain)
    if not trace:
        return figures, samples
    from layers import PER_LAYER
    traced = [p for k, p in passes if k == 1 and p is not None]
    metrics, counts = {}, {}
    for name, _, _ in PER_LAYER:
        if name.startswith("run."):
            metrics[name] = figures.get(name[4:])
            counts[name] = samples[name[4:]]
        elif name == "trace.overhead_s":
            traced_wall = _median([p["wall_s"] for p in traced])
            if figures["wall_s"] is not None and traced_wall is not None:
                metrics[name] = traced_wall - figures["wall_s"]
            counts[name] = len(traced)
        else:
            metrics[name] = _median([p["layers"][name] for p in traced])
            counts[name] = len(traced)
    return metrics, counts


def run_workload(name, seed, seconds, trace):
    import workloads
    run_start = time.monotonic()
    wl = workloads.make(name, OUT_DIR)
    inputs = wl.prepare(seed) if hasattr(wl, "prepare") else None
    expected = json.loads((HERE / "expected.json").read_text())
    passes = run_passes(name, seed, seconds, trace, inputs, run_start)
    attempted, failed, notes = judge(
        wl, passes, expected.get(name), getattr(wl, "verify", None))
    metrics, samples = aggregate(passes, trace)
    return {"workload": name, "seed": seed, "trace": trace,
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "metrics": metrics, "samples": samples, "notes": notes,
            "passes": [{"kind": k, **{f: v for f, v in p.items()
                                      if f != "answers"}}
                       if p else {"kind": k, "crashed": True}
                       for k, p in passes]}


def main(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(END_TO_END)
    trend = dict(TIMES)
    if args.trace:
        from layers import PER_LAYER
        units = {name: unit for name, unit, _ in PER_LAYER}
        trend = {}
    ctx = context()
    results = [run_workload(n, args.seed, args.seconds, args.trace)
               for n in names]

    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for key, value in r["metrics"].items():
            if value is None:
                continue
            if key in units:
                metrics[prefix + key] = {"value": value, "unit": units[key]}
            unit = units.get(key) or trend[key] + " (trend)"
            print(f"{r['workload']:<10} {key:<48} {value:>14.6g} "
                  f"{unit:<13} (n={r['samples'][key]})")
        print(f"{r['workload']:<10} {'error_rate':<48} {r['error_rate']:>14.6g} "
              f"{'':<13} ({r['failed']} of {r['attempted']} operations)")
        if r["notes"]:
            print(f"{r['workload']:<10} notes: {json.dumps(r['notes'])}")
    print("context: " + json.dumps(ctx))
    tag = f"{args.workload}_{args.seed}_trace{args.trace}"
    (OUT_DIR / f"result_{tag}.json").write_text(
        json.dumps({"context": ctx, "results": results}, indent=1))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(
        r["metrics"].get(key) is not None for r in results for key in units)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the checkout at {ROOT} lacks {', '.join(missing)}; "
              "nothing to benchmark", file=sys.stderr)
        sys.exit(2)
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.exit(main())
