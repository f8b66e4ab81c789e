"""One workload process: import specexp, warm up, run timed operations, check.

Started by ``perfbench/run.py``, never by hand.  ``--spawned-at`` is the
parent's wall clock just before it started this process, so set-up time runs
from process start to the first timed operation, imports included.  Prints
one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="timed budget, if --ops is not given: the next operation starts "
                         "only if one more of the last one's length fits")
    ap.add_argument("--ops", type=int, default=0, help="run exactly this many operations")
    ap.add_argument("--op-offset", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-dir")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import specexp
    import workloads

    if Path(specexp.__file__).resolve().parent != ROOT / "src" / "specexp":
        raise SystemExit(f"specexp imported from {specexp.__file__}, not from this checkout")
    t_imported = time.time()

    tracer = a2m = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        a2m = tracing.install(tracer)["expansion.a2M"]
        tracer.enabled = True
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    t_ready = time.time()
    result = {"setup": {"setup_s": t_ready - args.spawned_at,
                        "import_s": t_imported - args.spawned_at,
                        "warmup_s": t_ready - t_imported}}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    a2m_before = a2m.cache_info() if tracer else None
    latencies, outputs = [], []
    index = args.op_offset
    while True:
        if tracer:
            tracer.op = index
        start = time.perf_counter()
        try:
            outputs.append((index, workload.op(index), None))
        except Exception:  # counted as a failed operation; the run goes on
            outputs.append((index, None, traceback.format_exc(limit=3)))
        latencies.append(time.perf_counter() - start)
        index += 1
        if len(latencies) >= args.ops if args.ops else \
                sum(latencies) + latencies[-1] > args.seconds:
            break
    if tracer:
        tracer.enabled = False
        after = a2m.cache_info()
        hits_misses = (after.hits - a2m_before.hits, after.misses - a2m_before.misses)
        result["layers"] = tracing.layer_metrics(tracer, sum(latencies), hits_misses)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["latencies_s"] = latencies

    failures = []
    for index, output, error in outputs:
        if error is None:
            try:
                error = workload.check(index, output)
            except Exception:  # a crashing check is a failed check
                error = traceback.format_exc(limit=3)
        if error is not None:
            failures.append({"op": index, "error": error})
    result["failures"] = failures

    if tracer and args.spans_dir:
        tracer.write(os.path.join(
            args.spans_dir, f"{args.workload}-seed{args.seed}-op{args.op_offset}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
