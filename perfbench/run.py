"""specexp benchmark: one command, four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload {coeff,cosmology,packing,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload runs in its own process
(``perfbench/worker.py``), one process at a time, closed loop with a single
caller: the next operation starts when the previous one returns.  ``coeff``
starts a fresh process for every operation, because a CLI user pays the cold
caches on every run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of a
traced re-run of the same operations.  A human summary with the workload's
own metric names precedes it, and the full run record is written under
``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_SAMPLES = 3
IMPORT_MODULES = ("specexp", "specexp.symcore", "specexp.bell", "specexp.bridge",
                  "specexp.expansion", "specexp.zeta", "specexp.pscc", "specexp.specfun",
                  "specexp.cli", "scipy.stats")
# the workload's own names for the generic latency metrics
NAMED = {
    "coeff": {"op_p50_ms": ("coeff_s", "s", 1e-3)},
    "cosmology": {"ops_per_s": ("eval_points_per_s", "1/s", 1.0),
                  "op_p50_ms": ("eval_p50_ms", "ms", 1.0),
                  "op_tail_ms": ("eval_tail_ms", "ms", 1.0)},
    "packing": {"ops_per_s": ("expansions_per_s", "1/s", 1.0),
                "op_p50_ms": ("expansion_p50_ms", "ms", 1.0),
                "op_tail_ms": ("expansion_tail_ms", "ms", 1.0)},
    "verify": {"op_p50_ms": ("verify_s", "s", 1e-3)},
}


class ChildError(RuntimeError):
    pass


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, beyond).  Below 20 samples that percentile would sit under
    the median, so the maximum is reported instead."""
    xs = sorted(values)
    if len(xs) < 20:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.threads = min(2, os.cpu_count() or 1)
        self.env = dict(os.environ, SPECEXP_THREADS=str(self.threads), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS=str(self.threads),
                        OPENBLAS_NUM_THREADS=str(self.threads),
                        MKL_NUM_THREADS=str(self.threads))
        self.env.pop("PYTHONPATH", None)
        self.children = 0

    def child(self, *extra, importtime=False) -> tuple[dict, str]:
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += [str(WORKER), "--workload", self.workload, "--seed", str(self.seed)]
        cmd += [str(x) for x in extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildError("time budget spent before the run finished")
        spawned = time.time()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise ChildError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from exc
        self.children += 1
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1]), proc.stderr

    def operations(self, *extra, ops=0, importtime=False) -> list[tuple[dict, str]]:
        """Timed operations: one worker, or one fresh worker per coeff operation."""
        if self.workload != "coeff":
            budget = ["--ops", ops] if ops else ["--seconds", self.seconds]
            return [self.child(*budget, *extra, importtime=importtime)]
        # The budget counts each fresh worker's whole life, start-up and check
        # included, so a run lasts about --seconds.
        runs, spent, last = [], 0.0, 0.0
        while len(runs) < ops if ops else not runs or spent + last <= self.seconds:
            start = time.monotonic()
            runs.append(self.child("--ops", 1, "--op-offset", len(runs), *extra,
                                   importtime=importtime))
            last = time.monotonic() - start
            spent += last
        return runs


def versions() -> dict:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def end_to_end(runs, setups) -> tuple[dict, dict]:
    lat = [x for r, _ in runs for x in r["latencies_s"]]
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _ in runs),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": value * 1e3,
        "ops_per_s": len(lat) / sum(lat),
    }
    detail = {
        "samples": len(lat),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "setup_import_s": statistics.median(s["import_s"] for s in setups),
        "setup_warmup_s": statistics.median(s["warmup_s"] for s in setups),
        "setup_samples": len(setups),
    }
    return metrics, detail


def per_layer(untraced, traced) -> dict:
    layers: dict[str, float] = {}
    for r, _ in traced:
        for k, v in r["layers"].items():
            layers[k] = layers.get(k, 0.0) + v
    if len(traced) > 1:  # ratios over fresh processes: mean, not sum
        for k in ("expansion.a2M.hit_ratio", "bridge.moment_product.reuse",
                  "zeta.string_poles.strip_repeat_share", "bridge.mc_estimate.paths_per_s"):
            layers[k] /= len(traced)
    base = sum(sum(r["latencies_s"]) for r, _ in untraced)
    with_trace = sum(sum(r["latencies_s"]) for r, _ in traced)
    layers["trace.overhead_frac"] = with_trace / base - 1.0
    imports = [tracing.parse_importtime(stderr, IMPORT_MODULES) for _, stderr in traced]
    for m in IMPORT_MODULES:
        layers[f"import.{m}.s"] = statistics.median(i[m] for i in imports)
    layers["import.total_s"] = layers["import.specexp.s"]
    setups = [r["setup"] for r, _ in untraced]
    layers["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    layers["setup.warmup_s"] = statistics.median(s["warmup_s"] for s in setups)
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NAMED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "specexp" / "__init__.py").is_file():
        print(f"error: no specexp sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args.workload, args.seed, args.seconds)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "versions": versions(),
        "SPECEXP_THREADS": runner.threads, "mc_workers": runner.threads,
        "workload_processes_at_a_time": 1, "git_commit": git_commit(),
        "loadavg_before": os.getloadavg(), "started_unix": time.time(),
    }
    try:
        if args.trace:
            untraced = runner.operations()
            spans_dir = OUT_DIR / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            n_ops = sum(len(r["latencies_s"]) for r, _ in untraced)
            traced = runner.operations("--trace", "--spans-dir", spans_dir,
                                       ops=n_ops, importtime=True)
            values = per_layer(untraced, traced)
            runs = traced
            record["untraced_latencies_s"] = [r["latencies_s"] for r, _ in untraced]
        else:
            setups = [runner.child("--setup-only")[0]["setup"] for _ in range(SETUP_SAMPLES - 1)]
            runs = runner.operations()
            setups += [r["setup"] for r, _ in runs]
            values, detail = end_to_end(runs, setups)
            record["detail"] = detail
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = os.getloadavg()
    record["worker_processes"] = runner.children

    failures = [f for r, _ in runs for f in r["failures"]]
    attempted = sum(len(r["latencies_s"]) for r, _ in runs)
    record.update(attempted=attempted, failed=len(failures), failures=failures[:20],
                  latencies_s=[r["latencies_s"] for r, _ in runs], values=values)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, "
          f"{len(failures)} failed; record in {out_file.relative_to(ROOT)}")
    for f in failures[:5]:
        print(f"#   FAILED op {f['op']}: {f['error'].strip().splitlines()[-1]}")
    if args.trace:
        for k in sorted(values):
            print(f"#   {k} = {values[k]:.6g}")
    else:
        print_summary(args.workload, values, record["detail"], attempted, len(failures))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def print_summary(workload, values, detail, attempted, failed):
    rows = [("setup_s", values["setup_s"], "s",
             f"import {detail['setup_import_s']:.3f} s + warm-up "
             f"{detail['setup_warmup_s']:.3f} s, median of {detail['setup_samples']}"),
            ("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
            ("failed_frac", failed / attempted, "1", f"{failed}/{attempted}")]
    for generic, (name, unit, scale) in NAMED[workload].items():
        note = f"= {generic}"
        if generic == "op_tail_ms":
            note += (f"; p{detail['tail_percentile']:.0f} with {detail['tail_samples_beyond']}"
                     f" samples beyond, {detail['samples']} samples")
        rows.append((name, values[generic] * scale, unit, note))
    for name, value, unit, note in rows:
        print(f"#   {name:<18} {value:12.6g} {unit:<4} ({note})")


if __name__ == "__main__":
    sys.exit(main())
