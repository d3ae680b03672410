"""Command line: ``run``, ``compare``, ``measure`` (and the internal ``worker``).

Every measured run happens in a fresh worker process, one at a time,
with BLAS pinned to one thread; this process only spawns workers,
aggregates what they print and renders tables.
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

from benchmarks.e2e import ROOT, load_spec, report, require_source

#: set before numpy loads in a worker; the hash seed keeps set and dict
#: iteration over strings identical from run to run
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKER_TIMEOUT_S = 170

#: ``setup_s`` is the median set-up time of this many fresh processes
SETUP_SAMPLES = 3


def spawn(workload: str, seed: int, seconds: float, **flags) -> dict:
    """Run one worker process to completion and return what it measured.

    ``flags``: ``smoke``, ``trace``, ``setup_only`` (booleans) and
    ``spans`` (a path), passed through to :func:`worker.run`.
    """
    cmd = [
        sys.executable, "-m", "benchmarks.e2e", "worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    for flag in ("smoke", "trace", "setup_only"):
        if flags.get(flag):
            cmd.append("--" + flag.replace("_", "-"))
    if flags.get("spans"):
        cmd += ["--spans", str(flags["spans"])]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **WORKER_ENV},
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"e2e: {workload} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"e2e: {workload} worker failed (exit code {proc.returncode})")
    kind = "setup" if flags.get("setup_only") else ("traced" if flags.get("trace") else "run")
    elapsed = time.perf_counter() - started
    print(f"e2e: {workload} {kind} seed={seed}: {elapsed:.1f} s", file=sys.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def untraced_run(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """One untraced run whose ``setup_s`` is the median of
    :data:`SETUP_SAMPLES` set-ups: the run's own and those of
    ``SETUP_SAMPLES - 1`` workers that stop after the bulk load."""
    setups = [
        spawn(workload, seed, seconds, smoke=smoke, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    out = spawn(workload, seed, seconds, smoke=smoke)
    out["metrics"]["setup_s"] = statistics.median(setups + [out["setup_s"]])
    return out


def aggregate(runs: list[dict], spec: dict) -> dict:
    """Median/IQR/n per end-to-end metric over repeated runs."""
    first = runs[0]
    return {
        "metrics": {
            name: {**report.summarize([r["metrics"][name] for r in runs]), "unit": unit}
            for name, unit, _, _ in report.metric_rows(spec)
        },
        "samples": {key: first[key] for key in ("updates", "answered", "arrivals", "attempted")},
        "correct": all(r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "compared": sum(r["compared"] for r in runs),
    }


def per_layer_values(traced: dict, untraced: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced run: its layers, its overhead
    against the untraced run, and the metrics BENCHMARK.json reports
    without a bound, which come from the untraced run."""
    values = dict(traced["layers"])
    values["bench.trace_overhead"] = traced["metrics"]["amortized_ms"] / untraced["amortized_ms"]
    for key in (*report.UNGATED, *report.ZERO_TOLERANCE):
        values[key] = untraced[key]
    return values


def host() -> str:
    """CPU model, core count, OS and Python of this machine, for the record."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return (
        f"{model}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}, "
        f"Python {platform.python_version()}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    require_source()
    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = {
        "seed": args.seed,
        "seconds": seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "host": host(),
        "workloads": {},
    }
    print(
        f"e2e benchmark: seed {args.seed}, {seconds:g} s runs, {args.repeat} untraced "
        f"run(s) per workload{' + 1 traced' if args.trace else ''}"
        f"{', smoke sizes' if args.smoke else ''}\n\nhost: {out['host']}\n",
        flush=True,
    )
    for name in names:
        runs = [untraced_run(name, args.seed, seconds, args.smoke) for _ in range(args.repeat)]
        entry = aggregate(runs, spec)
        text = report.e2e_table(name, entry, spec)
        if args.trace:
            spans = Path(args.spans) / f"{name}.npz" if args.spans else None
            traced = spawn(name, args.seed, seconds, smoke=args.smoke, trace=True, spans=spans)
            medians = {metric: s["median"] for metric, s in entry["metrics"].items()}
            entry["traced"] = {
                "stream_s": traced["stream_s"],
                "profile": traced["profile"],
                "layers": per_layer_values(traced, medians),
            }
            entry["correct"] = entry["correct"] and traced["failed"] == 0
            entry["failed"] += traced["failed"]
            text += "\n" + report.profile_table(name, entry["traced"])
        out["workloads"][name] = entry
        print(text, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if all(w["correct"] for w in out["workloads"].values()) else 1


def cmd_measure(args: argparse.Namespace) -> int:
    require_source()
    spec = load_spec()
    if args.trace:
        base = spawn(args.workload, args.seed, args.seconds)
        traced = spawn(args.workload, args.seed, args.seconds, trace=True)
        values = per_layer_values(traced, base["metrics"])
        runs, wanted = [base, traced], spec["per_layer"]
    else:
        full = untraced_run(args.workload, args.seed, args.seconds)
        values = full["metrics"]
        runs, wanted = [full], spec["end_to_end"]
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    text, regressions = report.compare(base, new, load_spec())
    print(text)
    return 1 if regressions else 0


def cmd_worker(args: argparse.Namespace) -> int:
    # one core for the whole run: migrations between cores leave the
    # caches cold and doubled the run-to-run spread of tail latencies
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    require_source()
    from benchmarks.e2e import worker

    out = worker.run(
        args.workload,
        args.seed,
        args.seconds,
        smoke=args.smoke,
        trace=args.trace,
        setup_only=args.setup_only,
        spans=args.spans,
    )
    # a completed run always prints; the parent turns failures into its exit code
    print(json.dumps(out))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads and print their tables")
    run.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--repeat", type=int, default=3, help="untraced runs per workload")
    run.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    run.add_argument("--trace", action="store_true", help="add one traced run per workload")
    run.add_argument("--smoke", action="store_true", help="the same code paths at ~1/50 size")
    run.add_argument("--spans", help="with --trace: write raw spans to DIR/<workload>.npz")
    run.add_argument("--out", help="write medians, quartiles and layers as JSON")
    run.set_defaults(fn=cmd_run)

    measure = sub.add_parser("measure", help="one run, printed as one JSON line")
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(fn=cmd_measure)

    compare = sub.add_parser("compare", help="judge B against A with BENCHMARK.json bounds")
    compare.add_argument("base", help="baseline run --out file (A)")
    compare.add_argument("new", help="candidate run --out file (B)")
    compare.set_defaults(fn=cmd_compare)

    worker = sub.add_parser("worker", help=argparse.SUPPRESS)
    worker.add_argument("--workload", required=True)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--seconds", type=float, required=True)
    worker.add_argument("--smoke", action="store_true")
    worker.add_argument("--trace", action="store_true")
    worker.add_argument("--setup-only", action="store_true")
    worker.add_argument("--spans")
    worker.set_defaults(fn=cmd_worker)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
