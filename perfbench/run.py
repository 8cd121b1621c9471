"""Benchmark of the annulus-flux solver through its command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spiral-sweep --seed 1 --seconds 20 --trace 0

One client runs one op at a time (closed loop) in fresh child processes that
call ``annulus_flux.cli.main`` with inputs generated from the seed.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
measures the per-layer metrics in a traced process, next to an untraced
process and a reference process with OPENBLAS_NUM_THREADS=1.  Every op's check
and every metric are printed by name with their units; the last line is one
JSON object.  ``--record FILE`` also appends the result, its workload, seed
and environment to a JSON-lines result set for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds of ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the result to this JSON-lines file")
    return parser.parse_args(argv)


class RunFailed(Exception):
    pass


def run_child(args, index: int, budget: float, work: Path, started: float,
              trace: bool = False, one_thread: bool = False) -> dict:
    env = dict(os.environ)
    if one_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    child_work = work / f"p{index}{'-trace' if trace else ''}{'-1t' if one_thread else ''}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--index", str(index), "--budget", str(budget),
           "--work", str(child_work)]
    if trace:
        cmd += ["--trace", "--spans", str(work.parent / f"spans-{args.workload}.jsonl")]
    timeout = max(5.0, DEADLINE_S - (time.monotonic() - started))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"child {index} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"child {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def warm_seconds(children: list[dict]) -> list[float]:
    """Times of every op but the cold first op of each process."""
    return [r["seconds"] for c in children for r in c["ops"] if r["op"] != 0]


def end_to_end(children: list[dict]) -> tuple[dict, str]:
    warm = warm_seconds(children)
    tail_value, pct, count = benchstats.tail(warm)
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "cold_op_s": statistics.median(c["ops"][0]["seconds"] for c in children),
        "op_p50_s": statistics.median(warm),
        "op_tail_s": tail_value,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    return metrics, f"op_tail_s is p{pct} of {count} warm ops"


def per_layer(plain: dict, traced: dict, reference: dict) -> dict:
    metrics = dict(traced["layers"])
    traced_warm = [r["seconds"] for r in traced["ops"] if r["op"] in traced["span_ops"][1:]]
    untraced_p50 = statistics.median(warm_seconds([plain]))
    metrics["trace.op_p50_s"] = statistics.median(traced_warm)
    metrics["trace.op_mean_s"] = statistics.fmean(traced_warm)
    metrics["trace.untraced_op_p50_s"] = untraced_p50
    metrics["trace.overhead_frac"] = metrics["trace.op_p50_s"] / untraced_p50 - 1.0
    metrics["ref_1thread.op_p50_s"] = statistics.median(warm_seconds([reference]))
    metrics["ref_1thread.cold_op_s"] = reference["ops"][0]["seconds"]
    return metrics


def units_of(name: str) -> str:
    """Unit of a metric, from the suffix of its name."""
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "annulus_flux" / "cli.py").is_file():
        print(f"no annulus_flux sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} client=1 closed-loop")
    try:
        if args.trace:
            # untraced and one-thread reference get a quarter each, the traced process half
            quarter = args.seconds / 4
            plain = run_child(args, 0, quarter, work, started)
            traced = run_child(args, 0, 2 * quarter, work, started, trace=True)
            reference = run_child(args, 0, quarter, work, started, one_thread=True)
            children = [plain, traced, reference]
            metrics = per_layer(plain, traced, reference)
            note = f"layer figures are per-op means over {len(traced['span_ops']) - 1} warm traced ops"
        else:
            budget = args.seconds / workload.processes
            children = [run_child(args, i, budget, work, started)
                        for i in range(workload.processes)]
            metrics, note = end_to_end(children)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = children[0]["env"]
    print("env " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    for i, child in enumerate(children):
        for rec in child["ops"]:
            attempted += 1
            failed += not rec["ok"]
            status = "ok" if rec["ok"] else "FAIL"
            print(f"check process={i} op={rec['op']} input={rec['input']} {status} "
                  f"{rec['seconds']:.4f} s {rec['detail']}")
            if not rec["ok"]:
                print("  failed input " + json.dumps(rec["config"], sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units_of(name)}")
    print(note)
    print(f"fail_share = {failed}/{attempted} = {failed / attempted:.4g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of(name)}
                    for name, value in metrics.items()},
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": env, "result": result,
                                 "op_seconds": [[r["seconds"] for r in c["ops"]]
                                                for c in children]}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
