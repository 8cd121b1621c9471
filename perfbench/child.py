"""One benchmark process: set up, run ops back to back, check each, report.

Started by run.py in a fresh interpreter.  Set-up is timed from the
parent's spawn time to the moment the inputs are written; the first op is
the cold op.  Ops then run in a closed loop, each starting when the previous
one and its check have returned, until the ops' own time fills the budget:
check time does not count toward it.  Every op is checked outside its timed
interval; an exception or a failed check is recorded and the loop goes on.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True,
                        help="process number within the run; picks the first input")
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of ops, not counting their checks")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--trace", action="store_true",
                        help="record layer spans, then measure allocations")
    parser.add_argument("--spans", default=None, help="file to write the spans to")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "ANNULUS_FLUX_THREADS"},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import annulus_flux.cli as cli  # importing the package is part of set-up

    import workloads

    work = Path(args.work)
    out = work / "out"
    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.make_ops(args.workload, args.seed)
    argvs = workloads.write_inputs(ops, work / "inputs", out)
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    start = args.index * len(ops) // workload.processes
    verdicts = work.parent / "checks"  # shared by the processes of one run
    verdicts.mkdir(parents=True, exist_ok=True)

    def checked(op) -> tuple[bool, str]:
        path = None if workload.checked_file is None else out / workload.checked_file
        try:
            key = workloads.check_key(op, path)
            stored = verdicts / f"{key}.json"
            if key is not None and stored.exists():
                ok, detail = json.loads(stored.read_text())
                return ok, detail + " (same output as an op already checked)"
            ok, detail = workload.check(op, path)
        except Exception as exc:  # a check that raises fails its op
            return False, f"check raised {type(exc).__name__}: {exc}"
        if key is not None:
            stored.write_text(json.dumps([ok, detail]))
        return ok, detail

    def run_op(n: int) -> dict:
        position = (start + n) % len(ops)
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.op = n
        t0 = time.perf_counter()
        try:
            code = cli.main(argvs[position])
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if isinstance(code, str):
            ok, detail = False, code
        elif code != 0:
            ok, detail = False, f"exit code {code}"
        else:
            ok, detail = checked(ops[position])
        return {"op": n, "input": position, "seconds": elapsed, "ok": ok, "detail": detail,
                "config": None if ok else ops[position].config}

    # (phase ends at this share of the budget, ops it runs at least, allocations traced);
    # at least one warm op follows the cold one
    plan = [(1.0, 2, False)] if tracer is None else [(0.75, 2, False), (1.0, 1, True)]
    records = []
    span_ops: list[int] = []
    n = 0
    spent = 0.0  # seconds of ops so far
    for share, at_least, memory in plan:
        if memory:
            tracer.start_memory()
        first = n
        while n - first < at_least or spent < share * args.budget:
            records.append(run_op(n))
            spent += records[-1]["seconds"]
            if not memory:
                span_ops.append(n)
            n += 1
    if tracer is not None:
        tracer.stop_memory()
    shutil.rmtree(out, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        # op 0 is cold; the per-op layer figures are means over the warm span ops
        result["layers"] = spans.summarise(tracer, span_ops[1:], first_op=0)
        result["span_ops"] = span_ops
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
