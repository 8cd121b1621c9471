"""Run the benchmark over several seeds and append every result to one set.

    python3 perfbench/series.py --out parent.jsonl --seeds 1-10 [--workload spiral-sweep ...]

Every run measures ``run_seconds`` from BENCHMARK.json with ``--trace 0``.

Then ``python3 perfbench/compare.py parent.jsonl`` prints each metric's
spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append",
                        default=None, help="repeatable; default every workload")
    args = parser.parse_args(argv)
    out = str(Path(args.out).resolve())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for name in names:
        for seed in args.seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0",
                                   "--record", out],
                cwd=HERE.parent, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
            print(f"{name} seed={seed} exit={proc.returncode} {last[0][:200]}", flush=True)
            if proc.returncode != 0:
                return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
