"""Summarise one result set, or compare two, per workload and metric.

    python3 perfbench/compare.py SET.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSON-lines file that ``run.py --record`` (or series.py)
appends to.  For each workload and metric this prints the median and the
quartiles of each set and the spread (interquartile range over median)
against the metric's bound from BENCHMARK.json.  With two sets it pairs the
runs in seed order and prints the verdict of ``benchstats.verdict``: gain,
unresolved, regression or no regression.  Per-layer metrics have no bound
and are printed without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: dict(m, bound=None) for m in spec["per_layer"]})
    return metrics


def load_set(path: str) -> dict:
    """{(workload, metric): {seed: value}} from one result set."""
    values: dict = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                values[(record["workload"], name)][record["seed"]] = metric["value"]
    return values


def _fmt(q) -> str:
    return " ".join(f"{v:10.4g}" for v in q)


def report(spec: dict, parent: dict, change: dict | None = None) -> list[str]:
    lines = []
    for key in sorted(parent):
        workload, name = key
        meta = spec.get(name, {"better": "lower", "bound": None})
        p_vals = [parent[key][s] for s in sorted(parent[key])]
        bound = meta["bound"]
        spread = benchstats.spread(p_vals)
        within = "" if bound is None else (" ok" if spread <= bound else " OVER")
        line = (f"{workload:14s} {name:32s} n={len(p_vals):2d} q1/med/q3 "
                f"{_fmt(benchstats.quartiles(p_vals))} spread {spread:7.2%}"
                + ("" if bound is None else f" bound {bound:.0%}{within}"))
        if change is not None and key in change:
            # the i-th lowest seed of one set meets the i-th of the other, so
            # sets run with the same seeds pair by seed
            c_pair = [change[key][s] for s in sorted(change[key])]
            p_pair = p_vals[:len(c_pair)]
            line += f" | change {_fmt(benchstats.quartiles(c_pair))}"
            if bound is not None:
                line += " " + benchstats.verdict(p_pair, c_pair, meta["better"], bound)
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    spec = load_spec()
    change = load_set(args.change) if args.change else None
    print("\n".join(report(spec, load_set(args.parent), change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
