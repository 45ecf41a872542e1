"""Compare two sets of benchmark runs: a parent commit against a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, the standard output of
`perfbench/run.py` (its first line is the `info` object, its last the
result).  Runs pair up by workload, trace flag and seed.  For each workload
and metric the table gives each side's median and quartiles and a verdict:

- `REGRESSION`: an end-to-end median worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- `unresolved`: a side's interquartile range is wider than the bound, and
  not every change run beats every parent run;
- `GAIN`: at least 10 pairs, the change better in at least 9 of 10 of
  them (ties count for neither), and the gap between the medians wider
  than the parent's interquartile range;
- `worse` / `better`: a per-layer metric moved by more than the parent's
  interquartile range, without meeting the gain rule;
- `same` otherwise.

It also flags a change that fails more ops than the parent and pair sets
that did not alternate which side ran first.  The exit code is 1 when there
is a regression or more failures, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[tuple, dict[int, dict]]:
    """{(workload, trace): {seed: {"info", "result"}}} from captured outputs."""
    runs: dict[tuple, dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = [ln for ln in path.read_text().splitlines() if ln.startswith("{")]
        if len(lines) < 2:
            print(f"skipping {path}: not a finished run", file=sys.stderr)
            continue
        info = json.loads(lines[0])["info"]
        runs[(info["workload"], info["trace"])][info["seed"]] = {
            "info": info, "result": json.loads(lines[-1])
        }
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(metric: dict, parent: list[float], change: list[float], wins: int, pairs: int) -> str:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (cm - pm)  # positive: the change is better
    bound = metric.get("bound")
    if bound is not None:
        if -gap > bound * abs(pm):
            return "REGRESSION"
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        if max(p3 - p1, c3 - c1) > bound * abs(pm) and not all_better:
            return "unresolved"
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gap > p3 - p1:
        return "GAIN"
    if bound is None and abs(gap) > p3 - p1:
        return "better" if gap > 0 else "worse"
    return "same"


def alternated(pairs: list[tuple[dict, dict]]) -> bool:
    """Did the side that ran first switch from each pair to the next?"""
    firsts = [
        p["info"]["started_at"] < c["info"]["started_at"]
        for p, c in sorted(pairs, key=lambda pc: min(r["info"]["started_at"] for r in pc))
    ]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    status = 0
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        left, right = parent.get(key, {}), change.get(key, {})
        seeds = sorted(set(left) & set(right))
        pairs = [(left[s], right[s]) for s in seeds]
        failed = [sum(r["result"]["failed"] for r in side.values()) for side in (left, right)]
        tried = [sum(r["result"]["attempted"] for r in side.values()) for side in (left, right)]
        print(f"\n== {workload} (trace {trace}): {len(left)} parent runs, {len(right)} change runs, "
              f"{len(pairs)} pairs{'' if alternated(pairs) else ', NOT alternating'}; "
              f"failed {failed[0]}/{tried[0]} vs {failed[1]}/{tried[1]}")
        if failed[1] * max(tried[0], 1) > failed[0] * max(tried[1], 1):
            print("   the change fails more ops than the parent")
            status = 1
        if not left or not right:
            continue
        print(f"   {'metric':<44} {'unit':<9} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6}  verdict")
        for metric in spec["per_layer" if trace else "end_to_end"]:
            name = metric["name"]
            xs = [r["result"]["metrics"][name]["value"] for r in left.values()]
            ys = [r["result"]["metrics"][name]["value"] for r in right.values()]
            paired = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                      for p, c in pairs]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in paired)
            v = verdict(metric, xs, ys, wins, len(paired))
            if v == "REGRESSION":
                status = 1
            (p1, pm, p3), (c1, cm, c3) = quartiles(xs), quartiles(ys)
            ratio = f"{cm / pm:7.3f}" if pm else "      -"
            print(f"   {name:<44} {metric['unit']:<9} {pm:>12.5g} [{p1:.4g}, {p3:.4g}]".ljust(86)
                  + f" {cm:>12.5g} [{c1:.4g}, {c3:.4g}]".ljust(31)
                  + f" {ratio} {wins:>2}/{len(paired):<3}  {v}")
    return status


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="directory of the parent commit's run outputs")
    p.add_argument("change", type=Path, help="directory of the change's run outputs")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
