"""Compare two result sets of the benchmark, workload by workload.

Usage (from the repository root): python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories holding the result files that
perfbench/run.py writes (.perfbench_out/results/*.json), for example
copied out of two checkouts. Untraced results are paired by seed: the
k-th run of a seed on one side, in time order, with the k-th run of the
same seed on the other. For each workload and end-to-end metric this
prints each side's median and quartiles over all its runs, the share of
pairs the change won (ties count for neither), the number of runs with
no partner, and a verdict:

  better              the change won >= 90 % of pairs and the medians
                      differ by more than the base's quartile distance
  worse beyond bound  the change's median is worse than the base's by
                      more than the metric's bound
  unresolved          the spread of either side exceeds the bound and
                      not every change run beats every base run
  within bound        none of the above

The exit code is 1 when any metric is worse beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path("BENCHMARK.json")


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0 and "result" in rec:
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: (r["seed"], r["stamp"]))
    return runs


def pair_by_seed(base: list[dict], change: list[dict]
                 ) -> tuple[list[tuple[dict, dict]], int]:
    """Pairs of runs with the same seed, and the count left unpaired."""
    def by_seed(recs):
        seeds: dict[int, list[dict]] = {}
        for r in recs:
            seeds.setdefault(r["seed"], []).append(r)
        return seeds

    b, c = by_seed(base), by_seed(change)
    pairs = [pair for seed in sorted(b.keys() & c.keys())
             for pair in zip(b[seed], c[seed])]
    return pairs, len(base) + len(change) - 2 * len(pairs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float],
            pairs: list[tuple[float, float]], bound: float,
            lower_is_better: bool) -> tuple[str, float]:
    sign = 1.0 if lower_is_better else -1.0
    wins = (sum(sign * (c - b) < 0 for b, c in pairs) / len(pairs)
            if pairs else 0.0)
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    spread = max((b3 - b1) / abs(bm), (c3 - c1) / abs(cm))
    worse_by = sign * (cm - bm) / abs(bm)
    all_better = (max(change) < min(base) if lower_is_better
                  else min(change) > max(base))
    if wins >= 0.9 and worse_by < 0 and abs(cm - bm) > b3 - b1:
        return "better", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "worse beyond bound", wins
    return "within bound", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    base, change = load(args.base), load(args.change)
    regressed = False
    print(f"{'workload':<11} {'metric':<13} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5}  verdict")
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in base or name not in change:
            print(f"{name:<11} (no untraced results on "
                  f"{'base' if name not in base else 'change'} side)")
            continue
        pairs, unpaired = pair_by_seed(base[name], change[name])
        for metric in spec["end_to_end"]:
            key = metric["name"]

            def value(r):
                return r["result"]["metrics"][key]["value"]

            b = [value(r) for r in base[name]]
            c = [value(r) for r in change[name]]
            v, wins = verdict(b, c, [(value(x), value(y)) for x, y in pairs],
                              metric["bound"], metric["better"] == "lower")
            regressed |= v == "worse beyond bound"
            fb = "/".join(f"{x:.4g}" for x in quartiles(b))
            fc = "/".join(f"{x:.4g}" for x in quartiles(c))
            won = f"{wins:.0%}" if pairs else "-"
            print(f"{name:<11} {key:<13} {fb:>32} {fc:>32} {won:>5}  {v}"
                  f"  (n={len(b)}/{len(c)}, {len(pairs)} pairs, "
                  f"{unpaired} unpaired, bound {metric['bound']:.0%})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
