#!/usr/bin/env python3
"""Compare two sets of results written by ``run.py --out``.

    python3 perfbench/compare.py --base a1.json a2.json ... \\
                                 --head b1.json b2.json ...

Give the runs of each side in the order they were made; pair i is
(base[i], head[i]), so alternate which side runs first.  All files must come
from one workload and one trace mode, and all must report the same counting
backend: a pure-Python result is never compared with a compiled one (exit 2).

For every metric the table shows each side's median and quartiles, the
change of the medians, and how many pairs the head won.  The verdict follows
perfbench/README.md: "worse" when the head median is worse than the base
median by more than the metric's bound in BENCHMARK.json; "better" when the
head wins at least nine pairs in ten and the medians differ by more than the
base quartile spread; otherwise "same" when within the bound, or
"unresolved" when the base spread is wider than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, head = load(args.base), load(args.head)

    keys = {(r["env"]["workload"], r["env"]["trace"]) for r in base + head}
    if len(keys) != 1:
        print(f"error: results mix workloads or trace modes: {sorted(keys)}",
              file=sys.stderr)
        return 2
    backends = {r["env"].get("backend") for r in base + head}
    if len(backends) != 1:
        print(f"error: results come from different counting backends "
              f"{sorted(map(str, backends))}; refusing to compare",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workload, trace = keys.pop()
    print(f"{workload} trace={trace} backend={backends.pop()} "
          f"base={len(base)} head={len(head)} runs")
    print(f"{'metric':34s} {'base median [q1, q3]':32s} "
          f"{'head median [q1, q3]':32s} {'change':>8s} {'wins':>6s} verdict")
    for name in base[0]["metrics"]:
        meta = declared[name]
        b = [r["metrics"][name] for r in base]
        h = [r["metrics"][name] for r in head]
        bm, hm = statistics.median(b), statistics.median(h)
        sign = 1 if meta["better"] == "higher" else -1
        pairs = list(zip(b, h))
        wins = sum(sign * (y - x) > 0 for x, y in pairs)
        change = (hm - bm) / abs(bm) if bm else float("nan")
        b1, b3 = quartiles(b)
        h1, h3 = quartiles(h)
        spread = (b3 - b1) / abs(bm) if bm else float("nan")
        bound = meta.get("bound")
        if bound is not None and -sign * change > bound:
            verdict = "worse"
        elif wins >= 0.9 * len(pairs) and abs(hm - bm) > b3 - b1:
            verdict = "better"
        elif bound is not None and spread > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        base_cell = f"{bm:.5g} [{b1:.4g}, {b3:.4g}]"
        head_cell = f"{hm:.5g} [{h1:.4g}, {h3:.4g}]"
        print(f"{name:34s} {base_cell:32s} {head_cell:32s} {change:+8.1%} "
              f"{wins:3d}/{len(pairs):<2d} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
