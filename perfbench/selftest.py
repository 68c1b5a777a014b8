#!/usr/bin/env python3
"""Self-test of the benchmark on tiny corpora (about a minute).

    python3 perfbench/selftest.py

1. Every workload runs with ``--tiny`` for one second, untraced and traced.
   The last line must carry exactly the keys ``correct``, ``attempted``,
   ``failed`` and ``metrics``, every metric BENCHMARK.json declares for that
   mode with its unit, and a correct result.
2. The checkers are not vacuous: a corrupted batch answer line and an error
   line are counted as failed, so error_rate rises above 0; wrong values fail
   their second route; a Monte Carlo estimate far from the exact value is
   rejected.

Exits 0 when everything holds, 1 at the first failure.
"""
from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from haarmoments import (Estimate, MomentQuery, canonicalize,  # noqa: E402
                         match_closed_form, weingarten)


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def check_outputs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in run.SETTINGS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], capture_output=True, text=True, cwd=ROOT)
            what = f"{workload} --trace {trace}"
            expect(out.returncode == 0, f"{what} exits 0 ({out.stderr[-300:]})")
            last = json.loads(out.stdout.strip().splitlines()[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{what} result keys")
            declared = {m["name"]: m["unit"] for m in bench[group]}
            printed = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(printed == declared, f"{what} prints every {group} metric "
                                        "with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in last["metrics"].values()),
                   f"{what} values are numbers")
            expect(last["correct"] and last["failed"] == 0
                   and last["attempted"] >= 1, f"{what} is correct")


def check_grading() -> None:
    """Grade real batch output against the traced pipeline, then corrupt it."""
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    path = work / "selftest.jsonl"
    wl = corpus.generate("batch-light", 3, tiny=True)
    path.write_text(wl.jsonl())
    try:
        env = run.child_env()
        batch = subprocess.run(
            [sys.executable, "-m", "haarmoments.cli", "moment", "--batch",
             str(path)], capture_output=True, text=True, env=env, cwd=ROOT)
        traced = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "exact", "--corpus",
             str(path)], capture_output=True, text=True, env=env, cwd=ROOT)
    finally:
        path.unlink()
        try:
            work.rmdir()
        except OSError:
            pass
    lines = batch.stdout.splitlines()
    reference = [d for _, d in run.ChildRun(
        [(0.0, ln) for ln in traced.stdout.splitlines()], 0, 0, 0).answers()]

    def graded(batch_lines):
        got = run.ChildRun([(0.0, ln) for ln in batch_lines], 0, 0, 0)
        return run.grade(reference, set(), [got])

    attempted, failed = graded(lines)
    expect(failed == 0 and attempted == len(wl.exact),
           "batch output equals the traced pipeline")
    i = next(i for i, ln in enumerate(lines) if '"rational": "' in ln
             and '"rational": "0"' not in ln)
    doc = json.loads(lines[i])
    doc["value"]["rational"] = str(Fraction(doc["value"]["rational"]) * 2)
    corrupted = lines[:i] + [json.dumps(doc)] + lines[i + 1:]
    attempted, failed = graded(corrupted)
    expect(failed == 1 and failed / attempted > 0,
           f"a corrupted answer line is counted in error_rate "
           f"({failed}/{attempted})")
    errored = lines[:i] + [json.dumps({"error": "x", "input": "y"})] + lines[i + 1:]
    expect(graded(errored)[1] == 1, "an error line is counted in error_rate")
    expect(graded(lines[:-1])[1] == 1, "a missing answer line is counted")
    expect(run.grade(reference, {i}, [run.ChildRun(
        [(0.0, ln) for ln in lines], 0, 0, 0)])[1] == 1,
        "an answer whose second route failed is counted")


def check_second_routes() -> None:
    def route_ok(q: MomentQuery, symbolic: bool, value) -> bool:
        cm = canonicalize(q)
        method = "group"
        hit = match_closed_form(cm)
        if hit is not None:
            method = f"invariant:{hit[0]}"
        return child.second_route(q, cm, symbolic, method, value)[1]

    group = MomentQuery.make(4, (1, 2, 3, 1), (1, 2, 3, 2), (1, 2, 3, 1),
                             (2, 1, 3, 2))
    exact = weingarten.moment_at(canonicalize(group), 4)
    expect(route_ok(group, False, exact), "group answer passes fixed-vs-symbolic")
    expect(not route_ok(group, False, exact + Fraction(1, 10**12)),
           "wrong group answer fails fixed-vs-symbolic")
    sym = weingarten.moment_symbolic(canonicalize(group))
    expect(route_ok(group, True, sym), "symbolic answer passes symbolic-vs-fixed")
    expect(not route_ok(group, True, sym * 2),
           "wrong symbolic answer fails symbolic-vs-fixed")
    fan = MomentQuery.make(3, (1, 1), (1, 2), (1, 1), (2, 1))
    fan_value = Fraction(1, 12)
    expect(route_ok(fan, False, fan_value), "closed-form answer passes")
    expect(not route_ok(fan, False, fan_value * 3),
           "wrong closed-form answer fails closed-form-vs-group")
    zero = MomentQuery.make(2, (1,), (1,), (1,), (2,))
    expect(route_ok(zero, False, Fraction(0)), "zero answer passes multiset")
    expect(not route_ok(zero, False, Fraction(1, 2)),
           "nonzero answer to a zero query fails multiset")
    est = Estimate(complex(0.25, 0.0), 0.001, 10000)
    expect(child.estimate_ok(est, Fraction(1, 4))
           and not child.estimate_ok(est, Fraction(1, 3)),
           "Monte Carlo estimates are held to mc_tolerance")


def main() -> int:
    check_second_routes()
    check_grading()
    check_outputs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
