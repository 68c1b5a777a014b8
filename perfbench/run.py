#!/usr/bin/env python3
"""Benchmark of haarmoments: exact batch evaluation and Monte Carlo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src`` and needs no build.  Workloads are described in
perfbench/README.md and BENCHMARK.json.

* The three ``batch-*`` workloads time ``python3 -m haarmoments.cli moment
  --batch corpus.jsonl``, a fresh process per pass over the corpus.
* ``mc`` times Monte Carlo estimates in a fresh process per pass
  (perfbench/child.py mc).

Passes repeat until ``--seconds`` is used up.  With ``--trace 0`` (at least
two passes) the end-to-end metrics of BENCHMARK.json are reported; with
``--trace 1`` untraced passes alternate with traced ones (perfbench/child.py
exact, or mc --trace), at least one of each, and the per-layer metrics are
reported.  Every answer is
checked outside the timed passes: against the traced pipeline string for
string, and by a second route (see child.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also
writes the full result (environment, composition, details) for
perfbench/compare.py.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import corpus  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"

# timed: which process the end-to-end metrics time; tail_pct: the fixed
# percentile beyond which query_tail_ms averages the gaps, chosen so that the
# minimum number of passes leaves at least ten gaps beyond it; mc_checks: Monte Carlo
# cross-checks of answers that have no exact second route.
SETTINGS = {
    "batch-heavy": {"timed": "batch", "tail_pct": 80, "mc_checks": 4},
    "batch-symbolic": {"timed": "batch", "tail_pct": 80, "mc_checks": 2},
    "batch-light": {"timed": "batch", "tail_pct": 99, "mc_checks": 4},
    "mc": {"timed": "mc", "tail_pct": 80, "mc_checks": 0},
}
MIN_PASSES = 2       # timed passes per run, whatever --seconds says
SETUP_REPEATS = 9    # empty-batch starts per run; setup_s is their median
START_LIMIT_S = 120  # no new pass starts after this, so runs end within 180 s
CHILD_LIMIT_S = 170  # a child still running this long into the run is killed

# Pinned for every child: one BLAS/OpenMP thread, one sampler thread,
# unbuffered output (so result lines arrive as they are written) and a fixed
# hash seed.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "HAAR_MOMENTS_THREADS": "1",
             "PYTHONUNBUFFERED": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


@dataclass
class ChildRun:
    """One finished child: its stdout lines with arrival times (seconds
    since spawn), wall time, peak RSS and exit code."""
    lines: list[tuple[float, str]]
    wall: float
    rss_mb: float
    code: int
    docs: list[dict] = field(default_factory=list)

    def __post_init__(self):
        for _, text in self.lines:
            try:
                self.docs.append(json.loads(text))
            except json.JSONDecodeError:
                self.docs.append({"error": "unparsable line", "input": text})

    def answers(self) -> list[tuple[float, dict]]:
        """Result lines (answers, errors, estimates), in order."""
        return [(t, d) for (t, _), d in zip(self.lines, self.docs)
                if not ({"summary", "check", "ready"} & d.keys())]

    def part(self, key: str) -> dict | None:
        return next((d[key] for d in self.docs if key in d), None)

    def answers_end(self) -> float:
        """Arrival time of the last result line."""
        got = self.answers()
        return got[-1][0] if got else self.wall


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV, PYTHONPATH=str(SRC))
    return env


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def answer_key(doc: dict):
    """What must agree between two answers to one query."""
    if "error" in doc:
        return ("error",)
    value = doc.get("value", {})
    return (doc.get("method"), value.get("rational", value.get("ratfun")),
            doc.get("validity_min_n"))


def grade(reference: list[dict], bad: set, runs: list[ChildRun],
          same=answer_key) -> tuple[int, int]:
    """(attempted, failed) over every result line of every run: a line fails
    when it is an error, differs from the reference answer, or answers a
    query whose reference failed its second-route check.  Missing lines
    fail too."""
    attempted = failed = 0
    for run in runs:
        got = [d for _, d in run.answers()]
        attempted += max(len(got), len(reference))
        failed += abs(len(got) - len(reference))
        for i, (doc, ref) in enumerate(zip(got, reference)):
            if "error" in doc or i in bad or same(doc) != same(ref):
                failed += 1
    return attempted, failed


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.settings = SETTINGS[args.workload]
        self.env = child_env()
        self.start = perf_counter()
        self.launcher = None

    # -- processes ---------------------------------------------------------

    def start_launcher(self) -> None:
        """Start perfbench/spawner.py, which forks every measured child.
        Call it before the harness grows: see spawner.py for why."""
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self.launcher = subprocess.Popen(
            [sys.executable, str(SPAWNER), str(theirs.fileno())],
            pass_fds=[theirs.fileno()], stdin=subprocess.DEVNULL,
            env=self.env, cwd=ROOT)
        theirs.close()
        self.sock = ours

    def stop_launcher(self) -> None:
        """Close the socket; the launcher exits once its child has."""
        if self.launcher is None:
            return
        self.sock.close()
        try:
            self.launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher = None

    def reply(self) -> dict:
        msg = self.sock.recv(1 << 16)
        if not msg:
            raise BenchError("the launcher exited")
        return json.loads(msg)

    def spawn(self, argv: list[str], output: bool = True) -> ChildRun:
        """Run one child to completion through the launcher, timestamping
        each stdout line as it arrives; peak RSS comes from wait4 on this
        child alone.  A child that should print and prints nothing has
        crashed."""
        deadline = self.start + CHILD_LIMIT_S
        err_path = self.work / "stderr.txt"
        rfd, wfd = os.pipe()
        request = json.dumps({"argv": argv, "cwd": str(ROOT)}).encode()
        with open(err_path, "wb") as err:
            t0 = perf_counter()
            socket.send_fds(self.sock, [request], [wfd, err.fileno()])
        os.close(wfd)
        pid = self.reply()["pid"]
        done = None
        lines: list[tuple[float, str]] = []
        buf = b""
        sel = selectors.DefaultSelector()
        sel.register(rfd, selectors.EVENT_READ)
        try:
            while True:
                left = deadline - perf_counter()
                if left <= 0:
                    raise BenchError(f"child exceeded the run's time limit: "
                                     f"{' '.join(argv[1:4])}")
                if not sel.select(left):
                    continue
                chunk = os.read(rfd, 1 << 16)
                now = perf_counter() - t0
                if not chunk:
                    break
                *full, buf = (buf + chunk).split(b"\n")
                lines += [(now, ln.decode()) for ln in full if ln.strip()]
            done = self.reply()
            wall = perf_counter() - t0
        finally:
            sel.close()
            os.close(rfd)
            if done is None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                self.reply()  # reaped
        run = ChildRun(lines, wall, done["maxrss_kb"] / 1024.0, done["code"])
        if (output or run.code) and not run.lines:
            tail = err_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"child produced no output (exit {run.code}): "
                             f"{' '.join(argv[1:4])}\n{tail}")
        return run

    def cli_batch(self, path: Path) -> list[str]:
        return [sys.executable, "-m", "haarmoments.cli", "moment",
                "--batch", str(path)]

    def child(self, *args: str) -> list[str]:
        return [sys.executable, str(CHILD), *args]

    def passes(self, cycle: list[tuple[str, list[str]]], minimum: int):
        """Run the cycle of children until --seconds is used up, at least
        ``minimum`` times; returns the runs of each cycle entry by name."""
        runs = {name: [] for name, _ in cycle}
        t0 = perf_counter()
        rounds = 0
        while True:
            for name, argv in cycle:
                runs[name].append(self.spawn(argv))
            rounds += 1
            now = perf_counter()
            per_round = (now - t0) / rounds
            if rounds >= minimum and now - t0 + per_round > self.args.seconds:
                break
            if now - self.start + per_round > START_LIMIT_S:
                break
        return runs

    # -- the run -----------------------------------------------------------

    def run(self) -> dict:
        args = self.args
        wl = corpus.generate(args.workload, args.seed, args.tiny)
        corpus_path = self.work / "corpus.jsonl"
        corpus_path.write_text(wl.jsonl())
        empty = self.work / "empty.jsonl"
        empty.write_text("")

        self.spawn(self.cli_batch(empty), output=False)  # byte-compiles src

        trace = args.trace == 1
        mc_checks = str(self.settings["mc_checks"])
        check = self.child("exact", "--corpus", str(corpus_path),
                           "--check", mc_checks, "--seed", str(args.seed))
        traced_exact = self.child("exact", "--corpus", str(corpus_path))
        if self.settings["timed"] == "batch":
            cycle = [("batch", self.cli_batch(corpus_path))]
            if trace:
                # the first traced pass also runs the checks
                first = self.spawn(check)
                cycle.append(("traced", traced_exact))
            runs = self.passes(cycle, 1 if trace else MIN_PASSES)
            if trace:
                runs["traced"].insert(0, first)
                checker = first
            else:
                checker = self.spawn(check)
            timed = runs["batch"]
            exact_runs = runs["batch"]
        else:
            specs_path = self.work / "specs.jsonl"
            specs_path.write_text("".join(json.dumps(s) + "\n"
                                          for s in wl.mc))
            exact_runs = [self.spawn(self.cli_batch(corpus_path))]
            cycle = [("mc", self.child("mc", "--specs", str(specs_path)))]
            if trace:
                cycle.append(("traced", self.child(
                    "mc", "--specs", str(specs_path), "--trace")))
            runs = self.passes(cycle, 1 if trace else MIN_PASSES)
            timed = runs["mc"]
            estimates = self.work / "estimates.jsonl"
            estimates.write_text("".join(
                json.dumps(d) + "\n" for _, d in timed[0].answers()))
            checker = self.spawn(check + ["--mc-specs", str(specs_path),
                                          "--mc-estimates", str(estimates)])

        # -- correctness
        reference = [d for _, d in checker.answers()]
        verdict = checker.part("check") or {"failures": [{"line": -1}],
                                            "routes": {}}
        bad = {f["line"] for f in verdict["failures"] if "line" in f}
        attempted, failed = grade(reference, bad, exact_runs)
        if trace and self.settings["timed"] == "batch":
            a, f = grade(reference, bad, runs["traced"])
            attempted, failed = attempted + a, failed + f
        if self.settings["timed"] == "mc":
            bad_est = {f["estimate"] for f in verdict["failures"]
                       if "estimate" in f}
            first = [d for _, d in timed[0].answers()]
            for rs in runs.values():  # estimates are bit-identical per seed
                a, f = grade(first, bad_est, rs, same=json.dumps)
                attempted, failed = attempted + a, failed + f
        if len(reference) != len(wl.exact) or checker.part("check") is None:
            failed += 1
            attempted += 1

        # measured after the passes, on a machine as busy as during them
        setup = [self.spawn(self.cli_batch(empty), output=False).wall
                 for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(setup)
        env = self.environment(checker, wl)
        details = {"setup_walls_s": setup,
                   "timed_walls_s": [r.wall for r in timed],
                   "routes": verdict["routes"],
                   "failures": verdict["failures"][:20]}
        if trace:
            metrics = self.layer_metrics(runs, checker, exact_runs, setup_s,
                                         details)
        else:
            metrics = self.end_to_end(timed, setup_s, details)
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics, "env": env,
                "composition": wl.composition(), "details": details}

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, timed: list[ChildRun], setup_s: float,
                   details: dict) -> dict:
        gaps = []
        rate = []
        for run in timed:
            t = [at for at, _ in run.answers()]
            if self.settings["timed"] == "mc":
                t = [run.lines[0][0]] + t  # gaps start at the ready line
            gaps += [b - a for a, b in zip(t, t[1:])]
            rate.append((len(t) - 1) / run.wall)
        # the tail is the mean of the gaps at or beyond a fixed percentile:
        # a single order statistic that far out moves with the few queries
        # that happen to sit there, the mean over all of them much less
        pct = self.settings["tail_pct"]
        cut = percentile(gaps, pct)
        beyond = [g for g in gaps if g >= cut]
        tail = statistics.fmean(beyond)
        details["latency"] = {"gaps": len(gaps), "tail_percentile": pct,
                              "percentile_ms": 1e3 * cut,
                              "beyond_tail": len(beyond)}
        if self.settings["timed"] == "mc":
            samples = sum(d["samples"] for _, d in timed[0].answers())
            details["samples_per_s"] = statistics.median(
                samples / (r.answers_end() - r.lines[0][0]) for r in timed)
        return {"setup_s": setup_s,
                "queries_per_s": statistics.median(rate),
                "query_p50_ms": 1e3 * percentile(gaps, 50),
                "query_tail_ms": 1e3 * tail,
                "peak_rss_mb": statistics.median(r.rss_mb for r in timed)}

    def layer_metrics(self, runs, checker: ChildRun, exact_runs, setup_s,
                      details: dict) -> dict:
        traced = runs["traced"]
        if self.settings["timed"] == "batch":
            layers = [r.part("summary") for r in traced]
            mc = [checker.part("check")]
            untimed = runs["batch"]
        else:
            layers = [checker.part("summary")]
            mc = [r.part("summary") for r in traced]
            untimed = runs["mc"]
        out = {}
        for src in (layers, mc):
            for key in src[0]:
                if key != "env" and isinstance(src[0][key], (int, float)):
                    out[key] = statistics.median(s[key] for s in src)
        library_s = out.pop("library_s")
        out["cli.overhead_s"] = (statistics.median(r.wall for r in exact_runs)
                                 - setup_s - library_s)
        out["trace.overhead_frac"] = (
            statistics.median(r.answers_end() for r in traced)
            / statistics.median(r.answers_end() for r in untimed) - 1.0)
        details["traced_passes"] = len(traced)
        details["library_s"] = library_s
        return out

    def environment(self, checker: ChildRun, wl) -> dict:
        summary = checker.part("summary") or {}
        commit = "unknown"
        if (ROOT / ".git").exists():
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or commit
        return dict(summary.get("env", {}), workload=wl.name,
                    seed=self.args.seed, seconds=self.args.seconds,
                    trace=self.args.trace, nproc=os.cpu_count(),
                    commit=commit, thread_caps=CHILD_ENV,
                    mc_threads=1)


def report(result: dict, declared: dict) -> None:
    """Human-readable lines ahead of the final JSON line."""
    env = result["env"]
    print(f"perfbench {env['workload']} seed={env['seed']} "
          f"seconds={env['seconds']} trace={env['trace']}")
    print("env " + json.dumps({k: v for k, v in env.items()
                               if k not in ("workload", "seed", "seconds",
                                            "trace")}))
    print("composition " + json.dumps(result["composition"]))
    d = result["details"]
    rate = result["failed"] / max(result["attempted"], 1)
    print(f"error_rate {rate:.6g} ({result['failed']} failed or wrong of "
          f"{result['attempted']} attempted; routes {json.dumps(d['routes'])})")
    if "latency" in d:
        lat = d["latency"]
        print(f"query_tail_ms is the mean of the {lat['beyond_tail']} "
              f"per-query gaps at or beyond p{lat['tail_percentile']} "
              f"({lat['percentile_ms']:.6g} ms) of {lat['gaps']} over "
              f"{len(d['timed_walls_s'])} passes")
    if "samples_per_s" in d:
        print(f"samples_per_s {d['samples_per_s']:.6g} 1/s")
    for name, unit in declared.items():
        print(f"  {name:36s} {result['metrics'][name]:14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(SETTINGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small corpora, for the self-test")
    ap.add_argument("--out", help="also write the full result here")
    args = ap.parse_args(argv)

    if not (SRC / "haarmoments" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'haarmoments'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}

    # a terminated run still kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    bench = Bench(args, work)
    try:
        bench.start_launcher()
        result = bench.run()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        bench.stop_launcher()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    missing = declared.keys() - result["metrics"].keys()
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 1
    report(result, declared)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
