#!/usr/bin/env python3
"""Timing of the fixed per-line and per-process costs of ``moment --batch``.

Two kinds of case:

* per-line stages, in process and warm, over the batch-light corpus (seed
  3): ``parse`` (``json.loads`` and ``MomentQuery.from_json_obj`` of each
  line), ``canonicalize_key`` (``canonicalize`` of each parsed query) and
  ``match_closed_form`` of each canonical moment.  A stage's inputs are
  computed ahead, untimed, and one untimed pass fills the closed-form
  caches; then the stage runs over the whole corpus ``--repeat`` times,
  and each run is reported in microseconds per line.  These are the names
  the CLI calls, and they exist on every commit that has ``moment
  --batch``.  The ``canonicalize_key`` digest is taken of the engine's key
  ``orient(relabel(m))``, not of ``canonicalize``'s own result: since
  ``canonicalize`` returns the normal form instead of an alignment, its
  result differs from that of earlier commits, while the key does not.
  Entries written before that change record the stage as
  ``canonicalize``, digested on ``canonicalize``'s own result.  The key is
  digested as (n, p, I, J, Q, zero); since the record holds the plain
  columns L instead of Q, Q is read through its ``Q`` accessor, the first
  fit of L into J, which gives the digest of earlier commits.
* whole processes: ``python -m haarmoments.cli moment --batch`` on an empty
  file (start-up alone) and on the batch-heavy, batch-symbolic and
  batch-light corpora (seed 3), output piped, ``PYTHONUNBUFFERED=1`` as the
  benchmark's children have it, ``--repeat`` runs each, taken in turn.
  The wall time runs from the start of the process to its exit.

The package timed is the one on ``PYTHONPATH``, for the stages and the
processes alike, so the script can time another commit's ``src``.  The
results go to a JSON file under a label, one entry per label, so that runs
of two commits can share one file.  Digests of every stage's results and of
each corpus's output bytes and exit code are stored too, so the entries can
be checked for equal results.  ``--check`` does that check: it exits 1 if
two entries of the file give one stage or one corpus different digests.

Usage (from the repository root):
  PYTHONPATH=src python3 benchmarks/bench_batch.py --label NAME
      [--repeat N] [--out BENCH_batch.json]
  python3 benchmarks/bench_batch.py --check [--out BENCH_batch.json]
"""
import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEED = 3
CORPORA = ("batch-heavy", "batch-symbolic", "batch-light")


def corpus_lines(workload: str) -> str:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    return corpus.generate(workload, CORPUS_SEED).jsonl()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def stages(repeat: int) -> list:
    """Per-line timings of parse, canonicalize and match over batch-light."""
    from haarmoments import MomentQuery, canonicalize, match_closed_form
    from haarmoments.queries import orient, relabel

    lines = corpus_lines("batch-light").splitlines()
    queries = [MomentQuery.from_json_obj(json.loads(line)) for line in lines]
    moments = [canonicalize(q) for q in queries]

    def parse():
        return [MomentQuery.from_json_obj(json.loads(line)) for line in lines]

    def canon():
        return [canonicalize(q) for q in queries]

    def match():
        return [match_closed_form(m) for m in moments]

    def results_sha(name, results):
        if name == "parse":
            rows = [[q.n, q.I, q.J, q.K, q.L] for q in results]
        elif name == "canonicalize_key":
            keys = [orient(relabel(m)) for m in results]
            rows = [[m.n, m.p, m.I, m.J, m.Q, m.zero] for m in keys]
        else:
            rows = [hit and [hit[0], str(hit[1])] for hit in results]
        return digest(json.dumps(rows).encode())

    out = []
    for name, fn in (("parse", parse), ("canonicalize_key", canon),
                     ("match_closed_form", match)):
        sha = results_sha(name, fn())  # the untimed pass
        us = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            us.append((time.perf_counter() - start) * 1e6 / len(lines))
        out.append({"stage": name, "lines": len(lines),
                    "median_us_per_line": statistics.median(us),
                    "us_per_line": us, "results_sha256": sha})
        print(f"{name:<18} {len(lines):>5} lines "
              f"{statistics.median(us):8.2f} us/line")
    return out


def processes(repeat: int) -> list:
    """Whole-process wall times of the batch CLI, one corpus after another
    in each round."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    walls: dict[str, list[float]] = {name: [] for name in ("empty",) + CORPORA}
    outputs: dict[str, set] = {name: set() for name in walls}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in walls:
            paths[name] = Path(tmp) / f"{name}.jsonl"
            paths[name].write_text("" if name == "empty"
                                   else corpus_lines(name))
        for _ in range(repeat):
            for name, path in paths.items():
                argv = [sys.executable, "-m", "haarmoments.cli", "moment",
                        "--batch", str(path)]
                start = time.perf_counter()
                run = subprocess.run(argv, stdout=subprocess.PIPE, env=env)
                walls[name].append(time.perf_counter() - start)
                outputs[name].add(digest(run.stdout + b"exit %d"
                                         % run.returncode))
    out = []
    for name, seconds in walls.items():
        if len(outputs[name]) != 1:
            sys.exit(f"output differs between runs of {name}")
        out.append({"corpus": name, "median_s": statistics.median(seconds),
                    "seconds": seconds, "output_sha256": outputs[name].pop()})
        print(f"{name:<18} {statistics.median(seconds) * 1e3:9.1f} ms")
    return out


def check(path: Path) -> int:
    """1 if two entries give one stage or one corpus different digests,
    else 0."""
    digests: dict = {}
    for label, entry in json.loads(path.read_text())["runs"].items():
        for kind, name, key in (("stages", "stage", "results_sha256"),
                                ("processes", "corpus", "output_sha256")):
            for case in entry.get(kind, []):
                digests.setdefault((kind, case[name]), {})[label] = case[key]
    bad = 0
    for (kind, name), by_label in digests.items():
        if len(set(by_label.values())) > 1:
            bad += 1
            print(f"{kind} {name}: digests differ: {by_label}")
    print(f"{path}: {len(digests)} cases, {bad} with differing digests")
    return 1 if bad else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="current",
                    help="name of this run's entry in the output file")
    ap.add_argument("--repeat", type=int, default=11)
    ap.add_argument("--out", default=str(ROOT / "BENCH_batch.json"))
    ap.add_argument("--check", action="store_true",
                    help="check that the entries of --out agree on every "
                         "digest, and exit 1 if they do not")
    args = ap.parse_args()
    if args.check:
        sys.exit(check(Path(args.out)))

    entry = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "bytecode_written": not os.environ.get(
                     "PYTHONDONTWRITEBYTECODE")},
        "repeat": args.repeat,
        "stages": stages(args.repeat),
        "processes": processes(args.repeat),
    }
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    doc["what"] = (
        "per-line parse, canonicalize (canonicalize_key) and "
        "match_closed_form over the "
        f"batch-light corpus (seed {CORPUS_SEED}), in process and warm; "
        "whole-process moment --batch wall time on an empty file and on the "
        "three batch corpora, output piped, PYTHONUNBUFFERED=1")
    doc["runs"][args.label] = entry
    # one line per list of numbers
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(doc, indent=1))
    path.write_text(text + "\n")


if __name__ == "__main__":
    main()
