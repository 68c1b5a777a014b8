#!/usr/bin/env python3
"""Timing of the fixed per-line and per-process costs of ``moment --batch``.

Two kinds of case:

* per-line stages, in process and warm, over the batch-light corpus (seed
  3): ``parse`` (``json.loads`` and ``MomentQuery.from_json_obj`` of each
  line), ``canonical_form`` (``canonicalize`` of each parsed query) and
  ``match_closed_form`` of each canonical moment.  A stage's inputs are
  computed ahead, untimed, and one untimed pass fills the closed-form
  caches; then the stage runs over the whole corpus ``--repeat`` times,
  and each run is reported in microseconds per line.  These are the names
  the CLI calls.  ``canonical_form`` digests each normal form as (n, p, I,
  J, L, zero).  Earlier entries record the same timing under other names
  and digests: ``canonicalize_key`` digested (n, p, I, J, Q, zero) of the
  engine's key ``orient(relabel(m))``, and ``canonicalize`` digested
  ``canonicalize``'s result before it returned the normal form.
* whole processes: ``python -m haarmoments.cli moment --batch`` on an empty
  file (start-up alone) and on the batch-heavy, batch-symbolic and
  batch-light corpora (seed 3), output piped, ``PYTHONUNBUFFERED=1`` as the
  benchmark's children have it, ``--repeat`` runs each, taken in turn.
  The wall time runs from the start of the process to its exit, and the
  digest is of the output bytes and the exit code.

A process that starts from cached bytecode takes about 20 ms less than one
that compiles the package, so compare only entries measured the same way.
``host.bytecode_current`` records, before any run, whether every module of
the package timed had a pyc that Python would load rather than recompile:
one at ``importlib.util.cache_from_source`` whose header holds this
interpreter's magic number and the source's mtime and size.
``host.bytecode_written`` records whether ``PYTHONDONTWRITEBYTECODE`` was
unset, so that the runs could write pycs.  Entries before
``bytecode_current`` have only the second.
"""
import importlib.util
import json
import os
import struct
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import _bench

CORPUS_SEED = 3
CORPORA = ("batch-heavy", "batch-symbolic", "batch-light")


def corpus_lines(workload: str) -> str:
    return _bench.corpus(workload, CORPUS_SEED).jsonl()


def stages(repeat: int) -> list:
    """Per-line timings of parse, canonicalize and match over batch-light."""
    from haarmoments import MomentQuery, canonicalize, match_closed_form

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
        elif name == "canonical_form":
            rows = [[m.n, m.p, m.I, m.J, m.L, m.zero] for m in results]
        else:
            rows = [hit and [hit[0], str(hit[1])] for hit in results]
        return _bench.digest(rows)

    out = []
    for name, fn in (("parse", parse), ("canonical_form", canon),
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
                outputs[name].add(_bench.digest(
                    run.stdout + b"exit %d" % run.returncode))
    out = []
    for name, seconds in walls.items():
        if len(outputs[name]) != 1:
            sys.exit(f"output differs between runs of {name}")
        out.append({"corpus": name, "median_s": statistics.median(seconds),
                    "seconds": seconds, "output_sha256": outputs[name].pop()})
        print(f"{name:<18} {statistics.median(seconds) * 1e3:9.1f} ms")
    return out


def bytecode_current() -> bool:
    """Whether each ``*.py`` of the package on the path has a current
    timestamp pyc, by Python's own staleness rule."""
    package = Path(importlib.util.find_spec("haarmoments").origin).parent
    for source in package.glob("*.py"):
        stat = source.stat()
        want = importlib.util.MAGIC_NUMBER + struct.pack(
            "<III", 0, int(stat.st_mtime) & 0xFFFFFFFF,
            stat.st_size & 0xFFFFFFFF)
        try:
            with open(importlib.util.cache_from_source(source), "rb") as pyc:
                if pyc.read(16) != want:
                    return False
        except OSError:
            return False
    return True


def digests_of(entry: dict):
    for case in entry.get("stages", []):
        yield f"stages {case['stage']}", case["results_sha256"]
    for case in entry.get("processes", []):
        yield f"processes {case['corpus']}", case["output_sha256"]


def main() -> None:
    args = _bench.parser(__doc__, "BENCH_batch.json", 11).parse_args()
    if args.check:
        sys.exit(_bench.check(args.out, digests_of))
    host = _bench.host(bytecode_written=not os.environ.get(
        "PYTHONDONTWRITEBYTECODE"), bytecode_current=bytecode_current())
    _bench.write(args.out, (
        "per-line parse, canonicalize (canonical_form) and "
        "match_closed_form over the "
        f"batch-light corpus (seed {CORPUS_SEED}), in process and warm; "
        "whole-process moment --batch wall time on an empty file and on the "
        "three batch corpora, output piped, PYTHONUNBUFFERED=1"), args.label, {
        "host": host,
        "repeat": args.repeat,
        "stages": stages(args.repeat),
        "processes": processes(args.repeat),
    })


if __name__ == "__main__":
    main()
