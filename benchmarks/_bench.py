"""The plumbing that the benchmark scripts under ``benchmarks/`` share.

Each script times its cases and writes the results to a JSON file at the
repository root (``BENCH_<name>.json``) under a label, one entry per label,
so that runs of two commits can share one file.  The package timed is the
one on ``PYTHONPATH``, so a script can time another commit's ``src``.  Each
entry records the host, the repeat count and, per case, a digest of the
results, so that the entries can be checked for equal results: ``--check``
exits 1 if two entries of the file give one case different digests (the
Monte Carlo script checks its estimates against the exact values instead,
since its sampler revisions differ in rounding).  A run also exits when its
own repeats give a case different digests.

Usage (from the repository root), for each script:
  PYTHONPATH=src python3 benchmarks/bench_<name>.py --label NAME
      [--repeat N] [--out BENCH_<name>.json]
  PYTHONPATH=src python3 benchmarks/bench_<name>.py --check [--out FILE]
"""
import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parser(doc: str, out: str, repeat: int) -> argparse.ArgumentParser:
    """The options every script takes; ``doc`` is the script's docstring and
    ``out`` its file's name under the repository root."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--label", default="current",
                    help="name of this run's entry in the output file")
    ap.add_argument("--repeat", type=int, default=repeat)
    ap.add_argument("--out", default=str(ROOT / out))
    ap.add_argument("--check", action="store_true",
                    help="check the entries of --out, and exit 1 if they "
                         "fail")
    return ap


def host(**extra) -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), **extra}


def digest(obj) -> str:
    """The short digest of bytes, or of anything else as its JSON text."""
    data = obj if isinstance(obj, bytes) else json.dumps(obj).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def corpus(workload: str, seed: int):
    """perfbench's corpus of a workload at a seed."""
    path = str(ROOT / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    from corpus import generate

    return generate(workload, seed)


def child(script, *args, env=None) -> dict:
    """The JSON object that ``script args`` prints, run in a fresh
    interpreter with ``env`` added to the environment."""
    if env is not None:
        env = dict(os.environ, **env)
    out = subprocess.run([sys.executable, str(script), *map(str, args)],
                         check=True, capture_output=True, text=True,
                         env=env).stdout
    return json.loads(out)


def repeated(run, repeat: int, key: str, name: str) -> list[dict]:
    """``repeat`` results of ``run()``; exits when their ``key`` differs."""
    runs = [run() for _ in range(repeat)]
    if any(r[key] != runs[0][key] for r in runs):
        sys.exit(f"results differ between runs of {name}")
    return runs


def write(path, what: str, label: str, entry: dict) -> None:
    """Set the file's ``what`` and its entry under ``label``, keeping the
    order of its keys, with each list of numbers on one line."""
    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {"what": what,
                                                              "runs": {}}
    doc["what"] = what
    doc["runs"][label] = entry
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(doc, indent=1))
    path.write_text(text + "\n")


def check(path, digests_of) -> int:
    """1 if two entries give one case different digests, else 0;
    ``digests_of(entry)`` yields an entry's (case, digest) pairs."""
    digests: dict = {}
    for label, entry in json.loads(Path(path).read_text())["runs"].items():
        for case, sha in digests_of(entry):
            digests.setdefault(case, {})[label] = sha
    bad = [case for case, by_label in digests.items()
           if len(set(by_label.values())) > 1]
    for case in bad:
        print(f"{case}: digests differ: {digests[case]}")
    print(f"{path}: {len(digests)} cases, {len(bad)} with differing digests")
    return 1 if bad else 0
