"""Benchmark child process; run.py starts it with PYTHONPATH set to the
checkout's ``src``.

``exact``: answers a JSONL corpus through the program's layers, called one
by one in the order the CLI uses them (canonicalize, closed-form match,
stabilizer-pair counts, class integrals, combine).  Each call is a span held
in memory; per-layer totals are printed once the corpus is done.  Answer
lines use the CLI's batch format, so run.py can compare them with the batch
output string for string.  With ``--check`` every answer is then checked by a
second route, and Monte Carlo estimates written by the ``mc`` mode are
checked against exact values.

``mc``: runs Monte Carlo estimate specs on one thread and prints one line per
estimate.  With ``--trace``, the sample step is timed again on its own over
the same chunk ranges, which splits estimator time into sampling and
contraction.

Only public names of ``haarmoments`` are used.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import haarmoments
from haarmoments import (Estimate, MomentQuery, RationalFunction,
                         SamplerConfig, canonicalize, estimate_moment,
                         estimate_sphere_moment, haar_batch,
                         match_closed_form, mc_tolerance, sphere_batch,
                         sphere_moment, weingarten)
from haarmoments.queries import orient, relabel

CHECK_SAMPLES = 20000  # samples per Monte Carlo cross-check of an answer


class Tracer:
    """Spans (query id, layer, start, end) kept in memory, plus counters.

    Spans of one query share its id.  They never nest, so each layer's total
    is its self time."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float]] = []
        self.counts: Counter = Counter()

    def call(self, qid: int, layer: str, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.spans.append((qid, layer, t0, perf_counter()))
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, layer, t0, t1 in self.spans:
            out[layer] += t1 - t0
        return out


def environment() -> dict:
    return {"backend": weingarten.backend_name(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "haarmoments": haarmoments.__version__}


def query_from(obj: dict) -> MomentQuery:
    """The CLI's reading of one batch line."""
    if "n" not in obj:
        obj = dict(obj, n=max((v for k in "IJKL" for v in obj.get(k, ())),
                              default=1))
    return MomentQuery.from_json_obj(obj)


def compose(q: MomentQuery, symbolic: bool, qid: int, tr: Tracer,
            seen: set):
    """Answer one query the way ``haarmoments moment`` does with method
    auto: a matched closed form first, else the group engine.  Returns the
    canonical moment, the method label and the value."""
    cm = tr.call(qid, "queries.canonicalize", canonicalize, q)
    tr.counts["queries.calls"] += 1
    tr.counts["queries.zero"] += cm.zero
    hit = tr.call(qid, "invariants.match", match_closed_form, cm)
    if hit is not None:
        family, rf = hit
        if symbolic:
            tr.counts["invariants.hits"] += 1
            return cm, f"invariant:{family}", rf
        try:
            value = tr.call(qid, "ratfun.combine", rf.eval_at, q.n)
            tr.counts["invariants.hits"] += 1
            return cm, f"invariant:{family}", value
        except (ValueError, ZeroDivisionError):
            pass  # closed form not valid at this n; the CLI falls back too
    # moment_at / moment_symbolic key their count cache on this form
    m = tr.call(qid, "queries.canonicalize", lambda: orient(relabel(cm)))
    key = (m.I, m.J, m.Q)
    counts = tr.call(qid, "weingarten.count", weingarten.class_counts, *key)
    tr.counts["weingarten.queries"] += 1
    if key in seen:
        tr.counts["weingarten.count_hits"] += 1
    else:
        seen.add(key)
        tr.counts["weingarten.pairs"] += weingarten.pair_count(m)
    tr.counts["weingarten.classes_touched"] += len(counts)
    for ct in counts:
        if symbolic:
            tr.call(qid, "weingarten.xi", weingarten.xi_symbolic, ct)
        else:
            tr.call(qid, "weingarten.xi", weingarten.xi_at, ct, q.n)
        tr.counts["weingarten.xi_calls"] += 1
    if symbolic:
        value = tr.call(qid, "ratfun.combine", weingarten.moment_symbolic, cm)
    else:
        value = tr.call(qid, "ratfun.combine", weingarten.moment_at, cm, q.n)
    return cm, "group", value


def answer_doc(q: MomentQuery, method: str, value) -> dict:
    """The CLI's batch result line for one answer."""
    doc = {"query": {"n": q.n, "I": list(q.I), "J": list(q.J),
                     "K": list(q.K), "L": list(q.L)},
           "method": method}
    if isinstance(value, RationalFunction):
        doc["value"] = {"kind": "ratfun", "ratfun": str(value)}
        doc["validity_min_n"] = value.validity_min_n
    else:
        doc["value"] = {"kind": "rational", "rational": str(value),
                        "float": float(value)}
    return doc


def layer_summary(tr: Tracer) -> dict:
    t = tr.totals()
    c = tr.counts
    calls = max(c["queries.calls"], 1)
    group = max(c["weingarten.queries"], 1)
    count_s = t.get("weingarten.count", 0.0)
    return {
        "queries.canonicalize_s": t.get("queries.canonicalize", 0.0),
        "queries.calls": c["queries.calls"],
        "queries.zero_ratio": c["queries.zero"] / calls,
        "invariants.match_s": t.get("invariants.match", 0.0),
        "invariants.hit_ratio": c["invariants.hits"] / calls,
        "weingarten.pairs": c["weingarten.pairs"],
        "weingarten.count_s": count_s,
        "weingarten.pairs_per_s": (c["weingarten.pairs"] / count_s
                                   if count_s else 0.0),
        "weingarten.count_cache_hit_ratio": c["weingarten.count_hits"] / group,
        "weingarten.classes_touched": c["weingarten.classes_touched"],
        "weingarten.xi_s": t.get("weingarten.xi", 0.0),
        "weingarten.xi_calls": c["weingarten.xi_calls"],
        "ratfun.combine_s": t.get("ratfun.combine", 0.0),
        "library_s": sum(t.values()),
    }


# ---------------------------------------------------------------------------
# second routes

def multiset_zero(q: MomentQuery) -> bool:
    return (len(q.I) != len(q.K) or Counter(q.I) != Counter(q.K)
            or Counter(q.J) != Counter(q.L))


def second_route(q: MomentQuery, cm, symbolic: bool, method: str, value):
    """Check one answer by a route independent of the one that produced it.

    Returns (route, ok); route "mc-pending" means no exact second route
    exists (fixed n below the degree on the group engine) and the caller
    decides whether to spend a Monte Carlo cross-check on it."""
    if cm.zero:
        return "multiset", multiset_zero(q) and value == 0
    if method.startswith("invariant:"):
        if symbolic:
            return "closed-form-vs-group", (
                value == weingarten.moment_symbolic(cm))
        return "closed-form-vs-group", value == weingarten.moment_at(cm, q.n)
    if symbolic:
        return "symbolic-vs-fixed", all(
            value.eval_at(n) == weingarten.moment_at(cm, n)
            for n in (cm.p, cm.p + 1))
    if q.n >= cm.p:
        return "fixed-vs-symbolic", (
            weingarten.moment_symbolic(cm).eval_at(q.n) == value)
    return "mc-pending", True


def plan(spec: dict):
    """Sampler config, estimator call and sample-step function of one
    Monte Carlo spec, always on one thread."""
    if spec["kind"] == "haar":
        q = query_from(spec["query"])
        cfg = SamplerConfig(n=q.n, samples=spec["samples"], seed=spec["seed"],
                            threads=1)
        return cfg, lambda: estimate_moment(q, cfg), haar_batch
    e = tuple(spec["exponents"])
    cfg = SamplerConfig(n=len(e), samples=spec["samples"], seed=spec["seed"],
                        threads=1)
    return cfg, lambda: estimate_sphere_moment(e, cfg), sphere_batch


def sample_step(cfg: SamplerConfig, batch, tr: Tracer, qid: int) -> None:
    """The estimator's sample step alone, over its chunk ranges."""
    for lo in range(0, cfg.samples, cfg.chunk):
        hi = min(lo + cfg.chunk, cfg.samples)
        tr.call(qid, "montecarlo.sample", batch, cfg.n, hi - lo, cfg.seed, lo)
    tr.counts["montecarlo.samples"] += cfg.samples


def mc_summary(tr: Tracer) -> dict:
    t = tr.totals()
    est_s = t.get("montecarlo.estimate", 0.0)
    sample_s = t.get("montecarlo.sample", 0.0)
    samples = tr.counts["montecarlo.samples"]
    return {"montecarlo.samples": samples,
            "montecarlo.sample_s": sample_s,
            "montecarlo.contract_s": est_s - sample_s,
            "montecarlo.samples_per_s": samples / est_s if est_s else 0.0}


def estimate_ok(est: Estimate, exact: Fraction) -> bool:
    return abs(est.mean - complex(float(exact), 0.0)) < mc_tolerance(est)


def run_checks(answers, mc_checks: int, seed: int, specs, estimates):
    """Second-route checks; returns the failures, route counts and the
    Monte Carlo spans of the cross-checks."""
    failures = []
    routes: Counter = Counter()
    tr = Tracer()
    done = {}
    pending = []
    for qid, (q, cm, symbolic, method, value) in enumerate(answers):
        if cm is None:
            continue  # error line; run.py counts it
        key = (relabel(cm), q.n, symbolic, method)
        if key not in done:
            done[key] = second_route(q, cm, symbolic, method, value)
            if done[key][0] == "mc-pending" or (symbolic and method == "group"):
                pending.append(qid)
        route, ok = done[key]
        routes[route] += 1
        if not ok:
            failures.append({"line": qid, "route": route})
    # Monte Carlo cross-checks: fixed-n answers with no exact second route
    # first, then symbolic group answers evaluated at n = p, lowest p first.
    pending.sort(key=lambda i: (answers[i][2], answers[i][1].p))
    rng = np.random.default_rng(seed)
    for qid in pending[:mc_checks]:
        q, cm, symbolic, method, value = answers[qid]
        if symbolic:
            q = MomentQuery(cm.p, q.I, q.J, q.K, q.L)
            value = value.eval_at(cm.p)
        spec = {"kind": "haar", "query": json.loads(q.to_json()),
                "samples": CHECK_SAMPLES, "seed": int(rng.integers(2**62))}
        cfg, estimate, batch = plan(spec)
        est = tr.call(qid, "montecarlo.estimate", estimate)
        sample_step(cfg, batch, tr, qid)
        routes["exact-vs-mc"] += 1
        if not estimate_ok(est, value):
            failures.append({"line": qid, "route": "exact-vs-mc"})
    # estimates from the mc mode against exact values
    exact_by_query = {q.to_json(): value
                      for q, cm, symbolic, method, value in answers
                      if cm is not None and not symbolic}
    for i, (spec, line) in enumerate(zip(specs, estimates)):
        got = json.loads(line)
        est = Estimate(complex(got["mean_re"], got["mean_im"]),
                       got["stderr"], got["samples"])
        if spec["kind"] == "haar":
            exact = exact_by_query.get(query_from(spec["query"]).to_json())
        else:
            exact = sphere_moment(tuple(spec["exponents"]))
        routes["estimate-vs-exact"] += 1
        if exact is None or not estimate_ok(est, exact):
            failures.append({"estimate": i, "route": "estimate-vs-exact"})
    return {"failures": failures, "routes": dict(routes), **mc_summary(tr)}


# ---------------------------------------------------------------------------
# modes

def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def cmd_exact(args) -> int:
    tr = Tracer()
    seen: set = set()
    answers = []
    with open(args.corpus, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    for qid, line in enumerate(lines):
        try:
            obj = json.loads(line)
            q = query_from(obj)
            symbolic = bool(obj.get("symbolic", False))
            cm, method, value = compose(q, symbolic, qid, tr, seen)
            emit(answer_doc(q, method, value))
            answers.append((q, cm, symbolic, method, value))
        except (ValueError, ZeroDivisionError, KeyError) as e:
            emit({"error": str(e), "input": line})
            answers.append((None, None, False, "error", None))
    summary = layer_summary(tr)
    summary["env"] = environment()
    emit({"summary": summary})
    if args.check is not None:
        specs = estimates = []
        if args.mc_specs:
            with open(args.mc_specs, encoding="utf-8") as fh:
                specs = [json.loads(ln) for ln in fh if ln.strip()]
            with open(args.mc_estimates, encoding="utf-8") as fh:
                estimates = [ln for ln in fh if ln.strip()]
        emit({"check": run_checks(answers, args.check, args.seed, specs,
                                  estimates)})
    return 0


def cmd_mc(args) -> int:
    with open(args.specs, encoding="utf-8") as fh:
        plans = [plan(json.loads(ln)) for ln in fh if ln.strip()]
    emit({"ready": True})
    tr = Tracer()
    for i, (cfg, estimate, batch) in enumerate(plans):
        est = tr.call(i, "montecarlo.estimate", estimate) if args.trace \
            else estimate()
        emit({"mean_re": est.mean.real, "mean_im": est.mean.imag,
              "stderr": est.stderr, "samples": est.samples})
    if args.trace:
        for i, (cfg, estimate, batch) in enumerate(plans):
            sample_step(cfg, batch, tr, i)
    emit({"summary": dict(mc_summary(tr), env=environment())})
    return 0


def main(argv=None) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(haarmoments.__file__).resolve().parent.parent != src:
        print(f"error: haarmoments imported from {haarmoments.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("exact")
    p.add_argument("--corpus", required=True)
    p.add_argument("--check", type=int, default=None, metavar="MC_CHECKS",
                   help="run second-route checks, with up to this many "
                        "Monte Carlo cross-checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mc-specs")
    p.add_argument("--mc-estimates")
    p.set_defaults(fn=cmd_exact)
    p = sub.add_parser("mc")
    p.add_argument("--specs", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_mc)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
