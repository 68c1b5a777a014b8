"""Command-line interface: argument parsing and result printing only.  The
choice of evaluation route belongs to ``invariants.moment``.

Subcommands:
  moment   exact monomial moment of unitary matrix entries
  wg       class integral (Weingarten coefficient) by cycle type
  fan      single-column closed form
  zint     two-column closed form
  xint     exchange-family integral from an eight-weight signature
  sphere   monomial moment over the real unit hypersphere
  mc       Monte Carlo estimate of a moment query
  verify   run one of the named verification suites

Exit codes: 0 success, 1 verification/estimate mismatch, 2 usage error.

Every exact JSON result, a ``moment --batch`` line or ``--output json``, is
written by one formatter, ``_result_line``, which gives the bytes of
``json.dumps`` without building the document.  ``--batch`` writes each
answer as one ``write`` call as soon as it is computed; error lines go
through ``json.dumps``, because their strings need escaping.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from math import lgamma, log, log10

from . import invariants, sphere, weingarten
from .queries import MomentQuery, canonicalize, is_int
from .ratfun import RationalFunction


# The verification suites and their default seed as ``suites`` defines them,
# written out so that building the parser does not import ``suites``.
_SUITE_NAMES = ("paper-tables", "invariant-relations", "orthogonality",
                "unitarity-sums", "sphere", "properties", "mc-crosscheck")
_DEFAULT_SEED = 20260816


class UsageError(Exception):
    pass


def _parse_ints(text: str, what: str, minimum: int = 1) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated list of integers")
    if any(v < minimum for v in values):
        raise UsageError(f"{what} entries must be >= {minimum}")
    return values


def _format_float(x: float) -> str:
    return f"{x:.15g}"


_TOO_LONG = "the value has more digits than Python's integer printing limit"
_TOO_LONG_INPUT = ("an integer in {} has more digits than Python's "
                   "integer parsing limit")


def _refuse_unprintable(q: MomentQuery, symbolic: bool) -> None:
    """Refuse, before any work, a fixed-n query whose value is certain to
    have more digits than Python prints (``sys.get_int_max_str_digits``).

    A nonzero moment of degree p has |value| <= p!/n^p: by Hölder's
    inequality it is at most E|U_11|^2p = p!/(n(n+1)...(n+p-1)).  So its
    reduced denominator is at least n^p/p!.  It is nonzero once
    n > (p!)^2 (4p)^(p+1): then the first term of its Weingarten series in
    1/n outweighs the rest (Collins; Matsumoto and Novak).  Zero moments
    print, and so does any value for which either bound is in doubt."""
    limit, p, bits = sys.get_int_max_str_digits(), len(q.I), q.n.bit_length()
    if symbolic or p * bits <= 3 * limit:  # p log10 n < 0.302 p bits
        return
    log_n = (bits - 1) * log10(2)  # log10 n, from below
    log_fact = lgamma(p + 1) / log(10)
    if (limit and p * log_n > limit + 1 + log_fact
            and log_n > 1 + 2 * log_fact + (p + 1) * log10(4 * p)
            and not canonicalize(q).zero):
        raise ValueError(_TOO_LONG)


def _digits(value) -> str:
    """str(value), or ValueError(_TOO_LONG) if it is too long to print."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(_TOO_LONG) from None


def _result_line(value, query=None, method=None) -> str:
    """The JSON result document of one computed exact value, as one line:
    the bytes ``json.dumps`` gives the document, written directly.  Every
    string in it (method labels, fractions, rational functions) is plain
    ASCII that needs no escaping."""
    out = []
    if query is not None:
        out.append(f'"query": {{"n": {query.n}, "I": [{_ints(query.I)}], '
                   f'"J": [{_ints(query.J)}], "K": [{_ints(query.K)}], '
                   f'"L": [{_ints(query.L)}]}}')
    if method is not None:
        out.append(f'"method": "{method}"')
    text = _digits(value)
    if isinstance(value, RationalFunction):
        out.append(f'"value": {{"kind": "ratfun", "ratfun": "{text}"}}, '
                   f'"validity_min_n": {value.validity_min_n}')
    else:
        out.append(f'"value": {{"kind": "rational", "rational": "{text}", '
                   f'"float": {float(value)!r}}}')
    return "{" + ", ".join(out) + "}"


def _ints(seq) -> str:
    return ", ".join(map(str, seq))


def _emit(value, output: str, query=None, method=None) -> None:
    """Print one computed exact value in the requested representation."""
    if output == "json":
        print(_result_line(value, query, method))
    elif output == "float" and not isinstance(value, RationalFunction):
        print(_format_float(float(value)))
    else:
        print(_digits(value))


# ---------------------------------------------------------------------------
# moment

def _resolve_n(n_arg, *lists) -> int:
    if n_arg is not None:
        if n_arg < 1:
            raise UsageError("--n must be at least 1")
        return n_arg
    peak = max((v for vs in lists for v in vs), default=1)
    return peak


def _cmd_moment(args) -> int:
    if args.batch:
        return _run_batch(args)
    I, J, K, L = (_parse_ints(getattr(args, name), f"--{name}")
                  for name in "IJKL")
    n = _resolve_n(args.n, I, J, K, L)
    q = MomentQuery.make(n, I, J, K, L)
    symbolic = args.symbolic or args.output == "symbolic"
    _refuse_unprintable(q, symbolic)
    value, label = invariants.moment(q, args.method, symbolic)
    _emit(value, args.output, query=q, method=label)
    return 0


def _run_batch(args) -> int:
    # A byte that does not decode is read as a surrogate escape, and only
    # the line holding it fails.
    failures = 0
    write = sys.stdout.write
    if args.batch == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(errors="surrogateescape")
        opened = contextlib.nullcontext(sys.stdin)
    else:
        try:
            opened = open(args.batch, "r", encoding="utf-8",
                          errors="surrogateescape")
        except OSError as e:
            raise UsageError(f"cannot read batch file: {e}") from e
    with opened as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii() and _shown(line) != line:
                    raise ValueError("line does not decode as text")
                obj = _loads(line)
                q = MomentQuery.from_json_obj(obj)
                symbolic = obj.get("symbolic", False)
                if not isinstance(symbolic, bool):
                    raise ValueError("symbolic must be true or false")
                symbolic = symbolic or args.symbolic
                method = obj.get("method", args.method)
                _refuse_unprintable(q, symbolic)
                value, label = invariants.moment(q, method, symbolic)
                write(_result_line(value, q, label) + "\n")
            except (ValueError, ZeroDivisionError, KeyError,
                    RecursionError) as e:
                failures += 1
                write(json.dumps({"error": str(e), "input": _shown(line)})
                      + "\n")
    return 1 if failures else 0


def _loads(text: str, where: str = "the line"):
    """json.loads, with the CLI's own message for an integer longer than
    ``sys.get_int_max_str_digits``, naming ``where`` the text came from:
    every other error it raises is a JSONDecodeError or a RecursionError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise ValueError(_TOO_LONG_INPUT.format(where)) from None


def _shown(line: str) -> str:
    """The line with each byte that did not decode shown as U+FFFD."""
    return line.encode("utf-8", "surrogateescape").decode("utf-8", "replace")


# ---------------------------------------------------------------------------
# other exact subcommands

def _cmd_wg(args) -> int:
    ct = _parse_ints(getattr(args, "class"), "--class")
    if not ct:
        raise UsageError("--class must name a nonempty cycle type")
    if list(ct) != sorted(ct, reverse=True):
        raise UsageError("--class must be weakly decreasing, e.g. 2,1")
    if args.p is not None and args.p != sum(ct):
        raise UsageError(f"--class sums to {sum(ct)}, not --p {args.p}")
    if args.n is None:
        _emit(weingarten.xi_symbolic(ct), args.output)
    else:
        _emit(weingarten.xi_at(ct, args.n), args.output)
    return 0


def _eval_or_symbolic(rf: RationalFunction, n, output) -> int:
    if n is None:
        _emit(rf, output)
    else:
        _emit(rf.eval_at(n), output)
    return 0


def _cmd_fan(args) -> int:
    ms = _parse_ints(args.m, "--m")
    if not ms:
        raise UsageError("--m must name at least one multiplicity")
    return _eval_or_symbolic(invariants.fan(ms), args.n, args.output)


def _cmd_zint(args) -> int:
    ms = _parse_ints(args.m, "--m", minimum=0)
    if len(ms) != 3:
        raise UsageError("--m must have exactly three entries, e.g. 1,0,1")
    return _eval_or_symbolic(invariants.z_integral(*ms), args.n, args.output)


def _cmd_xint(args) -> int:
    w = _parse_ints(args.w, "--w", minimum=0)
    if len(w) != 8:
        raise UsageError("--w must have exactly eight entries")
    value = invariants.x_integral(w, n=args.n, symbolic=args.n is None)
    _emit(value, args.output)
    return 0


def _cmd_sphere(args) -> int:
    exponents = _parse_ints(args.exponents, "--exponents", minimum=0)
    if len(exponents) != args.n:
        raise UsageError("--exponents must list one entry per coordinate"
                         f" (got {len(exponents)}, --n {args.n})")
    value = sphere.sphere_moment(exponents)
    if args.output == "json":
        print(json.dumps({"exponents": list(exponents), "n": args.n,
                          "value": {"kind": "rational", "rational": str(value),
                                    "float": float(value)}}))
    elif args.output == "float":
        print(_format_float(float(value)))
    elif args.output == "exact":
        print(str(value))
    else:
        print(f"{value} ({_format_float(float(value))})")
    return 0


# ---------------------------------------------------------------------------
# Monte Carlo

def _cmd_mc(args) -> int:
    from .montecarlo import (SamplerConfig, estimate_moment,
                             estimate_sphere_moment, mc_tolerance)

    try:
        obj = _loads(args.query, "--query")
    except json.JSONDecodeError as e:
        raise UsageError(f"--query is not valid JSON: {e}")
    except RecursionError:
        raise UsageError("--query is nested too deeply") from None
    if not isinstance(obj, dict):
        raise UsageError("--query must be a JSON object")
    kind = obj.get("kind", "haar")
    if kind == "sphere":
        exponents = obj.get("exponents")
        if exponents is None:
            raise UsageError("sphere query needs 'exponents'")
        if not isinstance(exponents, list) or not all(map(is_int, exponents)):
            raise UsageError("sphere query needs a list of integer "
                             "'exponents'")
        n = obj.get("n", len(exponents))
        if not is_int(n):
            raise UsageError("n must be an integer")
        exponents = tuple(exponents)
        if n != len(exponents):
            raise UsageError("sphere query needs one exponent per coordinate")
        cfg = SamplerConfig(n=n, samples=args.samples, seed=args.seed,
                            threads=args.threads)
        est = estimate_sphere_moment(exponents, cfg)
        exact = sphere.sphere_moment(exponents)
    elif kind == "haar":
        q = MomentQuery.from_json_obj(obj)
        cfg = SamplerConfig(n=q.n, samples=args.samples, seed=args.seed,
                            threads=args.threads)
        est = estimate_moment(q, cfg)
        try:
            exact = invariants.moment(q)[0]
        except ValueError:
            exact = None
    else:
        raise UsageError(f"unknown query kind {kind!r}")

    doc = {
        "mean_re": est.mean.real,
        "mean_im": est.mean.imag,
        "stderr": est.stderr,
        "samples": est.samples,
        "exact": None if exact is None else str(exact),
        "sigmas": None,
    }
    ok = True
    if exact is not None:
        dev = abs(est.mean - complex(float(exact), 0.0))
        doc["sigmas"] = dev / est.stderr if est.stderr > 0 else 0.0
        ok = dev < mc_tolerance(est)
    print(json.dumps(doc))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    from . import suites
    from .montecarlo import check_threads

    check_threads(args.threads)
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    passed = 0
    failed = 0
    for name in names:
        results = suites.run_suite(name, samples=args.samples,
                                   seed=args.seed, threads=args.threads)
        for r in results:
            if r.ok:
                passed += 1
                print(f"PASS {name}:{r.name}")
            else:
                failed += 1
                detail = f" ({r.detail})" if r.detail else ""
                print(f"FAIL {name}:{r.name}{detail}")
    total = passed + failed
    print(f"{passed}/{total} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarmoments",
        description="Exact monomial moments of Haar-random unitary matrices "
                    "and hypersphere coordinates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, default="auto"):
        p.add_argument("--output", choices=("auto", "exact", "symbolic",
                                            "float", "json"), default=default)

    p = sub.add_parser("moment", help="exact moment of a conjugate/plain "
                                      "entry product")
    p.add_argument("--n", type=int, default=None,
                   help="matrix dimension (default: largest index used)")
    p.add_argument("--I", default="", help="rows of conjugated entries")
    p.add_argument("--J", default="", help="columns of conjugated entries")
    p.add_argument("--K", default="", help="rows of plain entries")
    p.add_argument("--L", default="", help="columns of plain entries")
    p.add_argument("--method", choices=invariants.METHODS, default="auto")
    p.add_argument("--symbolic", action="store_true",
                   help="return a rational function of n")
    p.add_argument("--batch", default=None, metavar="FILE",
                   help="JSONL file of queries ('-' for stdin), "
                        "one result line each")
    add_output(p)
    p.set_defaults(fn=_cmd_moment)

    p = sub.add_parser("wg", help="class integral by cycle type")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--class", required=True, metavar="CYCLES",
                   help="cycle type, e.g. 2,1")
    p.add_argument("--n", type=int, default=None)
    add_output(p)
    p.set_defaults(fn=_cmd_wg)

    p = sub.add_parser("fan", help="single-column closed form")
    p.add_argument("--m", required=True, help="multiplicities, e.g. 2,1,1")
    p.add_argument("--n", type=int, default=None)
    add_output(p)
    p.set_defaults(fn=_cmd_fan)

    p = sub.add_parser("zint", help="two-column closed form")
    p.add_argument("--m", required=True, help="three multiplicities, e.g. 1,0,1")
    p.add_argument("--n", type=int, default=None)
    add_output(p)
    p.set_defaults(fn=_cmd_zint)

    p = sub.add_parser("xint", help="exchange-family integral")
    p.add_argument("--w", required=True,
                   help="eight weights r,s,t,u,r',s',t',u'")
    p.add_argument("--n", type=int, default=None)
    add_output(p)
    p.set_defaults(fn=_cmd_xint)

    p = sub.add_parser("sphere", help="hypersphere monomial moment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exponents", required=True, help="e.g. 2,4,0,0,0")
    add_output(p)
    p.set_defaults(fn=_cmd_sphere)

    p = sub.add_parser("mc", help="Monte Carlo estimate of a query")
    p.add_argument("--query", required=True, help="query as JSON")
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", default="all",
                   choices=_SUITE_NAMES + ("all",))
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the flush at exit does not fail again, as the Python
        # docs' note on SIGPIPE shows, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
