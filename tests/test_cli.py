"""Command-line interface: output formats, methods, batch mode, exit codes."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haarmoments
from haarmoments import invariants
from haarmoments.cli import _result_line, main
from haarmoments.queries import MomentQuery
from haarmoments.ratfun import Poly, RationalFunction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moment_fixed_n(capsys):
    code, out, _ = run_cli(capsys, "moment", "--n", "3", "--I", "1",
                           "--J", "2", "--K", "1", "--L", "2")
    assert code == 0
    assert out.strip() == "1/3"


def test_moment_symbolic(capsys):
    code, out, _ = run_cli(capsys, "moment", "--symbolic", "--I", "1,2",
                           "--J", "1,2", "--K", "1,2", "--L", "2,1")
    assert code == 0
    assert out.strip() == "(-1)/(n^3 - n)"


def test_moment_infers_n_from_indices(capsys):
    code, out, _ = run_cli(capsys, "moment", "--I", "1", "--J", "3",
                           "--K", "1", "--L", "3")
    assert code == 0
    assert out.strip() == "1/3"


def test_moment_float_output(capsys):
    code, out, _ = run_cli(capsys, "moment", "--n", "4", "--I", "1",
                           "--J", "1", "--K", "1", "--L", "1",
                           "--output", "float")
    assert code == 0
    assert out.strip() == "0.25"


def test_moment_json_output(capsys):
    code, out, _ = run_cli(capsys, "moment", "--n", "3", "--I", "1",
                           "--J", "2", "--K", "1", "--L", "2",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["query"] == {"n": 3, "I": [1], "J": [2], "K": [1], "L": [2]}
    assert doc["method"].startswith("invariant")
    assert doc["value"]["kind"] == "rational"
    assert doc["value"]["rational"] == "1/3"


def test_moment_json_symbolic_has_validity(capsys):
    code, out, _ = run_cli(capsys, "moment", "--symbolic", "--I", "1,2",
                           "--J", "1,2", "--K", "1,2", "--L", "2,1",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["kind"] == "ratfun"
    assert doc["value"]["ratfun"] == "(-1)/(n^3 - n)"
    assert doc["validity_min_n"] == 2


def test_moment_methods_agree(capsys):
    args = ("--n", "3", "--I", "1,1", "--J", "1,2", "--K", "1,1",
            "--L", "2,1")
    _, out_auto, _ = run_cli(capsys, "moment", *args)
    _, out_group, _ = run_cli(capsys, "moment", *args, "--method", "group")
    assert out_auto == out_group


def test_moment_invariant_method_misses(capsys):
    # generic three-cycle exchange on distinct indices has no catalog entry
    code, out, err = run_cli(capsys, "moment", "--n", "4",
                             "--I", "1,2,3,4", "--J", "1,2,3,4",
                             "--K", "2,3,4,1", "--L", "3,4,2,1",
                             "--method", "invariant")
    assert code == 2
    assert "no closed form; use method=group" in err


def test_moment_zero_query(capsys):
    code, out, _ = run_cli(capsys, "moment", "--n", "2", "--I", "1",
                           "--J", "1", "--K", "2", "--L", "1")
    assert code == 0
    assert out.strip() == "0"


def _result_doc(value, query, method) -> dict:
    """The documented JSON result document of one exact value."""
    doc = {}
    if query is not None:
        doc["query"] = query.to_json_obj()
    if method is not None:
        doc["method"] = method
    if isinstance(value, RationalFunction):
        doc["value"] = {"kind": "ratfun", "ratfun": str(value)}
        doc["validity_min_n"] = value.validity_min_n
    else:
        doc["value"] = {"kind": "rational", "rational": str(value),
                        "float": float(value)}
    return doc


_BIG = st.integers(-2**80, 2**80)
_FRACTIONS = st.one_of(
    st.just(Fraction(0)), st.fractions(),
    st.builds(Fraction, _BIG, st.integers(1, 2**80)))
_RATFUNS = st.builds(
    lambda coeffs, shifts, validity, const: RationalFunction.over_linear(
        Poly(tuple(coeffs)), shifts, validity, const),
    st.lists(_BIG, max_size=5), st.lists(st.integers(-6, 6), max_size=6),
    st.integers(0, 9), st.integers(1, 2**70) | st.integers(-2**70, -1))
_INDICES = st.lists(st.integers(1, 2**70), max_size=6)
_QUERIES = st.none() | st.builds(MomentQuery.make, st.integers(-5, 2**70),
                                 _INDICES, _INDICES, _INDICES, _INDICES)
_METHODS = st.none() | st.sampled_from(
    ("group", "invariant:fan", "invariant:z", "invariant:x4",
     "invariant:zero", "invariant:normalization", "invariant:6g"))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_FRACTIONS | _RATFUNS, _QUERIES, _METHODS)
def test_result_line_is_json_dumps_of_the_result_document(value, query,
                                                          method):
    assert _result_line(value, query, method) == json.dumps(
        _result_doc(value, query, method))


def test_batch_writes_one_line_per_answer(tmp_path, monkeypatch):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"n": 3, "I": [1], "J": [2], "K": [1], "L": [2]}\n'
                    'oops\n{"I": [1, 2], "J": [1, 2], "K": [1, 2], '
                    '"L": [2, 1], "symbolic": true}\n')
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

        def flush(self):
            pass

    monkeypatch.setattr("sys.stdout", Recorder())
    assert main(["moment", "--batch", str(path)]) == 1
    assert len(writes) == 3 and all(w.count("\n") == 1 and w.endswith("\n")
                                    for w in writes)
    assert json.loads(writes[1])["input"] == "oops"


def test_batch_mode(tmp_path, capsys):
    lines = [
        {"n": 3, "I": [1], "J": [2], "K": [1], "L": [2]},
        {"n": 2, "I": [1, 2], "J": [1, 2], "K": [1, 2], "L": [2, 1],
         "symbolic": True},
    ]
    path = tmp_path / "queries.jsonl"
    path.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
    code, out, _ = run_cli(capsys, "moment", "--batch", str(path))
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs[0]["value"]["rational"] == "1/3"
    assert docs[1]["value"]["ratfun"] == "(-1)/(n^3 - n)"


def test_batch_mode_reports_bad_lines(tmp_path, capsys):
    good = '{"n": 3, "I": [1], "J": [2], "K": [1], "L": [2]}'
    bad = [
        "[" * 100_000,   # nested too deeply for the JSON decoder
        '{"n": 3, "I": [1], "J": [2], "K": [1], "L": [2], "x": "\xff"}',
        '{"n": 2, "I": [9], "J": [1], "K": [9], "L": [1]}',
        '{"n": 2, "I": 5, "J": [1], "K": [1], "L": [1]}',
        '[1, 2]',
        '"text"',
        'not json',
        '{"I": [1, "a"], "J": [1], "K": [1], "L": [1]}',
        '{"I": [1.5], "J": [1], "K": [1], "L": [1]}',
        '{"I": [true], "J": [1], "K": [1], "L": [1]}',
        '{"n": [2], "I": [1], "J": [1], "K": [1], "L": [1]}',
        '{"n": Infinity, "I": [1], "J": [1], "K": [1], "L": [1]}',
        '{"n": 2.9, "I": [1], "J": [1], "K": [1], "L": [1]}',
        '{"n": true, "I": [1], "J": [1], "K": [1], "L": [1]}',
        '{"n": "3", "I": [1], "J": [1], "K": [1], "L": [1]}',
        '{"n": ' + "9" * 5000 + ', "I": [1], "J": [1], "K": [1], "L": [1]}',
        '{"n": 2, "I": [1, ' + "9" * 5000 + '], "J": [1], "K": [1], "L": [1]}',
        '{"I": [1], "J": [2], "K": [1], "L": [2], "symbolic": "false"}',
        '{"I": [1], "J": [2], "K": [1], "L": [2], "symbolic": 1}',
        '{"I": [1], "J": [2], "K": [1], "L": [2], "method": "nope"}',
    ]
    # the second line's \xff is written as one byte, which is not UTF-8
    raw = [line.encode("latin-1") for line in bad]
    path = tmp_path / "queries.jsonl"
    path.write_bytes(b"".join(line + b"\n" + good.encode() + b"\n"
                              for line in raw))
    code, out, _ = run_cli(capsys, "moment", "--batch", str(path))
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 2 * len(bad)
    for line, err_doc, good_doc in zip(raw, docs[::2], docs[1::2]):
        assert err_doc["input"] == line.decode("utf-8", "replace")
        assert "error" in err_doc
        assert good_doc["value"]["rational"] == "1/3"
    assert "recursion" in docs[0]["error"]
    assert docs[2]["error"] == "line does not decode as text"
    assert "\ufffd" in docs[2]["input"]
    assert "method must be one of" in docs[-2]["error"]
    assert docs[-6]["error"] == docs[-4]["error"] == \
        "symbolic must be true or false"
    too_long = ("an integer in the line has more digits than Python's "
                "integer parsing limit")
    assert docs[-10]["error"] == docs[-8]["error"] == too_long


_VALID_LINES = [
    {"n": 3, "I": [1], "J": [2], "K": [1], "L": [2]},
    {"I": [1, 2], "J": [1, 2], "K": [1, 2], "L": [2, 1], "symbolic": True},
    {"n": 4, "I": [1, 1, 2], "J": [1, 2, 3], "K": [2, 1, 1],
     "L": [3, 1, 2], "method": "group"},
    {"n": 2, "I": [1, 2, 3, 1], "J": [1, 2, 3, 3], "K": [1, 2, 3, 1],
     "L": [3, 2, 1, 3]},
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from("nIJKL") | st.text(max_size=3), inner,
                      max_size=5),
    max_leaves=12)
# a valid line with some fields replaced or dropped
_DROP = object()
_MUTATED = st.builds(
    lambda base, edits: {k: v for k, v in {**base, **edits}.items()
                         if v is not _DROP},
    st.sampled_from(_VALID_LINES),
    st.dictionaries(
        st.sampled_from(("n", "I", "J", "K", "L", "symbolic", "method")),
        st.just(_DROP)
        | st.lists(st.integers(-2, 6), max_size=6)
        | st.integers(-3, 10 ** 400) | st.sampled_from(
            [True, False, 0, 1.5, "group", "auto", "invariant", "nope"])
        | _JSON_VALUES,
        max_size=3))
_LINES = (st.binary(min_size=1, max_size=30).map(
              lambda b: b.replace(b"\n", b" ").replace(b"\r", b" "))
          | _JSON_VALUES.map(lambda v: json.dumps(v).encode())
          | _MUTATED.map(lambda v: json.dumps(v).encode()))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.lists(_LINES, min_size=1, max_size=6))
def test_batch_answers_every_line_with_one_json_object(lines):
    # blank lines are skipped; every other line gives one result or one
    # {"error", "input"} line, never a traceback, and the exit code is 1
    # exactly when some line failed
    shown = [raw.decode("utf-8", "replace").strip() for raw in lines]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "queries.jsonl"
        path.write_bytes(b"".join(raw + b"\n" for raw in lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["moment", "--batch", str(path)])
    assert err.getvalue() == ""
    docs = [json.loads(line) for line in out.getvalue().splitlines()]
    expected = [text for text in shown if text]
    assert len(docs) == len(expected)
    failed = False
    for doc, text in zip(docs, expected):
        assert isinstance(doc, dict)
        if "error" in doc:
            assert doc.keys() == {"error", "input"} and doc["input"] == text
            assert isinstance(doc["error"], str) and doc["error"]
            failed = True
        else:
            assert {"query", "method", "value"} <= doc.keys()
    assert code == (1 if failed else 0)


def test_batch_lines_with_n_below_one_are_refused(tmp_path, capsys):
    # as `moment --n 0` is: no answer from the normalization closed form or
    # the engine's p = 0 shortcut, and no range message for the factors
    lines = ['{"n": 0}',
             '{"n": -3, "I": [], "J": [], "K": [], "L": []}',
             '{"n": -3, "I": [1], "J": [1], "K": [1], "L": [1]}']
    path = tmp_path / "queries.jsonl"
    for method in ("auto", "group", "invariant"):
        path.write_text("".join(line + "\n" for line in lines))
        code, out, _ = run_cli(capsys, "moment", "--batch", str(path),
                               "--method", method)
        assert code == 1
        docs = [json.loads(line) for line in out.splitlines()]
        assert docs == [{"error": "n must be at least 1", "input": line}
                        for line in lines]
    code, _, err = run_cli(capsys, "moment", "--n", "0")
    assert code == 2 and err == "error: --n must be at least 1\n"


@pytest.fixture
def default_int_digits():
    """Python's default limit on the digits of a printed integer."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_values_too_long_to_print_are_refused_before_work(
        tmp_path, capsys, monkeypatch, default_int_digits):
    too_long = "the value has more digits than Python's integer printing limit"
    evaluated = []
    moment = invariants.moment

    def recording(q, *args):
        evaluated.append(q)
        return moment(q, *args)

    monkeypatch.setattr(invariants, "moment", recording)
    n = 10 ** 4300 - 1  # 4,300 digits, the most that print
    answered = [
        # p = 1: 1/n prints
        {"n": n, "I": [1], "J": [1], "K": [1], "L": [1]},
        # a zero moment prints at any n
        {"n": n, "I": [1, 2], "J": [1, 2], "K": [1, 2], "L": [2, 2]},
        # symbolic values do not depend on n
        {"n": n, "I": [1, 2], "J": [1, 2], "K": [1, 2], "L": [2, 1],
         "symbolic": True}]
    refused = [
        # E(2) = -1/(n^3 - n) at the same n
        {"n": n, "I": [1, 2], "J": [1, 2], "K": [1, 2], "L": [2, 1]},
        # a p = 7 group line at n = 10^2000 - 1
        {"n": 10 ** 2000 - 1, "I": [1, 1, 2, 2, 3, 3, 4],
         "J": [1, 2, 3, 1, 2, 3, 4], "K": [1, 1, 2, 2, 3, 3, 4],
         "L": [2, 1, 3, 4, 1, 2, 3]}]
    path = tmp_path / "queries.jsonl"
    for obj in answered + refused:
        path.write_text(json.dumps(obj) + "\n")
        evaluated.clear()
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "moment", "--batch", str(path))
        seconds = time.perf_counter() - start
        doc = json.loads(out)
        if obj in answered:
            assert code == 0 and "value" in doc, obj
        else:
            assert code == 1 and doc["error"] == too_long
            assert not evaluated and seconds < 0.05, seconds
    # the bound is not certain for a one-row moment of degree 40 at
    # n = 10^150, so it is evaluated; its printing fails with the same text
    ms = (1,) * 40
    path.write_text(json.dumps(dict(invariants.fan_query(ms).to_json_obj(),
                                    n=10 ** 150)) + "\n")
    code, out, _ = run_cli(capsys, "moment", "--batch", str(path))
    assert code == 1 and json.loads(out)["error"] == too_long and evaluated
    # one query on the command line, and a class integral
    code, _, err = run_cli(capsys, "moment", "--I", "1,2", "--J", "1,2",
                           "--K", "1,2", "--L", "2,1", "--n", str(n))
    assert code == 2 and err == f"error: {too_long}\n"
    code, _, err = run_cli(capsys, "wg", "--class", "2,1", "--n", str(n))
    assert code == 2 and err == f"error: {too_long}\n"


def test_batch_mode_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO('{"n": 3, "I": [1], "J": [2], "K": [1], "L": [2]}\n'),
    )
    code, out, _ = run_cli(capsys, "moment", "--batch", "-")
    assert code == 0
    assert json.loads(out)["value"]["rational"] == "1/3"
    # a byte that is not UTF-8 fails its own line only
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(
        b'\xff\n{"n": 3, "I": [1], "J": [2], "K": [1], "L": [2]}\n'),
        encoding="utf-8"))
    code, out, _ = run_cli(capsys, "moment", "--batch", "-")
    assert code == 1
    bad, good = (json.loads(line) for line in out.splitlines())
    assert bad == {"error": "line does not decode as text", "input": "\ufffd"}
    assert good["value"]["rational"] == "1/3"


def test_batch_mode_missing_file(capsys):
    code, _, err = run_cli(capsys, "moment", "--batch", "/no/such/file.jsonl")
    assert code == 2
    assert "cannot read batch file" in err


def test_wg_symbolic_and_fixed(capsys):
    code, out, _ = run_cli(capsys, "wg", "--p", "2", "--class", "2")
    assert code == 0
    assert out.strip() == "(-1)/(n^3 - n)"
    code, out, _ = run_cli(capsys, "wg", "--class", "2,1", "--n", "4")
    assert code == 0
    assert out.strip() == "-1/180"


def test_wg_validates_class(capsys):
    code, _, err = run_cli(capsys, "wg", "--p", "3", "--class", "1,2")
    assert code == 2 and "weakly decreasing" in err
    code, _, err = run_cli(capsys, "wg", "--p", "4", "--class", "2,1")
    assert code == 2


def test_fan_zint_xint(capsys):
    code, out, _ = run_cli(capsys, "fan", "--m", "2,1,1")
    assert code == 0
    assert out.strip() == "(2)/(n^4 + 6n^3 + 11n^2 + 6n)"
    code, out, _ = run_cli(capsys, "zint", "--m", "1,0,1", "--n", "2")
    assert code == 0
    assert out.strip() == "1/3"
    code, out, _ = run_cli(capsys, "xint", "--w", "1,0,2,1,0,1,1,2",
                           "--n", "3")
    assert code == 0
    assert out.strip() == "-1/180"


def test_xint_balance_error(capsys):
    code, _, err = run_cli(capsys, "xint", "--w", "1,0,2,1,0,1,1,1")
    assert code == 2
    assert "x0 constraints violated" in err


def test_sphere_output(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--n", "5",
                           "--exponents", "2,4,0,0,0")
    assert code == 0
    assert out.strip() == "1/105 (0.00952380952380952)"
    code, out, _ = run_cli(capsys, "sphere", "--n", "3",
                           "--exponents", "4,0,0", "--output", "exact")
    assert out.strip() == "1/5"


def test_sphere_length_mismatch(capsys):
    code, _, err = run_cli(capsys, "sphere", "--n", "2",
                           "--exponents", "2,0,0")
    assert code == 2


def test_mc_json_contract(capsys):
    query = json.dumps({"n": 2, "I": [1], "J": [1], "K": [1], "L": [1]})
    code, out, _ = run_cli(capsys, "mc", "--query", query,
                           "--samples", "20000", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    for key in ("mean_re", "mean_im", "stderr", "samples", "exact", "sigmas"):
        assert key in doc
    assert doc["samples"] == 20000
    assert doc["exact"] == "1/2"
    assert doc["sigmas"] < 5


def test_mc_sphere_query(capsys):
    query = json.dumps({"kind": "sphere", "exponents": [2, 2, 0]})
    code, out, _ = run_cli(capsys, "mc", "--query", query,
                           "--samples", "20000", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == "1/15"


def test_mc_exact_value_uses_closed_forms(capsys):
    # the p=13 single-row fan is over the group engine's pair cap
    ones = [1] * 13
    query = json.dumps({"n": 2, "I": ones, "J": ones, "K": ones, "L": ones})
    code, out, _ = run_cli(capsys, "mc", "--query", query,
                           "--samples", "2000", "--seed", "42")
    assert code == 0
    assert json.loads(out)["exact"] == "1/14"


def test_mc_refuses_bad_queries(capsys):
    long = "9" * 5000
    too_long = ('{"n":%s,"I":[1],"J":[1],"K":[1],"L":[1]}' % long,
                '{"kind":"sphere","exponents":[2,0],"n":%s}' % long)
    for query in ('[1,2]', '{"kind":"sphere","n":3}',
                  '{"kind":"sphere","exponents":5}', '{"kind":"cube"}',
                  '{"n":Infinity,"I":[1],"J":[1],"K":[1],"L":[1]}',
                  '{"kind":"sphere","exponents":[2,0],"n":Infinity}',
                  "[" * 100_000 + "]" * 100_000) + too_long:
        code, out, err = run_cli(capsys, "mc", "--query", query,
                                 "--samples", "100")
        assert code == 2, query
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, query
        assert "set_int_max_str_digits" not in err, query
        if query in too_long:
            assert err == ("error: an integer in --query has more digits "
                           "than Python's integer parsing limit\n")


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sphere")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_mc_and_verify_refuse_thread_counts_below_one(capsys):
    haar = '{"n":2,"I":[1],"J":[1],"K":[1],"L":[1]}'
    sph = '{"kind":"sphere","exponents":[2,0]}'
    for argv in (("mc", "--query", haar, "--samples", "100"),
                 ("mc", "--query", sph, "--samples", "100"),
                 ("verify",), ("verify", "--suite", "mc-crosscheck")):
        for threads in ("0", "-2"):
            code, out, err = run_cli(capsys, *argv, "--threads", threads)
            assert code == 2, argv
            assert out == ""
            assert err == "error: threads must be at least 1\n"


@pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
def test_mc_and_verify_refuse_bad_thread_environment(capsys, monkeypatch,
                                                    value):
    monkeypatch.setenv("HAAR_MOMENTS_THREADS", value)
    haar = '{"n":2,"I":[1],"J":[1],"K":[1],"L":[1]}'
    sph = '{"kind":"sphere","exponents":[2,0]}'
    for argv in (("mc", "--query", haar, "--samples", "100"),
                 ("mc", "--query", sph, "--samples", "100"),
                 ("verify",), ("verify", "--suite", "mc-crosscheck")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == ("error: HAAR_MOMENTS_THREADS must be an integer of "
                       f"at least 1, not {value!r}\n")


def test_empty_thread_environment_means_unset(capsys, monkeypatch):
    monkeypatch.setenv("HAAR_MOMENTS_THREADS", "")
    code, out, _ = run_cli(capsys, "mc", "--query",
                           '{"n":2,"I":[1],"J":[1],"K":[1],"L":[1]}',
                           "--samples", "100")
    assert code == 0 and json.loads(out)["samples"] == 100


# ---------------------------------------------------------------------------
# exact answers never import numpy

def _python(*args, stdin=None):
    """Run a fresh interpreter on the package under test."""
    env = dict(os.environ)
    src = str(Path(haarmoments.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)


# Runs each argv list of a JSON list through the CLI with numpy made
# unimportable, and prints one [exit code, stdout] pair per list.
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from haarmoments.cli import main
results = []
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
loaded = [m for m in sys.modules if m.split(".")[0] == "numpy"
          and sys.modules[m] is not None]
print(json.dumps({"results": results, "numpy": loaded}))
"""

# a balanced p = 9 group query with trivial H, (3,3,3) x (3,3,3); a symbolic
# (3,3,1,1) x (3,2,1,1,1) key of 432 compositions; a zero query
_GROUP_BATCH = [
    {"n": 9, "I": [1, 2, 1, 2, 3, 2, 3, 1, 3],
     "J": [1, 1, 2, 3, 2, 1, 3, 2, 3], "K": [1, 2, 1, 2, 3, 2, 3, 1, 3],
     "L": [2, 2, 3, 1, 1, 3, 2, 1, 3], "method": "group"},
    {"n": 8, "I": [1, 2, 2, 3, 3, 2, 4, 3], "J": [1, 2, 1, 3, 2, 1, 4, 5],
     "K": [1, 2, 2, 3, 3, 2, 4, 3], "L": [1, 1, 4, 3, 1, 5, 2, 2],
     "symbolic": True},
    {"n": 2, "I": [1], "J": [1], "K": [], "L": []},
]


def test_exact_queries_run_without_numpy(tmp_path):
    batch = tmp_path / "batch.jsonl"
    batch.write_text("".join(json.dumps(q) + "\n" for q in _GROUP_BATCH))
    argvs = [["moment", "--n", "3", "--I", "1", "--J", "2", "--K", "1",
              "--L", "2"],
             ["fan", "--m", "2,1,1"],
             ["wg", "--class", "3,2"],
             ["moment", "--batch", str(batch)]]
    run = _python("-c", _WITHOUT_NUMPY, stdin=json.dumps(argvs))
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    assert doc["numpy"] == []
    moment, fan, wg, batch_out = doc["results"]
    assert moment == [0, "1/3\n"]
    assert fan == [0, "(2)/(n^4 + 6n^3 + 11n^2 + 6n)\n"]
    assert wg == [0, "(-2n^2 - 24)/(n^10 - 30n^8 + 273n^6 - 820n^4 + "
                     "576n^2)\n"]
    assert batch_out[0] == 0
    lines = [json.loads(line) for line in batch_out[1].splitlines()]
    assert [(d["method"], d["value"]) for d in lines] == [
        ("group", {"kind": "rational", "rational": "137/815117022720",
                   "float": 1.6807402640523767e-10}),
        ("group", {"kind": "ratfun", "ratfun":
                   "(2n^5 + 6n^4 - 26n^3 - 22n^2 + 260n + 228)/(n^15 + "
                   "24n^14 + 208n^13 + 636n^12 - 1166n^11 - 11748n^10 - "
                   "17776n^9 + 35508n^8 + 114389n^7 + 22044n^6 - 171832n^5 "
                   "- 106944n^4 + 76176n^3 + 60480n^2)"}),
        ("invariant:zero", {"kind": "rational", "rational": "0",
                            "float": 0.0})]
    assert lines[1]["validity_min_n"] == 8


_PUBLIC = [
    "CanonicalMoment", "Estimate", "MomentQuery", "Poly", "RationalFunction",
    "SamplerConfig", "canonicalize", "character", "class_counts",
    "class_size", "degree3", "degree3_query", "dim_symmetric", "dim_unitary",
    "e2_query", "estimate_moment", "estimate_sphere_moment", "evaluate",
    "exchange_e2", "fan", "fan_query", "haar_batch", "match_closed_form",
    "mc_tolerance", "moment", "moment_at", "moment_symbolic", "partitions_of",
    "s_multi", "s_single", "s_single_symbolic", "sphere_batch",
    "sphere_moment", "x_integral", "x_query", "x_special", "xi_at",
    "xi_symbolic", "z_integral", "z_query",
]


def test_sampler_names_load_on_first_use():
    script = """
import json, sys
import haarmoments
before = "numpy" in sys.modules
from haarmoments import Estimate
from haarmoments.cli import main
print(json.dumps({
    "before": before, "after": "numpy" in sys.modules,
    "all": haarmoments.__all__,
    "listed": sorted(set(haarmoments.__all__) - set(dir(haarmoments))),
    "same": haarmoments.haar_batch is haarmoments.montecarlo.haar_batch
            and Estimate is haarmoments.montecarlo.Estimate}))
sys.exit(main(["mc", "--query", '{"n":2,"I":[1],"J":[1],"K":[1],"L":[1]}',
               "--samples", "4000"]))
"""
    run = _python("-c", script)
    assert run.returncode == 0, run.stderr
    names, estimate = run.stdout.splitlines()
    doc = json.loads(names)
    assert doc == {"before": False, "after": True, "all": _PUBLIC,
                   "listed": [], "same": True}
    estimate = json.loads(estimate)
    assert estimate["samples"] == 4000 and estimate["exact"] == "1/2"
    with pytest.raises(AttributeError):
        haarmoments.no_such_name


def test_empty_batch_imports_no_numpy(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    run = _python("-X", "importtime", "-m", "haarmoments.cli", "moment",
                  "--batch", str(empty))
    assert run.returncode == 0 and run.stdout == ""
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "haarmoments.weingarten" in imported
    assert not [m for m in imported if m.split(".")[0] == "numpy"]
    assert "haarmoments.suites" not in imported
    assert "dataclasses" not in imported and "inspect" not in imported


def test_parser_suite_literals_match_suites():
    from haarmoments import cli, suites

    assert cli._SUITE_NAMES == tuple(suites.SUITES)
    assert cli._DEFAULT_SEED == suites.DEFAULT_SEED
    parser = cli.build_parser()
    assert parser.parse_args(["verify"]).seed == suites.DEFAULT_SEED
    for name in suites.SUITES:
        assert parser.parse_args(["verify", "--suite", name]).suite == name


def test_reader_closing_the_pipe_early_ends_quietly(tmp_path):
    # 20,000 answers fill the pipe, so the CLI is still writing when the
    # reader closes it after one line (as ``| head -1`` does)
    line = json.dumps({"n": 3, "I": [1, 2], "J": [1, 2], "K": [1, 2],
                       "L": [1, 2]})
    batch = tmp_path / "many.jsonl"
    batch.write_text((line + "\n") * 20000)
    env = dict(os.environ)
    src = str(Path(haarmoments.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "haarmoments.cli", "moment", "--batch",
         str(batch)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()
    assert json.loads(first)["value"]["rational"] == "1/8"
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert err == ""
    assert code == 1
