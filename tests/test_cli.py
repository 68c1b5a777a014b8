"""Command-line interface: output formats, methods, batch mode, exit codes."""
import io
import json

import pytest

from haarmoments.cli import main


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
    for query in ('[1,2]', '{"kind":"sphere","n":3}',
                  '{"kind":"sphere","exponents":5}', '{"kind":"cube"}',
                  '{"n":Infinity,"I":[1],"J":[1],"K":[1],"L":[1]}',
                  '{"kind":"sphere","exponents":[2,0],"n":Infinity}'):
        code, out, err = run_cli(capsys, "mc", "--query", query,
                                 "--samples", "100")
        assert code == 2, query
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, query


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
