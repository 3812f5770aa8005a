import cmath
import json
import re
import sys
from pathlib import Path

import pytest

from fresh import MainRuns, imported_modules, package_modules, run_fresh, without
from weylreps import cli, verify
from weylreps.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def u1_file(tmp_path):
    return write_json(tmp_path / "u1.json", [{"a": "1", "b": "0", "re": 1.0, "im": 0.0}])


@pytest.fixture()
def v1_file(tmp_path):
    return write_json(tmp_path / "v1.json", [{"a": "0", "b": "1", "re": 1.0, "im": 0.0}])


def test_product_normal_order(capsys, u1_file, v1_file):
    assert main(["product", u1_file, v1_file]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records == [{"a": "1", "b": "1", "re": 1.0, "im": 0.0}]


def test_product_reordering_phase(capsys, u1_file, v1_file):
    assert main(["product", v1_file, u1_file]) == 0
    (record,) = json.loads(capsys.readouterr().out)
    assert record["a"] == "1" and record["b"] == "1"
    assert complex(record["re"], record["im"]) == pytest.approx(cmath.exp(1j))


def test_product_with_zero_element(capsys, u1_file, tmp_path):
    zero_file = write_json(tmp_path / "zero.json", [])
    assert main(["product", u1_file, zero_file]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_product_malformed_rational_exits_2(capsys, u1_file, tmp_path):
    bad = write_json(tmp_path / "bad.json", [{"a": "1/0", "b": "0", "re": 1, "im": 0}])
    assert main(["product", u1_file, bad]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_reports_line_and_column(capsys, tmp_path, u1_file):
    broken = tmp_path / "broken.json"
    broken.write_text('[{"a": "1",]')
    assert main(["product", str(broken), u1_file]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_eval_state(capsys, u1_file):
    assert main(["eval-state", "--state", "position:1", u1_file]) == 0
    value = json.loads(capsys.readouterr().out)
    assert complex(value["re"], value["im"]) == pytest.approx(cmath.exp(1j))


def test_eval_state_unknown_kind_exits_2(capsys, u1_file):
    assert main(["eval-state", "--state", "thermal:1", u1_file]) == 2


@pytest.mark.parametrize("spec, line", [
    ("thermal", "error: unknown state kind: 'thermal'"),
    ("vacuum:1", "error: the vacuum state takes no parameter"),
    ("position:1/0", "error: not an exact rational: '1/0' (zero denominator)"),
    ("position", "error: position state needs a rational parameter"),
    ("momentum:", "error: momentum state needs a rational parameter"),
])
@pytest.mark.parametrize("command", ["eval-state", "gns-build", "continuity-scan"])
def test_bad_state_argument_prints_one_error_line_and_exits_2(capsys, u1_file, spec, line,
                                                              command):
    argv = [command, "--state", spec]
    argv += ["--direction", "U", "--grid", "0"] if command == "continuity-scan" else [u1_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


#: the package modules each subcommand loads: the ones it computes with
#: (``-m weylreps.cli`` runs ``cli`` as ``__main__``, so it is not listed)
_ELEMENT_MODULES = {"weylreps", "weylreps.algebra", "weylreps.serialize"}
_STATE_MODULES = _ELEMENT_MODULES | {"weylreps.reps", "weylreps.states"}
LOADED = {
    "product": _ELEMENT_MODULES,
    "eval-state": _STATE_MODULES,
    "gns-build": _STATE_MODULES | {"weylreps.gns"},
    "continuity-scan": _STATE_MODULES | {"weylreps.gns"},
    "mean": _ELEMENT_MODULES | {"weylreps.almost_periodic", "weylreps.schrodinger"},
    "verify": _STATE_MODULES | {"weylreps.almost_periodic", "weylreps.gns",
                                "weylreps.schrodinger", "weylreps.verify"},
}


def assert_loads_its_modules(argv, proc):
    """A request loads exactly its subcommand's modules; a refused one no more."""
    loaded = package_modules(imported_modules(proc.stderr))
    if proc.returncode == 0:
        assert loaded == LOADED[argv[0]], argv
    else:
        assert loaded <= LOADED[argv[0]], argv


def test_eval_state_oversized_rational_exits_2(tmp_path):
    element = write_json(
        tmp_path / "u.json", [{"a": "1/3", "b": "0", "re": 1.0, "im": 0.0}]
    )
    # a parameter of 10^400 is a phase like any other: exp(i 10^400 / 3)
    mpmath = pytest.importorskip("mpmath")
    proc = run_fresh(
        "-m", "weylreps.cli", "eval-state", "--state", "position:1" + "0" * 400, element
    )
    assert proc.returncode == 0, proc.stderr
    with mpmath.workdps(440):
        exact = complex(mpmath.expj(mpmath.mpf(10) ** 400 / 3))
    value = json.loads(proc.stdout)
    assert abs(complex(value["re"], value["im"]) - exact) <= 1e-15
    # past Python's 4300-digit limit on int strings the rational is refused
    proc = run_fresh(
        "-m", "weylreps.cli", "eval-state", "--state", "position:1" + "0" * 5000, element
    )
    assert proc.returncode == 2
    assert re.fullmatch(r"error: [^\n]*\n", proc.stderr)


def test_eval_state_past_the_phase_size_limit_exits_2(capsys, tmp_path):
    # exponent notation passes the 4300-digit limit: 10^100000 / 3 is an
    # angle past 2^65536, refused as a size limit
    element = write_json(tmp_path / "u.json", [{"a": "1/3", "b": "0", "re": 1.0, "im": 0.0}])
    assert main(["eval-state", "--state", "position:1e100000", element]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: phase angle past the size limit [^\n]*\n", captured.err)


@pytest.mark.parametrize("where", ["state", "record"])
def test_eval_state_past_the_decimal_exponent_limit_exits_2(capsys, tmp_path, where):
    # refused before Fraction builds 10^3000000, which took about 1.3 s
    a = "1e3000000" if where == "record" else "1/3"
    element = write_json(tmp_path / "u.json", [{"a": a, "b": "0", "re": 1.0, "im": 0.0}])
    state = "position:1e3000000" if where == "state" else "vacuum"
    assert main(["eval-state", "--state", state, element]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]*1e3000000[^\n]*\n", captured.err)


@pytest.mark.parametrize("command, records, field, digits", [
    ("product", [{"a": "1e5000", "b": "0", "re": 1.0, "im": 0.0}], "a", 5001),
    ("gns-build", [[{"a": "1", "b": "1e5000", "re": 1.0, "im": 0.0}]], "shift", 5001),
    ("continuity-scan", None, "parameter", 4401),
], ids=["product", "gns-build", "continuity-scan"])
def test_a_rational_too_long_to_write_exits_2(capsys, tmp_path, command, records, field,
                                              digits):
    # admitted by as_fraction, but its int passes the interpreter's limit on int strings
    if command == "continuity-scan":
        argv = [command, "--state", "vacuum", "--direction", "U", "--grid", "1e4400"]
    else:
        path = write_json(tmp_path / "x.json", records)
        argv = [command, path, path] if command == "product" else \
            [command, "--state", "position:0", path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {field}: {digits} digits, past the limit of "
                            f"{sys.get_int_max_str_digits()} digits for an int string\n")


def test_state_parameter_error_keeps_its_reason(capsys, u1_file):
    assert main(["eval-state", "--state", "position:1e3000000", u1_file]) == 2
    assert capsys.readouterr().err == ("error: not an exact rational: '1e3000000' "
                                       "(decimal exponent past the size limit |e| <= 100000)\n")


GOLDEN = Path(__file__).parent / "data" / "cli"
# ``name|arguments`` lines, each with its stdout in ``name.out``
GOLDEN_CASES = [line.split("|") for line in (GOLDEN / "cases.txt").read_text().splitlines()]
# ``name|arguments|error line``: malformed requests
ERROR_CASES = [line.split("|", 2) for line in (GOLDEN / "errors.txt").read_text().splitlines()]


@pytest.fixture(scope="module")
def golden_runs() -> dict:
    """(exit code, stdout, stderr) of each golden case, by name, all run in one
    interpreter where numpy cannot be imported, from ``tests/data/cli``."""
    cases = GOLDEN_CASES + [(name, args) for name, args, _ in ERROR_CASES]
    runs = MainRuns([args.split() for _, args in cases], blocked=["numpy"], cwd=GOLDEN)
    return dict(zip([name for name, _ in cases], runs.results()))


@pytest.mark.parametrize("name, args", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_cli_stdout_is_byte_identical_to_its_golden_file(golden_runs, name, args):
    # a changed key string, key order or float shows as a changed byte
    assert golden_runs[name] == (0, (GOLDEN / f"{name}.out").read_text(), "")


@pytest.mark.parametrize("name, args, line", ERROR_CASES, ids=[c[0] for c in ERROR_CASES])
def test_cli_error_line_is_its_golden_line(golden_runs, name, args, line):
    assert golden_runs[name] == (2, "", line + "\n")


@pytest.mark.parametrize("grid", ["-1/2,0", "-1,0"])
def test_a_grid_that_starts_negative_reads_in_either_form(capsys, grid):
    # argparse takes a separate word such as -1/2,0 for an option; main joins it
    scan = ["continuity-scan", "--state", "vacuum", "--direction", "U"]
    assert main(scan + ["--grid=" + grid]) == 0
    joined = capsys.readouterr()
    assert main(scan + ["--grid", grid]) == 0
    assert capsys.readouterr() == joined
    assert joined.out.startswith("parameter,re,im\n" + grid.split(",")[0] + ",")


def test_continuity_scan_position(capsys):
    assert (
        main(
            [
                "continuity-scan",
                "--state",
                "position:0",
                "--direction",
                "V",
                "--grid",
                "0,1/8,1/64",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "parameter,re,im"
    assert lines[1] == "0,1.0,0.0"
    assert lines[2] == "1/8,0.0,0.0"
    assert lines[3] == "1/64,0.0,0.0"


def test_continuity_scan_vacuum_value(capsys):
    assert (
        main(
            ["continuity-scan", "--state", "vacuum", "--direction", "U", "--grid", "1"]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    parameter, re, im = lines[1].split(",")
    assert parameter == "1"
    assert float(re) == pytest.approx(0.7788007830714049, abs=1e-12)
    assert float(im) == 0.0


def test_continuity_scan_bad_grid_exits_2(capsys):
    assert (
        main(
            ["continuity-scan", "--state", "vacuum", "--direction", "U", "--grid", "x"]
        )
        == 2
    )


def test_gns_build(capsys, tmp_path):
    words = write_json(
        tmp_path / "words.json",
        [
            [{"a": "1", "b": "2", "re": 1.0, "im": 0.0}],
            [{"a": "3", "b": "2", "re": 1.0, "im": 0.0}],
        ],
    )
    assert main(["gns-build", "--state", "position:0", words]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["state"] == {"kind": "position", "lambda": "0"}
    off_diag = complex(payload["gram"][0][1]["re"], payload["gram"][0][1]["im"])
    assert off_diag == pytest.approx(cmath.exp(-4j))
    assert payload["norms"] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert [r[0]["shift"] for r in payload["reductions"]] == ["2", "2"]


def test_mean_cross_check(capsys, tmp_path):
    poly = write_json(
        tmp_path / "poly.json",
        [
            {"freq": "0", "re": 2.0, "im": 0.0},
            {"freq": "1/2", "re": 5.0, "im": 0.0},
            {"freq": "-3", "re": 0.0, "im": -1.0},
        ],
    )
    assert main(["mean", poly]) == 0
    out = capsys.readouterr().out
    assert "exact mean:        2.0 0.0" in out
    assert "truncated average:" in out


def test_mean_fails_its_cross_check_on_a_nan_average(capsys, tmp_path):
    # three terms at 1e308 + 1e308 i overflow the truncated average to nan
    poly = write_json(tmp_path / "poly.json",
                      [{"freq": f, "re": 1e308, "im": 1e308} for f in ("0", "1", "2")])
    assert main(["mean", poly]) == 1
    captured = capsys.readouterr()
    assert "truncated average: nan nan" in captured.out
    assert captured.err == "cross-check FAILED\n"


@pytest.mark.parametrize("freq", ["1/1" + "0" * 400, "1" + "0" * 400], ids=["1e-400", "1e400"])
def test_mean_frequency_out_of_float_range_exits_2(capsys, tmp_path, freq):
    # 1/1e-400 passes the float range in the truncation bound, 1e400 itself in
    # the quadrature: each is one error line, not a traceback or OverflowError
    poly = write_json(tmp_path / "poly.json", [{"freq": freq, "re": 1.0, "im": 0.0}])
    assert main(["mean", poly]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: {re.escape(poly)}: (1/)?frequency out of float range: .*\n",
                        captured.err)


def test_verify_algebra_suite(capsys):
    assert main(["verify", "--suite", "algebra", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed 7\n")
    assert "PASS" in out and "FAIL" not in out


def test_verify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WEYLREPS_SEED", "123")
    assert main(["verify", "--suite", "algebra", "--seed", "7"]) == 0
    assert capsys.readouterr().out.startswith("seed 123\n")


def test_verify_rejects_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("WEYLREPS_SEED", "not-a-seed")
    assert main(["verify", "--suite", "algebra"]) == 2


@pytest.mark.parametrize("seed", ["x" * 450, "1" * 5000], ids=["450-chars", "5000-digits"])
def test_long_bad_env_seed_prints_one_capped_error_line(capsys, monkeypatch, seed):
    monkeypatch.setenv("WEYLREPS_SEED", seed)
    assert main(["verify", "--suite", "algebra"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: WEYLREPS_SEED must be an integer, got ")
    assert len(line) <= 200


def test_missing_file_exits_2(capsys):
    assert main(["product", "/nonexistent/a.json", "/nonexistent/b.json"]) == 2


def test_eval_state_overflowing_coefficient_exits_2(tmp_path):
    element = write_json(
        tmp_path / "big.json", [{"a": "0", "b": "0", "re": 1.7e308, "im": 1.7e308}]
    )
    proc = run_fresh("-m", "weylreps.cli", "eval-state", "--state", "vacuum", element)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.fixture()
def poly_file(tmp_path):
    return write_json(
        tmp_path / "poly.json",
        [{"freq": "0", "re": 2.0, "im": 0.0}, {"freq": "1/2", "re": 5.0, "im": 0.0}],
    )


@pytest.mark.parametrize("n", ["1e13", "nan", "inf"])
def test_mean_oversized_or_non_finite_n_exits_2(poly_file, n):
    proc = run_fresh("-m", "weylreps.cli", "mean", poly_file, "--quadrature-n", n)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert poly_file not in proc.stderr  # the averaging length is not the file's fault
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_cli_import_leaves_numpy_unloaded():
    proc = run_fresh(
        "-c",
        "import sys, weylreps.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module", ["weylreps", "weylreps.schrodinger"])
def test_package_and_oracle_import_leave_numpy_unloaded(module):
    proc = run_fresh(
        "-c",
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_exact_subcommands_start_without_numpy(tmp_path, u1_file, v1_file):
    words = write_json(tmp_path / "words.json", [[{"a": "1", "b": "2", "re": 1.0, "im": 0.0}]])
    bad = write_json(tmp_path / "bad.json", [{"a": "1/0", "b": "0", "re": 1.0, "im": 0.0}])
    requests = [
        (["product", u1_file, v1_file], 0),
        (["eval-state", "--state", "vacuum", u1_file], 0),
        (["gns-build", "--state", "momentum:1/2", words], 0),
        (["continuity-scan", "--state", "position:0", "--direction", "V",
          "--grid", "0,1/8,1/64"], 0),
        (["product", u1_file, bad], 2),
        (["eval-state", "--state", "thermal:1", u1_file], 2),
        (["gns-build", "--state", "vacuum", bad], 2),
        (["continuity-scan", "--state", "vacuum", "--direction", "U", "--grid", "0,x"], 2),
    ]
    for argv, code in requests:
        proc = run_fresh("-X", "importtime", "-m", "weylreps.cli", *argv)
        assert proc.returncode == code, (argv, proc.stderr)
        modules = imported_modules(proc.stderr)
        assert_loads_its_modules(argv, proc)
        assert [m for m in modules if m.startswith("numpy")] == [], argv
        assert [m for m in ("dataclasses", "inspect", "weylreps.verify") if m in modules] == [], \
            argv
        if code == 2:
            errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
            assert len(errors) == 1 and "Traceback" not in proc.stderr


def test_mean_imports_no_numpy_and_prints_the_in_process_result(capsys, poly_file):
    assert main(["mean", poly_file]) == 0
    expected = capsys.readouterr().out
    proc = run_fresh("-X", "importtime", "-m", "weylreps.cli", "mean", poly_file)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert [m for m in imported_modules(proc.stderr) if m.startswith("numpy")] == []


def test_mean_runs_where_numpy_cannot_be_imported(capsys, poly_file):
    # the golden runs call ``main``; this runs the module entry point, argv and exit included
    assert main(["mean", poly_file]) == 0
    expected = capsys.readouterr().out
    proc = run_fresh(
        *without(["numpy"], "import runpy; runpy.run_module('weylreps.cli', run_name='__main__')"),
        "mean", poly_file,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected and proc.stderr == ""


def test_mean_and_verify_load_the_modules_they_compute_with(tmp_path, poly_file):
    bad = write_json(tmp_path / "bad.json", [{"freq": "1/0", "re": 1.0, "im": 0.0}])
    requests = [
        (["mean", poly_file], {}, 0),
        (["mean", bad], {}, 2),
        (["verify", "--suite", "algebra", "--seed", "7"], {}, 0),
        (["verify", "--suite", "algebra"], {"WEYLREPS_SEED": "x"}, 2),
    ]
    for argv, environ, code in requests:
        proc = run_fresh("-X", "importtime", "-m", "weylreps.cli", *argv, **environ)
        assert proc.returncode == code, (argv, proc.stderr)
        assert_loads_its_modules(argv, proc)


@pytest.mark.parametrize(
    "record",
    [
        '{"a": 1.5, "b": "0", "re": 1.0, "im": 0.0}',
        '{"a": "0", "b": true, "re": 1.0, "im": 0.0}',
        '{"a": "0", "b": "0", "re": 1e309, "im": 0.0}',
        '{"a": "0", "b": "0", "re": NaN, "im": 0.0}',
        '{"a": "0", "b": "0", "re": 1.7e308, "im": 1.7e308}',
        '{"a": "0", "b": "0", "re": true, "im": false}',
        '{"a": "0", "b": "0", "re": "2.5", "im": 0}',
    ],
    ids=["float-label", "bool-label", "inf-coefficient", "nan-coefficient", "huge-modulus",
         "bool-coefficient", "string-coefficient"],
)
def test_eval_state_inexact_or_non_finite_record_names_file_and_record(capsys, tmp_path, record):
    element = tmp_path / "bad.json"
    element.write_text(f"[{record}]")
    assert main(["eval-state", "--state", "vacuum", str(element)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {element}: bad element record: ")


@pytest.mark.parametrize(
    "records",
    [
        [{"a": "0", "b": "0", "re": 10**400, "im": 0.0}],
        [{"a": "0", "b": "0", "re": 0.0, "im": 10**400}],
        [[1]],
        ["vacuum"],
    ],
    ids=["huge-re", "huge-im", "list-record", "string-record"],
)
def test_eval_state_malformed_record_exits_2_with_one_error_line(capsys, tmp_path, records):
    element = write_json(tmp_path / "bad.json", records)
    assert main(["eval-state", "--state", "vacuum", element]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and captured.err.count("\n") == 1
    assert "bad element record" in errors[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "{bad}", "{good}"],
        ["eval-state", "--state", "vacuum", "{bad}"],
        ["gns-build", "--state", "vacuum", "{bad}"],
    ],
    ids=["product", "eval-state", "gns-build"],
)
def test_records_whose_merge_passes_the_float_range_name_the_file(capsys, tmp_path, u1_file,
                                                                   argv):
    # each record is finite; their sum at one label is not
    record = {"a": "0", "b": "0", "re": 1.7e308, "im": 0.0}
    records = [[record, record]] if argv[0] == "gns-build" else [record, record]
    bad = write_json(tmp_path / "merge.json", records)
    assert main([arg.format(bad=bad, good=u1_file) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: {re.escape(bad)}: non-finite coefficient at .*\n", captured.err)


@pytest.mark.parametrize("command, payload", [
    ("product", "[" * 900 + "]" * 900),
    ("product", json.dumps([[0] * 10**5])),
    ("product", json.dumps({f"k{i}": 0 for i in range(10**5)})),
    ("gns-build", json.dumps({f"k{i}": 0 for i in range(10**5)})),
], ids=["product-900-nested", "product-list-of-1e5", "product-object-of-1e5",
        "gns-build-object-of-1e5"])
def test_a_large_refused_value_prints_one_short_error_line(capsys, tmp_path, u1_file, command,
                                                            payload):
    # the refused value is shown capped: the whole line stays under 300
    # characters past the file name, however large the value is
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    argv = ["product", str(bad), u1_file] if command == "product" else \
        ["gns-build", "--state", "vacuum", str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {bad}: ")
    assert len(captured.err) < len(str(bad)) + 300


def test_gns_build_momentum_pins_reduction_shifts(capsys, tmp_path):
    words = write_json(
        tmp_path / "words.json",
        [
            [{"a": "1", "b": "2", "re": 1.0, "im": 0.0}],
            [{"a": "3", "b": "2", "re": 1.0, "im": 0.0}],
            [{"a": "-1/2", "b": "0", "re": 0.5, "im": 0.0},
             {"a": "1", "b": "7", "re": 0.0, "im": 1.0}],
        ],
    )
    assert main(["gns-build", "--state", "momentum:-1/7", words]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["state"] == {"kind": "momentum", "mu": "-1/7"}
    # c W(a, b) reduces to c exp(i b mu) at shift a: exp(-2i/7) twice, and 1j exp(-i)
    assert payload["reductions"] == [
        [{"shift": "1", "re": 0.9594605811119173, "im": -0.28184285212220994}],
        [{"shift": "3", "re": 0.9594605811119173, "im": -0.28184285212220994}],
        [{"shift": "-1/2", "re": 0.5, "im": 0.0},
         {"shift": "1", "re": 0.8414709848078965, "im": 0.5403023058681398}],
    ]
    assert complex(0.9594605811119173, -0.28184285212220994) == pytest.approx(cmath.exp(-2j / 7))
    assert complex(0.8414709848078965, 0.5403023058681398) == pytest.approx(1j * cmath.exp(-1j))
    assert payload["norms"] == [1.0, 1.0, 1.118033988749895]


def test_gns_build_vacuum_has_no_reductions(capsys, tmp_path):
    words = write_json(tmp_path / "words.json", [[{"a": "1", "b": "2", "re": 1.0, "im": 0.0}]])
    assert main(["gns-build", "--state", "vacuum", words]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["state", "norms", "gram"]


def test_json_results_are_written_in_the_standard_separators(capsys, tmp_path, u1_file, v1_file):
    words = write_json(tmp_path / "words.json", [[{"a": "0", "b": "0", "re": 1.0, "im": 0.0}]])
    requests = [
        (["product", u1_file, v1_file], '[{"a": "1", "b": "1", "re": 1.0, "im": 0.0}]\n'),
        (["eval-state", "--state", "momentum:0", v1_file], '{"re": 1.0, "im": 0.0}\n'),
        (["gns-build", "--state", "vacuum", words],
         '{"state": {"kind": "vacuum"}, "norms": [1.0], "gram": [[{"re": 1.0, "im": 0.0}]]}\n'),
    ]
    for argv, expected in requests:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "{bad}", "{good}"],
        ["product", "{good}", "{bad}"],
        ["eval-state", "--state", "vacuum", "{bad}"],
        ["gns-build", "--state", "vacuum", "{bad}"],
        ["mean", "{bad}"],
    ],
    ids=["product-left", "product-right", "eval-state", "gns-build", "mean"],
)
def test_file_that_is_not_utf8_is_named_and_exits_2(capsys, tmp_path, u1_file, argv):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff\xfe[]")
    argv = [arg.format(bad=bad, good=u1_file) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0:"
                            " invalid start byte\n")


def test_cli_import_loads_no_dataclasses_inspect_or_verify():
    proc = run_fresh(
        "-c",
        "import sys; before = set(sys.modules); import weylreps.cli; "
        "print(sorted(set(sys.modules) - before))",
    )
    assert proc.returncode == 0, proc.stderr
    added = eval(proc.stdout)
    assert package_modules(added) == {"weylreps", "weylreps.algebra", "weylreps.cli",
                                      "weylreps.serialize"}
    assert [m for m in ("dataclasses", "inspect", "weylreps.verify") if m in added] == []


def test_unknown_suite_exits_2_with_the_argparse_choices_without_loading_verify():
    proc = run_fresh("-X", "importtime", "-m", "weylreps.cli", "verify", "--suite", "nope")
    assert proc.returncode == 2
    assert "weylreps.verify" not in imported_modules(proc.stderr)
    (message,) = [ln for ln in proc.stderr.splitlines() if ln.startswith("weylreps verify:")]
    assert message.startswith("weylreps verify: error: argument --suite: invalid choice: 'nope'")
    choices = message.partition("(choose from ")[2]
    assert re.findall(r"\w+", choices) == list(verify.SUITE_NAMES)


def test_suite_choices_are_the_registry_suite_names():
    assert cli.SUITE_NAMES == verify.SUITE_NAMES
