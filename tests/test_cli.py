import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylreps
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


def run_fresh(*args):
    """Run ``python *args`` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylreps.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


def imported_modules(stderr: str) -> list[str]:
    """Module names from the ``-X importtime`` report in ``stderr``."""
    return [
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    ]


def test_eval_state_oversized_rational_exits_2(tmp_path):
    element = write_json(
        tmp_path / "u.json", [{"a": "1/3", "b": "0", "re": 1.0, "im": 0.0}]
    )
    proc = run_fresh(
        "-m", "weylreps.cli", "eval-state", "--state", "position:1" + "0" * 400, element
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


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


def test_exact_subcommands_start_without_numpy(tmp_path, u1_file, v1_file):
    words = write_json(tmp_path / "words.json", [[{"a": "1", "b": "2", "re": 1.0, "im": 0.0}]])
    requests = [
        (["product", u1_file, v1_file], 0),
        (["eval-state", "--state", "vacuum", u1_file], 0),
        (["gns-build", "--state", "momentum:1/2", words], 0),
        (["continuity-scan", "--state", "position:0", "--direction", "V",
          "--grid", "0,1/8,1/64"], 0),
        (["eval-state", "--state", "thermal:1", u1_file], 2),
    ]
    for argv, code in requests:
        proc = run_fresh("-X", "importtime", "-m", "weylreps.cli", *argv)
        assert proc.returncode == code, (argv, proc.stderr)
        modules = imported_modules(proc.stderr)
        assert "weylreps.gns" in modules
        assert [m for m in modules if m.startswith("numpy")] == [], argv
        if code == 2:
            errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
            assert len(errors) == 1 and "Traceback" not in proc.stderr


def test_mean_loads_numpy_and_prints_the_in_process_result(capsys, poly_file):
    assert main(["mean", poly_file]) == 0
    expected = capsys.readouterr().out
    proc = run_fresh("-X", "importtime", "-m", "weylreps.cli", "mean", poly_file)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert "numpy" in imported_modules(proc.stderr)


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
