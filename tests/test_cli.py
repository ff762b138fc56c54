import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ovstat
from ovstat import cli, parent
from ovstat.cli import main
from ovstat.density import overlap_density
from ovstat.overlap import OverlapSpec


def read_rows(path):
    with open(path, newline="") as handle:
        rows = [r for r in csv.reader(line for line in handle if not line.startswith("#"))]
    return rows


def test_probs_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["probs", "--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "1", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["k", "ell", "num", "den", "decimal"]
    entries = {(r[0], r[1]): (r[2], r[3]) for r in rows[1:]}
    assert entries[("1", "1")] == ("1", "3")
    assert entries[("2", "2")] == ("0", "1")
    header = out.read_text().splitlines()[1]
    assert "exact-rank-match-table" in header


def test_probs_json_stdout(capsys):
    assert main(["probs", "--r", "0", "--m", "2", "--n", "3", "--i", "1", "--j", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    total = payload["total"]
    assert (total["num"], total["den"]) == (1, 1)
    marg = {}
    for entry in payload["entries"]:
        marg[entry["k"]] = marg.get(entry["k"], 0) + entry["num"] / entry["den"]
    # row masses match the closed subsample-rank law C(k-1,0) C(3-k,1) / 3
    assert marg[1] == pytest.approx(2 / 3)
    assert marg[2] == pytest.approx(1 / 3)


def test_probs_json_bytes_frozen(capsys):
    # the N = 130 table of the benchmark, byte for byte as the per-cell formula wrote it
    argv = ["probs", "--r", "40", "--m", "100", "--n", "90", "--i", "50", "--j", "45", "--format", "json"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "6167585fcdde4ceaf0b4781263a9c6a0bc08ab6c63bd8767c523ea856dadb85c"


def test_probs_csv_bytes_frozen(capsys):
    # the same table as CSV, byte for byte as the per-cell list wrote it
    argv = ["probs", "--r", "40", "--m", "100", "--n", "90", "--i", "50", "--j", "45"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "4906cc76d59b6ca940ceb1b194311a24ca9a441006bc24a27477c52b004eb378"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_probs_streams_the_table(tmp_path, fmt):
    # the N = 130 table is written one grid row at a time: no N^2 entry objects
    out = tmp_path / f"table.{fmt}"
    argv = ["probs", "--r", "40", "--m", "100", "--n", "90", "--i", "50", "--j", "45", "--format", fmt, "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.read_text().splitlines()) > 130**2
    assert peak < 4 * 2**20, peak


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = str(tmp_path / "missing" / "out")
    spec = ["--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "1"]
    for argv in (
        ["probs", *spec, "--out", out],
        ["probs", *spec, "--format", "json", "--out", out],
        ["regress", *spec, "--family", "exponential", "--grid", "3", "--out", out],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err and "Traceback" not in err, err


def test_verify_checks_its_out_path_before_the_run(tmp_path, capsys, monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("the Monte Carlo check ran before the --out path was opened")

    monkeypatch.setattr(cli, "verify_spec", run)
    out = str(tmp_path / "missing" / "out")
    argv = ["verify", "--r", "1", "--m", "3", "--n", "3", "--i", "2", "--j", "2", "--family", "exponential", "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}" in err, err


PROBS_130 = ["probs", "--r", "40", "--m", "100", "--n", "90", "--i", "50", "--j", "45", "--format", "json"]


@pytest.mark.parametrize(
    "sink, argv",
    [
        ("closed pipe", PROBS_130),
        ("/dev/full", PROBS_130),
        ("/dev/full", ["probs", "--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "1"]),  # fails only on the flush
    ],
    ids=["pipe", "full", "full-small"],
)
def test_stdout_write_error_exits_2(sink, argv):
    if sink == "/dev/full" and not os.path.exists(sink):
        pytest.skip("no /dev/full on this platform")
    src = os.path.dirname(os.path.dirname(ovstat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    command = [sys.executable, "-m", "ovstat.cli", *argv]
    if sink == "closed pipe":
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait()
    else:
        with open(sink, "w") as stdout:
            done = subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=env)
        code, err = done.returncode, done.stderr.decode()
    assert code == 2, err
    assert err.startswith("error: cannot write stdout: ") and "Traceback" not in err and "Exception" not in err, err


def test_probs_invalid_spec_exit_2(capsys):
    assert main(["probs", "--r", "1", "--m", "2", "--n", "2", "--i", "0", "--j", "1"]) == 2


def test_density_outputs(tmp_path):
    out = tmp_path / "dens.csv"
    rc = main(
        [
            "density",
            "--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "1",
            "--family", "uniform",
            "--grid", "41",
            "--out", str(out),
        ]
    )
    assert rc == 0
    header = [line for line in out.read_text().splitlines() if line.startswith("#")]
    mass_line = next(line for line in header if "total_mass" in line)
    assert abs(float(mass_line.split(":")[1]) - 1.0) < 1e-6
    atom = tmp_path / "dens.atom.csv"
    rows = read_rows(atom)
    values = {float(r[0]): float(r[1]) for r in rows[1:]}
    assert values[0.5] == pytest.approx(0.25, abs=1e-12)  # (1-x)^2 at the median
    cont = read_rows(out)
    assert cont[0] == ["x", "y", "continuous"]
    assert len(cont) == 1 + 41 * 41


def test_density_identical_samples_continuous_zero(tmp_path):
    out = tmp_path / "dens.csv"
    assert main(
        [
            "density",
            "--r", "0", "--m", "3", "--n", "3", "--i", "2", "--j", "2",
            "--family", "uniform",
            "--grid", "11",
            "--out", str(out),
        ]
    ) == 0
    rows = read_rows(out)
    assert all(float(r[2]) == 0.0 for r in rows[1:])


@pytest.mark.parametrize(
    "family, model",
    [
        (["exponential"], parent.exponential()),
        (["logistic"], parent.logistic()),
        (["cb", "--params", "alpha=0.95,beta=0.95"], parent.complementary_beta(0.95, 0.95)),
    ],
    ids=["exponential", "logistic", "cb"],
)
def test_density_grid_equals_per_row_construction(tmp_path, family, model):
    out = tmp_path / "dens.csv"
    argv = ["density", "--r", "2", "--m", "4", "--n", "5", "--i", "2", "--j", "3", "--grid", "9", "--out", str(out)]
    assert main(argv + ["--family", *family]) == 0
    dens = overlap_density(OverlapSpec(2, 4, 5, 2, 3), model)
    x = np.asarray(model.quantile(np.arange(1, 10) / 10), dtype=float)
    want = [["x", "y", "continuous"]]
    for xv in x:
        cont = dens.continuous(np.full_like(x, xv), x)
        want += [[f"{xv:.12g}", f"{yv:.12g}", f"{cv:.12g}"] for yv, cv in zip(x, cont)]
    assert read_rows(out) == want


def test_density_refuses_tol_not_above_zero(tmp_path, capsys):
    args = ["density", "--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "1", "--family", "exponential", "--grid", "3"]
    for tol in ("nan", "-1", "0"):
        out = tmp_path / "dens.csv"
        assert main(args + ["--tol", tol, "--out", str(out)]) == 2, tol
        assert not out.exists()
        assert "tol" in capsys.readouterr().err


def test_density_exits_3_on_a_parent_off_its_duality(monkeypatch, tmp_path, capsys):
    exp = parent.exponential()
    bad = dataclasses.replace(exp, pdf=lambda x: 1.01 * exp.pdf(x))
    monkeypatch.setattr(cli, "_model_from", lambda cfg: bad)
    out = tmp_path / "dens.csv"
    args = ["density", "--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "1", "--family", "exponential", "--out", str(out)]
    assert main(args) == 3
    assert not out.exists()
    assert "duality" in capsys.readouterr().err


def test_regress_identity(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(
        [
            "regress",
            "--r", "0", "--m", "3", "--n", "3", "--i", "2", "--j", "2",
            "--family", "exponential",
            "--grid", "9",
            "--out", str(out),
        ]
    ) == 0
    rows = read_rows(out)
    assert rows[0] == ["u", "x", "value"]
    for row in rows[1:]:
        assert float(row[2]) == pytest.approx(float(row[1]), abs=1e-9)


def test_regress_closed_form(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(
        [
            "regress",
            "--r", "1", "--m", "2", "--n", "2", "--i", "2", "--j", "2",
            "--family", "uniform",
            "--grid", "9",
            "--out", str(out),
        ]
    ) == 0
    for row in read_rows(out)[1:]:
        y = float(row[1])
        assert float(row[2]) == pytest.approx(0.5 + y * y / 3, abs=1e-9)


def test_reconstruct_min_route(tmp_path):
    n, m, d = 3, 1, 2
    x = np.linspace(0.01, 0.99, 201)
    g = (1 - (1 - x) ** (d + 1)) / (d + 1)
    src = tmp_path / "g.csv"
    with open(src, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["x", "value", "derivative"])
        w.writerows(zip(x, g, (1 - x) ** d))
    out = tmp_path / "cdf.csv"
    rc = main(["reconstruct", "--route", "min", "--input", str(src), "--n", str(n), "--m", str(m), "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(float(row[0]), abs=1e-10)
    diag = json.loads((tmp_path / "cdf.diagnostics.json").read_text())
    assert diag["diagnostics"]["monotone"] is True


def test_reconstruct_invalid_slope_exit_3(tmp_path):
    x = np.linspace(0.01, 0.99, 50)
    src = tmp_path / "g.csv"
    with open(src, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["x", "value", "derivative"])
        w.writerows(zip(x, x**2, 2 * x))  # increasing slope: not a min-regression
    assert main(["reconstruct", "--route", "min", "--input", str(src), "--n", "3", "--m", "1"]) == 3


def test_reconstruct_single_slope(tmp_path):
    x = np.linspace(-8, 8, 201)
    hp = 2 * np.exp(x) / (1 + np.exp(x)) ** 2
    src = tmp_path / "h.csv"
    with open(src, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["x", "value", "derivative"])
        w.writerows(zip(x, 2 / (1 + np.exp(-x)), hp))
    out = tmp_path / "cdf.csv"
    assert main(["reconstruct", "--route", "single-slope", "--input", str(src), "--j", "2", "--n", "3", "--out", str(out)]) == 0
    for row in read_rows(out)[1:]:
        assert float(row[1]) == pytest.approx(1 / (1 + np.exp(-float(row[0]))), abs=1e-8)


def test_reconstruct_missing_route_params(tmp_path):
    x = np.linspace(0.01, 0.99, 10)
    src = tmp_path / "g.csv"
    with open(src, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["x", "value"])
        w.writerows(zip(x, x))
    assert main(["reconstruct", "--route", "min", "--input", str(src)]) == 2


def test_verify_roundtrip_and_failure(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = [
        "verify",
        "--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "1",
        "--family", "uniform",
        "--reps", "150000",
        "--seed", "11",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert json.loads(out1.read_text())["passed"] is True
    assert main(args + ["--zmax", "0.001"]) == 4


@pytest.mark.parametrize("flag, value", [("--reps", "0"), ("--reps", "-5"), ("--zmax", "nan"), ("--zmax", "-1"), ("--zmax", "0")])
def test_verify_refuses_reps_and_zmax_before_opening_out(monkeypatch, tmp_path, capsys, flag, value):
    def no_run(*args, **kwargs):
        raise AssertionError("the Monte Carlo check ran before the refusal")

    monkeypatch.setattr(cli, "verify_spec", no_run)
    out = tmp_path / "report.json"
    args = ["verify", "--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "1", "--family", "uniform", "--reps", "1000"]
    assert main(args + [flag, value, "--out", str(out)]) == 2
    assert not out.exists()
    assert flag[2:] in capsys.readouterr().err


def test_verify_refuses_negative_seed(capsys):
    args = ["verify", "--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "1", "--family", "uniform", "--reps", "1000"]
    assert main(args + ["--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_verify_refuses_a_cb_location_off_the_reals(capsys):
    # the check is parent-free, so a nan location reported "passed" and exited 0
    args = ["verify", "--r", "1", "--m", "3", "--n", "3", "--i", "2", "--j", "2", "--family", "cb", "--params", "alpha=0.5,beta=1.5"]
    assert main(args + ["--location", "nan", "--reps", "20000"]) == 2
    assert "location" in capsys.readouterr().err


def test_verify_refuses_n_above_1029(monkeypatch, capsys):
    def no_table(spec):
        raise AssertionError("the table was built before the refusal")

    for module in ("ovstat.mc", "ovstat.density"):
        monkeypatch.setattr(f"{module}.cached_table", no_table)
    args = ["verify", "--r", "0", "--m", "1", "--n", "1030", "--i", "1", "--j", "1", "--family", "exponential", "--reps", "1000"]
    assert main(args) == 2
    assert "1029" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 1, "m": 2, "n": 2, "i": 1, "j": 2}))
    out = tmp_path / "t.csv"
    assert main(["probs", "--config", str(cfg), "--j", "1", "--out", str(out)]) == 0
    rows = read_rows(out)
    entries = {(r[0], r[1]): (r[2], r[3]) for r in rows[1:]}
    assert entries[("1", "1")] == ("1", "3")  # flag value j=1 won
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    assert main(["probs", "--config", str(bad)]) == 2


def test_config_file_holds_spec_and_model_keys(tmp_path):
    # one file read once per command against every key that command takes
    spec = {"r": 1, "m": 2, "n": 2, "i": 1, "j": 2}
    flags = ["--r", "1", "--m", "2", "--n", "2", "--i", "1", "--j", "2", "--family", "logistic"]
    both, spec_only = tmp_path / "both.json", tmp_path / "spec.json"
    both.write_text(json.dumps({**spec, "family": "logistic"}))
    spec_only.write_text(json.dumps(spec))
    for command, extra in (("density", ["--grid", "3"]), ("regress", ["--grid", "3"]), ("verify", ["--reps", "20000"])):
        want, out = tmp_path / f"{command}-flags.out", tmp_path / f"{command}.out"
        assert main([command, *flags, *extra, "--out", str(want)]) == 0
        for config, rest in ((both, []), (spec_only, ["--family", "logistic"])):
            assert main([command, "--config", str(config), *rest, *extra, "--out", str(out)]) == 0, (command, config.name)
            assert out.read_bytes() == want.read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**spec, "family": "logistic", "bogus": 1}))
    assert main(["regress", "--config", str(bad), "--grid", "3"]) == 2


def test_reconstruct_takes_no_config(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["reconstruct", "--route", "min", "--input", str(tmp_path / "g.csv"), "--config", str(tmp_path / "c.json")])
    assert exit_info.value.code == 2


def test_config_non_integer_spec_exit_2(tmp_path, capsys):
    # config values are not truncated: r = 1.7 or j = true is a configuration error
    for values in ({"r": 1.7}, {"j": True}, {"m": "2"}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1, "m": 2, "n": 2, "i": 1, "j": 1, **values}))
        assert main(["probs", "--config", str(cfg)]) == 2, values
        assert "integer" in capsys.readouterr().err


def test_regress_json_and_byte_purity(tmp_path):
    args = [
        "regress",
        "--r", "1", "--m", "2", "--n", "2", "--i", "2", "--j", "2",
        "--family", "uniform",
        "--grid", "7",
        "--format", "json",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["formula"] == "rank-mixture-regression"
    pt = payload["points"][3]
    assert pt["value"] == pytest.approx(0.5 + pt["x"] ** 2 / 3, abs=1e-9)
