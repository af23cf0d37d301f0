import json
import os
import subprocess
import sys
import time

import pytest

from ladderlab import integral
from ladderlab.cli import _FUNCTIONALS, main
from ladderlab.integral import hl_integral, integrate_segment


def test_usage_error_exits_2():
    for argv in (["zeta"],  # missing --t
                 ["ladder", "--T", "1000", "--k", "1", "--tol", "1e-6"],  # no such option
                 ["integral", "--from", "0", "--to", "1000", "--tol", "1e-9"],
                 # malformed or empty float lists
                 ["zeta", "--t", "1,x"], ["zeta", "--t", ","],
                 ["functional", "--id", "gamma", "--tau-grid", "300,,abc"],
                 ["functional", "--id", "gamma", "--tau-grid", ""],
                 ["scan", "--n", "3", "--max-xyz", "2", "--tau-grid", "1e3;1e4"],
                 ["scan", "--n", "3", "--max-xyz", "2", "--tau-grid", " , "]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_zeta_output(capsys):
    assert main(["zeta", "--t", "100,30,5"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "t,z,z_sq,theta"
    assert len(out) == 4
    first = out[1].split(",")
    assert float(first[0]) == 100.0
    assert float(first[2]) == pytest.approx(float(first[1]) ** 2, rel=1e-12)
    # theta is served from T_MIN = 10 on; below it the column reads nan
    assert [row.split(",")[3] == "nan" for row in out[1:]] == [False, False, True]


def test_zeta_refusal_prints_no_table(capsys):
    # a refused ordinate after a served one leaves stdout empty
    assert main(["zeta", "--t", "100,2e5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "T_MAX" in captured.err


def test_integral_computation_error_exits_1(capsys, monkeypatch):
    # a rate whose tolerance on [150, 250] is 1e-12, below the engine floor
    monkeypatch.setattr(integral, "AUTO_TOL_RATE", 1e-12 / 100.0)
    rc = main(["integral", "--from", "150", "--to", "250"])
    assert rc == 1
    assert "ladderlab: engine error floor exceeds tol=1e-12" in capsys.readouterr().err


def test_non_finite_bound_exits_1(tmp_path, capsys):
    path = os.path.join(tmp_path, "cache.csv")
    for argv in (["integral", "--from", "0", "--to", "inf"],
                 ["integral", "--from", "0", "--to", "nan"],
                 ["integral", "--from", "1", "--to", "inf"],
                 ["cache", "--path", path, "--extend-to", "inf"],
                 ["scan", "--n", "3", "--max-xyz", "2", "--t-cap", "inf"],
                 ["scan", "--n", "3", "--max-xyz", "2", "--t-cap", "1"],
                 ["scan", "--n", "3", "--max-xyz", "2", "--t-cap", "0"],
                 ["scan", "--n", "3", "--max-xyz", "2", "--t-cap", "-5"],
                 ["scan", "--n", "3", "--max-xyz", "2", "--tau-grid", "nan"],
                 ["ladder", "--T", "nan", "--k", "1"],
                 ["functional", "--id", "gamma", "--x", "nan"],
                 ["functional", "--id", "shifted", "--tau", "nan"],
                 ["functional", "--id", "chain", "--tau", "inf"],
                 ["gram", "--from", "100", "--to", "inf"]):
        assert main(argv) == 1
        assert "ladderlab:" in capsys.readouterr().err
    assert not os.path.exists(path)


def test_bound_above_t_max_exits_1_at_once(tmp_path, capsys):
    path = os.path.join(tmp_path, "cache.csv")
    for argv in (["integral", "--from", "0", "--to", "1e9"],
                 ["integral", "--from", "1", "--to", "1e9"],
                 ["cache", "--path", path, "--extend-to", "1e6"],
                 ["scan", "--n", "3", "--max-xyz", "2", "--t-cap", "1e6"],
                 # t_cap below T_MAX whose cache reach is not
                 ["scan", "--n", "3", "--max-xyz", "2", "--t-cap", "9e4"],
                 ["zeta", "--t", "2e5"]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 5.0  # refused before any quadrature
        err = capsys.readouterr().err
        assert "T_MAX" in err
        if argv[0] == "scan":
            assert "t_cap" in err
    assert not os.path.exists(path)


def test_file_errors_exit_1(tmp_path, capsys, monkeypatch):
    # a cache path that is a directory, a cache of bytes that are not UTF-8,
    # and a file to write in a missing directory: one ladderlab line, no
    # traceback and nothing on stdout
    junk = tmp_path / "junk.cache"
    junk.write_bytes(b"\xff\xfe\x80\n\x81")
    missing = str(tmp_path / "missing" / "x")
    for env, argv in ((str(tmp_path), ["integral", "--from", "0", "--to", "100"]),
                      (str(junk), ["integral", "--from", "0", "--to", "100"]),
                      (None, ["cache", "--path", missing, "--extend-to", "100"]),
                      (None, ["gram", "--from", "100", "--to", "105", "--out", missing]),
                      (None, ["functional", "--id", "gamma", "--tau-grid", "300",
                              "--out", missing])):
        if env is None:
            monkeypatch.delenv("HL_CACHE", raising=False)
        else:
            monkeypatch.setenv("HL_CACHE", env)
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("ladderlab: ") == 1 and captured.err.startswith("ladderlab: ")


def test_integral_from_zero_reads_the_cache(capsys, monkeypatch):
    # --from 0 prints hl_integral's bits, the J every ladder and scan row
    # reads; any other --from integrates the segment at the same rule
    monkeypatch.delenv("HL_CACHE", raising=False)
    for frm, want in ((0.0, hl_integral(1000.0)), (150.0, integrate_segment(150.0, 1000.0))):
        assert main(["integral", "--from", f"{frm:g}", "--to", "1000"]) == 0
        assert capsys.readouterr().out == (
            f"value={want.value:.17g}\nabs_error_estimate={want.abs_error_estimate:.17g}\n"
            f"node_count={want.node_count}\n")


def test_integral_success(capsys):
    assert main(["integral", "--from", "100", "--to", "120"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value=")
    assert "abs_error_estimate=" in out


def test_ladder_output(capsys):
    assert main(["ladder", "--T", "500", "--k", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "rung,t"
    ts = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert len(ts) == 3 and ts[0] == 500.0
    assert ts[0] < ts[1] < ts[2]


def test_gram_to_file(tmp_path, capsys):
    out = os.path.join(tmp_path, "gram.csv")
    assert main(["gram", "--from", "100", "--to", "105", "--out", out]) == 0
    with open(out) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "nu,t,z"
    assert len(lines) >= 2


def test_functional_gamma_json(capsys):
    assert main(["functional", "--id", "gamma", "--x", "1",
                 "--tau-grid", "300,600"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["functional"] == "gamma"
    assert rep["tau_grid"] == [300.0, 600.0]


@pytest.mark.parametrize("fid", list(_FUNCTIONALS))
def test_functional_every_id(fid, capsys, monkeypatch):
    monkeypatch.delenv("HL_CACHE", raising=False)
    assert main(["functional", "--id", fid, "--tau-grid", "200,400",
                 "--tau", "300", "--k", "1"]) == 0
    out = capsys.readouterr().out
    if fid == "pi-gamma":
        assert out.startswith("pi_surrogate=")
    else:
        assert isinstance(json.loads(out), dict)


def test_functional_pi_gamma(capsys):
    assert main(["functional", "--id", "pi-gamma", "--tau", "500", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pi_surrogate=")
    assert float(out.split("=")[1]) > 0


def test_scan_json_and_window(tmp_path):
    out = os.path.join(tmp_path, "scan.json")
    rc = main(["scan", "--functionals", "gamma", "--n", "3", "--max-xyz", "2",
               "--t-cap", "10000", "--out", out])
    assert rc == 0
    with open(out, "rb") as fh:
        raw = fh.read()
    assert raw.endswith(b"\n") and b"\r" not in raw
    rep = json.loads(raw)
    assert rep["functionals"] == ["gamma"]
    assert {r["functional"] for r in rep["rows"]} == {"gamma"}
    assert rep["window"] is None
    rc = main(["scan", "--functionals", "gamma", "--n", "3", "--max-xyz", "3",
               "--t-cap", "10000", "--window-eps", "0.5", "--out", out])
    assert rc == 0
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["window"] == [0.5, 1.5]
    assert rep["rows"] and all(0.5 < r["q"] < 1.5 for r in rep["rows"])


def test_scan_bad_window_eps(capsys):
    for eps in ("2.0", "0", "1", "nan", "-0.5", "half"):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--functionals", "gamma", "--n", "3", "--max-xyz", "2",
                  "--window-eps", eps])
        assert exc.value.code == 2
        assert "--window-eps" in capsys.readouterr().err


def test_scan_repeat_bytes_identical(tmp_path):
    a = os.path.join(tmp_path, "a.json")
    b = os.path.join(tmp_path, "b.json")
    args = ["scan", "--functionals", "zeta-segment", "--n", "3", "--max-xyz", "2",
            "--t-cap", "5000"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_cache_subcommand(tmp_path, capsys, monkeypatch):
    path = os.path.join(tmp_path, "cache.csv")
    assert main(["cache", "--path", path, "--extend-to", "120"]) == 0
    out = capsys.readouterr().out
    assert "checkpoints=2" in out
    # second call extends in place
    assert main(["cache", "--path", path, "--extend-to", "220"]) == 0
    assert "checkpoints=4" in capsys.readouterr().out

    monkeypatch.delenv("HL_CACHE", raising=False)
    assert main(["cache", "--extend-to", "100"]) == 2


def test_hl_cache_env_used_readonly(tmp_path, monkeypatch, capsys):
    path = os.path.join(tmp_path, "cache.csv")
    assert main(["cache", "--path", path, "--extend-to", "200"]) == 0
    capsys.readouterr()
    with open(path, "rb") as fh:
        before = fh.read()
    monkeypatch.setenv("HL_CACHE", path)
    assert main(["integral", "--from", "0", "--to", "150"]) == 0
    capsys.readouterr()
    with open(path, "rb") as fh:
        assert fh.read() == before  # heavy commands never write it


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "ladderlab.cli", "zeta", "--t", "50"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,z")
