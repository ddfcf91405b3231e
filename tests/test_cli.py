import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import idmps
from idmps import (
    MatrixProductState,
    OscillatorParams,
    SiteTensor,
    build_bundle,
    load_mps,
    load_tensor,
    save_mps,
    save_tensor,
    state_norm,
    tensor_new,
    to_dense,
)
from idmps.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def ghz_tensor():
    data = np.zeros((2, 2, 2), dtype=complex)
    data[0, 0, 0] = data[1, 1, 1] = 2**-0.5
    return tensor_new((2, 2, 2), data)


def write_ghz(tmp_path):
    path = tmp_path / "ghz.json"
    save_tensor(str(path), ghz_tensor())
    return str(path)


def test_decompose_vidal_reports_spectra(tmp_path, capsys):
    src = write_ghz(tmp_path)
    out = str(tmp_path / "ghz_mps.json")
    code, report, _ = run_cli(capsys, "decompose", src, "--form", "vidal", "--out", out)
    assert code == 0
    assert report["form"] == "vidal"
    assert report["shape"] == [2, 2, 2]
    assert report["bond_dims"] == [2, 2]
    for cut in report["bonds"]:
        np.testing.assert_allclose(cut, [2**-0.5, 2**-0.5], atol=1e-12)
    assert report["truncation_errors"] == [0.0, 0.0]
    m = load_mps(out)
    assert m.form == "vidal"
    np.testing.assert_allclose(to_dense(m).data, ghz_tensor().data, atol=1e-12)


def test_decompose_product_state_bond_dims(tmp_path, capsys):
    data = np.zeros((2, 2, 2), dtype=complex)
    data[1, 0, 1] = 1.0
    src = tmp_path / "prod.json"
    save_tensor(str(src), tensor_new((2, 2, 2), data))
    out = str(tmp_path / "prod_mps.json")
    code, report, _ = run_cli(capsys, "decompose", str(src), "--form", "left", "--out", out)
    assert code == 0
    assert report["bond_dims"] == [1, 1]


def test_decompose_mixed_form_tag(tmp_path, capsys):
    src = write_ghz(tmp_path)
    out = str(tmp_path / "mixed.json")
    code, report, _ = run_cli(capsys, "decompose", src, "--form", "mixed:2", "--out", out)
    assert code == 0
    assert report["form"] == "mixed:2"
    assert load_mps(out).center == 2


def test_decompose_mixed_center_1(tmp_path, capsys):
    src = write_ghz(tmp_path)
    out = str(tmp_path / "mixed.json")
    code, report, _ = run_cli(capsys, "decompose", src, "--form", "mixed:1", "--out", out)
    assert code == 0
    assert report["form"] == "mixed:1"
    code, report, _ = run_cli(capsys, "verify", out)
    assert code == 0 and report["passed"] is True
    code, report, _ = run_cli(
        capsys, "reconstruct", out, "--out", str(tmp_path / "t.json"), "--reference", src
    )
    assert code == 0 and report["residual"] < 1e-14


def test_decompose_with_truncation(tmp_path, capsys):
    src = write_ghz(tmp_path)
    out = str(tmp_path / "trunc.json")
    code, report, _ = run_cli(
        capsys, "decompose", src, "--form", "vidal", "--max-bond", "1", "--out", out
    )
    assert code == 0
    assert report["bond_dims"] == [1, 1]
    # Cut 1 drops one GHZ branch; what remains is a product state, so
    # cut 2 drops nothing.
    np.testing.assert_allclose(report["truncation_errors"], [2**-0.5, 0.0], atol=1e-10)
    distance = np.linalg.norm(to_dense(load_mps(out)).data - ghz_tensor().data)
    assert np.hypot(*report["truncation_errors"]) == pytest.approx(distance, abs=1e-10)
    assert distance == pytest.approx(2**-0.5, abs=1e-10)


@pytest.mark.parametrize("form", ["left", "right", "mixed:4", "vidal"])
def test_decompose_truncation_errors_add_to_the_distance(tmp_path, capsys, form):
    rng = np.random.default_rng(37)
    shape = (3,) * 7
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    src = tmp_path / "t.json"
    save_tensor(str(src), tensor_new(shape, data))
    mps_path = str(tmp_path / "m.json")
    code, report, _ = run_cli(
        capsys, "decompose", str(src), "--form", form, "--max-bond", "4", "--out", mps_path
    )
    assert code == 0
    errors = report["truncation_errors"]
    assert len(errors) == 6
    code, back, _ = run_cli(
        capsys, "reconstruct", mps_path, "--out", str(tmp_path / "b.json"), "--reference", str(src)
    )
    assert code == 0
    distance = back["residual"] * np.linalg.norm(data)
    assert float(np.sqrt(np.sum(np.square(errors)))) == pytest.approx(distance, rel=1e-10)
    assert all(err <= distance for err in errors)


def test_decompose_zero_tensor_exit_2(tmp_path, capsys):
    src = tmp_path / "zero.json"
    save_tensor(str(src), tensor_new((2, 2), np.zeros((2, 2))))
    code, _, err = run_cli(
        capsys, "decompose", str(src), "--form", "left", "--out", str(tmp_path / "o.json")
    )
    assert code == 2
    assert err.strip()


def test_decompose_malformed_file_exit_1(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{not json")
    code, _, err = run_cli(
        capsys, "decompose", str(src), "--form", "left", "--out", str(tmp_path / "o.json")
    )
    assert code == 1
    assert err.strip()


def test_decompose_missing_file_exit_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "decompose",
        str(tmp_path / "nope.json"),
        "--form",
        "left",
        "--out",
        str(tmp_path / "o.json"),
    )
    assert code == 1
    assert err.strip()


def test_decompose_bogus_form_exit_1(tmp_path, capsys):
    src = write_ghz(tmp_path)
    code, _, _ = run_cli(
        capsys, "decompose", src, "--form", "diagonal", "--out", str(tmp_path / "o.json")
    )
    assert code == 1


def test_usage_error_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])  # missing required arguments
    assert exc.value.code == 1


def test_reconstruct_round_trip(tmp_path, capsys):
    src = write_ghz(tmp_path)
    mps_path = str(tmp_path / "m.json")
    run_cli(capsys, "decompose", src, "--form", "right", "--out", mps_path)
    out = str(tmp_path / "back.json")
    code, report, _ = run_cli(
        capsys, "reconstruct", mps_path, "--out", out, "--reference", src
    )
    assert code == 0
    assert report["shape"] == [2, 2, 2]
    assert report["norm"] == pytest.approx(1.0, abs=1e-12)
    assert report["residual"] <= 1e-10
    back = load_tensor(out)
    np.testing.assert_allclose(back.data, ghz_tensor().data, atol=1e-12)


def test_reconstruct_reference_shape_mismatch_exit_1(tmp_path, capsys):
    src = write_ghz(tmp_path)
    mps_path = str(tmp_path / "m.json")
    run_cli(capsys, "decompose", src, "--form", "left", "--out", mps_path)
    ref = tmp_path / "ref.json"
    save_tensor(str(ref), tensor_new((2, 2), np.eye(2)))
    code, _, err = run_cli(
        capsys,
        "reconstruct",
        mps_path,
        "--out",
        str(tmp_path / "o.json"),
        "--reference",
        str(ref),
    )
    assert code == 1
    assert err.strip()


def test_reconstruct_corrupted_chain_exit_1(tmp_path, capsys):
    src = write_ghz(tmp_path)
    mps_path = tmp_path / "m.json"
    run_cli(capsys, "decompose", src, "--form", "left", "--out", str(mps_path))
    doc = json.loads(mps_path.read_text())
    doc["sites"][1]["left_dim"] = 3
    mps_path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "reconstruct", str(mps_path), "--out", str(tmp_path / "o.json")
    )
    assert code == 1
    assert err.strip()


def test_verify_fresh_left_form(tmp_path, capsys):
    src = write_ghz(tmp_path)
    mps_path = str(tmp_path / "m.json")
    run_cli(capsys, "decompose", src, "--form", "left", "--out", mps_path)
    code, report, _ = run_cli(capsys, "verify", mps_path)
    assert code == 0
    assert report["passed"] is True
    assert report["form"] == "left"
    assert max(report["residuals"]) <= 1e-12
    assert report["boundary_scalar"] == pytest.approx(1.0, abs=1e-12)


def test_verify_scaled_site_fails(tmp_path, capsys):
    src = write_ghz(tmp_path)
    mps_path = tmp_path / "m.json"
    run_cli(capsys, "decompose", src, "--form", "left", "--out", str(mps_path))
    doc = json.loads(mps_path.read_text())
    doc["sites"][1]["data"] = [[2 * re, 2 * im] for re, im in doc["sites"][1]["data"]]
    mps_path.write_text(json.dumps(doc))
    code, report, _ = run_cli(capsys, "verify", str(mps_path))
    assert code == 3
    assert report["passed"] is False
    assert max(report["residuals"]) == pytest.approx(3.0, abs=1e-10)
    assert report["worst_site"] == 2


def test_verify_vidal_and_mixed(tmp_path, capsys):
    src = write_ghz(tmp_path)
    for form in ("vidal", "mixed:2", "right"):
        mps_path = str(tmp_path / f"{form.replace(':', '_')}.json")
        run_cli(capsys, "decompose", src, "--form", form, "--out", mps_path)
        code, report, _ = run_cli(capsys, "verify", mps_path)
        assert code == 0, form
        assert report["passed"] is True
        if form == "mixed:2":
            assert report["boundary_scalar"] == pytest.approx(1.0, abs=1e-12)


def test_verify_passes_truncated_vidal_output(tmp_path, capsys):
    rng = np.random.default_rng(60)
    src = tmp_path / "random8.json"
    save_tensor(str(src), tensor_new((2,) * 8, rng.standard_normal(256) + 1j * rng.standard_normal(256)))
    mps_path = str(tmp_path / "vidal4.json")
    code, report, _ = run_cli(
        capsys, "decompose", str(src), "--form", "vidal", "--max-bond", "4", "--out", mps_path
    )
    assert code == 0
    assert report["bond_dims"] == [2, 4, 4, 4, 4, 4, 2]
    code, report, _ = run_cli(capsys, "verify", mps_path)
    assert code == 0, report["residuals"]
    assert report["passed"] is True


def test_verify_unverifiable_form_exit_3(tmp_path, capsys):
    src = write_ghz(tmp_path)
    mps_path = tmp_path / "m.json"
    run_cli(capsys, "decompose", src, "--form", "left", "--out", str(mps_path))
    doc = json.loads(mps_path.read_text())
    doc["form"] = "unknown"
    mps_path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(mps_path))
    assert code == 3
    assert "form" in err.lower()


def test_verify_custom_tolerance(tmp_path, capsys):
    src = write_ghz(tmp_path)
    mps_path = tmp_path / "m.json"
    run_cli(capsys, "decompose", src, "--form", "left", "--out", str(mps_path))
    doc = json.loads(mps_path.read_text())
    bumped = []
    for re, im in doc["sites"][0]["data"]:
        bumped.append([re * (1 + 2e-7), im])
    doc["sites"][0]["data"] = bumped
    mps_path.write_text(json.dumps(doc))
    code_strict, _, _ = run_cli(capsys, "verify", str(mps_path))
    code_loose, _, _ = run_cli(capsys, "verify", str(mps_path), "--tol", "1e-3")
    assert code_strict == 3
    assert code_loose == 0


def test_oscillator_command(tmp_path, capsys):
    out_mps = str(tmp_path / "osc.json")
    out_csv = str(tmp_path / "osc.csv")
    code, report, _ = run_cli(
        capsys,
        "oscillator",
        "--n",
        "1",
        "--omega-tilde",
        "1.0",
        "--theta",
        str(np.pi / 4),
        "--varphi",
        str(np.pi / 4),
        "--phys-cutoff",
        "8",
        "--out-mps",
        out_mps,
        "--out-csv",
        out_csv,
    )
    assert code == 0
    assert report["bond_dims"] == [2, 2]
    assert report["norm"] == pytest.approx(1.0, abs=1e-10)
    m = load_mps(out_mps)
    assert m.phys_dims == (8, 8, 8)
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0].keys()) == {"which", "a", "b", "k", "magnitude"}
    lane0 = [float(r["magnitude"]) for r in rows if r["which"] == "A1" and r["a"] == "0"]
    np.testing.assert_allclose(lane0, np.eye(8)[:, 0], atol=1e-12)
    a1_rows = [r for r in rows if r["which"] == "A1"]
    assert all(r["b"] == "" for r in a1_rows)


def test_oscillator_rejects_small_cutoff(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "oscillator",
        "--n",
        "3",
        "--omega-tilde",
        "1.0",
        "--phys-cutoff",
        "2",
        "--out-mps",
        str(tmp_path / "o.json"),
    )
    assert code == 1
    assert err.strip()


def test_oscillator_rejects_nonpositive_frequency(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "oscillator",
        "--n",
        "1",
        "--omega-tilde",
        "-2.0",
        "--phys-cutoff",
        "4",
        "--out-mps",
        str(tmp_path / "o.json"),
    )
    assert code == 1


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, so stderr shows any traceback."""
    package_root = str(Path(idmps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "idmps.cli", *argv], capture_output=True, text=True, env=env, timeout=300
    )


def test_oscillator_high_degree_builds_with_the_library_norm(tmp_path):
    # A closed-form overlap table overflows a float at this degree; the
    # quadrature table stays bounded. d=200 cannot hold 100 quanta at
    # this frequency, so the norm is below 1.
    proc = run_cli_process("oscillator", "--n", "100", "--omega-tilde", "3", "--phys-cutoff", "200",
                           "--out-mps", str(tmp_path / "o.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    norm = json.loads(proc.stdout)["norm"]
    params = OscillatorParams(n=100, omega_tilde=3.0, theta=0.0, phi=0.0, varphi=0.0, phys_cutoff=200)
    assert 0.0 < norm <= 1.0
    assert abs(norm - state_norm(build_bundle(params).mps)) <= 1e-12


def test_oscillator_cutoff_above_the_limit_exit_1_without_traceback(tmp_path):
    out = tmp_path / "o.json"
    proc = run_cli_process("oscillator", "--n", "1", "--omega-tilde", "1", "--phys-cutoff", "601",
                           "--out-mps", str(out))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "phys_cutoff" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_non_finite_tensor_entry_exit_1_without_traceback(tmp_path):
    # 1e400 parses to an infinite float; it must not reach the MPS file.
    src = tmp_path / "inf.json"
    src.write_text('{"version": 1, "shape": [2], "data": [[1e400, 0.0], [0.0, 0.0]]}')
    out = tmp_path / "o.json"
    proc = run_cli_process("decompose", str(src), "--form", "left", "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert "entry 0 is not finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_overflowing_svd_exit_2_without_traceback(tmp_path):
    # Every entry is finite, but the matrix norm overflows a double.
    src = tmp_path / "huge.json"
    src.write_text('{"version": 1, "shape": [2, 2], "data": [[1e308, 0.0], [1e308, 0.0], '
                   '[1e308, 0.0], [1e308, 0.0]]}')
    out = tmp_path / "o.json"
    proc = run_cli_process("decompose", str(src), "--form", "left", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("numerical failure:")
    assert "overflow" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def write_subnormal(tmp_path):
    # The one nonzero entry is the only weight; 1 / 1e-320 overflows a double.
    src = tmp_path / "tiny.json"
    src.write_text('{"version": 1, "shape": [2, 2], "data": [[1e-320, 0.0], [0.0, 0.0], '
                   '[0.0, 0.0], [0.0, 0.0]]}')
    return src


@pytest.mark.parametrize("form", ["vidal", "mixed:1"])
def test_weight_division_overflow_exit_2_without_a_file(tmp_path, form):
    out = tmp_path / "m.json"
    proc = run_cli_process("decompose", str(write_subnormal(tmp_path)), "--form", form, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure:") and "1e-320" in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("form", ["left", "right"])
def test_subnormal_tensor_left_and_right_files_pass_verify(tmp_path, form):
    out = tmp_path / "m.json"
    proc = run_cli_process("decompose", str(write_subnormal(tmp_path)), "--form", form, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    proc = run_cli_process("verify", str(out))
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["passed"] is True


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_reconstruct_reports_norm_and_residual_at_any_scale(tmp_path, scale):
    # The plain sum of squares overflows at 1e200 and underflows at 1e-200.
    rng = np.random.default_rng(11)
    unit = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    src = tmp_path / "t.json"
    save_tensor(str(src), tensor_new((2, 2, 2, 2), scale * unit))
    mps_path = tmp_path / "m.json"
    assert run_cli_process("decompose", str(src), "--form", "vidal", "--out", str(mps_path)).returncode == 0
    proc = run_cli_process("reconstruct", str(mps_path), "--out", str(tmp_path / "b.json"),
                           "--reference", str(src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["norm"] == pytest.approx(scale * float(np.linalg.norm(unit)), rel=1e-12)
    assert report["residual"] <= 1e-12


def test_reconstruct_norm_past_the_float_range_exit_2(tmp_path):
    # Four finite entries of 1e308 have a norm of 2e308.
    mps_path = tmp_path / "m.json"
    save_mps(str(mps_path), MatrixProductState(sites=(SiteTensor(4, 1, 1, np.full(4, 1e308)),)))
    out = tmp_path / "b.json"
    proc = run_cli_process("reconstruct", str(mps_path), "--out", str(out))
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("numerical failure:") and "norm" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_deeply_nested_tensor_file_exit_1_without_traceback(tmp_path):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100000 + "]" * 100000)
    proc = run_cli_process("decompose", str(src), "--form", "left", "--out", str(tmp_path / "o.json"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_rank_tolerance_env_override(tmp_path, capsys, monkeypatch):
    data = np.diag([1.0, 1e-6]).astype(complex)
    src = tmp_path / "near_rank1.json"
    save_tensor(str(src), tensor_new((2, 2), data))
    out = str(tmp_path / "m.json")
    code, report, _ = run_cli(capsys, "decompose", str(src), "--form", "left", "--out", out)
    assert code == 0
    assert report["bond_dims"] == [2]
    monkeypatch.setenv("IDMPS_RANK_TOL", "1e-3")
    code, report, _ = run_cli(capsys, "decompose", str(src), "--form", "left", "--out", out)
    assert code == 0
    assert report["bond_dims"] == [1]


def test_rank_tolerance_env_invalid_exit_1(tmp_path, capsys, monkeypatch):
    src = write_ghz(tmp_path)
    monkeypatch.setenv("IDMPS_RANK_TOL", "-1")
    code, _, err = run_cli(
        capsys, "decompose", src, "--form", "left", "--out", str(tmp_path / "o.json")
    )
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize("raw", ["inf", "1", "2.5", "nan", "0"])
def test_rank_tolerance_env_outside_the_unit_interval_exit_1(tmp_path, capsys, monkeypatch, raw):
    src = write_ghz(tmp_path)
    monkeypatch.setenv("IDMPS_RANK_TOL", raw)
    out = tmp_path / "o.json"
    code, report, err = run_cli(capsys, "decompose", src, "--form", "left", "--out", str(out))
    assert code == 1 and report is None
    assert "IDMPS_RANK_TOL must be in (0, 1)" in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1e-3"])
def test_verify_rejects_nan_and_negative_tolerance(tmp_path, capsys, tol):
    mps_path = tmp_path / "m.json"
    assert run_cli(capsys, "decompose", write_ghz(tmp_path), "--form", "left",
                   "--out", str(mps_path))[0] == 0
    code, report, err = run_cli(capsys, "verify", str(mps_path), f"--tol={tol}")
    assert code == 1 and report is None
    assert "--tol must be >= 0" in err


@pytest.mark.parametrize("tol", ["nan", "-0.5"])
def test_decompose_rejects_nan_and_negative_weight_tol(tmp_path, capsys, tol):
    out = tmp_path / "o.json"
    code, report, err = run_cli(capsys, "decompose", write_ghz(tmp_path), "--form", "vidal",
                                f"--weight-tol={tol}", "--out", str(out))
    assert code == 1 and report is None
    assert "weight_tol must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value", [("--omega-tilde", "inf"), ("--theta", "nan"), ("--phi", "inf"), ("--varphi", "-inf")]
)
def test_oscillator_non_finite_parameters_exit_1_without_traceback(tmp_path, flag, value):
    args = {"--n": "2", "--omega-tilde": "1.3", "--phys-cutoff": "4", flag: value}
    out = tmp_path / "x.json"
    argv = [f"{key}={val}" for key, val in args.items()]
    proc = run_cli_process("oscillator", *argv, "--out-mps", str(out))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_tensor_file_round_trip_is_bit_stable(tmp_path, capsys):
    rng = np.random.default_rng(55)
    data = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_tensor(str(first), tensor_new((3, 4), data))
    save_tensor(str(second), load_tensor(str(first)))
    assert first.read_text() == second.read_text()
    assert np.array_equal(load_tensor(str(second)).data, data.astype(complex).reshape(-1))


def test_mps_file_round_trip_is_bit_stable(tmp_path, capsys):
    rng = np.random.default_rng(56)
    data = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    src = tmp_path / "t.json"
    save_tensor(str(src), tensor_new((2, 3, 2), data))
    first = tmp_path / "m1.json"
    run_cli(capsys, "decompose", str(src), "--form", "vidal", "--out", str(first))
    from idmps import save_mps

    second = tmp_path / "m2.json"
    save_mps(str(second), load_mps(str(first)))
    assert first.read_text() == second.read_text()


def test_file_version_and_payload_validation(tmp_path, capsys):
    src = tmp_path / "v.json"
    save_tensor(str(src), ghz_tensor())
    doc = json.loads(src.read_text())
    doc["version"] = 2
    src.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "decompose", str(src), "--form", "left", "--out", str(tmp_path / "o.json")
    )
    assert code == 1

    src2 = tmp_path / "p.json"
    save_tensor(str(src2), ghz_tensor())
    doc = json.loads(src2.read_text())
    doc["data"][0] = [1.0]  # not a two-element pair
    src2.write_text(json.dumps(doc))
    code, _, _ = run_cli(
        capsys, "decompose", str(src2), "--form", "left", "--out", str(tmp_path / "o.json")
    )
    assert code == 1


def test_unsorted_bond_weights_rejected(tmp_path, capsys):
    src = write_ghz(tmp_path)
    mps_path = tmp_path / "m.json"
    run_cli(capsys, "decompose", src, "--form", "vidal", "--out", str(mps_path))
    doc = json.loads(mps_path.read_text())
    doc["bonds"][0] = [0.1, 0.9]
    mps_path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(mps_path))
    assert code == 1
    assert err.strip()


def test_verify_overflowing_left_site_exit_3_without_traceback(tmp_path, capsys):
    mps_path = tmp_path / "m.json"
    run_cli(capsys, "decompose", write_ghz(tmp_path), "--form", "left", "--out", str(mps_path))
    doc = json.loads(mps_path.read_text())
    doc["sites"][1]["data"][0] = [1e200, 1e200]  # finite, but its Gram entries overflow
    mps_path.write_text(json.dumps(doc))
    proc = run_cli_process("verify", str(mps_path))
    assert proc.returncode == 3, proc.stdout
    report = json.loads(proc.stdout)
    assert report["passed"] is False
    assert report["worst_site"] == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "form", ["mixed", "mixed:", "mixed:x", "unknown", "Left", "mixed:+2", "mixed: 2", "mixed:0_2", "mixed:\u0662", "mixed:02", "mixed:2 ", "mixed:-1"]
)
def test_decompose_bad_form_tag_exit_1(tmp_path, capsys, form):
    src = write_ghz(tmp_path)
    out = tmp_path / "o.json"
    code, report, err = run_cli(capsys, "decompose", src, "--form", form, "--out", str(out))
    assert code == 1
    assert report is None
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("tag", ["mixed:x", "mixed", "sideways", 7, None, "mixed:+2", "mixed: 2", "mixed:0_2", "mixed:\u0662", "mixed:02", "mixed:2 ", "mixed:-1"])
def test_tampered_form_tag_exit_1(tmp_path, capsys, tag):
    src = write_ghz(tmp_path)
    mps_path = tmp_path / "m.json"
    run_cli(capsys, "decompose", src, "--form", "mixed:2", "--out", str(mps_path))
    doc = json.loads(mps_path.read_text())
    assert doc["form"] == "mixed:2"
    doc["form"] = tag
    mps_path.write_text(json.dumps(doc))
    for command in (["verify"], ["reconstruct", "--out", str(tmp_path / "t.json")]):
        code, report, err = run_cli(capsys, command[0], str(mps_path), *command[1:])
        assert code == 1, (command, tag)
        assert report is None
        assert err.startswith("error:") and "form tag" in err
