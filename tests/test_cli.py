import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idmps
from idmps import (
    MatrixProductState,
    OscillatorParams,
    SiteTensor,
    build_bundle,
    decompose,
    load_mps,
    load_tensor,
    save_mps,
    save_tensor,
    state_norm,
    tensor_new,
    tensor_norm,
    to_dense,
)
from idmps.cli import main
from idmps.io import _CHUNK
from idmps.mps import parse_form_tag
from test_properties import small_weight_chain


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


def test_verify_passes_a_fresh_vidal_state_with_tiny_schmidt_values(tmp_path, capsys):
    """Its Schmidt values reach down to about 1e-12 of the largest at some cuts."""
    src = str(tmp_path / "chain.json")
    save_tensor(src, small_weight_chain(54, 1e-5))
    mps_path = str(tmp_path / "vidal.json")
    assert run_cli(capsys, "decompose", src, "--form", "vidal", "--out", mps_path)[0] == 0
    code, report, _ = run_cli(capsys, "verify", mps_path)
    assert code == 0, report["residuals"]
    assert report["tol"] == 1e-10


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


def _traced(capsys, *argv):
    """run_cli's outcome and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        outcome = run_cli(capsys, *argv)
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["reconstruct", "oscillator"])
def test_size_cap_exit_1_before_allocating(tmp_path, capsys, case):
    """Commands whose arrays would pass MAX_ENTRIES exit 1 with one line
    naming the entry count, within 1 MiB of traced memory: a 4 KB file of
    48 sites of bond dimension 1 (2^48 dense entries), and the oscillator's
    middle site at n=599, d=600 (600^3 entries). CI runs these under an
    address-space limit, so a regression that allocates fails at once."""
    if case == "reconstruct":
        src = tmp_path / "m.json"
        save_mps(str(src), MatrixProductState(sites=(SiteTensor(2, 1, 1, np.array([1.0, 0.0])),) * 48))
        argv, count = ["reconstruct", str(src), "--out", str(tmp_path / "t.json")], 2**48
    else:
        argv = ["oscillator", "--n", "599", "--omega-tilde", "1", "--phys-cutoff", "600",
                "--out-mps", str(tmp_path / "o.json")]
        count = 600**3
    (code, report, err), peak = _traced(capsys, *argv)
    assert (code, report) == (1, None)
    assert err.startswith("error: ") and f" {count} entries" in err and err.count("\n") == 1
    assert peak < 1 << 20, peak
    assert not (tmp_path / "t.json").exists() and not (tmp_path / "o.json").exists()


def _reconstruct_with_reference(tmp_path, capsys):
    """reconstruct --reference of an 18-site chain (a 4 MiB tensor), the
    writer patched out (test_io bounds its chunks): the outcome and the
    traced peak."""
    rng = np.random.default_rng(15)
    dims = [1] + [2] * 17 + [1]
    m = MatrixProductState(sites=tuple(
        SiteTensor(2, left, right, rng.standard_normal(2 * left * right) + 0j)
        for left, right in zip(dims, dims[1:])
    ))
    src, ref = tmp_path / "m.json", tmp_path / "ref.json"
    save_mps(str(src), m)
    save_tensor(str(ref), to_dense(m))
    with mock.patch("idmps.cli.save_tensor"):
        return _traced(
            capsys, "reconstruct", str(src), "--out", str(tmp_path / "t.json"), "--reference", str(ref)
        )


def test_reconstruct_reference_allocates_no_difference_array(tmp_path, capsys):
    """The residual is taken in place in the reference's own array, where a
    difference array would be a third tensor beside the state and the
    reference (read one block at a time)."""
    (code, report, _), peak = _reconstruct_with_reference(tmp_path, capsys)
    assert code == 0 and report["residual"] == 0.0
    assert peak <= 3 * (16 << 18) + 5 * idmps.io._BLOCK, peak


def test_reconstruct_reference_holds_two_tensors(tmp_path, capsys):
    """Beside the state and the reference, reconstruct --reference holds at
    most one block of the reader's or one slab of tensor_norm's: the norms
    take their scaled sums of squares slab by slab, never from a scaled
    copy of a whole tensor."""
    (code, report, _), peak = _reconstruct_with_reference(tmp_path, capsys)
    assert code == 0 and report["residual"] == 0.0
    assert peak <= 2 * (16 << 18) + 5 * idmps.io._BLOCK, peak


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


def test_reconstruct_of_a_split_payload_prints_nothing_to_stderr(tmp_path):
    # 2^16 entries: the written tensor and the reference each span many
    # chunks and several blocks, read and written with numpy (and its BLAS
    # threads) loaded. Nothing, such as a warning, may reach stderr.
    rng = np.random.default_rng(12)
    shape = (2,) * 16
    assert np.prod(shape) >= 2 * _CHUNK
    t = tensor_new(shape, rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16))
    src, mps_path, out = tmp_path / "t.json", tmp_path / "m.json", tmp_path / "b.json"
    save_tensor(str(src), t)
    save_mps(str(mps_path), decompose(t, "left")[0])
    proc = run_cli_process("reconstruct", str(mps_path), "--out", str(out), "--reference", str(src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["residual"] <= 1e-12
    back = load_tensor(str(out)).data
    assert np.max(np.abs(back - t.data)) <= 1e-12 * np.max(np.abs(t.data))


@pytest.mark.parametrize("reference", [False, True], ids=["alone", "reference"])
def test_subnormal_left_file_reconstructs_without_a_warning(tmp_path, reference):
    # tensor_norm rescales by the subnormal peak; a complex division by it
    # overflowed inside numpy, and the report's norm was NaN.
    src = write_subnormal(tmp_path)
    mps_path = tmp_path / "m.json"
    assert run_cli_process("decompose", str(src), "--form", "left", "--out", str(mps_path)).returncode == 0
    extra = ["--reference", str(src)] if reference else []
    proc = run_cli_process("reconstruct", str(mps_path), "--out", str(tmp_path / "b.json"), *extra)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["norm"] == 1e-320
    assert report.get("residual", 0.0) <= 1e-12


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


def write_pair_state(tmp_path):
    """An MPS file of a (2, 2) state with unit entries."""
    mps_path = tmp_path / "m.json"
    save_mps(str(mps_path), decompose(tensor_new((2, 2), np.ones(4)), "left")[0])
    return mps_path


@pytest.mark.parametrize("reference, code", [
    (None, 1),  # the reference file does not exist
    (tensor_new((4,), np.ones(4)), 1),  # shape [4] against the [2, 2] state
    (tensor_new((2, 2), np.full(4, 1e-320)), 2),  # residual 1e320 overflows
], ids=["missing", "shape", "overflow"])
def test_failed_reconstruct_leaves_no_out_file(tmp_path, capsys, reference, code):
    mps_path, ref, out = write_pair_state(tmp_path), tmp_path / "ref.json", tmp_path / "o.json"
    if reference is not None:
        save_tensor(str(ref), reference)
    got, report, err = run_cli(capsys, "reconstruct", str(mps_path), "--out", str(out), "--reference", str(ref))
    assert (got, report) == (code, None)
    assert err.strip()
    assert not out.exists()


def test_reconstruct_writes_the_tensor_and_report_it_did_before(tmp_path, capsys):
    mps_path, out, alone = write_pair_state(tmp_path), tmp_path / "o.json", tmp_path / "alone.json"
    ref = tmp_path / "ref.json"
    save_tensor(str(ref), tensor_new((2, 2), np.ones(4)))
    save_tensor(str(alone), to_dense(load_mps(str(mps_path))))
    assert main(["reconstruct", str(mps_path), "--out", str(out), "--reference", str(ref)]) == 0
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    assert list(report) == ["shape", "norm", "out", "residual"]
    assert stdout == json.dumps(report, indent=2) + "\n"
    assert (report["shape"], report["norm"], report["out"]) == ([2, 2], pytest.approx(2.0), str(out))
    assert report["residual"] <= 1e-15
    assert out.read_bytes() == alone.read_bytes()


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


def test_rank_cut_weight_is_reported_and_adds_to_the_residual(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(6)
    data = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    t = tensor_new((2,) * 6, data / np.linalg.norm(data))
    src = tmp_path / "t.json"
    save_tensor(str(src), t)
    monkeypatch.setenv("IDMPS_RANK_TOL", "0.3")
    for form in ("left", "vidal"):
        mps_path, out = str(tmp_path / f"{form}.json"), str(tmp_path / "r.json")
        code, report, _ = run_cli(capsys, "decompose", str(src), "--form", form, "--out", mps_path)
        assert code == 0
        assert report["bond_dims"] != [2, 4, 8, 4, 2]  # the rank cut dropped values
        code, rec, _ = run_cli(capsys, "reconstruct", mps_path, "--out", out, "--reference", str(src))
        assert code == 0 and rec["residual"] > 0.1
        assert abs(math.hypot(*report["truncation_errors"]) - rec["residual"] * tensor_norm(t)) <= 1e-12, form


def test_rank_tolerance_env_invalid_exit_1(tmp_path, capsys, monkeypatch):
    src = write_ghz(tmp_path)
    monkeypatch.setenv("IDMPS_RANK_TOL", "-1")
    code, _, err = run_cli(
        capsys, "decompose", src, "--form", "left", "--out", str(tmp_path / "o.json")
    )
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize("raw", ["inf", "1", "2.5", "nan", "0", "abc"])
def test_rank_tolerance_env_outside_the_unit_interval_exit_1(tmp_path, capsys, monkeypatch, raw):
    src = write_ghz(tmp_path)
    monkeypatch.setenv("IDMPS_RANK_TOL", raw)
    out = tmp_path / "o.json"
    code, report, err = run_cli(capsys, "decompose", src, "--form", "left", "--out", str(out))
    assert code == 1 and report is None
    assert "IDMPS_RANK_TOL must be in (0, 1)" in err
    assert not out.exists()


def test_decompose_checks_its_settings_before_reading_the_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IDMPS_RANK_TOL", "abc")
    missing = str(tmp_path / "missing.json")
    code, report, err = run_cli(capsys, "decompose", missing, "--form", "left", "--out", str(tmp_path / "o.json"))
    assert (code, report) == (1, None)
    assert "IDMPS_RANK_TOL must be in (0, 1), got 'abc'" in err and "missing.json" not in err


@pytest.mark.parametrize("tol", ["nan", "-1e-3", "inf"])
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


@pytest.mark.parametrize("form", ["left", "right", "mixed:2"])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_verify_boundary_scalar_at_any_scale(tmp_path, capsys, form, scale):
    """The boundary scalar (the boundary site's squared norm, or the sum of
    the squared center weights) is a scaled sum of squares. At norm 1e-200
    it is 1e-400, which rounds to 0.0; at norm 1e200 it is 1e400, past the
    double range, and verify exits 2 with one line instead of printing
    Infinity, which is not JSON."""
    rng = np.random.default_rng(14)
    unit = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    src, mps_path = tmp_path / "t.json", tmp_path / "m.json"
    save_tensor(str(src), tensor_new((2, 2, 2, 2), scale * unit / np.linalg.norm(unit)))
    assert run_cli(capsys, "decompose", str(src), "--form", form, "--out", str(mps_path))[0] == 0
    code, report, err = run_cli(capsys, "verify", str(mps_path))
    if scale > 1.0:
        assert (code, report) == (2, None)
        assert err.startswith("numerical failure: the boundary scalar inf ") and err.count("\n") == 1
    else:
        assert (code, err) == (0, "")
        assert report["boundary_scalar"] == 0.0 and report["passed"] is True


def test_verify_overflowing_left_site_exit_3_without_traceback(tmp_path, capsys):
    mps_path = tmp_path / "m.json"
    run_cli(capsys, "decompose", write_ghz(tmp_path), "--form", "left", "--out", str(mps_path))
    doc = json.loads(mps_path.read_text())
    doc["sites"][1]["data"][0] = [1e200, 1e200]  # finite, but its Gram entries overflow
    mps_path.write_text(json.dumps(doc))
    proc = run_cli_process("verify", str(mps_path))
    assert proc.returncode == 3, proc.stdout

    def strict(name):
        raise ValueError(f"{name} is not JSON")

    report = json.loads(proc.stdout, parse_constant=strict)
    assert report["passed"] is False
    assert report["worst_site"] == 2
    assert report["residuals"][1] is None
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


def _at_float_limit(tmp_path, case: str) -> list:
    """argv of a command whose input holds the largest finite double where
    a product with it overflows."""
    big, src = 1.7976931348623157e308, tmp_path / "in.json"
    out = str(tmp_path / "out.json")
    if case == "dense-sweep":  # the sweep's S Vh
        save_tensor(str(src), tensor_new((2, 2), [1, 1, 1, big]))
        return ["decompose", str(src), "--form", "left", "--out", out]
    form, center = {"contraction": ("left", None), "chain-weights": ("mixed", 1)}[case]
    m = decompose(tensor_new((2, 2), [3, 1, 1, 2]), form, center)[0]
    first = SiteTensor(2, 1, 2, np.array([big, 0, 0, 0]))  # weights above 1 sit on its right bond
    save_mps(str(src), MatrixProductState(sites=(first, m.sites[1]), bonds=m.bonds, form=form, center=center))
    return ["reconstruct", str(src), "--out", out]


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 4.00 PiB"), MemoryError()])
def test_memory_error_exit_2_with_one_line(tmp_path, capsys, error):
    """Running out of memory is a numerical failure: exit 2, one stderr
    line and no file. A patched to_dense raises it; nothing large is allocated."""
    src, out = tmp_path / "m.json", tmp_path / "t.json"
    save_mps(str(src), decompose(tensor_new((2, 2), [3, 1, 1, 2]), "left")[0])
    with mock.patch("idmps.cli.to_dense", side_effect=error):
        code, report, err = run_cli(capsys, "reconstruct", str(src), "--out", str(out))
    assert (code, report) == (2, None)
    assert err.startswith("numerical failure: ") and err.count("\n") == 1 and len(err) > len("numerical failure: \n")
    assert not out.exists()


@pytest.mark.parametrize("case", ["dense-sweep", "contraction", "chain-weights"])
def test_overflow_at_the_float_limit_exit_2_without_a_warning(tmp_path, capsys, case):
    argv = _at_float_limit(tmp_path, case)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, report, err = run_cli(capsys, *argv)
    assert (code, report) == (2, None)
    assert err.startswith("numerical failure:")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("form", ["left", "right", "vidal", "mixed:1"])
def test_wide_unfolding_at_the_float_limit_exit_2_in_every_form(tmp_path, capsys, form):
    """The (2, 2, 2) tensor whose last entry is the largest double: its first
    unfolding is wide (2 x 4), so the sweep factors it through its triangular
    factor; its S Vh or a later SVD overflows in every form."""
    big, src, out = 1.7976931348623157e308, tmp_path / "in.json", tmp_path / "out.json"
    save_tensor(str(src), tensor_new((2, 2, 2), [1] * 7 + [big]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, report, err = run_cli(capsys, "decompose", str(src), "--form", form, "--out", str(out))
    assert (code, report) == (2, None)
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("form", ["left", "right", "vidal", "mixed:1"])
def test_wide_unfolding_with_one_entry_at_the_float_limit_round_trips(tmp_path, capsys, form):
    """The (2, 4) tensor whose last entry is the largest double decomposes
    through the wide path in range, and reconstructs to its reference."""
    big, src, out = 1.7976931348623157e308, tmp_path / "in.json", tmp_path / "m.json"
    save_tensor(str(src), tensor_new((2, 4), [1] * 7 + [big]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli(capsys, "decompose", str(src), "--form", form, "--out", str(out))
        assert (code, err) == (0, "")
        back = tmp_path / "back.json"
        code, report, err = run_cli(capsys, "reconstruct", str(out), "--out", str(back), "--reference", str(src))
    assert (code, err) == (0, "")
    assert report["residual"] <= 1e-15


# Mutation fuzzing: valid tensor and MPS files, damaged in ways a file on
# disk can be, through decompose, verify and reconstruct in process.
SWAPPED_TYPES = [None, True, False, "", "x", "mixed:2", [], {}, [1.0], [[1.0, 0.0]], {"a": 1}, 0, 1, -1, 2, 1.5]
EXTREME_NUMBERS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308,
    -1.7976931348623157e308, float("nan"), float("inf"), float("-inf"), 2**63, 2**64, 10**400, -(10**400),
]
DIM_SIZES = [1, 2, 3, 4, 6, 12, 2**20, 2**40]
NESTED = object()  # a value ``_dump`` writes as 10**5 nested brackets, past json's recursion limit


def _dim_slots(doc: dict) -> list:
    """(container, key) of every site dimension and tensor shape entry of ``doc``."""
    sites = doc.get("sites") if isinstance(doc.get("sites"), list) else []
    shape = doc.get("shape") if isinstance(doc.get("shape"), list) else []
    return [
        (site, key) for site in sites if isinstance(site, dict)
        for key in ("phys_dim", "left_dim", "right_dim") if key in site
    ] + [(shape, i) for i in range(len(shape))]


@functools.lru_cache(maxsize=1)
def _fuzz_seeds() -> dict:
    """The text of one tensor file and of an MPS file in each form."""
    rng = np.random.default_rng(11)
    t = tensor_new((2, 3, 2), rng.standard_normal(12) + 1j * rng.standard_normal(12))
    buf = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        save_tensor(path, t)
        buf["tensor"] = Path(path).read_text()
        for form in ("left", "right", "mixed:2", "vidal"):
            save_mps(path, decompose(t, *parse_form_tag(form))[0])
            buf[form] = Path(path).read_text()
    return buf


def _slots(node):
    """(container, key) of every dict entry and list item under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _slots(value)


def _dump(node, extra: dict) -> str:
    """json.dumps's text of ``node``, with the (key, value) pairs ``extra[id(d)]``
    appended to dict d as duplicate keys."""
    if isinstance(node, dict):
        pairs = [*node.items(), *extra.get(id(node), [])]
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v, extra)}" for k, v in pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dump(v, extra) for v in node) + "]"
    if node is NESTED:
        return "[" * 10**5 + "]" * 10**5
    return json.dumps(node)


def _mutated(data, text: str) -> bytes:
    """``text`` with a few bytes flipped, or with up to three edits to its
    document: a key or item deleted, a key duplicated, a value swapped for
    another type, a number swapped for an extreme one, a value swapped for
    deeply nested brackets, or a dimension (a site's or the shape's) set to
    another size or swapped with one of its neighbours, which keeps their
    product."""
    if data.draw(st.booleans()):
        raw = bytearray(text.encode())
        for _ in range(data.draw(st.integers(1, 3))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        return bytes(raw)
    doc, extra = json.loads(text), {}
    kinds = ["delete", "duplicate", "swap", "extreme", "dims", "nest"]
    for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        slots = _dim_slots(doc) if kind == "dims" else list(_slots(doc))
        if kind == "extreme":
            slots = [(p, k) for p, k in slots if type(p[k]) in (int, float)]
        if not slots:
            break
        parent, key = data.draw(st.sampled_from(slots))
        if kind == "dims":
            other = data.draw(st.sampled_from([k for p, k in slots if p is parent]))
            if data.draw(st.booleans()):
                parent[key], parent[other] = parent[other], parent[key]
            else:
                parent[key] = data.draw(st.sampled_from(DIM_SIZES))
        elif kind == "delete":
            del parent[key]
        elif kind == "extreme":
            parent[key] = data.draw(st.sampled_from(EXTREME_NUMBERS))
        elif kind == "nest":
            parent[key] = NESTED
        else:
            value = copy.deepcopy(data.draw(st.sampled_from(SWAPPED_TYPES + EXTREME_NUMBERS)))
            if kind == "duplicate" and isinstance(parent, dict):
                extra.setdefault(id(parent), []).append((key, value))
            else:
                parent[key] = value
    return _dump(doc, extra).encode()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.sampled_from(["tensor", "left", "right", "mixed:2", "vidal"]))
def test_mutated_files_exit_cleanly(tmp_path_factory, data, seed):
    """Any damage to an input file ends in exit 0, 1, 2 or 3, with no
    escaped exception and no RuntimeWarning, and an exit-0 output reads back."""
    tmp = tmp_path_factory.mktemp("fuzz")
    src, out, ref = tmp / "in.json", tmp / "out.json", tmp / "ref.json"
    src.write_bytes(_mutated(data, _fuzz_seeds()[seed]))
    ref.write_text(_fuzz_seeds()["tensor"])
    if seed == "tensor":
        form = data.draw(st.sampled_from(["left", "right", "mixed:2", "vidal"]))
        runs = [(["decompose", str(src), "--form", form, "--out", str(out)], load_mps)]
    else:
        runs = [
            (["verify", str(src)], None),
            (["reconstruct", str(src), "--out", str(out)], load_tensor),
            (["reconstruct", str(src), "--out", str(out), "--reference", str(ref)], load_tensor),
        ]
    for argv, reload in runs:
        out.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        if code == 0 and reload is not None:
            reload(str(out))


@pytest.mark.parametrize("seed", ["tensor", "left", "right", "mixed:2", "vidal"])
@pytest.mark.parametrize("where", ["version", "data"])
def test_deeply_nested_values_exit_1(tmp_path, capsys, seed, where):
    """A value swapped for 10**5 nested brackets, in the skeleton the block reader
    parses or in a payload, exits 1 with one message and no traceback."""
    doc, src = json.loads(_fuzz_seeds()[seed]), tmp_path / "in.json"
    (doc if seed == "tensor" or where == "version" else doc["sites"][0])[where] = NESTED
    src.write_text(_dump(doc, {}) + "\n")
    argv = ["verify", str(src)]
    if seed == "tensor":
        argv = ["decompose", str(src), "--form", "left", "--out", str(tmp_path / "m.json")]
    code, _, err = run_cli(capsys, *argv)
    assert (code, err.count("\n")) == (1, 1) and "nested too deeply" in err, err
