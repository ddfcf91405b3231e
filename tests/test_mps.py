import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import idmps
import idmps.mps
from idmps import (
    BondSpectrum,
    CenterOutOfRange,
    ConvergenceFailure,
    CutOutOfRange,
    DimChainBroken,
    FormMismatch,
    IndexOutOfRange,
    LengthMismatch,
    MatrixProductState,
    PolicyEmpty,
    ShapeMismatch,
    SiteTensor,
    TruncationPolicy,
    ZeroState,
    apply_site_map,
    bond_spectrum,
    coefficient,
    decompose,
    entanglement_entropy,
    from_dense_left_canonical,
    from_dense_mixed_canonical,
    from_dense_right_canonical,
    from_dense_vidal,
    low_rank_error,
    matricize,
    schmidt_decompose,
    site_left_residual,
    site_right_residual,
    state_norm,
    svd,
    tensor_new,
    tensor_norm,
    to_dense,
    truncate,
    verify,
    verify_left_normalized,
    verify_right_normalized,
    verify_vidal,
)
from idmps.mps import _wide_factor, parse_form_tag


def random_tensor(rng, shape):
    size = int(np.prod(shape))
    return tensor_new(shape, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def ghz_tensor():
    data = np.zeros(8, dtype=complex)
    data[0] = data[7] = 2**-0.5
    return tensor_new((2, 2, 2), data)


def product_tensor():
    data = np.zeros(8, dtype=complex)
    data[0] = 1.0
    return tensor_new((2, 2, 2), data)


ALL_FORMS = [
    ("left", lambda t: from_dense_left_canonical(t)),
    ("right", lambda t: from_dense_right_canonical(t)),
    ("mixed", lambda t: from_dense_mixed_canonical(t, 2)),
    ("vidal", lambda t: from_dense_vidal(t)),
]


# ---------------------------------------------------------------- data model


def test_site_tensor_flat_order():
    rng = np.random.default_rng(31)
    data = rng.standard_normal(2 * 3 * 4) + 1j * rng.standard_normal(24)
    s = SiteTensor(2, 3, 4, data)
    arr = s.as_array()
    for k in range(2):
        for a in range(3):
            for b in range(4):
                assert arr[k, a, b] == data[(k * 3 + a) * 4 + b]


def test_site_tensor_validation():
    with pytest.raises(ShapeMismatch):
        SiteTensor(2, 0, 1, np.zeros(0))
    with pytest.raises(ShapeMismatch):
        SiteTensor(2, 2, 2, np.zeros(7))


def test_bond_spectrum_validation():
    BondSpectrum([0.8, 0.6, 0.6])
    with pytest.raises(ValueError):
        BondSpectrum([])
    with pytest.raises(ValueError):
        BondSpectrum([0.5, -0.1])
    with pytest.raises(ValueError):
        BondSpectrum([0.5, 0.7])
    with pytest.raises(ValueError):
        BondSpectrum([0.5, 0.0])


def test_bond_spectrum_rejects_non_finite_values():
    for values in ([np.nan, 0.5], [np.inf, 0.5], [0.5, np.nan], [1.0, -np.inf]):
        with pytest.raises(ValueError):
            BondSpectrum(values)


def test_a_state_owns_copies_of_its_arrays():
    a = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    b = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
    lam = np.array([0.8, 0.6])
    m = MatrixProductState(
        sites=(SiteTensor(2, 1, 2, a), SiteTensor(2, 2, 1, b)), bonds=(BondSpectrum(lam),)
    )
    indices = list(np.ndindex(2, 2))
    coefs = [coefficient(m, idx) for idx in indices]
    spectrum = bond_spectrum(m, 1).values.copy()
    a[:], b[:], lam[0] = 5.0, 5.0, -5.0
    assert m.sites[0].data.tolist() == [1.0, 0.0, 0.0, 1.0]
    assert m.sites[1].data.tolist() == [0.6, 0.0, 0.0, 0.8]
    assert m.bonds[0].values.tolist() == [0.8, 0.6]
    assert [coefficient(m, idx) for idx in indices] == coefs
    assert bond_spectrum(m, 1).values.tobytes() == spectrum.tobytes()
    vidal = from_dense_vidal(random_tensor(np.random.default_rng(3), (2, 2, 2)))
    for values in (m.bonds[0].values, vidal.bonds[0].values):
        with pytest.raises(ValueError):
            values[0] *= 2


def test_truncation_policy_validation():
    with pytest.raises(PolicyEmpty):
        TruncationPolicy()
    with pytest.raises(ValueError):
        TruncationPolicy(max_bond=0)
    with pytest.raises(ValueError):
        TruncationPolicy(weight_tol=-1e-3)
    p = TruncationPolicy(max_bond=2, weight_tol=0.1)
    assert p.max_bond == 2 and p.weight_tol == 0.1


@pytest.mark.parametrize(
    "bad", [1.5, 2.0, np.float64(2.0), True, False, np.bool_(True), "2"],
    ids=["float", "integral-float", "numpy-float", "True", "False", "numpy-bool", "string"],
)
def test_truncation_policy_rejects_a_max_bond_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match="max_bond must be an integer >= 1"):
        TruncationPolicy(max_bond=bad)


@pytest.mark.parametrize("chi", [1, np.int64(1), np.int32(1), np.uint8(1)], ids=["int", "int64", "int32", "uint8"])
def test_truncation_policy_takes_numpy_integers(chi):
    m, cuts = decompose(ghz_tensor(), "left", policy=TruncationPolicy(max_bond=chi))
    assert m.bond_dims == (1, 1) and [cut.kept for cut in cuts] == [1, 1]


@pytest.mark.parametrize(
    "center", [True, False, 1.0, np.float64(1.0), np.bool_(True), "1"],
    ids=["True", "False", "integral-float", "numpy-float", "numpy-bool", "string"],
)
def test_a_center_that_is_not_an_integer_is_rejected(center):
    with pytest.raises(CenterOutOfRange, match="center must be an integer"):
        decompose(ghz_tensor(), "mixed", center)
    m = from_dense_mixed_canonical(ghz_tensor(), 1)
    for form in ("mixed", "left"):
        with pytest.raises(ValueError, match="center must be None or an integer"):
            MatrixProductState(m.sites, m.bonds, form, center)


@pytest.mark.parametrize("form", ["left", "right", "vidal", "unknown"])
def test_a_center_on_a_form_other_than_mixed_is_rejected(form):
    """A center only the mixed form keeps: the tag would not carry it, so a
    saved file would lose it."""
    m = from_dense_mixed_canonical(ghz_tensor(), 1)
    for center in (1, 99):
        with pytest.raises(ValueError, match=f"applies only to the mixed form, not '{form}'"):
            MatrixProductState(m.sites, m.bonds, form, center)
    assert MatrixProductState(m.sites, m.bonds, form).center is None


def test_a_numpy_integer_center_round_trips(tmp_path):
    t = random_tensor(np.random.default_rng(35), (2, 3, 2, 2))
    m, _ = decompose(t, "mixed", np.int64(2))
    path = str(tmp_path / "m.json")
    idmps.save_mps(path, m)
    back = idmps.load_mps(path)
    assert (m.tag, back.tag, back.center) == ("mixed:2", "mixed:2", 2)
    assert verify(back).passed
    assert to_dense(back).data.tobytes() == to_dense(m).data.tobytes()


def test_mps_dim_chain_validation():
    a = SiteTensor(2, 1, 2, np.zeros(4))
    b = SiteTensor(2, 3, 1, np.zeros(6))
    with pytest.raises(DimChainBroken):
        MatrixProductState(sites=(a, b))
    with pytest.raises(DimChainBroken):
        MatrixProductState(sites=(SiteTensor(2, 2, 1, np.zeros(4)),))
    good = SiteTensor(2, 2, 1, np.zeros(4))
    with pytest.raises(DimChainBroken):
        MatrixProductState(sites=(a, good), bonds=(None, None))
    with pytest.raises(DimChainBroken):
        MatrixProductState(sites=(a, good), bonds=(BondSpectrum([1.0]),))
    with pytest.raises(ValueError):
        MatrixProductState(sites=(a, good), form="bogus")
    with pytest.raises(ValueError):
        MatrixProductState(sites=(a, good), form="mixed", center=None)


# ------------------------------------------------------------- construction


def test_product_state_all_forms_bond_dims_one():
    t = product_tensor()
    for name, build in ALL_FORMS:
        m = build(t)
        assert m.bond_dims == (1, 1), name
        back = to_dense(m)
        assert np.linalg.norm(back.data - t.data) <= 1e-12


def test_ghz_right_canonical():
    m = from_dense_right_canonical(ghz_tensor())
    assert m.form == "right"
    assert m.bond_dims == (2, 2)
    # site 1 carries the weights of the normalized state
    assert np.linalg.norm(m.sites[0].data) == pytest.approx(1.0, abs=1e-12)
    for n in (2, 3):
        assert site_right_residual(m.sites[n - 1]) <= 1e-12


def test_left_canonical_normalized_boundary():
    rng = np.random.default_rng(32)
    t = random_tensor(rng, (3, 3, 3))
    t = tensor_new(t.shape, t.data / tensor_norm(t))
    m = from_dense_left_canonical(t)
    rep = verify_left_normalized(m)
    assert rep.passed
    assert rep.boundary_scalar == pytest.approx(1.0, abs=1e-10)


def test_bell_times_basis_state_bond_dims():
    data = np.zeros(8, dtype=complex)
    data[0] = data[6] = 2**-0.5  # (|00> + |11>) x |0>
    m = from_dense_left_canonical(tensor_new((2, 2, 2), data))
    assert m.bond_dims == (2, 1)


def test_mixed_center_spectrum_oracle():
    m = from_dense_mixed_canonical(ghz_tensor(), 2)
    assert m.form == "mixed" and m.center == 2
    np.testing.assert_allclose(m.bonds[1].values, [2**-0.5, 2**-0.5], atol=1e-10)
    assert m.bonds[0] is None

    rng = np.random.default_rng(33)
    t = random_tensor(rng, (3, 4, 3, 2))
    m = from_dense_mixed_canonical(t, 2)
    ref = schmidt_decompose(t, 2).coefficients
    np.testing.assert_allclose(m.bonds[1].values, ref, atol=1e-10)


def test_mixed_center_out_of_range():
    rng = np.random.default_rng(34)
    with pytest.raises(CenterOutOfRange):
        from_dense_mixed_canonical(random_tensor(rng, (2,)), 1)
    for shape in ((2, 3), (3, 2, 2), (2, 2, 2, 2)):
        t = random_tensor(rng, shape)
        for center in (0, len(shape)):
            with pytest.raises(CenterOutOfRange):
                from_dense_mixed_canonical(t, center)
        m = from_dense_mixed_canonical(t, 1)
        assert m.center == 1 and verify(m).passed
        np.testing.assert_allclose(to_dense(m).data, t.data, atol=1e-13)


def test_vidal_bell():
    t = tensor_new((2, 2), [2**-0.5, 0, 0, 2**-0.5])
    m = from_dense_vidal(t)
    np.testing.assert_allclose(m.bonds[0].values, [2**-0.5, 2**-0.5], atol=1e-12)
    g = m.sites[0].as_array()
    np.testing.assert_allclose(g[:, 0, :], np.eye(2), atol=1e-12)


def test_vidal_product_state_lambdas():
    m = from_dense_vidal(product_tensor())
    for b in m.bonds:
        np.testing.assert_allclose(b.values, [1.0], atol=1e-12)


def test_vidal_lambda_equals_schmidt_spectrum():
    rng = np.random.default_rng(35)
    t = random_tensor(rng, (3, 3, 3))
    m = from_dense_vidal(t)
    for cut in (1, 2):
        ref = schmidt_decompose(t, cut).coefficients
        np.testing.assert_allclose(m.bonds[cut - 1].values, ref, atol=1e-10)


def test_round_trip_all_forms():
    rng = np.random.default_rng(36)
    for shape in [(2, 2), (4, 3, 5, 2), (2, 3, 2, 3, 2)]:
        t = random_tensor(rng, shape)
        builders = ALL_FORMS if len(shape) >= 3 else ALL_FORMS[:2] + ALL_FORMS[3:]
        for name, build in builders:
            m = build(t)
            rel = np.linalg.norm(to_dense(m).data - t.data) / tensor_norm(t)
            assert rel <= 1e-10, (name, shape)


def test_zero_state_rejected():
    t = tensor_new((2, 2, 2), np.zeros(8))
    for name, build in ALL_FORMS:
        with pytest.raises(ZeroState):
            build(t)


def test_decompose_untruncated_records_are_schmidt_spectra():
    rng = np.random.default_rng(41)
    t = random_tensor(rng, (2, 3, 4, 3))
    for form, center in (("left", None), ("right", None), ("mixed", 2), ("vidal", None)):
        m, cuts = decompose(t, form, center)
        assert len(cuts) == 3
        for cut, record in enumerate(cuts, start=1):
            ref = schmidt_decompose(t, cut).coefficients
            np.testing.assert_allclose(record.spectrum, ref, atol=1e-12)
            assert record.kept == ref.size == m.bond_dims[cut - 1]
            assert record.discarded == 0.0


def test_decompose_rejects_bad_form_and_center():
    t = ghz_tensor()
    with pytest.raises(ValueError):
        decompose(t, "diagonal")
    with pytest.raises(ValueError):
        decompose(t, "left", 2)
    with pytest.raises(CenterOutOfRange):
        decompose(t, "mixed")


@pytest.mark.parametrize(
    "form, center, calls", [("left", None, 5), ("right", None, 10), ("mixed", 3, 8), ("vidal", None, 10)]
)
def test_decompose_runs_only_the_sweep_svds(monkeypatch, form, center, calls):
    # N = 6: N-1 dense-sweep SVDs, plus one site step per bond moved back.
    counted = []
    svd = idmps.mps.svd

    def counting_svd(*args, **kwargs):
        counted.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(idmps.mps, "svd", counting_svd)
    t = random_tensor(np.random.default_rng(42), (2,) * 6)
    decompose(t, form, center, TruncationPolicy(max_bond=3))
    assert len(counted) == calls


def test_single_site_forms():
    t = tensor_new((4,), [1.0, 2.0, 0.0, -1.0])
    for build in (from_dense_left_canonical, from_dense_right_canonical, from_dense_vidal):
        m = build(t)
        assert m.num_sites == 1
        assert np.array_equal(to_dense(m).data, t.data)


# --------------------------------------------------------------- verification


def test_verify_left_on_right_canonical_fails():
    m = from_dense_right_canonical(ghz_tensor())
    assert not verify_left_normalized(m).passed
    assert verify_right_normalized(m).passed


def test_verify_reports_scaled_site():
    rng = np.random.default_rng(37)
    m = from_dense_left_canonical(random_tensor(rng, (2, 3, 2)))
    sites = list(m.sites)
    s = sites[1]
    sites[1] = SiteTensor(s.phys_dim, s.left_dim, s.right_dim, 2.0 * s.data)
    scaled = MatrixProductState(sites=tuple(sites), form="left")
    rep = verify_left_normalized(scaled)
    assert not rep.passed
    assert rep.worst_site == 2
    assert rep.residuals[1] == pytest.approx(3.0, abs=1e-10)


def test_verify_zero_site_residual_one():
    m = from_dense_left_canonical(ghz_tensor())
    sites = list(m.sites)
    s = sites[0]
    sites[0] = SiteTensor(s.phys_dim, s.left_dim, s.right_dim, np.zeros_like(s.data))
    rep = verify_left_normalized(MatrixProductState(sites=tuple(sites), form="left"))
    assert rep.residuals[0] == pytest.approx(1.0)
    assert not rep.passed


def test_verify_single_site_states():
    t = tensor_new((3,), 1.5 * np.array([0.6, 0.0, 0.8j]))  # squared norm 2.25
    for form in ("left", "right"):
        rep = verify(decompose(t, form)[0])
        assert rep.boundary_site == rep.worst_site == 1
        assert rep.boundary_scalar == pytest.approx(2.25)
        assert rep.residuals == (abs(rep.boundary_scalar - 1.0),)
        assert rep.passed  # the boundary site is reported, not checked
    vidal = verify(decompose(t, "vidal")[0])
    assert vidal.residuals == ()
    assert vidal.passed


def with_site_entry(m, n, value):
    """``m`` with entry 0 of site n replaced by ``value``."""
    sites = list(m.sites)
    s = sites[n - 1]
    data = s.data.copy()
    data[0] = value
    sites[n - 1] = SiteTensor(s.phys_dim, s.left_dim, s.right_dim, data)
    return MatrixProductState(sites=tuple(sites), bonds=m.bonds, form=m.form, center=m.center)


@pytest.mark.parametrize("value", [np.nan, 1e200 + 1e200j])
@pytest.mark.parametrize(
    "form, center, site", [("left", None, 2), ("right", None, 3), ("mixed", 2, 3)]
)
def test_verify_fails_a_nan_or_overflowing_residual(form, center, site, value):
    m = decompose(random_tensor(np.random.default_rng(5), (2, 3, 3, 2)), form, center)[0]
    # A large finite residual on another site must not hide the NaN.
    other = 1 if form != "right" else 4
    bad = with_site_entry(with_site_entry(m, other, 50.0), site, value)
    with np.errstate(all="ignore"):
        rep = verify(bad)
    assert not np.isfinite(rep.residuals[site - 1])  # NaN, or inf after an overflow
    assert rep.residuals[other - 1] > 100.0
    assert rep.worst_site == site
    assert not rep.passed


def test_verify_vidal_fails_a_nan_residual():
    m = from_dense_vidal(random_tensor(np.random.default_rng(6), (2, 3, 3, 2)))
    for site in (1, 2, 4):
        with np.errstate(all="ignore"):
            rep = verify(with_site_entry(m, site, np.nan))
        assert np.isnan(rep.residuals).any()
        assert not rep.passed


def gram_oracles(site):
    """The left and right Gram deviations, written out directly."""
    flat = site.data.reshape(-1, site.right_dim)
    left = np.max(np.abs(flat.conj().T @ flat - np.eye(site.right_dim)))
    flat = site.as_array().transpose(1, 0, 2).reshape(site.left_dim, -1)
    right = np.max(np.abs(flat @ flat.conj().T - np.eye(site.left_dim)))
    return float(left), float(right)


@pytest.mark.parametrize("dims, rank", [((2, 6, 2), None), ((3, 2, 5), None), ((2, 4, 4), 2)])
def test_site_residuals_match_the_gram_oracle(dims, rank):
    rng = np.random.default_rng(sum(dims))
    d, left, right = dims
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    if rank is not None:  # rank-deficient in both unfoldings
        data = np.einsum("kla,ab->klb", data[:, :, :rank], rng.standard_normal((rank, right)))
    for scale in (1.0, 1e-3, 1e3):
        site = SiteTensor(d, left, right, scale * data)
        want_left, want_right = gram_oracles(site)
        assert site_left_residual(site) == pytest.approx(want_left, rel=1e-12, abs=1e-15)
        assert site_right_residual(site) == pytest.approx(want_right, rel=1e-12, abs=1e-15)
    if d * right >= left:  # room for a right isometry
        q = np.linalg.qr(rng.standard_normal((d * right, left)))[0]
        iso = SiteTensor(d, left, right, q.T.reshape(left, d, right).transpose(1, 0, 2))
        assert site_right_residual(iso) == pytest.approx(gram_oracles(iso)[1], abs=1e-15)
        assert site_right_residual(iso) <= 1e-14


def test_parse_form_tag_round_trips_every_form():
    t = random_tensor(np.random.default_rng(8), (2, 2, 2, 2))
    states = [decompose(t, form)[0] for form in ("left", "right", "vidal")]
    states += [decompose(t, "mixed", c)[0] for c in (2, 3)]
    states.append(MatrixProductState(sites=states[0].sites))
    for m in states:
        assert parse_form_tag(m.tag) == (m.form, m.center)
    assert [m.tag for m in states] == ["left", "right", "vidal", "mixed:2", "mixed:3", "unknown"]
    for bad in ("mixed", "mixed:", "mixed:x", "diagonal", "", None, 3, ["left"], "mixed:+2",
                "mixed: 2", "mixed:0_2", "mixed:\u0662", "mixed:02", "mixed:2 ", "mixed:-1", "mixed:0"):
        with pytest.raises(ValueError):
            parse_form_tag(bad)
    assert "parse_form_tag" not in idmps.__all__


def test_verify_vidal_constructed_state():
    rng = np.random.default_rng(38)
    m = from_dense_vidal(random_tensor(rng, (3, 3, 3)))
    rep = verify_vidal(m, tol=1e-8)
    assert rep.passed
    assert max(rep.residuals) <= 1e-10


def test_verify_vidal_detects_doubled_weight():
    rng = np.random.default_rng(39)
    m = from_dense_vidal(random_tensor(rng, (3, 3, 3)))
    bad_bonds = list(m.bonds)
    vals = bad_bonds[0].values.copy()
    vals[0] *= 2.0
    bad_bonds[0] = BondSpectrum(vals)
    bad = MatrixProductState(sites=m.sites, bonds=tuple(bad_bonds), form="vidal")
    assert not verify_vidal(bad, tol=1e-8).passed


def test_verify_vidal_form_mismatch():
    m = from_dense_left_canonical(ghz_tensor())
    with pytest.raises(FormMismatch):
        verify_vidal(m)
    v = from_dense_vidal(ghz_tensor())
    stripped = MatrixProductState(sites=v.sites, bonds=None, form="vidal")
    with pytest.raises(FormMismatch):
        verify_vidal(stripped)


def test_verify_dispatches_on_the_claimed_form():
    rng = np.random.default_rng(43)
    t = random_tensor(rng, (2, 3, 3, 2))
    keys = {
        "left": ["form", "residuals", "worst_site", "boundary_site", "boundary_scalar", "passed", "tol"],
        "right": ["form", "residuals", "worst_site", "boundary_site", "boundary_scalar", "passed", "tol"],
        "mixed:2": ["form", "residuals", "worst_site", "boundary_scalar", "passed", "tol"],
        "vidal": ["form", "residuals", "passed", "tol"],
    }
    states = {
        "left": from_dense_left_canonical(t),
        "right": from_dense_right_canonical(t),
        "mixed:2": from_dense_mixed_canonical(t, 2),
        "vidal": from_dense_vidal(t),
    }
    for tag, m in states.items():
        rep = verify(m)
        assert rep.passed and rep.tol == 1e-10, tag
        assert list(rep.as_dict()) == keys[tag]
        assert rep.form == tag
    left = verify(states["left"], 1e-9)
    assert left.residuals == verify_left_normalized(states["left"], 1e-9).residuals
    assert verify(states["vidal"]).residuals == verify_vidal(states["vidal"]).residuals
    mixed = verify(states["mixed:2"])
    assert mixed.boundary_scalar == pytest.approx(tensor_norm(t) ** 2)
    assert mixed.residuals[:2] == tuple(site_left_residual(s) for s in states["mixed:2"].sites[:2])
    assert mixed.residuals[2:] == tuple(site_right_residual(s) for s in states["mixed:2"].sites[2:])


def test_verify_rejects_unverifiable_states():
    m = from_dense_mixed_canonical(ghz_tensor(), 2)
    with pytest.raises(FormMismatch):
        verify(MatrixProductState(sites=m.sites, form="mixed", center=2))
    with pytest.raises(FormMismatch):
        verify(MatrixProductState(sites=m.sites))


def test_verify_vidal_product_state():
    assert verify_vidal(from_dense_vidal(product_tensor())).passed


# ----------------------------------------------------------------- truncation


def test_truncate_ghz_to_chi_one():
    m = from_dense_vidal(ghz_tensor())
    out, errors = truncate(m, TruncationPolicy(max_bond=1))
    assert out.bond_dims == (1, 1)
    assert out.form == "vidal"
    np.testing.assert_allclose(errors, [2**-0.5, 2**-0.5], atol=1e-12)
    dense = to_dense(out)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 2**-0.5
    np.testing.assert_allclose(dense.data, expected, atol=1e-12)


def test_truncate_weight_tol_paths():
    m = from_dense_vidal(ghz_tensor())
    out, errors = truncate(m, TruncationPolicy(weight_tol=0.8))
    assert out.bond_dims == (1, 1)
    out, errors = truncate(m, TruncationPolicy(weight_tol=0.5))
    assert out.bond_dims == (2, 2)
    assert errors == [0.0, 0.0]


def test_truncate_no_op_when_policy_is_loose():
    rng = np.random.default_rng(40)
    m = from_dense_vidal(random_tensor(rng, (3, 3, 3)))
    out, errors = truncate(m, TruncationPolicy(max_bond=99))
    assert errors == [0.0, 0.0]
    assert all(
        np.array_equal(a.data, b.data) for a, b in zip(out.sites, m.sites)
    )


def test_truncate_dense_difference_bound():
    rng = np.random.default_rng(41)
    t = random_tensor(rng, (4, 4, 4))
    m = from_dense_vidal(t)
    out, errors = truncate(m, TruncationPolicy(max_bond=2))
    diff = np.linalg.norm(to_dense(out).data - to_dense(m).data)
    assert diff <= np.sqrt(np.sum(np.asarray(errors) ** 2)) + 1e-9


def test_truncate_vidal_output_passes_verify_vidal():
    # Slicing Gamma and lambda in place breaks the canonical form; the
    # sliced chain must be re-canonicalized.
    for seed in range(20):
        t = random_tensor(np.random.default_rng(seed), (3, 2, 3, 2, 3))
        out, errors = truncate(from_dense_vidal(t), TruncationPolicy(max_bond=3))
        assert out.form == "vidal" and max(out.bond_dims) <= 3
        assert verify_vidal(out, 1e-8).passed, seed
        distance = np.linalg.norm(t.data - to_dense(out).data)
        assert all(err <= distance + 1e-10 for err in errors), seed


def test_truncate_non_vidal_returns_canonical_form():
    rng = np.random.default_rng(42)
    t = random_tensor(rng, (3, 3, 3))
    m = from_dense_left_canonical(t)
    out, errors = truncate(m, TruncationPolicy(max_bond=2))
    assert out.form == "vidal"
    assert all(d <= 2 for d in out.bond_dims)
    assert len(errors) == 2


@pytest.mark.parametrize("form", ["left", "right", "mixed"])
@pytest.mark.parametrize(
    "policy", [TruncationPolicy(max_bond=3), TruncationPolicy(weight_tol=6.0)], ids=["chi", "tol"]
)
def test_truncate_non_vidal_matches_dense_oracle(form, policy):
    # The oracle is the dense path: contract, then one truncating Vidal
    # construction. Slicing an exact Vidal form is not an oracle here:
    # its later cuts drop weight measured before the earlier cuts truncate.
    rng = np.random.default_rng(46)
    t = random_tensor(rng, (3, 2, 3, 2, 3))
    m = dict(ALL_FORMS)[form](t)
    out, errors = truncate(m, policy)
    ref = from_dense_vidal(to_dense(m), policy)
    # Discarded weights of the same left-to-right sweep over the dense data.
    ref_errors, rest = [], to_dense(m).data.reshape(1, -1)
    for d, keep in zip(t.shape, ref.bond_dims):
        _, s, vh = np.linalg.svd(rest.reshape(rest.shape[0] * d, -1), full_matrices=False)
        ref_errors.append(low_rank_error(s, keep))
        rest = s[:keep, None] * vh[:keep]
    assert out.bond_dims == ref.bond_dims
    assert max(errors) > 0.0
    np.testing.assert_allclose(errors, ref_errors, atol=1e-10)
    np.testing.assert_allclose(to_dense(out).data, to_dense(ref).data, atol=1e-10)
    assert verify_vidal(out).passed


def test_truncate_zero_non_vidal_state_rejected():
    policy = TruncationPolicy(max_bond=1)
    zero_sites = (SiteTensor(2, 1, 2, np.zeros(4)), SiteTensor(2, 2, 1, np.zeros(4)))
    # Nonzero sites whose bond vectors are orthogonal also contract to zero.
    orthogonal = (SiteTensor(1, 1, 2, np.array([1.0, 0.0])), SiteTensor(1, 2, 1, np.array([0.0, 1.0])))
    for sites in (zero_sites, orthogonal, (SiteTensor(3, 1, 1, np.zeros(3)),)):
        for form in ("left", "unknown"):
            with pytest.raises(ZeroState):
                truncate(MatrixProductState(sites=sites, form=form), policy)


def test_truncate_requires_policy():
    m = from_dense_vidal(ghz_tensor())
    with pytest.raises(PolicyEmpty):
        truncate(m, None)


# ------------------------------------------------------- spectra and entropy


def test_bond_spectrum_and_entropy_ghz():
    for name, build in ALL_FORMS:
        m = build(ghz_tensor())
        for cut in (1, 2):
            np.testing.assert_allclose(
                bond_spectrum(m, cut).values, [2**-0.5, 2**-0.5], atol=1e-10
            )
            assert entanglement_entropy(m, cut) == pytest.approx(np.log(2), abs=1e-10)


def test_bond_spectrum_product_state():
    m = from_dense_right_canonical(product_tensor())
    assert bond_spectrum(m, 1).values.tolist() == [pytest.approx(1.0)]
    assert entanglement_entropy(m, 2) == pytest.approx(0.0, abs=1e-12)


def test_bond_spectrum_cut_range():
    m = from_dense_right_canonical(ghz_tensor())
    for cut in (0, 3):
        with pytest.raises(CutOutOfRange):
            bond_spectrum(m, cut)


@pytest.mark.parametrize("bad", [1.0, True, np.float64(1.0), "1", None])
def test_a_cut_or_site_that_is_not_an_integer_is_out_of_range(bad):
    """Cuts go through one check, which takes integers (NumPy's too) but no bool or float."""
    t = ghz_tensor()
    m = from_dense_right_canonical(t)
    for call in (lambda: bond_spectrum(m, bad), lambda: matricize(t, bad)):
        with pytest.raises(CutOutOfRange, match="cut must be in 1..2"):
            call()
    with pytest.raises(IndexOutOfRange, match="site must be in 1..3"):
        apply_site_map(m, bad, np.ones(2), 0)
    assert np.array_equal(bond_spectrum(m, np.int64(1)).values, bond_spectrum(m, 1).values)


@pytest.mark.parametrize("rank_tol", [-1.0, -1e-300, 1.0, 2.0, np.nan, np.inf])
def test_every_rank_cut_rejects_a_tolerance_outside_0_to_1(rank_tol):
    t = ghz_tensor()
    calls = [
        lambda: svd(matricize(t, 1), rank_tol),
        lambda: schmidt_decompose(t, 1, rank_tol),
        lambda: from_dense_left_canonical(t, rank_tol=rank_tol),
        lambda: from_dense_mixed_canonical(t, 1, rank_tol=rank_tol),
        *(lambda form=form: decompose(t, form, rank_tol=rank_tol) for form in ("left", "right", "vidal")),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"rank_tol must be in \[0, 1\)"):
            call()


def test_bond_spectrum_matches_schmidt_for_all_forms():
    rng = np.random.default_rng(43)
    t = random_tensor(rng, (3, 3, 3))
    ref = {cut: schmidt_decompose(t, cut).coefficients for cut in (1, 2)}
    for name, build in ALL_FORMS:
        m = build(t)
        for cut in (1, 2):
            np.testing.assert_allclose(
                bond_spectrum(m, cut).values, ref[cut], atol=1e-10, err_msg=name
            )


def test_bond_spectrum_without_stored_weights_runs_no_svd(monkeypatch):
    counted = []
    svd = idmps.mps.svd

    def counting_svd(*args, **kwargs):
        counted.append(1)
        return svd(*args, **kwargs)

    t = random_tensor(np.random.default_rng(47), (2, 3, 2, 3, 2))
    states = [decompose(t, form, center)[0] for form, center in
              [("left", None), ("right", None), ("mixed", 2), ("mixed", 3)]]
    states.append(MatrixProductState(sites=states[0].sites))  # the unknown form
    monkeypatch.setattr(idmps.mps, "svd", counting_svd)
    for m in states:
        for cut in range(1, 5):
            if m.form == "mixed" and cut == m.center:
                continue  # the stored center weights
            bond_spectrum(m, cut)
    assert counted == []


def test_bond_spectrum_of_a_zero_chain_raises():
    site = SiteTensor(2, 1, 1, np.zeros(2, dtype=complex))
    with pytest.raises(ZeroState):
        bond_spectrum(MatrixProductState(sites=(site, site)), 1)


# ----------------------------------------------------- coefficient evaluation


def test_coefficient_ghz_entries():
    m = from_dense_right_canonical(ghz_tensor())
    assert coefficient(m, (0, 0, 0)) == pytest.approx(2**-0.5, abs=1e-12)
    assert coefficient(m, (0, 1, 0)) == pytest.approx(0.0, abs=1e-12)
    assert coefficient(m, (1, 1, 1)) == pytest.approx(2**-0.5, abs=1e-12)


def test_coefficient_index_validation():
    m = from_dense_right_canonical(ghz_tensor())
    with pytest.raises(IndexOutOfRange):
        coefficient(m, (0, 0))
    with pytest.raises(IndexOutOfRange):
        coefficient(m, (0, 2, 0))


def test_coefficient_names_the_leftmost_bad_index():
    m = from_dense_right_canonical(ghz_tensor())
    with pytest.raises(IndexOutOfRange, match=r"index 5 outside 0\.\.1 at site 2$"):
        coefficient(m, (0, 5, 7))
    with pytest.raises(IndexOutOfRange, match=r"index -1 outside 0\.\.1 at site 1$"):
        coefficient(m, (-1, 9, 2))


@pytest.mark.parametrize("bad", [1.7, 1.0, "1"], ids=["fraction", "integral-float", "string"])
def test_coefficient_rejects_a_non_integer_index(bad):
    m = from_dense_right_canonical(ghz_tensor())
    with pytest.raises(IndexOutOfRange, match=rf"index {bad!r} at site 2 is not an integer$"):
        coefficient(m, (0, bad, 0))
    with pytest.raises(IndexOutOfRange, match=rf"index {bad!r} at site 1 is not an integer$"):
        apply_site_map(m, 1, np.ones(2), bad)


@pytest.mark.parametrize("bad", [True, np.bool_(True)], ids=["bool", "numpy-bool"])
def test_a_physical_index_that_is_a_bool_is_not_an_integer(bad):
    """A bool is no physical index (test_coefficient_rejects_a_non_integer_index
    has the floats and the string)."""
    m = from_dense_right_canonical(ghz_tensor())
    with pytest.raises(IndexOutOfRange, match=rf"index {bad!r} at site 1 is not an integer$"):
        coefficient(m, [bad, 0, 0])
    with pytest.raises(IndexOutOfRange, match=rf"index {bad!r} at site 3 is not an integer$"):
        apply_site_map(m, 3, np.ones(1), bad)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_apply_site_map_takes_numpy_integers(kind):
    m = from_dense_right_canonical(ghz_tensor())
    x = np.array([0.5, 2.0])
    assert np.array_equal(apply_site_map(m, kind(2), x, kind(1)), apply_site_map(m, 2, x, 1))


def test_coefficient_takes_numpy_integers():
    m = from_dense_right_canonical(ghz_tensor())
    assert coefficient(m, (np.int64(1), np.int32(1), np.uint8(1))) == coefficient(m, (1, 1, 1))


def twelve_site_chain():
    """A random d = 2, bond-3 chain of 12 sites, and the first and last
    sites (1-based) of the middle that its coefficient tables leave."""
    rng = np.random.default_rng(46)
    dims = [1] + [3] * 11 + [1]
    sites = tuple(
        SiteTensor(2, left, right, rng.standard_normal(2 * left * right) + 1j * rng.standard_normal(2 * left * right))
        for left, right in zip(dims, dims[1:])
    )
    m = MatrixProductState(sites=sites)
    left, right = m._envs
    first, last = left.ndim, m.num_sites - right.ndim + 1
    assert 1 < first <= last < m.num_sites  # a non-empty prefix, middle and suffix
    return m, first, last


@pytest.mark.parametrize("bad", [2, -1, 1.0, "1"], ids=["too-large", "negative", "float", "string"])
@pytest.mark.parametrize("part", ["prefix", "middle", "suffix"])
def test_coefficient_on_tables_names_the_leftmost_bad_index(bad, part):
    m, first, last = twelve_site_chain()
    site = {"prefix": first - 1, "middle": first, "suffix": last + 1}[part]
    if isinstance(bad, int):
        message = f"physical index {bad} outside 0..1 at site {site}"
    else:
        message = f"physical index {bad!r} at site {site} is not an integer"
    idx = [0] * m.num_sites
    idx[site - 1] = bad
    for later in (0, 9):  # alone, then with a second bad index at the last site
        idx[-1] = later
        with pytest.raises(IndexOutOfRange) as exc:
            coefficient(m, idx)
        assert str(exc.value) == message


def test_coefficient_on_tables_takes_any_integer_sequence():
    m, _, _ = twelve_site_chain()
    dense = to_dense(m)
    bound = 1e-12 * tensor_norm(dense)
    rng = np.random.default_rng(47)
    for idx in rng.integers(0, 2, size=(16, m.num_sites)).tolist():
        want = coefficient(m, idx)
        assert abs(want - dense.as_array()[tuple(idx)]) <= bound
        assert coefficient(m, tuple(idx)) == want
        assert coefficient(m, (k for k in idx)) == want
        assert coefficient(m, np.array(idx)) == want
        assert coefficient(m, [np.int64(k) for k in idx]) == want


def test_apply_site_map_identity_and_zero_slices():
    ident = SiteTensor(1, 2, 2, np.eye(2, dtype=complex).reshape(-1))
    end_l = SiteTensor(2, 1, 2, np.array([1, 0, 0, 1], dtype=complex))
    end_r = SiteTensor(2, 2, 1, np.array([1, 0, 0, 1], dtype=complex))
    m = MatrixProductState(sites=(end_l, ident, end_r))
    x = np.array([2.0, 3.0], dtype=complex)
    np.testing.assert_allclose(apply_site_map(m, 2, x, 0), x)
    zero = SiteTensor(1, 2, 2, np.zeros(4, dtype=complex))
    mz = MatrixProductState(sites=(end_l, zero, end_r))
    np.testing.assert_allclose(apply_site_map(mz, 2, x, 0), np.zeros(2))


def test_apply_site_map_validation():
    m = from_dense_right_canonical(ghz_tensor())
    with pytest.raises(IndexOutOfRange):
        apply_site_map(m, 4, np.ones(1), 0)
    with pytest.raises(IndexOutOfRange):
        apply_site_map(m, 1, np.ones(2), 5)
    with pytest.raises(LengthMismatch):
        apply_site_map(m, 1, np.ones(3), 0)


def test_coefficient_matches_dense_for_random_forms():
    rng = np.random.default_rng(44)
    t = random_tensor(rng, (2, 3, 2))
    arr = t.as_array()
    for name, build in ALL_FORMS:
        m = build(t)
        for idx in np.ndindex(*t.shape):
            assert coefficient(m, idx) == pytest.approx(arr[idx], abs=1e-12), name


def test_low_rank_error_consistency_with_truncate():
    rng = np.random.default_rng(45)
    t = random_tensor(rng, (4, 4))
    m = from_dense_vidal(t)
    lam = m.bonds[0].values
    _, errors = truncate(m, TruncationPolicy(max_bond=2))
    assert errors[0] == pytest.approx(low_rank_error(lam, 2), abs=1e-14)


def test_state_norm_matches_dense_norm_on_every_form():
    rng = np.random.default_rng(46)
    for shape in [(3,), (2, 2), (4, 3, 5, 2), (2, 3, 2, 3, 2)]:
        t = random_tensor(rng, shape)
        builders = ALL_FORMS if len(shape) >= 3 else ALL_FORMS[:2] + ALL_FORMS[3:]
        states = [(name, build(t)) for name, build in builders]
        if len(shape) >= 2:
            vidal = from_dense_vidal(t)
            states.append(("truncated", truncate(vidal, TruncationPolicy(max_bond=2))[0]))
        dims = [1] + [3] * (len(shape) - 1) + [1]
        sites = tuple(
            SiteTensor(d, dims[n], dims[n + 1], rng.standard_normal(d * dims[n] * dims[n + 1]) * 1j)
            for n, d in enumerate(shape)
        )
        states.append(("unknown", MatrixProductState(sites=sites)))
        for name, m in states:
            assert state_norm(m) == pytest.approx(tensor_norm(to_dense(m)), rel=1e-12), (name, shape)


def test_norm_and_residuals_peak_memory_does_not_grow_with_the_site():
    """A (200, 61, 61) site, the oscillator's middle site at 11.9 MB,
    contracts within a fixed 3 MiB of traced memory: the transfer step
    holds one slab of physical indices at a time. A copy of the whole
    block, as its conjugate or its product with the environment, would
    exceed it."""
    rng = np.random.default_rng(47)
    size = 200 * 61 * 61
    data = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    edge = np.ones(200 * 61, dtype=complex)
    m = MatrixProductState(
        sites=(SiteTensor(200, 1, 61, edge), SiteTensor(200, 61, 61, data), SiteTensor(200, 61, 1, edge))
    )
    for query, arg in [(state_norm, m), (site_left_residual, m.sites[1]), (site_right_residual, m.sites[1])]:
        tracemalloc.start()
        try:
            query(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20, (query.__name__, peak)


@pytest.mark.parametrize("form", ["left", "vidal"])
def test_dense_sweep_holds_one_unfolding_and_one_factor(form):
    """Beside the caller's 1 MiB tensor, decomposing it (bonds capped at 4,
    so the sites are small) holds at most one unfolding and one SVD
    factor, each at most the tensor's size, and numpy's 128 KiB buffer
    for the S Vh cast. Copies of full-size factors in ``svd``, or a new
    S Vh beside Vh, would exceed it."""
    t = random_tensor(np.random.default_rng(49), (2,) * 16)
    tracemalloc.start()
    try:
        decompose(t, form, None, TruncationPolicy(max_bond=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * t.data.nbytes + (1 << 18), peak


def test_wide_factor_slabs_are_never_narrower_than_the_factor():
    """A 256 x 1024 unfolding: slabs of ``_SLAB >> 2`` entries would be 64
    columns, and carrying the 256 x 256 R through 16 QRs of 320 rows would
    cost more than the SVD the factor replaces. Each slab has as many columns
    as the matrix has rows, so there are 4."""
    rng = np.random.default_rng(50)
    a = rng.standard_normal((256, 1024)) + 1j * rng.standard_normal((256, 1024))
    with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        left = _wide_factor(a)
    assert qr.call_count == 4
    assert np.max(np.abs(left @ left.conj().T - a @ a.conj().T)) <= 1e-13 * np.linalg.norm(a) ** 2


def test_verify_vidal_peak_memory_holds_one_weighted_block_at_a_time():
    """A fresh full-rank d=2, N=16 Vidal state (2.7 MiB of sites) verifies
    within 7.5 MiB of traced memory: the check builds the cached chain,
    one copy of the state, and makes the blocks lambda Gamma of the other
    side one at a time. A weighted copy of every site beside the chain
    would exceed it."""
    m = from_dense_vidal(random_tensor(np.random.default_rng(48), (2,) * 16))
    tracemalloc.start()
    try:
        rep = verify_vidal(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 7.5 * 2**20, peak


def chain_past_the_float_range(far_scale=1.0):
    """The mixed:1 state of [[3, 1], [1, 2]] with site 1 replaced by [big, 0, 0, 0],
    big the largest double, and site 2 times ``far_scale``. The center weights
    (3.6 and 1.4) multiply big, so the folded chain overflows; the state's norm
    is big * 3.6 * far_scale."""
    m = decompose(tensor_new((2, 2), [3, 1, 1, 2]), "mixed", 1)[0]
    first = SiteTensor(2, 1, 2, np.array([np.finfo(float).max, 0, 0, 0]))
    second = SiteTensor(2, 2, 1, far_scale * m.sites[1].data)
    return MatrixProductState(sites=(first, second), bonds=m.bonds, form="mixed", center=1)


def test_queries_on_a_chain_past_the_float_range_fail_without_a_warning():
    """Its norm (about 6.5e308) is inf; coefficient raises OverflowError, as
    to_dense does, and truncate ConvergenceFailure, none with a numpy warning."""
    m = chain_past_the_float_range()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert state_norm(m) == np.inf
        for query in (to_dense, lambda s: coefficient(s, (0, 0)), lambda s: coefficient(s, (1, 1))):
            with pytest.raises(OverflowError):
                query(m)
        with pytest.raises(ConvergenceFailure):
            truncate(m, TruncationPolicy(max_bond=1))


def test_coefficient_of_a_chain_whose_products_overflow_raises_as_to_dense_does():
    """Every site is finite, but the slice products of the prefix and suffix
    tables leave the double range: coefficient raises OverflowError, as
    to_dense does, without a numpy warning."""
    rng = np.random.default_rng(29)
    dims = [(1, 2), (2, 2), (2, 2), (2, 1)]
    sites = tuple(SiteTensor(2, a, b, 1e200 * rng.standard_normal(2 * a * b)) for a, b in dims)
    m = MatrixProductState(sites=sites, form="left")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in (to_dense, lambda s: coefficient(s, (0, 0, 0, 0)), lambda s: coefficient(s, (1, 0, 1, 1))):
            with pytest.raises(OverflowError):
                query(m)


def test_schmidt_queries_on_a_bond_matrix_past_the_float_range_fail_without_a_warning():
    """Site 1 of the left form of [[3, 1], [1, 2]] replaced by two largest
    doubles: the bond matrix overflows, and both queries raise
    ConvergenceFailure without a numpy warning."""
    m = decompose(tensor_new((2, 2), [3, 1, 1, 2]), "left")[0]
    big = np.finfo(float).max
    first = SiteTensor(2, 1, 2, np.array([big, big, 0, 0]))
    s = MatrixProductState(sites=(first, m.sites[1]), form="left")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in (bond_spectrum, entanglement_entropy):
            with pytest.raises(ConvergenceFailure):
                query(s, 1)


def test_state_norm_is_finite_where_only_the_folded_chain_overflows():
    """state_norm applies the weights to the environment, not to the sites,
    so a far site small enough to bring the norm into range gives its value."""
    m = chain_past_the_float_range(1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = state_norm(m)
    assert norm == pytest.approx(np.finfo(float).max * (m.bonds[0].values[0] * 1e-10), rel=1e-12)


@pytest.mark.parametrize("form, center", [("vidal", None), ("mixed", 1)])
def test_weighted_forms_of_a_subnormal_state_say_why_they_fail(form, center):
    """The one weight is 1e-320, so a site divided by it would exceed the
    double range: the error says the form cannot represent the state."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceFailure, match=r"cannot represent a state so small .*1e-320") as info:
            decompose(tensor_new((2, 2), [1e-320, 0, 0, 0]), form, center)
    assert "divi" not in str(info.value)
