import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from math import comb, factorial, log, pi, sqrt

import idmps.oscillator
from idmps import (
    DegreeTooLarge,
    IndexOutOfRange,
    InsufficientNodes,
    OscillatorParams,
    alpha,
    basis_f,
    bond_spectrum,
    build_bundle,
    coeff_C,
    direction_cosines,
    element_decay_table,
    gamma,
    hermite,
    integral_I_closed,
    integral_I_quadrature,
    oscillator_dense,
    state_norm,
    tensor_norm,
    wavefunction_direct,
    wavefunction_mps,
)
from idmps.oscillator import MAX_PHYS_CUTOFF, _mixing_weights, _overlap_table
from test_tensor import NOT_INTEGER_IDS, NOT_INTEGERS

# n=1 at unit frequency with theta = varphi = pi/4, phi = 0 gives the
# direction (1/sqrt2, -1/2, 1/2), hence alpha = (1/2, 1/2) and
# gamma = (3/4, 1/4)
WORKED = dict(n=1, omega_tilde=1.0, theta=pi / 4, phi=0.0, varphi=pi / 4, phys_cutoff=8)


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(n=-1, omega_tilde=1.0, theta=0, phi=0, varphi=0, phys_cutoff=4)
    with pytest.raises(ValueError):
        OscillatorParams(n=1, omega_tilde=0.0, theta=0, phi=0, varphi=0, phys_cutoff=4)
    with pytest.raises(ValueError):
        OscillatorParams(n=1, omega_tilde=1.0, theta=0, phi=0, varphi=0, phys_cutoff=1)
    with pytest.raises(ValueError):
        OscillatorParams(n=1, omega_tilde=1.0, theta=0, phi=0, varphi=0, phys_cutoff=MAX_PHYS_CUTOFF + 1)


def test_direction_is_unit_vector():
    rng = np.random.default_rng(51)
    for _ in range(25):
        th, ph, vp = rng.uniform(-2 * pi, 2 * pi, 3)
        p = OscillatorParams(n=1, omega_tilde=1.0, theta=th, phi=ph, varphi=vp, phys_cutoff=2)
        u1, u2, u3 = direction_cosines(p)
        assert u1 * u1 + u2 * u2 + u3 * u3 == pytest.approx(1.0, abs=1e-12)


def test_hermite_values():
    assert hermite(0, 0.7) == 1.0
    assert hermite(1, 0.7) == pytest.approx(1.4)
    assert hermite(4, 1.0) == pytest.approx(-20.0)
    xs = np.linspace(-2, 2, 7)
    np.testing.assert_allclose(hermite(2, xs), 4 * xs**2 - 2, atol=1e-12)


def test_hermite_degree_bounds():
    with pytest.raises(DegreeTooLarge):
        hermite(-1, 0.0)
    with pytest.raises(DegreeTooLarge):
        hermite(201, 0.0)
    assert np.isfinite(hermite(200, 1.0)) or hermite(200, 1.0) != 0


def test_basis_f_values_and_orthonormality():
    assert basis_f(1, 0, 0.0) == pytest.approx(pi**-0.25, abs=1e-14)
    # orthonormality under int f_i f_j dx via 40-node quadrature
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    for i in range(6):
        for j in range(6):
            # f_i f_j e^{x^2} is the polynomial H_i H_j / norm factors
            norm = sqrt(2.0 ** (i + j) * factorial(i) * factorial(j) * pi)
            val = float(np.dot(weights, hermite(i, nodes) * hermite(j, nodes)) / norm)
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)
    xs = np.linspace(-3, 3, 11)
    f2 = basis_f(2, 2, xs)
    ref = np.exp(-(xs**2) / 2) * (4 * xs**2 - 2) / sqrt(2**2 * 2 * sqrt(pi))
    np.testing.assert_allclose(f2, ref, atol=1e-12)


def test_basis_f_validation():
    with pytest.raises(ValueError):
        basis_f(0, 1, 0.0)
    with pytest.raises(DegreeTooLarge):
        basis_f(1, 201, 0.0)


@pytest.mark.parametrize(
    "x", [np.nan, np.inf, -np.inf, [0.0, np.nan]], ids=["nan", "inf", "-inf", "array-with-nan"]
)
def test_basis_f_rejects_a_coordinate_that_is_not_finite(x):
    """basis_f takes hermite's coordinate rule: a value that is not finite is a ValueError,
    not nan (or 0.0 past the recurrence's clip at |x| = 39)."""
    with pytest.raises(ValueError, match="must be finite"):
        basis_f(1, 3, x)


def test_coeff_C_values():
    assert coeff_C(0, 0, 1.0) == pytest.approx(pi**-0.5, rel=1e-12)
    assert coeff_C(1, 0, 1.0) == pytest.approx(1.0 / sqrt(2 * pi), rel=1e-12)
    # large indices stay finite and match the direct formula in logs
    direct = exp_ref = 0.25 * log(2.0) - 0.5 * (
        log(pi) + 20 * log(2.0) + 2 * sum(log(k) for k in range(1, 11))
    )
    assert coeff_C(10, 10, 2.0) == pytest.approx(np.exp(direct), rel=1e-12)
    with pytest.raises(ValueError):
        coeff_C(-1, 0, 1.0)


def test_integral_closed_form_pinned_values():
    for w in (0.5, 1.0, 1.3, 2.0, 5.0):
        assert integral_I_closed(0, 0, w) == pytest.approx(sqrt(2 * pi / (1 + w)), abs=1e-12)
    for i in range(8):
        assert integral_I_closed(i, i, 1.0) == pytest.approx(
            sqrt(pi) * 2**i * factorial(i), rel=1e-10
        )
    w = 2.0
    assert integral_I_closed(2, 0, w) == pytest.approx(
        sqrt(2 * pi / (1 + w)) * 2 * (1 - w) / (1 + w), rel=1e-12
    )
    # swapped order flips the sign of the (1-w) factor
    assert integral_I_closed(0, 2, w) == pytest.approx(
        -integral_I_closed(2, 0, w), rel=1e-12
    )


def test_integral_parity_zeros_are_exact():
    for i in range(6):
        for j in range(6):
            if (i + j) % 2 == 1:
                assert integral_I_closed(i, j, 1.7) == 0.0


def test_integral_closed_vs_quadrature():
    for w in (0.5, 1.3, 2.0):
        for i in range(0, 13, 3):
            for j in range(i % 2, 13, 2):
                c = integral_I_closed(i, j, w)
                q = integral_I_quadrature(i, j, w)
                assert q == pytest.approx(c, rel=1e-9, abs=1e-12)


def test_integrals_reject_a_negative_index_and_a_degree_past_the_cap():
    with pytest.raises(ValueError, match=r"indices must be >= 0, got \(-1, 0\)"):
        integral_I_closed(-1, 0, 1.0)
    cap = idmps.oscillator.MAX_HERMITE_DEGREE
    with pytest.raises(DegreeTooLarge, match=rf"degrees must be <= {cap}, got \({cap + 1}, 1\)"):
        integral_I_quadrature(cap + 1, 1, 1.0, points=120)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, idmps.oscillator.MAX_HERMITE_DEGREE),
    st.integers(0, idmps.oscillator.MAX_HERMITE_DEGREE),
    st.floats(0.01, 100.0),
)
# Points where the alternating sum used to cancel to garbage or overflow.
@example(110, 110, 3.0)
@example(120, 118, 3.0)
@example(199, 99, 3.0)
@example(150, 100, 10.0)
@example(60, 40, 0.1)
@example(114, 200, 1.0)
@example(114, 200, 1.0001)
@example(200, 200, 0.37)
def test_integral_closed_form_is_exact_over_the_whole_degree_range(i, j, w):
    try:
        closed = integral_I_closed(i, j, w)
    except DegreeTooLarge:
        with pytest.raises(DegreeTooLarge):
            integral_I_quadrature(i, j, w, points=(i + j) // 2 + 2)
        return
    try:
        quad = integral_I_quadrature(i, j, w, points=(i + j) // 2 + 2)
    except DegreeTooLarge:
        # Near w = 1 at high degree the rule's long-double terms cancel from
        # beyond the double range and leave no reference; the overlap itself
        # is then below the tolerance (at w = 1 it is exactly 0 for i != j).
        assert abs(coeff_C(i, j, w) * closed) <= 1e-12, (i, j, w)
        return
    assert abs(coeff_C(i, j, w) * (closed - quad)) <= 1e-12, (i, j, w)


@pytest.mark.parametrize("i, j, w", [(114, 200, 1.0), (114, 200, 1.0001), (200, 200, 0.37)])
def test_integral_quadrature_raises_where_its_result_is_not_finite(i, j, w):
    """I is 0 at the first point and 5.45e171 at the second, but the rule's
    terms cancel from beyond the long-double range; at the third |I|
    itself leaves the double range. None of them may come back as ±inf."""
    with pytest.raises(DegreeTooLarge, match="double-precision range"):
        integral_I_quadrature(i, j, w, points=(i + j) // 2 + 2)


def test_integral_closed_form_raises_where_the_integral_overflows():
    assert integral_I_closed(150, 150, 1.0) == pytest.approx(
        sqrt(pi) * 2**150 * factorial(150), rel=1e-15
    )
    for i, j, w in [(151, 151, 1.0), (200, 200, 0.37)]:
        with pytest.raises(DegreeTooLarge, match="double-precision range"):
            integral_I_closed(i, j, w)


def test_integral_quadrature_node_requirement():
    with pytest.raises(InsufficientNodes):
        integral_I_quadrature(5, 5, 1.0, points=5)
    # 6 nodes integrate degree 10 exactly
    assert integral_I_quadrature(5, 5, 1.0, points=6) == pytest.approx(
        integral_I_closed(5, 5, 1.0), rel=1e-10
    )
    with pytest.raises(ValueError):
        integral_I_quadrature(-1, 0, 1.0)


def test_alpha_gamma_worked_example():
    p = OscillatorParams(**WORKED)
    u = direction_cosines(p)
    assert u[0] == pytest.approx(2**-0.5)
    assert u[1] == pytest.approx(-0.5)
    assert u[2] == pytest.approx(0.5)
    assert [alpha(a, p) for a in (0, 1)] == [pytest.approx(0.5), pytest.approx(0.5)]
    assert [gamma(b, p) for b in (0, 1)] == [pytest.approx(0.75), pytest.approx(0.25)]
    with pytest.raises(IndexOutOfRange):
        alpha(2, p)
    with pytest.raises(IndexOutOfRange):
        gamma(-1, p)


def test_alpha_gamma_are_binomial_distributions():
    rng = np.random.default_rng(52)
    for _ in range(20):
        th, ph, vp = rng.uniform(0, 2 * pi, 3)
        p = OscillatorParams(n=6, omega_tilde=1.4, theta=th, phi=ph, varphi=vp, phys_cutoff=7)
        assert sum(alpha(a, p) for a in range(7)) == pytest.approx(1.0, abs=1e-12)
        assert sum(gamma(b, p) for b in range(7)) == pytest.approx(1.0, abs=1e-12)
        u1, _, _ = direction_cosines(p)
        assert alpha(3, p) == pytest.approx(comb(6, 3) * u1**6 * (1 - u1**2) ** 3, abs=1e-12)


def test_bundle_delta_structure_at_unit_frequency():
    p = OscillatorParams(**WORKED)
    b = build_bundle(p)
    # at unit frequency the basis change is the identity: a1[k, a] = delta
    np.testing.assert_allclose(b.a1, np.eye(8)[:, :2], atol=1e-12)
    assert b.mps.bond_dims == (2, 2)
    assert b.mps.form == "unknown"


def test_bundle_a2_exactly_symmetric():
    p = OscillatorParams(n=3, omega_tilde=1.8, theta=0.9, phi=0.3, varphi=2.1, phys_cutoff=9)
    b = build_bundle(p)
    assert np.array_equal(b.a2, b.a2.transpose(0, 2, 1))
    # lanes beyond the quanta budget vanish
    assert np.all(b.a2[:, 3, 1:] == 0.0)


def _stored_a2_construction(p):
    """a1, a2, a3 and the three site arrays as build_bundle made them while
    the bundle stored a2: a fill loop over the lanes, and the middle site
    as the product a2 * weights."""
    n, d = p.n, p.phys_cutoff
    ci = _overlap_table(d, n + 1, p.omega_tilde)
    a2 = np.zeros((d, n + 1, n + 1))
    for a in range(n + 1):
        for b in range(n + 1 - a):
            a2[:, a, b] = ci[:, n - a - b]
    a3 = ci * np.sqrt(np.array([gamma(b, p) for b in range(n + 1)]))[None, :]
    sites = (ci.reshape(d, 1, n + 1), a2 * _mixing_weights(p)[None, :, :], a3.reshape(d, n + 1, 1))
    return ci, a2, a3, sites


def _assert_same_bits(got, want):
    """Equal values, dtypes and shapes, and no -0.0 where the reference has +0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    g, w = (np.ascontiguousarray(x).view(float) for x in (got, want))
    assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


angles = st.one_of(st.sampled_from([0.0, pi / 2, pi, -pi / 2]), st.floats(-2 * pi, 2 * pi))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.floats(0.1, 10.0), angles, angles, angles)
@example(3, 2, 1.7, 0.0, 2.5, 0.4)  # theta = 0: zero-weight lanes, u1 = -0.0
def test_bundle_matches_the_stored_a2_construction_bit_for_bit(n, extra, w, theta, phi, varphi):
    p = OscillatorParams(n=n, omega_tilde=w, theta=theta, phi=phi, varphi=varphi, phys_cutoff=n + 1 + extra)
    bundle = build_bundle(p)
    a1, a2, a3, sites = _stored_a2_construction(p)
    for got, want in [(bundle.a1, a1), (bundle.a2, a2), (bundle.a3, a3)]:
        _assert_same_bits(got, want)
    for site, want in zip(bundle.mps.sites, sites):
        _assert_same_bits(site.as_array(), want.astype(complex))
    lanes = {
        "A1": [(a, None, a1[:, a]) for a in range(n + 1)],
        "A2": [(a, b, a2[:, a, b]) for a in range(n + 1) for b in range(n + 1 - a)],
        "A3": [(None, b, a3[:, b]) for b in range(n + 1) if gamma(b, p) != 0.0],
    }
    for which, expected in lanes.items():
        rows = element_decay_table(bundle, which)
        assert rows == [
            {"which": which, "a": a, "b": b, "k": k, "magnitude": abs(float(col[k]))}
            for a, b, col in expected
            for k in range(p.phys_cutoff)
        ]


def test_build_bundle_keeps_one_copy_of_the_middle_site():
    """At n=60, d=200 the complex middle site is 11.4 MiB. build_bundle
    keeps it and two d*(n+1) tables (12 MiB traced in all), and at its
    peak holds one float a2 table (5.7 MiB) beside them. A stored a2, or
    a weighted product made apart from the table, would exceed a bound."""
    p = OscillatorParams(n=60, omega_tilde=2.3, theta=0.7, phi=0.4, varphi=0.3, phys_cutoff=200)
    build_bundle(p)
    tracemalloc.start()
    try:
        bundle = build_bundle(p)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.mps.bond_dims == (61, 61)
    assert kept <= 13 << 20 and peak <= 19 << 20, (kept, peak)


def test_assembled_state_norm_and_spectra():
    p = OscillatorParams(n=3, omega_tilde=1.0, theta=0.7, phi=0.4, varphi=1.1, phys_cutoff=6)
    b = build_bundle(p)
    t = oscillator_dense(b)
    assert t.shape == (6, 6, 6)
    assert tensor_norm(t) == pytest.approx(1.0, abs=1e-10)
    ref1 = np.sort([sqrt(alpha(a, p)) for a in range(4)])[::-1]
    ref2 = np.sort([sqrt(gamma(g, p)) for g in range(4)])[::-1]
    np.testing.assert_allclose(bond_spectrum(b.mps, 1).values, ref1, atol=1e-8)
    np.testing.assert_allclose(bond_spectrum(b.mps, 2).values, ref2, atol=1e-8)


def test_ground_state_is_product_gaussian():
    p = OscillatorParams(n=0, omega_tilde=1.0, theta=0.3, phi=0.9, varphi=1.2, phys_cutoff=4)
    b = build_bundle(p)
    assert b.mps.bond_dims == (1, 1)
    assert wavefunction_mps(b, 0.0, 0.0, 0.0) == pytest.approx(pi**-0.75, abs=1e-12)
    assert tensor_norm(oscillator_dense(b)) == pytest.approx(1.0, abs=1e-12)


def test_wavefunction_routes_agree():
    p = OscillatorParams(n=2, omega_tilde=1.6, theta=0.7, phi=0.4, varphi=1.1, phys_cutoff=6)
    rng = np.random.default_rng(53)
    for _ in range(30):
        x1, x2, x3 = rng.uniform(-3, 3, 3)
        wa = wavefunction_direct(p, x1, x2, x3)
        wg = wavefunction_direct(p, x1, x2, x3, route="gamma")
        assert wg == pytest.approx(wa, abs=1e-12)
    with pytest.raises(ValueError):
        wavefunction_direct(p, 0, 0, 0, route="beta")


@pytest.mark.parametrize("far", [39.0, 1e200, -1.7976931348623157e308])
def test_wavefunctions_vanish_at_a_far_point_and_reject_a_non_finite_one(far):
    """A finite point past the Gaussian's reach gives 0.0 with no numpy warning
    (x^2 would overflow); an infinite or NaN coordinate is a ValueError."""
    p = OscillatorParams(n=2, omega_tilde=1.3, theta=0.4, phi=0.5, varphi=0.6, phys_cutoff=12)
    b = build_bundle(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in [(far, 0.1, 0.2), (0.3, far, 0.2), (0.3, 0.1, far)]:
            assert wavefunction_mps(b, *point) == 0.0
            assert wavefunction_direct(p, *point) == 0.0
            assert wavefunction_direct(p, *point, route="gamma") == 0.0
        for bad in (np.inf, -np.inf, np.nan):
            for call in (lambda: wavefunction_mps(b, 0.3, bad, 0.2), lambda: wavefunction_direct(p, 0.3, bad, 0.2)):
                with pytest.raises(ValueError, match="finite"):
                    call()


def test_wavefunction_mps_matches_direct_at_unit_frequency():
    p = OscillatorParams(n=2, omega_tilde=1.0, theta=0.7, phi=0.4, varphi=1.1, phys_cutoff=5)
    b = build_bundle(p)
    rng = np.random.default_rng(54)
    for _ in range(30):
        x1, x2, x3 = rng.uniform(-3, 3, 3)
        assert wavefunction_mps(b, x1, x2, x3) == pytest.approx(
            wavefunction_direct(p, x1, x2, x3), abs=1e-10
        )


def test_wavefunction_mps_converges_with_cutoff():
    p_lo = OscillatorParams(n=1, omega_tilde=2.0, theta=0.5, phi=0.2, varphi=0.8, phys_cutoff=8)
    p_hi = OscillatorParams(n=1, omega_tilde=2.0, theta=0.5, phi=0.2, varphi=0.8, phys_cutoff=40)
    b_lo, b_hi = build_bundle(p_lo), build_bundle(p_hi)
    pt = (0.4, -1.1, 0.7)
    exact = wavefunction_direct(p_lo, *pt)
    err_lo = abs(wavefunction_mps(b_lo, *pt) - exact)
    err_hi = abs(wavefunction_mps(b_hi, *pt) - exact)
    assert err_hi < err_lo
    assert err_hi < 1e-8


def test_element_table_rows():
    p = OscillatorParams(**WORKED)
    b = build_bundle(p)
    rows = element_decay_table(b, "A1")
    lane0 = [r["magnitude"] for r in rows if r["a"] == 0]
    np.testing.assert_allclose(lane0, np.eye(8)[:, 0], atol=1e-12)
    assert all(r["b"] is None and r["which"] == "A1" for r in rows)
    rows2 = element_decay_table(b, "A2")
    assert {(r["a"], r["b"]) for r in rows2} == {(0, 0), (0, 1), (1, 0)}
    rows3 = element_decay_table(b, "A3")
    assert {r["b"] for r in rows3} == {0, 1}
    with pytest.raises(ValueError):
        element_decay_table(b, "A4")


def test_parity_zeros_in_tables():
    p = OscillatorParams(n=1, omega_tilde=1.7, theta=0.7, phi=0.4, varphi=1.1, phys_cutoff=10)
    b = build_bundle(p)
    for r in element_decay_table(b, "A1"):
        if (r["k"] - r["a"]) % 2 == 1:
            assert r["magnitude"] == 0.0
        else:
            assert r["magnitude"] > 0.0


def test_element_decay_in_tail():
    p = OscillatorParams(n=1, omega_tilde=2.0, theta=0.7, phi=0.4, varphi=1.1, phys_cutoff=20)
    b = build_bundle(p)
    table = {}
    for r in element_decay_table(b, "A3"):
        table.setdefault(r["b"], []).append(r["magnitude"])
    for b_lane, mags in table.items():
        for k in range(4, 18):
            if mags[k] > 0.0:
                assert mags[k + 2] < mags[k]


@settings(max_examples=40, deadline=None)
@example(1.0, [])
@given(st.floats(0.1, 10.0), st.lists(st.tuples(st.integers(0, 199), st.integers(0, 60)), max_size=4))
def test_overlap_table_matches_the_quadrature_oracle(w, pairs):
    table = _overlap_table(200, 61, w)
    for k, j in pairs:
        ref = coeff_C(k, j, w) * integral_I_quadrature(k, j, w, points=(k + j) // 2 + 9)
        assert abs(table[k, j] - ref) <= 1e-12, (k, j)
    odd = np.add.outer(np.arange(200), np.arange(61)) % 2 == 1
    assert np.all(table[odd] == 0.0)
    # Overlaps of unit vectors, and (Bessel) column j holds a unit vector's
    # coefficients on f_0..f_199; at w=1 the bounds are met with equality.
    assert np.max(np.abs(table)) <= 1.0 + 1e-12
    assert np.max(np.sum(table**2, axis=0)) <= 1.0 + 1e-12


@pytest.mark.parametrize("w", [0.1, 3.0, 10.0])
def test_state_norm_is_one_once_the_cutoff_resolves_the_state(w):
    p = OscillatorParams(n=10, omega_tilde=w, theta=0.7, phi=0.4, varphi=1.1, phys_cutoff=400)
    assert abs(state_norm(build_bundle(p).mps) - 1.0) <= 1e-12


def test_bundle_does_not_use_the_closed_form(monkeypatch):
    def closed_form(*args):
        raise AssertionError("build_bundle evaluated the closed form")

    monkeypatch.setattr(idmps.oscillator, "integral_I_closed", closed_form)
    monkeypatch.setattr(idmps.oscillator, "coeff_C", closed_form)
    b = build_bundle(OscillatorParams(**WORKED))
    assert abs(state_norm(b.mps) - 1.0) <= 1e-12


@pytest.mark.parametrize("omega_tilde", [np.nan, np.inf, -np.inf, -1.0, 0.0, -0.0])
@pytest.mark.parametrize("formula", [coeff_C, integral_I_closed, integral_I_quadrature])
def test_every_overlap_formula_takes_one_frequency_rule(formula, omega_tilde):
    """The formulas take the parameters' rule: a finite omega_tilde > 0, else ValueError
    with no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, j in ((2, 2), (1, 2)):
            with pytest.raises(ValueError, match="omega_tilde must be finite and > 0"):
                formula(i, j, omega_tilde)


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_a_degree_or_site_label_that_is_not_an_integer_is_rejected(bad):
    for call in (lambda: hermite(bad, 0.5), lambda: basis_f(1, bad, 0.5)):
        with pytest.raises(DegreeTooLarge, match="degree must be in 0..200"):
            call()
    with pytest.raises(ValueError, match="site label must be in 1..3"):
        basis_f(bad, 1, 0.5)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_degrees_and_site_labels_take_numpy_integers(kind):
    assert hermite(kind(4), 1.0) == hermite(4, 1.0)
    assert basis_f(kind(2), kind(3), 0.5) == basis_f(2, 3, 0.5)


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_a_lane_that_is_not_an_integer_is_out_of_range(bad):
    p = OscillatorParams(n=3, omega_tilde=1.2, theta=0.3, phi=0.4, varphi=0.5, phys_cutoff=6)
    for weight, name in ((alpha, "a"), (gamma, "b")):
        with pytest.raises(IndexOutOfRange, match=f"{name} must be in 0..3"):
            weight(bad, p)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_lanes_take_numpy_integers(kind):
    p = OscillatorParams(n=3, omega_tilde=1.2, theta=0.3, phi=0.4, varphi=0.5, phys_cutoff=6)
    assert (alpha(kind(2), p), gamma(kind(1), p)) == (alpha(2, p), gamma(1, p))


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_an_overlap_index_or_node_count_that_is_not_an_integer_is_rejected(bad):
    for formula in (coeff_C, integral_I_closed, integral_I_quadrature):
        for i, j in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError, match="integer indices must be >= 0"):
                formula(i, j, 1.3)
    with pytest.raises(InsufficientNodes, match="need an integer"):
        integral_I_quadrature(1, 1, 1.3, points=bad)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_overlap_formulas_take_numpy_integers(kind):
    """NumPy's integers give the ints' values, also where the exact sum runs past int64."""
    for i, j in ((2, 4), (30, 30), (150, 150)):
        assert coeff_C(kind(i), kind(j), 1.3) == coeff_C(i, j, 1.3)
        assert integral_I_closed(kind(i), kind(j), 1.3) == integral_I_closed(i, j, 1.3)
        assert integral_I_quadrature(kind(i), kind(j), 1.3, kind(160)) == integral_I_quadrature(i, j, 1.3, 160)


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_params_whose_n_or_cutoff_is_not_an_integer_are_rejected(bad):
    angles = dict(omega_tilde=1.2, theta=0.3, phi=0.4, varphi=0.5)
    with pytest.raises(ValueError, match=f"n must be in 0..{MAX_PHYS_CUTOFF - 1}"):
        OscillatorParams(n=bad, phys_cutoff=4, **angles)
    with pytest.raises(ValueError, match=f"phys_cutoff must be in 1..{MAX_PHYS_CUTOFF}"):
        OscillatorParams(n=0, phys_cutoff=bad, **angles)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_params_take_numpy_integers(kind):
    p = OscillatorParams(n=kind(2), omega_tilde=1.2, theta=0.3, phi=0.4, varphi=0.5, phys_cutoff=kind(5))
    q = OscillatorParams(n=2, omega_tilde=1.2, theta=0.3, phi=0.4, varphi=0.5, phys_cutoff=5)
    assert np.array_equal(build_bundle(p).a1, build_bundle(q).a1)


@pytest.mark.parametrize("x", [30.0, -25.0, [0.0, 21.0], np.inf, -np.inf, np.nan, [1.0, np.nan]])
def test_hermite_raises_instead_of_warning(x):
    """H_200 leaves the double range near |x| = 20.6: OverflowError there, ValueError
    for a point that is not finite, and no numpy warning on the way."""
    error = OverflowError if np.isfinite(x).all() else ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            hermite(200, x)
        assert np.isfinite(hermite(200, 20.5))
