import numpy as np
import pytest

from idmps import (
    ConvergenceFailure,
    CutOutOfRange,
    EmptyShape,
    KeepOutOfRange,
    ShapeMismatch,
    dematricize,
    low_rank_error,
    matricize,
    schmidt_decompose,
    schmidt_reconstruct,
    svd,
    tensor_new,
    tensor_norm,
)
from idmps.tensor import _lapack_svd

BELL = np.array([2**-0.5, 0.0, 0.0, 2**-0.5], dtype=complex)


def test_tensor_new_product_state():
    t = tensor_new((2, 2), [1, 0, 0, 0])
    assert t.shape == (2, 2)
    assert t.ndim == 2
    assert t.size == 4
    assert tensor_norm(t) == 1.0
    assert t.as_array()[0, 0] == 1.0 + 0.0j


def test_tensor_new_rejects_bad_length():
    with pytest.raises(ShapeMismatch):
        tensor_new((2, 3), np.zeros(5))


def test_tensor_new_rejects_empty_shape():
    with pytest.raises(EmptyShape):
        tensor_new((), [])


def test_tensor_new_rejects_nonpositive_dims():
    with pytest.raises(ShapeMismatch):
        tensor_new((2, 0), [])


def test_tensor_new_copies_data():
    src = np.ones(4, dtype=complex)
    t = tensor_new((2, 2), src)
    src[0] = 99.0
    assert t.data[0] == 1.0 + 0.0j


def test_tensor_norm_matches_euclidean():
    rng = np.random.default_rng(11)
    data = rng.standard_normal(120) + 1j * rng.standard_normal(120)
    t = tensor_new((4, 3, 5, 2), data)
    assert tensor_norm(t) == pytest.approx(np.linalg.norm(data), abs=0.0)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
def test_tensor_norm_is_right_at_any_finite_scale(scale):
    rng = np.random.default_rng(12)
    unit = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    got = tensor_norm(tensor_new((2, 8), scale * unit))
    assert got == pytest.approx(scale * np.linalg.norm(unit), rel=1e-13)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_tensor_norm_sums_every_slab(scale):
    """A tensor of three slabs and a few entries more (the slab is 2^16
    entries) has the norm of all its entries, whose largest lies in the
    last slab, at any scale."""
    rng = np.random.default_rng(14)
    unit = rng.standard_normal(3 * (1 << 16) + 5) + 1j * rng.standard_normal(3 * (1 << 16) + 5)
    unit[-1] = 40.0
    got = tensor_norm(tensor_new((unit.size,), scale * unit))
    assert got == pytest.approx(scale * np.linalg.norm(unit), rel=1e-14)


def test_tensor_norm_past_the_float_range_is_inf():
    assert tensor_norm(tensor_new((4,), np.full(4, 1e308))) == np.inf
    assert tensor_norm(tensor_new((2,), np.zeros(2))) == 0.0
    assert tensor_norm(tensor_new((2,), [3.0, 4.0])) == pytest.approx(5.0)
    assert tensor_norm(tensor_new((2, 2), BELL)) == pytest.approx(1.0)


def test_tensor_norm_of_subnormal_complex_data():
    """Rescaling divides the float view by the peak: a complex division by
    a subnormal real overflows inside numpy and gave inf or NaN."""
    assert tensor_norm(tensor_new((4,), [1e-320, 0, 0, 0])) == 1e-320
    rng = np.random.default_rng(13)
    t = tensor_new((16,), 1e-320 * (rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    exact = float(np.linalg.norm(t.data * 2.0**1000)) / 2.0**1000  # power-of-two scaling is exact
    assert tensor_norm(t) == pytest.approx(exact, rel=0.0, abs=1e-323)


def test_matricize_bell():
    m = matricize(tensor_new((2, 2), BELL), 1)
    assert m.shape == (2, 2)
    np.testing.assert_allclose(m, np.eye(2) * 2**-0.5)


def test_matricize_index_arithmetic():
    data = np.zeros(24, dtype=complex)
    t = tensor_new((2, 3, 4), data)
    arr = t.as_array().copy()
    arr[1, 2, 3] = 7.0
    m = matricize(tensor_new((2, 3, 4), arr.reshape(-1)), 2)
    assert m.shape == (6, 4)
    assert m[1 * 3 + 2, 3] == 7.0


def test_matricize_dematricize_bijection():
    rng = np.random.default_rng(12)
    for shape in [(2, 2), (3, 4, 2), (2, 3, 4, 2)]:
        size = int(np.prod(shape))
        t = tensor_new(shape, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for cut in range(1, len(shape)):
            m = matricize(t, cut)
            assert np.linalg.norm(m) == pytest.approx(tensor_norm(t), abs=0.0)
            back = dematricize(m, shape, cut)
            assert np.array_equal(back.data, t.data)


def test_matricize_cut_out_of_range():
    t = tensor_new((2, 2), BELL)
    for cut in (0, 2, -1):
        with pytest.raises(CutOutOfRange):
            matricize(t, cut)
    with pytest.raises(ShapeMismatch):
        dematricize(np.zeros((2, 3)), (2, 2), 1)


def test_dematricize_rejects_an_empty_shape():
    with pytest.raises(EmptyShape, match="at least one axis"):
        dematricize(np.ones((1, 1)), (), 1)


@pytest.mark.parametrize("shape", [(2.9, 2), (2.0, 2), ("2", "2"), (True, 4), (2, np.float64(2)), (0, 4)])
@pytest.mark.parametrize("build", ["tensor_new", "dematricize", "schmidt_reconstruct"])
def test_every_shape_takes_one_dimension_rule(shape, build):
    """A dimension is an integer >= 1, NumPy's too, but not a bool, a float or a string."""
    sd = schmidt_decompose(tensor_new((2, 2), BELL), 1)
    calls = {
        "tensor_new": lambda dims: tensor_new(dims, BELL),
        "dematricize": lambda dims: dematricize(BELL.reshape(2, 2), dims, 1),
        "schmidt_reconstruct": lambda dims: schmidt_reconstruct(sd, dims),
    }
    with pytest.raises(ShapeMismatch, match="must be integers >= 1"):
        calls[build](shape)
    assert calls[build]((np.int64(2), np.int32(2))).shape == (2, 2)


def test_svd_diagonal():
    res = svd(np.diag([0.8, 0.6]).astype(complex))
    np.testing.assert_allclose(res.s, [0.8, 0.6])
    assert res.rank == 2


def test_svd_bell_matrix():
    res = svd(np.eye(2, dtype=complex) * 2**-0.5)
    np.testing.assert_allclose(res.s, [0.70710678, 0.70710678], atol=1e-8)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    res = svd(m)
    np.testing.assert_allclose(res.u.conj().T @ res.u, np.eye(res.rank), atol=1e-12)
    np.testing.assert_allclose(res.vh @ res.vh.conj().T, np.eye(res.rank), atol=1e-12)
    rebuilt = (res.u * res.s) @ res.vh
    assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)


def test_svd_rank_cut_drops_tiny_values():
    u, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((4, 4)))
    m = (u * np.array([1.0, 0.5, 1e-14, 1e-16])) @ u.T
    res = svd(m.astype(complex))
    assert res.rank == 2
    assert res.s.size == 2


def test_svd_phase_gauge_deterministic():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = svd(m)
    b = svd(m.copy())
    assert np.array_equal(a.u, b.u) and np.array_equal(a.vh, b.vh)
    for k in range(a.rank):
        pivot = a.u[np.argmax(np.abs(a.u[:, k])), k]
        assert abs(pivot.imag) < 1e-14 and pivot.real > 0


def looped_gauge_svd(m, rank_tol=1e-12):
    """svd's factorization with the phase gauge applied column by column:
    the reference the vectorized gauge must reproduce bit for bit."""
    wide = m.shape[0] < m.shape[1]
    u, s, vh = np.linalg.svd(m.T if wide else m, full_matrices=False)
    if wide:
        u, vh = vh.T, u.T
    rank = int(np.count_nonzero(s > rank_tol * s[0])) if s[0] > 0 else 0
    u, s, vh = u[:, :rank].copy(), s[:rank].copy(), vh[:rank].copy()
    for k in range(rank):
        pivot = u[np.argmax(np.abs(u[:, k])), k]
        phase = pivot / abs(pivot)
        u[:, k] *= phase.conjugate()
        vh[k] *= phase
    return u, s, vh


def _complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def gauge_cases():
    rng = np.random.default_rng(16)
    yield "tall", _complex(rng, 9, 4)
    yield "wide", _complex(rng, 3, 11)
    yield "rank2-tall", _complex(rng, 8, 2) @ _complex(rng, 2, 6)
    yield "rank3-wide", _complex(rng, 5, 3) @ _complex(rng, 3, 12)
    yield "rank0", np.zeros((3, 4), dtype=complex)
    # Tied magnitudes: every entry of the DFT and Hadamard vectors has the
    # same modulus, and small-integer entries repeat moduli exactly.
    yield "dft", np.fft.fft(np.eye(6)).astype(complex)
    yield "hadamard", np.kron([[1, 1], [1, -1]], [[1, 1j], [1j, 1]]).astype(complex)
    yield "integers", np.round(2 * _complex(rng, 7, 5))
    yield "repeated-columns", np.repeat(np.round(_complex(rng, 6, 2)), 3, axis=1)
    for k in range(20):
        rows, cols = rng.integers(1, 16, size=2)
        yield f"random-{k}", _complex(rng, rows, cols)


@pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m in gauge_cases()])
def test_svd_gauge_matches_the_column_loop_bit_for_bit(m):
    u, s, vh = looped_gauge_svd(m)
    res = svd(m)
    assert res.rank == s.size
    assert np.array_equal(res.u, u) and np.array_equal(res.s, s) and np.array_equal(res.vh, vh)


def test_svd_takes_numpy_1_plain_tuples(monkeypatch):
    """numpy 1.x's svd returns a plain (u, s, vh) tuple, not the named
    result of numpy 2."""
    lapack = np.linalg.svd

    def numpy_1_svd(a, full_matrices=True, compute_uv=True):
        res = lapack(a, full_matrices=full_matrices, compute_uv=compute_uv)
        return tuple(res) if compute_uv else res

    monkeypatch.setattr(np.linalg, "svd", numpy_1_svd)
    m = _complex(np.random.default_rng(17), 5, 3)
    res = svd(m)
    u, s, vh = looped_gauge_svd(m)
    assert np.array_equal(res.u, u) and np.array_equal(res.s, s) and np.array_equal(res.vh, vh)


def test_an_svd_lapack_cannot_converge_raises_convergence_failure(monkeypatch):
    def failing_svd(a, full_matrices=True, compute_uv=True):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    for compute_uv in (True, False):
        with pytest.raises(ConvergenceFailure, match="SVD did not converge"):
            _lapack_svd(np.eye(2, dtype=complex), compute_uv)


def test_svd_rejects_empty():
    with pytest.raises(ShapeMismatch):
        svd(np.zeros((0, 3)))
    with pytest.raises(ShapeMismatch):
        svd(np.zeros(3))


def test_low_rank_error_examples():
    assert low_rank_error([0.8, 0.6], 1) == pytest.approx(0.6)
    assert low_rank_error([1.0], 1) == 0.0
    assert low_rank_error([0.5, 0.5, 0.5, 0.5], 2) == pytest.approx(0.70710678, abs=1e-8)
    with pytest.raises(KeepOutOfRange):
        low_rank_error([1.0, 0.5], 3)
    with pytest.raises(KeepOutOfRange):
        low_rank_error([1.0], -1)


# Integer arguments take one rule (tensor._integer): integers, NumPy's too, never a bool.
NOT_INTEGERS = [1.5, 2.0, True, np.bool_(True), "2"]
NOT_INTEGER_IDS = ["fraction", "integral-float", "bool", "numpy-bool", "string"]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_a_keep_that_is_not_an_integer_is_out_of_range(bad):
    with pytest.raises(KeepOutOfRange, match="keep must be in 0..3"):
        low_rank_error([3.0, 2.0, 1.0], bad)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_low_rank_error_takes_numpy_integers(kind):
    assert low_rank_error([3.0, 2.0, 1.0], kind(1)) == low_rank_error([3.0, 2.0, 1.0], 1)


def test_eckart_young_on_random_matrix():
    rng = np.random.default_rng(16)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    res = svd(m)
    for keep in range(res.rank + 1):
        best = (res.u[:, :keep] * res.s[:keep]) @ res.vh[:keep]
        direct = np.linalg.norm(m - best)
        assert low_rank_error(res.s, keep) == pytest.approx(direct, abs=1e-10)
