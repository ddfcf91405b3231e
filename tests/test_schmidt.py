import numpy as np
import pytest

from idmps import (
    SchmidtDecomposition,
    ShapeMismatch,
    ZeroState,
    entropy_from_values,
    matricize,
    schmidt_decompose,
    schmidt_entropy,
    schmidt_reconstruct,
    tensor_new,
    tensor_norm,
)


def random_tensor(rng, shape):
    size = int(np.prod(shape))
    return tensor_new(shape, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def test_bell_state_coefficients():
    t = tensor_new((2, 2), [2**-0.5, 0, 0, 2**-0.5])
    sd = schmidt_decompose(t, 1)
    np.testing.assert_allclose(sd.coefficients, [0.70710678, 0.70710678], atol=1e-8)
    assert sd.cut == 1


def test_product_state_is_rank_one():
    t = tensor_new((2, 2), [2**-0.5, 2**-0.5, 0, 0])
    sd = schmidt_decompose(t, 1)
    assert sd.coefficients.size == 1
    assert sd.coefficients[0] == pytest.approx(1.0)


def test_ghz_cut_two():
    data = np.zeros(8, dtype=complex)
    data[0] = data[7] = 2**-0.5
    sd = schmidt_decompose(tensor_new((2, 2, 2), data), 2)
    np.testing.assert_allclose(sd.coefficients, [0.70710678, 0.70710678], atol=1e-8)


def test_coefficients_match_gram_eigenvalues():
    rng = np.random.default_rng(21)
    t = random_tensor(rng, (3, 4))
    sd = schmidt_decompose(t, 1)
    m = matricize(t, 1)
    gram_eigs = np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1]
    gram_eigs = gram_eigs[: sd.coefficients.size]
    np.testing.assert_allclose(sd.coefficients**2, gram_eigs, atol=1e-8)


def test_families_orthonormal_and_weights_complete():
    rng = np.random.default_rng(22)
    t = random_tensor(rng, (3, 2, 4))
    for cut in (1, 2):
        sd = schmidt_decompose(t, cut)
        k = sd.coefficients.size
        np.testing.assert_allclose(
            sd.left_vectors.conj().T @ sd.left_vectors, np.eye(k), atol=1e-12
        )
        np.testing.assert_allclose(
            sd.right_vectors.conj().T @ sd.right_vectors, np.eye(k), atol=1e-12
        )
        assert np.sum(sd.coefficients**2) == pytest.approx(tensor_norm(t) ** 2, rel=1e-10)
        assert np.all(np.diff(sd.coefficients) <= 0)
        assert np.all(sd.coefficients > 0)


def test_round_trip_random_tensors():
    rng = np.random.default_rng(23)
    for shape in [(3, 4), (2, 3, 4), (4, 3, 5, 2), (10, 10, 10, 10)]:
        t = random_tensor(rng, shape)
        for cut in range(1, len(shape)):
            back = schmidt_reconstruct(schmidt_decompose(t, cut), shape)
            rel = np.linalg.norm(back.data - t.data) / tensor_norm(t)
            assert rel <= 1e-10


def test_unitary_invariance_of_spectrum():
    rng = np.random.default_rng(24)
    t = random_tensor(rng, (4, 5))
    base = schmidt_decompose(t, 1).coefficients
    ul, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    ur, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    rotated = tensor_new((4, 5), (ul @ t.as_array() @ ur.T).reshape(-1))
    np.testing.assert_allclose(
        schmidt_decompose(rotated, 1).coefficients, base, atol=1e-10
    )


def test_entropy_values():
    assert entropy_from_values([1.0]) == 0.0
    assert entropy_from_values([2**-0.5, 2**-0.5]) == pytest.approx(np.log(2), abs=1e-8)
    expected = -(0.64 * np.log(0.64) + 0.36 * np.log(0.36))
    assert entropy_from_values([0.8, 0.6]) == pytest.approx(expected, abs=1e-12)
    t = tensor_new((2, 2), [0.8, 0, 0, 0.6])
    assert schmidt_entropy(schmidt_decompose(t, 1)) == pytest.approx(expected, abs=1e-10)


def test_entropy_rejects_zero_state():
    with pytest.raises(ZeroState):
        entropy_from_values([0.0, 0.0])


def test_reconstruct_rank_one_explicit():
    sd = SchmidtDecomposition(
        coefficients=np.array([1.0]),
        left_vectors=np.array([[1.0], [0.0]], dtype=complex),
        right_vectors=np.array([[0.0], [1.0]], dtype=complex),
        cut=1,
    )
    t = schmidt_reconstruct(sd, (2, 2))
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1.0  # entry (0, 1)
    np.testing.assert_allclose(t.data, expected, atol=0.0)


def test_reconstruct_shape_mismatch():
    t = tensor_new((2, 2), [2**-0.5, 0, 0, 2**-0.5])
    sd = schmidt_decompose(t, 1)
    with pytest.raises(ShapeMismatch):
        schmidt_reconstruct(sd, (3, 2))
    with pytest.raises(ShapeMismatch):
        schmidt_reconstruct(sd, (2, 2, 2))


def test_reconstruct_rejects_a_shape_whose_split_sizes_differ():
    sd = schmidt_decompose(tensor_new((2, 4), np.arange(8, dtype=complex)), 1)
    with pytest.raises(ShapeMismatch, match=r"matrix shape \(2, 4\) does not unfold to \(4, 2\) at cut 1"):
        schmidt_reconstruct(sd, (4, 2))


def test_reconstruct_rejects_a_cut_the_shape_does_not_have():
    data = np.arange(8, dtype=complex)
    sd = schmidt_decompose(tensor_new((2, 2, 2), data), 1)
    with pytest.raises(ShapeMismatch, match=r"cut 1 invalid for shape \(4,\)"):
        schmidt_reconstruct(sd, (4,))


@pytest.mark.parametrize("values", [[np.nan, 0.5], [np.inf, 0.5], [-3.0, 4.0], [0.5, -np.inf], [-0.0, -1e-300]])
def test_entropy_rejects_a_value_that_is_not_finite_or_is_negative(values):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        entropy_from_values(values)
