"""Bipartite Schmidt decomposition of a dense state tensor.

The Schmidt coefficients across a cut are the singular values of the
matricized state; the left/right vector families are orthonormal and
reconstruct the state as a plain (unconjugated) sum of products
c[row, col] = sum_k lambda_k e_k[row] f_k[col].
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch, ZeroState
from .tensor import DEFAULT_RANK_TOL, DenseTensor, _dims, _exponent, _integer, dematricize, matricize, svd


@dataclass(frozen=True)
class SchmidtDecomposition:
    """One bipartition's Schmidt data.

    ``coefficients`` are strictly positive and nonincreasing; column k of
    ``left_vectors`` / ``right_vectors`` is the k-th vector of the
    orthonormal family on the flattened left / right factor space.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    cut: int


def schmidt_decompose(
    t: DenseTensor, cut: int, rank_tol: float = DEFAULT_RANK_TOL
) -> SchmidtDecomposition:
    """Schmidt decomposition across (1..cut):(cut+1..N).

    Zero modes are dropped, so the coefficient list has the numerical
    rank of the unfolding. right_vectors holds the vh rows as columns
    (transposed, not conjugated) so that reconstruction is the plain
    product sum over lambda_k e_k f_k.
    """
    res = svd(matricize(t, cut), rank_tol)
    return SchmidtDecomposition(
        coefficients=res.s,
        left_vectors=res.u,
        right_vectors=res.vh.T.copy(),
        cut=cut,
    )


def entropy_from_values(values: Sequence[float] | np.ndarray) -> float:
    """Entanglement entropy -sum p ln p of a Schmidt value list,
    with p_k = lambda_k^2 normalized; 0 ln 0 counts as 0. In nats, and
    independent of the values' scale; ValueError for a value that is not finite or is negative."""
    vals = np.asarray(values, dtype=float)
    if (bad := vals[~(np.isfinite(vals) & (vals >= 0.0))]).size:
        raise ValueError(f"Schmidt values must be finite and >= 0, got {bad[0]}")
    lam2 = np.ldexp(vals, -_exponent(vals)) ** 2
    total = lam2.sum()
    if total <= 0.0:
        raise ZeroState("all Schmidt coefficients vanish")
    p = lam2 / total
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def schmidt_entropy(sd: SchmidtDecomposition) -> float:
    """Entanglement entropy of the decomposition, in nats."""
    return entropy_from_values(sd.coefficients)


def schmidt_reconstruct(sd: SchmidtDecomposition, shape: Sequence[int]) -> DenseTensor:
    """Assemble sum_k lambda_k e_k (x) f_k back into a dense tensor."""
    dims = _dims(shape)
    if not (_integer(sd.cut) and 1 <= sd.cut <= len(dims) - 1):
        raise ShapeMismatch(f"cut {sd.cut} invalid for shape {dims}")
    m = (sd.left_vectors * sd.coefficients) @ sd.right_vectors.T
    return dematricize(m, dims, sd.cut)
