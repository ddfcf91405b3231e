"""Dense complex tensors, matricization, and the SVD contract.

A state over N finite physical dimensions is stored as a flat complex
array in row-major order (first index slowest). Matricization groups
the first ``cut`` indices into rows and the rest into columns; every
decomposition in this package is built on that reshape plus a thin SVD
with a deterministic phase gauge.
"""

from dataclasses import dataclass
from math import frexp, prod
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceFailure,
    CutOutOfRange,
    EmptyShape,
    KeepOutOfRange,
    ShapeMismatch,
    TooLarge,
)

#: Singular values below this fraction of the largest one are dropped.
DEFAULT_RANK_TOL = 1e-12

#: The cap on the entries of an array sized from a file's or a command's numbers: 2**26 (1 GiB complex).
MAX_ENTRIES = 1 << 26
_SLAB = 1 << 16  # entries per step of a sum of squares (tensor_norm, mps._transfer)


@dataclass(frozen=True)
class DenseTensor:
    """Complex coefficient tensor c_{k1..kN} over finite physical dimensions.

    ``data`` is flat, row-major (k1 slowest); ``shape`` holds d_1..d_N.
    """

    shape: tuple[int, ...]
    data: np.ndarray

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return prod(self.shape)

    def as_array(self) -> np.ndarray:
        """The data as an N-dimensional array (a reshaped view)."""
        return self.data.reshape(self.shape)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD after the rank cut: u columns / vh rows are orthonormal,
    s is nonincreasing and strictly above the cut threshold."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int


def _integer(x) -> bool:
    """Whether ``x`` is an integer, NumPy's too, but not a bool: a dimension, cut, site, max bond or center."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _dims(shape: Sequence[int]) -> tuple[int, ...]:
    """``shape`` as a tuple of ints: EmptyShape for no axis, ShapeMismatch for a
    dimension that is not an integer (see ``_integer``) or is below 1."""
    dims = tuple(shape)
    if not dims:
        raise EmptyShape("tensor needs at least one axis")
    if not all(_integer(d) and d >= 1 for d in dims):
        raise ShapeMismatch(f"all dimensions must be integers >= 1, got {dims}")
    return tuple(map(int, dims))


def tensor_new(shape: Sequence[int], data: Sequence[complex] | np.ndarray) -> DenseTensor:
    """Validate and copy ``data`` into a DenseTensor with the given shape."""
    dims = _dims(shape)
    flat = np.array(data, dtype=complex).reshape(-1)
    if flat.size != prod(dims):
        raise ShapeMismatch(
            f"data length {flat.size} does not match shape {dims} "
            f"(expected {prod(dims)})"
        )
    return DenseTensor(shape=dims, data=flat)


def _check_entries(shape: tuple[int, ...], what: str) -> None:
    """TooLarge, before anything is allocated, if ``what`` would pass MAX_ENTRIES."""
    if prod(shape) > MAX_ENTRIES:
        raise TooLarge(f"{what} of shape {shape}: {prod(shape)} entries, over the cap {MAX_ENTRIES}")


def _exponent(x: np.ndarray) -> int:
    """The exponent e of the smallest power of two above max|x|, read with no
    temporary array (0 for an empty, zero or non-finite x). x / 2**e is exact
    and its squares cannot overflow, so sums of squares are taken on it."""
    parts = (x.real, x.imag) if x.dtype.kind == "c" else (x,)
    return frexp(max((max(-p.min(), p.max()) for p in parts if p.size), default=0.0))[1]


@np.errstate(over="ignore")
def tensor_norm(t: DenseTensor) -> float:
    """Euclidean (Hilbert-space) norm of the coefficient data, at any scale
    (see ``_exponent``); inf only past the double-precision range. It scales
    and sums ``_SLAB`` entries at a time, never copying the whole data."""
    flat, e, total = t.data.reshape(-1).view(float), _exponent(t.data), 0.0
    for start in range(0, flat.size, 2 * _SLAB):
        part = np.ldexp(flat[start : start + 2 * _SLAB], -e)
        total += part[0::2] @ part[0::2] + part[1::2] @ part[1::2]  # as np.linalg.norm sums a slab
        del part  # before the next slab's
    return float(np.ldexp(np.sqrt(total), e))


def _check_cut(ndim: int, cut: int) -> None:
    if not (_integer(cut) and 1 <= cut <= ndim - 1):
        raise CutOutOfRange(f"cut must be in 1..{ndim - 1}, got {cut}")


def matricize(t: DenseTensor, cut: int) -> np.ndarray:
    """Unfold ``t`` into a (d_1..d_cut) x (d_{cut+1}..d_N) matrix.

    Row index = row-major flattening of the first ``cut`` physical
    indices, column index = flattening of the rest.
    """
    _check_cut(t.ndim, cut)
    rows = prod(t.shape[:cut])
    return t.data.reshape(rows, -1)


def dematricize(m: np.ndarray, shape: Sequence[int], cut: int) -> DenseTensor:
    """Inverse of :func:`matricize`; exact bijection for matching shapes."""
    dims = _dims(shape)
    _check_cut(len(dims), cut)
    expected = (prod(dims[:cut]), prod(dims[cut:]))
    if m.shape != expected:
        raise ShapeMismatch(f"matrix shape {m.shape} does not unfold to {dims} at cut {cut}")
    return DenseTensor(shape=dims, data=np.array(m, dtype=complex).reshape(-1))


def _rank(s: np.ndarray, rank_tol: float) -> int:
    """The rank cut, the one threshold every cut applies: how many of the nonincreasing
    values ``s`` lie above rank_tol * s[0] (none when ``s`` is empty or zero); ValueError
    unless 0 <= rank_tol < 1."""
    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank_tol must be in [0, 1), got {rank_tol}")
    return int(np.count_nonzero(s > rank_tol * s[:1]))


def _lapack_svd(a: np.ndarray, compute_uv: bool):
    """numpy's thin SVD of ``a``, every value it found; failure and overflow
    raise ConvergenceFailure."""
    try:
        res = np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    # By position: numpy 1.x returns a plain (u, s, vh) tuple.
    s = res[1] if compute_uv else res
    if not np.all(np.isfinite(s)):
        raise ConvergenceFailure(
            "SVD overflowed: the matrix's singular values exceed the double-precision range"
        )
    return res


def svd(m: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> SvdResult:
    """Thin SVD with rank cut and a deterministic phase gauge.

    Singular values at or below the rank cut (``_rank``: rank_tol times
    s_max) are discarded, with the matching u columns / vh rows. Each
    retained (u column, vh row) pair is rotated so the largest-magnitude
    entry of the u column is real and positive, which fixes the output
    uniquely away from degenerate values. Raises ConvergenceFailure when
    LAPACK does not converge or when a singular value is not finite (a
    matrix whose norm overflows a double, even if every entry is finite).
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise ShapeMismatch(f"svd needs a nonempty matrix, got shape {a.shape}")
    # numpy's LAPACK call factors a tall row-major matrix about twice as fast as a
    # wide one, so a wide matrix (from schmidt_decompose or a library caller: mps passes
    # a wide matrix's small triangular factor) is factored as A^T = Vh^T S U^T.
    wide = a.shape[0] < a.shape[1]
    u, s, vh = _lapack_svd(a.T if wide else a, True)
    if wide:
        u, vh = vh.T, u.T
    # Views of LAPACK's factors above the rank cut, rotated in place: no full-size copy.
    u, s, vh = u[:, : (rank := _rank(s, rank_tol))], s[:rank], vh[:rank]
    pivot = u[np.argmax(np.abs(u), axis=0), np.arange(rank)]
    # hypot, unlike np.abs on an array, rounds exactly as the scalar abs.
    phase = pivot / np.hypot(pivot.real, pivot.imag)
    u *= phase.conjugate()
    vh *= phase[:, None]
    return SvdResult(u=u, s=s, vh=vh, rank=rank)


@np.errstate(over="ignore")
def low_rank_error(s: Sequence[float] | np.ndarray, keep: int) -> float:
    """Frobenius-norm error of the best rank-``keep`` approximation,
    sqrt of the discarded squared singular values, at any scale."""
    vals = np.asarray(s, dtype=float)
    if not 0 <= keep <= vals.size:
        raise KeepOutOfRange(f"keep must be in 0..{vals.size}, got {keep}")
    e = _exponent(vals[keep:])
    return float(np.ldexp(np.sqrt(np.sum(np.ldexp(vals[keep:], -e) ** 2)), e))
