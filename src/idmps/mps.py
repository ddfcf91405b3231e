"""Matrix product states over open boundary chains; the README's opening
section gives the method in full.

A state c_{k1..kN} is N site tensors M^{(k_n)}_{a_{n-1}, a_n} (phys, left,
right), with bond dimension 1 at both ends, and optional per-bond weight
vectors. This module owns the form tag (left, right, ``mixed:<center>``,
vidal or unknown): ``MatrixProductState.tag`` writes it, ``parse_form_tag``
reads it for the CLI's ``--form`` and for MPS files, and ``verify`` checks
the gauge it claims.

``decompose`` builds every form from one left-to-right SVD sweep over the
dense data (TT-SVD, which gives the left form) and then site sweeps; a right
sweep is a left sweep over the mirrored chain (``_mirror``). One rule,
``_cut``, decides and records every cut of every sweep, and the records'
discarded weights add in quadrature to the distance from the input.

A state keeps read-only copies of its arrays, so it caches what its queries
derive on first use. One kernel, ``_products``, multiplies out every chain
product: for the coefficient tables, ``to_dense`` and ``wavefunction_mps``.
"""

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CenterOutOfRange, ConvergenceFailure, CutOutOfRange, DimChainBroken, FormMismatch,
    IndexOutOfRange, LengthMismatch, PolicyEmpty, ShapeMismatch, ZeroState,
)
from .schmidt import entropy_from_values
from .tensor import DEFAULT_RANK_TOL, _SLAB, DenseTensor, _check_entries, _dims, _exponent, _in_range, _integer
from .tensor import _lapack_svd, _rank, low_rank_error, svd

FORMS = ("left", "right", "mixed", "vidal", "unknown")
_CHAIN_RANGE = "the state's chain, its bond weights folded in, is outside the double-precision range"


@dataclass(frozen=True)
class SiteTensor:
    """One site's three-index block M^{(k)}_{a_left, a_right}.

    ``data`` is flat with entry (k, a_left, a_right) at index
    (k * left_dim + a_left) * right_dim + a_right. It is a read-only copy
    of the array given, as is the shaped view ``as_array`` returns; an array
    given read-only (which must then not change) is kept, not copied. The
    three dimensions take ``_dims``' rule: integers >= 1, else ShapeMismatch.
    """

    phys_dim: int
    left_dim: int
    right_dim: int
    data: np.ndarray

    def __post_init__(self) -> None:
        _dims((self.phys_dim, self.left_dim, self.right_dim))
        keep = isinstance(self.data, np.ndarray) and not self.data.flags.writeable
        flat = (np.asarray if keep else np.array)(self.data, dtype=complex, order="C").reshape(-1)
        expected = self.phys_dim * self.left_dim * self.right_dim
        if flat.size != expected:
            raise ShapeMismatch(f"site data length {flat.size}, expected {expected}")
        object.__setattr__(self, "data", _frozen(flat))
        object.__setattr__(self, "_array", flat.reshape(self.phys_dim, self.left_dim, -1))

    def as_array(self) -> np.ndarray:
        """The block as a read-only view of shape (phys_dim, left_dim, right_dim)."""
        return self._array


@dataclass(frozen=True)
class BondSpectrum:
    """Positive, nonincreasing weight vector on one bond; ``values`` is a read-only copy."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float).reshape(-1)
        if vals.size == 0 or np.any(vals <= 0.0):
            raise ValueError("bond spectrum must be nonempty and strictly positive")
        if np.any(np.diff(vals) > 0.0):
            raise ValueError("bond spectrum must be nonincreasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("bond spectrum must be finite")
        object.__setattr__(self, "values", _frozen(vals))


@dataclass(frozen=True)
class TruncationPolicy:
    """Per-cut truncation rule: cap the bond at ``max_bond`` values (an
    integer, NumPy's too, but not a bool) and/or drop the largest tail whose
    discarded weight sqrt(sum lambda^2) stays <= ``weight_tol``. At least
    one field must be set."""

    max_bond: int | None = None
    weight_tol: float | None = None

    def __post_init__(self) -> None:
        if self.max_bond is None and self.weight_tol is None:
            raise PolicyEmpty("set max_bond and/or weight_tol")
        if self.max_bond is not None and not (_integer(self.max_bond) and self.max_bond >= 1):
            raise ValueError(f"max_bond must be an integer >= 1, got {self.max_bond!r}")
        if self.weight_tol is not None and not self.weight_tol >= 0.0:
            raise ValueError(f"weight_tol must be >= 0, got {self.weight_tol}")


@dataclass(frozen=True)
class MatrixProductState:
    """Immutable open-boundary MPS.

    ``bonds`` is either None or an (N-1)-tuple whose entry n-1 is the
    weight vector on bond n (None where no weights sit, e.g. away from
    the center of a mixed-canonical state). ``center``, None or an
    integer (NumPy's too, but not a bool), is the center bond the mixed
    form requires and no other form takes. The ``form`` tag records how
    the state was built; it is verified by the verify_* operations, never
    assumed. What queries derive from the state is built on first use and
    kept with it (two threads may both build it, equally).
    """

    sites: tuple[SiteTensor, ...]
    bonds: tuple[BondSpectrum | None, ...] | None = None
    form: str = "unknown"
    center: int | None = None

    def __post_init__(self) -> None:
        sites = tuple(self.sites)
        object.__setattr__(self, "sites", sites)
        if not sites:
            raise ShapeMismatch("an MPS needs at least one site")
        if sites[0].left_dim != 1 or sites[-1].right_dim != 1:
            raise DimChainBroken(
                f"boundary dims must be 1, got left {sites[0].left_dim}, right {sites[-1].right_dim}"
            )
        for n in range(len(sites) - 1):
            if sites[n].right_dim != sites[n + 1].left_dim:
                raise DimChainBroken(
                    f"bond {n + 1}: right_dim {sites[n].right_dim} != left_dim {sites[n + 1].left_dim}"
                )
        if self.bonds is not None:
            bonds = tuple(self.bonds)
            object.__setattr__(self, "bonds", bonds)
            if len(bonds) != len(sites) - 1:
                raise DimChainBroken(f"expected {len(sites) - 1} bonds, got {len(bonds)}")
            for n, spec in enumerate(bonds):
                if spec is not None and spec.values.size != sites[n].right_dim:
                    raise DimChainBroken(
                        f"bond {n + 1} has {spec.values.size} weights for dimension {sites[n].right_dim}"
                    )
        if self.form not in FORMS:
            raise ValueError(f"unknown form tag {self.form!r}")
        if self.center is not None and not _integer(self.center):
            raise ValueError(f"center must be None or an integer, got {self.center!r}")
        if self.center is not None and self.form != "mixed":
            raise ValueError(f"a center applies only to the mixed form, not {self.form!r}")
        if self.form == "mixed" and (self.center is None or not 1 <= self.center <= len(sites) - 1):
            raise ValueError(f"mixed form needs a center in 1..{len(sites) - 1}")

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(s.phys_dim for s in self.sites)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple(s.right_dim for s in self.sites[:-1])

    @property
    def tag(self) -> str:
        """The form tag: ``mixed:<center>`` for a mixed state, else the form."""
        return f"mixed:{self.center}" if self.form == "mixed" else self.form

    @cached_property
    def _chain(self) -> tuple[np.ndarray, ...]:
        """Read-only site blocks with every stored bond weight multiplied
        into the block on its left: a weight-free chain for the same state.
        A product past the float range is stored as infinite, whichever query
        builds the chain first; each query decides what that means."""
        blocks = [site.as_array() for site in self.sites]
        for n, spec in enumerate(self.bonds or ()):
            if spec is not None:
                with np.errstate(over="ignore"):
                    blocks[n] = _frozen(blocks[n] * spec.values)
        return tuple(blocks)

    @cached_property
    def _slices(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per site, the chain block's matrix for each physical index."""
        return tuple(tuple(g) for g in self._chain)

    @cached_property
    def _bond_rs(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The R factors of a QR ``_sweep`` over the chain and over its mirror:
        either side of any cut is an isometry times one of them."""
        n = self.num_sites - 1
        return _sweep(self._chain, n, _qr)[1], _sweep(_mirror(self._chain), n, _qr)[1]

    @cached_property
    def _envs(self) -> tuple[np.ndarray, ...]:
        """Tables of ``_products`` over a prefix of the chain and over the mirror of the rest,
        each while it holds at most half the chain's entries: entry [k_i, .., k_j] of the
        prefix's, [k_N, .., k_j] of the suffix's, is the product of those sites' slices.
        A chain or a table that is not finite raises OverflowError, as ``to_dense`` does."""
        if not all(map(np.all, map(np.isfinite, self._chain))):
            raise OverflowError(_CHAIN_RANGE)
        half, dims = sum(map(np.size, self._chain)) // 2, self.phys_dims
        prefix, lc = _products(self._chain, half)
        suffix, rc = _products(_mirror(self._chain[lc:]), half)
        return _frozen(prefix.reshape(*dims[:lc], -1)), _frozen(suffix.reshape(*dims[::-1][:rc], -1))


def parse_form_tag(tag) -> tuple[str, int | None]:
    """(form, center) named by a form tag, the inverse of ``MatrixProductState.tag``
    (a center is ASCII digits without sign, space or leading zero); else ValueError."""
    if tag in FORMS and tag != "mixed":
        return tag, None
    if isinstance(tag, str) and re.fullmatch(r"mixed:[1-9][0-9]*", tag):
        return "mixed", int(tag[len("mixed:"):])
    raise ValueError(f"form tag must be left, right, mixed:<center>, vidal or unknown, got {tag!r}")


@dataclass(frozen=True)
class GaugeReport:
    """Outcome of ``verify`` and of every ``verify_*`` check.

    ``form`` is the checked form's tag (``mixed:<center>`` for mixed
    states). ``residuals`` are per site, except for the Vidal form: per cut
    (see ``verify_vidal``), with the three site fields None. A mixed state
    has no boundary site: its ``boundary_scalar`` is the squared sum of
    the center weights. ``passed`` means every counted residual is <=
    ``tol``, so a NaN fails; ``worst_site`` is the first counted site
    whose residual is NaN or largest.
    """

    form: str
    residuals: tuple[float, ...]
    worst_site: int | None
    boundary_site: int | None
    boundary_scalar: float | None
    passed: bool
    tol: float

    def as_dict(self) -> dict:
        """The fields that apply to this form, in declaration order."""
        return {name: value for name, value in vars(self).items() if value is not None}


@dataclass(frozen=True)
class CutDiagnostics:
    """What a sweep did at one cut.

    ``spectrum`` holds the singular values its SVD found there above the
    rank cut (for the dense sweep without truncation, that cut's Schmidt
    coefficients of the input), ``kept`` how many of them the policy
    kept, and ``discarded`` the weight of every value the SVD found past
    ``kept``, those below the rank cut included: sqrt(sum of s[kept:]^2).
    It is ``low_rank_error(spectrum, kept)`` only where the rank cut
    dropped nothing.
    """

    spectrum: np.ndarray
    kept: int
    discarded: float


@np.errstate(over="ignore")
def _cut(s: np.ndarray, policy: TruncationPolicy | None, rank_tol: float) -> CutDiagnostics:
    """The record of one cut, the only place that decides one: of every nonincreasing value
    ``s`` an SVD found, ``_rank`` keeps those above its cut, then ``policy`` (None keeps all)
    keeps at least one of those, counting the rank cut's weight against ``weight_tol``;
    nothing above the rank cut means a zero state."""
    keep = rank = _rank(s, rank_tol)
    if rank == 0:
        raise ZeroState("the state is zero")
    if policy is not None:
        if policy.max_bond is not None:
            keep = min(keep, policy.max_bond)
        if policy.weight_tol is not None:
            e = _exponent(s)
            tails = np.sqrt(np.cumsum(np.ldexp(s[::-1], -e) ** 2))[::-1]  # tails[k] = ||s[k:]|| / 2**e
            allowed = np.nonzero(tails <= np.ldexp(policy.weight_tol, -e))[0]
            keep = max(min(keep, int(allowed[0]) if allowed.size else keep), 1)
    return CutDiagnostics(s[:rank], keep, low_rank_error(s, keep) if keep < s.size else 0.0)


def _dense_sweep(
    t: DenseTensor, policy: TruncationPolicy | None, rank_tol: float
) -> tuple[list[np.ndarray], tuple[CutDiagnostics, ...]]:
    """TT-SVD, the only pass over dense data: ``_split`` of each unfolding leaves left isometries
    on sites 1..N-1, the remaining weight on site N and each cut's record; blocks are (phys, left,
    right). At its peak the sweep holds the input, one unfolding, the next and a slab."""
    blocks, cuts = [], []
    m = t.data.reshape(1, -1)
    for d in t.shape[:-1]:
        u, m, cut = _split(m.reshape(m.shape[0] * d, -1), policy, rank_tol)
        blocks.append(u.reshape(-1, d, cut.kept).transpose(1, 0, 2))
        cuts.append(cut)
    blocks.append(m.reshape(-1, t.shape[-1]).T[:, :, None])
    return blocks, tuple(cuts)


def _split(a: np.ndarray, policy: TruncationPolicy | None, rank_tol: float) -> tuple:
    """One SVD step on ``a``: the kept columns of U, the weight S Vh they leave and the cut's
    record, which ``_cut`` makes from every nonzero singular value. A wide ``a`` gets U and S
    from the SVD of ``_wide_factor(a)`` and S Vh as U^H a, so no full-size Vh is built;
    otherwise S Vh is formed in place in Vh."""
    wide = a.shape[0] < a.shape[1]
    res = svd(_wide_factor(a) if wide else a, 0.0)
    cut = _cut(res.s, policy, rank_tol)
    u, keep = res.u[:, : cut.kept], cut.kept
    with np.errstate(over="ignore", invalid="ignore"):  # the next svd or _gauge rejects it
        w = u.conj().T @ a if wide else np.multiply(res.vh[:keep], res.s[:keep, None], out=res.vh[:keep])
    return u, w, cut


def _wide_factor(a: np.ndarray) -> np.ndarray:
    """L = R^T for R of a QR of a^T (so L L^H = a a^H), carried through slabs of a's columns (TSQR):
    ``_SLAB >> 2`` entries, or len(a) columns if more, so that R is never larger than a slab."""
    r, step = np.zeros((0, len(a)), dtype=complex), max(len(a), (_SLAB >> 2) // len(a))
    for j in range(0, a.shape[1], step):
        r = np.linalg.qr(np.vstack((r, a[:, j : j + step].T)), mode="r")
    return r.T


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One QR step on ``a``: Q, the weight R it leaves, and R read-only as the step's record."""
    q, r = np.linalg.qr(a)
    return q, r, _frozen(r)


def _sweep(blocks: Sequence[np.ndarray], stop: int, step: Callable[[np.ndarray], tuple]) -> tuple[list, tuple]:
    """The chain with blocks 0..``stop``-1 left-normalized, and the steps' records in order:
    ``step`` factors each block's (phys * left, right) matrix into an isometry, which stays, and
    a weight, carried into the next block. Over ``_mirror(blocks)`` it is a right sweep."""
    blocks, records = list(blocks), []
    for n in range(stop):
        g = blocks[n]
        q, w, record = step(g.reshape(-1, g.shape[2]))
        blocks[n] = q.reshape(g.shape[0], g.shape[1], -1)
        with np.errstate(over="ignore", invalid="ignore"):  # the next step or _gauge rejects it
            blocks[n + 1] = np.matmul(w, blocks[n + 1])
        records.append(record)
    return blocks, tuple(records)


def _mirror(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """The chain read right to left (block order and bond axes swapped),
    so that a left sweep of the mirror is a right sweep of the chain."""
    return [g.transpose(0, 2, 1) for g in reversed(blocks)]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # what a state keeps must not change under it
    return a


def _gauge(blocks: list[np.ndarray], form: str, center: int | None, rank_tol: float) -> MatrixProductState:
    """The state in ``form`` of a chain whose blocks 1..N-1 are left isometries: the one routine
    that builds a decomposed state. Every form but the left runs one untruncated right sweep down to bond
    ``center`` (1 for right and vidal), a gauge move whose ``rank_tol`` should cut only numerical
    zeros: it leaves the exact Schmidt values on each bond it crosses. The mixed form keeps its
    center bond's, the Vidal form every bond's, and the block left of a kept bond is divided by
    them. A zero chain raises ZeroState, a block that is not finite ConvergenceFailure (as do the
    weighted forms of a near-subnormal state)."""
    if not np.any(blocks[-1]):  # block N carries the norm; _cut has rejected a zero chain with a cut
        raise ZeroState("the state is zero")
    kept = {"mixed": [center], "vidal": range(1, len(blocks))}.get(form)
    bonds = None if kept is None else [None] * (len(blocks) - 1)
    if form != "left":
        mirror, steps = _sweep(_mirror(blocks), len(blocks) - (center or 1), lambda a: _split(a, None, rank_tol))
        blocks = _mirror(mirror)
        for n in kept or ():
            lam = steps[len(blocks) - 1 - n].spectrum  # bond n's step multiplied block n by Vh^T S
            with np.errstate(over="ignore", invalid="ignore"):  # rejected below if not finite
                blocks[n - 1] = blocks[n - 1] / lam
            bonds[n - 1] = BondSpectrum(lam)
    if not all(np.isfinite(g).all() for g in blocks):
        least = min((b.values[-1] for b in bonds or () if b is not None), default=0.0)
        why = f": the form cannot represent a state so small (weights down to {least:.3g})" if least else ""
        raise ConvergenceFailure(f"a {form} site tensor would exceed the double-precision range{why}")
    return MatrixProductState(tuple(SiteTensor(*g.shape, g) for g in blocks), bonds, form, center)


def decompose(
    t: DenseTensor, form: str, center: int | None = None,
    policy: TruncationPolicy | None = None, rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[MatrixProductState, tuple[CutDiagnostics, ...]]:
    """MPS of ``t`` in ``form`` (left, right, mixed or vidal), with the
    dense sweep's record of each of its N-1 cuts.

    ``center`` (1..N-1, N >= 2) is required for, and only accepted with,
    the mixed form. Each cut drops the values at or below ``rank_tol``
    times its largest, then what ``policy`` truncates, as the sweep
    reaches it, left to right; the records count both, so their
    discarded weights add in quadrature to the distance between ``t``
    and the returned state. The right sweeps that make the other forms
    move the gauge only: they cut numerical zeros alone, at
    min(``rank_tol``, DEFAULT_RANK_TOL).
    """
    if form == "mixed":
        if not (_integer(center) and 1 <= center <= t.ndim - 1):
            raise CenterOutOfRange(
                f"center must be an integer in 1..{max(t.ndim - 1, 1)} with N >= 2, got {center!r}"
            )
    elif form not in ("left", "right", "vidal"):
        raise ValueError(f"form must be left, right, mixed or vidal, got {form!r}")
    elif center is not None:
        raise ValueError(f"a center applies only to the mixed form, not {form!r}")
    blocks, cuts = _dense_sweep(t, policy, rank_tol)
    return _gauge(blocks, form, center, min(rank_tol, DEFAULT_RANK_TOL)), cuts


def from_dense_right_canonical(
    t: DenseTensor, policy: TruncationPolicy | None = None, rank_tol: float = DEFAULT_RANK_TOL
) -> MatrixProductState:
    """Right-canonical MPS: sites 2..N right-normalized, site 1 carries
    the residual weights (its squared norm is the squared state norm)."""
    return decompose(t, "right", None, policy, rank_tol)[0]


def from_dense_left_canonical(
    t: DenseTensor, policy: TruncationPolicy | None = None, rank_tol: float = DEFAULT_RANK_TOL
) -> MatrixProductState:
    """Left-canonical MPS: sites 1..N-1 left-normalized, site N carries
    the residual weights."""
    return decompose(t, "left", None, policy, rank_tol)[0]


def from_dense_mixed_canonical(
    t: DenseTensor, center: int,
    policy: TruncationPolicy | None = None, rank_tol: float = DEFAULT_RANK_TOL,
) -> MatrixProductState:
    """Mixed-canonical MPS with the weight vector on bond ``center``.

    Sites 1..center come out left-normalized, sites center+1..N
    right-normalized, and the center bond weights are the Schmidt
    coefficients of the (1..center):(center+1..N) bipartition.
    """
    return decompose(t, "mixed", center, policy, rank_tol)[0]


def from_dense_vidal(
    t: DenseTensor, policy: TruncationPolicy | None = None, rank_tol: float = DEFAULT_RANK_TOL
) -> MatrixProductState:
    """Canonical-form MPS: every bond carries that cut's Schmidt
    coefficients and the site tensors are weight-free."""
    return decompose(t, "vidal", None, policy, rank_tol)[0]


def _products(blocks, limit: float) -> tuple[np.ndarray, int]:
    """The slice products of the leading (phys, left, right) ``blocks``, grown one block at a
    time while they hold at most ``limit`` entries: one row per index assignment, the first
    block's index slowest, over the last block's right bond. Returns the rows and how many
    blocks they cover; OverflowError if a product is outside the double range."""
    rows, count = np.ones((1, 1), dtype=complex), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for g in blocks:
            if len(rows) * g.shape[0] * g.shape[2] > limit:
                break
            pairs = g.transpose(1, 0, 2).reshape(g.shape[1], -1)  # (left, phys * right)
            # The first block as it is (a product turns -0.0 into 0.0), copied: a dense tensor owns its array.
            rows, count = (rows.dot(pairs) if count else np.array(pairs)).reshape(-1, g.shape[2]), count + 1
    if not np.isfinite(rows).all():
        raise OverflowError("a product of the chain's slices is outside the double-precision range")
    return rows, count


def to_dense(m: MatrixProductState) -> DenseTensor:
    """Contract the chain (and any bond weights) back to a tensor with ``_products``; TooLarge
    past MAX_ENTRIES entries, OverflowError if an entry leaves the double range."""
    _check_entries(m.phys_dims, "the dense state")
    return DenseTensor(m.phys_dims, _products(m._chain, np.inf)[0].reshape(-1))


def _transfer(env: np.ndarray | None, block: np.ndarray, shift: int = 0) -> np.ndarray:
    """sum_k g[k]^+ env g[k] for g = block / 2**shift, a (phys, left, right)
    block: the left environment ``env`` (None for the identity) carried
    across one site, in slabs of k of at most ``_SLAB`` entries (or one k)."""
    out, right, step = 0, block.shape[2], max(1, _SLAB // block[0].size)
    for g in np.split(block, range(step, len(block), step)):
        flat = np.array(g, order="C").reshape(-1, right)  # the slab's own copy, scaled and conjugated in place
        if shift:
            np.ldexp(flat.view(float), -shift, out=flat.view(float))
        if env is None:  # the other factor is then the slab itself, or its scaled copy
            carried = flat.copy() if shift else np.ascontiguousarray(g.reshape(-1, right))
        else:
            carried = np.matmul(env, flat.reshape(g.shape)).reshape(flat.shape)
        out += np.conjugate(flat, out=flat).T @ carried
        del flat, carried  # free both before the next slab's
    return out


def _gram_residual(g: np.ndarray, weights: np.ndarray | None = None) -> float:
    """max|sum_k g[k]^+ g[k] - W^2| for a (phys, left, right) block g, where
    W is diag(``weights``) or, without weights, the identity."""
    gram = _transfer(None, g)
    return float(np.max(np.abs(gram - (np.eye(len(gram)) if weights is None else np.diag(weights**2)))))


def site_left_residual(site: SiteTensor) -> float:
    """Deviation of sum_k M^(k)+ M^(k) from the identity."""
    return _gram_residual(site.as_array())


def site_right_residual(site: SiteTensor) -> float:
    """Deviation of sum_k M^(k) M^(k)+ from the identity."""
    return _gram_residual(site.as_array().transpose(0, 2, 1))


@np.errstate(over="ignore", invalid="ignore")  # inf past the double range; NaN sites give NaN
def state_norm(m: MatrixProductState) -> float:
    """Euclidean norm of the state at any scale: sites contracted with their conjugates in
    ``_transfer``'s slabs, weights applied to the environment, each divided by 2**``_exponent``."""
    env, exp2 = None, 0  # the squared norm is env[0, 0] * 2**exp2
    for site, spec in zip(m.sites, (*(m.bonds or [None] * len(m.bond_dims)), None)):
        shift = _exponent(site.as_array())
        env = _transfer(env, site.as_array(), shift)
        if spec is not None:
            lam = np.ldexp(spec.values, -_exponent(spec.values))
            env, shift = env * lam[:, None] * lam, shift + _exponent(spec.values)
        top = _exponent(env)
        env, exp2 = np.ldexp(env.view(float), -top).view(complex), exp2 + 2 * shift + top
    return float(np.ldexp(np.sqrt(abs(env[0, 0].real) * 2.0 ** (exp2 % 2)), exp2 // 2))


@np.errstate(over="ignore")  # a boundary scalar past the double range is inf
def _isometry_report(m: MatrixProductState, tag: str, left: int, right: int, tol: float) -> GaugeReport:
    """Sites 1..``left`` checked as left isometries, sites ``right``+1..N
    as right isometries. With right = left + 1, site ``right`` is the
    boundary site: its squared norm is the boundary scalar, and its
    residual |scalar - 1| is reported but not counted. With
    right = left, the weights on bond ``left`` give the scalar."""
    boundary = right if right == left + 1 else None
    data = m.bonds[left - 1].values if boundary is None else m.sites[right - 1].data
    e = _exponent(data)  # the squares are taken on data / 2**e
    scalar = float(np.ldexp(np.sum(np.abs(np.ldexp(data.view(float), -e).view(data.dtype)) ** 2), 2 * e))
    residuals = tuple(
        site_left_residual(site) if n <= left
        else site_right_residual(site) if n > right
        else abs(scalar - 1.0)
        for n, site in enumerate(m.sites, start=1)
    )
    counted = [n for n in range(1, m.num_sites + 1) if n != boundary]
    # argmax picks the first NaN, else the first largest residual.
    worst = counted[int(np.argmax([residuals[n - 1] for n in counted]))] if counted else boundary
    passed = all(residuals[n - 1] <= tol for n in counted)
    return GaugeReport(tag, residuals, worst, boundary, scalar, passed, tol)


def verify_left_normalized(m: MatrixProductState, tol: float = 1e-10) -> GaugeReport:
    """Check sites 1..N-1 against the left isometry condition.

    Site N carries the weights; its squared norm is reported as the
    boundary scalar, never checked.
    """
    return _isometry_report(m, "left", m.num_sites - 1, m.num_sites, tol)


def verify_right_normalized(m: MatrixProductState, tol: float = 1e-10) -> GaugeReport:
    """Check sites 2..N against the right isometry condition; site 1
    carries the weights (see verify_left_normalized)."""
    return _isometry_report(m, "right", 0, 1, tol)


def verify_vidal(m: MatrixProductState, tol: float = 1e-10) -> GaugeReport:
    """Verify the canonical-form property cut by cut, one site on each side.

    With B_n = Gamma_n lambda_n, a block of the cached chain, cut n's residual is
    the larger of site n+1's right isometry residual of B_{n+1} and site n's left
    condition multiplied through by Lambda_n: the deviation of sum_k B_n^(k)+
    Lambda_{n-1}^2 B_n^(k) from Lambda_n^2 (lambda_0 = 1), both divided by
    max(lambda_n)^2, to which ``tol`` is thus relative; no smaller weight divides.
    So a relative error e in a weight w on bond 1, which no right isometry check
    reaches, shows only in site 2's, as at most 2 e (w / max(lambda_2))^2.
    """
    if m.form != "vidal":
        raise FormMismatch(f"expected a vidal-form state, got {m.form!r}")
    if m.bonds is None or any(b is None for b in m.bonds):
        raise FormMismatch("vidal form needs a weight vector on every bond")
    chain, lams = m._chain, [np.ones(1)] + [b.values for b in m.bonds]  # type: ignore[union-attr]
    residuals = np.maximum(  # NaN-propagating, unlike max(); each ratio of weights is taken first
        [_gram_residual(a[:, None] / b[0] * g, b / b[0]) for g, a, b in zip(chain, lams, lams[1:])],
        [_gram_residual(g.transpose(0, 2, 1)) for g in chain[1:]],
    )
    passed = all(residuals <= tol)
    return GaugeReport("vidal", tuple(residuals.tolist()), None, None, None, passed, tol)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual fails the check
def verify(m: MatrixProductState, tol: float = 1e-10) -> GaugeReport:
    """Check the gauge conditions of the form ``m`` claims, at ``tol``.

    Left and right states go through verify_left_normalized /
    verify_right_normalized (the boundary site's weight is reported, not
    checked), Vidal states through verify_vidal, and mixed states site
    by site around their center, which must carry weights. A state
    tagged ``unknown`` claims nothing to check and raises FormMismatch.
    """
    if m.form == "mixed":
        if m.bonds is None or m.bonds[m.center - 1] is None:
            raise FormMismatch("mixed form needs weights on the center bond")
        return _isometry_report(m, m.tag, m.center, m.center, tol)
    checks = dict(left=verify_left_normalized, right=verify_right_normalized, vidal=verify_vidal)
    if m.form not in checks:
        raise FormMismatch("the state claims no canonical form to verify")
    return checks[m.form](m, tol)


def truncate(
    m: MatrixProductState, policy: TruncationPolicy | None
) -> tuple[MatrixProductState, list[float]]:
    """Apply ``policy`` at every cut; returns the truncated state and the
    per-cut discarded weights sqrt(sum of dropped lambda^2).

    A canonical-form input is cut where its stored spectra say, and its
    errors are their per-cut tails (an input that loses nothing comes
    back unchanged). Anything else is cut by a left-to-right site sweep
    on the exact Schmidt values of the state truncated so far, so the
    errors add in quadrature to the distance from the input; a QR sweep
    from the right end first right-normalizes the chain so that those
    values are exact. Either way ``_gauge``'s right sweep puts the result
    in canonical form, keeping at least one value per bond.
    """
    if policy is None:
        raise PolicyEmpty("truncate needs a policy")
    blocks = m._chain
    # Checked before any sweep: an infinite block would reach the SVD as NaN and fail as "did not
    # converge", and a Vidal state that loses nothing would come back with no error at all.
    if not all(np.isfinite(g).all() for g in blocks):
        raise ConvergenceFailure(_CHAIN_RANGE)
    if m.form == "vidal" and m.bonds is not None and all(b is not None for b in m.bonds):
        cuts = [_cut(b.values, policy, 0.0) for b in m.bonds]  # type: ignore[union-attr]
        errors = [cut.discarded for cut in cuts]
        keeps = [cut.kept for cut in cuts]
        if keeps == [cut.spectrum.size for cut in cuts]:
            return m, errors
        blocks = [g[:, :left, :right] for g, left, right in zip(blocks, [1] + keeps, keeps + [1])]
        policy = None
    blocks = _mirror(_sweep(_mirror(blocks), len(blocks) - 1, _qr)[0])
    blocks, steps = _sweep(blocks, len(blocks) - 1, lambda a: _split(a, policy, DEFAULT_RANK_TOL))
    if policy is not None:
        errors = [cut.discarded for cut in steps]
    return _gauge(blocks, "vidal", None, DEFAULT_RANK_TOL), errors


def bond_spectrum(m: MatrixProductState, cut: int) -> BondSpectrum:
    """Schmidt coefficients across bond ``cut`` (1..N-1).

    Uses the stored weights when the form provides them at that cut.
    Otherwise the state's QR sweeps, run on its first such query, have
    left-normalized the sites before the cut and, over the mirror,
    right-normalized those after it; the singular values of the bond
    matrix between them, every one LAPACK finds, go to ``_cut``, and those
    above its rank cut at DEFAULT_RANK_TOL are the coefficients.
    """
    _in_range(cut, 1, m.num_sites - 1, CutOutOfRange, "cut")
    if m.bonds is not None and m.bonds[cut - 1] is not None:
        if m.form == "vidal" or (m.form == "mixed" and cut == m.center):
            return m.bonds[cut - 1]
    lefts, rights = m._bond_rs
    with np.errstate(over="ignore", invalid="ignore"):  # _lapack_svd rejects a non-finite product
        weight = lefts[cut - 1] @ rights[-cut].T
    return BondSpectrum(_cut(_lapack_svd(weight, False), None, DEFAULT_RANK_TOL).spectrum)


def entanglement_entropy(m: MatrixProductState, cut: int) -> float:
    """Entanglement entropy across bond ``cut``, in nats."""
    return entropy_from_values(bond_spectrum(m, cut).values)


def _phys_slice(slices, k, n: int) -> np.ndarray:
    """Entry ``k`` of site ``n``'s per-physical-index matrices; ``k`` is an integer, NumPy's too."""
    if not _integer(k):
        raise IndexOutOfRange(f"physical index {k!r} at site {n} is not an integer")
    if not 0 <= k < len(slices):
        raise IndexOutOfRange(f"physical index {k} outside 0..{len(slices) - 1} at site {n}")
    return slices[k]


def apply_site_map(m: MatrixProductState, n: int, x: np.ndarray, k: int) -> np.ndarray:
    """Apply site n's k-th slice to a right-bond vector.

    The matrix-vector product (M^(k) x)_{a_left} = sum_{a_right}
    M^(k)_{a_left, a_right} x_{a_right}; composing these over all sites
    evaluates single coefficients.
    """
    _in_range(n, 1, m.num_sites, IndexOutOfRange, "site")
    site = m.sites[n - 1]
    block = _phys_slice(site.as_array(), k, n)
    vec = np.asarray(x, dtype=complex).reshape(-1)
    if vec.size != site.right_dim:
        raise LengthMismatch(f"vector length {vec.size} != right_dim {site.right_dim} at site {n}")
    return block @ vec


def coefficient(m: MatrixProductState, indices) -> complex:
    """Evaluate one coefficient c_{k1..kN}: the prefix row of the state's
    ``_envs`` tables, built on its first call, is swept through the middle
    sites' slices and dotted with the suffix row."""
    idx = list(indices)
    if len(idx) != m.num_sites:
        raise IndexOutOfRange(f"expected {m.num_sites} indices, got {len(idx)}")
    plain = set(map(type, idx)) <= {int}
    try:
        if not plain or min(idx) < 0:
            raise IndexError
        left, right = m._envs
        lc, mid = left.ndim - 1, m.num_sites - right.ndim + 1
        v = left[tuple(idx[:lc])]
        for k, per_site in zip(idx[lc:mid], m._slices[lc:mid]):
            v = v.dot(per_site[k])
        return complex(v.dot(right[tuple(idx[mid:][::-1])]))
    except IndexError:  # name the leftmost bad index; indices that all pass are NumPy's, taken as ints
        for n, (k, per_site) in enumerate(zip(idx, m._slices), start=1):
            _phys_slice(per_site, k, n)
        if plain:
            raise
        return coefficient(m, list(map(int, idx)))
