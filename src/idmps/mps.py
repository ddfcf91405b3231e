"""Matrix product states over open boundary chains.

A state tensor c_{k1..kN} is represented by N three-index site tensors
M^{(k_n)}_{a_{n-1}, a_n} (bond index 0 of size 1 at both ends) with
optional per-bond weight vectors. Four constructions are provided:

* right-canonical: sites 2..N right-normalized, site 1 carries weights;
* left-canonical: sites 1..N-1 left-normalized, site N carries weights;
* mixed-canonical: left-normalized through a center site, a diagonal
  weight vector at the center bond, right-normalized after;
* canonical (Vidal): weight-free site tensors alternating with bond
  weight vectors such that every bond's weights are that bipartition's
  Schmidt coefficients.

``decompose`` builds all four from one left-to-right SVD sweep over the
dense data (TT-SVD), which is the left-canonical form. The others move
its weight back along the chain with a site-level SVD step on the site
tensors: the right form after a full back-sweep, the mixed form after
the steps down to its center, the Vidal form after a full back-sweep
that records every bond's weights. One rule decides every cut of every
sweep and returns its record (``CutDiagnostics``): the singular values
the SVD found there, how many the policy kept, and the weight it
discarded; ``decompose`` returns the dense sweep's records, whose
discarded weights add in quadrature to the distance between the input
and the returned state. Truncation, of any form, runs the same site
step after one left-normalizing QR sweep. A state keeps read-only
copies of its arrays, so it also keeps what its queries derive, built
on first use: the chain with its stored weights folded in, and the R
factors of that same QR sweep run from each end. Schmidt spectra of
bonds without stored weights need no SVD step: those gauge moves leave
the bond's weight in one small matrix, whose singular values are the
spectrum. The first such query on a state costs the two sweeps, each
later cut one small values-only SVD. No operation here expands a chain
back into a dense tensor except ``to_dense`` itself. Without truncation
the constructions reproduce the input to working precision, and the
bond->Schmidt identifications hold at every cut. ``verify`` checks
whichever gauge a state's form tag claims; every check compares a Gram
contraction with the identity and returns one ``GaugeReport``.

This module owns the form tag: ``MatrixProductState.tag`` writes it
(``mixed:<center>`` for a mixed state) and ``parse_form_tag`` reads it,
for the CLI's ``--form`` and for MPS files alike.
"""

import operator
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CenterOutOfRange, ConvergenceFailure, CutOutOfRange, DimChainBroken, FormMismatch,
    IndexOutOfRange, LengthMismatch, PolicyEmpty, ShapeMismatch, ZeroState,
)
from .schmidt import entropy_from_values
from .tensor import DEFAULT_RANK_TOL, DenseTensor, _lapack_svd, low_rank_error, svd, tensor_new

FORMS = ("left", "right", "mixed", "vidal", "unknown")


@dataclass(frozen=True)
class SiteTensor:
    """One site's three-index block M^{(k)}_{a_left, a_right}.

    ``data`` is flat with entry (k, a_left, a_right) at index
    (k * left_dim + a_left) * right_dim + a_right. It is a read-only copy
    of the array given, as is the shaped view ``as_array`` returns.
    """

    phys_dim: int
    left_dim: int
    right_dim: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if min(self.phys_dim, self.left_dim, self.right_dim) < 1:
            raise ShapeMismatch(
                f"site dims must be >= 1, got ({self.phys_dim}, {self.left_dim}, {self.right_dim})"
            )
        flat = np.array(self.data, dtype=complex, order="C").reshape(-1)
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
    """Per-cut truncation rule: cap the bond at ``max_bond`` values and/or
    drop the largest tail whose discarded weight sqrt(sum lambda^2) stays
    <= ``weight_tol``. At least one field must be set."""

    max_bond: int | None = None
    weight_tol: float | None = None

    def __post_init__(self) -> None:
        if self.max_bond is None and self.weight_tol is None:
            raise PolicyEmpty("set max_bond and/or weight_tol")
        if self.max_bond is not None and self.max_bond < 1:
            raise ValueError(f"max_bond must be >= 1, got {self.max_bond}")
        if self.weight_tol is not None and not self.weight_tol >= 0.0:
            raise ValueError(f"weight_tol must be >= 0, got {self.weight_tol}")


@dataclass(frozen=True)
class MatrixProductState:
    """Immutable open-boundary MPS.

    ``bonds`` is either None or an (N-1)-tuple whose entry n-1 is the
    weight vector on bond n (None where no weights sit, e.g. away from
    the center of a mixed-canonical state). The ``form`` tag records how
    the state was built; it is verified by the verify_* operations,
    never assumed. What queries derive from the state is built on first
    use and kept with it (two threads may both build it, equally).
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
        into the block on its left: a weight-free chain for the same state."""
        blocks = [site.as_array() for site in self.sites]
        for n, spec in enumerate(self.bonds or ()):
            if spec is not None:
                blocks[n] = _frozen(blocks[n] * spec.values)
        return tuple(blocks)

    @cached_property
    def _slices(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per site, the chain block's matrix for each physical index."""
        return tuple(tuple(g) for g in self._chain)

    @cached_property
    def _bond_rs(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The R factors of ``_qr_sweep`` over the chain and over its mirror:
        either side of any cut is an isometry times one of them."""
        return _qr_sweep(list(self._chain)), _qr_sweep(_mirror(self._chain))


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
    states). ``residuals`` are per site, except for the Vidal form, where
    they are per cut and the three site fields are None. A mixed state
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

    ``spectrum`` holds the singular values its SVD found there, after the
    rank cut (for the dense sweep without truncation, that cut's Schmidt
    coefficients of the input), ``kept`` how many of them the policy
    kept, and ``discarded`` the dropped weight sqrt(sum of
    spectrum[kept:]^2).
    """

    spectrum: np.ndarray
    kept: int
    discarded: float


def _cut(s: np.ndarray, policy: TruncationPolicy | None) -> CutDiagnostics:
    """The record of one cut with nonincreasing values ``s``: ``policy``
    (None keeps all) keeps at least one; no values means a zero state."""
    if s.size == 0:
        raise ZeroState("the state is zero")
    keep = int(s.size)
    if policy is not None:
        if policy.max_bond is not None:
            keep = min(keep, policy.max_bond)
        if policy.weight_tol is not None:
            tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[k] = ||s[k:]||
            allowed = np.nonzero(tails <= policy.weight_tol)[0]
            keep = max(min(keep, int(allowed[0]) if allowed.size else keep), 1)
    return CutDiagnostics(s, keep, low_rank_error(s, keep))


def _check_nonzero(data: np.ndarray) -> None:
    if not np.any(data):
        raise ZeroState("cannot decompose the zero tensor")


def _dense_sweep(
    t: DenseTensor, policy: TruncationPolicy | None, rank_tol: float
) -> tuple[list[np.ndarray], tuple[CutDiagnostics, ...]]:
    """TT-SVD, the only pass over dense data: left isometries on sites
    1..N-1, the remaining weight on site N, and each cut's record.
    Blocks are (phys, left, right) arrays."""
    _check_nonzero(t.data)
    blocks, cuts = [], []
    m = t.data.reshape(1, -1)
    for d in t.shape[:-1]:
        res = svd(m.reshape(m.shape[0] * d, -1), rank_tol)
        cuts.append(_cut(res.s, policy))
        keep = cuts[-1].kept
        blocks.append(res.u[:, :keep].reshape(-1, d, keep).transpose(1, 0, 2))
        m = res.s[:keep, None] * res.vh[:keep]
    blocks.append(m.reshape(-1, t.shape[-1]).T[:, :, None])
    return blocks, tuple(cuts)


def _sweep_left(
    blocks: list[np.ndarray], stop: int = 0,
    policy: TruncationPolicy | None = None, rank_tol: float = DEFAULT_RANK_TOL,
) -> list[CutDiagnostics]:
    """Move the weight from the last block onto block ``stop`` (0-based),
    one site step per bond.

    The step SVDs block n across its left bond, leaves the right isometry
    Vh there and absorbs U S into block n-1. Its singular values are the
    Schmidt values of that bond whenever blocks 0..n-1 are left
    isometries. Returns each step's record, last bond first.
    """
    steps = []
    for n in range(len(blocks) - 1, stop, -1):
        d, left, right = blocks[n].shape
        res = svd(blocks[n].transpose(1, 0, 2).reshape(left, d * right), rank_tol)
        steps.append(_cut(res.s, policy))
        keep = steps[-1].kept
        blocks[n] = res.vh[:keep].reshape(keep, d, right).transpose(1, 0, 2)
        blocks[n - 1] = blocks[n - 1] @ (res.u[:, :keep] * res.s[:keep])
    return steps


def _mirror(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """The chain read right to left (block order and bond axes swapped),
    so that a left sweep of the mirror is a right sweep of the chain."""
    return [g.transpose(0, 2, 1) for g in reversed(blocks)]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # what a state keeps must not change under it
    return a


def _state(
    blocks: list[np.ndarray], form: str,
    bonds: tuple[BondSpectrum | None, ...] | None = None, center: int | None = None,
) -> MatrixProductState:
    """The state of a sweep's blocks; a block that is not finite (dividing
    by subnormal weights leaves one) raises ConvergenceFailure."""
    if not all(np.isfinite(g).all() for g in blocks):
        weights = [b.values[-1] for b in bonds or () if b is not None]
        least = f" after division by bond weights as small as {min(weights):.3g}" if weights else ""
        raise ConvergenceFailure(f"a {form} site tensor is not finite{least}")
    sites = tuple(SiteTensor(*g.shape, g) for g in blocks)
    return MatrixProductState(sites=sites, bonds=bonds, form=form, center=center)


def _vidal(blocks: list[np.ndarray], rank_tol: float) -> MatrixProductState:
    """Canonical form of a chain whose blocks 1..N-1 are left isometries.

    An untruncated back-sweep leaves every bond's weights equal to the
    exact Schmidt values of the final state; each Gamma is the block
    left by the sweep divided by its right-bond weights.
    """
    lams = [cut.spectrum for cut in _sweep_left(blocks, 0, None, rank_tol)][::-1]
    with np.errstate(over="ignore", invalid="ignore"):  # _state rejects a non-finite Gamma
        gammas = [g / lam for g, lam in zip(blocks, lams)] + blocks[-1:]
    return _state(gammas, "vidal", tuple(BondSpectrum(lam) for lam in lams))


def decompose(
    t: DenseTensor, form: str, center: int | None = None,
    policy: TruncationPolicy | None = None, rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[MatrixProductState, tuple[CutDiagnostics, ...]]:
    """MPS of ``t`` in ``form`` (left, right, mixed or vidal), with the
    dense sweep's record of each of its N-1 cuts.

    ``center`` (1..N-1, N >= 2) is required for, and only accepted with,
    the mixed form. ``policy`` truncates each cut as the sweep reaches
    it, left to right, so the records' discarded weights add in
    quadrature to the distance between ``t`` and the returned state.
    """
    if form == "mixed":
        if center is None or not 1 <= center <= t.ndim - 1:
            raise CenterOutOfRange(
                f"center must be in 1..{max(t.ndim - 1, 1)} with N >= 2, got {center}"
            )
    elif form not in ("left", "right", "vidal"):
        raise ValueError(f"form must be left, right, mixed or vidal, got {form!r}")
    elif center is not None:
        raise ValueError(f"a center applies only to the mixed form, not {form!r}")
    blocks, cuts = _dense_sweep(t, policy, rank_tol)
    if form == "left":
        return _state(blocks, "left"), cuts
    if form == "right":
        _sweep_left(blocks, 0, None, rank_tol)
        return _state(blocks, "right"), cuts
    if form == "vidal":
        return _vidal(blocks, rank_tol), cuts
    weights = _sweep_left(blocks, center - 1, None, rank_tol)[-1].spectrum
    # The last step absorbed U S into the center site; U alone is left-normalized.
    with np.errstate(over="ignore", invalid="ignore"):  # _state rejects a non-finite site
        blocks[center - 1] = blocks[center - 1] / weights
    bonds: list[BondSpectrum | None] = [None] * (t.ndim - 1)
    bonds[center - 1] = BondSpectrum(weights)
    return _state(blocks, "mixed", tuple(bonds), center), cuts


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


def to_dense(m: MatrixProductState) -> DenseTensor:
    """Contract the chain (including any bond weights) back to a tensor."""
    acc = m._chain[0][:, 0, :]
    for g in m._chain[1:]:
        acc = np.tensordot(acc, g, axes=([-1], [1]))
    return tensor_new(m.phys_dims, acc.reshape(-1))


def _transfer(env: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """sum_k g[k]^+ env g[k] for a (phys, left, right) block g: the left
    environment ``env`` (None for the identity) carried across one site."""
    flat = block.reshape(-1, block.shape[2])
    carried = flat if env is None else np.matmul(env, block).reshape(flat.shape)
    return flat.conj().T @ carried


def _gram_residuals(blocks: list[np.ndarray], chained: bool = False) -> list[float]:
    """max|sum_k g[k]^+ E g[k] - I| for each block g, where E is the
    identity or, when ``chained``, the left environment carried across
    the blocks before g."""
    env, out = None, []
    for g in blocks:
        env = _transfer(env if chained else None, g)
        out.append(float(np.max(np.abs(env - np.eye(env.shape[0])))))
    return out


def site_left_residual(site: SiteTensor) -> float:
    """Deviation of sum_k M^(k)+ M^(k) from the identity."""
    return _gram_residuals([site.as_array()])[0]


def site_right_residual(site: SiteTensor) -> float:
    """Deviation of sum_k M^(k) M^(k)+ from the identity."""
    return _gram_residuals(_mirror([site.as_array()]))[0]


def state_norm(m: MatrixProductState) -> float:
    """Euclidean norm of the state, from the chain contracted with its
    conjugate site by site (the dense tensor is never built)."""
    env = None
    for block in m._chain:
        env = _transfer(env, block)
    return float(np.sqrt(abs(env[0, 0].real)))


def _isometry_report(
    m: MatrixProductState, tag: str, left: int, right: int, tol: float, count_boundary: bool = False
) -> GaugeReport:
    """Sites 1..``left`` checked as left isometries, sites ``right``+1..N
    as right isometries. With right = left + 1, site ``right`` is the
    boundary site: its squared norm is the boundary scalar, and its
    residual |scalar - 1| counts only when ``count_boundary``. With
    right = left, the weights on bond ``left`` give the scalar."""
    if right == left + 1:
        boundary, scalar = right, float(np.sum(np.abs(m.sites[right - 1].data) ** 2))
    else:
        boundary, scalar = None, float(np.sum(m.bonds[left - 1].values ** 2))
    residuals = tuple(
        site_left_residual(site) if n <= left
        else site_right_residual(site) if n > right
        else abs(scalar - 1.0)
        for n, site in enumerate(m.sites, start=1)
    )
    counted = [n for n in range(1, m.num_sites + 1) if n != boundary or count_boundary]
    # argmax picks the first NaN, else the first largest residual.
    worst = counted[int(np.argmax([residuals[n - 1] for n in counted]))] if counted else boundary
    passed = all(residuals[n - 1] <= tol for n in counted)
    return GaugeReport(tag, residuals, worst, boundary, scalar, passed, tol)


def verify_left_normalized(
    m: MatrixProductState, tol: float = 1e-10, assume_normalized: bool = False
) -> GaugeReport:
    """Check sites 1..N-1 against the left isometry condition.

    Site N carries the weights; its squared norm is reported as the
    boundary scalar and compared against 1 only when
    ``assume_normalized`` is set.
    """
    return _isometry_report(m, "left", m.num_sites - 1, m.num_sites, tol, assume_normalized)


def verify_right_normalized(
    m: MatrixProductState, tol: float = 1e-10, assume_normalized: bool = False
) -> GaugeReport:
    """Check sites 2..N against the right isometry condition; site 1
    carries the weights (see verify_left_normalized)."""
    return _isometry_report(m, "right", 0, 1, tol, assume_normalized)


def verify_vidal(m: MatrixProductState, tol: float = 1e-8) -> GaugeReport:
    """Verify the canonical-form property cut by cut.

    For each cut the weighted chain contractions from both ends must
    yield orthonormal vector families; the reported residual is the
    worse of the two Gram deviations. States with fewer than two cuts
    have no cross-bond coupling, so a lone weight vector there is only
    constrained by the families' orthonormality.
    """
    if m.form != "vidal":
        raise FormMismatch(f"expected a vidal-form state, got {m.form!r}")
    if m.bonds is None or any(b is None for b in m.bonds):
        raise FormMismatch("vidal form needs a weight vector on every bond")
    sites = [site.as_array() for site in m.sites]
    lams = [b.values for b in m.bonds]  # type: ignore[union-attr]
    left = sites[:1] + [g * lam[None, :, None] for g, lam in zip(sites[1:], lams)]
    residuals = np.maximum(  # NaN-propagating, unlike max(); the chain carries the right weights
        _gram_residuals(left[:-1], True), _gram_residuals(_mirror(m._chain)[:-1], True)[::-1]
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
    values are exact. Either way the back-sweep of from_dense_vidal puts
    the result in canonical form, keeping at least one value per bond.
    """
    if policy is None:
        raise PolicyEmpty("truncate needs a policy")
    blocks = m._chain
    if m.form == "vidal" and m.bonds is not None and all(b is not None for b in m.bonds):
        cuts = [_cut(b.values, policy) for b in m.bonds]  # type: ignore[union-attr]
        errors = [cut.discarded for cut in cuts]
        keeps = [cut.kept for cut in cuts]
        if keeps == [cut.spectrum.size for cut in cuts]:
            return m, errors
        blocks = [g[:, :left, :right] for g, left, right in zip(blocks, [1] + keeps, keeps + [1])]
        policy = None
    mirror = _mirror(blocks)
    _qr_sweep(mirror)
    _check_nonzero(mirror[-1])  # site 1's block now carries the whole state
    steps = _sweep_left(mirror, 0, policy)
    if policy is not None:
        errors = [cut.discarded for cut in steps]
    return _vidal(_mirror(mirror), DEFAULT_RANK_TOL), errors


def _qr_sweep(blocks: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Left-normalize blocks 0..N-2 in place by a QR sweep that carries
    each step's R into the next block; the last block ends up carrying
    the whole state. Returns the read-only R of each step: the input's
    blocks 0..j are a left isometry times R_j."""
    rs = []
    for n in range(len(blocks) - 1):
        g = blocks[n]
        q, r = np.linalg.qr(g.reshape(-1, g.shape[2]))
        blocks[n] = q.reshape(g.shape[0], g.shape[1], -1)
        blocks[n + 1] = np.matmul(r, blocks[n + 1])
        rs.append(_frozen(r))
    return tuple(rs)


def bond_spectrum(m: MatrixProductState, cut: int) -> BondSpectrum:
    """Schmidt coefficients across bond ``cut`` (1..N-1).

    Uses the stored weights when the form provides them at that cut.
    Otherwise the state's QR sweeps, run on its first such query, have
    left-normalized the sites before the cut and, over the mirror,
    right-normalized those after it; the singular values of the bond
    matrix between them, rank-cut as ``svd`` cuts, are the coefficients.
    """
    if not 1 <= cut <= m.num_sites - 1:
        raise CutOutOfRange(f"cut must be in 1..{m.num_sites - 1}, got {cut}")
    if m.bonds is not None and m.bonds[cut - 1] is not None:
        if m.form == "vidal" or (m.form == "mixed" and cut == m.center):
            return m.bonds[cut - 1]
    lefts, rights = m._bond_rs
    weight = lefts[cut - 1] @ rights[-cut].T
    s, rank = _lapack_svd(weight, False, DEFAULT_RANK_TOL)
    return BondSpectrum(_cut(s[:rank], None).spectrum)


def entanglement_entropy(m: MatrixProductState, cut: int) -> float:
    """Entanglement entropy across bond ``cut``, in nats."""
    return entropy_from_values(bond_spectrum(m, cut).values)


def _phys_slice(slices, k, n: int) -> np.ndarray:
    """Entry ``k`` of site ``n``'s per-physical-index matrices; ``k`` is an integer, NumPy's too."""
    try:
        i = operator.index(k)
    except TypeError:
        raise IndexOutOfRange(f"physical index {k!r} at site {n} is not an integer") from None
    if not 0 <= i < len(slices):
        raise IndexOutOfRange(f"physical index {k} outside 0..{len(slices) - 1} at site {n}")
    return slices[i]


def apply_site_map(m: MatrixProductState, n: int, x: np.ndarray, k: int) -> np.ndarray:
    """Apply site n's k-th slice to a right-bond vector.

    The matrix-vector product (M^(k) x)_{a_left} = sum_{a_right}
    M^(k)_{a_left, a_right} x_{a_right}; composing these over all sites
    evaluates single coefficients.
    """
    if not 1 <= n <= m.num_sites:
        raise IndexOutOfRange(f"site must be in 1..{m.num_sites}, got {n}")
    site = m.sites[n - 1]
    block = _phys_slice(site.as_array(), k, n)
    vec = np.asarray(x, dtype=complex).reshape(-1)
    if vec.size != site.right_dim:
        raise LengthMismatch(f"vector length {vec.size} != right_dim {site.right_dim} at site {n}")
    return block @ vec


def coefficient(m: MatrixProductState, indices) -> complex:
    """Evaluate one coefficient c_{k1..kN} by a left-to-right vector sweep
    through the chain's slices (the full tensor is never materialized)."""
    idx = list(indices)
    if len(idx) != m.num_sites:
        raise IndexOutOfRange(f"expected {m.num_sites} indices, got {len(idx)}")
    v = np.ones(1, dtype=complex)
    for n, (k, slices) in enumerate(zip(idx, m._slices), start=1):
        v = v.dot(_phys_slice(slices, k, n))
    return complex(v[0])
