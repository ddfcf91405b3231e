"""Analytical MPS for an eigenstate of three coupled harmonic oscillators.

After decoupling, the target state carries all its excitation quanta in
one collective mode: n quanta along a unit direction (u1, u2, u3) in
the three-mode Fock space of frequency-omega_tilde ladder operators,
with the direction set by three mixing angles,

    u1 = sin(theta) cos(phi)
    u2 = sin(theta) sin(phi) cos(varphi) - cos(theta) sin(varphi)
    u3 = cos(theta) cos(varphi) + sin(theta) sin(phi) sin(varphi).

Expanding (u . adag)^n / sqrt(n!) applied to the scaled vacuum gives

    psi = sum_{a+l+b=n} sqrt(n!/(a! l! b!)) u1^a u2^l u3^b |a, l, b>

in scaled single-site eigenfunctions, which are then re-expanded in the
unscaled oscillator basis f_k through the overlap coefficients
C_{k,j} I_{k,j}. The bond spectra of the resulting three-site MPS are
the square roots of two binomial distributions: alpha_a with success
probability u1^2 across the first cut and gamma_b with u3^2 across the
second.

Everything here is real arithmetic. Overlaps come from exact Gauss-Hermite
quadrature on the bounded f_k recurrence; the paper's closed form stays a formula.
"""

import functools
from dataclasses import dataclass
from math import comb, exp, factorial, isfinite, ldexp, lgamma, log, pi, sqrt

import numpy as np

from .errors import DegreeTooLarge, IndexOutOfRange, InsufficientNodes
from .mps import MatrixProductState, SiteTensor, _products, to_dense
from .tensor import DenseTensor, _check_entries, _in_range, _integer

#: The largest Hermite degree taken. Raw values overflow a double well inside it:
#: H_200 already does past |x| = 20.57, where ``hermite`` raises OverflowError.
MAX_HERMITE_DEGREE = 200

_QUAD_POINTS_DEFAULT = 64

#: Largest basis per site: beyond it table nodes reach |x| ~ 38.6, where e^{-x^2/2} underflows.
MAX_PHYS_CUTOFF = 600


def _check_omega(omega_tilde: float) -> None:
    """ValueError unless the scaled frequency is finite and > 0."""
    if not 0.0 < omega_tilde < float("inf"):
        raise ValueError(f"omega_tilde must be finite and > 0, got {omega_tilde}")


def _check_overlap_args(i: int, j: int, omega_tilde: float) -> tuple[int, int]:
    """(i, j) as Python ints, so the exact sums stay exact for NumPy's too: ValueError unless
    both are integers >= 0 (see ``_integer``) and omega_tilde passes ``_check_omega``."""
    if not (_integer(i) and _integer(j) and min(i, j) >= 0):
        raise ValueError(f"integer indices must be >= 0, got ({i!r}, {j!r})")
    _check_omega(omega_tilde)
    return int(i), int(j)


@dataclass(frozen=True)
class OscillatorParams:
    """Inputs of the construction.

    ``n`` is the number of quanta in the collective mode, ``omega_tilde``
    the common scaled frequency of the decoupled modes, and the three
    angles fix the mode direction. ``phys_cutoff`` truncates each site's
    infinite basis to its first d functions, at least n+1 so the bond
    structure fits, and the middle site's d(n+1)^2 entries at most MAX_ENTRIES.
    ``n`` and ``phys_cutoff`` are integers (see ``_integer``), else ValueError.
    """

    n: int
    omega_tilde: float
    theta: float
    phi: float
    varphi: float
    phys_cutoff: int

    def __post_init__(self) -> None:
        _in_range(self.n, 0, MAX_PHYS_CUTOFF - 1, ValueError, "n")
        _check_omega(self.omega_tilde)
        if not np.all(np.isfinite([self.theta, self.phi, self.varphi])):
            raise ValueError(f"angles must be finite, got {(self.theta, self.phi, self.varphi)}")
        _in_range(self.phys_cutoff, self.n + 1, MAX_PHYS_CUTOFF, ValueError, "phys_cutoff")
        _check_entries((self.phys_cutoff, self.n + 1, self.n + 1), "the middle site")


@dataclass(frozen=True)
class OscillatorMpsBundle:
    """The three element tables plus the assembled state.

    ``a1[k, a]``, ``a2[l, a, b]`` and ``a3[m, b]`` are the pure element
    tables (a3 carries sqrt(gamma_b)); only a1 and a3 are stored. The
    assembled ``mps`` multiplies the site-2 slices by the collective-mode
    mixing weights, so contracting it yields the physical state.
    """

    a1: np.ndarray
    a3: np.ndarray
    mps: MatrixProductState
    params: OscillatorParams

    @property
    def a2(self) -> np.ndarray:
        """a2[:, a, b] = a1[:, n-a-b] for a+b <= n, else +0.0 (exactly symmetric
        in its lane indices), built on each access: d*(n+1)^2 floats."""
        return _lane_table(self.a1)


def direction_cosines(params: OscillatorParams) -> tuple[float, float, float]:
    """Unit vector (u1, u2, u3) of the excited collective mode."""
    t, p, v = params.theta, params.phi, params.varphi
    u1 = np.sin(t) * np.cos(p)
    u2 = np.sin(t) * np.sin(p) * np.cos(v) - np.cos(t) * np.sin(v)
    u3 = np.cos(t) * np.cos(v) + np.sin(t) * np.sin(p) * np.sin(v)
    return float(u1), float(u2), float(u3)


def _finite(x, what: str = "x") -> np.ndarray:
    """``x`` as a float array; a coordinate that is not finite is a ValueError."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def hermite(j: int, x):
    """Physicist's Hermite polynomial H_j via the three-term recurrence
    H_{j+1} = 2x H_j - 2j H_{j-1}, for an integer j in 0..MAX_HERMITE_DEGREE
    (else DegreeTooLarge) and a finite scalar or array x (else ValueError);
    a value past the double range raises OverflowError, not a numpy warning."""
    _in_range(j, 0, MAX_HERMITE_DEGREE, DegreeTooLarge, "degree")
    x = _finite(x)
    with np.errstate(over="ignore", invalid="ignore"):
        h = _hermite_extended(j, x)
    if not np.isfinite(h).all():
        raise OverflowError(f"H_{j} at x leaves the double-precision range")
    return h if np.ndim(h) else float(h)


def _f_values(k_max: int, x) -> np.ndarray:
    """Orthonormal oscillator functions f_0..f_kmax at x, stacked on
    axis 0. Uses the normalized recurrence
    f_{k+1} = x sqrt(2/(k+1)) f_k - sqrt(k/(k+1)) f_{k-1},
    which stays bounded where e^{-x^2/2} H_k would overflow. From
    |x| = 38.6 on, f_0 = pi^(-1/4) e^{-x^2/2} rounds to 0 and so does every
    f_k the recurrence gives, so clipping x at 39 changes no value and
    keeps x^2 finite."""
    arr = np.clip(np.asarray(x, dtype=float), -39.0, 39.0)
    out = np.empty((k_max + 1,) + arr.shape, dtype=float)
    out[0] = pi ** -0.25 * np.exp(-(arr**2) / 2.0)
    if k_max >= 1:
        out[1] = sqrt(2.0) * arr * out[0]
    for k in range(1, k_max):
        out[k + 1] = arr * sqrt(2.0 / (k + 1)) * out[k] - sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def basis_f(i_site: int, k: int, x):
    """Value of the k-th orthonormal oscillator basis function
    f_k(x) = e^{-x^2/2} H_k(x) / sqrt(2^k k! sqrt(pi)) at a finite scalar or array
    x (else ValueError); the site index only labels which coordinate x is."""
    _in_range(i_site, 1, 3, ValueError, "site label")
    _in_range(k, 0, MAX_HERMITE_DEGREE, DegreeTooLarge, "degree")
    vals = _f_values(k, _finite(x))[k]
    return vals if np.ndim(x) else float(vals)


def coeff_C(i: int, j: int, omega_tilde: float) -> float:
    """Normalization factor sqrt(sqrt(w) / (pi 2^i 2^j i! j!)),
    evaluated in log space so large i, j stay finite."""
    i, j = _check_overlap_args(i, j, omega_tilde)
    ln = 0.25 * log(omega_tilde) - 0.5 * (
        log(pi) + (i + j) * log(2.0) + lgamma(i + 1) + lgamma(j + 1)
    )
    return exp(ln)


def integral_I_closed(i: int, j: int, omega_tilde: float) -> float:
    """Closed form of I_{i,j} = int e^{-(1+w)x^2/2} H_i(x) H_j(sqrt(w) x) dx.

    Differentiating the generating function
    I(s,t) = sqrt(2 pi/(1+w)) exp(2(sqrt(w) t + s)^2/(1+w) - s^2 - t^2)
    i times in s and j times in t collapses to a single finite sum over
    r with r = i = j (mod 2), r <= min(i,j), q = (i-r)/2, p = (j-r)/2:

        I_{i,j} = sqrt(2 pi/(1+w)) * sum_r i! j! / (p! q! r!)
                  * (-1)^p (1-w)^{p+q} (4 sqrt(w))^r / (1+w)^{p+q+r}.

    The alternating sum is evaluated exactly: a float w is a rational,
    and sqrt(w)^r = sqrt(w)^(i mod 2) w^((r - i mod 2)/2), so every term is
    rational; the exact sum is rounded to a float once, at the end, and
    only then multiplied by the irrational prefactor.
    Entries of opposite parity are exactly zero. Since |coeff_C * I| <= 1,
    |I| <= sqrt(pi 2^(i+j) i! j!) / w^(1/4); that bound fits a double for
    every w >= 0.01 while i + j <= 296 (at w = 1, I_{i,i} = sqrt(pi) 2^i i!
    first overflows at i = 151). Where |I| itself exceeds the double range,
    DegreeTooLarge is raised.
    """
    i, j = _check_overlap_args(i, j, omega_tilde)
    if (i + j) % 2:
        return 0.0
    from fractions import Fraction  # here: it imports decimal, which nothing else needs

    w, odd = Fraction(omega_tilde), i % 2
    total = Fraction(0)
    for r in range(odd, min(i, j) + 1, 2):
        q, p = (i - r) // 2, (j - r) // 2
        count = factorial(i) * factorial(j) // (factorial(p) * factorial(q) * factorial(r))
        total += (-1) ** p * count * (1 - w) ** (p + q) * 4**r * w ** ((r - odd) // 2)
    exact = total / (1 + w) ** ((i + j) // 2)  # p + q + r is (i + j) / 2 for every r
    # Rounded as mantissa times a power of two, so no step overflows before the last.
    scale = exact.numerator.bit_length() - exact.denominator.bit_length()
    irrational = sqrt(2.0 * pi / (1.0 + omega_tilde)) * sqrt(omega_tilde) ** odd
    try:
        return ldexp(irrational * float(exact / Fraction(2) ** scale), scale)
    except OverflowError:
        raise DegreeTooLarge(
            f"I_{{{i},{j}}} at omega_tilde={omega_tilde} exceeds the double-precision range"
        ) from None


def _hermite_extended(j: int, x: np.ndarray) -> np.ndarray:
    """H_j on an array, preserving the array's float precision."""
    h_prev = np.ones_like(x)
    if j == 0:
        return h_prev
    h = 2.0 * x
    for m in range(1, j):
        h, h_prev = 2.0 * x * h - 2.0 * m * h_prev, h
    return h


@functools.lru_cache(maxsize=16)
def _hermgauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights at extended precision.

    Entries of large degree gap nearly cancel across the rule (the
    term-magnitude sum can exceed the integral by ~1e9), so double
    precision nodes cap the achievable accuracy near 1e-7. Newton steps
    on H_n from the double-precision seeds push nodes and weights to
    the platform's long-double precision, which the evaluation keeps.
    """
    seeds, _ = np.polynomial.hermite.hermgauss(points)
    x = seeds.astype(np.longdouble)
    for _ in range(3):
        h = _hermite_extended(points, x)
        hp = 2.0 * points * _hermite_extended(points - 1, x)
        x = x - h / hp
    # enforce exact +/- node symmetry so odd integrands cancel to 0.0
    x = (x - x[::-1]) / 2.0
    h_below = _hermite_extended(points - 1, x)
    # weights: 2^(n-1) n! sqrt(pi) / (n H_{n-1}(x))^2
    weights = (
        np.longdouble(2.0) ** (points - 1)
        * np.longdouble(factorial(points))
        * np.sqrt(np.longdouble(pi))
        / (np.longdouble(points) * h_below) ** 2
    )
    return x, weights


def integral_I_quadrature(
    i: int, j: int, omega_tilde: float, points: int = _QUAD_POINTS_DEFAULT
) -> float:
    """Gauss-Hermite evaluation of the same integral, as an independent
    check on the closed form.

    Substituting y = x sqrt((1+w)/2) turns the weight into e^{-y^2}
    with a polynomial integrand of degree i+j, so ``points`` nodes are
    exact once 2*points - 1 >= i + j; the whole rule runs in long
    double so near-cancelling entries keep ~1e-10 relative accuracy; a
    result that is not a finite double raises DegreeTooLarge.
    """
    i, j = _check_overlap_args(i, j, omega_tilde)
    if not (_integer(points) and 2 * points >= i + j + 2):
        raise InsufficientNodes(
            f"{points!r} nodes cannot integrate degree {i + j}; need an integer of at least (i+j)/2 + 1"
        )
    if i > MAX_HERMITE_DEGREE or j > MAX_HERMITE_DEGREE:
        raise DegreeTooLarge(f"degrees must be <= {MAX_HERMITE_DEGREE}, got ({i}, {j})")
    nodes, weights = _hermgauss(points)
    w = np.longdouble(omega_tilde)
    scale = np.sqrt((1.0 + w) / 2.0)
    x = nodes / scale
    vals = _hermite_extended(i, x) * _hermite_extended(j, np.sqrt(w) * x)
    terms = weights * vals
    # fold mirror nodes together first: odd-parity integrands then
    # cancel term by term, leaving an exact 0.0
    half = points // 2
    total = np.sum(terms[:half] + terms[::-1][:half])
    if points % 2:
        total += terms[half]
    if not isfinite(out := float(total / scale)):
        raise DegreeTooLarge(f"quadrature of I_{{{i},{j}}} leaves the double-precision range")
    return out


def _binomial_weight(k: int, params: OscillatorParams, mode: int, name: str) -> float:
    """Binomial weight of k of the n quanta in ``mode`` (0-based)."""
    _in_range(k, 0, params.n, IndexOutOfRange, name)
    u = direction_cosines(params)[mode]
    p = u * u
    return comb(params.n, k) * p**k * (1.0 - p) ** (params.n - k)


def alpha(a: int, params: OscillatorParams) -> float:
    """Squared Schmidt coefficient across the (1):(2,3) cut: the
    binomial weight of putting a quanta into mode 1."""
    return _binomial_weight(a, params, 0, "a")


def gamma(b: int, params: OscillatorParams) -> float:
    """Squared Schmidt coefficient across the (1,2):(3) cut: the
    binomial weight of putting b quanta into mode 3."""
    return _binomial_weight(b, params, 2, "b")


def _overlap_table(d: int, n_lanes: int, w: float) -> np.ndarray:
    """Overlaps C_{k,j} I_{k,j} = int f_k(x) w^{1/4} f_j(sqrt(w) x) dx, k < d, j < n_lanes. In
    y = x sqrt((1+w)/2) the integrand is e^{-y^2} times a degree-(k+j) polynomial, so p-node
    Gauss-Hermite is exact; weight times e^{y^2} is 1/(p f_{p-1}(y)^2), finite where e^{y^2}
    is not. Entries of odd k+j are exactly 0.0."""
    p = (d + n_lanes) // 2 + 1
    y = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1, p) / 2.0), 1), UPLO="U")
    weights = 1.0 / (p * _f_values(p - 1, y)[-1] ** 2)
    scale = sqrt(2.0 / (1.0 + w))
    out = scale * (_f_values(d - 1, scale * y) * weights) @ _scaled_f(n_lanes - 1, scale * y, w).T
    out[np.add.outer(np.arange(d), np.arange(n_lanes)) % 2 == 1] = 0.0
    return out


def _mixing_weights(params: OscillatorParams) -> np.ndarray:
    """Site-2 assembly weights w[a, b] distributing the collective-mode
    multinomial over the bond lanes.

    With nu3 = sqrt(1 - u3^2), c1 = u1/nu3, c2 = u2/nu3:
    w[a, b] = sqrt(binom(n-b, a)) c1^a c2^{n-a-b} sign(u3)^b for
    a+b <= n, else 0. Combined with the sqrt(gamma_b) carried by site 3
    this reproduces sqrt(n!/(a! l! b!)) u1^a u2^l u3^b lane by lane.
    """
    n = params.n
    u1, u2, u3 = direction_cosines(params)
    nu3 = sqrt(max(1.0 - u3 * u3, 0.0))
    # At the pole only the (a, b) = (0, n) lane survives.
    c1, c2 = (u1 / nu3, u2 / nu3) if nu3 > 1e-150 else (0.0, 0.0)
    sgn3 = 1.0 if u3 >= 0.0 else -1.0
    out = np.zeros((n + 1, n + 1))
    for a in range(n + 1):
        for b in range(n + 1 - a):
            out[a, b] = sqrt(comb(n - b, a)) * c1**a * c2 ** (n - a - b) * sgn3**b
    return out


def _lane_table(a1: np.ndarray) -> np.ndarray:
    """The table ``OscillatorMpsBundle.a2`` of a (d, n+1) table ``a1``."""
    n = a1.shape[1] - 1
    index = n - np.add.outer(np.arange(n + 1), np.arange(n + 1))
    out = a1[:, index]  # a+b > n reads a wrapped column, zeroed next
    out[:, index < 0] = 0.0
    return out


def build_bundle(params: OscillatorParams) -> OscillatorMpsBundle:
    """Build the element tables and assemble the three-site MPS.

    a1[k, a] = C_{k,a} I_{k,a}; a3[m, b] = sqrt(gamma_b) C_{m,b} I_{m,b}.
    Site 2 is the a2 table, built once and scaled in place by the mixing
    weights, so its bond spectra are sorted sqrt(alpha) and sqrt(gamma)
    once the basis cutoff resolves the state.
    """
    n, d, w = params.n, params.phys_cutoff, params.omega_tilde
    a1 = _overlap_table(d, n + 1, w)
    gammas = np.array([gamma(b, params) for b in range(n + 1)])
    a3 = a1 * np.sqrt(gammas)[None, :]
    middle = _lane_table(a1)
    middle *= _mixing_weights(params)
    sites = (
        SiteTensor(d, 1, n + 1, a1.reshape(d, 1, n + 1)),
        SiteTensor(d, n + 1, n + 1, middle),
        SiteTensor(d, n + 1, 1, a3.reshape(d, n + 1, 1)),
    )
    mps = MatrixProductState(sites=sites, form="unknown")
    return OscillatorMpsBundle(a1=a1, a3=a3, mps=mps, params=params)


def wavefunction_mps(bundle: OscillatorMpsBundle, x1: float, x2: float, x3: float) -> float:
    """Evaluate the assembled MPS against the basis functions at one point: each block of its
    folded chain (stored bond weights count) is contracted with its site's basis values, and
    ``_products`` multiplies the three matrices out."""
    fs = _f_values(bundle.params.phys_cutoff - 1, _finite((x1, x2, x3), "the point"))
    blocks = map(lambda f, g: np.tensordot(f, g, axes=1)[None], fs.T, bundle.mps._chain)
    return float(_products(blocks, np.inf)[0][0, 0].real)


def _scaled_f(j_max: int, x: float, w: float) -> np.ndarray:
    """Frequency-w eigenfunctions up to j_max at x: w^(1/4) f_j(sqrt(w) x)."""
    return w**0.25 * _f_values(j_max, np.asarray(sqrt(w) * x, dtype=float))


def wavefunction_direct(
    params: OscillatorParams, x1: float, x2: float, x3: float, route: str = "alpha"
) -> float:
    """Evaluate the state from its Schmidt sum, independent of the MPS.

    route="alpha" groups (1):(2,3) and sums over the mode-1 occupation;
    route="gamma" groups (1,2):(3). Both are exact and agree to
    roundoff; the basis cutoff never enters.
    """
    n, w = params.n, params.omega_tilde
    u1, u2, u3 = direction_cosines(params)
    # As Python floats, sqrt(w) * x rounds to inf without a warning, and _f_values clips it.
    p1, p2, p3 = (_scaled_f(n, x, w) for x in _finite((x1, x2, x3), "the point").tolist())
    # (outer, first inner, last inner) modes: the Schmidt sum runs over
    # the outer mode's occupation, the inner sum over the first mode's.
    if route == "alpha":
        (uo, po), (uf, pf), (ul, pl) = (u1, p1), (u2, p2), (u3, p3)
    elif route == "gamma":
        (uo, po), (uf, pf), (ul, pl) = (u3, p3), (u1, p1), (u2, p2)
    else:
        raise ValueError(f"route must be 'alpha' or 'gamma', got {route!r}")
    nu = sqrt(max(1.0 - uo * uo, 0.0))
    cf, cl = (uf / nu, ul / nu) if nu > 1e-150 else (0.0, 0.0)
    total = 0.0
    for a in range(n + 1):
        inner = sum(
            sqrt(comb(n - a, l)) * cf**l * cl ** (n - a - l) * pf[l] * pl[n - a - l]
            for l in range(n - a + 1)
        )
        total += sqrt(comb(n, a)) * uo**a * nu ** (n - a) * po[a] * inner
    return float(total)


def _decay_lanes(bundle: OscillatorMpsBundle, which: str) -> list[tuple]:
    """The lanes of ``element_decay_table(bundle, which)`` in its row order,
    as (a, b, name, j): the lane's rows are k, |getattr(bundle, name)[k, j]|
    for k < d. A2 lane (a, b) reads a1's column n-a-b, so a2 is never built."""
    n = bundle.params.n
    if which == "A1":
        return [(a, None, "a1", a) for a in range(n + 1)]
    if which == "A2":
        return [(a, b, "a1", n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    if which == "A3":
        return [(None, b, "a3", b) for b in range(n + 1) if gamma(b, bundle.params) != 0.0]
    raise ValueError(f"which must be 'A1', 'A2' or 'A3', got {which!r}")


def element_decay_table(bundle: OscillatorMpsBundle, which: str) -> list[dict]:
    """Magnitude of each table element versus its physical index.

    One row per (lane, physical index) with keys which / a / b / k /
    magnitude, lane by lane and physical index fastest; lanes that are
    identically zero are omitted. This is the data behind the
    element-decay plots.
    """
    return [
        {"which": which, "a": a, "b": b, "k": k, "magnitude": m}
        for a, b, name, j in _decay_lanes(bundle, which)
        for k, m in enumerate(np.abs(getattr(bundle, name)[:, j]).tolist())
    ]


def oscillator_dense(bundle: OscillatorMpsBundle) -> DenseTensor:
    """Convenience: the assembled state as a dense (d, d, d) tensor."""
    return to_dense(bundle.mps)
