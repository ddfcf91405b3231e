"""Property tests over random shapes and truncation policies."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idmps.mps
from idmps import (
    BondSpectrum,
    MatrixProductState,
    SiteTensor,
    TruncationPolicy,
    ZeroState,
    bond_spectrum,
    coefficient,
    decompose,
    entanglement_entropy,
    from_dense_left_canonical,
    from_dense_mixed_canonical,
    from_dense_right_canonical,
    from_dense_vidal,
    low_rank_error,
    schmidt_decompose,
    schmidt_entropy,
    site_left_residual,
    site_right_residual,
    state_norm,
    tensor_new,
    tensor_norm,
    to_dense,
    truncate,
    verify,
    verify_vidal,
)

shapes = st.lists(st.integers(2, 4), min_size=2, max_size=6).map(tuple)
max_bonds = st.integers(1, 8)
weight_tols = st.floats(0.0, 0.8)
policies = st.one_of(
    st.builds(TruncationPolicy, max_bond=max_bonds),
    st.builds(TruncationPolicy, weight_tol=weight_tols),
    st.builds(TruncationPolicy, max_bond=max_bonds, weight_tol=weight_tols),
)
cases = st.tuples(shapes, policies, st.integers(0, 2**32 - 1))


def unit_tensor(shape, seed):
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    data = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return tensor_new(shape, data / np.linalg.norm(data))


def builders(t):
    """Every construction of ``t``; the mixed form at each valid center."""
    out = {
        "left": lambda p: from_dense_left_canonical(t, p),
        "right": lambda p: from_dense_right_canonical(t, p),
        "vidal": lambda p: from_dense_vidal(t, p),
    }
    for center in range(2, t.ndim):
        out[f"mixed:{center}"] = lambda p, c=center: from_dense_mixed_canonical(t, c, p)
    return out


def passes_own_verifier(m) -> bool:
    """``verify`` at each form's default tolerance (1e-10 for every form)."""
    return verify_vidal(m).passed if m.form == "vidal" else verify(m).passed


@settings(max_examples=60, deadline=None)
@given(cases)
def test_truncated_constructions_pass_their_verifier(case):
    shape, policy, seed = case
    t = unit_tensor(shape, seed)
    for name, build in builders(t).items():
        assert passes_own_verifier(build(policy)), name


@settings(max_examples=60, deadline=None)
@given(cases)
# A harder cut 4 lowers the rank at cut 3 to 2, below the 3 values kept there.
@example(((3, 3, 2, 2, 3, 3), TruncationPolicy(max_bond=3, weight_tol=0.484375), 0))
def test_decompose_records_add_to_the_distance(case):
    shape, policy, seed = case
    t = unit_tensor(shape, seed)
    forms = [("left", None), ("right", None), ("vidal", None)]
    forms += [("mixed", center) for center in range(2, t.ndim)]
    for form, center in forms:
        m, cuts = decompose(t, form, center, policy)
        assert len(cuts) == t.ndim - 1
        # Bonds the back-sweep did not cross keep the sweep's bond; on the
        # others its rank cut leaves the Schmidt rank of the final state,
        # which a later truncated cut can have lowered.
        swept_from = {"left": t.ndim, "mixed": center}.get(form, 1)
        dense = to_dense(m)
        for bond, (dim, cut) in enumerate(zip(m.bond_dims, cuts), start=1):
            if bond < swept_from:
                assert dim == cut.kept, (form, center, bond)
            else:
                rank = schmidt_decompose(dense, bond).coefficients.size
                assert dim == rank <= cut.kept, (form, center, bond)
        for cut in cuts:
            assert cut.discarded == low_rank_error(cut.spectrum, cut.kept)
        distance = float(np.linalg.norm(t.data - dense.data))
        quadrature = float(np.sqrt(sum(cut.discarded**2 for cut in cuts)))
        assert abs(quadrature - distance) <= 1e-10, (form, center)


rank_tols = st.floats(-12.0, np.log10(0.9)).map(lambda e: 10.0**e)  # log-uniform in [1e-12, 0.9]


@settings(max_examples=60, deadline=None)
@given(shapes, rank_tols, st.one_of(st.none(), policies), st.integers(0, 2**32 - 1))
# The cut at 2 lowers the state's spectrum at cut 1, so a right sweep cutting at rank_tol again,
# not only numerical zeros, would drop weight that no record counts.
@example((4, 2, 4), 0.6790601652694139, TruncationPolicy(weight_tol=0.31890849531172294), 3782260412)
def test_records_count_what_the_rank_cut_drops(shape, rank_tol, policy, seed):
    """At any rank tolerance, every form's records add in quadrature to the distance from
    the input: what the rank cut drops is counted with what the policy drops."""
    t = unit_tensor(shape, seed)
    forms = [("left", None), ("right", None), ("vidal", None)]
    forms += [("mixed", center) for center in range(1, t.ndim)]
    for form, center in forms:
        m, cuts = decompose(t, form, center, policy, rank_tol)
        distance = float(np.linalg.norm(t.data - to_dense(m).data))
        quadrature = float(np.sqrt(sum(cut.discarded**2 for cut in cuts)))
        assert abs(quadrature - distance) <= 1e-12 * tensor_norm(t), (form, center)
        for cut in cuts:
            assert cut.discarded >= low_rank_error(cut.spectrum, cut.kept), (form, center)


@settings(max_examples=60, deadline=None)
@given(cases)
def test_truncate_errors_combine_to_the_distance(case):
    shape, policy, seed = case
    t = unit_tensor(shape, seed)
    for name, build in builders(t).items():
        out, errors = truncate(build(None), policy)
        distance = float(np.linalg.norm(t.data - to_dense(out).data))
        assert len(errors) == t.ndim - 1
        assert passes_own_verifier(out), name
        assert all(err <= distance + 1e-10 for err in errors), name
        if name == "vidal":
            continue  # per-cut tails of the stored spectra only bound the distance (Eckart-Young)
        assert abs(float(np.sqrt(np.sum(np.square(errors)))) - distance) <= 1e-10, name


@settings(max_examples=30, deadline=None)
@given(cases)
def test_constructions_are_bit_reproducible(case):
    shape, policy, seed = case
    t = unit_tensor(shape, seed)
    for name, build in builders(t).items():
        first, second = build(policy), build(policy)
        assert first.bond_dims == second.bond_dims, name
        for a, b in zip(first.sites, second.sites):
            assert a.data.tobytes() == b.data.tobytes(), name
        for a, b in zip(first.bonds or (), second.bonds or ()):
            assert (a is None) == (b is None), name
            assert a is None or a.values.tobytes() == b.values.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=6).map(tuple),
    st.one_of(st.none(), policies),
    st.data(),
    st.integers(0, 2**32 - 1),
)
def test_the_forms_share_one_right_sweep_bit_for_bit(shape, policy, data, seed):
    """``mixed:c`` is the right sweep stopped at bond c: its center weights are the Vidal
    form's bond-c weights, its sites c+1..N the right form's and its sites 1..c-1 the
    left form's, byte for byte."""
    t = unit_tensor(shape, seed)
    c = data.draw(st.integers(1, len(shape) - 1), label="center")
    left, right, vidal, mixed = (
        decompose(t, form, center, policy)[0]
        for form, center in (("left", None), ("right", None), ("vidal", None), ("mixed", c))
    )

    def same(a, b):
        return a.as_array().shape == b.as_array().shape and a.data.tobytes() == b.data.tobytes()

    assert mixed.bonds[c - 1].values.tobytes() == vidal.bonds[c - 1].values.tobytes()
    assert all(map(same, mixed.sites[c:], right.sites[c:]))
    assert all(map(same, mixed.sites[: c - 1], left.sites[: c - 1]))


def spectrum_state(shape, kind, scale, seed):
    """An unnormalized random, GHZ-like or product tensor."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        data = unit_tensor(shape, seed).data
    elif kind == "ghz":
        data = np.zeros(shape, dtype=complex)
        for k in range(min(shape)):
            data[(k,) * len(shape)] = rng.standard_normal() + 1j
    else:
        data = np.ones(1, dtype=complex)
        for d in shape:
            data = np.kron(data, rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return tensor_new(shape, scale * data.reshape(-1))


def unknown_chain(shape, seed):
    """Random sites with random bond dimensions: a chain in no gauge."""
    rng = np.random.default_rng(seed)
    dims = [1] + [int(x) for x in rng.integers(1, 6, size=len(shape) - 1)] + [1]
    sites = []
    for d, left, right in zip(shape, dims, dims[1:]):
        size = d * left * right
        data = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        sites.append(SiteTensor(d, left, right, data))
    return MatrixProductState(sites=tuple(sites))


@settings(max_examples=60, deadline=None)
@given(
    shapes,
    st.sampled_from(["random", "ghz", "product"]),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_bond_spectra_match_the_dense_schmidt_values(shape, kind, scale, seed):
    t = spectrum_state(shape, kind, scale, seed)
    chains = [decompose(t, form, None)[0] for form in ("left", "right")]
    chains += [decompose(t, "mixed", center)[0] for center in range(2, t.ndim)]
    chains.append(MatrixProductState(sites=chains[0].sites))
    chains.append(unknown_chain(shape, seed))
    for m in chains:
        dense = to_dense(m)
        bound = 1e-12 * float(np.linalg.norm(dense.data))
        for cut in range(1, t.ndim):
            got = bond_spectrum(m, cut).values
            want = schmidt_decompose(dense, cut).coefficients
            assert got.shape == want.shape, (m.form, cut)
            assert np.max(np.abs(got - want)) <= bound, (m.form, cut)


def qr_weight(blocks):
    """R of a left-normalizing QR sweep that carries each step's R into
    the next block: the chain is a left isometry times this matrix."""
    r = np.ones((1, 1), dtype=complex)
    for g in blocks:
        g = np.matmul(r, g)
        r = np.linalg.qr(g.reshape(-1, g.shape[2]), mode="r")
    return r


def reference_spectrum(m, cut):
    """bond_spectrum without a cache: stored weights where the form gives
    them, else two R-only QR sweeps that meet at the cut, every call."""
    if m.bonds is not None and m.bonds[cut - 1] is not None:
        if m.form == "vidal" or (m.form == "mixed" and cut == m.center):
            return m.bonds[cut - 1].values
    blocks = [site.as_array() for site in m.sites]
    for n, spec in enumerate(m.bonds or ()):
        if spec is not None:
            blocks[n] = blocks[n] * spec.values
    mirror = [g.transpose(0, 2, 1) for g in reversed(blocks[cut:])]
    s = np.linalg.svd(qr_weight(blocks[:cut]) @ qr_weight(mirror).T, compute_uv=False)
    return s[: int(np.count_nonzero(s > 1e-12 * s[0]))]


def fresh(m):
    """The same state as a new object, with nothing derived yet."""
    return MatrixProductState(sites=m.sites, bonds=m.bonds, form=m.form, center=m.center)


def cached_arrays(m):
    """Every array ``m`` and its sites keep."""
    lefts, rights = m._bond_rs
    slices = [a for per_site in m._slices for a in per_site]
    return [*m._chain, *slices, *lefts, *rights, *(s.data for s in m.sites),
            *(s.as_array() for s in m.sites)]


@settings(max_examples=40, deadline=None)
@given(shapes, policies, st.booleans(), st.integers(0, 2**32 - 1))
def test_cached_queries_match_uncached_ones_in_any_order(shape, policy, truncated, seed):
    t = unit_tensor(shape, seed)
    states = [decompose(t, form, None)[0] for form in ("left", "right", "vidal")]
    states.append(decompose(t, "mixed", t.ndim // 2)[0])
    states.append(unknown_chain(shape, seed))
    if truncated:
        states = [truncate(m, policy)[0] for m in states]
    # An untagged copy of a weighted state exercises weights folded into the chain.
    states += [MatrixProductState(sites=m.sites, bonds=m.bonds) for m in states if m.bonds]
    rng = np.random.default_rng(seed)
    picks = [tuple(int(rng.integers(d)) for d in shape) for _ in range(8)]
    cuts = range(1, len(shape))
    for m in states:
        # coefficient -> spectra -> truncate/to_dense/state_norm -> coefficient
        first = fresh(m)
        coefs = [coefficient(first, idx) for idx in picks]
        spectra = [bond_spectrum(first, cut).values for cut in cuts]
        cut_state, errors = truncate(first, policy)
        dense, norm = to_dense(first), state_norm(first)
        assert [coefficient(first, idx) for idx in picks] == coefs, m.form
        for cut, got in zip(cuts, spectra):
            assert got.tobytes() == reference_spectrum(m, cut).tobytes(), (m.form, cut)
        bound = 1e-12 * max(1.0, float(np.linalg.norm(dense.data)))
        array = dense.as_array()
        for idx, c in zip(picks, coefs):
            assert abs(c - array[idx]) <= bound, (m.form, idx)
        # The reverse order on a second copy gives identical values.
        second = fresh(m)
        cut_again, errors_again = truncate(second, policy)
        assert state_norm(second) == norm
        assert to_dense(second).data.tobytes() == dense.data.tobytes()
        assert [bond_spectrum(second, cut).values.tobytes() for cut in cuts] == [
            v.tobytes() for v in spectra
        ]
        assert [coefficient(second, idx) for idx in picks] == coefs
        assert errors_again == errors
        assert to_dense(cut_again).data.tobytes() == to_dense(cut_state).data.tobytes()
        for a in cached_arrays(first):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 64),
    st.lists(st.integers(1, 48), min_size=0, max_size=2),
    st.sampled_from([None, 1, 97, 4096]),
    st.integers(0, 2**32 - 1),
)
# The module's own slab with a 64 x 48 x 48 middle site: 2.25 slabs.
@example(64, [48, 48], None, 0)
def test_sliced_transfer_matches_whole_block_references(d, bonds, slab, seed):
    """``state_norm`` and the site residuals summed slab by slab of
    physical indices equal the dense norm and a one-shot einsum Gram.
    ``slab`` shrinks the slab (None keeps the module's), so small chains
    cross it many times; the first site has no environment."""
    rng = np.random.default_rng(seed)
    dims = [1, *bonds, 1]
    blocks = []
    for left, right in zip(dims, dims[1:]):
        g = rng.standard_normal((d, left, right)) + 1j * rng.standard_normal((d, left, right))
        blocks.append(g / np.linalg.norm(g))
    m = MatrixProductState(sites=tuple(SiteTensor(d, *g.shape[1:], g) for g in blocks))
    with mock.patch.object(idmps.mps, "_SLAB", slab or idmps.mps._SLAB):
        norm = state_norm(m)
        residuals = [(site_left_residual(s), site_right_residual(s)) for s in m.sites]
    assert norm == pytest.approx(np.linalg.norm(to_dense(m).data), rel=1e-12)
    for g, (left_res, right_res) in zip(blocks, residuals):
        left_gram = np.einsum("kab,kac->bc", g.conj(), g)
        right_gram = np.einsum("kab,kcb->ac", g, g.conj())
        assert abs(left_res - np.max(np.abs(left_gram - np.eye(g.shape[2])))) <= 1e-12
        assert abs(right_res - np.max(np.abs(right_gram - np.eye(g.shape[1])))) <= 1e-12
        if slab is None and g.size <= idmps.mps._SLAB:
            # One slab is the whole-block product, bit for bit.
            flat = g.reshape(-1, g.shape[2])
            assert left_res == float(np.max(np.abs(flat.conj().T @ flat - np.eye(g.shape[2]))))


@settings(max_examples=60, deadline=None)
@given(shapes, st.sampled_from(["random", "ghz", "product"]), st.data(), st.integers(0, 2**32 - 1))
def test_wide_factor_and_the_sweep_do_not_depend_on_the_slab_width(shape, kind, data, seed):
    """At every cut of a random, GHZ-like or product tensor, ``_wide_factor``'s
    L, built from slabs of any width it takes (from as many columns as A has
    rows to the whole matrix), has L L^H = A A^H for the unfolding A.
    ``decompose``'s spectra and state with any slab size agree with those of
    one slab (the module's own ``_SLAB`` holds these small tensors whole);
    its sites may differ more where two singular values lie close."""
    t = spectrum_state(shape, kind, 1.0, seed)
    t = tensor_new(shape, t.data / tensor_norm(t))
    for cut in range(1, t.ndim):
        a = t.data.reshape(int(np.prod(shape[:cut])), -1)
        width = data.draw(st.integers(len(a), max(a.shape)), label=f"columns per slab at cut {cut}")
        with mock.patch.object(idmps.mps, "_SLAB", 4 * width * len(a)):
            left = idmps.mps._wide_factor(a)
        assert np.max(np.abs(left @ left.conj().T - a @ a.conj().T)) <= 1e-13, cut
    whole, whole_cuts = decompose(t, "left")
    entries = data.draw(st.integers(1, t.size), label="entries per slab in decompose")
    with mock.patch.object(idmps.mps, "_SLAB", 4 * entries):
        sliced, sliced_cuts = decompose(t, "left")
    assert sliced.bond_dims == whole.bond_dims
    for a, b in zip(sliced_cuts, whole_cuts):
        assert a.spectrum.shape == b.spectrum.shape
        assert np.max(np.abs(a.spectrum - b.spectrum)) <= 1e-13
    assert np.max(np.abs(to_dense(sliced).data - to_dense(whole).data)) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-300, 300),
    st.sampled_from([("left", None), ("right", None), ("mixed", 3), ("vidal", None)]),
    st.integers(0, 2**32 - 1),
)
# Where the plain contraction underflows to 0 and overflows to NaN.
@example(-171, ("left", None), 0)
@example(171, ("left", None), 0)
@example(-300, ("vidal", None), 1)
@example(300, ("right", None), 2)
# Where squared spectra underflow (cuts, tails, entropies) or overflow in plain doubles.
@example(-180, ("left", None), 0)
@example(-170, ("mixed", 3), 0)
@example(160, ("vidal", None), 0)
@example(180, ("right", None), 0)
def test_state_norm_scales_with_the_state(k, form, seed):
    """state_norm of the decomposed c * t is c times that of t, for every
    c = 10^k, and no numpy warning is raised on the way. So are each cut's
    spectrum and discarded weight (no policy, a bond cap, a weight
    tolerance times c), the bond spectra, their low-rank errors, the
    tensor norm and coefficients; kept bonds and entropies stay the same."""
    rng = np.random.default_rng(seed)
    unit = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    c = 10.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = state_norm(decompose(tensor_new((2,) * 6, c * unit), *form)[0])
        got, got_kept, got_entropies = scale_record(tensor_new((2,) * 6, c * unit), form, c)
    assert scaled == pytest.approx(c * state_norm(decompose(tensor_new((2,) * 6, unit), *form)[0]), rel=1e-12)
    want, want_kept, want_entropies = scale_record(tensor_new((2,) * 6, unit), form, 1.0)
    assert got_kept == want_kept
    assert got_entropies == pytest.approx(want_entropies, rel=1e-12, abs=1e-12)
    for (values, _), (reference, largest) in zip(got, want):
        assert values.shape == reference.shape
        assert np.max(np.abs(values - c * reference)) <= 1e-12 * c * largest, k


def scale_record(t, form, c):
    """What ``t``'s decompositions and queries report, the weight tolerance
    scaled by ``c``: (values that scale with the state, each with the
    largest value of its cut or state), the kept bonds, and the entropies."""
    scaled, kept = [], []
    for policy in (None, TruncationPolicy(max_bond=3), TruncationPolicy(weight_tol=0.05 * c)):
        m, cuts = decompose(t, *form, policy)
        scaled += [(np.append(cut.spectrum, cut.discarded), cut.spectrum[0]) for cut in cuts]
        kept.append((m.bond_dims, [cut.kept for cut in cuts]))
    m = decompose(t, *form)[0]
    for cut in range(1, t.ndim):
        values = bond_spectrum(m, cut).values
        errors = [low_rank_error(values, keep) for keep in range(values.size + 1)]
        scaled.append((np.append(values, errors), values[0]))
    entropies = [entanglement_entropy(m, cut) for cut in range(1, t.ndim)]
    entropies += [schmidt_entropy(schmidt_decompose(t, cut)) for cut in range(1, t.ndim)]
    picks = [(0,) * 6, (1,) * 6, (0, 1, 1, 0, 1, 0), (1, 0, 0, 1, 1, 1)]
    norm = tensor_norm(t)
    scaled.append((np.array([norm] + [coefficient(m, idx) for idx in picks]), norm))
    return scaled, kept, entropies


def loop_coefficient(m, idx):
    """The coefficient by a plain left-to-right vector sweep over the chain."""
    v = np.ones(1, dtype=complex)
    for k, g in zip(idx, m._chain):
        v = v.dot(g[k])
    return complex(v[0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=10).map(tuple),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@example((2,) * 10, 6, 0)  # tables on both ends, with and without a middle
@example((1,) * 6, 1, 0)  # a prefix table over the whole chain
def test_coefficient_tables_match_the_vector_sweep(shape, bond, seed):
    """``coefficient`` read from the prefix and suffix tables agrees with
    a plain vector sweep and with ``to_dense`` in every form, on weighted
    untagged copies and on truncated states; the tables are read-only and
    each holds at most half the chain's entries."""
    t = unit_tensor(shape, seed)
    policy = TruncationPolicy(max_bond=bond)
    states = [decompose(t, form, None, policy)[0] for form in ("left", "right", "vidal")]
    if len(shape) > 1:
        states.append(decompose(t, "mixed", 1 + seed % (len(shape) - 1), policy)[0])
    chain = unknown_chain(shape, seed)
    states += [chain, truncate(chain, policy)[0]]
    states += [MatrixProductState(sites=m.sites, bonds=m.bonds) for m in states if m.bonds]
    rng = np.random.default_rng(seed)
    picks = {tuple(int(rng.integers(d)) for d in shape) for _ in range(16)}
    for m in map(fresh, states):
        bound = 1e-12 * state_norm(m)
        dense = to_dense(m).as_array()
        for idx in picks:
            got = coefficient(m, idx)
            assert abs(got - loop_coefficient(m, idx)) <= bound, (m.form, idx)
            assert abs(got - dense[idx]) <= bound, (m.form, idx)
        left, right = m._envs
        assert (left.ndim - 1) + (right.ndim - 1) <= m.num_sites
        for table in (left, right):
            # A table over no site is the unit row [1].
            assert table.ndim == 1 or 2 * table.size <= sum(g.size for g in m._chain)
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0.0


def recorded_decompose(t, form, center, policy):
    """``decompose`` with the records of the SVD steps after the dense sweep, in the order they ran."""
    records, split = [], idmps.mps._split

    def recording(*args):
        records.append(split(*args))
        return records[-1]

    with mock.patch.object(idmps.mps, "_split", recording):
        m, cuts = decompose(t, form, center, policy)
    return m, cuts, [step[2] for step in records[len(cuts):]]


def assert_phases_pinned(vectors, where):
    """Each column's first largest-magnitude entry is positive, up to 1e-15 of its size."""
    for j, v in enumerate(vectors.T):
        pivot = v[np.argmax(np.abs(v))]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-15 * abs(pivot), (where, j, pivot)


def wide_chain(shape, bonds, seed):
    """Random sites with the given bond dimensions, and whether truncating the chain takes a
    wide site step: after the right-normalizing QR sweep, bond n is at most d_{n+1} times bond
    n+1, and a step of the left sweep is wide where that bond exceeds d times the one it got."""
    rng = np.random.default_rng(seed)
    dims = [1, *bonds[: len(shape) - 1], 1]
    sites = []
    for d, left, right in zip(shape, dims, dims[1:]):
        data = rng.standard_normal(d * left * right) + 1j * rng.standard_normal(d * left * right)
        sites.append(SiteTensor(d, left, right, data))
    for n in range(len(shape) - 1, 0, -1):
        dims[n] = min(dims[n], shape[n] * dims[n + 1])
    kept, wide = 1, False
    for d, right in zip(shape, dims[1:-1]):
        wide |= right > d * kept
        kept = min(d * kept, right)
    return MatrixProductState(sites=tuple(sites)), wide


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["dense", "truncated", "unknown"]),
    shapes,
    st.lists(st.integers(1, 8), min_size=5, max_size=5),
    st.floats(0.01, 0.5),
    st.integers(0, 2**32 - 1),
)
# Bond 1 is 5 > 2 x 1 and stays 4 after the QR sweep: site 1's step is wide.
@example("unknown", (2, 2, 2), [5, 3, 1, 1, 1], 0.1, 0)
def test_one_site_sweep_leaves_dense_spectra_pinned_phases_and_exact_truncations(
    kind, shape, bonds, tol, seed
):
    """Right, mixed and Vidal states are right sweeps of the dense sweep's left state. Untruncated,
    their spectra (the right sweep's steps, the Vidal weights, the mixed center weights) are the
    dense sweep's within 1e-13 s_max. Every isometry a sweep leaves has each bond vector's phase
    pinned by ``svd``'s gauge. ``truncate`` with a policy that drops nothing stays within 1e-12
    of the state's norm and is in canonical form, also for chains whose bonds exceed d times a
    neighbour's, where a site step's unfolding is wide and goes through ``_wide_factor``."""
    states, n = [], len(shape)
    if kind == "unknown":
        m, wide = wide_chain(shape, bonds, seed)
        states.append(m)
    else:
        t = unit_tensor(shape, seed)
        policy = TruncationPolicy(weight_tol=tol) if kind == "truncated" else None
        forms = [("left", None), ("right", None), ("vidal", None)] + [("mixed", c) for c in range(1, n)]
        for form, center in forms:
            m, cuts, steps = recorded_decompose(t, form, center, policy)
            states.append(m)
            lefts = {"left": n - 1, "mixed": (center or 1) - 1}.get(form, 0)
            rights = {"right": 1, "mixed": center}.get(form, n)
            for i, site in enumerate(m.sites[:lefts], start=1):
                a = site.as_array()
                assert_phases_pinned(a.transpose(1, 0, 2).reshape(-1, a.shape[2]), (form, center, i))
            for i, site in enumerate(m.sites[rights:], start=rights + 1):
                a = site.as_array()
                assert_phases_pinned(a.transpose(0, 2, 1).reshape(-1, a.shape[1]), (form, center, i))
            if policy is not None or form == "left":
                continue
            spectra = [step.spectrum for step in steps[::-1]]
            if form == "vidal":
                spectra = [b.values for b in m.bonds]
            elif form == "mixed":
                assert np.array_equal(m.bonds[center - 1].values, steps[-1].spectrum)
            for cut, got in zip(cuts[n - 1 - len(spectra):], spectra):
                assert got.shape == cut.spectrum.shape, (form, center)
                assert np.max(np.abs(got - cut.spectrum)) <= 1e-13 * cut.spectrum[0], (form, center)
    for m in states:
        with mock.patch.object(idmps.mps, "_wide_factor", wraps=idmps.mps._wide_factor) as factor:
            out, errors = truncate(m, TruncationPolicy(weight_tol=0.0))
        if kind == "unknown":
            assert factor.called == wide
        assert errors == [0.0] * (m.num_sites - 1)
        dense = to_dense(m).data
        assert np.linalg.norm(to_dense(out).data - dense) <= 1e-12 * np.linalg.norm(dense), m.tag
        assert verify_vidal(out).passed, m.tag


def small_weight_chain(seed, lo, n=8, d=2):
    """A normalized d^n tensor from a chain of random isometries, each bond of dimension D
    scaled by geomspace(1, lo, D): Schmidt values spread over many decades at every cut."""
    rng = np.random.default_rng(seed)
    dims = [min(d**k, d ** (n - k)) for k in range(n + 1)]
    m = np.ones((1, 1), dtype=complex)
    for left, right in zip(dims, dims[1:]):
        a = rng.standard_normal((d * left, right)) + 1j * rng.standard_normal((d * left, right))
        m = (m @ np.linalg.qr(a)[0].reshape(left, d * right)).reshape(-1, right) * np.geomspace(1, lo, right)
    return tensor_new((d,) * n, m.reshape(-1) / np.linalg.norm(m))


@settings(max_examples=60, deadline=None)
@given(st.floats(-7.0, -5.0), st.integers(0, 2**32 - 1))
@example(-5.0, 54)  # a chained left family read 1.4e-5 here
@example(-6.0, 31)
def test_fresh_vidal_states_with_tiny_schmidt_values_pass_verify(log_lo, seed):
    """A fresh Vidal decomposition passes ``verify`` at its default tolerance
    however small its Schmidt values: no check divides by a weight."""
    m = decompose(small_weight_chain(seed, 10.0**log_lo), "vidal")[0]
    rep = verify(m)
    assert rep.tol == 1e-10
    assert rep.passed, max(rep.residuals)


def test_verify_vidal_detects_a_wrong_smallest_weight_inside_the_chain():
    """On chains at lo = 1e-6, raising the smallest weight of any bond 2..N-1 whose
    weights span about six decades (1e-7 to 1e-5) by 1 % fails ``verify_vidal`` at 1e-8."""
    checked = 0
    for seed in range(20):
        m = decompose(small_weight_chain(seed, 1e-6), "vidal")[0]
        assert verify_vidal(m).passed
        for n in range(2, m.num_sites):
            values = m.bonds[n - 1].values.copy()
            if not 1e-7 <= values[-1] / values[0] <= 1e-5:
                continue
            values[-1] *= 1.01
            bonds = m.bonds[: n - 1] + (BondSpectrum(values),) + m.bonds[n:]
            assert not verify_vidal(MatrixProductState(m.sites, bonds, "vidal"), 1e-8).passed, (seed, n)
            checked += 1
    assert checked >= 40


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-300, 300),
    st.sampled_from([("left", None), ("right", None), ("mixed", 3), ("vidal", None)]),
    st.integers(0, 2**32 - 1),
)
@example(-300, ("vidal", None), 1)
@example(300, ("vidal", None), 1)
@example(-300, ("left", None), 0)
@example(300, ("right", None), 0)
@example(-300, ("mixed", 3), 0)
def test_verify_residuals_do_not_depend_on_the_scale(k, form, seed):
    """The residuals of ``verify`` on the decomposed c * t, c = 10^k, are those
    of t within 1e-14, and no numpy warning is raised; the boundary site's
    residual |scalar - 1| is the only one that moves with the scale."""
    rng = np.random.default_rng(seed)
    unit = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = verify(decompose(tensor_new((2,) * 6, 10.0**k * unit), *form)[0])
    want = verify(decompose(tensor_new((2,) * 6, unit), *form)[0])
    assert got.boundary_site == want.boundary_site
    skip = (want.boundary_site or 0) - 1
    diffs = [abs(a - b) for n, (a, b) in enumerate(zip(got.residuals, want.residuals)) if n != skip]
    assert len(got.residuals) == len(want.residuals) and max(diffs) <= 1e-14, (k, form)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple))
@example((1,))
def test_the_zero_state_raises_the_cut_rules_error(shape):
    """The zero tensor of any shape, in every form and at every mixed center, raises the
    cut rule's ZeroState, and no numpy warning is raised on the way."""
    t = tensor_new(shape, np.zeros(int(np.prod(shape))))
    forms = [("left", None), ("right", None), ("vidal", None)]
    forms += [("mixed", center) for center in range(1, t.ndim)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for form, center in forms:
            with pytest.raises(ZeroState, match="^the state is zero$"):
                decompose(t, form, center)


ZERO_CHAINS = {
    "one zero site": (SiteTensor(3, 1, 1, np.zeros(3)),),
    "two zero sites": (SiteTensor(2, 1, 2, np.zeros(4)), SiteTensor(2, 2, 1, np.zeros(4))),
    # Nonzero sites whose bond vectors are orthogonal contract to zero.
    "orthogonal bonds": (SiteTensor(1, 1, 2, np.array([1.0, 0.0])), SiteTensor(1, 2, 1, np.array([0.0, 1.0]))),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ZERO_CHAINS)), st.sampled_from(["left", "unknown"]), policies)
def test_truncating_a_zero_chain_raises_the_cut_rules_error(chain, form, policy):
    """``truncate`` of a zero chain raises the cut rule's ZeroState under any policy,
    and no numpy warning is raised on the way."""
    m = MatrixProductState(sites=ZERO_CHAINS[chain], form=form)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroState, match="^the state is zero$"):
            truncate(m, policy)
