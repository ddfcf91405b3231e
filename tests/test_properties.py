"""Property tests over random shapes and truncation policies."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idmps import (
    MatrixProductState,
    SiteTensor,
    TruncationPolicy,
    bond_spectrum,
    decompose,
    from_dense_left_canonical,
    from_dense_mixed_canonical,
    from_dense_right_canonical,
    from_dense_vidal,
    low_rank_error,
    schmidt_decompose,
    tensor_new,
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
    """``verify`` at each form's default tolerance (1e-8 for Vidal)."""
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


@settings(max_examples=60, deadline=None)
@given(cases)
def test_truncate_errors_combine_to_the_distance(case):
    shape, policy, seed = case
    t = unit_tensor(shape, seed)
    for name, build in builders(t).items():
        if name == "vidal":
            continue  # sliced by stored weights; the errors only bound the distance
        out, errors = truncate(build(None), policy)
        distance = float(np.linalg.norm(t.data - to_dense(out).data))
        assert len(errors) == t.ndim - 1
        assert all(err <= distance + 1e-10 for err in errors), name
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
