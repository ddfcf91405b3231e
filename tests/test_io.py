"""File formats: the streamed writers against json.dump of the whole
document and their peak memory, the block reader of tensor and MPS files
against the json.load path and its peak memory, both across chunk and
block edges, rejection of malformed or non-finite payloads, and the
oscillator CSV against csv.writer."""

import csv
import filecmp
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from idmps import (
    BondSpectrum,
    FileFormatError,
    MatrixProductState,
    OscillatorParams,
    SiteTensor,
    build_bundle,
    element_decay_table,
    gamma,
    load_mps,
    load_tensor,
    save_mps,
    save_tensor,
    tensor_new,
)
import idmps.cli
import idmps.io
from idmps.cli import _write_decay_csv, main
from idmps.io import _CHUNK, _write_pairs

# Pair counts at chunk edges: one pair, a chunk boundary a few chunks in
# (one pair short of it, on it, one pair past it) and a ragged count.
LENGTHS = [1, 4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1, 8 * _CHUNK + 3]
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def _pairs(data) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(data, dtype=complex).reshape(-1)]


def _dumped(doc) -> str:
    buf = io.StringIO()
    json.dump(doc, buf)
    return buf.getvalue() + "\n"


def _payload(length: int, real: bool, seed: int) -> np.ndarray:
    """Random entries with the float extremes (and a negative zero
    imaginary part) at the front."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(length)
    if not real:
        data = data + 1j * rng.standard_normal(length)
        data[: len(EXTREMES)] = [complex(v, -v) for v in EXTREMES][:length]
    else:
        data[: len(EXTREMES)] = EXTREMES[:length]
    return data


@pytest.mark.parametrize("length", [0, *LENGTHS])
def test_write_complex_matches_json_dump(length):
    data = _payload(length, real=False, seed=length)
    buf = io.StringIO()
    _write_pairs(buf, data)
    assert buf.getvalue() == json.dumps(_pairs(data))


@pytest.mark.parametrize(
    "length,real", [(length, False) for length in LENGTHS] + [(1, True), (4 * _CHUNK + 1, True)]
)
def test_save_tensor_matches_json_dump(tmp_path, length, real):
    t = tensor_new((length,), _payload(length, real, seed=length))
    path = tmp_path / "t.json"
    save_tensor(str(path), t)
    assert path.read_text() == _dumped({"version": 1, "shape": [length], "data": _pairs(t.data)})


def test_save_tensor_multi_axis_matches_json_dump(tmp_path):
    t = tensor_new((3, 1, 4), _payload(12, real=False, seed=3))
    path = tmp_path / "t.json"
    save_tensor(str(path), t)
    assert path.read_text() == _dumped({"version": 1, "shape": [3, 1, 4], "data": _pairs(t.data)})


def _chain(length: int, bonds: str, real: bool) -> MatrixProductState:
    """Three sites: a first site of ``length`` entries (phys_dim length,
    bond dims 1), then two sites joined by a bond of dimension 3."""
    sites = (
        SiteTensor(length, 1, 1, _payload(length, real, seed=length)),
        SiteTensor(2, 1, 3, _payload(6, real, seed=1)),
        SiteTensor(2, 3, 1, _payload(6, real, seed=2)),
    )
    extreme = BondSpectrum(np.array([1.7976931348623157e308, 1.0, 5e-324]))
    if bonds == "null":
        return MatrixProductState(sites=sites, form="left")
    if bonds == "mixed":
        return MatrixProductState(sites=sites, bonds=(None, extreme), form="mixed", center=2)
    return MatrixProductState(sites=sites, bonds=(BondSpectrum(np.array([0.5])), extreme), form="vidal")


def _mps_document(m: MatrixProductState) -> dict:
    form = f"mixed:{m.center}" if m.form == "mixed" else m.form
    return {
        "version": 1,
        "form": form,
        "sites": [
            {"phys_dim": s.phys_dim, "left_dim": s.left_dim, "right_dim": s.right_dim, "data": _pairs(s.data)}
            for s in m.sites
        ],
        "bonds": None
        if m.bonds is None
        else [None if b is None else [float(v) for v in b.values] for b in m.bonds],
    }


MPS_CASES = [(length, "vidal", False) for length in LENGTHS] + [
    (length, bonds, real)
    for length in (1, 4 * _CHUNK + 1)
    for bonds in ("null", "mixed")
    for real in (False, True)
]


@pytest.mark.parametrize("length,bonds,real", MPS_CASES)
def test_save_mps_matches_json_dump(tmp_path, length, bonds, real):
    m = _chain(length, bonds, real)
    path = tmp_path / "m.json"
    save_mps(str(path), m)
    assert path.read_text() == _dumped(_mps_document(m))
    back = load_mps(str(path))
    for s, t in zip(back.sites, m.sites):
        assert s.data.view(np.uint64).tolist() == t.data.view(np.uint64).tolist()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)

# Few values, so that payloads repeat them: the zeros, the float extremes,
# NaN of either sign and the infinities, and a couple of ordinary numbers.
POOL = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        np.nan, -np.nan, np.inf, -np.inf, 0.1, -2.5]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([0, 1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 3]),
    st.lists(st.one_of(st.sampled_from(POOL), finite_floats), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_write_complex_is_json_dumps_for_repeated_and_special_values(
    tmp_path_factory, length, pool, seed
):
    flat = np.random.default_rng(seed).choice(np.array(pool), size=2 * length)
    buf = io.StringIO()
    _write_pairs(buf, flat.view(complex))
    assert buf.getvalue() == json.dumps(flat.reshape(-1, 2).tolist())
    if length:
        data = np.where(np.isfinite(flat), flat, 0.5).view(complex)
        site = SiteTensor(length, 1, 1, data)
        path = tmp_path_factory.mktemp("pool") / "m.json"
        save_mps(str(path), MatrixProductState(sites=(site, site)))
        for back in load_mps(str(path)).sites:
            assert back.data.view(np.uint64).tolist() == data.view(np.uint64).tolist()


MAX = 1.7976931348623157e308
# Where repr's notation and orjson's part: each edge and its two neighbours, of either sign.
EDGES = [v for edge in (1e-9, 1e-4, 1e16) for v in (np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf))]
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, np.nan, np.inf, -np.inf]
any_bits = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 1, _CHUNK - 1, _CHUNK + 1]),
    st.lists(
        st.one_of(any_bits, st.sampled_from(EDGES).map(float), st.sampled_from(EDGES).map(float.__neg__),
                  st.sampled_from(SPECIALS)),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 2**32 - 1),
)
def test_texts_spell_each_entry_as_json_dumps(length, pool, seed):
    """Each entry's text, orjson's or json's, is json.dumps's: a chunk mixes
    the drawn values with raw 64-bit patterns from the seed."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**64, size=length, dtype=np.uint64).view(np.float64)
    values = np.where(rng.random(length) < 0.5, rng.choice(np.array(pool), size=length), raw)
    assert idmps.io._texts(values) == list(map(json.dumps, values.tolist()))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)), elements=finite_floats))
def test_tensor_round_trip_is_bit_exact(tmp_path_factory, parts):
    data = parts.view(complex).reshape(-1)
    path = tmp_path_factory.mktemp("rt") / "t.json"
    save_tensor(str(path), tensor_new((data.size,), data))
    back = load_tensor(str(path)).data
    assert back.view(np.uint64).tolist() == data.view(np.uint64).tolist()


@settings(max_examples=80, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.just(2)),
        elements=st.one_of(st.sampled_from(EXTREMES), finite_floats),
    ),
    st.sampled_from(["save_tensor", "json.dump"]),
    st.booleans(),
    st.sampled_from([1, 40, idmps.io._BLOCK]),
)
def test_block_reader_is_bit_exact(tmp_path_factory, parts, writer, newline, block):
    """Files in the writers' layout load through the block reader, never
    json.load, bit for bit, whatever block boundaries fall where."""
    data = parts.view(complex).reshape(-1)
    path = tmp_path_factory.mktemp("blocks") / "t.json"
    if writer == "save_tensor":
        save_tensor(str(path), tensor_new((data.size,), data))
        text = path.read_text()
    else:
        text = _dumped({"version": 1, "shape": [data.size], "data": _pairs(data)})
    path.write_text(text if newline else text[:-1])
    with mock.patch.object(idmps.io, "_BLOCK", block), mock.patch(
        "json.load", side_effect=AssertionError("the json.load path ran")
    ):
        back = load_tensor(str(path)).data
    assert back.view(np.uint64).tolist() == data.view(np.uint64).tolist()


def _outcome(path: str):
    """What load_tensor makes of a file: (shape, data bits) or the
    FileFormatError message."""
    try:
        t = load_tensor(path)
    except FileFormatError as exc:
        return str(exc)
    return t.shape, t.data.view(np.uint64).tolist()


BASE_TENSOR = '{"version": 1, "shape": [4], "data": [[1.0, 0.0], [0.0, 1.0], [0.5, -0.25], [2.0, 3.0]]}\n'
LONG_INT = "1" + "0" * 400

# (edits to BASE_TENSOR, whether the block reader takes the result)
MUTATED_TENSORS = {
    "int": ([("[0.5,", "[3,")], True),
    "exponent": ([("[0.5,", "[5E-1,")], True),
    "minus-zero-int": ([("[0.5,", "[-0,")], True),
    "overflow": ([("[0.5,", "[1e400,")], True),
    "no-newline": ([("}\n", "}")], True),
    "huge-shape": ([("[4]", "[1099511627776]")], True),
    "plus": ([("[0.5,", "[+1,")], False),
    "leading-dot": ([("[0.5,", "[.5,")], False),
    "trailing-dot": ([("[0.5,", "[1.,")], False),
    "leading-zero": ([("[0.5,", "[01,")], False),
    "nan": ([("[0.5,", "[NaN,")], False),
    "long-int": ([("[0.5,", f"[{LONG_INT},")], False),
    "overflow-then-long-int": ([("[0.5,", "[1e400,"), ("[2.0,", f"[{LONG_INT},")], False),
    "bool": ([("[0.5,", "[true,")], False),
    "three": ([("-0.25]", "-0.25, 1.0]")], False),
    "nested": ([("[0.5, -0.25]", "[[0.5, -0.25], 1.0]")], False),
    "spaces": ([("[0.5, -0.25]", "[0.5,  -0.25]")], False),
    "swapped-keys": ([('"version": 1, "shape": [4]', '"shape": [4], "version": 1')], True),
    "float-shape": ([("[4]", "[4.0]")], True),
    "deep-shape": ([("[4]", "[" * 100000 + "4]")], False),
    "empty-data": ([("[[1.0, 0.0], [0.0, 1.0], [0.5, -0.25], [2.0, 3.0]]", "[]")], False),
    "crlf": ([("}\n", "}\r\n")], False),
    # Number bytes outside every pair: json.load rejects them, and the
    # skeleton of the first or last block would not show them.
    "digit-before-first-pair": ([('"data": [[', '"data": [5[')], False),
    "digit-after-last-pair": ([("3.0]]", "3.0]5]")], False),
}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-(2**1100), 2**1100), st.integers(-(2**70), 2**70)),
        min_size=1,
        max_size=20,
    )
)
def test_block_reader_ints_agree_with_json_load(tmp_path_factory, pairs):
    """Integer entries, exact or rounded, and those beyond the float range
    (which fall back), load as the json.load path loads them."""
    path = tmp_path_factory.mktemp("ints") / "t.json"
    path.write_text(_dumped({"version": 1, "shape": [len(pairs)], "data": [list(p) for p in pairs]}))
    got = _outcome(str(path))
    with mock.patch.object(idmps.io, "_read_blocks", return_value=None):
        assert got == _outcome(str(path))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(*[st.one_of(st.integers(-(2**1100), 2**1100), st.integers(-(2**65), 2**65), st.floats())] * 2),
        max_size=20,
    )
)
@example([(2**53 + 1, -(2**53) - 3), (2**63 + 1, 2**64 - 1), (0.5, -0.0)])
@example([(1.5, 2), (10**400, 0), (float("nan"), 1)])
def test_json_load_pairs_decode_as_complex_of_each_pair(pairs):
    """The json.load path converts a payload in one call, yet gives complex(re, im)
    of each pair bit for bit, an int rounded once; an int past the float range, or
    else a NaN or infinity, makes the first such entry a FileFormatError."""
    doc, first_bad, expected = [list(p) for p in pairs], None, []
    for i, pair in enumerate(pairs):
        try:
            expected.append(complex(*pair))
        except OverflowError:
            first_bad = i if first_bad is None else first_bad
    if first_bad is None:
        first_bad = next((i for i, z in enumerate(expected) if not np.isfinite(z)), None)
    if first_bad is None:
        got = idmps.io._decode_complex(doc, "t")
        assert got.view(np.uint64).tolist() == np.array(expected, dtype=complex).view(np.uint64).tolist()
    else:
        with pytest.raises(FileFormatError, match=rf"^t: entry {first_bad} is not finite$"):
            idmps.io._decode_complex(doc, "t")


@pytest.mark.parametrize("block", [1, idmps.io._BLOCK])
@pytest.mark.parametrize("name", MUTATED_TENSORS)
def test_block_reader_agrees_with_json_load(tmp_path, name, block):
    """Every mutated file gives the json.load path's tensor or its
    FileFormatError message; the block reader takes only files json.load
    reads the same."""
    edits, taken = MUTATED_TENSORS[name]
    text = BASE_TENSOR
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "t.json"
    path.write_text(text)
    with mock.patch.object(idmps.io, "_BLOCK", block):
        assert (idmps.io._read_blocks(str(path)) is not None) == taken
        got = _outcome(str(path))
    with mock.patch.object(idmps.io, "_read_blocks", return_value=None):
        assert got == _outcome(str(path))
    if name == "huge-shape":
        assert got.endswith(": 4 entries for shape (1099511627776,)")


BASE_MPS = (
    '{"version": 1, "form": "vidal", "sites": ['
    '{"phys_dim": 2, "left_dim": 1, "right_dim": 2, "data": [[1.0, 0.0], [0.0, 1.0], [0.5, -0.25], [2.0, 3.0]]}, '
    '{"phys_dim": 2, "left_dim": 2, "right_dim": 1, "data": [[0.5, 0.0], [0.0, 0.5], [1.5, 0.0], [0.0, -1.0]]}], '
    '"bonds": [[0.75, 0.25]]}\n'
)
FORM_WITH_PAYLOAD = ('"form": "vidal"', '"form": "vidal\\"data\\": [[1.0, 2.0]]"')

# (edits to BASE_MPS, whether the block reader takes the result)
MUTATED_MPS = {
    "unchanged": ([], True),
    "int": ([("[0.5, -0.25]", "[3, -0.25]")], True),
    "exponent": ([("[2.0, 3.0]]", "[2E0, 3e-0]]")], True),
    "overflow": ([("[1.5, 0.0]", "[1e400, 0.0]")], True),
    "no-newline": ([("}\n", "}")], True),
    "pair-short": ([(", [2.0, 3.0]]", "]")], True),
    "pair-past": ([("[2.0, 3.0]]", "[2.0, 3.0], [1.0, 1.0]]")], True),
    "empty-site-data": ([("[[0.5, 0.0], [0.0, 0.5], [1.5, 0.0], [0.0, -1.0]]", "[]")], True),
    "huge-dim": ([('"phys_dim": 2, "left_dim": 1', '"phys_dim": 1099511627776, "left_dim": 1')], True),
    "dims-permuted": ([('"phys_dim": 2, "left_dim": 2, "right_dim": 1', '"phys_dim": 1, "left_dim": 2, "right_dim": 2')], True),
    "swapped-site-keys": ([('"phys_dim": 2, "left_dim": 1', '"left_dim": 1, "phys_dim": 2')], True),
    "swapped-top-keys": ([('"version": 1, "form": "vidal"', '"form": "vidal", "version": 1')], True),
    "version-2": ([('"version": 1', '"version": 2')], True),
    "top-level-list": ([('{"version"', '[{"version"'), ("}\n", "}]\n")], True),
    "bonds-null": ([("[[0.75, 0.25]]", "null")], True),
    "plus": ([("[0.5, -0.25]", "[+1, -0.25]")], False),
    "trailing-dot": ([("[0.5, -0.25]", "[1., -0.25]")], False),
    "nan": ([("[0.5, -0.25]", "[NaN, -0.25]")], False),
    "bool": ([("[0.5, -0.25]", "[true, -0.25]")], False),
    "nan-bond": ([("[[0.75, 0.25]]", "[[NaN, 0.25]]")], False),
    "spaces-in-payload": ([("[0.5, -0.25]", "[0.5,  -0.25]")], False),
    "spaces-in-skeleton": ([('"sites": [{', '"sites": [ {')], False),
    "crlf": ([("}\n", "}\r\n")], False),
    "repeated-data-key": ([('"right_dim": 2, "data": [[', '"right_dim": 2, "data": [[9.0, 9.0]], "data": [[')], False),
    "escaped-form": ([('"form": "vidal"', '"form": "vid\\u0061l"')], False),
    # Number bytes outside a site's pairs: json.load rejects them.
    "digit-before-first-pair": ([('"data": [[1.0, 0.0]', '"data": [5[1.0, 0.0]')], False),
    "digit-after-last-pair": ([("[2.0, 3.0]]", "[2.0, 3.0]5]")], False),
    # A payload's text inside a string, alone and with a NaN that could take its place.
    "payload-in-form": ([FORM_WITH_PAYLOAD], False),
    "payload-in-form-and-nan-bond": ([FORM_WITH_PAYLOAD, ("[[0.75, 0.25]]", "[[NaN, 0.25]]")], False),
}


def _mps_outcome(path: str):
    """What load_mps makes of a file: its tag, site dims and data bits and
    bond bits, or the FileFormatError message."""
    try:
        m = load_mps(path)
    except FileFormatError as exc:
        return str(exc)
    sites = [(s.phys_dim, s.left_dim, s.right_dim, s.data.view(np.uint64).tolist()) for s in m.sites]
    bonds = None if m.bonds is None else [None if b is None else b.values.view(np.uint64).tolist() for b in m.bonds]
    return m.tag, sites, bonds


@pytest.mark.parametrize("block", [1, idmps.io._BLOCK])
@pytest.mark.parametrize("name", MUTATED_MPS)
def test_mps_block_reader_agrees_with_json_load(tmp_path, name, block):
    """Every mutated MPS file gives the json.load path's state or its
    FileFormatError message; the block reader takes only files whose
    skeleton is json.dumps's and whose payloads are the writers' pairs."""
    edits, taken = MUTATED_MPS[name]
    text = BASE_MPS
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "m.json"
    path.write_text(text)
    with mock.patch.object(idmps.io, "_BLOCK", block):
        assert (idmps.io._read_blocks(str(path)) is not None) == taken
        got = _mps_outcome(str(path))
    with mock.patch.object(idmps.io, "_read_blocks", return_value=None):
        assert got == _mps_outcome(str(path))
    if name == "unchanged":
        assert isinstance(got, tuple)


SITES = BASE_MPS[BASE_MPS.index('"sites": [') + len('"sites": [') : BASE_MPS.index('], "bonds"')]

# (edits to BASE_MPS, the site or bond the error names, if any)
DAMAGED_MPS = {
    "site-short-data": ([(", [0.0, -1.0]]}]", "]}]")], "site 2"),
    # SiteTensor rejects true as a dimension: a bool is not an integer there.
    "site-bool-dim": ([('"left_dim": 2, "right_dim": 1', '"left_dim": 2, "right_dim": true')], "site 2"),
    "site-list": ([(SITES.split("}, ")[1], "[2, 2, 1]")], "site 2"),
    "bond-increasing": ([("[[0.75, 0.25]]", "[[0.25, 0.75]]")], "bond 1"),
    "bond-string": ([("[[0.75, 0.25]]", '[[0.75, "0.25"]]')], "bond 1"),
    "bond-too-few-weights": ([("[[0.75, 0.25]]", "[[0.75]]")], "bond 1"),
    "too-few-bonds": ([("[[0.75, 0.25]]", "[]")], None),
    "no-sites": ([(SITES, "")], None),
    "mixed-past-the-chain": ([('"form": "vidal"', '"form": "mixed:7"')], None),
    "broken-chain": ([('"phys_dim": 2, "left_dim": 2', '"phys_dim": 1, "left_dim": 4')], "bond 1"),
}


@pytest.mark.parametrize("name", DAMAGED_MPS)
def test_load_mps_errors_name_their_site_or_bond(tmp_path, name):
    """A site or bond that the decoders or the constructors reject is named in
    the FileFormatError, whichever path reads the file."""
    edits, named = DAMAGED_MPS[name]
    text = BASE_MPS
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(FileFormatError) as exc:
        load_mps(str(path))
    assert named is None or named in str(exc.value), str(exc.value)
    with mock.patch.object(idmps.io, "_read_blocks", return_value=None), pytest.raises(FileFormatError) as slow:
        load_mps(str(path))
    assert str(slow.value) == str(exc.value)


def test_block_reader_peak_memory(tmp_path):
    """The block reader peaks below twice the file's size, where json.load
    of the nested pairs takes about four times it."""
    n = 1 << 16
    rng = np.random.default_rng(11)
    path = tmp_path / "t.json"
    save_tensor(str(path), tensor_new((n,), rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    tracemalloc.start()
    try:
        load_tensor(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * path.stat().st_size


def test_load_tensor_peak_is_the_tensor_and_one_block(tmp_path):
    """load_tensor of a 2^16-entry file (3.2 MB) holds the 1 MiB array it
    fills and adopts, plus one block's working set: the block's bytes,
    their copies and its list of floats. The file is read by byte range,
    never whole."""
    n = 1 << 16
    rng = np.random.default_rng(13)
    path = tmp_path / "t.json"
    save_tensor(str(path), tensor_new((n,), rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    tracemalloc.start()
    try:
        t = load_tensor(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= t.data.nbytes + 5 * idmps.io._BLOCK, peak


def test_load_mps_peak_is_the_state_and_one_block(tmp_path):
    """load_mps of a 147,520-entry state (2.25 MiB in a 7 MB file) holds
    the one array its sites adopt as slices, plus one block's working set;
    a copy of the sites, or json.load's lists, would exceed it."""
    rng = np.random.default_rng(17)
    dims = [1, 16, 256, 256, 16, 1]
    m = MatrixProductState(sites=tuple(
        SiteTensor(2, left, right, rng.standard_normal(2 * left * right) + 1j * rng.standard_normal(2 * left * right))
        for left, right in zip(dims, dims[1:])
    ))
    path = tmp_path / "m.json"
    save_mps(str(path), m)
    with mock.patch("json.load", side_effect=AssertionError("the json.load path ran")):
        tracemalloc.start()
        try:
            back = load_mps(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(s.data.tobytes() == t.data.tobytes() for s, t in zip(back.sites, m.sites))
    assert peak <= sum(s.data.nbytes for s in back.sites) + 5 * idmps.io._BLOCK, peak


def test_save_mps_peak_memory_does_not_grow_with_the_payload(tmp_path):
    """A 744k-entry site that is 87 % zeros, the oscillator's middle site,
    saves within a fixed 3 MiB of traced memory: the writer holds one
    chunk of texts at a time, and every zero shares one string. A list of
    the whole payload (12 MB of references alone) or a string per entry
    would exceed it."""
    rng = np.random.default_rng(12)
    data = np.zeros(200 * 61 * 61, dtype=complex)
    data.real[::4] = rng.standard_normal(data.size // 4)
    edge = np.ones(200 * 61, dtype=complex)
    m = MatrixProductState(
        sites=(SiteTensor(200, 1, 61, edge), SiteTensor(200, 61, 61, data), SiteTensor(200, 61, 1, edge))
    )
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        save_mps(str(path), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20


# Pair counts at chunk edges several chunks in, each payload cut into
# several blocks by the reader, and a ragged count longer still.
SPLIT_LENGTHS = [8 * _CHUNK - 1, 8 * _CHUNK, 8 * _CHUNK + 1, 20 * _CHUNK + 7]
# Negative zero, subnormals, "1e-05"-style exponents and the far ends of
# the float range, each formatted differently by repr.
SPLIT_SPECIALS = [-0.0, 0.0, 5e-324, -2.5e-320, 1e-05, -3.5e-07, 1e22, 1e300, -1e300, 1.5]


def _split_payload(length: int) -> np.ndarray:
    rng = np.random.default_rng(length)
    flat = rng.standard_normal(2 * length)
    picks = rng.integers(0, 2 * length, 400)
    flat[picks] = rng.choice(SPLIT_SPECIALS, picks.size)
    flat[-len(SPLIT_SPECIALS) :] = SPLIT_SPECIALS
    return flat.view(complex)


@pytest.mark.parametrize("length", SPLIT_LENGTHS)
def test_split_codec_is_exact(tmp_path, length):
    """With the specials strewn across its chunks, the written file is
    json.dump's, byte for byte, and the block reader itself (not the
    json.load fallback) gives json.load's values bit for bit."""
    data = _split_payload(length)
    path, reference = tmp_path / "t.json", tmp_path / "ref.json"
    with open(reference, "w") as fh:
        json.dump({"version": 1, "shape": [length], "data": _pairs(data)}, fh)
        fh.write("\n")
    save_tensor(str(path), tensor_new((length,), data))
    assert filecmp.cmp(path, reference, shallow=False)
    fast = idmps.io._read_blocks(str(reference))
    with open(reference) as fh:
        expected = np.array(json.load(fh)["data"], dtype=float).reshape(-1)
    assert fast is not None and fast["shape"] == [length]
    assert fast["data"].view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_split_mps_codec_is_exact(tmp_path):
    """Sites of 8 * _CHUNK + 5, 4 * _CHUNK + 3 and 7 pairs, each ending in a
    partial chunk: the written file is json.dump's, byte for byte, and the
    block reader, whose one array the three sites share as slices, gives
    json.load's values bit for bit."""
    sites = tuple(SiteTensor(n, 1, 1, _split_payload(n)) for n in (8 * _CHUNK + 5, 4 * _CHUNK + 3, 7))
    m = MatrixProductState(sites=sites)
    path = tmp_path / "m.json"
    save_mps(str(path), m)
    assert path.read_text() == _dumped(_mps_document(m))
    with mock.patch("json.load", side_effect=AssertionError("the json.load path ran")):
        got = _mps_outcome(str(path))
    with mock.patch.object(idmps.io, "_read_blocks", return_value=None):
        assert got == _mps_outcome(str(path))
    assert [bits for *_, bits in got[1]] == [s.data.view(np.uint64).tolist() for s in sites]


def test_reader_bad_token_in_a_later_block(tmp_path):
    """A bad token past the payload's first block fails the block reader
    after it has parsed the blocks before it; the file then takes the
    json.load path, which names the error."""
    length = 12 * _CHUNK
    path = tmp_path / "t.json"
    save_tensor(str(path), tensor_new((length,), _split_payload(length)))
    text = path.read_text()
    at = text.index("], [", int(len(text) * 0.8)) + 4
    assert at > text.index('"data": [[') + idmps.io._BLOCK
    path.write_text(text[:at] + "1.0.0" + text[text.index(",", at) :])
    with open(path) as fh, pytest.raises(json.JSONDecodeError) as decode:
        json.load(fh)
    assert idmps.io._read_blocks(str(path)) is None
    with pytest.raises(FileFormatError) as exc:
        load_tensor(str(path))
    assert str(exc.value) == f"tensor file {str(path)!r}: invalid JSON ({decode.value})"


def _write_tensor_doc(path, data) -> str:
    path.write_text(json.dumps({"version": 1, "shape": [len(data)], "data": data}))
    return str(path)


@pytest.mark.parametrize(
    "bad",
    [[True, 0.0], ["1", 0.0], [None, 0.0], [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0], 0.0], 1.0],
    ids=["bool", "string", "null", "one", "three", "nested", "not-a-list"],
)
def test_decode_names_first_bad_entry(tmp_path, bad):
    data = [[1.0, 2.0], [3, -4], [0.5, 0.25], bad, bad, [1.0, 1.0]]
    path = _write_tensor_doc(tmp_path / "t.json", data)
    with pytest.raises(FileFormatError, match=r": entry 3 is not a \[re, im\] pair$"):
        load_tensor(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400])
def test_non_finite_tensor_entry_rejected(tmp_path, literal):
    path = tmp_path / "t.json"
    path.write_text(
        f'{{"version": 1, "shape": [4], "data": [[1.0, 0.0], [0.0, 1.0], [0.0, {literal}], [{literal}, 0.0]]}}'
    )
    with pytest.raises(FileFormatError, match=r": entry 2 is not finite$"):
        load_tensor(str(path))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_mps_payload_rejected(tmp_path, literal):
    m = _chain(2, "vidal", real=False)
    good = tmp_path / "m.json"
    save_mps(str(good), m)
    text = good.read_text()
    site = tmp_path / "site.json"
    site.write_text(text.replace('"data": [[', f'"data": [[{literal}, 0.0], [', 1))
    with pytest.raises(FileFormatError, match=r"site 1: entry 0 is not finite$"):
        load_mps(str(site))
    bond = tmp_path / "bond.json"
    bond.write_text(text.replace('"bonds": [[0.5]', f'"bonds": [[{literal}]', 1))
    with pytest.raises(FileFormatError, match=r"bond 1: .*not finite$"):
        load_mps(str(bond))


def _reference_csv(bundle) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["which", "a", "b", "k", "magnitude"])
    for which in ("A1", "A2", "A3"):
        for row in element_decay_table(bundle, which):
            writer.writerow(
                [
                    row["which"],
                    "" if row["a"] is None else row["a"],
                    "" if row["b"] is None else row["b"],
                    row["k"],
                    repr(row["magnitude"]),
                ]
            )
    return buf.getvalue()


# Default angles put the mode on site 3, so all A3 lanes but b = n vanish.
OSCILLATORS = [
    dict(n=3, omega_tilde=1.3, theta=0.0, phi=0.0, varphi=0.0, phys_cutoff=9),
    dict(n=4, omega_tilde=0.8, theta=0.7, phi=0.4, varphi=1.1, phys_cutoff=7),
]


# n=12, d=200: 91 A2 lanes give 18200 rows.
MANY_ROWS = dict(n=12, omega_tilde=1.1, theta=0.3, phi=1.9, varphi=0.6, phys_cutoff=200)


@pytest.mark.parametrize("kw", [*OSCILLATORS, MANY_ROWS])
def test_oscillator_csv_matches_csv_writer(tmp_path, capsys, kw):
    out_csv = tmp_path / "osc.csv"
    argv = ["oscillator", "--n", str(kw["n"]), "--omega-tilde", repr(kw["omega_tilde"]),
            "--theta", repr(kw["theta"]), "--phi", repr(kw["phi"]), "--varphi", repr(kw["varphi"]),
            "--phys-cutoff", str(kw["phys_cutoff"]), "--out-mps", str(tmp_path / "osc.json"),
            "--out-csv", str(out_csv)]
    assert main(argv) == 0
    capsys.readouterr()
    with open(out_csv, newline="", encoding="utf-8") as fh:
        assert fh.read() == _reference_csv(build_bundle(OscillatorParams(**kw)))


def test_decay_csv_peak_memory_does_not_grow_with_the_table(tmp_path):
    """The n=60, d=200 table (402,601 rows) writes within a fixed 5 MiB
    of traced memory: rows come one block of lanes at a time, and only
    the distinct magnitudes' texts are kept. Full-length columns (3.2 MB
    each) or the whole A2 table gathered at once would exceed it."""
    params = OscillatorParams(n=60, omega_tilde=1.7, theta=0.9, phi=2.1, varphi=0.4, phys_cutoff=200)
    bundle = build_bundle(params)
    tracemalloc.start()
    try:
        _write_decay_csv(str(tmp_path / "osc.csv"), bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 << 20


@pytest.mark.parametrize("kw", OSCILLATORS)
def test_element_decay_rows_follow_lane_order(kw):
    """Rows lane by lane, physical index fastest; zero A3 lanes left out."""
    bundle = build_bundle(OscillatorParams(**kw))
    n, d = kw["n"], kw["phys_cutoff"]
    expected = {
        "A1": [(a, None, k, abs(bundle.a1[k, a])) for a in range(n + 1) for k in range(d)],
        "A2": [
            (a, b, k, abs(bundle.a2[k, a, b]))
            for a in range(n + 1)
            for b in range(n + 1 - a)
            for k in range(d)
        ],
        "A3": [
            (None, b, k, abs(bundle.a3[k, b]))
            for b in range(n + 1)
            if gamma(b, bundle.params) != 0.0
            for k in range(d)
        ],
    }
    for which, rows in expected.items():
        got = [(r["a"], r["b"], r["k"], r["magnitude"]) for r in element_decay_table(bundle, which)]
        assert got == rows
        assert all(r["which"] == which for r in element_decay_table(bundle, which))


# Exact zero angles put the mode on a pole or a coordinate plane, where
# whole A3 lanes vanish and leave the table.
angles = st.one_of(st.just(0.0), st.floats(-3.2, 3.2))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 6),
    extra=st.integers(1, 6),
    omega_tilde=st.floats(0.3, 3.0),
    theta=angles,
    phi=angles,
    varphi=angles,
)
@example(n=3, extra=2, omega_tilde=1.0, theta=0.0, phi=0.0, varphi=0.0)  # only A3 lane b = n remains
def test_decay_csv_and_rows_match_the_tables(tmp_path_factory, n, extra, omega_tilde, theta, phi, varphi):
    bundle = build_bundle(OscillatorParams(n, omega_tilde, theta, phi, varphi, n + extra))
    path = tmp_path_factory.mktemp("csv") / "osc.csv"
    _write_decay_csv(str(path), bundle)
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.read() == _reference_csv(bundle)
    a1, a2, a3, d = bundle.a1, bundle.a2, bundle.a3, n + extra
    lanes = {
        "A1": [(a, None, a1[:, a]) for a in range(n + 1)],
        "A2": [(a, b, a2[:, a, b]) for a in range(n + 1) for b in range(n + 1 - a)],
        "A3": [(None, b, a3[:, b]) for b in range(n + 1) if gamma(b, bundle.params) != 0.0],
    }
    for which, expected in lanes.items():
        rows = [(r["which"], r["a"], r["b"], r["k"], r["magnitude"]) for r in element_decay_table(bundle, which)]
        assert rows == [(which, a, b, k, abs(float(col[k]))) for a, b, col in expected for k in range(d)]


def test_decay_csv_formats_each_table_column_once(tmp_path):
    """At n=60, d=200 the writer formats at most the a1 and a3 tables once
    each, 2 (n+1) d magnitudes, though the CSV holds 402,601 rows: the
    1891 A2 lanes reuse A1's formatted columns."""
    params = OscillatorParams(n=60, omega_tilde=1.7, theta=0.9, phi=2.1, varphi=0.4, phys_cutoff=200)
    bundle = build_bundle(params)
    with mock.patch.object(idmps.cli, "_texts", wraps=idmps.io._texts) as texts:
        _write_decay_csv(str(tmp_path / "osc.csv"), bundle)
    formatted = sum(len(call.args[0]) for call in texts.call_args_list)
    assert 0 < formatted <= 2 * 61 * 200
