"""JSON files for dense tensors and matrix product states; the README's
"File formats" section gives the layout and the codec in full.

Two document kinds, both version 1: a tensor file {"version", "shape",
"data"} and an MPS file {"version", "form", "sites", "bonds"}, whose sites
are {"phys_dim", "left_dim", "right_dim", "data"} and whose "bonds" is null
or one weight list (or null) per bond. Each "data" is a payload of [re, im]
pairs in row-major order. "form" is the state's form tag, which
``idmps.mps`` owns: ``MatrixProductState.tag`` writes it and
``parse_form_tag`` reads it.

The writers emit byte for byte what json.dump of the whole document writes,
without ever building that document. A payload entry that is not finite
(NaN, an infinity, a number beyond the float range) is rejected on load.
Both loaders first try the block reader (``_read_blocks``). It takes only
the writers' layout, and gives json.load's values bit for bit; every other
file goes to json.load, which also writes every error message.
"""

import json
import math
import os
from contextlib import suppress
from itertools import chain

import numpy as np

from .errors import FileFormatError, IdmpsError, ShapeMismatch
from .mps import BondSpectrum, MatrixProductState, SiteTensor, parse_form_tag
from .tensor import DenseTensor

FILE_VERSION = 1

# Pairs per chunk of a written payload: a few C-level passes each, and no
# string or list of a whole payload is ever built.
_CHUNK = 1 << 12

_ZEROS = np.array(["0.0", "-0.0"], dtype=object)


def _texts(values: np.ndarray) -> list[str]:
    """json.dumps's text for each entry of the 1-D float array ``values``:
    a zero is one of two shared strings, picked by its sign bit; the
    nonzero entries take one orjson.dumps call, whose shortest digits (Ryu)
    are repr's, and those that repr spells otherwise take one json.dumps
    call: NaN, the infinities, 1e-9 <= |x| < 1e-4 (repr's "1e-05", orjson's
    "0.00001") and |x| >= 1e16 (repr's "1e+16", orjson's "1e16")."""
    import orjson

    out = _ZEROS[np.signbit(values).view(np.uint8)]
    nonzero = np.flatnonzero(values)
    magnitude = np.abs(values[nonzero])
    plain = (magnitude < 1e-9) | ((magnitude >= 1e-4) & (magnitude < 1e16))  # False for NaN
    fast, slow = nonzero[plain], nonzero[~plain]
    if fast.size:
        out[fast] = orjson.dumps(values[fast], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    if slow.size:
        out[slow] = json.dumps(values[slow].tolist())[1:-1].split(", ")
    return out.tolist()


def _write_pairs(fh, data: np.ndarray) -> None:
    """Write ``data`` as the JSON list [[re, im], ...], ``_CHUNK`` pairs at a time."""
    flat = np.ascontiguousarray(data, dtype=complex).reshape(-1).view(float)
    fh.write("[")
    for start in range(0, len(flat), 2 * _CHUNK):
        texts = _texts(flat[start : start + 2 * _CHUNK])
        parts = [None, ", ", None, "], ["] * (len(texts) // 2)
        parts[0::2] = texts
        parts[-1] = "]"
        fh.write(", [" if start else "[")
        fh.write("".join(parts))
    fh.write("]")


# What JSON may spell a number with; no JSON value but a number is made
# of these bytes alone.
_NUMBER_BYTES = b"0123456789.eE+-"
# Payload bytes per read and per json.loads call when reading a file: a
# block's copies and its list of floats take about four times its size,
# all the reader holds beside the array it fills; one call still parses
# some 10^4 numbers.
_BLOCK = 1 << 18


def _find(fd: int, pattern: bytes, pos: int, end: int) -> int:
    """Where the first ``pattern`` whole in the file's bytes [pos, end) starts,
    or -1. It reads 4 KiB at a time, each read len(pattern) - 1 bytes longer
    so none is split."""
    for at in range(pos, end, 1 << 12):
        if (i := os.pread(fd, min((1 << 12) + len(pattern) - 1, end - at), at).find(pattern)) >= 0:
            return at + i
    return -1


def _read_blocks(path: str) -> dict | list | None:
    """What json.load gives for a file in the writers' layout, except that
    each payload is a complex array (not yet checked to be finite), parsed
    a block of pairs at a time without a list per entry; None for any other
    file, which the json.load path then reads or rejects."""
    import orjson

    with open(path, "rb") as fh:
        fd, length = fh.fileno(), os.fstat(fh.fileno()).st_size
        # A payload runs from '"data": [' to the "]]" before the next "}", its blocks
        # from a pair's "[" to the "]" of the first pair ending _BLOCK bytes on (or
        # of its last pair); their pairs, counted by their "], [", fill the float
        # array from ``filled`` on. The skeleton is the file, each payload now NaN.
        skeleton, blocks, payloads, pos, size = [], [], [], 0, 0
        while (at := _find(fd, b'"data": [[', pos, length)) >= 0:
            skeleton.append(os.pread(fd, at + 8 - pos, pos) + b"NaN")
            start, pos, last = size, at + 9, False
            while not last:
                cut = _find(fd, b"], [", pos + _BLOCK, length)
                block = os.pread(fd, (length if cut < 0 else cut + 1) - pos, pos)
                close = block.find(b"}")  # in the writers' layout, right after the payload's "]]"
                if (close < 0 and cut < 0) or (close >= 0 and block[close - 2 : close] != b"]]"):
                    return None  # the payload never closes, or is not its object's last value
                last, end = close >= 0, close - 2 if close >= 0 else len(block) - 1  # the block's last "]"
                pairs = block.count(b"], [", 0, end) + 1
                blocks.append((pos, pos + end + 1, size, pairs))
                pos, size = pos + end + (2 if last else 3), size + 2 * pairs  # past "]" or "], "
            payloads.append((start, size))
        if not payloads:
            return None
        skeleton.append(os.pread(fd, length - pos, pos))
        out = np.empty(size)
        arrays = iter([out[a:b].view(complex) for a, b in payloads])
        try:
            text = b"".join(skeleton).decode()
            if "\\" in text:
                return None
            # With no escape, no payload lies inside a string: json scans each NaN in
            # turn. As json.dumps's text of what it parsed to, the skeleton hides no
            # other constant, repeated key or other spacing.
            doc = json.loads(text, parse_constant=lambda name: next(arrays, None))
            if json.dumps(doc, default=lambda array: math.nan) != text.removesuffix("\n"):
                return None
            for pos, cut, filled, pairs in blocks:
                block = os.pread(fd, cut - pos, pos)
                # With its numbers deleted, it must read "[, ], " * (pairs - 1) + "[, ]".
                if block.translate(None, _NUMBER_BYTES) != b"[, ], " * (pairs - 1) + b"[, ]":
                    return None
                numbers = b"[" + block.translate(None, b"[]") + b"]"
                try:
                    out[filled : filled + 2 * pairs] = orjson.loads(numbers)
                except orjson.JSONDecodeError:  # a number past the float range, say: json decides
                    out[filled : filled + 2 * pairs] = json.loads(numbers)
        except (ValueError, OverflowError, RecursionError):
            # A token json rejects, an int beyond the float range, or nesting too deep.
            return None
    return doc


def _check_finite(values: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FileFormatError(f"{what}: entry {bad[0]} is not finite")
    return values


def _decode_complex(pairs, what: str) -> np.ndarray:
    """The block reader's array, or json.load's pairs converted at once, if finite; pairs that are
    not all lists of two ints or floats, or leave the float range, go one by one to name the first bad one."""
    if isinstance(pairs, np.ndarray):
        return _check_finite(pairs, what)
    if not isinstance(pairs, list):
        raise FileFormatError(f"{what}: data must be a list of [re, im] pairs")
    with suppress(OverflowError):  # an int past the float range, as complex(re, im) converts it
        if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}:
            if set(map(type, chain.from_iterable(pairs))) <= {int, float}:
                return _check_finite(np.array(pairs, dtype=float).reshape(-1).view(complex), what)
    for i, pair in enumerate(pairs):  # some entry is bad, or the fast path would have taken them
        if not isinstance(pair, list) or len(pair) != 2 or not set(map(type, pair)) <= {int, float}:
            raise FileFormatError(f"{what}: entry {i} is not a [re, im] pair")
        try:
            complex(pair[0], pair[1])
        except OverflowError:
            raise FileFormatError(f"{what}: entry {i} is not finite") from None
    raise FileFormatError(f"{what}: data must be a list of [re, im] pairs")


def _load_document(path: str, kind: str) -> dict:
    """The block reader's document, or json.load's where the block reader declines the
    file, checked to be an object of this version; ``kind`` names the file in errors."""
    doc = _read_blocks(path)
    if doc is None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{kind} {path!r}: invalid JSON ({exc})") from exc
        except RecursionError:
            raise FileFormatError(f"{kind} {path!r}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{kind} {path!r}: top level must be an object")
    if doc.get("version") != FILE_VERSION:
        raise FileFormatError(f"{kind} {path!r}: unsupported version {doc.get('version')!r}")
    return doc


def save_tensor(path: str, t: DenseTensor) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"version": {FILE_VERSION}, "shape": {json.dumps(list(t.shape))}, "data": ')
        _write_pairs(fh, t.data)
        fh.write("}\n")


def load_tensor(path: str) -> DenseTensor:
    doc, what = _load_document(path, "tensor file"), f"tensor file {path!r}"
    shape = doc.get("shape")
    if not isinstance(shape, list) or not shape or not all(type(d) is int and d >= 1 for d in shape):
        raise FileFormatError(f"{what}: shape must be a list of positive integers")
    data = _decode_complex(doc.get("data"), what)
    if data.size != math.prod(shape):
        raise FileFormatError(f"{what}: {data.size} entries for shape {tuple(shape)}")
    return DenseTensor(tuple(shape), data)  # the array filled here, shape checked: no copy


def save_mps(path: str, m: MatrixProductState) -> None:
    bonds = None if m.bonds is None else [None if b is None else b.values.tolist() for b in m.bonds]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"version": {FILE_VERSION}, "form": {json.dumps(m.tag)}, "sites": [')
        for n, s in enumerate(m.sites):
            fh.write(f'{", " if n else ""}{{"phys_dim": {s.phys_dim}, "left_dim": {s.left_dim}, '
                     f'"right_dim": {s.right_dim}, "data": ')
            _write_pairs(fh, s.data)
            fh.write("}")
        fh.write(f'], "bonds": {json.dumps(bonds)}}}\n')


# The two decoders check only what the constructors leave to their callers: that
# data are [re, im] pairs and weights finite reals. A constructor's error, such as
# SiteTensor's for a dimension that is not an integer, names its site or bond.
def _site(raw, what: str) -> SiteTensor:
    """A site of an MPS document: an object whose data are [re, im] pairs."""
    if not isinstance(raw, dict):
        raise FileFormatError(f"{what} must be an object")
    dims = [raw.get(key) for key in ("phys_dim", "left_dim", "right_dim")]
    data = _decode_complex(raw.get("data"), what)
    data.flags.writeable = False  # nothing else holds it, so the site adopts it
    try:
        return SiteTensor(*dims, data)
    except ShapeMismatch as exc:
        raise FileFormatError(f"{what}: {exc}") from exc


def _bond(raw, what: str) -> BondSpectrum | None:
    """A bond's weights in an MPS document: null, or a list of finite reals."""
    if raw is None:
        return None
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int, float}:
        raise FileFormatError(f"{what} must be null or a list of reals")
    try:
        return BondSpectrum(_check_finite(np.array(raw, dtype=float), what))
    except OverflowError:  # an int past the float range
        raise FileFormatError(f"{what}: an entry is not finite") from None
    except ValueError as exc:
        raise FileFormatError(f"{what}: {exc}") from exc


def load_mps(path: str) -> MatrixProductState:
    doc = _load_document(path, "mps file")
    sites, bonds = doc.get("sites"), doc.get("bonds")
    try:
        if not isinstance(sites, list) or not isinstance(bonds, (list, type(None))):
            raise FileFormatError("sites must be a list and bonds null or a list")
        form, center = parse_form_tag(doc.get("form"))
        sites = tuple(_site(raw, f"site {n}") for n, raw in enumerate(sites, start=1))
        if bonds is not None:
            bonds = tuple(_bond(raw, f"bond {n}") for n, raw in enumerate(bonds, start=1))
        return MatrixProductState(sites, bonds, form, center)
    except (ValueError, IdmpsError) as exc:
        raise FileFormatError(f"mps file {path!r}: {exc}") from exc
