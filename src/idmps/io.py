"""JSON file formats for dense tensors and matrix product states.

Two document kinds, both version 1:

* tensor files: {"version": 1, "shape": [...], "data": [[re, im], ...]}
  with row-major data;
* MPS files: {"version": 1, "form": "...", "sites": [...], "bonds": ...}
  where each site is {"phys_dim", "left_dim", "right_dim", "data"} with
  the same [re, im] encoding in the site's flat order, and "bonds" is
  null or a list (one entry per bond) of weight lists / nulls.

The mixed form serializes its center into the tag ("mixed:<n>"). All
floats go through Python's shortest round-trip repr via the json module,
so write->read is bit-stable. Every payload entry must be finite: NaN,
infinities and numbers beyond the float range are rejected on load.

The writers stream each document: a fixed skeleton with json.dump's key
order and separators, and each [re, im] payload in chunks through the C
encoder (json.dumps). The files are byte for byte what json.dump of the
whole document writes, without ever building that document. The reader
type-checks and converts a payload in bulk and walks it entry by entry
only to name the first bad entry.
"""

import json
from itertools import chain

import numpy as np

from .errors import FileFormatError
from .mps import BondSpectrum, MatrixProductState, SiteTensor
from .tensor import DenseTensor, tensor_new

FILE_VERSION = 1

# Entries per json.dumps call when writing a payload: large enough that
# the C encoder does the work, small enough that no string or list of a
# whole payload is ever built.
_CHUNK = 1 << 14


def _write_complex(fh, data: np.ndarray) -> None:
    """Write ``data`` as the JSON list [[re, im], ...], byte for byte what
    json.dump writes for it, a chunk of entries at a time through the
    C encoder."""
    pairs = np.ascontiguousarray(data, dtype=complex).reshape(-1).view(float).reshape(-1, 2)
    fh.write("[")
    for start in range(0, len(pairs), _CHUNK):
        if start:
            fh.write(", ")
        fh.write(json.dumps(pairs[start : start + _CHUNK].tolist())[1:-1])
    fh.write("]")


def _check_finite(values: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FileFormatError(f"{what}: entry {bad[0]} is not finite")
    return values


def _bulk_pairs(pairs: list) -> np.ndarray | None:
    """All entries as one complex array, or None when some entry is not a
    [re, im] pair of numbers or overflows a float."""
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        return None
    flat = list(chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        return np.array(flat, dtype=float).view(complex)
    except OverflowError:
        return None


def _decode_complex(pairs, what: str) -> np.ndarray:
    if not isinstance(pairs, list):
        raise FileFormatError(f"{what}: data must be a list of [re, im] pairs")
    out = _bulk_pairs(pairs)
    if out is None:
        # Entry by entry, only to name the first bad one.
        out = np.empty(len(pairs), dtype=complex)
        for i, pair in enumerate(pairs):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            ):
                raise FileFormatError(f"{what}: entry {i} is not a [re, im] pair")
            try:
                out[i] = complex(pair[0], pair[1])
            except OverflowError:
                raise FileFormatError(f"{what}: entry {i} is not finite") from None
    return _check_finite(out, what)


def _load_document(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{what} {path!r}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise FileFormatError(f"{what} {path!r}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{what} {path!r}: top level must be an object")
    if doc.get("version") != FILE_VERSION:
        raise FileFormatError(f"{what} {path!r}: unsupported version {doc.get('version')!r}")
    return doc


def save_tensor(path: str, t: DenseTensor) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"version": {FILE_VERSION}, "shape": {json.dumps(list(t.shape))}, "data": ')
        _write_complex(fh, t.data)
        fh.write("}\n")


def load_tensor(path: str) -> DenseTensor:
    doc = _load_document(path, "tensor file")
    shape = doc.get("shape")
    if (
        not isinstance(shape, list)
        or not shape
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in shape)
    ):
        raise FileFormatError(f"tensor file {path!r}: shape must be a list of positive integers")
    data = _decode_complex(doc.get("data"), f"tensor file {path!r}")
    if data.size != int(np.prod(shape)):
        raise FileFormatError(
            f"tensor file {path!r}: {data.size} entries for shape {tuple(shape)}"
        )
    return tensor_new(tuple(shape), data)


def _form_to_tag(m: MatrixProductState) -> str:
    if m.form == "mixed":
        return f"mixed:{m.center}"
    return m.form


def _tag_to_form(tag, path: str) -> tuple[str, int | None]:
    if not isinstance(tag, str):
        raise FileFormatError(f"mps file {path!r}: form must be a string")
    if tag in ("left", "right", "vidal", "unknown"):
        return tag, None
    if tag.startswith("mixed:"):
        try:
            center = int(tag.split(":", 1)[1])
        except ValueError:
            raise FileFormatError(f"mps file {path!r}: bad mixed tag {tag!r}") from None
        return "mixed", center
    raise FileFormatError(f"mps file {path!r}: unknown form tag {tag!r}")


def save_mps(path: str, m: MatrixProductState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"version": {FILE_VERSION}, "form": {json.dumps(_form_to_tag(m))}, "sites": [')
        for n, s in enumerate(m.sites):
            fh.write(
                f'{", " if n else ""}{{"phys_dim": {s.phys_dim}, "left_dim": {s.left_dim}, '
                f'"right_dim": {s.right_dim}, "data": '
            )
            _write_complex(fh, s.data)
            fh.write("}")
        bonds = None
        if m.bonds is not None:
            bonds = [None if b is None else b.values.tolist() for b in m.bonds]
        fh.write(f'], "bonds": {json.dumps(bonds)}}}\n')


def load_mps(path: str) -> MatrixProductState:
    doc = _load_document(path, "mps file")
    form, center = _tag_to_form(doc.get("form"), path)
    raw_sites = doc.get("sites")
    if not isinstance(raw_sites, list) or not raw_sites:
        raise FileFormatError(f"mps file {path!r}: sites must be a nonempty list")
    sites = []
    for n, raw in enumerate(raw_sites, start=1):
        if not isinstance(raw, dict):
            raise FileFormatError(f"mps file {path!r}: site {n} must be an object")
        dims = []
        for key in ("phys_dim", "left_dim", "right_dim"):
            v = raw.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise FileFormatError(
                    f"mps file {path!r}: site {n} field {key} must be a positive integer"
                )
            dims.append(v)
        data = _decode_complex(raw.get("data"), f"mps file {path!r} site {n}")
        try:
            sites.append(SiteTensor(dims[0], dims[1], dims[2], data))
        except Exception as exc:
            raise FileFormatError(f"mps file {path!r}: site {n}: {exc}") from exc
    raw_bonds = doc.get("bonds")
    bonds = None
    if raw_bonds is not None:
        if not isinstance(raw_bonds, list):
            raise FileFormatError(f"mps file {path!r}: bonds must be null or a list")
        bonds = []
        for n, raw in enumerate(raw_bonds, start=1):
            if raw is None:
                bonds.append(None)
                continue
            if not isinstance(raw, list) or not set(map(type, raw)) <= {int, float}:
                raise FileFormatError(
                    f"mps file {path!r}: bond {n} must be null or a list of reals"
                )
            what = f"mps file {path!r} bond {n}"
            try:
                values = _check_finite(np.array(raw, dtype=float), what)
            except OverflowError:
                raise FileFormatError(f"{what}: an entry is not finite") from None
            try:
                bonds.append(BondSpectrum(values))
            except ValueError as exc:
                raise FileFormatError(f"mps file {path!r}: bond {n}: {exc}") from exc
    try:
        return MatrixProductState(
            sites=tuple(sites),
            bonds=None if bonds is None else tuple(bonds),
            form=form,
            center=center,
        )
    except ValueError as exc:
        raise FileFormatError(f"mps file {path!r}: {exc}") from exc
