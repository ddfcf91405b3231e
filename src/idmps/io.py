"""JSON file formats for dense tensors and matrix product states.

Two document kinds, both version 1:

* tensor files: {"version": 1, "shape": [...], "data": [[re, im], ...]}
  with row-major data;
* MPS files: {"version": 1, "form": "...", "sites": [...], "bonds": ...}
  where each site is {"phys_dim", "left_dim", "right_dim", "data"} with
  the same [re, im] encoding in the site's flat order, and "bonds" is
  null or a list (one entry per bond) of weight lists / nulls.

"form" holds the state's form tag ("mixed:<n>" carries the center),
which ``idmps.mps`` owns: ``MatrixProductState.tag`` writes it and
``parse_form_tag`` reads it. All floats go through Python's shortest
round-trip repr via the json module, so write->read is bit-stable.
Every payload entry must be finite: NaN, infinities and numbers beyond
the float range are rejected on load.

The writers stream each document: a fixed skeleton with json.dump's key
order and separators, and each [re, im] payload in chunks of ``_CHUNK``
pairs. A chunk's zeros share two strings and are never formatted; its
nonzero floats go through one json.dumps call. The files are byte for
byte what json.dump of the whole document writes, without ever building
that document.

load_tensor first tries a block reader for the layout those writers (and
json.dump) emit: the exact header {"version": 1, "shape": [...], "data": [,
the pairs joined by ", ", then "]]}" and an optional newline. It reads
the file by byte range (os.pread), never whole: one pass cuts the payload
into blocks of about ``_BLOCK`` bytes at "], [" boundaries and counts
their pairs, a second parses them. A block with its number characters
(0-9 . e E + -) deleted must read "[, ], " per counted pair, the last as
"[, ]", which proves the pair structure; with its brackets deleted,
json.loads parses the numbers, so json's own scanner decides what is a
number and its value. The values fill one float array sized from the
pairs counted, never from the declared shape, which the tensor adopts
without a copy. Any other file (other whitespace or key order, NaN,
booleans, an int beyond the float range, a bad token) falls back to
json.load, which also produces every error message; the finiteness and
entry-count checks run on both paths.
MPS files always take the json.load path, which type-checks and converts
a payload in bulk and walks it entry by entry only to name the first bad
entry.

A payload of at least 2 * ``_CHUNK`` pairs is split into k runs of whole
chunks, k = min(``_WORKERS``, pairs // ``_CHUNK``), where ``_WORKERS`` is
the size of the process's CPU affinity set if os.fork exists (Linux) and
1 elsewhere. ``_forked`` does run 0 in the caller and each other run in a
forked child. Writer children format into anonymous files, which the
caller copies in order; it formats a failed child's run itself, so the
bytes never depend on a child. Reader runs are runs of whole blocks; each
child reads its own byte ranges and fills slices of one shared anonymous
mapping; a failed child, like a bad block, sends the file to the json.load
path.
"""

import json
import math
import mmap
import os
import re
import shutil
from contextlib import ExitStack
from itertools import chain

import numpy as np

from .errors import FileFormatError
from .mps import BondSpectrum, MatrixProductState, SiteTensor, parse_form_tag
from .tensor import DenseTensor

FILE_VERSION = 1

# Pairs per chunk of a payload, rows per chunk of a CSV: a few C-level
# passes each, and no string or list of a whole payload is ever built.
_CHUNK = 1 << 14

_ZEROS = np.array(["0.0", "-0.0"], dtype=object)

_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1


def _forked(parts: int, run) -> list[int]:
    """Call ``run(i)`` for each i < ``parts``: part 0 here, the others in
    forked children. Returns each child's wait status, nonzero if it raised."""
    pids = []
    try:
        for i in range(1, parts):
            pids.append(os.fork())
            if pids[-1] == 0:  # never return into the caller's stack nor flush its buffers
                try:
                    run(i)
                    os._exit(0)
                finally:
                    os._exit(1)
        run(0)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return statuses


def _texts(values: np.ndarray) -> list[str]:
    """json.dumps's text for each entry of the 1-D float array ``values``:
    a zero is one of two shared strings, picked by its sign bit; the
    nonzero entries (NaN and the infinities too) take one json.dumps call."""
    out = _ZEROS[np.signbit(values).view(np.uint8)]
    nonzero = np.flatnonzero(values)
    if nonzero.size:
        out[nonzero] = json.dumps(values[nonzero].tolist())[1:-1].split(", ")
    return out.tolist()


def _write_chunks(fh, flat: np.ndarray, starts: range) -> None:
    """Write the chunks of pairs of ``flat`` that start at the float offsets
    ``starts``, then flush: a forked child leaves without flushing."""
    for start in starts:
        texts = _texts(flat[start : start + 2 * _CHUNK])
        parts = [None, ", ", None, "], ["] * (len(texts) // 2)
        parts[0::2] = texts
        parts[-1] = "]"
        fh.write(", [" if start else "[")
        fh.write("".join(parts))
    fh.flush()


def _write_complex(fh, data: np.ndarray) -> None:
    """Write ``data`` as the JSON list [[re, im], ...], byte for byte what
    json.dump writes for it, ``_CHUNK`` pairs at a time; each run of chunks
    after the first is formatted in a forked child into an anonymous file."""
    flat = np.ascontiguousarray(data, dtype=complex).reshape(-1).view(float)
    starts = range(0, len(flat), 2 * _CHUNK)
    k = max(1, min(_WORKERS, len(flat) // (2 * _CHUNK)))
    runs = [starts[i * len(starts) // k : (i + 1) * len(starts) // k] for i in range(k)]
    fh.write("[")
    with ExitStack() as stack:
        files = [fh] + [stack.enter_context(open(os.memfd_create("idmps"), "w+")) for _ in runs[1:]]
        statuses = _forked(k, lambda i: _write_chunks(files[i], flat, runs[i]))
        for run, out, status in zip(runs[1:], files[1:], statuses):
            if status:  # the child failed: format its run here
                _write_chunks(fh, flat, run)
            else:
                out.seek(0)
                shutil.copyfileobj(out, fh)
    fh.write("]")


# The header the block reader takes, up to the first pair's "[", matched in
# the file's first 4 KiB; its shape holds digits, commas and spaces only.
_TENSOR_HEADER = re.compile(rb'\{"version": 1, "shape": (\[[0-9, ]*\]), "data": \[(?=\[)')
# What JSON may spell a number with; no JSON value but a number is made
# of these bytes alone.
_NUMBER_BYTES = b"0123456789.eE+-"
# Payload bytes per read and per json.loads call when reading a tensor: a
# block's copies and its list of floats take about four times its size,
# all the reader holds beside the array it fills; one call still parses
# some 10^4 numbers.
_BLOCK = 1 << 18


def _is_shape(shape) -> bool:
    return (
        isinstance(shape, list)
        and bool(shape)
        and all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in shape)
    )


def _find(fd: int, pos: int, end: int) -> int:
    """Where the first "], [" whole in the file's bytes [pos, end) starts, or
    -1. It reads 4 KiB at a time, each read 3 bytes longer so none is split."""
    for at in range(pos, end, 1 << 12):
        if (i := os.pread(fd, min((1 << 12) + 3, end - at), at).find(b"], [")) >= 0:
            return at + i
    return -1


def _read_tensor_blocks(path: str) -> tuple[list, np.ndarray] | None:
    """(shape, data) of a tensor file in the writers' layout, parsed a
    block of pairs at a time without a list per entry; None for any other
    file, which the json.load path then reads or rejects. ``data`` is
    what json.load would give, not yet checked to be finite."""
    with open(path, "rb") as fh:
        fd, length = fh.fileno(), os.fstat(fh.fileno()).st_size
        head, tail = _TENSOR_HEADER.match(os.pread(fd, 1 << 12, 0)), os.pread(fd, 4, max(length - 4, 0))
        stop = length - tail.endswith(b"\n") - 2
        if head is None or not tail.removesuffix(b"\n").endswith(b"]]}") or stop <= head.end():
            return None
        try:
            shape = json.loads(head[1])
            if not _is_shape(shape):
                return None
            # Each block runs from a pair's "[" to the "]" of the first pair
            # ending _BLOCK bytes on (or of the last pair); its pairs are counted
            # by their "], [" and fill the float array from ``filled`` on.
            blocks, pos, size = [], head.end(), 0
            while pos < stop:
                cut = _find(fd, pos + _BLOCK, stop)
                cut = stop if cut < 0 else cut + 1
                blocks.append((pos, cut, size, os.pread(fd, cut - pos, pos).count(b"], [") + 1))
                pos, size = cut + 2, size + 2 * blocks[-1][3]
            k = max(1, min(_WORKERS, size // (2 * _CHUNK)))
            out = np.frombuffer(mmap.mmap(-1, 8 * size), float) if k > 1 else np.empty(size)

            def run(i: int) -> None:
                for pos, cut, filled, pairs in blocks[i * len(blocks) // k : (i + 1) * len(blocks) // k]:
                    block = os.pread(fd, cut - pos, pos)
                    # With its numbers deleted, it must read "[, ], " * (pairs - 1) + "[, ]".
                    if block.translate(None, _NUMBER_BYTES) != b"[, ], " * (pairs - 1) + b"[, ]":
                        raise ValueError("not the writers' pair layout")
                    out[filled : filled + 2 * pairs] = json.loads(b"[" + block.translate(None, b"[]") + b"]")

            if any(_forked(k, run)):
                return None
        except (ValueError, OverflowError):
            # A token json rejects, or an int beyond the float range.
            return None
    return shape, out.view(complex)


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
    what = f"tensor file {path!r}"
    fast = _read_tensor_blocks(path)
    if fast is None:
        doc = _load_document(path, "tensor file")
        shape = doc.get("shape")
        if not _is_shape(shape):
            raise FileFormatError(f"{what}: shape must be a list of positive integers")
        data = _decode_complex(doc.get("data"), what)
    else:
        shape, data = fast
        _check_finite(data, what)
    if data.size != math.prod(shape):
        raise FileFormatError(f"{what}: {data.size} entries for shape {tuple(shape)}")
    return DenseTensor(tuple(shape), data)  # the array filled here, shape checked: no copy


def save_mps(path: str, m: MatrixProductState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"version": {FILE_VERSION}, "form": {json.dumps(m.tag)}, "sites": [')
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
    try:
        form, center = parse_form_tag(doc.get("form"))
    except ValueError as exc:
        raise FileFormatError(f"mps file {path!r}: {exc}") from exc
    raw_sites = doc.get("sites")
    if not isinstance(raw_sites, list) or not raw_sites:
        raise FileFormatError(f"mps file {path!r}: sites must be a nonempty list")
    sites = []
    for n, raw in enumerate(raw_sites, start=1):
        if not isinstance(raw, dict):
            raise FileFormatError(f"mps file {path!r}: site {n} must be an object")
        for key in ("phys_dim", "left_dim", "right_dim"):
            if not _is_shape([raw.get(key)]):  # a positive int, not a bool
                raise FileFormatError(f"mps file {path!r}: site {n} field {key} must be a positive integer")
        data = _decode_complex(raw.get("data"), f"mps file {path!r} site {n}")
        try:
            sites.append(SiteTensor(raw["phys_dim"], raw["left_dim"], raw["right_dim"], data))
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
