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
``parse_form_tag`` reads it. Every float is written as repr spells it,
with its shortest round-trip digits, so write->read is bit-stable.
Every payload entry must be finite: NaN, infinities and numbers beyond
the float range are rejected on load.

The writers stream each document as one list of items: skeleton text
with json.dump's key order and separators, and each [re, im] payload as
chunks of ``_CHUNK`` pairs. A chunk's zeros share two strings and are
never formatted. Its other floats go through one orjson.dumps call (Ryu's
shortest digits, which are repr's), except those whose notation orjson
spells otherwise (NaN, the infinities, 1e-9 <= |x| < 1e-4 and
|x| >= 1e16), which go through one json.dumps call. The files are byte for
byte what json.dump of the whole document writes, without ever building
that document. orjson is imported when a codec first runs, not with the
package.

Both loaders first try one block reader, for the layout json.dump (and so
the writers) emit. It reads the file by byte range (os.pread), never
whole. A payload runs from '"data": [[' to the "]]" just before the next
"}" (so "data" is its object's last key). One pass cuts every payload
into blocks of about ``_BLOCK`` bytes at "], [" boundaries and counts
their pairs, a second parses them. A block with its number
characters (0-9 . e E + -) deleted must read "[, ], " per counted pair,
the last as "[, ]", which proves the pair structure; with its brackets
deleted, orjson.loads parses the numbers, and json.loads where orjson
raises (a number past the float range, such as 1e400). Both take JSON's
number grammar alone and round each number correctly, so every value is
json.load's. All payloads fill one float array sized from the pairs
counted, never from declared dimensions; each payload's array is a slice
of it, which the tensor or the site adopts without a copy. The skeleton
(the file with each payload replaced by NaN) goes through json.loads,
whose parse_constant puts each payload's array in its place. It must
hold no backslash, so no payload hides in a string, and it must be
json.dumps's text of what it parsed to, so no other constant, repeated
key or other spacing hides there. Any other file falls back to json.load,
which also produces every error message; the documents of both paths go
through the same checks.

Both codecs split a document whose payloads hold at least 2 * ``_CHUNK``
pairs in all into k runs of whole chunks (writer) or blocks (reader), k =
min(``_WORKERS``, pairs // ``_CHUNK``), where ``_WORKERS`` is the size of
the process's CPU affinity set if os.fork exists (Linux) and 1 elsewhere;
a run may span site boundaries. ``_forked`` does run 0 in the caller and
each other run in a forked child. Writer children format into anonymous
files, which the caller copies in order; it formats a failed child's run
itself, so the bytes never depend on a child. Each reader child reads its
own byte ranges and fills slices of one shared anonymous mapping; a
failed child, like a bad block, sends the file to the json.load path.
"""

import json
import math
import mmap
import os
import shutil
from contextlib import ExitStack, suppress
from itertools import chain

import numpy as np

from .errors import FileFormatError, IdmpsError, ShapeMismatch
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


def _pair_items(data: np.ndarray) -> list:
    """The writer's items for ``data`` as the JSON list [[re, im], ...]: its
    brackets and, per chunk, the flat float view and the chunk's offset in it."""
    flat = np.ascontiguousarray(data, dtype=complex).reshape(-1).view(float)
    return ["[", *((flat, start) for start in range(0, len(flat), 2 * _CHUNK)), "]"]


def _write_items(fh, items: list) -> None:
    """Write ``items`` in order, then flush: a forked child leaves without
    flushing. A string is written as it is, a (flat, start) item as the
    pairs of its chunk."""
    for item in items:
        if isinstance(item, str):
            fh.write(item)
            continue
        flat, start = item
        texts = _texts(flat[start : start + 2 * _CHUNK])
        parts = [None, ", ", None, "], ["] * (len(texts) // 2)
        parts[0::2] = texts
        parts[-1] = "]"
        fh.write(", [" if start else "[")
        fh.write("".join(parts))
    fh.flush()


def _write(fh, items: list) -> None:
    """Write a document's ``items`` (see ``_write_items``) in k runs of
    whole chunks, k = min(``_WORKERS``, pairs // ``_CHUNK``); each run after
    the first is formatted in a forked child into an anonymous file."""
    import orjson  # noqa: F401  (before the fork, so no child imports it for _texts again)

    chunks = [n for n, item in enumerate(items) if not isinstance(item, str)]
    pairs = sum(min(2 * _CHUNK, items[n][0].size - items[n][1]) for n in chunks) // 2
    k = max(1, min(_WORKERS, pairs // _CHUNK))
    cuts = [0, *(chunks[i * len(chunks) // k] for i in range(1, k)), len(items)]
    runs = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    with ExitStack() as stack:
        files = [fh] + [stack.enter_context(open(os.memfd_create("idmps"), "w+")) for _ in runs[1:]]
        statuses = _forked(k, lambda i: _write_items(files[i], runs[i]))
        for run, out, status in zip(runs[1:], files[1:], statuses):
            if status:  # the child failed: format its run here
                _write_items(fh, run)
            else:
                out.seek(0)
                shutil.copyfileobj(out, fh)


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
        k = max(1, min(_WORKERS, size // (2 * _CHUNK)))
        out = np.frombuffer(mmap.mmap(-1, 8 * size), float) if k > 1 else np.empty(size)
        arrays = iter([out[a:b].view(complex) for a, b in payloads])

        def run(i: int) -> None:
            for pos, cut, filled, pairs in blocks[i * len(blocks) // k : (i + 1) * len(blocks) // k]:
                block = os.pread(fd, cut - pos, pos)
                # With its numbers deleted, it must read "[, ], " * (pairs - 1) + "[, ]".
                if block.translate(None, _NUMBER_BYTES) != b"[, ], " * (pairs - 1) + b"[, ]":
                    raise ValueError("not the writers' pair layout")
                numbers = b"[" + block.translate(None, b"[]") + b"]"
                try:
                    out[filled : filled + 2 * pairs] = orjson.loads(numbers)
                except orjson.JSONDecodeError:  # a number past the float range, say: json decides
                    out[filled : filled + 2 * pairs] = json.loads(numbers)

        try:
            text = b"".join(skeleton).decode()
            if "\\" in text:
                return None
            # With no escape, no payload lies inside a string: json scans each NaN in
            # turn. As json.dumps's text of what it parsed to, the skeleton hides no
            # other constant, repeated key or other spacing.
            doc = json.loads(text, parse_constant=lambda name: next(arrays, None))
            if json.dumps(doc, default=lambda array: math.nan) != text.removesuffix("\n") or any(_forked(k, run)):
                return None
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
        header = f'{{"version": {FILE_VERSION}, "shape": {json.dumps(list(t.shape))}, "data": '
        _write(fh, [header, *_pair_items(t.data), "}\n"])


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
    items = [f'{{"version": {FILE_VERSION}, "form": {json.dumps(m.tag)}, "sites": [']
    for n, s in enumerate(m.sites):
        items += [f'{", " if n else ""}{{"phys_dim": {s.phys_dim}, "left_dim": {s.left_dim}, '
                  f'"right_dim": {s.right_dim}, "data": ', *_pair_items(s.data), "}"]
    bonds = None if m.bonds is None else [None if b is None else b.values.tolist() for b in m.bonds]
    items.append(f'], "bonds": {json.dumps(bonds)}}}\n')
    with open(path, "w", encoding="utf-8") as fh:
        _write(fh, items)


# The two decoders check only what the constructors leave to their callers: that
# dimensions are ints (json's true is an int to SiteTensor), data [re, im] pairs
# and weights finite reals. A constructor's error names its site or bond.
def _site(raw, what: str) -> SiteTensor:
    """A site of an MPS document: an object whose dimensions are ints and whose data are [re, im] pairs."""
    if not isinstance(raw, dict):
        raise FileFormatError(f"{what} must be an object")
    dims = [raw.get(key) for key in ("phys_dim", "left_dim", "right_dim")]
    if not all(type(d) is int for d in dims):
        raise FileFormatError(f"{what}: phys_dim, left_dim and right_dim must be integers")
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
