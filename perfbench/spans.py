"""Spans around the calls between idmps modules, installed from outside.

``install`` replaces function objects in the namespaces of ``cli``, ``mps``,
``schmidt`` and ``oscillator`` with timing wrappers, so the program itself
is not edited. It wraps every function whose ``__module__`` is another
idmps module (a call across layers) and, in the library modules, every
public function of the module itself (``bond_spectrum`` calling
``to_dense``). The cli's own functions are its commands, which the
benchmark times as root spans. Spans stay in memory until the run ends.
"""

import functools
import os
import time
import types

import numpy as np

TRACED_MODULES = ("cli", "mps", "schmidt", "oscillator")

NAME, START, END, PARENT, COMMAND, COUNTS, ERRORS = range(7)


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _svd_work(args, result):
    rows, cols = np.shape(args[0])
    return {"flops": rows * cols * min(rows, cols), "computed": min(rows, cols)}


def _kept(args, result):
    return {"kept": sum(result.bond_dims)}


# Work counted at a span's end, outside its timed interval; all are
# computed from sizes, so they repeat exactly for the same code and input.
COUNTERS = {
    "io.load_tensor": _file_bytes,
    "io.load_mps": _file_bytes,
    "io.save_tensor": _file_bytes,
    "io.save_mps": _file_bytes,
    "tensor.svd": _svd_work,
    "mps.from_dense_left_canonical": _kept,
    "mps.from_dense_right_canonical": _kept,
    "mps.from_dense_mixed_canonical": _kept,
    "mps.from_dense_vidal": _kept,
    "mps.truncate": lambda args, result: _kept(args, result[0]),
    "mps.to_dense": lambda args, result: {"entries": result.size},
    "oscillator.element_decay_table": lambda args, result: {"rows": len(result)},
}


class Tracer:
    """Collects spans as lists [name, start, end, parent, command, counts, errors]."""

    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERRORS] = 1
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap the traced namespaces; returns what ``uninstall`` restores."""
    saved = []
    for short in TRACED_MODULES:
        mod = modules[short]
        for attr, obj in list(vars(mod).items()):
            if not isinstance(obj, types.FunctionType) or not obj.__module__.startswith("idmps."):
                continue
            if obj.__module__ == mod.__name__ and (short == "cli" or attr.startswith("_")):
                continue
            span = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
            saved.append((mod, attr, obj))
            setattr(mod, attr, tracer.wrap(span, obj))
    return saved


def uninstall(saved: list) -> None:
    for mod, attr, obj in saved:
        setattr(mod, attr, obj)


def _children(spans: list) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span[PARENT], []).append(i)
    return kids


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def nesting_errors(spans: list) -> list[str]:
    """Children that leave their parent's interval or overlap a sibling;
    either would make self time plus child time differ from wall time."""
    problems = []
    for parent, kids in _children(spans).items():
        prev_end = spans[parent][START] if parent >= 0 else float("-inf")
        for k in kids:
            s = spans[k]
            if s[START] < prev_end or (parent >= 0 and s[END] > spans[parent][END]):
                problems.append(f"span {s[NAME]} (#{k}) escapes or overlaps within #{parent}")
            prev_end = s[END]
    return problems


def root_gaps(spans: list, walls: list[float]) -> list[float]:
    """Per CLI command: its wall time, read outside the root span, minus
    the root span's duration.

    Root self time plus child spans equals the root span by construction
    once ``nesting_errors`` finds nothing, so the gap is the part of the
    command's traced wall time the spans do not cover: the harness's own
    call overhead, plus any garbage-collector pause that lands there."""
    gaps = list(walls)
    for s in spans:
        if s[PARENT] == -1 and s[NAME].startswith("cli."):
            gaps[s[COMMAND]] -= s[END] - s[START]
    return gaps


FROM_DENSE = {
    "left": "mps.from_dense_left_canonical",
    "right": "mps.from_dense_right_canonical",
    "mixed": "mps.from_dense_mixed_canonical",
    "vidal": "mps.from_dense_vidal",
}
VERIFY = {
    "left": "mps.verify_left_normalized",
    "right": "mps.verify_right_normalized",
    "vidal": "mps.verify_vidal",
}
MPS_PRODUCERS = set(FROM_DENSE.values()) | {"mps.truncate"}
CLI_COMMANDS = ("decompose", "verify", "reconstruct", "oscillator")

# Metrics that are counts of work rather than times.
COUNT_METRICS = (
    "io.save_mps.bytes", "io.load_tensor.bytes", "io.load_mps.bytes", "io.save_tensor.bytes",
    "schmidt.schmidt_decompose.calls", "tensor.svd.calls", "tensor.svd.flops",
    "tensor.svd.kept_ratio", "mps.to_dense.calls", "mps.to_dense.entries",
    "oscillator.element_decay_table.rows", "trace.errors", "trace.spans",
)


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced session."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    errors = 0
    selfs = self_times(spans)
    self_by_name: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + selfs[i]
        errors += s[ERRORS]
        for key, value in (s[COUNTS] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    # Singular values computed under each MPS-producing span, against the
    # bond values it kept.
    computed = 0
    producers = set()
    for s in spans:
        if s[NAME] != "tensor.svd":
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in MPS_PRODUCERS:
            p = spans[p][PARENT]
        if p >= 0:
            computed += s[COUNTS]["computed"]
            producers.add(p)
    kept = sum(spans[p][COUNTS]["kept"] for p in producers)
    m = {}
    for layer in ("save_mps", "load_tensor", "load_mps", "save_tensor"):
        m[f"io.{layer}.s"] = total.get(f"io.{layer}", 0.0)
        m[f"io.{layer}.bytes"] = counts.get(f"io.{layer}.bytes", 0)
    m["schmidt.schmidt_decompose.calls"] = calls.get("schmidt.schmidt_decompose", 0)
    m["schmidt.schmidt_decompose.s"] = total.get("schmidt.schmidt_decompose", 0.0)
    m["tensor.svd.calls"] = calls.get("tensor.svd", 0)
    m["tensor.svd.s"] = total.get("tensor.svd", 0.0)
    m["tensor.svd.flops"] = counts.get("tensor.svd.flops", 0)
    m["tensor.svd.kept_ratio"] = kept / computed if computed else 0.0
    for form, name in FROM_DENSE.items():
        m[f"mps.from_dense_{form}.s"] = total.get(name, 0.0)
    m["mps.from_dense.self_s"] = sum(self_by_name.get(n, 0.0) for n in FROM_DENSE.values())
    for form, name in VERIFY.items():
        m[f"mps.verify_{form}.s"] = total.get(name, 0.0)
    m["mps.site_residual.s"] = total.get("mps.site_left_residual", 0.0) + total.get(
        "mps.site_right_residual", 0.0
    )
    m["mps.to_dense.calls"] = calls.get("mps.to_dense", 0)
    m["mps.to_dense.entries"] = counts.get("mps.to_dense.entries", 0)
    m["mps.to_dense.s"] = total.get("mps.to_dense", 0.0)
    for name in ("coefficient", "bond_spectrum", "truncate"):
        m[f"mps.{name}.s"] = total.get(f"mps.{name}", 0.0)
    m["oscillator.build_bundle.s"] = total.get("oscillator.build_bundle", 0.0)
    m["oscillator.element_decay_table.s"] = total.get("oscillator.element_decay_table", 0.0)
    m["oscillator.element_decay_table.rows"] = counts.get("oscillator.element_decay_table.rows", 0)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = self_by_name.get(f"cli.{cmd}", 0.0)
    m["trace.errors"] = errors
    m["trace.spans"] = len(spans)
    return m

