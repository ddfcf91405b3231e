"""In-process idmps sessions, run in a fresh interpreter by run.py.

    python perfbench/worker.py setup|library|traced PLAN OUT

``setup`` times ``import idmps`` plus loading the ``mps-queries`` files.
``library`` does the same and then runs the timed ``mps-queries`` session.
``traced`` runs the plan's operations in-process (CLI commands through
``idmps.cli.main``): a warm-up pass, then traced, untraced and traced
passes; it writes per-layer metrics plus the spans. Results go to the JSON file OUT.
"""

import contextlib
import io
import json
import os
import sys
import time


def _load_states(plan: dict, load_mps) -> dict:
    return {tag: load_mps(path) for tag, path in plan["library"]["files"].items()}


def _attempt(errors: list, label: str, fn, *args):
    """One library operation; an exception is recorded as its failure
    instead of ending the session."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any failure of the program under test
        errors.append([label, f"{type(exc).__name__}: {exc}"])
        return None


def library_session(plan: dict, states: dict, mps) -> dict:
    """The mps-queries operations. ``mps`` is the module, looked up at call
    time so installed spans see the calls."""
    lib = plan["library"]
    errors: list = []
    coefficient_s = []
    coefficients = {}
    start = time.perf_counter()
    for tag, m in states.items():
        values = coefficients[tag] = []
        for k, idx in enumerate(lib["indices"]):
            t0 = time.perf_counter()
            c = _attempt(errors, f"coefficient {tag} #{k}", mps.coefficient, m, idx)
            coefficient_s.append(time.perf_counter() - t0)
            values.append(None if c is None else [c.real, c.imag])
    t0 = time.perf_counter()
    entropies = {
        tag: [_attempt(errors, f"entanglement_entropy {tag} cut {cut}", mps.entanglement_entropy, m, cut)
              for cut in range(1, lib["cuts"] + 1)]
        for tag, m in states.items()
    }
    spectrum_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    policy = mps.TruncationPolicy(max_bond=lib["max_bond"])
    truncated = {tag: _attempt(errors, f"truncate {tag}", mps.truncate, states[tag], policy)
                 for tag in lib["truncate"]}
    truncate_s = time.perf_counter() - t0
    session_s = time.perf_counter() - start
    return {
        "session_s": session_s,
        "coefficient_s": coefficient_s,
        "spectrum_s": spectrum_s,
        "truncate_s": truncate_s,
        "coefficients": coefficients,
        "entropies": entropies,
        "truncated": {tag: t for tag, t in truncated.items() if t is not None},
        "errors": errors,
    }


def truncation_facts(states: dict, truncated: dict, to_dense) -> dict:
    """Untimed: bond dims, reported errors and the true distance of each
    truncated state from its source."""
    import numpy as np

    out = {}
    for tag, (t, errors) in truncated.items():
        diff = to_dense(states[tag]).data - to_dense(t).data
        out[tag] = {"bond_dims": list(t.bond_dims), "errors": list(errors),
                    "distance": float(np.linalg.norm(diff))}
    return out


def run_cli(main, argv: list) -> dict:
    """One CLI command in-process; stdout is captured as the report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a traceback exits 1 as a process would
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:]}


def _setup(plan: dict) -> tuple[dict, float]:
    """Import idmps (numpy with it) and load the files; returns the states
    and the seconds this took."""
    start = time.perf_counter()
    import idmps.io

    states = _load_states(plan, idmps.io.load_mps)
    return states, time.perf_counter() - start


def cmd_library(plan: dict) -> dict:
    states, setup_s = _setup(plan)
    import idmps.mps

    res = library_session(plan, states, idmps.mps)
    res["truncated"] = truncation_facts(states, res.pop("truncated"), idmps.mps.to_dense)
    return {"setup_s": setup_s, **res}


def in_process_pass(plan: dict, modules: dict, tracer) -> dict:
    """One pass over the plan; with a tracer, each CLI command is a root span."""
    cli, mps = modules["cli"], modules["mps"]
    start = time.perf_counter()
    result: dict = {"ops": []}
    if plan["library"] is not None:
        load = modules["io"].load_mps
        if tracer is not None:
            load = tracer.wrap("io.load_mps", load)
        states = _load_states(plan, load)
        res = library_session(plan, states, mps)
        truncated = res.pop("truncated")
        if tracer is None:  # the checks' own to_dense calls stay out of the spans
            res["truncated"] = truncation_facts(states, truncated, mps.to_dense)
        result["library"] = res
    for i, op in enumerate(plan["ops"]):
        main = cli.main
        if tracer is not None:
            tracer.command = i
            main = tracer.wrap(f"cli.{op['kind']}", main)
        t0 = time.perf_counter()
        res = run_cli(main, op["argv"])
        res["wall_s"] = time.perf_counter() - t0
        result["ops"].append(res)
    result["session_s"] = time.perf_counter() - start
    return result


def cmd_traced(plan: dict, spans_path: str) -> dict:
    import idmps.cli
    import idmps.io
    import idmps.mps
    import idmps.oscillator
    import idmps.schmidt

    import spans as sp

    modules = {"cli": idmps.cli, "io": idmps.io, "mps": idmps.mps,
               "schmidt": idmps.schmidt, "oscillator": idmps.oscillator}
    # The first pass in a process also pays first-touch memory and lazy
    # imports, so it only warms up; the untraced pass sits between the two
    # traced ones so that drift in machine speed affects both sides alike.
    tracer = sp.Tracer()

    def traced_pass() -> dict:
        tracer.reset()
        saved = sp.install(tracer, modules)
        try:
            res = in_process_pass(plan, modules, tracer)
        finally:
            sp.uninstall(saved)
        spans = list(tracer.spans)
        res["metrics"] = sp.layer_metrics(spans)
        res["nesting_errors"] = sp.nesting_errors(spans)
        res["cli_gap_s"] = sp.root_gaps(spans, [op["wall_s"] for op in res["ops"]])
        res["spans"] = spans
        return res

    warmup = in_process_pass(plan, modules, None)
    first = traced_pass()
    untraced = in_process_pass(plan, modules, None)
    passes = [first, traced_pass()]
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "command", "counts", "errors"],
                   "passes": [p.pop("spans") for p in passes]}, fh)
    return {"warmup": warmup, "untraced": untraced, "passes": passes, "spans_file": spans_path}


def main(argv: list) -> int:
    mode, plan_path, out_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    if mode == "setup":
        out = {"setup_s": _setup(plan)[1]}
    elif mode == "library":
        out = cmd_library(plan)
    elif mode == "traced":
        out = cmd_traced(plan, os.path.splitext(out_path)[0] + ".spans.json")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
