"""idmps benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. Inputs are generated from the seed (and
cached); the program is run from ``src`` without installing it.

With ``--trace 0`` the runner is a closed loop with one client: it runs
the workload's operations one at a time, each CLI command as a fresh
``python -m idmps.cli`` process and the ``mps-queries`` library session
as a fresh worker process, repeating whole sessions until ``--seconds``
have passed. Children are started through ``launcher.py``, which keeps
their peak RSS their own. With ``--trace 1`` a worker runs the same
operations in-process through ``idmps.cli.main`` with spans installed
(see ``spans.py``) and the runner reports per-layer metrics. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench"
# One BLAS thread per process keeps run-to-run spread low on a small
# shared machine; the cap is recorded in every result.
BLAS_THREADS = 1
SETUP_SAMPLES = 24  # per run, spread over it
OP_TIMEOUT_S = 150

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS cap)

import checks  # noqa: E402
import inputs  # noqa: E402
import spans as sp  # noqa: E402
from workloads import SESSION_SUMS, build_plan  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "session_s": "s",
    "decompose_s": "s",
    "verify_s": "s",
    "reconstruct_s": "s",
    "oscillator_s": "s",
    "coefficient_us": "us",
    "spectrum_s": "s",
    "truncate_s": "s",
    "peak_rss_mb": "MB",
    "fail_rate": "fraction",
}

# The end-to-end metrics every workload reports, which BENCHMARK.json gates.
GATED = ("setup_s", "session_s", "peak_rss_mb")
PER_LAYER = (*sp.layer_metrics([]), "trace.overhead_s", "trace.counts_repeat")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def environment(args, workload: str) -> dict:
    import ctypes

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    caches = {}
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
        caches = {"l2_cache_bytes": libc.sysconf(191), "l3_cache_bytes": libc.sysconf(194)}
    except (OSError, AttributeError):
        pass
    return {
        "workload": workload,
        "seed": args.seed,
        "size": "smoke" if args.smoke else "full",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_per_child": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": openblas,
        **caches,
    }


class Launcher:
    """Runs children one at a time through launcher.py, whose small size
    keeps their peak RSS their own (see its docstring)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"), str(OP_TIMEOUT_S)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, log: str) -> tuple[int, float, float]:
        """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
        self.proc.stdin.write(json.dumps([argv, log]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited {self.proc.wait()}")
        rc, wall, rss = json.loads(line)
        return rc, wall, rss

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cli_argv(argv: list) -> list:
    return [sys.executable, "-m", "idmps.cli", *argv]


def worker_argv(mode: str, plan_path: str, out_path: str) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py"), mode, plan_path, out_path]


def run_worker(mode: str, plan_path: str, launcher: Launcher) -> tuple[dict, float]:
    """Run worker.py in MODE on the plan; returns its result and peak RSS MB."""
    log = os.path.splitext(plan_path)[0] + f".{mode}"
    out_path = log + ".json"
    rc, _, rss = launcher.run(worker_argv(mode, plan_path, out_path), log)
    if rc != 0:
        raise RuntimeError(f"worker {mode} exited {rc}: {_read(log + '.err')[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh), rss


def library_reference(plan: dict) -> tuple:
    """The mps-queries dense input and its entropies at every cut, from
    idmps.schmidt on the dense tensor; computed outside every timed region."""
    sys.path.insert(0, "src")
    from idmps import schmidt_decompose, schmidt_entropy, tensor_new

    dense = inputs.read_tensor(plan["library"]["input"])
    t = tensor_new([2] * (plan["library"]["cuts"] + 1), dense)
    return dense, [schmidt_entropy(schmidt_decompose(t, cut)) for cut in range(1, t.ndim)]


def check_pass(plan: dict, reference: tuple | None, result: dict) -> tuple[int, int, list]:
    """(attempted, failed, failures) of one pass over the plan; an
    operation with several failed checks fails once."""
    attempted, failures = checks.check_cli(plan, result.get("ops", []))
    if result.get("library") is not None:
        n, f = checks.check_library(plan, result["library"], *reference)
        attempted, failures = attempted + n, failures + f
    return attempted, len({f.op for f in failures}), failures


def wavefunction_check(meta: dict) -> tuple[list, float]:
    """Outside the timing: the analytical MPS against the state computed
    independently at the same basis cutoff (inputs.oscillator_reference);
    returns the failures and the largest discrepancy seen."""
    sys.path.insert(0, "src")
    from idmps import OscillatorParams, build_bundle, wavefunction_mps

    params = OscillatorParams(meta["n"], meta["omega_tilde"], meta["theta"], meta["phi"],
                              meta["varphi"], meta["phys_cutoff"])
    bundle = build_bundle(params)
    failures, worst = [], 0.0
    for x, want in zip(meta["points"], meta["reference_wavefunction"]):
        got = wavefunction_mps(bundle, *x)
        worst = max(worst, abs(got - want))
        miss = checks.oscillator_miss("wavefunction_mps", got, want, checks.WAVEFUNCTION_TOL)
        if miss is not None:
            failures.append(checks.Failure(f"wavefunction at {x}", *miss))
    return failures, worst


def extra_checks(workload: str, meta: dict) -> tuple[int, list, dict]:
    """Once-per-run checks: the oscillator wavefunction, and the verify of
    the untimed mps-queries decompositions."""
    if workload == "oscillator":
        failures, worst = wavefunction_check(meta)
        return len(meta["points"]), failures, {"wavefunction_max_abs_error": worst}
    if workload == "mps-queries":
        return 3, [
            checks.Failure(f"decompose {tag} (input generation)", f"idmps verify exited {rc}", False)
            for tag, rc in meta["verify_rc"].items() if rc != 0
        ], {}
    return 0, [], {}


def measure(workload: str, plan: dict, plan_path: str, seconds: float, launcher: Launcher,
            reference: tuple | None) -> dict:
    """Untraced sessions, one at a time, until ``seconds`` have passed.

    ``SETUP_SAMPLES`` set-up samples are spread evenly over the run:
    before each operation the runner takes as many as the time elapsed
    calls for, so that they see the same spells of machine speed as the
    operations do."""
    setup = []
    start_run = time.perf_counter()
    deadline = start_run + seconds

    def sample_setup(final: bool = False) -> None:
        share = 1.0 if final else (time.perf_counter() - start_run) / seconds
        while len(setup) < max(1, min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * share))):
            if plan["library"] is not None:
                setup.append(run_worker("setup", plan_path, launcher)[0]["setup_s"])
                continue
            rc, wall, _ = launcher.run(cli_argv(["--help"]), os.path.join(WORK, "setup"))
            if rc != 0:
                raise RuntimeError(f"idmps --help exited {rc}")
            setup.append(wall)

    sessions, coefficient_s = [], []
    attempted, failed, failures = 0, 0, []
    while not sessions or time.perf_counter() < deadline:
        row = dict.fromkeys(SESSION_SUMS[workload], 0.0)
        rss = []
        if plan["library"] is not None:
            sample_setup()
            res, worker_rss = run_worker("library", plan_path, launcher)
            setup.append(res["setup_s"])
            coefficient_s += res["coefficient_s"]
            row.update(session_s=res["session_s"], spectrum_s=res["spectrum_s"],
                       truncate_s=res["truncate_s"])
            rss.append(worker_rss)
            result = {"library": res}
        else:
            ops = []
            session_s = 0.0
            for i, op in enumerate(plan["ops"]):
                sample_setup()
                log = os.path.join(WORK, f"op{i}")
                rc, wall, peak = launcher.run(cli_argv(op["argv"]), log)
                row[f"{op['kind']}_s"] += wall
                session_s += wall
                rss.append(peak)
                ops.append({"rc": rc, "out": _read(log + ".out"), "err": _read(log + ".err")})
            row["session_s"] = session_s
            result = {"ops": ops}
        row["peak_rss_mb"] = max(rss)
        sessions.append(row)
        n, nf, f = check_pass(plan, reference, result)
        attempted, failed, failures = attempted + n, failed + nf, failures + f
    sample_setup(final=True)
    metrics = {"setup_s": (statistics.median(setup), len(setup))}
    for name in sessions[0]:
        metrics[name] = (statistics.median(r[name] for r in sessions), len(sessions))
    # The largest process of the run: a fresh worker can peak a few MB lower
    # than the next one, which a median over two sessions would halve.
    metrics["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in sessions), len(sessions))
    if coefficient_s:
        metrics["coefficient_us"] = (statistics.median(coefficient_s) * 1e6, len(coefficient_s))
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "failures": failures}


def traced(plan: dict, plan_path: str, launcher: Launcher, reference: tuple | None) -> dict:
    """In-process passes in a worker: warm-up, traced, untraced, traced."""
    res, _ = run_worker("traced", plan_path, launcher)
    attempted, failed, failures = 0, 0, []
    for result in [res["warmup"], res["untraced"], *res["passes"]]:
        n, nf, f = check_pass(plan, reference, result)
        attempted, failed, failures = attempted + n, failed + nf, failures + f
    first, second = res["passes"]
    layer = {k: (first["metrics"][k] + second["metrics"][k]) / 2 for k in first["metrics"]}
    repeat = all(first["metrics"][k] == second["metrics"][k] for k in sp.COUNT_METRICS)
    for k in sp.COUNT_METRICS:
        layer[k] = first["metrics"][k]
    layer["trace.counts_repeat"] = int(repeat)
    traced_s = (first["session_s"] + second["session_s"]) / 2
    layer["trace.overhead_s"] = traced_s - res["untraced"]["session_s"]
    nesting = [e for p in res["passes"] for e in p["nesting_errors"]]
    failures += [checks.Failure("trace", reason, True) for reason in nesting]
    failed += bool(nesting)
    print(f"work counts repeat exactly between the two traced passes: {'yes' if repeat else 'NO'}")
    print(f"spans written to {res['spans_file']}")
    return {"layer": layer, "attempted": attempted, "failed": failed, "failures": failures,
            "untraced_s": res["untraced"]["session_s"], "traced_s": traced_s,
            "max_root_gap_s": max(g for p in res["passes"] for g in p["cli_gap_s"] or [0.0])}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".bytes", "bytes"), (".flops", "flop"), (".kept_ratio", "ratio"),
                         ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_one(args, workload: str, launcher: Launcher) -> tuple[dict, dict]:
    """Runs one workload; returns the result object and every metric
    measured, with units and sample counts."""
    size = "smoke" if args.smoke else "full"
    generate_log = os.path.join(WORK, "generate")
    meta, gen_s, cached = inputs.prepare(
        workload, args.seed, size, WORK, lambda argv: launcher.run(cli_argv(argv), generate_log)[0])
    plan = build_plan(workload, meta, size, args.seed, WORK)
    plan_path = os.path.join(WORK, f"{workload}-{size}-{args.seed}.plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    reference = library_reference(plan) if plan["library"] is not None else None
    n_extra, extra, facts = extra_checks(workload, meta)
    if args.trace:
        out = traced(plan, plan_path, launcher, reference)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in out["layer"].items()}
        detail = {k: out[k] for k in ("untraced_s", "traced_s", "max_root_gap_s")}
    else:
        out = measure(workload, plan, plan_path, args.seconds, launcher, reference)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k], "samples": n}
                   for k, (v, n) in out["metrics"].items()}
        detail = {}
    failures = out["failures"] + extra
    attempted = out["attempted"] + n_extra
    failed = out["failed"] + len(extra)
    for f in failures[:25]:
        print(f"FAIL {workload}: {f.op}: {f.reason}")
    if len(failures) > 25:
        print(f"FAIL {workload}: ... {len(failures) - 25} more")
    if not args.trace:
        metrics["fail_rate"] = {"value": failed / attempted, "unit": "fraction", "samples": attempted}
    print(json.dumps({
        "detail": {"workload": workload, "metrics": metrics, **detail, **facts,
                   "generate_s": gen_s, "inputs_cached": cached},
        "env": environment(args, workload),
    }))
    reported = PER_LAYER if args.trace else GATED
    return {
        "correct": not any(f.reference for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in reported},
    }, metrics


def print_table(rows: dict) -> None:
    print(f"{'workload':16} {'metric':36} {'value':>12}  {'unit':9} samples")
    for workload, metrics in rows.items():
        for name, m in metrics.items():
            print(f"{workload:16} {name:36} {m['value']:12.6g}  {m['unit']:9} {m.get('samples', '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness's own test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "idmps", "cli.py")):
        print("run.py: no src/idmps here; run from the root of an idmps checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    launcher = Launcher(child_env())
    try:
        if args.workload != "all":
            print(json.dumps(run_one(args, args.workload, launcher)[0]))
            return 0
        results, table = {}, {}
        for workload in inputs.WORKLOADS:
            results[workload], table[workload] = run_one(args, workload, launcher)
    finally:
        launcher.close()
    print_table(table)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
