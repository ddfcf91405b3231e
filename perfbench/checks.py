"""Correctness checks on what a session produced.

Every check failure is an operation failure: it is counted in ``failed``
and printed with its reason, and no failure stops the run. A failure is
also a *reference* failure when an output disagrees with an independent
reference (the input tensor, an error bound, the oscillator state
computed independently at the same basis cutoff);
only those make a run incorrect. A fresh decomposition that ``idmps
verify`` rejects fails its decompose operation but is not a reference
failure: the numbers it reconstructs are still checked on their own.
Likewise an oscillator norm or wavefunction value that misses its 1e-8
tolerance by no more than the program's known overlap-table error (see
``OSCILLATOR_DEFECT_BOUND``) fails its operation but is not a reference
failure; past that bound it is one.
"""

import json
from math import comb
from typing import NamedTuple

import numpy as np

COEFFICIENT_TOL = 1e-12
ENTROPY_TOL = 1e-10
NORM_TOL = 1e-8
WAVEFUNCTION_TOL = 1e-8
# The program builds its oscillator overlap table from a closed-form
# alternating sum that cancels at large degree. At n=60, d=200 and
# omega-tilde in [0.5, 3] the table is off by up to 2.5e-6 (at 3), and the
# norm and point values it gives are off the reference by up to ~8e-7.
# Misses up to this bound are that known imprecision; a larger one (or a
# NaN) means the output is wrong, not imprecise.
OSCILLATOR_DEFECT_BOUND = 1e-5
# Slack for comparing two computed bounds that are equal in exact arithmetic.
ROUNDOFF = 1e-9


class Failure(NamedTuple):
    op: str
    reason: str
    reference: bool


def _label(op: dict) -> str:
    argv = op["argv"]
    form = argv[argv.index("--form") + 1] if "--form" in argv else ""
    name = argv[1].rsplit("/", 1)[-1] if len(argv) > 1 and not argv[1].startswith("--") else ""
    return " ".join(p for p in (op["kind"], name, form) if p)


def _report(text: str) -> dict | None:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def oscillator_miss(what: str, got: float, want: float, tol: float) -> tuple[str, bool] | None:
    """(reason, is a reference failure) when an oscillator value ``got``
    misses its reference ``want`` by more than ``tol``; None otherwise."""
    error = abs(got - want)
    if error <= tol:
        return None
    known = error <= OSCILLATOR_DEFECT_BOUND
    note = " (within the known overlap-table error)" if known else ""
    return (f"{what} {got!r} is {error:.3g} from the reference {want!r} at the same cutoff, "
            f"over {tol:g}{note}", not known)


def oscillator_csv_rows(meta: dict) -> int:
    """Expected element-decay CSV rows: a header, then one row per physical
    index for every A1 lane, every A2 lane with a+b <= n, and every A3 lane
    whose binomial weight is nonzero in double precision."""
    n, d = meta["n"], meta["phys_cutoff"]
    t, p, v = meta["theta"], meta["phi"], meta["varphi"]
    u3 = float(np.cos(t) * np.cos(v) + np.sin(t) * np.sin(p) * np.sin(v))
    q = u3 * u3
    a3_lanes = sum(1 for b in range(n + 1) if comb(n, b) * q**b * (1.0 - q) ** (n - b) != 0.0)
    return 1 + d * ((n + 1) + (n + 1) * (n + 2) // 2 + a3_lanes)


def check_cli(plan: dict, results: list[dict]) -> tuple[int, list[Failure]]:
    """Checks one pass over the CLI operations; returns (attempted, failures)."""
    failures: dict[int, Failure] = {}
    reports: list[dict | None] = [None] * len(results)

    def fail(i: int, reason: str, reference: bool) -> None:
        # One failure per operation; a reference failure outranks another.
        held = failures.get(i)
        if held is None or (reference and not held.reference):
            failures[i] = Failure(_label(plan["ops"][i]), reason, reference)

    for i, (op, res) in enumerate(zip(plan["ops"], results)):
        rc, report = res["rc"], _report(res["out"])
        if op["kind"] == "verify":
            if rc == 3 and report is not None:
                worst = max(report["residuals"], default=0.0)
                fail(op["of"], f"output rejected by idmps verify: worst residual "
                               f"{worst:.3g} > tol {report['tol']:g}", False)
            elif rc != 0:
                fail(i, f"exit {rc}: {res['err'].strip()[-300:]}", False)
            continue
        if rc != 0 or report is None:
            fail(i, f"exit {rc}: {res['err'].strip()[-300:]}", False)
            continue
        reports[i] = report
        if op["kind"] == "reconstruct":
            residual = report["residual"]
            if not residual <= plan["residual_bound"]:
                fail(i, f"residual {residual:.3e} > bound {plan['residual_bound']:.3e}", True)
            source = reports[op["of"]]
            if "reference_norm" in plan and source is not None:
                # Eckart-Young: no state of the kept bond dimension is closer
                # to the input than the best one at any single cut.
                distance = residual * plan["reference_norm"]
                for cut, err in enumerate(source["truncation_errors"], start=1):
                    if err > distance * (1.0 + ROUNDOFF):
                        fail(op["of"], f"reported truncation error {err:.6e} at cut {cut} "
                                       f"exceeds the actual distance {distance:.6e}", True)
        elif op["kind"] == "oscillator":
            argv = op["argv"]
            n = int(argv[argv.index("--n") + 1])
            miss = oscillator_miss("norm", report["norm"], plan["state_norm"], NORM_TOL)
            if miss is not None:
                fail(i, *miss)
            if report["bond_dims"] != [n + 1, n + 1]:
                fail(i, f"bond_dims {report['bond_dims']} != {[n + 1, n + 1]}", True)
            with open(argv[argv.index("--out-csv") + 1], encoding="utf-8") as fh:
                rows = sum(1 for _ in fh)
            if rows != plan["csv_rows"]:
                fail(i, f"CSV has {rows} rows, expected {plan['csv_rows']}", True)
    return len(results), list(failures.values())


def check_library(plan: dict, res: dict, dense: np.ndarray, ref_entropies: list[float]) -> tuple[int, list[Failure]]:
    """Checks one mps-queries pass against the dense input it came from."""
    lib = plan["library"]
    shape = [2] * (lib["cuts"] + 1)
    failures = [Failure(op, f"raised {reason}", False) for op, reason in res["errors"]]
    expected = dense[np.ravel_multi_index(np.asarray(lib["indices"]).T, shape)]
    for tag, values in res["coefficients"].items():
        for k, (got, want) in enumerate(zip(values, expected)):
            if got is not None and not abs(complex(*got) - want) <= COEFFICIENT_TOL:
                failures.append(Failure(f"coefficient {tag} #{k}",
                                        f"off by {abs(complex(*got) - want):.3e}", True))
    for tag, values in res["entropies"].items():
        for cut, (got, want) in enumerate(zip(values, ref_entropies), start=1):
            if got is not None and not abs(got - want) <= ENTROPY_TOL:
                failures.append(Failure(f"entanglement_entropy {tag} cut {cut}",
                                        f"{got!r} != schmidt_entropy {want!r}", True))
    # Traced passes skip the untimed distance computation; the untraced
    # pass of the same run checks truncation.
    for tag, facts in res.get("truncated", {}).items():
        if max(facts["bond_dims"]) > lib["max_bond"]:
            failures.append(Failure(f"truncate {tag}", f"bond dims {facts['bond_dims']}", True))
        worst = max(facts["errors"], default=0.0)
        if worst > facts["distance"] * (1.0 + ROUNDOFF):
            failures.append(Failure(f"truncate {tag}", f"reported error {worst:.6e} exceeds "
                                                       f"the actual distance {facts['distance']:.6e}", True))
    attempted = sum(len(v) for v in res["coefficients"].values()) + sum(
        len(v) for v in res["entropies"].values()) + len(lib["truncate"])
    return attempted, failures
