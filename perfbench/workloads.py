"""The operation list of each workload.

A plan is plain JSON so run.py and its worker processes read the same
list. CLI workloads are lists of ``idmps`` argument vectors; ``mps-queries``
is a library session described by its files and query indices.
"""

import os
from math import sqrt

from checks import oscillator_csv_rows
from inputs import SIZES, rng_for


# Per-session sums of one kind of operation. They are sums, not medians,
# so that one slow form still shows.
SESSION_SUMS = {
    "dense-exact": ["decompose_s", "verify_s", "reconstruct_s"],
    "dense-truncated": ["decompose_s", "verify_s", "reconstruct_s"],
    "oscillator": ["oscillator_s"],
    "mps-queries": ["spectrum_s", "truncate_s"],
}


def _decompose_verify(ops: list, src: str, form: str, out: str, extra: list) -> int:
    """Append a decompose and the verify of its output; returns the
    decompose's index, which later checks refer to."""
    ops.append({"kind": "decompose", "argv": ["decompose", src, "--form", form, *extra, "--out", out]})
    ops.append({"kind": "verify", "argv": ["verify", out], "of": len(ops) - 1})
    return len(ops) - 2


def build_plan(workload: str, meta: dict, size_name: str, seed: int, root: str) -> dict:
    size = SIZES[size_name]
    out = os.path.join(root, "out", workload)
    os.makedirs(out, exist_ok=True)
    plan: dict = {"workload": workload, "seed": seed, "size": size_name, "ops": [], "library": None}
    ops = plan["ops"]
    if workload == "dense-exact":
        n_sites = meta["sites"]
        src = meta["input"]
        for tag, form in (("left", "left"), ("right", "right"),
                          ("mixed", f"mixed:{n_sites // 2}"), ("vidal", "vidal")):
            _decompose_verify(ops, src, form, os.path.join(out, f"{tag}.json"), [])
        ops.append({
            "kind": "reconstruct",
            "argv": ["reconstruct", os.path.join(out, "vidal.json"),
                     "--out", os.path.join(out, "back.json"), "--reference", src],
            "of": len(ops) - 2,
        })
        plan["residual_bound"] = 1e-10
    elif workload == "dense-truncated":
        n_sites = meta["sites"]
        src = meta["input"]
        bond = ["--max-bond", str(size["chain_bond"])]
        made = [
            (_decompose_verify(ops, src, form, os.path.join(out, f"{tag}.json"), bond), tag)
            for tag, form in (("vidal", "vidal"), ("mixed", f"mixed:{n_sites // 2}"))
        ]
        for index, tag in made:
            ops.append({
                "kind": "reconstruct",
                "argv": ["reconstruct", os.path.join(out, f"{tag}.json"),
                         "--out", os.path.join(out, f"back-{tag}.json"), "--reference", src],
                "of": index,
            })
        # TT-SVD bound (Oseledets 2011): every cut's best rank-chi error is
        # at most the noise, and the N-1 cut errors add in quadrature.
        plan["residual_bound"] = sqrt(n_sites - 1) * meta["noise_rel"]
        plan["reference_norm"] = meta["norm"]
    elif workload == "oscillator":
        ops.append({"kind": "oscillator", "argv": [
            "oscillator", "--n", str(meta["n"]), "--omega-tilde", repr(meta["omega_tilde"]),
            "--theta", repr(meta["theta"]), "--phi", repr(meta["phi"]),
            "--varphi", repr(meta["varphi"]), "--phys-cutoff", str(meta["phys_cutoff"]),
            "--out-mps", os.path.join(out, "osc.json"), "--out-csv", os.path.join(out, "osc.csv"),
        ]})
        plan["csv_rows"] = oscillator_csv_rows(meta)
        plan["state_norm"] = meta["reference_norm"]
    else:  # mps-queries
        n_sites = meta["sites"]
        rng = rng_for(workload, seed, 1)
        plan["library"] = {
            "files": meta["files"],
            "input": meta["input"],
            "indices": rng.integers(0, 2, size=(size["coefficients"], n_sites)).tolist(),
            "cuts": n_sites - 1,
            "max_bond": size["truncate_bond"],
            "truncate": ["left", "vidal"],
        }
    return plan
