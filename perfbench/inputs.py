"""Seeded inputs for the benchmark workloads.

Dense tensors are written in the documented version-1 tensor format with
``json`` and numpy only, never through ``idmps.io``, so a change to the
program's file code cannot change what the benchmark feeds it. Inputs are
cached per (workload, size, seed) under the work directory; the MPS files
of ``mps-queries`` come from an untimed ``idmps decompose`` of the cached
dense input.
"""

import json
import os
import shutil
import time
from math import comb, sqrt

import numpy as np

WORKLOADS = ("dense-exact", "dense-truncated", "oscillator", "mps-queries")

# "full" is what the benchmark measures; "smoke" is a seconds-long
# version of every workload that the benchmark's own test runs.
SIZES = {
    "full": {
        "exact_sites": 14,
        "chain_sites": 18,
        "chain_bond": 16,
        "noise": 0.01,
        "osc_n": 60,
        "osc_cutoff": 200,
        "coefficients": 1000,
        "truncate_bond": 8,
    },
    "smoke": {
        "exact_sites": 6,
        "chain_sites": 6,
        "chain_bond": 3,
        "noise": 0.01,
        "osc_n": 2,
        "osc_cutoff": 40,
        "coefficients": 20,
        "truncate_bond": 2,
    },
}

CACHE_VERSION = 2


def rng_for(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    """Independent, reproducible random stream per (workload, seed, stream)."""
    return np.random.default_rng([WORKLOADS.index(workload), seed, stream])


def write_tensor(path: str, data: np.ndarray) -> None:
    """Write a version-1 dense tensor file of shape [2]*N: row-major
    [re, im] pairs."""
    n_sites = data.size.bit_length() - 1
    pairs = np.stack([data.real, data.imag], axis=1).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "shape": [2] * n_sites, "data": pairs}, fh)
        fh.write("\n")


def read_tensor(path: str) -> np.ndarray:
    """Flat complex data of a version-1 tensor file."""
    with open(path, encoding="utf-8") as fh:
        pairs = np.asarray(json.load(fh)["data"], dtype=float)
    return pairs[:, 0] + 1j * pairs[:, 1]


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_chain(rng: np.random.Generator, n_sites: int, bond: int) -> np.ndarray:
    """Dense, normalized contraction of a random d=2 open chain of bond ``bond``."""
    acc = np.ones((1, 1), dtype=complex)
    for n in range(1, n_sites + 1):
        right = 1 if n == n_sites else min(bond, 2**n, 2 ** (n_sites - n))
        site = _complex_normal(rng, (acc.shape[1], 2, right))
        acc = np.einsum("xa,apb->xpb", acc, site).reshape(-1, right)
    flat = acc.reshape(-1)
    return flat / np.linalg.norm(flat)


def hermite_functions(k_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator functions f_0..f_kmax at the points x, by
    their normalized three-term recurrence."""
    out = np.empty((k_max + 1,) + x.shape)
    out[0] = np.pi**-0.25 * np.exp(-x * x / 2.0)
    if k_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, k_max):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def oscillator_reference(meta: dict, points: np.ndarray) -> tuple[float, list[float]]:
    """Norm and point values of the oscillator state cut off at the same
    ``phys_cutoff`` basis as the program's MPS, computed independently.

    The state is sum_{a+l+b=n} sqrt(n!/(a! l! b!)) u1^a u2^l u3^b
    phi_a phi_l phi_b in frequency-omega eigenfunctions phi_j(x) =
    w^(1/4) f_j(sqrt(w) x). Their overlaps with the first d functions
    f_k come from a trapezoid rule on a fine grid (spectrally accurate
    for these smooth, decaying integrands), not from the program's
    closed form, so the comparison tests the program and not the cutoff.
    """
    n, d, w = meta["n"], meta["phys_cutoff"], meta["omega_tilde"]
    t, p, v = meta["theta"], meta["phi"], meta["varphi"]
    u = (np.sin(t) * np.cos(p),
         np.sin(t) * np.sin(p) * np.cos(v) - np.cos(t) * np.sin(v),
         np.cos(t) * np.cos(v) + np.sin(t) * np.sin(p) * np.sin(v))
    h = 0.01
    x = np.arange(-40.0, 40.0 + h / 2, h)
    overlap = hermite_functions(d - 1, x) @ (w**0.25 * hermite_functions(n, np.sqrt(w) * x)).T * h
    c = np.zeros((n + 1,) * 3)
    for a in range(n + 1):
        for l in range(n + 1 - a):
            c[a, l, n - a - l] = sqrt(comb(n, a) * comb(n - a, l)) * u[0]**a * u[1]**l * u[2]**(n - a - l)
    gram = overlap.T @ overlap
    norm = float(np.sqrt(np.einsum("alb,aA,lL,bB,ALB->", c, gram, gram, gram, c, optimize=True)))
    values = []
    for point in points:
        phi = [overlap.T @ hermite_functions(d - 1, np.asarray(xi)) for xi in point]
        values.append(float(np.einsum("alb,a,l,b->", c, *phi)))
    return norm, values


def _generate(workload: str, seed: int, size: dict, out: str, cli) -> dict:
    """Write the inputs of one (workload, seed) into ``out``; returns their
    metadata, which the correctness checks read."""
    meta: dict = {"workload": workload, "seed": seed}
    if workload == "dense-exact":
        data = _complex_normal(rng_for(workload, seed), 2 ** size["exact_sites"])
        meta.update(sites=size["exact_sites"], input=os.path.join(out, "input.json"))
        write_tensor(meta["input"], data / np.linalg.norm(data))
    elif workload == "dense-truncated":
        n_sites = size["chain_sites"]
        clean = random_chain(rng_for(workload, seed), n_sites, size["chain_bond"])
        noise = _complex_normal(rng_for(workload, seed, 1), clean.size)
        noise *= size["noise"] / np.linalg.norm(noise)
        data = clean + noise
        norm = float(np.linalg.norm(data))
        meta.update(sites=n_sites, input=os.path.join(out, "input.json"), norm=norm,
                    noise_rel=size["noise"] / norm)
        write_tensor(meta["input"], data)
    elif workload == "oscillator":
        rng = rng_for(workload, seed)
        meta.update(
            n=size["osc_n"],
            phys_cutoff=size["osc_cutoff"],
            omega_tilde=float(rng.uniform(0.5, 3.0)),
            theta=float(rng.uniform(0.0, np.pi)),
            phi=float(rng.uniform(0.0, 2 * np.pi)),
            varphi=float(rng.uniform(0.0, 2 * np.pi)),
        )
        points = rng_for(workload, seed, 2).uniform(-2.0, 2.0, size=(5, 3))
        norm, values = oscillator_reference(meta, points)
        meta.update(reference_norm=norm, points=points.tolist(), reference_wavefunction=values)
    else:  # mps-queries
        n_sites = size["chain_sites"]
        clean = random_chain(rng_for(workload, seed), n_sites, size["chain_bond"])
        dense = os.path.join(out, "input.json")
        write_tensor(dense, clean)
        meta.update(sites=n_sites, input=dense, files={})
        verified = {}
        for tag, form in (("left", "left"), ("mixed", f"mixed:{n_sites // 2}"), ("vidal", "vidal")):
            path = os.path.join(out, f"{tag}.json")
            rc = cli(["decompose", dense, "--form", form, "--out", path])
            if rc != 0:
                raise RuntimeError(f"input generation: idmps decompose --form {form} exited {rc}")
            rc = cli(["verify", path])
            meta["files"][tag] = path
            verified[tag] = rc
        meta["verify_rc"] = verified
    return meta


def prepare(workload: str, seed: int, size_name: str, root: str, cli) -> tuple[dict, float, bool]:
    """Inputs for (workload, seed), generated once and cached. ``cli``
    runs one ``idmps`` command from its argument list and returns the
    exit code.

    Returns the metadata, the generation time in seconds (0 when cached)
    and whether the cache was hit.
    """
    out = os.path.join(root, "inputs", f"{workload}-{size_name}-{seed}")
    meta_path = os.path.join(out, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("cache_version") == CACHE_VERSION and meta.get("size") == SIZES[size_name]:
            return meta, 0.0, True
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    start = time.perf_counter()
    meta = _generate(workload, seed, SIZES[size_name], out, cli)
    meta.update(cache_version=CACHE_VERSION, size=SIZES[size_name])
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return meta, time.perf_counter() - start, False
