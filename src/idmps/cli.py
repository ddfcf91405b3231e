"""Command-line front end.

README "CLI" states its contract: the subcommands, their reports, the exit
codes and ``IDMPS_RANK_TOL``.
"""

import argparse
import json
import os
import sys
from contextlib import suppress

import numpy as np

from .errors import ConvergenceFailure, FormMismatch, IdmpsError, ZeroState
from .io import _texts, load_mps, load_tensor, save_mps, save_tensor
from .mps import TruncationPolicy, decompose, parse_form_tag, state_norm, to_dense, verify
from .oscillator import OscillatorParams, _decay_lanes, build_bundle
from .tensor import DEFAULT_RANK_TOL, DenseTensor, tensor_norm


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here that code means numerical
    failure, so malformed flags exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rank_tol() -> float:
    raw = os.environ.get("IDMPS_RANK_TOL")
    if raw is None or raw == "":
        return DEFAULT_RANK_TOL
    with suppress(ValueError):
        if 0.0 < (tol := float(raw)) < 1.0:
            return tol
    raise ValueError(f"IDMPS_RANK_TOL must be in (0, 1), got {raw!r}")


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, allow_nan=False))


def cmd_decompose(args) -> int:
    form, center = parse_form_tag(args.form)
    policy = None
    if args.max_bond is not None or args.weight_tol is not None:
        policy = TruncationPolicy(max_bond=args.max_bond, weight_tol=args.weight_tol)
    rank_tol = _rank_tol()  # every setting is checked before the input is read
    t = load_tensor(args.input)
    m, cuts = decompose(t, form, center, policy, rank_tol)
    save_mps(args.out, m)
    report = {
        "form": m.tag,
        "shape": list(t.shape),
        "bond_dims": list(m.bond_dims),
        "bonds": [cut.spectrum.tolist() for cut in cuts],
        "truncation_errors": [cut.discarded for cut in cuts],
        "out": args.out,
    }
    _emit(report)
    return 0


def _finite(name: str, value: float) -> float:
    """``value``, which the report must not print as Infinity or NaN."""
    if not np.isfinite(value):
        raise OverflowError(f"the {name} {value} is outside the double-precision range")
    return value


def cmd_reconstruct(args) -> int:
    m = load_mps(args.input)
    t = to_dense(m)
    report = {
        "shape": list(t.shape),
        "norm": _finite("norm", tensor_norm(t)),
        "out": args.out,
    }
    if args.reference is not None:
        ref = load_tensor(args.reference)
        if ref.shape != t.shape:
            raise ValueError(f"reference shape {ref.shape} != reconstructed shape {t.shape}")
        scale = tensor_norm(ref)
        # The difference in place, in the reference's own array: ||ref - t|| is ||t - ref||, bit for bit.
        diff = tensor_norm(DenseTensor(t.shape, np.subtract(ref.data, t.data, out=ref.data)))
        del ref  # before the writer runs
        report["residual"] = _finite("residual", diff / scale if scale > 0.0 else diff)
    save_tensor(args.out, t)  # last: a failed command leaves no file
    _emit(report)
    return 0


def cmd_verify(args) -> int:
    if not 0.0 <= args.tol < np.inf:  # the JSON report holds it, and JSON has no inf
        raise ValueError(f"--tol must be >= 0 and finite, got {args.tol}")
    report = verify(load_mps(args.input), args.tol)
    if report.boundary_scalar is not None:
        _finite("boundary scalar", report.boundary_scalar)
    _emit(report.as_dict() | {"residuals": [r if np.isfinite(r) else None for r in report.residuals]})
    return 0 if report.passed else 3


def _write_decay_csv(path: str, bundle) -> None:
    """The element-decay rows of A1, A2 and A3 as CSV, in the dialect
    csv.writer uses (comma-separated, CRLF line ends), each magnitude (a
    finite float) as its repr. Each table column a lane reads is formatted
    once, as its "k,magnitude" lines (A2 lanes reuse A1's columns), and each
    lane is written as one string: its "which,a,b," prefix before every line."""
    columns = {}  # (table name, column) -> the column's "k,magnitude\r\n" lines
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("which,a,b,k,magnitude\r\n")
        for which in ("A1", "A2", "A3"):
            for a, b, name, j in _decay_lanes(bundle, which):
                lines = columns.get((name, j))
                if lines is None:
                    texts = _texts(np.abs(getattr(bundle, name)[:, j]))
                    lines = columns[name, j] = [f"{k},{t}\r\n" for k, t in enumerate(texts)]
                prefix = f"{which},{'' if a is None else a},{'' if b is None else b},"
                fh.write(prefix + prefix.join(lines))


def cmd_oscillator(args) -> int:
    params = OscillatorParams(
        args.n, args.omega_tilde, args.theta, args.phi, args.varphi, args.phys_cutoff
    )
    bundle = build_bundle(params)
    save_mps(args.out_mps, bundle.mps)
    if args.out_csv is not None:
        _write_decay_csv(args.out_csv, bundle)
    report = {
        "n": params.n,
        "omega_tilde": params.omega_tilde,
        "phys_cutoff": params.phys_cutoff,
        "bond_dims": list(bundle.mps.bond_dims),
        "norm": state_norm(bundle.mps),
        "out_mps": args.out_mps,
    }
    if args.out_csv is not None:
        report["out_csv"] = args.out_csv
    _emit(report)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="idmps", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="dense tensor file -> canonical-form MPS file")
    p.add_argument("input", help="tensor file (JSON)")
    p.add_argument("--form", required=True, help="left | right | mixed:<center> | vidal")
    p.add_argument("--max-bond", type=int, default=None, help="cap every bond dimension")
    p.add_argument(
        "--weight-tol", type=float, default=None, help="allowed discarded weight per cut"
    )
    p.add_argument("--out", required=True, help="MPS file to write")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="MPS file -> dense tensor file")
    p.add_argument("input", help="MPS file (JSON)")
    p.add_argument("--out", required=True, help="tensor file to write")
    p.add_argument(
        "--reference",
        default=None,
        help="original tensor file; adds the relative round-trip residual to the report",
    )
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="check the gauge conditions of a claimed form")
    p.add_argument("input", help="MPS file (JSON)")
    p.add_argument(
        "--tol", type=float, default=1e-10, help="residual tolerance, for vidal cut n relative to max(lambda_n)^2"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oscillator", help="build the analytical three-site example")
    p.add_argument("--n", type=int, required=True, help="quanta in the collective mode")
    p.add_argument("--omega-tilde", type=float, required=True, help="scaled frequency")
    p.add_argument("--theta", type=float, default=0.0, help="mixing angle theta")
    p.add_argument("--phi", type=float, default=0.0, help="mixing angle phi")
    p.add_argument("--varphi", type=float, default=0.0, help="mixing angle varphi")
    p.add_argument("--phys-cutoff", type=int, required=True, help="basis size per site")
    p.add_argument("--out-mps", required=True, help="MPS file to write")
    p.add_argument("--out-csv", default=None, help="element-decay CSV to write")
    p.set_defaults(func=cmd_oscillator)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ZeroState, ConvergenceFailure, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except FormMismatch as exc:
        print(f"form mismatch: {exc}", file=sys.stderr)
        return 3
    except (IdmpsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
