"""Batch command line front end.

Subcommands: ``spectrum``, ``projector``, ``components``, ``drazin``,
``cesaro``, ``verify``. Each reads a matrix document, writes a JSON (or
CSV) report to stdout, and reports on stderr. Residuals of every invariant
check that ran are always part of the report — the formulas are exact in
theory, so quantifying how far floating point strayed is part of the job.

Exit codes: 0 success; 1 unreadable or malformed input; 2 precondition
violation; 3 conditioning-guard abort; 4 a verification residual exceeded
the verify tolerance.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .applications import cesaro_limit, cesaro_residuals, drazin_inverse, drazin_residuals
from .components import _worst, all_components, eigenprojection_residuals, eigenprojection_zero
from .documents import csv_render, json_text, load_document, matrix_block
from .exceptions import ConditioningError, InputFormatError, PreconditionError
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix
from .spectrum import Spectrum, analyze, spectrum_from_data

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="matrix document (JSON, or CSV by .csv suffix)")
    common.add_argument("--tol-eig", type=float, default=DEFAULT_TOLERANCES.eig_cluster_radius, metavar="R",
                        help="relative eigenvalue clustering radius (default %(default)s)")
    common.add_argument("--tol-rank", type=float, default=DEFAULT_TOLERANCES.rank_rel_threshold, metavar="R",
                        help="relative rank threshold (default %(default)s)")
    common.add_argument("--verify-tol", type=float, default=DEFAULT_TOLERANCES.verify_tol, metavar="R",
                        help="residual tolerance for verification (default %(default)s)")
    common.add_argument("--exponents", choices=("minimal", "worst-case"), default="minimal",
                        help="exponent policy for the product formulas")
    common.add_argument("--use-given-spectrum", action="store_true",
                        help="trust the document's spectrum block instead of computing eigenvalues")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (csv emits matrices only; residuals go to stderr)")

    parser = argparse.ArgumentParser(
        prog="speccomp",
        description="Spectral projectors, component matrices, Drazin inverses and "
                    "Markov limiting matrices of dense complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common],
                   help="distinct eigenvalues, multiplicities, indices and exponents")
    sub.add_parser("projector", parents=[common],
                   help="eigenprojection at eigenvalue 0")
    sub.add_parser("components", parents=[common],
                   help="all component matrices Z_kj")
    sub.add_parser("drazin", parents=[common],
                   help="Drazin inverse")
    sub.add_parser("cesaro", parents=[common],
                   help="limiting matrix of a row-stochastic chain")
    verify = sub.add_parser("verify", parents=[common],
                            help="compare the input matrix against a reference document")
    verify.add_argument("--against", required=True, help="reference matrix document")
    return parser


def _config(args) -> ToleranceConfig:
    return ToleranceConfig(
        eig_cluster_radius=args.tol_eig,
        rank_rel_threshold=args.tol_rank,
        verify_tol=args.verify_tol,
    )


def _policy(args) -> str:
    return "worst_case" if args.exponents == "worst-case" else "minimal"


def _spectrum_for(matrix, records, args, cfg) -> Spectrum:
    if args.use_given_spectrum:
        if records is None:
            raise PreconditionError(
                "--use-given-spectrum requires a 'spectrum' block in the document"
            )
        return spectrum_from_data(
            [r["value"] for r in records],
            [r["multiplicity"] for r in records],
            [r["index"] for r in records],
            n=matrix.shape[0],
            cfg=cfg,
            exponents=_policy(args),
        )
    return analyze(matrix, cfg, exponents=_policy(args))


def _spectrum_payload(sp: Spectrum) -> dict:
    return {
        "eigenvalues": [[float(v.real), float(v.imag)] for v in sp.eigenvalues],
        "multiplicities": list(sp.multiplicities),
        "indices": list(sp.indices),
        "exponents": list(sp.exponents),
        "ind_a": sp.ind_a,
        "u": sp.u,
        "n": sp.source_dim,
    }


def _base_payload(args, cfg) -> dict:
    return {
        "command": args.command,
        "input": args.input,
        "exponent_policy": _policy(args),
        "tolerances": {
            "eig_cluster_radius": cfg.eig_cluster_radius,
            "rank_rel_threshold": cfg.rank_rel_threshold,
            "verify_tol": cfg.verify_tol,
        },
    }


def _run(args) -> int:
    cfg = _config(args)

    if args.command == "verify":
        matrix, _ = load_document(args.input)
        matrix = as_matrix(matrix)
        reference, _ = load_document(args.against)
        reference = as_matrix(reference)
        if matrix.shape != reference.shape:
            raise PreconditionError(
                f"cannot compare a {matrix.shape[0]}x{matrix.shape[0]} matrix against "
                f"a {reference.shape[0]}x{reference.shape[0]} reference"
            )
        deviation = float(np.max(np.abs(matrix - reference)))
        payload = _base_payload(args, cfg)
        payload["against"] = args.against
        payload["max_abs_deviation"] = deviation
        payload["passed"] = deviation <= cfg.verify_tol
        sys.stdout.write(json_text(payload))
        if not payload["passed"]:
            print(f"deviation {deviation:.3e} exceeds verify_tol {cfg.verify_tol:.3e}",
                  file=sys.stderr)
            return 4
        return 0

    matrix, records = load_document(args.input)
    matrix = as_matrix(matrix)
    sp = _spectrum_for(matrix, records, args, cfg)
    payload = _base_payload(args, cfg)
    payload["n"] = matrix.shape[0]
    payload["spectrum"] = _spectrum_payload(sp)

    named = []
    residuals = {}
    if args.command == "spectrum":
        named = [("eigenvalues", np.array([[v] for v in sp.eigenvalues]))]
    elif args.command == "projector":
        z = eigenprojection_zero(matrix, sp, cfg)
        payload["projector"] = matrix_block(z)
        residuals = eigenprojection_residuals(matrix, sp, z)
        named = [("projector", z)]
    elif args.command == "components":
        cs = all_components(matrix, sp, cfg)
        payload["components"] = [
            {
                "k": k,
                "j": j,
                "eigenvalue": [
                    float(sp.eigenvalues[k - 1].real),
                    float(sp.eigenvalues[k - 1].imag),
                ],
                "matrix": matrix_block(cs.parts[(k, j)]),
            }
            for (k, j) in cs.keys()
        ]
        residuals = cs.residuals()
        named = [(f"Z_{k}_{j}", cs.parts[(k, j)]) for (k, j) in cs.keys()]
    elif args.command == "drazin":
        a_d = drazin_inverse(matrix, sp, cfg)
        payload["drazin_inverse"] = matrix_block(a_d)
        residuals = drazin_residuals(matrix, a_d, sp.ind_a)
        named = [("drazin_inverse", a_d)]
    elif args.command == "cesaro":
        limit = cesaro_limit(matrix, cfg)
        payload["cesaro_limit"] = matrix_block(limit)
        residuals = cesaro_residuals(matrix, limit)
        named = [("cesaro_limit", limit)]

    payload["residuals"] = residuals
    if args.format == "csv":
        sys.stdout.write(csv_render(named))
        for name in sorted(residuals):
            print(f"residual {name} {residuals[name]:.6e}", file=sys.stderr)
    else:
        sys.stdout.write(json_text(payload))

    worst = _worst(residuals.values())
    if not worst <= cfg.verify_tol:
        print(f"residual {worst:.3e} exceeds verify_tol {cfg.verify_tol:.3e}", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConditioningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
