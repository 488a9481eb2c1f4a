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
import dataclasses
import sys

import numpy as np

from .applications import _require_chain, cesaro_limit, cesaro_residuals, drazin_inverse, drazin_residuals
from .components import _worst, all_components, eigenprojection_residuals, eigenprojection_zero
from .documents import csv_render, load_document, matrix_block, write_json
from .exceptions import ConditioningError, InputFormatError, PreconditionError
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig
from .spectrum import Spectrum, analyze, spectrum_from_data

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    # three parents, so each subcommand accepts only the flags it reads
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", required=True, help="matrix document (JSON, or CSV by .csv suffix)")
    spectral = argparse.ArgumentParser(add_help=False)
    spectral.add_argument("--tol-eig", type=float, default=DEFAULT_TOLERANCES.eig_cluster_radius, metavar="R",
                          help="relative eigenvalue clustering radius; values chained within twice it "
                               "count as one eigenvalue (default %(default)s)")
    spectral.add_argument("--tol-rank", type=float, default=DEFAULT_TOLERANCES.rank_rel_threshold, metavar="R",
                          help="relative rank threshold (default %(default)s)")
    spectral.add_argument("--exponents", choices=("minimal", "worst-case"), default="minimal",
                          help="exponent policy for the product formulas")
    spectral.add_argument("--use-given-spectrum", action="store_true",
                          help="trust the document's spectrum block instead of computing eigenvalues")
    spectral.add_argument("--format", choices=("json", "csv"), default="json",
                          help="output format (csv emits matrices only; residuals go to stderr)")
    checked = argparse.ArgumentParser(add_help=False)
    checked.add_argument("--verify-tol", type=float, default=DEFAULT_TOLERANCES.verify_tol, metavar="R",
                         help="residual tolerance for verification (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="speccomp",
        description="Spectral projectors, component matrices, Drazin inverses and "
                    "Markov limiting matrices of dense complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag a subcommand does not take reads its parent's default, as the report says
    spectrum = sub.add_parser("spectrum", parents=[source, spectral],
                              help="distinct eigenvalues, multiplicities, indices and exponents")
    spectrum.set_defaults(**vars(checked.parse_args([])))
    for name, what in (("projector", "eigenprojection at eigenvalue 0"),
                       ("components", "all component matrices Z_kj"),
                       ("drazin", "Drazin inverse"),
                       ("cesaro", "limiting matrix of a row-stochastic chain")):
        sub.add_parser(name, parents=[source, spectral, checked], help=what)
    verify = sub.add_parser("verify", parents=[source, checked],
                            help="compare the input matrix against a reference document")
    verify.add_argument("--against", required=True, help="reference matrix document")
    verify.set_defaults(**vars(spectral.parse_args([])))
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
        "tolerances": dataclasses.asdict(cfg),
    }


def _verdict(what: str, value: float, cfg: ToleranceConfig) -> int:
    """Exit code 4, with one stderr line, unless ``value <= verify_tol`` (NaN fails)."""
    if not value <= cfg.verify_tol:
        print(f"{what} {value:.3e} exceeds verify_tol {cfg.verify_tol:.3e}", file=sys.stderr)
        return 4
    return 0


def _run(args) -> int:
    cfg = _config(args)

    if args.command == "verify":
        matrix, _ = load_document(args.input)
        reference, _ = load_document(args.against)
        if matrix.shape != reference.shape:
            raise PreconditionError(
                f"cannot compare a {matrix.shape[0]}x{matrix.shape[0]} matrix against "
                f"a {reference.shape[0]}x{reference.shape[0]} reference"
            )
        with np.errstate(over="ignore"):  # a deviation past the float range reads inf
            deviation = float(np.max(np.abs(matrix - reference)))
        payload = _base_payload(args, cfg)
        payload["against"] = args.against
        payload["max_abs_deviation"] = deviation
        payload["passed"] = deviation <= cfg.verify_tol
        write_json(payload, sys.stdout)
        return _verdict("deviation", deviation, cfg)

    if args.command == "cesaro" and (args.use_given_spectrum or args.exponents != "minimal"):
        raise PreconditionError(
            "cesaro computes its own spectrum with minimal exponents; "
            "--use-given-spectrum and --exponents worst-case do not apply to it"
        )
    matrix, records = load_document(args.input)
    if args.command == "cesaro":  # a matrix that is no chain is refused before its spectrum
        _require_chain(matrix, cfg.verify_tol)
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
        # built one part at a time as it is written, so only one part's lists exist
        payload["components"] = (
            {
                "k": k,
                "j": j,
                "eigenvalue": payload["spectrum"]["eigenvalues"][k - 1],
                "matrix": matrix_block(cs.parts[(k, j)]),
            }
            for (k, j) in cs.keys()
        )
        residuals = cs.residuals()
        named = [(f"Z_{k}_{j}", cs.parts[(k, j)]) for (k, j) in cs.keys()]
    elif args.command == "drazin":
        a_d = drazin_inverse(matrix, sp, cfg)
        payload["drazin_inverse"] = matrix_block(a_d)
        residuals = drazin_residuals(matrix, a_d, sp.ind_a)
        named = [("drazin_inverse", a_d)]
    elif args.command == "cesaro":
        limit = cesaro_limit(matrix, cfg, sp)
        payload["cesaro_limit"] = matrix_block(limit)
        residuals = cesaro_residuals(matrix, limit)
        named = [("cesaro_limit", limit)]

    # every result and residual is computed before the first byte is written,
    # so a failure leaves stdout empty
    payload["residuals"] = residuals
    if args.format == "csv":
        for item in named:
            sys.stdout.write(csv_render([item]))
        for name in sorted(residuals):
            print(f"residual {name} {residuals[name]:.6e}", file=sys.stderr)
    else:
        write_json(payload, sys.stdout)
    return _verdict("residual", _worst(residuals.values()), cfg)


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
