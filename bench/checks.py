"""Correctness checks of CLI outputs against independent truth.

Run after the timed passes. Constructed cases (``build_case``, normal
matrices built from their eigenvectors) are checked against their known
components; generic matrices against ``components_by_nullspace``; chains
against the spectral projector onto ker(P - I) along range(P - I), computed
from an SVD, and against the limit identities. Drazin inverses are checked
against the component formula and the three Drazin axioms.
"""

from __future__ import annotations

import json
import math

import numpy as np

from speccomp.documents import matrix_from_block
from speccomp.oracle import components_by_nullspace
from speccomp.spectrum import spectrum_from_data


def tolerance(workload: str, doc) -> float:
    """Relative Frobenius distance allowed between an exit-0 output and the truth.

    The release gate's limits: 1e-8 against the construction with minimal
    exponents, 1e-6 under worst-case exponents (exponent-slack criterion).
    dense also gets 1e-6, for the eigenvector conditioning of generic
    matrices and of the nullspace oracle itself.
    """
    return 1e-6 if workload == "dense" or doc.policy == "worst_case" else 1e-8


def _frob(m) -> float:
    return float(np.linalg.norm(m, "fro"))


def _dev(x, t) -> float:
    """Frobenius distance relative to max(1, |t|)."""
    return _frob(np.asarray(x) - np.asarray(t)) / max(1.0, _frob(t))


def parse_output(text: str, csv: bool) -> dict:
    """The matrices of one report, by name: ``Z_k_j``, ``projector``, ...

    JSON reports also give ``spectrum`` and the eigenvalue of each component.
    """
    if csv:
        out, name, rows = {}, None, []
        for line in text.splitlines() + [""]:
            if "," in line:
                cells = [float(c) for c in line.split(",")]
                rows.append([complex(re, im) for re, im in zip(cells[0::2], cells[1::2])])
                continue
            if name is not None:
                out[name] = np.array(rows, dtype=complex)
            name, rows = (line or None), []
        return out
    payload = json.loads(text)
    out = {"spectrum": payload["spectrum"], "eigenvalue_of": {}}
    for key in ("projector", "drazin_inverse", "cesaro_limit"):
        if key in payload:
            out[key] = matrix_from_block(payload[key])
    for c in payload.get("components", []):
        name = f"Z_{c['k']}_{c['j']}"
        out[name] = matrix_from_block(c["matrix"])
        out["eigenvalue_of"][name] = complex(*c["eigenvalue"])
    return out


def _nearest(values, z) -> int:
    return int(np.argmin(np.abs(np.asarray(values) - z)))


def _truth_parts(doc) -> tuple:
    """(eigenvalues, parts) of the document's matrix, exact or from the oracle."""
    truth = doc.truth
    if "parts" not in truth:
        a = doc.matrix
        values = np.linalg.eigvals(a)
        n = len(values)
        sp = spectrum_from_data(values, [1] * n, [1] * n, n=n)
        truth["eigenvalues"] = list(sp.eigenvalues)
        truth["multiplicities"] = [1] * n
        truth["indices"] = [1] * n
        truth["parts"] = dict(components_by_nullspace(a, sp).parts)
    return truth["eigenvalues"], truth["parts"]


def _drazin_truth(values, parts, n) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    for (k, j), z in parts.items():
        lam = values[k - 1]
        if lam != 0:
            out += (-1) ** j * math.factorial(j) / lam ** (j + 1) * z
    return out


def _drazin_axioms(a, ad, values, indices) -> float:
    zero = [nu for lam, nu in zip(values, indices) if lam == 0]
    ak = np.linalg.matrix_power(a, zero[0] if zero else 0)
    ak1 = ak @ a
    return max(
        _frob(ad @ a @ ad - ad) / max(1.0, _frob(ad) ** 2 * _frob(a)),
        _frob(a @ ad - ad @ a) / max(1.0, _frob(a) * _frob(ad)),
        _frob(ak1 @ ad - ak) / max(1.0, _frob(ak1) * _frob(ad)),
    )


def _limit_oracle(p) -> np.ndarray:
    """Projector onto ker(P - I) along range(P - I), from one SVD."""
    n = p.shape[0]
    u, sv, vh = np.linalg.svd(p - np.eye(n))
    rank = int(np.count_nonzero(sv > 1e-10 * sv[0]))
    right = vh[rank:].conj().T
    left = u[:, rank:]
    return right @ np.linalg.solve(left.conj().T @ right, left.conj().T)


def _limit_identities(p, limit) -> float:
    scale = max(1.0, _frob(p) * _frob(limit))
    return max(
        _frob(limit @ limit - limit) / max(1.0, _frob(limit) ** 2),
        _frob(p @ limit - limit @ p) / scale,
        _frob(p @ limit - limit) / scale,
        float(np.max(np.abs(limit.sum(axis=1) - 1.0))),
        float(max(0.0, -np.min(limit.real))),
    )


def check(doc, text: str) -> float:
    """Worst deviation of one exit-0 report from the truth (see :func:`tolerance`).

    Raises ``ValueError`` (or ``KeyError``) when the report cannot be read.
    """
    out = parse_output(text, doc.csv)
    a = doc.matrix
    n = a.shape[0]
    if doc.command == "cesaro":
        limit = out["cesaro_limit"]
        return max(_dev(limit, _limit_oracle(a)), _limit_identities(a, limit))
    values, parts = _truth_parts(doc)
    if doc.command == "spectrum":
        sp = out["spectrum"]
        got = [complex(*v) for v in sp["eigenvalues"]]
        if len(got) != len(values):
            return math.inf
        worst = 0.0
        for g, m, nu in zip(got, sp["multiplicities"], sp["indices"]):
            k = _nearest(values, g)
            if (m, nu) != (doc.truth["multiplicities"][k], doc.truth["indices"][k]):
                return math.inf
            worst = max(worst, abs(g - values[k]) / max(1.0, abs(values[k])))
        return worst
    if doc.command == "projector":
        zero = [k for k, lam in enumerate(values, start=1) if lam == 0]
        want = parts[(zero[0], 0)] if zero else np.zeros((n, n), dtype=complex)
        return _dev(out["projector"], want)
    if doc.command == "drazin":
        ad = out["drazin_inverse"]
        axioms = _drazin_axioms(a, ad, values, doc.truth["indices"])
        return max(_dev(ad, _drazin_truth(values, parts, n)), axioms)
    # components: every output part must match the true part of the same
    # order at the nearest eigenvalue (CSV reports carry no eigenvalues, so
    # there the best-matching true part of that order counts).
    names = [k for k in out if k.startswith("Z_")]
    if len(names) != len(parts):
        return math.inf
    worst = 0.0
    for name in names:
        j = int(name.rsplit("_", 1)[1])
        if name in out.get("eigenvalue_of", {}):
            k = _nearest(values, out["eigenvalue_of"][name]) + 1
            worst = max(worst, _dev(out[name], parts[(k, j)]) if (k, j) in parts else math.inf)
        else:
            worst = max(worst, min(_dev(out[name], t) for (_, tj), t in parts.items() if tj == j))
    return worst
