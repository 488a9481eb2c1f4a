"""Accuracy envelope of the product formulas, per spectrum class.

The worst residual of ``all_components(...).residuals()`` over seeds 0-4
pins the size up to which a class stays within the default ``verify_tol``.
Generic complex Gaussian spectra hold at n=16 and fail at n=48, where the
CLI must refuse the result (exit 4); normal matrices with eigenvalues on
the unit circle hold at n=32. The limits (``cesaro_residuals``) of real
positive, periodic and reducible chains hold at n=64, and are exactly
real. The constructed Jordan cases are gated at
n <= 8 by the release gate. The projector at 0 and the Drazin inverse of a
nonsingular matrix hold at every n: the projector is exactly 0 and the
Drazin inverse is the plain inverse.
"""

import json

import numpy as np
import pytest

from speccomp import (
    DEFAULT_TOLERANCES,
    all_components,
    analyze,
    cesaro_limit,
    cesaro_residuals,
    drazin_inverse,
    drazin_residuals,
    eigenprojection_residuals,
    eigenprojection_zero,
)
from speccomp.cli import main
from speccomp.documents import document_payload

from corpus import periodic_chain, random_stochastic, reducible_chain

SEEDS = range(5)


def generic(seed, n):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)


def normal_on_circle(seed, n):
    rng = np.random.default_rng(seed)
    lam = np.exp(2j * np.pi * (np.arange(n) + rng.random()) / n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * lam) @ q.conj().T


def worst_residual(a):
    return max(all_components(a, analyze(a)).residuals().values())


@pytest.mark.parametrize("family, n", [(generic, 16), (normal_on_circle, 32)])
def test_inside_the_envelope_every_seed_verifies(family, n):
    worst = max(worst_residual(family(seed, n)) for seed in SEEDS)
    assert worst <= DEFAULT_TOLERANCES.verify_tol


@pytest.mark.parametrize("chain", [
    lambda rng: random_stochastic(rng, 64),
    lambda rng: periodic_chain(rng, 64, 4),
    lambda rng: reducible_chain(rng, [24, 24], 16),
], ids=["positive", "periodic", "reducible"])
def test_real_chain_n64_limit_is_inside_the_envelope(chain):
    for seed in SEEDS:
        p = chain(np.random.default_rng(seed))
        limit = cesaro_limit(p)
        assert not limit.imag.any()
        assert max(cesaro_residuals(p, limit).values()) <= DEFAULT_TOLERANCES.verify_tol


def test_generic_n64_projector_is_inside_the_envelope():
    for seed in SEEDS:
        a = generic(seed, 64)
        sp = analyze(a)
        z = eigenprojection_zero(a, sp)
        assert not z.any()
        assert max(eigenprojection_residuals(a, sp, z).values()) == 0.0


def test_generic_n64_drazin_is_inside_the_envelope():
    worst = 0.0
    for seed in SEEDS:
        a = generic(seed, 64)
        sp = analyze(a)
        worst = max(worst, *drazin_residuals(a, drazin_inverse(a, sp), sp.ind_a).values())
    assert worst <= DEFAULT_TOLERANCES.verify_tol


def test_generic_n48_is_outside_the_envelope():
    assert min(worst_residual(generic(seed, 48)) for seed in SEEDS) > DEFAULT_TOLERANCES.verify_tol


def test_cli_refuses_generic_n48_components(tmp_path, capsys):
    path = tmp_path / "generic48.json"
    path.write_text(json.dumps(document_payload(generic(0, 48))), encoding="utf-8")
    code = main(["components", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert "exceeds verify_tol" in captured.err
