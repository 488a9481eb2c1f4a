"""Matrix functions, Drazin inverse, stochastic limiting matrices."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from speccomp import (
    JordanSpec,
    PreconditionError,
    ScalarFunctionJet,
    SpectralError,
    ToleranceConfig,
    analyze,
    all_components,
    build_case,
    cesaro_limit,
    cesaro_residuals,
    components_by_nullspace,
    drazin_inverse,
    drazin_residuals,
    matrix_function,
    spectrum_from_data,
)
from speccomp.cli import main
from speccomp.documents import document_payload
from speccomp.linalg import _ratio, frob, solve
from speccomp.spectrum import replace_eigenvalue

from corpus import (
    cesaro_average,
    corpus,
    periodic_chain,
    random_stochastic,
    reducible_chain,
    rel_frob,
)

IDENTITY_JET = ScalarFunctionJet(lambda lam, j: lam if j == 0 else (1.0 if j == 1 else 0.0), 30)
EXP_JET = ScalarFunctionJet(lambda lam, j: np.exp(lam), 30)


def power_jet(m):
    def d(lam, j):
        if j > m:
            return 0.0
        return math.perm(m, j) * lam ** (m - j)

    return ScalarFunctionJet(d, 30)


class TestMatrixFunction:
    def test_identity_function_reconstructs(self):
        spec = JordanSpec([(1.0, [2]), (-2.0, [2, 1])], seed=5)
        a, _, sp = build_case(spec)
        cs = all_components(a, sp)
        assert rel_frob(matrix_function(cs, IDENTITY_JET), a) <= 1e-10

    def test_exp_of_nilpotent(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        cs = all_components(a, analyze(a))
        assert_allclose(matrix_function(cs, EXP_JET), np.eye(2) + a, atol=1e-14)

    def test_exp_of_diagonal(self):
        a = np.diag([0.0, 1.0])
        cs = all_components(a, analyze(a))
        assert_allclose(matrix_function(cs, EXP_JET), np.diag([1.0, np.e]), atol=1e-14)

    def test_monomials_match_powers(self):
        for spec in corpus(10, master_seed=404):
            a, _, sp = build_case(spec)
            cs = all_components(a, sp)
            for m in range(6):
                f_a = matrix_function(cs, power_jet(m))
                target = np.linalg.matrix_power(a, m)
                # absolute floor: for nilpotent cases the target itself is
                # numerically-zero noise
                deviation = np.linalg.norm(f_a - target) / max(1.0, np.linalg.norm(target))
                assert deviation <= 1e-6

    def test_missing_derivative_order_rejected(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        cs = all_components(a, analyze(a))
        shallow = ScalarFunctionJet(lambda lam, j: 1.0, 0)
        with pytest.raises(PreconditionError, match="order"):
            matrix_function(cs, shallow)

    def test_jet_refuses_an_order_past_its_last(self):
        with pytest.raises(PreconditionError, match="derivative order 1 requested, evaluator supports up to 0"):
            ScalarFunctionJet(lambda lam, j: lam, 0)(1.0, 1)


class TestDrazin:
    def test_nonsingular_gives_plain_inverse(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 4 * np.eye(4)
        a_d = drazin_inverse(a, analyze(a))
        assert rel_frob(a_d, solve(a, np.eye(4, dtype=complex))) <= 1e-8

    def test_nilpotent_gives_zero(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        a_d = drazin_inverse(a, analyze(a))
        assert np.max(np.abs(a_d)) <= 1e-12

    def test_diagonal_case(self):
        a = np.diag([0.0, 2.0])
        assert_allclose(drazin_inverse(a, analyze(a)), np.diag([0.0, 0.5]), atol=1e-14)

    @pytest.mark.parametrize("scale", [1e5, 1e120, 1e200])
    def test_singular_matrix_at_any_scale(self, scale):
        # A + Z mixes a unit projector into A at A's scale; A + cZ does not
        a = scale * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=complex)
        sp = analyze(a)
        a_d = drazin_inverse(a, sp)
        assert np.array_equal(a_d, np.diag([0.0, 0.0, 1 / scale]))
        assert max(drazin_residuals(a, a_d, sp.ind_a).values()) <= 1e-15

    def test_nonsingular_spectrum_costs_one_inverse_and_one_refinement_solve(self, monkeypatch):
        # the LU inverse certifies the rank and is the first solution: no SVD
        calls = []

        def counting(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        a = np.diag([1.0, 2.0, 3.0])
        sp = analyze(a)
        for name in ("svd", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        assert_allclose(drazin_inverse(a, sp), np.diag([1.0, 1 / 2, 1 / 3]), rtol=1e-15)
        assert calls == ["inv", "solve"]

    def test_lost_zero_eigenvalue_is_refused(self):
        from corpus import lost_zero_matrix

        a = lost_zero_matrix()
        with pytest.raises(SpectralError, match="numerically singular"):
            drazin_inverse(a, analyze(a))

    def test_axioms_on_constructed_cases(self):
        for spec in corpus(20, master_seed=1234):
            a, _, sp = build_case(spec)
            a_d = drazin_inverse(a, sp)
            worst = max(drazin_residuals(a, a_d, sp.ind_a).values())
            assert worst <= 1e-8


class TestResidualsAtAnyScale:
    """No residual raises or warns on finite operands, and in range each keeps
    the bits of its unsplit formula."""

    def test_huge_operands_read_finite_residuals(self):
        eye = np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drazin = drazin_residuals(eye, 1e200 * eye, 0)
            cesaro = cesaro_residuals(eye, 1e200 * eye)
        assert all(math.isfinite(v) for v in (*drazin.values(), *cesaro.values()))
        # |X Y X - X| / |X|^2 |Y| with X = 1e200 I: 1/2 for Y = I, 1/sqrt(2) for Y = None
        assert drazin["inner_inverse"] == pytest.approx(0.5, rel=1e-15)
        assert cesaro["idempotency"] == pytest.approx(2 ** -0.5, rel=1e-15)

    @pytest.mark.parametrize("x, y, want", [(1e-200, 1e-200, 2 ** 0.5 * 1e-200), (1e-300, 1e250, 2 ** 0.5 * 1e-300),
                                            (1e300, 1e-250, 0.5), (1e300, 1e300, 0.5),
                                            (1e200, None, 2 ** -0.5)])
    def test_split_operands_read_the_exact_ratio(self, x, y, want):
        # X = x I and Y = y I (I when None), n = 2: |X Y X - X| = sqrt(2) |x^2 y - x|
        # over max(1, |X|^2 |Y|), where |X|^2 = 2 x^2 and |Y| = sqrt(2) y (1 for I)
        eye = np.eye(2, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if y is None:  # the idempotency of X: a Cesaro limit's against P = I
                got = cesaro_residuals(eye, x * eye)["idempotency"]
            else:  # Drazin's inner inverse axiom with A = Y and A^D = X
                got = drazin_residuals(y * eye, x * eye, 0)["inner_inverse"]
        assert got == pytest.approx(want, rel=1e-15)

    def test_overflowing_products_read_the_exact_ratio(self):
        # P = L = A = A^D = 1e200 I, n = 2: ||P L - L|| / (||P|| ||L||) and
        # ||A^2 A^D - A|| / (||A^2|| ||A^D||) are each (1 - 1e-200) / sqrt(2)
        # and (1 - 1e-400) / sqrt(2): 2**-0.5 to working accuracy
        big = 1e200 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            absorption = cesaro_residuals(big, big)["absorption"]
            power = drazin_residuals(big, big, 1)["power_identity"]
        assert absorption == pytest.approx(2 ** -0.5, rel=1e-15)
        assert power == pytest.approx(2 ** -0.5, rel=1e-15)

    @pytest.mark.parametrize("t", [-600, -200, 200, 600])
    def test_exact_drazin_pair_at_any_scale_reads_rounding(self, t):
        # A = 2**t diag(0, 1, 2), A^D = 2**-t diag(0, 1, 1/2), index 1
        a, a_d = 2.0 ** t * np.diag([0.0, 1.0, 2.0]), 2.0 ** -t * np.diag([0.0, 1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = drazin_residuals(a, a_d, 1)
        assert max(residuals.values()) == 0.0

    def test_operand_whose_norm_overflows_is_split_by_its_largest_part(self):
        # ||B||_F overflows: |B - I| / (|I|^2 |B|) is 1/2 and |B - I| / (|B| |I|) is 2**-0.5
        # to working accuracy, as read on B split by its largest part
        b, eye = np.array([[1.7e308, 1.7e308], [0.0, 1e308]]), np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inner_inverse = drazin_residuals(b, eye, 0)["inner_inverse"]
            absorption = cesaro_residuals(b, eye)["absorption"]
        assert inner_inverse == pytest.approx(0.5, rel=1e-15)
        assert absorption == pytest.approx(2 ** -0.5, rel=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_floor_past_the_float_range_reads_inf(self, seed):
        # A^D = 0 of a nilpotent A = 2**700 N: the power identity's
        # denominator is 0, and its floored value ||A^3|| overflows
        a0, _, sp = build_case(JordanSpec(((0, (3,)),), seed=seed))
        a = 2.0 ** 700 * a0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = drazin_residuals(a, drazin_inverse(a, sp), 3)
        assert residuals == {"inner_inverse": 0.0, "commutation": 0.0, "power_identity": math.inf}

    def test_in_range_absorption_and_power_identity_keep_the_unsplit_bits(self):
        rng = np.random.default_rng(53)
        for t in range(-30, 31, 3):
            p = 2.0 ** t * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            limit = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            want = _ratio(frob(p @ limit - limit), frob(p) * frob(limit))
            assert cesaro_residuals(p, limit)["absorption"] == want
            for k in range(3):
                power = np.linalg.matrix_power(p, k)
                want = _ratio(frob(power @ p @ limit - power), frob(power @ p) * frob(limit))
                assert drazin_residuals(p, limit, k)["power_identity"] == want

    def test_in_range_operands_keep_the_unsplit_bits(self):
        rng = np.random.default_rng(49)
        for t in range(-30, 31, 3):
            x = 2.0 ** t * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            y = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            assert drazin_residuals(y, x, 0)["inner_inverse"] == _ratio(frob(x @ y @ x - x), frob(x) ** 2 * frob(y))
            assert cesaro_residuals(np.eye(5), x)["idempotency"] == _ratio(frob(x @ x - x), frob(x) ** 2)


class TestResidualOperands:
    """``drazin_residuals`` and ``cesaro_residuals`` validate their operands."""

    def test_drazin_operand_of_another_size_is_refused(self):
        with pytest.raises(PreconditionError, match="dimension mismatch: 3x3 and 2x2 operands"):
            drazin_residuals(np.eye(3), np.eye(2), 1)

    def test_cesaro_limit_of_another_size_is_refused(self):
        with pytest.raises(PreconditionError, match="dimension mismatch: 3x3 and 2x2 operands"):
            cesaro_residuals(np.eye(3), np.eye(2))

    @pytest.mark.parametrize("ind_a", [-1, 1.5, "1"])
    def test_index_that_is_not_a_nonnegative_integer_is_refused(self, ind_a):
        with pytest.raises(PreconditionError, match="ind_a must be a nonnegative integer"):
            drazin_residuals(np.eye(3), np.eye(3), ind_a)

    def test_numpy_integer_index_is_the_python_one(self):
        a = np.diag([0.0, 1.0, 2.0])
        assert drazin_residuals(a, a, np.int64(2)) == drazin_residuals(a, a, 2)


class TestCesaro:
    def test_identity_chain(self):
        assert_allclose(cesaro_limit(np.eye(3)), np.eye(3), atol=1e-12)

    def test_periodic_swap(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(cesaro_limit(p), np.full((2, 2), 0.5), atol=1e-12)

    def test_absorbing_chain_matches_power_iteration(self):
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        expected = np.linalg.matrix_power(p, 100)
        limit = cesaro_limit(p)
        assert_allclose(limit, expected, atol=1e-10)
        assert_allclose(limit, [[1.0, 0.0], [1.0, 0.0]], atol=1e-10)

    def test_matches_averaging_oracle(self):
        rng = np.random.default_rng(56)
        for _ in range(5):
            p = random_stochastic(rng)
            limit = cesaro_limit(p)
            avg = cesaro_average(p, 10_000)
            assert np.max(np.abs(limit - avg)) <= 1e-3

    def test_output_is_stochastic_projector(self):
        rng = np.random.default_rng(57)
        p = random_stochastic(rng)
        limit = cesaro_limit(p)
        res = cesaro_residuals(p, limit)
        assert res["row_sums"] <= 1e-8
        assert res["negativity"] <= 1e-7
        assert res["idempotency"] <= 1e-8
        assert res["commutation"] <= 1e-8
        assert res["absorption"] <= 1e-8

    def test_spectrum_without_1_is_refused_naming_its_nearest_eigenvalue(self):
        sp = spectrum_from_data([2.0, 0.0], [1, 1], [1, 1])
        with pytest.raises(PreconditionError, match=r"1\.0 is not an eigenvalue .*nearest is \(2\+0j\)"):
            cesaro_limit(np.eye(2), spectrum=sp)

    def test_rejects_non_stochastic(self):
        with pytest.raises(PreconditionError, match="stochastic"):
            cesaro_limit(np.array([[0.5, 0.2], [0.3, 0.7]]))
        with pytest.raises(PreconditionError, match="stochastic"):
            cesaro_limit(np.array([[1.5, -0.5], [0.0, 1.0]]))

    def test_given_spectrum_is_used_as_is(self, monkeypatch):
        import speccomp.applications

        rng = np.random.default_rng(3)
        p = rng.random((6, 6))
        p /= p.sum(axis=1, keepdims=True)
        sp = analyze(p)
        expected = cesaro_limit(p)

        def boom(*args, **kwargs):
            raise AssertionError("a given spectrum must not be computed again")

        monkeypatch.setattr(speccomp.applications, "analyze", boom)
        assert np.array_equal(cesaro_limit(p, spectrum=sp), expected)


def _projector_at_one(p, cfg=None):
    """Eigenvalue-1 projector of ``components_by_nullspace``.

    The spectrum comes from the worst-case policy (indices recorded as
    multiplicities), so it runs no index search; the cluster nearest 1 is
    relabeled as exactly 1, as ``cesaro_limit`` does.
    """
    sp = analyze(p, cfg, exponents="worst_case")
    values = np.asarray(sp.eigenvalues)
    sp = replace_eigenvalue(sp, int(np.abs(values - 1.0).argmin()) + 1, 1.0)
    return components_by_nullspace(p, sp, cfg).parts[(sp.position_of(1.0), 0)]


def _chain_with_close_simple_eigenvalues():
    """The n=48 reducible chain of round 1 of the chains benchmark at seed 401.

    Two of its simple eigenvalues, near -0.0397, are 2.9e-6 apart: the
    clustering keeps them apart, and a rank search gives each index 2.
    """
    rng = np.random.default_rng([401, 1])
    random_stochastic(rng, 16)  # the round's first two chains, drawn only to advance rng
    periodic_chain(rng, 33, 3)
    return reducible_chain(rng, [16, 12, 12], 8)


class TestCesaroCloseSimpleEigenvalues:
    def test_limit_is_returned_and_verified(self):
        p = _chain_with_close_simple_eigenvalues()
        values = np.sort_complex(np.linalg.eigvals(p))
        assert np.min(np.abs(np.diff(values))) < 1e-5
        cfg = ToleranceConfig()
        limit = cesaro_limit(p, cfg)
        assert max(cesaro_residuals(p, limit).values()) <= cfg.verify_tol
        assert np.max(np.abs(limit - _projector_at_one(p, cfg))) <= 1e-8

    def test_cli_exits_0(self, tmp_path, capsys):
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps(document_payload(_chain_with_close_simple_eigenvalues())),
                       encoding="utf-8")
        assert main(["cesaro", "--input", str(doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert max(report["residuals"].values()) <= report["tolerances"]["verify_tol"]


def _sparse_chain(seed):
    """A random sparse chain: 3 to 12 states, each entry nonzero with a
    probability drawn from 0.1-0.5 and weighted 1-3, a zero row given one
    random entry, rows normalised."""
    rng = np.random.default_rng(seed)
    n = rng.integers(3, 13)
    p = rng.uniform(0.1, 0.5)
    m = (rng.random((n, n)) < p) * rng.integers(1, 4, (n, n))
    for i in range(n):
        if not m[i].any():
            m[i, rng.integers(n)] = 1
    return m / m.sum(axis=1, keepdims=True)


def _limit_by_svd(p):
    """Eigenvalue-1 projector of a chain from the SVD null spaces of P - I,
    with no eigenvalue clustering: eigenvalue 1 of a chain has index 1."""
    u, sv, vh = np.linalg.svd(p - np.eye(len(p)))
    k = int(np.sum(sv <= 1e-8 * sv[0]))
    right, left = vh[-k:].conj().T, u[:, -k:].conj().T
    return right @ np.linalg.solve(left @ right, left)


@pytest.mark.parametrize("seed", [1465, 1954, 2483, 2639])
def test_cesaro_links_a_scattered_defective_eigenvalue(seed):
    # a repeated eigenvalue (0 or -0.5) whose computed values lie between
    # one and two clustering radii apart: linkage at twice the radius keeps
    # it one eigenvalue
    p = _sparse_chain(seed)
    cfg = ToleranceConfig()
    limit = cesaro_limit(p, cfg)
    assert max(cesaro_residuals(p, limit).values()) <= cfg.verify_tol
    assert np.max(np.abs(limit - _limit_by_svd(p))) <= 1e-12


@st.composite
def stochastic_chains(draw):
    """Positive, periodic or reducible row-stochastic chains with 3 to 12 states."""
    kind = draw(st.sampled_from(["positive", "periodic", "reducible"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "positive":
        return random_stochastic(rng, draw(st.integers(3, 12)))
    if kind == "periodic":
        period = draw(st.integers(2, 4))
        size = draw(st.integers(-(-3 // period), 12 // period))
        return periodic_chain(rng, period * size, period)
    closed = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    transient = draw(st.integers(max(1, 3 - sum(closed)), 12 - sum(closed)))
    return reducible_chain(rng, closed, transient)


@settings(max_examples=60, deadline=None)
@given(stochastic_chains())
def test_cesaro_limit_is_right_or_a_typed_error(p):
    try:
        limit = cesaro_limit(p)
    except SpectralError:
        return
    assert np.max(np.abs(limit - _projector_at_one(p))) <= 1e-8
