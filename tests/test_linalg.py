"""Matrix-core primitives: validation, rank, solve, norm."""

import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from speccomp import (
    ConditioningError,
    PreconditionError,
    SingularMatrixError,
    ToleranceConfig,
    as_matrix,
    frob,
)
from speccomp.linalg import _full_rank, _ratio, identity, rank_numeric, solve


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(PreconditionError):
            as_matrix([[np.nan, 0], [0, 1]])
        with pytest.raises(PreconditionError):
            as_matrix([[np.inf, 0], [0, 1]])

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            as_matrix(np.zeros((0, 0)))

    def test_tolerances_must_be_positive(self):
        with pytest.raises(PreconditionError):
            ToleranceConfig(eig_cluster_radius=0.0)
        with pytest.raises(PreconditionError):
            ToleranceConfig(verify_tol=-1e-8)


class TestRank:
    def test_zero_matrix(self):
        assert rank_numeric(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert rank_numeric(identity(4)) == 4

    def test_proportional_rows(self):
        assert rank_numeric(np.array([[1, 2], [2, 4]], dtype=complex)) == 1

    def test_real_matrix_has_the_rank_of_its_complex_multiple(self):
        rng = np.random.default_rng(29)
        for r in range(1, 6):
            a = rng.normal(size=(5, r)) @ rng.normal(size=(r, 5))
            assert rank_numeric(a) == rank_numeric(1j * a) == r

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n + 1))
            a = (rng.normal(size=(n, r)) @ rng.normal(size=(r, n))).astype(complex)
            perm = np.eye(n)[rng.permutation(n)].astype(complex)
            assert rank_numeric(perm @ a) == rank_numeric(a)
            assert rank_numeric(a @ perm) == rank_numeric(a)


class TestSolve:
    def test_identity_system(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(3, 3)).astype(complex)
        assert_allclose(solve(identity(3), b), b)

    def test_right_hand_side_of_another_size_is_refused(self):
        with pytest.raises(PreconditionError, match="dimension mismatch: 2x2 system, 3x3 right-hand side"):
            solve(identity(2), identity(3))

    def test_diagonal_system(self):
        assert_allclose(solve(np.diag([2.0, 4.0]), identity(2)), np.diag([0.5, 0.25]))

    def test_self_solve_residual(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        x = solve(a, a)
        assert frob(x - identity(5)) <= 1e-8
        assert frob(a @ x - a) <= 1e-8 * frob(a)

    def test_product_with_inverse_is_identity(self):
        # inverse from the solve routine; residual must stay below verify_tol
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 4 * identity(4)
        inv = solve(a, identity(4))
        assert frob(a @ inv - identity(4)) <= 1e-8 * frob(identity(4))

    def test_singular_matrix_reports_pivot(self):
        singular = np.array([[1, 2], [2, 4]], dtype=complex)
        with pytest.raises(SingularMatrixError) as excinfo:
            solve(singular, identity(2))
        assert excinfo.value.pivot is not None
        assert excinfo.value.pivot < 1e-10

    def test_singularity_follows_the_rank_rule(self):
        # every LU pivot of this one is 1, yet its smallest singular value
        # is about 1e-13 of the largest
        unit_pivots = identity(40) - np.triu(np.ones((40, 40)), 1)
        for a in (unit_pivots, np.array([[1, 2], [2, 4]], dtype=complex)):
            assert rank_numeric(a) < a.shape[0]
            with pytest.raises(SingularMatrixError) as excinfo:
                solve(a, identity(a.shape[0]))
            assert excinfo.value.pivot == np.linalg.svd(a, compute_uv=False)[-1]


class TestRankCertificate:
    """Full numerical rank is certified by the LU inverse's norm bound,
    ``1 / (||A^-1||_F ||A||_F) <= s_min / s_max``, at twice the threshold;
    the SVD decides wherever the bound does not, with the same pivot."""

    @pytest.mark.parametrize("n", [1, 2, 8, 33, 64])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_inverse_is_the_solve_of_the_identity_bit_for_bit(self, n, dtype):
        # a nonsingular Drazin inverse takes the certificate's inverse as the
        # first solution of A X = I
        rng = np.random.default_rng(n)
        for _ in range(3):
            a = rng.normal(size=(n, n))
            if dtype is complex:
                a = a + 1j * rng.normal(size=(n, n))
            assert np.linalg.inv(a).tobytes() == np.linalg.solve(a, np.eye(n, dtype=dtype)).tobytes()

    @staticmethod
    def _matrices(n, ratio):
        """``U diag(sigma) V*`` and the graded diagonal ``diag(sigma)``, with
        sigma geometric from 1 down to ``ratio``."""
        rng = np.random.default_rng(n)
        sigma = np.geomspace(1.0, ratio, n)
        u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return (u * sigma) @ v.conj().T, np.diag(sigma).astype(complex)

    @pytest.mark.parametrize("cfg", [ToleranceConfig(), ToleranceConfig(eig_cluster_radius=1e-12)])
    @pytest.mark.parametrize("n", [2, 8, 33])
    def test_certificate_and_svd_reach_the_same_decision(self, cfg, n):
        # at s_min / s_max = tau * {1/4, 1/2, 1, 2, 4, n, 2n}, for the
        # threshold of a solve and that of the projector at 0
        from speccomp import Spectrum, eigenprojection_zero

        nonzero = Spectrum([1.0], [n], [1], [1])
        decided = set()
        for tau in (cfg.rank_rel_threshold, min(cfg.rank_rel_threshold, cfg.eig_cluster_radius)):
            for factor in (0.25, 0.5, 1, 2, 4, n, 2 * n):
                for a in self._matrices(n, factor * tau):
                    sv = np.linalg.svd(a, compute_uv=False)
                    full = bool(sv[-1] > tau * sv[0])
                    decided.add(full)
                    with nullcontext() if full else pytest.raises(SingularMatrixError):
                        _full_rank(a, tau, lambda sv: SingularMatrixError("refused", pivot=float(sv[-1])))
                    singular = not sv[-1] > cfg.rank_rel_threshold * sv[0]
                    with pytest.raises(SingularMatrixError) if singular else nullcontext():
                        solve(a, identity(n), cfg)
                    lost = not sv[-1] > min(cfg.rank_rel_threshold, cfg.eig_cluster_radius) * sv[0]
                    with pytest.raises(ConditioningError) if lost else nullcontext():
                        eigenprojection_zero(a, nonzero, cfg)
        assert decided == {True, False}  # both sides of the thresholds were reached

    def test_exactly_singular_matrix_reports_the_svd_pivot(self):
        from speccomp import Spectrum, eigenprojection_zero

        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(a)
        pivot = np.linalg.svd(a.astype(complex), compute_uv=False)[-1]
        with pytest.raises(SingularMatrixError) as excinfo:
            solve(a, identity(2))
        assert excinfo.value.pivot == pivot
        assert f"smallest singular value {pivot:.3e}" in str(excinfo.value)
        with pytest.raises(ConditioningError) as excinfo:
            eigenprojection_zero(a, Spectrum([1.0, 2.0], [1, 1], [1, 1], [1, 1]))
        assert f"smallest singular value {pivot:.3e}" in str(excinfo.value)


class TestFrob:
    def test_ordinary_input_is_numpy_norm(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert frob(a) == float(np.linalg.norm(a, "fro"))

    def test_same_bits_as_numpy_norm(self):
        # real and complex, C and Fortran order, n = 1..64, scales 1e-100..1e100
        rng = np.random.default_rng(2000)
        for t in range(2000):
            n = int(rng.integers(1, 65))
            a = 10.0 ** rng.uniform(-100, 100) * rng.normal(size=(n, n))
            if t % 2:
                a = a + 1j * 10.0 ** rng.uniform(-100, 100) * rng.normal(size=(n, n))
            if t % 3 == 0:
                a = np.asfortranarray(a)
            assert frob(a) == float(np.linalg.norm(a, "fro")), (t, n)

    def test_huge_finite_entries_do_not_overflow(self):
        with np.errstate(over="ignore"):
            assert frob(1e200 * np.ones((2, 2))) == pytest.approx(2e200, rel=1e-15)
            assert frob([[1e300, 0.0], [0.0, 1e300]]) == pytest.approx(np.sqrt(2) * 1e300, rel=1e-15)

    def test_huge_finite_entries_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = frob(1e200 * np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert norm == pytest.approx(np.sqrt(3) * 1e200, rel=1e-15)

    def test_tiny_entries_do_not_underflow(self):
        assert frob(1e-200 * np.eye(3)) == pytest.approx(np.sqrt(3) * 1e-200, rel=1e-15, abs=0)
        # sqrt(1e-320 + 1e-340) is 1e-160 (1 + 5e-21), which rounds to 1e-160
        assert frob(np.diag([1e-160, 1e-170])) == pytest.approx(1e-160, rel=1e-15, abs=0)
        assert frob(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_infinite_entries_stay_infinite(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert frob(np.array([[np.inf, 1.0], [0.0, 1.0]])) == np.inf


nonnegative = st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 1.7e308]),
                        st.floats(0.0, allow_nan=False, allow_infinity=False))


class TestResidualFloor:
    """Every residual reader divides by ``max(1, den)`` through ``_ratio``."""

    @settings(max_examples=500, deadline=None)
    @given(nonnegative, nonnegative)
    def test_finite_denominator_is_the_inline_floor_bit_for_bit(self, num, den):
        assert _ratio(num, den).hex() == (num / max(1.0, den)).hex()

    @settings(max_examples=100, deadline=None)
    @given(nonnegative)
    def test_overflowed_denominator_reads_the_numerator(self, num):
        den = 1e200 * 1e200
        assert num / max(1.0, den) == 0.0  # what the inline floor made of it
        assert _ratio(num, den) == num

    @pytest.mark.parametrize("num, e", [(1.0, 1024), (1.5, 1024), (1e300, 100)])
    def test_floored_value_past_the_float_range_reads_inf(self, num, e):
        # the floor branch returns num * 2**e, which saturates instead of raising
        assert _ratio(num, 0.0, e) == np.inf
        assert _ratio(num, 5e-324, e) == np.inf
