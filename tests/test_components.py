"""The product-formula engine: eigenprojections and components."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from speccomp import (
    ComponentSet,
    ConditioningError,
    JordanSpec,
    PreconditionError,
    ToleranceConfig,
    all_components,
    analyze,
    build_case,
    component,
    components_by_nullspace,
    eigenprojection_zero,
    frob,
    lagrange_projector,
    spectrum_from_data,
)

from corpus import corpus, random_diagonalizable, rel_frob

JORDAN_225 = np.array([[2, 1, 0], [0, 2, 0], [0, 0, 5]], dtype=complex)


class TestEigenprojectionZero:
    def test_zero_matrix_gives_identity(self):
        a = np.zeros((2, 2), dtype=complex)
        z = eigenprojection_zero(a, analyze(a))
        assert_allclose(z, np.eye(2))

    def test_diag_case(self):
        a = np.diag([0.0, 2.0])
        z = eigenprojection_zero(a, analyze(a))
        assert_allclose(z, np.diag([1.0, 0.0]))

    def test_nilpotent_gives_identity_exactly(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        z = eigenprojection_zero(a, analyze(a))
        assert np.array_equal(z, np.eye(2))  # empty product, bit-exact

    def test_nonsingular_gives_zero(self):
        a = np.diag([1.0, 2.0])
        z = eigenprojection_zero(a, analyze(a))
        assert frob(z) <= 1e-12

    def test_matches_oracle_on_constructed_case(self):
        spec = JordanSpec([(0.0, [2]), (3.0, [1])], seed=11)
        a, truth, sp = build_case(spec)
        z = eigenprojection_zero(a, sp)
        assert rel_frob(z, truth.projector(sp.position_of(0.0))) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        sp = spectrum_from_data([1.0], [2], [1])
        with pytest.raises(PreconditionError):
            eigenprojection_zero(np.eye(3), sp)

    def test_rank_complement_identity(self):
        # rank Z = n - rank A^indA, checked where both sides have honest
        # nonzero scales (0 an eigenvalue but A not nilpotent)
        from speccomp.linalg import mat_pow, rank_numeric

        spec = JordanSpec([(0.0, [2, 1]), (-2.0, [2])], seed=3)
        a, _, sp = build_case(spec)
        z = eigenprojection_zero(a, sp)
        assert rank_numeric(z) == a.shape[0] - rank_numeric(mat_pow(a, sp.ind_a))

    def test_projection_identities(self):
        from speccomp import eigenprojection_residuals

        spec = JordanSpec([(0.0, [3]), (2.0, [2]), (-1.0, [1])], seed=77)
        a, _, sp = build_case(spec)
        z = eigenprojection_zero(a, sp)
        residuals = eigenprojection_residuals(a, sp, z)
        assert set(residuals) == {"idempotency", "commutation", "annihilation"}
        assert max(residuals.values()) <= 1e-10


class TestComponent:
    def test_identity_matrix_single_eigenvalue(self):
        a = np.eye(2, dtype=complex)
        sp = analyze(a)
        assert_allclose(component(a, sp, 1, 0), np.eye(2))

    def test_two_by_two_projector(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        sp = analyze(a)
        k = sp.position_of(2.0)
        assert_allclose(component(a, sp, k, 0), [[1.0, -1.0], [0.0, 0.0]], atol=1e-14)

    def test_jordan_block_ladder_entry(self):
        sp = analyze(JORDAN_225)
        k = sp.position_of(2.0)
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        assert_allclose(component(JORDAN_225, sp, k, 1), expected, atol=1e-14)

    def test_simple_eigenvalue_projector(self):
        sp = analyze(JORDAN_225)
        k = sp.position_of(5.0)
        assert_allclose(component(JORDAN_225, sp, k, 0), np.diag([0.0, 0.0, 1.0]), atol=1e-14)

    def test_out_of_range_rejected(self):
        sp = analyze(JORDAN_225)
        with pytest.raises(PreconditionError):
            component(JORDAN_225, sp, 0, 0)
        with pytest.raises(PreconditionError):
            component(JORDAN_225, sp, 3, 0)
        k = sp.position_of(2.0)
        with pytest.raises(PreconditionError):
            component(JORDAN_225, sp, k, 2)

    def test_zero_eigenvalue_component_matches_projection(self):
        spec = JordanSpec([(0.0, [2]), (1.0, [1]), (-2.0, [1])], seed=21)
        a, _, sp = build_case(spec)
        k = sp.position_of(0.0)
        assert rel_frob(component(a, sp, k, 0), eigenprojection_zero(a, sp)) <= 1e-10


class TestAllComponents:
    def test_diagonal(self):
        a = np.diag([1.0, 2.0])
        sp = analyze(a)
        cs = all_components(a, sp)
        assert cs.keys() == [(1, 0), (2, 0)]
        assert_allclose(cs.part(sp.position_of(1.0), 0), np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(cs.part(sp.position_of(2.0), 0), np.diag([0.0, 1.0]), atol=1e-14)

    def test_nilpotent(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        cs = all_components(a, analyze(a))
        assert_allclose(cs.part(1, 0), np.eye(2))
        assert_allclose(cs.part(1, 1), a)

    def test_matches_oracle_truth(self):
        spec = JordanSpec([(1.0, [2, 1]), (-2.0, [3])], seed=42)
        a, truth, sp = build_case(spec)
        cs = all_components(a, sp)
        assert cs.keys() == truth.keys()
        for key in truth.keys():
            assert rel_frob(cs.parts[key], truth.parts[key]) <= 1e-8

    def test_part_count_is_index_sum(self):
        spec = JordanSpec([(2.0, [3, 2]), (0.0, [1]), (-1.0, [2])], seed=9)
        a, _, sp = build_case(spec)
        cs = all_components(a, sp)
        assert len(cs.parts) == sum(sp.indices)
        for z in cs.parts.values():
            assert z.shape == a.shape

    def test_missing_part_rejected(self):
        a = np.diag([1.0, 2.0])
        cs = all_components(a, analyze(a))
        with pytest.raises(PreconditionError):
            cs.part(1, 1)


class TestLagrange:
    def test_diagonal(self):
        a = np.diag([1.0, 2.0])
        sp = analyze(a)
        assert_allclose(lagrange_projector(a, sp, sp.position_of(1.0)), np.diag([1.0, 0.0]))

    def test_symmetric_involution(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        sp = analyze(a)
        k = sp.position_of(1.0, tol=1e-12)
        assert_allclose(lagrange_projector(a, sp, k), np.full((2, 2), 0.5), atol=1e-12)

    def test_agrees_with_component_on_random_normal(self):
        rng = np.random.default_rng(31)
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q, _ = np.linalg.qr(g)
        a = q @ np.diag([3.0, 1.5, -1.0, 2j, -2.5j]) @ q.conj().T
        sp = analyze(a)
        for k in range(1, sp.s + 1):
            assert rel_frob(lagrange_projector(a, sp, k), component(a, sp, k, 0)) <= 1e-8

    def test_rejects_defective_spectrum(self):
        sp = analyze(JORDAN_225)
        with pytest.raises(PreconditionError, match="index"):
            lagrange_projector(JORDAN_225, sp, 1)


class TestConditioningGuard:
    def test_extreme_ratio_aborts_under_worst_case(self):
        cfg = ToleranceConfig(eig_cluster_radius=1e-16)
        a = np.diag([1e-7, 1e7])
        sp = analyze(a, cfg, exponents="worst_case")
        with pytest.raises(ConditioningError, match="minimal"):
            eigenprojection_zero(a, sp, cfg)

    def test_minimal_policy_survives_same_matrix(self):
        cfg = ToleranceConfig(eig_cluster_radius=1e-16)
        a = np.diag([1e-7, 1e7])
        sp = analyze(a, cfg, exponents="minimal")
        z = eigenprojection_zero(a, sp, cfg)
        assert np.all(np.isfinite(z))

    def test_large_inner_power_with_exact_factor_is_kept(self):
        # (A/lam)^2 has norm 2e21, past the guard, but the factor
        # (I - (A/lam)^2)^2 it enters is exactly 0; only factors are guarded
        from speccomp import eigenprojection_residuals

        cfg = ToleranceConfig(eig_cluster_radius=1e-20)
        a = np.array([[1e-10, 1e11], [0, 1e-10]], dtype=complex)
        sp = spectrum_from_data([1e-10], [2], [2], cfg=cfg)
        z = eigenprojection_zero(a, sp, cfg)
        assert np.all(z == 0)
        assert set(eigenprojection_residuals(a, sp, z).values()) == {0.0}


class TestHighOrders:
    @pytest.mark.parametrize("shift", [0.0, 2.0])
    def test_jordan_block_of_index_24(self, shift):
        # order j = 23 needs 23!, which float64 holds to within one ulp
        n = 24
        nilpotent = np.eye(n, k=1, dtype=complex)
        a = shift * np.eye(n) + nilpotent
        cs = all_components(a, spectrum_from_data([shift], [n], [n]))
        assert max(cs.residuals().values()) <= 1e-15
        for j in range(n):
            expected = np.eye(n, k=j) / math.factorial(j)
            assert_allclose(cs.part(1, j), expected, rtol=1e-15, atol=0)


@pytest.fixture(scope="module")
def cases():
    out = []
    for spec in corpus(30, master_seed=24601):
        a, truth, sp = build_case(spec)
        out.append((a, sp, all_components(a, sp)))
    return out


class TestInvariants:
    """Algebraic identities of the component family on constructed cases."""

    def test_residual_suite(self, cases):
        for a, sp, cs in cases:
            residuals = cs.residuals()
            worst = max(residuals.values())
            assert worst <= 1e-8, f"invariant residuals {residuals} for spectrum {sp}"

    def test_exponent_slack_invariance(self, cases):
        # larger-than-minimal powers must not change any component
        for a, sp, cs in cases:
            if max(abs(v) for v in sp.eigenvalues) > 3:
                continue
            wc = sp.with_exponents("worst_case")
            cs_wc = all_components(a, wc)
            for key in cs.keys():
                assert rel_frob(cs_wc.parts[key], cs.parts[key]) <= 1e-6

    def test_shift_consistency(self, cases):
        # projector at an eigenvalue == projector at zero of the shifted matrix
        for a, sp, cs in cases:
            eye = np.eye(a.shape[0])
            for k in range(1, sp.s + 1):
                shifted = a - sp.eigenvalues[k - 1] * eye
                z = eigenprojection_zero(shifted, sp.shifted(k))
                assert rel_frob(cs.part(k, 0), z) <= 1e-8

    def test_pair_residuals_match_their_definition(self, cases):
        # the residuals norm each projector once; the values keep their bits
        for a, sp, cs in cases:
            proj = [cs.projector(k) for k in range(1, sp.s + 1)]
            eye = np.eye(a.shape[0])
            resolution = frob(sum(proj) - eye) / max(1.0, max(frob(z) for z in proj))
            orth = max(
                (
                    frob(zk @ zl) / max(1.0, frob(zk) * frob(zl))
                    for k, zk in enumerate(proj)
                    for l, zl in enumerate(proj)
                    if k != l
                ),
                default=0.0,
            )
            residuals = cs.residuals()
            assert residuals["resolution_of_identity"] == resolution
            assert residuals["orthogonality"] == orth

    def test_agreement_with_nullspace_oracle(self, cases):
        for a, sp, cs in cases:
            ns = components_by_nullspace(a, sp)
            for key in cs.keys():
                assert rel_frob(cs.parts[key], ns.parts[key]) <= 1e-8

    def test_lagrange_reduction_on_diagonalizable(self):
        rng = np.random.default_rng(314)
        for _ in range(10):
            a = random_diagonalizable(rng)
            sp = analyze(a)
            if any(nu != 1 for nu in sp.indices):
                continue
            for k in range(1, sp.s + 1):
                assert rel_frob(lagrange_projector(a, sp, k), component(a, sp, k, 0)) <= 1e-8


class TestOneKernel:
    """The eigenprojection at 0, component and all_components share one product."""

    def test_component_is_the_same_part_as_all_components(self, cases):
        for a, sp, cs in cases:
            for k, j in cs.keys():
                assert np.array_equal(component(a, sp, k, j), cs.part(k, j)), (k, j, sp)

    def test_projection_at_zero_is_the_zero_component(self, cases):
        seen = 0
        for a, sp, _ in cases:
            if sp.zero_position is None:
                continue
            seen += 1
            z = component(a, sp, sp.zero_position + 1, 0)
            assert np.array_equal(eigenprojection_zero(a, sp), z)
        assert seen

    def test_overflowing_quotient_is_a_conditioning_error(self):
        # 1e300 / 1e-10 overflows: finite input, extreme eigenvalue ratio
        cfg = ToleranceConfig(eig_cluster_radius=1e-320)
        a = np.diag([1e300, 1e-10])
        with np.errstate(over="ignore"):
            sp = analyze(a, cfg)
            assert sp.eigenvalues == (1e300 + 0j, 1e-10 + 0j)
            with pytest.raises(ConditioningError, match="quotient"):
                eigenprojection_zero(a, sp, cfg)

    def test_nan_residual_is_reported(self):
        # a NaN after a finite term must not be folded away
        a = np.diag([1.0, 2.0])
        sp = analyze(a)
        parts = dict(all_components(a, sp).parts)
        parts[(2, 0)] = np.full((2, 2), np.nan, dtype=complex)
        residuals = ComponentSet(source=a, spectrum=sp, parts=parts).residuals()
        assert np.isnan(residuals["idempotency"])
        assert np.isnan(residuals["commutation"])
