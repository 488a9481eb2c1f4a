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
    eigenprojection_residuals,
    eigenprojection_zero,
    frob,
    lagrange_projector,
    spectrum_from_data,
)

from speccomp.linalg import _ratio

from corpus import (corpus, lost_zero_matrix, periodic_chain, random_diagonalizable, reducible_chain,
                    rel_frob)

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
        # u = ind A = 0 makes every factor I - (A/lam_i)^0 exactly 0
        rng = np.random.default_rng(5)
        for a in (np.diag([1.0, 2.0]), rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))):
            sp = analyze(a)
            assert sp.u == 0
            assert np.array_equal(eigenprojection_zero(a, sp), np.zeros(a.shape))

    def test_lost_zero_eigenvalue_is_refused(self):
        # the defective 0 of S J S^-1 scatters to +-(4.5e-9 - 3.7e-8j), past the
        # radius 2e-8, so the spectrum reads nonsingular; Z = 0 would be wrong
        a = lost_zero_matrix()
        sp = analyze(a)
        assert sp.zero_position is None
        with pytest.raises(ConditioningError, match="no zero eigenvalue.*numerically singular"):
            eigenprojection_zero(a, sp)

    def test_all_components_refuses_a_lost_zero(self):
        # without the refusal its two "projectors" at the scattered zero have norm 5e7
        a = lost_zero_matrix()
        with pytest.raises(ConditioningError, match="no zero eigenvalue.*numerically singular"):
            all_components(a, analyze(a))

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
        from speccomp.linalg import rank_numeric

        spec = JordanSpec([(0.0, [2, 1]), (-2.0, [2])], seed=3)
        a, _, sp = build_case(spec)
        z = eigenprojection_zero(a, sp)
        assert rank_numeric(z) == a.shape[0] - rank_numeric(np.linalg.matrix_power(a, sp.ind_a))

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
        # the double eigenvalue 1e-7 gets exponent 2: the factor
        # (A - 1e-7 I)^2 / (0 - 1e-7)^2 of the projector at 0 has norm 1e28
        cfg = ToleranceConfig(eig_cluster_radius=1e-16)
        a = np.diag([0.0, 1e-7, 1e-7, 1e7])
        sp = analyze(a, cfg, exponents="worst_case")
        with pytest.raises(ConditioningError, match="1.000e\\+28.*minimal"):
            eigenprojection_zero(a, sp, cfg)

    def test_minimal_policy_survives_same_matrix(self):
        cfg = ToleranceConfig(eig_cluster_radius=1e-16)
        a = np.diag([0.0, 1e-7, 1e-7, 1e7])
        sp = analyze(a, cfg, exponents="minimal")
        z = eigenprojection_zero(a, sp, cfg)
        assert_allclose(z, np.diag([1.0, 0.0, 0.0, 0.0]), rtol=0, atol=1e-15)

    def test_large_inner_power_with_exact_factor_is_kept(self):
        # the projector at 0 has exponent 2; its factor for 1e-10 is
        # (I - (A/1e-10)^2)^2, whose inner power has norm 2e21, past the
        # guard, but the factor is exactly diag(1, 1, 0, 0); only factors
        # are guarded
        from speccomp import eigenprojection_residuals

        cfg = ToleranceConfig(eig_cluster_radius=1e-20)
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = 1.0
        a[2, 2] = a[3, 3] = 1e-10
        a[2, 3] = 1e11
        sp = spectrum_from_data([0.0, 1e-10], [2, 2], [2, 2], cfg=cfg)
        assert sp.exponents == (2, 2)
        z = eigenprojection_zero(a, sp, cfg)
        assert np.array_equal(z, np.diag([1.0, 1.0, 0.0, 0.0]))
        assert set(eigenprojection_residuals(a, sp, z).values()) == {0.0}


@pytest.fixture
def guard_calls(monkeypatch):
    """What each ``components._guard`` call names, in call order."""
    import speccomp.components as components

    calls = []
    guard = components._guard

    def counting(m, cfg, what):
        calls.append(what)
        return guard(m, cfg, what)

    monkeypatch.setattr(components, "_guard", counting)
    return calls


class TestGuardRule:
    """Each projector guards its largest factor norm, read from scalars, and
    its finished product of two or more factors, once each."""

    def test_all_components_guards_2s_norms(self, guard_calls):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        sp = analyze(a)
        s = sp.s
        assert s == 16
        all_components(a, sp)
        assert guard_calls == ["product factor", "product of factors"] * s

    def test_real_matrix_with_pairs_guards_2s_norms(self, guard_calls):
        a = _real_matrices()[0]
        sp = analyze(a)
        all_components(a, sp)
        assert guard_calls == ["product factor", "product of factors"] * sp.s

    def test_nonsingular_projection_at_zero_guards_nothing(self, guard_calls):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        eigenprojection_zero(a, analyze(a))
        assert guard_calls == []

    def test_position_of_exponent_2_guards_each_factor(self, guard_calls):
        a = np.diag([0.0, 0.0, 2.0, 3.0, 4.0])
        eigenprojection_zero(a, analyze(a, exponents="worst_case"))
        assert guard_calls == ["product factor"] * 3 + ["product of factors"]

    def test_single_factor_is_not_guarded_again(self, guard_calls):
        a = np.diag([0.0, 2.0])
        eigenprojection_zero(a, analyze(a))
        assert guard_calls == ["product factor"]


def _generic(n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestSharedSweep:
    """Every exponent-1 projector comes from one prefix and one suffix pass."""

    def test_all_components_makes_about_3s_products(self, monkeypatch):
        import speccomp.components as components

        products = []
        times = components._times

        def counting(x, y):
            products.append(x is not None and y is not None)
            return times(x, y)

        monkeypatch.setattr(components, "_times", counting)
        a = _generic(16)
        sp = analyze(a)
        assert sp.s == 16
        all_components(a, sp)
        assert sum(products) <= 3 * sp.s

    def test_real_pairs_make_at_most_3s_products(self, monkeypatch):
        import speccomp.components as components

        products = []
        times = components._times

        def counting(x, y):
            products.append(x is not None and y is not None)
            return times(x, y)

        monkeypatch.setattr(components, "_times", counting)
        for a in _real_matrices():
            products.clear()
            sp = analyze(a)
            all_components(a, sp)
            assert sum(products) <= 3 * sp.s

    def test_all_components_holds_about_s_matrices(self):
        import tracemalloc

        a = _generic(64)
        sp = analyze(a)
        all_components(a, sp)  # warm-up: first-call allocations are not counted
        tracemalloc.start()
        try:
            cs = all_components(a, sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cs.parts) == sp.s == 64
        # the s results plus a handful of working matrices, not s suffixes
        # and s factors besides
        assert peak <= (sp.s + 16) * a.nbytes


class TestAnnihilationPastOverflow:
    A = 1e200 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=complex)

    def test_exact_projector_has_zero_residuals(self):
        from speccomp import eigenprojection_residuals

        sp = analyze(self.A)
        z = eigenprojection_zero(self.A, sp)
        assert np.array_equal(z, np.diag([1.0, 1.0, 0.0]))
        assert set(eigenprojection_residuals(self.A, sp, z).values()) == {0.0}
        assert set(all_components(self.A, sp).residuals().values()) == {0.0}

    def test_wrong_projector_is_still_caught(self):
        # A^2 Z != 0 for Z = I: the residual read on the unit-norm power
        # of A / ||A|| is of order 1, not 0 or NaN
        from speccomp import eigenprojection_residuals

        sp = analyze(self.A)
        residual = eigenprojection_residuals(self.A, sp, np.eye(3, dtype=complex))["annihilation"]
        assert 0.1 < residual <= 1.0

    # A nilpotent block of entries 1e300 beside the eigenvalue 1e150, ind A = 3:
    # A^3 overflows on the way, and (A / ||A||)^3 taken at once would flush the
    # 1e150 direction, the only one A^3 keeps, to zero.
    B = np.zeros((4, 4), dtype=complex)
    B[0, 1] = B[1, 2] = 1e300
    B[3, 3] = 1e150

    def test_direction_kept_past_an_annihilated_one_is_not_lost(self):
        from speccomp import eigenprojection_residuals

        sp = analyze(self.B)
        assert sp.ind_a == 3
        for scale in (1.0, 0.5):
            # the ratio is taken on both operands, so it does not depend on ||Z||
            residual = eigenprojection_residuals(self.B, sp, scale * np.eye(4, dtype=complex))["annihilation"]
            assert residual == 0.5
        z = eigenprojection_zero(self.B, sp)
        assert np.array_equal(z, np.diag([1.0, 1.0, 1.0, 0.0]))
        assert eigenprojection_residuals(self.B, sp, z)["annihilation"] == 0.0

    def test_exactly_annihilating_power_reads_zero(self):
        from speccomp import eigenprojection_residuals

        a = self.B[:3, :3]
        sp = analyze(a)
        assert eigenprojection_residuals(a, sp, np.eye(3, dtype=complex))["annihilation"] == 0.0

    def test_power_that_loses_range_is_a_conditioning_failure(self):
        # ind A = 4: the 1e10 direction falls below the smallest double,
        # relative to the nilpotent part, before A^4 annihilates that part
        from speccomp import eigenprojection_residuals

        a = np.zeros((5, 5), dtype=complex)
        a[0, 1] = a[1, 2] = a[2, 3] = 1e300
        a[4, 4] = 1e10
        sp = spectrum_from_data([0.0, 1e10], [4, 1], [4, 1])
        with pytest.raises(ConditioningError, match="power 4 of the shifted matrix"):
            eigenprojection_residuals(a, sp, np.eye(5, dtype=complex))


class TestResidualOperands:
    """``eigenprojection_residuals`` validates its operands like every public entry."""

    SP3 = spectrum_from_data([0.0, 1.0], [2, 1], [1, 1])

    def test_projector_of_another_size_is_refused(self):
        with pytest.raises(PreconditionError, match="dimension mismatch: 3x3 and 2x2 operands"):
            eigenprojection_residuals(np.eye(3), self.SP3, np.eye(2))

    def test_non_finite_projector_is_refused(self):
        z = np.eye(3)
        z[0, 0] = np.nan
        with pytest.raises(PreconditionError, match="finite"):
            eigenprojection_residuals(np.eye(3), self.SP3, z)

    def test_ragged_projector_is_refused(self):
        with pytest.raises(PreconditionError, match="square matrix of numbers"):
            eigenprojection_residuals(np.eye(3), self.SP3, [[1, 0, 0], [0, 1], [0, 0, 1]])

    def test_spectrum_of_another_size_is_refused(self):
        with pytest.raises(PreconditionError, match="spectrum describes a 3x3 matrix, got 2x2"):
            eigenprojection_residuals(np.eye(2), self.SP3, np.eye(2))


class TestReaderBits:
    """In range every residual read by the one reader keeps the bits of its
    unsplit formula ``_ratio(frob(...), ...)``."""

    @staticmethod
    def _gaussian(rng):
        return rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))

    def test_component_set_residuals_keep_the_unsplit_bits(self):
        rng = np.random.default_rng(61)
        sp = spectrum_from_data([0.0, 1.0, 2j], [2, 2, 1], [2, 1, 1])
        eye = np.eye(5)
        for t in range(-30, 31, 3):
            a = 2.0 ** t * self._gaussian(rng)
            parts = {(k, j): 2.0 ** (t * j) * self._gaussian(rng)
                     for k, nu in enumerate(sp.indices, 1) for j in range(nu)}
            got = ComponentSet(source=a, spectrum=sp, parts=parts).residuals()
            proj = [parts[(k, 0)] for k in range(1, sp.s + 1)]
            total = sum(proj)
            shifted = [a - lam * eye for lam in sp.eigenvalues]
            powers = [np.linalg.matrix_power(x, nu) for x, nu in zip(shifted, sp.indices)]
            ladder = [_ratio(frob(shifted[k - 1] @ parts[(k, j)] - (j + 1) * parts[(k, j + 1)]),
                             frob(shifted[k - 1]) * frob(parts[(k, j)])) for k, j in parts if (k, j + 1) in parts]
            assert len(ladder) == 1
            want = {
                "idempotency": max(_ratio(frob(z @ z - z), frob(z) ** 2) for z in proj),
                "commutation": max(_ratio(frob(a @ z - z @ a), frob(a) * frob(z)) for z in parts.values()),
                "orthogonality": max(_ratio(frob(z @ (total - z)), frob(z) * frob(total - z)) for z in proj),
                "annihilation": max(_ratio(frob(p @ z), frob(p) * frob(z)) for p, z in zip(powers, proj)),
                "ladder": max(ladder),
            }
            assert {name: got[name] for name in want} == want, t

    @pytest.mark.parametrize("values, mults, inds", [([0.0, 1.0], [3, 2], [2, 1]),
                                                     ([0.0, 1.0], [3, 2], [1, 1]),
                                                     ([1.0, 2.0], [3, 2], [1, 1])])
    def test_eigenprojection_residuals_keep_the_unsplit_bits(self, values, mults, inds):
        rng = np.random.default_rng(67)
        sp = spectrum_from_data(values, mults, inds)
        for t in range(-30, 31, 3):
            a, z = 2.0 ** t * self._gaussian(rng), self._gaussian(rng)
            power = np.linalg.matrix_power(a, sp.ind_a)
            assert eigenprojection_residuals(a, sp, z) == {
                "idempotency": _ratio(frob(z @ z - z), frob(z) ** 2),
                "commutation": _ratio(frob(a @ z - z @ a), frob(a) * frob(z)),
                "annihilation": _ratio(frob(power @ z), frob(power) * frob(z)),
            }, t


class TestCarriedPower:
    """Each power of a shifted matrix is carried beside a power of two, so a
    direction that the dominant ones annihilate on the way is kept."""

    def test_kernel_factor_keeps_the_direction_its_power_keeps(self):
        # the factor A^3 of the projector at 1e150 is diag(0, 0, 0, 1e450);
        # (A / ||A||)^3 taken at once flushes it to zero
        b = TestAnnihilationPastOverflow.B
        z = component(b, analyze(b), 1, 0)
        assert np.array_equal(z, np.diag([0.0, 0.0, 0.0, 1.0]))

    def test_fortran_ordered_input_reads_as_c_ordered(self):
        from speccomp import drazin_inverse, drazin_residuals, eigenprojection_residuals

        a = np.array([[0, 1, 0.5, 0], [0, 0, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]], dtype=complex)
        sp = analyze(a)
        z, a_d = eigenprojection_zero(a, sp), drazin_inverse(a, sp)
        f = np.asfortranarray
        assert eigenprojection_residuals(f(a), sp, f(z)) == eigenprojection_residuals(a, sp, z)
        assert drazin_residuals(f(a), f(a_d), sp.ind_a) == drazin_residuals(a, a_d, sp.ind_a)

    def test_powers_of_two_scale_the_components_exactly(self, cases):
        # Z_kj(2^t A) = 2^(j t) Z_kj(A) bit for bit, with the spectrum scaled
        # by 2^t, or the kernel refuses with a conditioning error; never a
        # different answer, and not before 2^500
        assert min(_scaled_refusals(cases), default=np.inf) > 500

    def test_powers_of_two_scale_real_components_exactly(self, real_cases):
        # the same on real matrices, through the real factors and pairs
        assert min(_scaled_refusals(real_cases), default=np.inf) > 500


def _scaled_refusals(cases):
    """The powers of two t at which :func:`all_components` refuses ``2^t A``,
    asserting that every other t scales each order-j part by ``2^(j t)``."""
    refused = set()
    for a, sp, _ in cases:
        for policy in ("minimal", "worst_case"):
            given = dict(multiplicities=sp.multiplicities, indices=sp.indices, exponents=policy)
            cs = all_components(a, spectrum_from_data(sp.eigenvalues, **given))
            for t in (0, 1, 64, 200, 500, 700, 800, 1000):
                scaled = np.ldexp(a.view(float), t).view(complex)
                assert np.all(np.isfinite(scaled))
                values = [np.ldexp(v.real, t) + 1j * np.ldexp(v.imag, t) for v in sp.eigenvalues]
                try:
                    got = all_components(scaled, spectrum_from_data(values, **given))
                except ConditioningError:
                    refused.add(t)
                    continue
                assert got.keys() == cs.keys()
                for (k, j), part in cs.parts.items():
                    with np.errstate(over="ignore"):
                        want = np.ldexp(part.view(float), j * t).view(complex)
                    assert np.array_equal(got.parts[(k, j)], want), (policy, t, k, j)
    return refused


class TestHighOrders:
    @pytest.mark.parametrize("shift", [0.0, 2.0])
    def test_jordan_block_of_index_24(self, shift):
        # order j = 23 divides by 1, 2, ..., 23 in turn, one rounding each
        n = 24
        nilpotent = np.eye(n, k=1, dtype=complex)
        a = shift * np.eye(n) + nilpotent
        cs = all_components(a, spectrum_from_data([shift], [n], [n]))
        assert max(cs.residuals().values()) <= 1e-15
        for j in range(n):
            expected = np.eye(n, k=j) / math.factorial(j)
            assert_allclose(cs.part(1, j), expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("big", [3e160, 1e300])
    @pytest.mark.parametrize("policy", ["minimal", "worst_case"])
    def test_order_2_beside_a_huge_eigenvalue(self, big, policy):
        # diag(big, J_3(0)): A^2 overflows at big, yet Z_22 = N^2 / 2 is exact,
        # because the ladder multiplies A onto Z_21, which is 0 there
        a = np.zeros((4, 4))
        a[0, 0], a[1, 2], a[2, 3] = big, 1.0, 1.0
        cs = all_components(a, spectrum_from_data([big, 0.0], [1, 3], [1, 3], exponents=policy))
        assert np.array_equal(cs.part(2, 2), np.eye(4, k=2) * [0, 0, 0, 0.5])
        assert max(cs.residuals().values()) <= ToleranceConfig().verify_tol


@pytest.fixture(scope="module")
def cases():
    out = []
    for spec in corpus(30, master_seed=24601):
        a, truth, sp = build_case(spec)
        out.append((a, sp, all_components(a, sp)))
    return out


def _real_matrices():
    """A real Gaussian n=12 with four conjugate pairs, a 3-periodic chain with
    pairs, and a reducible chain whose eigenvalue 1 is double."""
    return [
        np.random.default_rng(3).normal(size=(12, 12)).astype(complex),
        periodic_chain(np.random.default_rng(4), 12, 3),
        reducible_chain(np.random.default_rng(5), [4, 3], 3),
    ]


@pytest.fixture(scope="module")
def real_cases():
    out = []
    for a in _real_matrices():
        sp = analyze(a)
        out.append((a, sp, all_components(a, sp)))
    return out


class TestAnalyzeIsItsOwnData:
    """``analyze`` builds the Spectrum that ``spectrum_from_data`` builds from
    its eigenvalues, multiplicities and indices."""

    @pytest.mark.parametrize("policy", ["minimal", "worst_case"])
    def test_rebuilt_from_its_own_fields(self, cases, policy):
        wide = ToleranceConfig(eig_cluster_radius=1e-4)  # the Jordan cases scatter like eps**(1/index)
        for a, cfg in [(a, wide) for a, _, _ in cases] + [(a, None) for a in _real_matrices()]:
            sp = analyze(a, cfg, exponents=policy)
            again = spectrum_from_data(sp.eigenvalues, sp.multiplicities, sp.indices, n=a.shape[0], cfg=cfg,
                                       exponents=policy)
            assert again == sp


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
        # orthogonality checks Z_k @ (S - Z_k) = 0 against the sum S that the
        # resolution of the identity forms; the values keep their bits
        for a, sp, cs in cases:
            proj = [cs.projector(k) for k in range(1, sp.s + 1)]
            eye = np.eye(a.shape[0])
            total = sum(proj)
            resolution = frob(total - eye) / max(1.0, max(frob(z) for z in proj))
            orth = max(
                frob(z @ (total - z)) / max(1.0, frob(z) * frob(total - z)) for z in proj
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

    def test_component_is_the_same_part_on_real_matrices(self, real_cases):
        for a, sp, cs in real_cases:
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
        # 1e300 / 1e-10 is past the largest double: finite input, extreme
        # eigenvalue ratio. Exponent 1 at 0 reads that factor norm from its
        # scales; exponent 2 forms the quotient A / 1e-10, which overflows.
        cfg = ToleranceConfig(eig_cluster_radius=1e-320)
        for a, policy, message in (
            (np.diag([0.0, 1e300, 1e-10]), "minimal", "product factor has Frobenius norm inf"),
            (np.diag([0.0, 0.0, 1e300, 1e-10]), "worst_case", "quotient"),
        ):
            with np.errstate(over="ignore"):
                sp = analyze(a, cfg, exponents=policy)
            assert sp.eigenvalues == (1e300 + 0j, 1e-10 + 0j, 0j)
            with pytest.raises(ConditioningError, match=message):
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


class TestRealArithmetic:
    """A real matrix keeps real factors: each real eigenvalue's, and one per
    pair of exactly conjugate eigenvalues."""

    def test_conjugate_eigenvalues_give_conjugate_projectors(self, real_cases):
        pairs = 0
        for a, sp, cs in real_cases:
            for k, lam in enumerate(sp.eigenvalues, 1):
                if lam.imag:
                    pairs += 1
                    z = cs.projector(sp.position_of(lam.conjugate()))
                    assert np.abs(z - cs.projector(k).conj()).max() <= 1e-14
        assert pairs >= 8

    def test_projector_at_a_real_eigenvalue_is_exactly_real(self, real_cases):
        for a, sp, cs in real_cases:
            for k, lam in enumerate(sp.eigenvalues, 1):
                if not lam.imag:
                    z = cs.projector(k)
                    assert z.dtype == complex
                    assert not z.imag.any() and not np.signbit(z.imag).any(), (k, lam)

    def test_real_eigenvalue_projector_multiplies_only_real_matrices(self, monkeypatch):
        import speccomp.components as components

        kinds = set()
        times = components._times

        def recording(x, y):
            kinds.update(m[0].dtype for m in (x, y) if m is not None)
            return times(x, y)

        monkeypatch.setattr(components, "_times", recording)
        for a in _real_matrices():
            sp = analyze(a)
            component(a, sp, sp.position_of(sp.eigenvalues[0]), 0)
            assert not sp.eigenvalues[0].imag
        assert kinds == {np.dtype(float)}

    def test_complex_matrix_with_a_conjugate_pair_does_not_pair(self, monkeypatch):
        import speccomp.components as components

        def refuse(*args):
            raise AssertionError("a complex matrix formed a pair factor")

        monkeypatch.setattr(components, "_pair_factor", refuse)
        rng = np.random.default_rng(6)
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = s @ np.diag([1 + 1j, 1 - 1j, 2]) @ np.linalg.inv(s)
        sp = spectrum_from_data([1 + 1j, 1 - 1j, 2], [1, 1, 1], [1, 1, 1])
        cs = all_components(a, sp)
        ns = components_by_nullspace(a, sp)
        for key in cs.keys():
            assert rel_frob(cs.parts[key], ns.parts[key]) <= 1e-12
