"""Eigenstructure: raw eigenvalues, clustering, indices, full analysis."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import speccomp.spectrum
from speccomp import (
    ClusteringError,
    ConditioningError,
    ConvergenceError,
    PreconditionError,
    Spectrum,
    ToleranceConfig,
    analyze,
    build_case,
    eigenprojection_zero,
    spectrum_from_data,
)
from speccomp.linalg import rank_numeric
from speccomp.spectrum import cluster_spectrum, eigen_index, eigenvalues_raw, replace_eigenvalue

from corpus import corpus, periodic_chain, random_spec, random_stochastic, reducible_chain

# Wide-radius config for matrices with defective eigenvalues computed
# numerically: their eigenvalue approximations scatter like eps**(1/index),
# far beyond the default radius, while separation >= 1 keeps distinct
# eigenvalues unambiguous.
WIDE = ToleranceConfig(eig_cluster_radius=1e-4)


class TestEigenvaluesRaw:
    def test_diagonal(self):
        vals = eigenvalues_raw(np.diag([1.0, 2.0, 3.0]))
        assert_allclose(sorted(vals.real), [1, 2, 3], atol=1e-12)
        assert_allclose(vals.imag, 0, atol=1e-12)

    def test_nilpotent(self):
        assert_allclose(eigenvalues_raw(np.array([[0, 1], [0, 0]])), [0, 0], atol=1e-12)

    def test_rotation_has_conjugate_pair(self):
        vals = eigenvalues_raw(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert_allclose(sorted(vals, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)

    def test_real_matrix_gives_exact_reals_and_exact_conjugate_pairs(self):
        for a in (
            np.random.default_rng(3).normal(size=(12, 12)).astype(complex),
            periodic_chain(np.random.default_rng(4), 12, 3),
        ):
            vals = eigenvalues_raw(a)
            assert vals.dtype == complex
            assert np.array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))
            # linkage is symmetric under conjugation: simple clusters stay exact pairs
            sp = analyze(a)
            assert sp.multiplicities == (1,) * 12
            assert set(sp.eigenvalues) == {v.conjugate() for v in sp.eigenvalues}
            assert sum(1 for v in sp.eigenvalues if v.imag) >= 4

    def test_convergence_error_message_is_bounded(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        a = np.random.default_rng(64).normal(size=(64, 64))
        with pytest.raises(ConvergenceError) as excinfo:
            eigenvalues_raw(a)
        message = str(excinfo.value)
        assert len(message) < 300
        assert "64x64" in message

    @pytest.mark.parametrize("exponents", ["minimal", "worst_case"])
    def test_overflowing_eigenvalues_are_a_conditioning_error(self, exponents):
        # finite entries whose eigenvalues LAPACK returns as NaN
        a = np.diag([1.7e308 + 1.7e308j, 2.0])
        message = ("eigenvalues of this 2x2 matrix overflow the float range; "
                   "its largest real or imaginary part is 1.700e+308")
        with pytest.raises(ConditioningError) as raw:
            eigenvalues_raw(a)
        with pytest.raises(ConditioningError) as analyzed:
            analyze(a, exponents=exponents)
        assert str(raw.value) == str(analyzed.value) == message


class TestClustering:
    def test_forced_merge(self):
        values, mults = cluster_spectrum([2.0, 2.0 + 1e-12, 5.0])
        assert_allclose(values, [5.0, 2.0], atol=1e-10)
        assert list(mults) == [1, 2]

    def test_symmetric_pair_stays_split(self):
        values, mults = cluster_spectrum([1.0, -1.0])
        assert_allclose(values, [1.0, -1.0])
        assert list(mults) == [1, 1]

    def test_zero_snap(self):
        values, mults = cluster_spectrum([1e-13, 3.0])
        assert values[1] == 0.0
        assert_allclose(values, [3.0, 0.0])
        assert list(mults) == [1, 1]

    def test_scattered_zero_clusters_merge(self):
        # 5.8e-9 and -5.8e-9 are too far apart to share a cluster at radius
        # 1e-8, but both centroids snap to 0: one eigenvalue 0 of multiplicity 3
        values, mults = cluster_spectrum([1.0, 5.8e-9, -5.8e-9, 3.3e-17])
        assert list(values) == [1.0, 0.0]
        assert list(mults) == [1, 3]

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            cluster_spectrum([])

    def test_gap_within_twice_the_radius_merges(self):
        # gap of 1.5 radii: within the separation distance, so one eigenvalue
        cfg = ToleranceConfig(eig_cluster_radius=1e-6)
        values, mults = cluster_spectrum([1.0, 1.0 + 1.5e-6], cfg)
        assert_allclose(values, [1.0 + 0.75e-6], rtol=1e-15)
        assert list(mults) == [2]

    def test_permutation_moves_centroids_only_by_rounding(self):
        # five scattered clusters plus a chain of steps of 1.5 radii (radius
        # 3e-8), which links only at twice the radius
        rng = np.random.default_rng(5)
        centres = np.repeat([3.0, 2 + 1j, 2 - 1j, -1.0, 0.5j], [1, 2, 2, 3, 4])
        scatter = 1e-8 * (rng.uniform(-1, 1, centres.size) + 1j * rng.uniform(-1, 1, centres.size))
        values = np.concatenate([centres + scatter, 1.5 + 4.5e-8 * np.arange(4)])
        expected_values, expected_mults = cluster_spectrum(values)
        assert list(expected_mults) == [1, 2, 2, 4, 3, 4]
        for _ in range(20):
            got_values, got_mults = cluster_spectrum(rng.permutation(values))
            assert np.array_equal(got_mults, expected_mults)
            assert_allclose(got_values, expected_values, rtol=4 * np.finfo(float).eps)

    def test_real_matrix_gives_exactly_conjugate_clusters(self):
        s = np.random.default_rng(2).normal(size=(5, 5))
        values, mults = cluster_spectrum(eigenvalues_raw(
            s @ np.diag([2.0, 2.0, -1.0, 3.0, 3.0]) @ np.linalg.inv(s)))
        assert_allclose(values, [3, 2, -1], rtol=1e-12)
        assert values.imag.tolist() == [0.0, 0.0, 0.0]
        assert list(mults) == [2, 2, 1]
        # a double pair 1 +- 2i and a Jordan block at 2, whose computed
        # values may be a conjugate pair (here 2 +- 1.7e-8i)
        t = np.zeros((7, 7))
        t[:2, :2] = t[2:4, 2:4] = [[1, 2], [-2, 1]]
        t[4:6, 4:6] = [[2, 1], [0, 2]]
        t[6, 6] = -1
        s = np.random.default_rng(0).normal(size=(7, 7))
        raw = eigenvalues_raw(s @ t @ np.linalg.inv(s))
        assert np.count_nonzero(raw.imag) >= 4
        values, mults = cluster_spectrum(raw, WIDE)
        assert list(mults) == [2, 2, 2, 1]
        assert values[0] == values[1].conjugate() and values[0].imag < 0
        assert values[2:].imag.tolist() == [0.0, 0.0]

    def test_first_close_pair_in_row_major_order(self):
        # 12 values on a circle of 3 radii around a 13th at its centre:
        # the circle links into one cluster (chords of 1.55 radii), the
        # centre stays apart, and both centroids are 0.5 up to rounding
        ring = [3, 2.6 + 1.5j, 1.5 + 2.6j, 3j, -1.5 + 2.6j, -2.6 + 1.5j,
                -3, -2.6 - 1.5j, -1.5 - 2.6j, -3j, 1.5 - 2.6j, 2.6 - 1.5j]
        with pytest.raises(ClusteringError) as excinfo:
            cluster_spectrum([0.5] + [0.5 + 1e-8 * z for z in ring])
        assert str(excinfo.value) == (
            f"ambiguous clustering: centroids {np.complex128(0.5)} and "
            f"{np.complex128(0.5000000000000001 + 5.514537417020184e-25j)} are closer than twice "
            "the clustering radius; adjust the radius or supply the spectrum explicitly"
        )
        # canonical order 3, 2.999999995i, 2.99999996i, 2.99999995; with
        # radius 3e-8 both (0, 3) and (1, 2) lie within twice the radius:
        # the report names (0, 3)
        values = [3.0, 2.99999995, 2.99999996j, 2.999999995j]
        pair = (f"{np.complex128(3.0)} and {np.complex128(2.99999995)} are closer than twice "
                "the clustering radius; ")
        with pytest.raises(ClusteringError) as excinfo:
            spectrum_from_data(values, [1] * 4, [1] * 4)
        assert str(excinfo.value) == (
            f"eigenvalues {pair}lower the radius or supply the spectrum explicitly"
        )


class TestEigenIndex:
    def test_nilpotent_block(self):
        assert eigen_index(np.array([[0, 1], [0, 0]]), 0.0) == 2

    def test_identity(self):
        assert eigen_index(np.eye(3), 1.0) == 1

    def test_not_an_eigenvalue(self):
        assert eigen_index(np.diag([2.0, 5.0]), 3.0) == 0

    def test_never_exceeds_dimension(self):
        n = 5
        block = np.diag(np.ones(n - 1), 1)  # single nilpotent ladder
        assert eigen_index(block, 0.0) == n

    def test_real_input_takes_real_arithmetic_to_the_same_index(self):
        # (i A - i lam I) = i (A - lam I) has the same ranks, on the complex path
        j = np.zeros((8, 8))
        j[np.arange(8), np.arange(8)] = [2, 2, 2, -1, -1, -1, 0, 0]
        j[[0, 3, 4, 6], [1, 4, 5, 7]] = 1
        s = np.random.default_rng(5).normal(size=(8, 8))
        a = s @ j @ np.linalg.inv(s)
        for lam, index in ((2.0, 2), (-1.0, 3), (0.0, 2), (1.0, 0)):
            assert eigen_index(a, lam) == eigen_index(1j * a, 1j * lam) == index

    def test_bounded_by_multiplicity_on_corpus(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            a, _, sp = build_case(random_spec(rng, include_zero=True))
            for lam, m in zip(sp.eigenvalues, sp.multiplicities):
                assert 1 <= eigen_index(a, lam) <= m


class TestAnalyze:
    def test_diag_with_zero(self):
        sp = analyze(np.diag([0.0, 2.0]))
        assert sp.eigenvalues == (2.0 + 0j, 0j)
        assert sp.indices == (1, 1)
        assert sp.exponents == (1, 1)
        assert sp.ind_a == 1
        assert sp.u == 1

    def test_defective_pair(self):
        # rank(A - 2I) = 1, rank((A - 2I)^2) = 0, so the index is 2
        sp = analyze(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert sp.eigenvalues == (2.0 + 0j,)
        assert sp.multiplicities == (2,)
        assert sp.indices == (2,)
        assert sp.ind_a == 0
        assert sp.u == 0  # nonsingular: u = ind A

    def test_index_above_the_clustered_multiplicity_is_refused(self, monkeypatch):
        # the 3x3 shift has index 3 at 0; a solver that lost one of its
        # three zeros to 5 leaves a cluster of multiplicity 2
        monkeypatch.setattr(speccomp.spectrum, "eigenvalues_raw", lambda a: np.array([0, 0, 5], dtype=complex))
        with pytest.raises(ClusteringError, match=r"index 3 of eigenvalue 0j exceeds its clustered multiplicity 2"):
            analyze(np.diag([1.0, 1.0], 1))

    def test_worst_case_policy_skips_index_search(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("worst_case must not compute rank plateaus")

        monkeypatch.setattr(speccomp.spectrum, "eigen_index", boom)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)).astype(complex)
        sp = analyze(a, exponents="worst_case")
        assert sp.u == 0  # nonsingular: no exponent at 0, u = ind A
        assert sp.exponents == sp.multiplicities

    def test_explicit_exponents_validated(self):
        a = np.diag([0.0, 2.0])
        sp = analyze(a, exponents=[1, 3])
        assert sp.exponents == (1, 3)
        assert sp.u == 3  # exponent of the zero eigenvalue
        with pytest.raises(PreconditionError, match="position 1"):
            analyze(a, exponents=[0, 1])
        with pytest.raises(PreconditionError):
            analyze(a, exponents=[1])

    def test_unknown_policy_rejected(self):
        with pytest.raises(PreconditionError):
            analyze(np.eye(2), exponents="fastest")

    def test_recovers_constructed_structure(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            spec = random_spec(rng, include_zero=rng.random() < 0.5)
            a, _, sp_true = build_case(spec)
            sp = analyze(a, WIDE)
            assert sp.multiplicities == sp_true.multiplicities
            assert sp.indices == sp_true.indices
            assert_allclose(
                np.array(sp.eigenvalues), np.array(sp_true.eigenvalues), atol=1e-3
            )

    def test_invariant_under_permutation_similarity(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            a, _, _ = build_case(random_spec(rng, include_zero=True))
            n = a.shape[0]
            perm = np.eye(n)[rng.permutation(n)].astype(complex)
            sp1 = analyze(a, WIDE)
            sp2 = analyze(perm @ a @ perm.T, WIDE)
            assert sp1.multiplicities == sp2.multiplicities
            assert sp1.indices == sp2.indices
            assert sp1.ind_a == sp2.ind_a
            assert_allclose(
                np.array(sp1.eigenvalues), np.array(sp2.eigenvalues), atol=1e-3
            )

    def test_ind_a_zero_iff_full_rank(self):
        rng = np.random.default_rng(13)
        for spec in corpus(20, master_seed=5150):
            a, _, sp = build_case(spec)
            assert (sp.ind_a == 0) == (rank_numeric(a) == a.shape[0])


def _search_cases():
    """(matrix, config) pairs: the Jordan corpus, generic n=16 matrices and
    positive n=16 chains."""
    cases = [(build_case(spec)[0], WIDE) for spec in corpus(30, master_seed=24601)]
    rng = np.random.default_rng(16)
    for _ in range(4):
        cases.append((rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)), None))
        cases.append((random_stochastic(rng, 16), None))
    return cases


class TestIndexSearchScope:
    """analyze searches for the index only where the multiplicity leaves it open."""

    def test_searches_repeated_clusters_only(self, monkeypatch):
        real = speccomp.spectrum.eigen_index
        calls = []

        def counted(a, lam, cfg=None):
            calls.append(complex(lam))
            return real(a, lam, cfg)

        monkeypatch.setattr(speccomp.spectrum, "eigen_index", counted)
        repeated = simple = 0
        for a, cfg in _search_cases():
            calls.clear()
            sp = analyze(a, cfg)
            assert calls == [v for v, m in zip(sp.eigenvalues, sp.multiplicities) if m > 1]
            repeated += len(calls)
            simple += sp.multiplicities.count(1)
        assert repeated and simple

    def test_merged_zero_cluster_is_searched(self, monkeypatch):
        real = speccomp.spectrum.eigen_index
        calls = []

        def counted(a, lam, cfg=None):
            calls.append(complex(lam))
            return real(a, lam, cfg)

        monkeypatch.setattr(speccomp.spectrum, "eigen_index", counted)
        monkeypatch.setattr(
            speccomp.spectrum, "eigenvalues_raw", lambda a: np.array([1.0, 5.8e-9, -5.8e-9, 3.3e-17])
        )
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = a[1, 2] = 1.0
        sp = analyze(a)
        assert calls == [0j]
        assert (sp.eigenvalues, sp.multiplicities, sp.indices) == ((1, 0), (1, 3), (1, 2))

    @pytest.mark.parametrize("diagonal, coupling, expected", [
        # a simple 1e-7 coupled to 1 by 1e4
        ((1e-7, 1.0), (1e4,), ((1, 1e-7, 0), (1, 1, 2), (1, 1, 2))),
        # a bidiagonal chain 1e-4, 2e-4, 3e-4: each value 1e-4 away, yet the
        # block's smallest singular value is 6e-12
        ((1e-4, 2e-4, 3e-4), (1.0, 1.0), ((3e-4, 2e-4, 1e-4, 0), (1, 1, 1, 2), (1, 1, 1, 2))),
    ])
    def test_nullity_equal_to_the_multiplicity_does_not_settle_the_index(self, diagonal, coupling, expected):
        # J_2(0) beside a non-normal block whose other eigenvalues add to the
        # numerical nullity at 0, which reads 2 = m: only the plateau finds index 2
        n = 2 + len(diagonal)
        a = np.zeros((n, n), dtype=complex)
        a[0, 1] = 1.0
        a[2:, 2:] = np.diag(diagonal) + np.diag(coupling, 1)
        assert n - rank_numeric(a) == 2
        sp = analyze(a)
        assert (sp.eigenvalues, sp.multiplicities, sp.indices) == expected

    def test_indices_match_a_full_search(self):
        for a, cfg in _search_cases():
            sp = analyze(a, cfg)
            assert list(sp.indices) == [eigen_index(a, v, cfg) for v in sp.eigenvalues]


def _outcome(a):
    """``analyze(a)``, or the type and message of the error it raises."""
    try:
        return analyze(a)
    except ClusteringError as exc:
        return type(exc), str(exc)


class TestChainAtOne:
    """Eigenvalue 1 of a row-stochastic chain has index 1, one copy per closed
    class: a cluster with that count is settled without a search."""

    @pytest.fixture
    def calls(self, monkeypatch):
        real, calls = speccomp.spectrum.eigen_index, []

        def counted(a, lam, cfg=None):
            calls.append(complex(lam))
            return real(a, lam, cfg)

        monkeypatch.setattr(speccomp.spectrum, "eigen_index", counted)
        return calls

    @pytest.mark.parametrize("a", [reducible_chain(np.random.default_rng(3), [2, 3, 2], 4), np.eye(3)],
                             ids=["reducible", "identity"])
    def test_one_copy_per_closed_class_needs_no_search(self, calls, a):
        sp = analyze(a)
        k = sp.position_of(1.0, 1e-12) - 1
        assert (sp.multiplicities[k], sp.indices[k]) == (3, 1)
        assert calls == []

    def test_only_the_cluster_nearest_1_is_settled(self, calls):
        # two absorbing states, and two transient ones whose block is J_2(0):
        # 0 has the closed-class count as its multiplicity, and index 2
        a = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
        sp = analyze(a)
        assert (sp.eigenvalues, sp.multiplicities, sp.indices) == ((1, 0), (2, 2), (1, 2))
        assert calls == [0j]

    @pytest.mark.parametrize("a", [
        # a transient value 1e-9 from 1 joins the unit cluster: 3 values, 2 closed classes
        np.array([[1, 0, 0], [1e-9, 1 - 1e-9, 0], [0, 0, 1]]),
        # one row sum off by 1e-9
        np.diag([1 + 1e-9, 1.0, 1.0]),
        np.diag([1 + 1e-9] + [1.0] * 10) @ reducible_chain(np.random.default_rng(3), [2, 3, 2], 4),
        # a negative entry, though each state alone is closed in the pattern of a > 0
        np.array([[1 + 1e-12, -1e-12], [0, 1]]),
        # a nonzero imaginary part
        np.eye(3) + 1e-20j * np.eye(3, k=1),
        # row sums 2 and 1: a Jordan block
        np.array([[1.0, 1.0], [0.0, 1.0]]),
    ], ids=["merged-transient", "diag-off", "row-off", "negative", "complex", "jordan"])
    def test_any_other_chain_is_searched_as_before(self, calls, monkeypatch, a):
        settled = _outcome(a)
        assert calls and min(abs(v - 1) for v in calls) < 1e-8
        monkeypatch.setattr(speccomp.spectrum, "_semisimple_at_one", lambda *args: False)
        assert settled == _outcome(a)

    def test_fallbacks_keep_their_results(self):
        with pytest.raises(ClusteringError, match=r"clustered value \(0\.99999999966666\d*\+0j\) is not an eigenvalue"):
            analyze(np.array([[1, 0, 0], [1e-9, 1 - 1e-9, 0], [0, 0, 1]]))
        assert analyze(np.array([[1.0, 1.0], [0.0, 1.0]])).indices == (2,)
        assert analyze(np.array([[1 + 1e-12, -1e-12], [0, 1]])).indices == (1,)
        assert analyze(np.eye(3) + 1e-20j * np.eye(3, k=1)).indices == (1,)


class TestBuiltOnce:
    """Each constructor builds one Spectrum, with its exponent policy resolved."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"built": 0, "separated": 0}
        post_init, separated = Spectrum.__post_init__, speccomp.spectrum._require_separated

        def built(self):
            counts["built"] += 1
            post_init(self)

        def checked(*args):
            counts["separated"] += 1
            separated(*args)

        monkeypatch.setattr(Spectrum, "__post_init__", built)
        monkeypatch.setattr(speccomp.spectrum, "_require_separated", checked)
        return counts

    @pytest.mark.parametrize("policy, exponents", [("minimal", (1, 1)), ("worst_case", (2, 1)),
                                                   ([2, 3], (2, 3)), (np.array([2, 3]), (2, 3))])
    def test_one_build_per_call(self, counts, policy, exponents):
        base = spectrum_from_data([2.0, 0.0], [2, 1], [1, 1])
        calls = [
            (lambda: analyze(np.diag([2.0, 2.0, 0.0]), exponents=policy), 1),
            (lambda: spectrum_from_data([0.0, 2.0], [1, 2], [1, 1], exponents=policy), 1),
            (lambda: base.with_exponents(policy), 0),
        ]
        for call, separations in calls:
            counts.update(built=0, separated=0)
            sp = call()
            assert (sp.eigenvalues, sp.multiplicities, sp.exponents) == ((2, 0), (2, 1), exponents)
            assert counts == {"built": 1, "separated": separations}

    def test_unknown_policy_has_one_message_everywhere(self):
        sp = spectrum_from_data([2.0], [1], [1])
        for call in (lambda: analyze(np.eye(2), exponents="fastest"),
                     lambda: spectrum_from_data([2.0], [1], [1], exponents="fastest"),
                     lambda: sp.with_exponents("fastest")):
            with pytest.raises(PreconditionError, match="^unknown exponent policy 'fastest'; use 'minimal'"):
                call()


class TestSpectrumType:
    def test_from_data_snaps_and_sorts(self):
        sp = spectrum_from_data([1e-12, 3.0], [1, 2], [1, 1])
        assert sp.eigenvalues == (3.0 + 0j, 0j)
        assert sp.multiplicities == (2, 1)
        assert sp.ind_a == 1

    def test_from_data_rejects_bad_sum(self):
        with pytest.raises(PreconditionError):
            spectrum_from_data([1.0, 2.0], [1, 1], [1, 1], n=3)

    def test_from_data_rejects_fields_of_unequal_length(self):
        with pytest.raises(PreconditionError, match="must have equal length"):
            spectrum_from_data([1.0, 2.0], [1], [1])

    def test_from_data_rejects_index_above_multiplicity(self):
        with pytest.raises(PreconditionError):
            spectrum_from_data([1.0], [2], [3])

    def test_separation_validated(self):
        with pytest.raises(ClusteringError):
            spectrum_from_data([1.0, 1.0 + 1e-9], [1, 1], [1, 1])

    def test_shifted_moves_position_to_zero(self):
        sp = spectrum_from_data([2.0, 5.0], [2, 1], [2, 1])
        k = sp.position_of(2.0)
        shifted = sp.shifted(k)
        zero_pos = shifted.position_of(0.0)
        assert shifted.eigenvalues[zero_pos - 1] == 0j
        assert shifted.ind_a == 2
        assert shifted.u == sp.exponents[k - 1]
        assert sorted(shifted.multiplicities) == sorted(sp.multiplicities)

    def test_position_of_missing_value(self):
        sp = spectrum_from_data([2.0], [2], [1])
        with pytest.raises(PreconditionError):
            sp.position_of(7.0)

    def test_position_of_nan_raises(self):
        sp = spectrum_from_data([2.0, 0.0], [1, 1], [1, 1])
        with pytest.raises(PreconditionError):
            sp.position_of(float("nan"))

    def test_worst_case_exponents_from_known_indices(self):
        sp = spectrum_from_data([2.0, 0.0], [3, 2], [2, 1])
        wc = sp.with_exponents("worst_case")
        assert wc.indices == sp.indices
        assert wc.exponents == (3, 2)
        assert wc.u == 2  # the multiplicity of 0


def _zero_index(sp):
    """The index at the exact-zero eigenvalue, 0 without one."""
    zeros = [nu for v, nu in zip(sp.eigenvalues, sp.indices) if v == 0]
    return zeros[0] if zeros else 0


class TestIndA:
    """ind_a is derived from the zero eigenvalue, never stored."""

    def test_not_a_field(self):
        assert "ind_a" not in {f.name for f in dataclasses.fields(Spectrum)}

    def test_every_constructor(self):
        spectra = [
            analyze(np.diag([0.0, 2.0])),
            analyze(np.diag([1.0, 2.0])),
            analyze(np.array([[0, 1], [0, 0]], dtype=complex)),
            spectrum_from_data([0.0, 3.0], [3, 1], [2, 1]),
            spectrum_from_data([1.0, 3.0], [3, 1], [2, 1]),
        ]
        spectra += [sp.with_exponents("worst_case") for sp in spectra]
        spectra += [sp.shifted(k) for sp in list(spectra) for k in range(1, sp.s + 1)]
        spectra += [replace_eigenvalue(spectrum_from_data([1e-3, 3.0], [2, 1], [1, 1]), 2, 0.0)]
        for sp in spectra:
            assert sp.ind_a == _zero_index(sp), sp
            pos = sp.zero_position
            assert (pos is None) == (0 not in sp.eigenvalues)
            if pos is not None:
                assert sp.eigenvalues[pos] == 0

    def test_relabel_to_zero_sets_ind_a(self):
        sp = spectrum_from_data([1.0, 3.0], [3, 1], [1, 1])
        assert sp.ind_a == 0
        relabeled = replace_eigenvalue(sp, sp.position_of(1.0), 0.0)
        assert relabeled.ind_a == 1
        assert relabeled.zero_position == relabeled.position_of(0.0) - 1


class TestHugeEntries:
    def test_index_of_huge_jordan_block(self):
        # the Frobenius norm of these entries overflows without rescaling
        with np.errstate(over="ignore"):
            sp = analyze(1e200 * np.array([[1, 1], [0, 1]], dtype=complex))
        assert sp.indices == (2,)

    def test_distances_past_the_float_range_warn_nothing(self):
        # 1.7e308 - (-1.7e308) overflows: two values that far apart are not close
        sp = analyze(np.diag([1.7e308, -1.7e308]))
        assert sp.eigenvalues == (1.7e308, -1.7e308)

    def test_a_sum_past_the_float_range_has_a_finite_mean(self):
        values, mults = cluster_spectrum([-1.7e308, 1.7e308, -1.7e308])
        assert (values.tolist(), mults.tolist()) == ([1.7e308, -1.7e308], [1, 2])

    def test_a_shift_past_the_float_range_is_a_conditioning_error(self):
        # A - lam I at the repeated -1.7e308 has the entry 3.4e308
        with pytest.raises(ConditioningError, match=r"^A - lam I at lam = -1.7e\+308 overflows the float range"):
            analyze(np.diag([1.7e308, -1.7e308, -1.7e308]))


class TestSelfChecked:
    """A Spectrum checks the product formulas' hypotheses when it is built."""

    def test_u_is_the_exponent_at_zero(self):
        # a stored u = 0 once made this projector 0 with zero residuals
        sp = Spectrum((2, 0), (1, 1), (1, 1), (1, 1))
        assert sp.u == 1
        assert np.array_equal(eigenprojection_zero(np.diag([2.0, 0.0]), sp), np.diag([0.0, 1.0]))

    def test_relabel_onto_an_existing_eigenvalue_rejected(self):
        # accepted, the spectrum (0j, 0j) made eigenprojection_zero return I
        with pytest.raises(PreconditionError, match="pairwise distinct"):
            replace_eigenvalue(analyze(np.diag([2.0, 0.0])), 1, 0.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (((), (), (), ()), "at least one eigenvalue"),
            (((1, 2), (1,), (1, 1), (1, 1)), "one entry per eigenvalue"),
            (((1, 2), (1, 1), (2, 1), (2, 1)), "index 2 out of range 1..1 at position 1"),
            (((1, 2), (1, 2), (1, 2), (1, 1)), "exponent 1 smaller than index 2 at position 2"),
            (((float("nan"), 1), (1, 1), (1, 1), (1, 1)), "eigenvalues must be finite"),
            (((complex(1, np.inf),), (1,), (1,), (1,)), "eigenvalues must be finite"),
            (((1,), (2.9,), (1,), (1,)), "multiplicities must be integers, got 2.9 at position 1"),
            (((1,), (2,), (1.5,), (2,)), "indices must be integers, got 1.5 at position 1"),
        ],
    )
    def test_each_invariant_checked(self, fields, message):
        with pytest.raises(PreconditionError, match=message):
            Spectrum(*fields)

    def test_fields_become_tuples(self):
        sp = Spectrum([2, 0], np.array([1, 2]), [1.0, 2.0], [1, np.int64(2)])
        assert sp.eigenvalues == (2 + 0j, 0j)
        assert all(type(v) is complex for v in sp.eigenvalues)
        for field in (sp.multiplicities, sp.indices, sp.exponents):
            assert type(field) is tuple and all(type(v) is int for v in field)
        assert type(sp.u) is int
        assert sp.source_dim == 3

    def test_source_dim_not_a_field(self):
        assert "source_dim" not in {f.name for f in dataclasses.fields(Spectrum)}

    def test_fields_are_the_four_per_position_tuples(self):
        names = [f.name for f in dataclasses.fields(Spectrum)]
        assert names == ["eigenvalues", "multiplicities", "indices", "exponents"]

    def test_from_data_refuses_non_finite_values_and_non_integral_counts(self):
        for values in ([float("nan"), 1.0], [np.inf, 1.0]):
            with pytest.raises(PreconditionError, match="must be finite"):
                spectrum_from_data(values, [1, 1], [1, 1])
        for count in (1.5, float("nan"), np.inf):
            with pytest.raises(PreconditionError, match="multiplicities must be integers"):
                spectrum_from_data([1.0], [count], [1])
        with pytest.raises(PreconditionError, match="must be finite"):
            replace_eigenvalue(spectrum_from_data([1.0, 2.0], [1, 1], [1, 1]), 1, float("nan"))
        sp = spectrum_from_data([1.0], [2.0], np.array([1], dtype=np.int64))
        assert (sp.multiplicities, sp.indices) == ((2,), (1,))

    def test_copies_are_checked(self):
        sp = spectrum_from_data([2.0, 0.0], [2, 2], [2, 2])
        with pytest.raises(PreconditionError, match="exponent 1 smaller than index 2"):
            sp.with_exponents([1, 2])
