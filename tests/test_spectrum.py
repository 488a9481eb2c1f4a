"""Eigenstructure: raw eigenvalues, clustering, indices, full analysis."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import speccomp.spectrum
from speccomp import (
    ClusteringError,
    ConvergenceError,
    PreconditionError,
    Spectrum,
    ToleranceConfig,
    analyze,
    build_case,
    spectrum_from_data,
)
from speccomp.linalg import rank_numeric
from speccomp.spectrum import cluster_spectrum, eigen_index, eigenvalues_raw, replace_eigenvalue

from corpus import corpus, random_spec, random_stochastic

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

    def test_ambiguous_clustering_raises(self):
        # gap of 1.5 radii: too far to merge, too close to certify distinct
        cfg = ToleranceConfig(eig_cluster_radius=1e-6)
        with pytest.raises(ClusteringError):
            cluster_spectrum([1.0, 1.0 + 1.5e-6], cfg)

    def test_first_close_pair_in_row_major_order(self):
        # canonical order 3, 2.999999995i, 2.99999996i, 2.99999995; with
        # radius 3e-8 no value merges, and both (0, 3) and (1, 2) lie within
        # twice the radius: the report names (0, 3)
        values = [3.0, 2.99999995, 2.99999996j, 2.999999995j]
        pair = (f"{np.complex128(3.0)} and {np.complex128(2.99999995)} are closer than twice "
                "the clustering radius; ")
        with pytest.raises(ClusteringError) as excinfo:
            cluster_spectrum(values)
        assert str(excinfo.value) == (
            f"ambiguous clustering: centroids {pair}adjust the radius or supply the spectrum "
            "explicitly"
        )
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
        assert sp.u == 1

    def test_worst_case_policy_skips_index_search(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("worst_case must not compute rank plateaus")

        monkeypatch.setattr(speccomp.spectrum, "eigen_index", boom)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)).astype(complex)
        sp = analyze(a, exponents="worst_case")
        assert sp.u == 4
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

    def test_indices_match_a_full_search(self):
        for a, cfg in _search_cases():
            sp = analyze(a, cfg)
            assert list(sp.indices) == [eigen_index(a, v, cfg) for v in sp.eigenvalues]


class TestSpectrumType:
    def test_from_data_snaps_and_sorts(self):
        sp = spectrum_from_data([1e-12, 3.0], [1, 2], [1, 1])
        assert sp.eigenvalues == (3.0 + 0j, 0j)
        assert sp.multiplicities == (2, 1)
        assert sp.ind_a == 1

    def test_from_data_rejects_bad_sum(self):
        with pytest.raises(PreconditionError):
            spectrum_from_data([1.0, 2.0], [1, 1], [1, 1], n=3)

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
        assert wc.u == 5


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


class TestSelfChecked:
    """A Spectrum checks the product formulas' hypotheses when it is built."""

    def test_u_below_ind_a_rejected(self):
        # accepted unchecked, this spectrum made eigenprojection_zero return 0
        # for diag(2, 0), whose projector at 0 is diag(0, 1), with zero residuals
        with pytest.raises(PreconditionError, match="inner power u = 0"):
            Spectrum(eigenvalues=(2, 0), multiplicities=(1, 1), indices=(1, 1),
                     exponents=(1, 1), u=0)

    def test_relabel_onto_an_existing_eigenvalue_rejected(self):
        # accepted, the spectrum (0j, 0j) made eigenprojection_zero return I
        with pytest.raises(PreconditionError, match="pairwise distinct"):
            replace_eigenvalue(analyze(np.diag([2.0, 0.0])), 1, 0.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (((), (), (), (), 1), "at least one eigenvalue"),
            (((1, 2), (1,), (1, 1), (1, 1), 1), "one entry per eigenvalue"),
            (((1, 2), (1, 1), (2, 1), (2, 1), 1), "index 2 out of range 1..1 at position 1"),
            (((1, 2), (1, 2), (1, 2), (1, 1), 1), "exponent 1 smaller than index 2 at position 2"),
            (((1, 0), (1, 2), (1, 2), (1, 2), 1), "inner power u = 1"),
        ],
    )
    def test_each_invariant_checked(self, fields, message):
        with pytest.raises(PreconditionError, match=message):
            Spectrum(*fields)

    def test_fields_become_tuples(self):
        sp = Spectrum([2, 0], np.array([1, 2]), [1, 2], [1, 2], np.int64(2))
        assert sp.eigenvalues == (2 + 0j, 0j)
        assert all(type(v) is complex for v in sp.eigenvalues)
        for field in (sp.multiplicities, sp.indices, sp.exponents):
            assert type(field) is tuple and all(type(v) is int for v in field)
        assert type(sp.u) is int
        assert sp.source_dim == 3

    def test_source_dim_not_a_field(self):
        assert "source_dim" not in {f.name for f in dataclasses.fields(Spectrum)}

    def test_copies_are_checked(self):
        sp = spectrum_from_data([2.0, 0.0], [2, 2], [2, 2])
        with pytest.raises(PreconditionError, match="exponent 1 smaller than index 2"):
            sp.with_exponents([1, 2])
        with pytest.raises(PreconditionError, match="inner power u = 1"):
            dataclasses.replace(sp, u=1)
