"""Ground-truth construction and the nullspace-projection oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from speccomp import (
    JordanSpec,
    PreconditionError,
    analyze,
    build_case,
    components_by_nullspace,
)
from speccomp.linalg import solve
from speccomp.oracle import integer_similarity

from corpus import POOL, conditioned_seed, rel_frob


@st.composite
def jordan_specs(draw):
    count = draw(st.integers(1, 3))
    values = draw(
        st.lists(st.sampled_from(POOL + [0j]), min_size=count, max_size=count, unique=True)
    )
    blocks = []
    budget = 8
    for i, v in enumerate(values):
        left = count - i - 1
        cap = min(budget - left, 3)
        sizes = draw(
            st.lists(st.integers(1, min(cap, 3)), min_size=1, max_size=2).filter(
                lambda xs: sum(xs) <= cap
            )
        )
        budget -= sum(sizes)
        blocks.append((v, sizes))
    # remap the drawn seed to a moderately conditioned similarity: the
    # 1e-8-level assertions measure the oracles, not an unlucky transform
    raw_seed = draw(st.integers(0, 2**16))
    spec = JordanSpec(blocks, seed=0)
    seed = conditioned_seed(np.random.default_rng(raw_seed), spec.dim)
    return JordanSpec(blocks, seed=seed)


class TestJordanSpec:
    def test_rejects_duplicate_eigenvalues(self):
        with pytest.raises(PreconditionError):
            JordanSpec([(1.0, [1]), (1.0, [2])])

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(PreconditionError):
            JordanSpec([])
        with pytest.raises(PreconditionError):
            JordanSpec([(1.0, [0])])

    def test_rejects_an_empty_block_beside_a_valid_one(self):
        with pytest.raises(PreconditionError, match=r"block sizes for eigenvalue \(2\+0j\) must be positive"):
            JordanSpec([(1.0, [1]), (2.0, [0])])

    def test_dim(self):
        assert JordanSpec([(1.0, [2, 1]), (-2.0, [3])]).dim == 6


class TestIntegerSimilarity:
    def test_deterministic_and_nonsingular(self):
        s1 = integer_similarity(5, 123)
        s2 = integer_similarity(5, 123)
        assert np.array_equal(s1, s2)
        assert np.all(np.abs(s1.real) <= 3)
        assert np.all(s1.imag == 0)
        assert abs(np.linalg.det(s1)) >= 0.5

    def test_one_by_one(self):
        s = integer_similarity(1, 0)
        assert abs(s[0, 0]) >= 1


class TestBuildCase:
    def test_one_by_one_zero(self):
        a, truth, sp = build_case(JordanSpec([(0.0, [1])], seed=1))
        assert_allclose(a, [[0.0]])
        assert_allclose(truth.part(1, 0), [[1.0]])
        assert sp.ind_a == 1

    def test_conjugates_the_block_form(self):
        spec = JordanSpec([(2.0, [2]), (5.0, [1])], seed=7)
        a, truth, sp = build_case(spec)
        s_mat = integer_similarity(3, 7)
        s_inv = solve(s_mat, np.eye(3, dtype=complex))
        jform = np.array([[2, 1, 0], [0, 2, 0], [0, 0, 5]], dtype=complex)
        # positions follow the ordering policy: 5 before 2, so the block
        # form is assembled with the 5-block first
        jsorted = np.array([[5, 0, 0], [0, 2, 1], [0, 0, 2]], dtype=complex)
        assert rel_frob(a, s_mat @ jsorted @ s_inv) <= 1e-12
        k2 = sp.position_of(2.0)
        e20 = np.diag([0.0, 1.0, 1.0]).astype(complex)
        assert rel_frob(truth.part(k2, 0), s_mat @ e20 @ s_inv) <= 1e-12
        e21 = np.zeros((3, 3), dtype=complex)
        e21[1, 2] = 1.0
        assert rel_frob(truth.part(k2, 1), s_mat @ e21 @ s_inv) <= 1e-12
        assert np.array_equal(np.sort_complex(np.linalg.eigvals(jform)),
                              np.sort_complex(np.linalg.eigvals(jsorted)))

    def test_spectrum_read_off_construction(self):
        spec = JordanSpec([(1.0, [2, 1]), (-2.0, [3])], seed=42)
        _, _, sp = build_case(spec)
        assert sp.eigenvalues == (-2.0 + 0j, 1.0 + 0j)
        assert sp.multiplicities == (3, 3)
        assert sp.indices == (3, 2)
        assert sp.ind_a == 0

    @settings(max_examples=25, deadline=None)
    @given(jordan_specs())
    def test_truth_satisfies_component_identities(self, spec):
        _, truth, _ = build_case(spec)
        worst = max(truth.residuals().values())
        assert worst <= 1e-10


class TestNullspaceOracle:
    def test_diag_case(self):
        a = np.diag([0.0, 2.0])
        cs = components_by_nullspace(a, analyze(a))
        sp = cs.spectrum
        assert_allclose(cs.part(sp.position_of(0.0), 0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_nilpotent_whole_space(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        cs = components_by_nullspace(a, analyze(a))
        assert_allclose(cs.part(1, 0), np.eye(2), atol=1e-12)
        assert_allclose(cs.part(1, 1), a, atol=1e-12)

    def test_inconsistent_spectrum_rejected(self):
        from speccomp import spectrum_from_data

        a = np.array([[0, 1], [0, 0]], dtype=complex)
        lying = spectrum_from_data([0.0], [2], [1])  # claims the index is 1
        with pytest.raises(PreconditionError, match="inconsistent"):
            components_by_nullspace(a, lying)

    @settings(max_examples=25, deadline=None)
    @given(jordan_specs())
    def test_oracles_agree(self, spec):
        a, truth, sp = build_case(spec)
        ns = components_by_nullspace(a, sp)
        for key in truth.keys():
            assert rel_frob(ns.parts[key], truth.parts[key]) <= 1e-8
