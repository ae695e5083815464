import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spintomo import (
    DimensionMismatchError,
    IncompleteQuorumError,
    Quorum,
    SingularGramError,
    completeness_check,
    dual_via_gram_inverse,
    dual_via_gram_schmidt,
    gram_schmidt_basis,
    hs_inner,
    hs_norm,
    random_hermitian,
    random_operator,
    reproducing_kernel_residual,
    superop_from_frame,
    verify_spanning_definitions,
)
from spintomo.frames import DROP_RTOL, DualFrame
from spintomo.spin import (
    coherent_state,
    make_spin_system,
    pauli_quorum,
    tetrahedral_directions,
    weigert_quorum,
)

from conftest import EYE2, SX, SY, SZ, random_quorum


def reference_gram_schmidt(q):
    """Modified Gram-Schmidt, one vdot/axpy pair per basis vector, swept twice.

    The element-by-element loop that gram_schmidt_basis replaced, with the
    same drop rule; it returns (basis rows, kept_mask, coeffs).
    """
    n = len(q)
    vecs = [c.reshape(-1).astype(complex) for c in q.elements]
    drop_tol = DROP_RTOL * max(np.linalg.norm(v) for v in vecs)
    basis, rows, kept = [], [], []
    for k in range(n):
        v = vecs[k].copy()
        c = np.zeros(n, dtype=complex)
        c[k] = 1.0
        for _ in range(2):
            for y, t in zip(basis, rows):
                s = np.vdot(y, v)
                v -= s * y
                c -= s * t
        norm = np.linalg.norm(v)
        kept.append(bool(norm > drop_tol))
        if kept[-1]:
            basis.append(v / norm)
            rows.append(c / norm)
    return np.array(basis), kept, np.array(rows)


def interleaved_quorum(dim, seed, every=4):
    """Random Hermitian quorum with a combination of recent elements after every ``every``-th."""
    rng = np.random.default_rng(seed)
    independent = [random_hermitian(dim, rng) for _ in range(dim * dim)]
    elements = []
    for k, c in enumerate(independent):
        elements.append(c)
        if k % every == every - 1:
            picks = independent[k - every + 1:k + 1]
            elements.append(sum(rng.uniform(-1, 1) * e for e in picks))
    return Quorum.from_elements(elements)


EPS = np.finfo(float).eps


def reference_dual(q):
    """The dual of a complete quorum, rows of (C^H)^-1, solved with 40 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    c = q.coefficient_matrix()
    with mpmath.workdps(40):
        inverse = mpmath.inverse(mpmath.matrix(c.conj().T.tolist()))
        rows = [[complex(inverse[i, j]) for j in range(c.shape[1])] for i in range(len(q))]
    return np.array(rows).reshape(q.elements.shape)


def duality_matrix(q, dual):
    return np.array(
        [[hs_inner(b, c) for c in q.elements] for b in dual.elements]
    )


class TestCompleteness:
    def test_pauli_complete(self):
        report = completeness_check(pauli_quorum()[0])
        assert report.complete and report.rank == 4

    def test_traceless_paulis_incomplete(self):
        report = completeness_check(Quorum.from_elements([SX, SY, SZ]))
        assert not report.complete
        assert report.rank == 3
        witness = report.defect_witness
        assert hs_norm(witness) == pytest.approx(1, abs=1e-12)
        assert np.abs(witness - EYE2 / np.sqrt(2)).max() <= 1e-12

    def test_random_hermitian_quartets_complete(self):
        # rank 4 iff the 4x4 coefficient matrix has nonzero determinant
        for seed in range(100):
            q = random_quorum(2, 4, seed)
            det = np.linalg.det(q.coefficient_matrix())
            report = completeness_check(q)
            assert report.complete == (abs(det) > 1e-10)
            assert report.complete

    def test_witness_orthogonal_to_all_elements(self):
        q = random_quorum(3, 5, seed=7)
        report = completeness_check(q)
        assert not report.complete
        assert max(abs(hs_inner(report.defect_witness, c)) for c in q.elements) <= 1e-10

    def test_tall_incomplete_quorum_has_witness(self, rng):
        # N > d^2 takes the economy SVD, whose vh is still d^2 x d^2.
        weights = rng.standard_normal((50, 3))
        q = Quorum.from_elements(np.einsum("nk,kij->nij", weights, np.array([SX, SY, SZ])))
        report = completeness_check(q)
        assert not report.complete and report.rank == 3
        assert np.abs(report.defect_witness - EYE2 / np.sqrt(2)).max() <= 1e-12

    def test_tall_quorum_memory_linear_in_n(self):
        n, d = 2000, 2
        q = random_quorum(d, n, seed=3)
        tracemalloc.start()
        try:
            report = completeness_check(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.complete
        # A full SVD's N x N factor alone takes 16 N^2 bytes, 64 MB here; the
        # bound is 16 N x d^2 complex matrices, 2 MB.
        assert peak <= 16 * (16 * n * d * d)


class TestFactorisation:
    def test_one_svd_per_quorum(self, svd_calls):
        q = random_quorum(3, 9, seed=5)
        completeness_check(q)
        dual = dual_via_gram_schmidt(q)
        dual_via_gram_inverse(q)
        verify_spanning_definitions(q, dual)
        assert svd_calls == [(9, 9)]

    def test_weigert_quorum_reuses_its_svd(self, svd_calls):
        wq = weigert_quorum(make_spin_system(1), tetrahedral_directions())
        assert completeness_check(wq.quorum).complete
        assert svd_calls == [(4, 4)]


class TestGramSchmidt:
    def test_pauli_already_orthogonal(self):
        q, _ = pauli_quorum()
        basis, kept, _ = gram_schmidt_basis(q)
        assert kept == [True] * 4
        for y, c in zip(basis, q.elements):
            assert np.abs(y - c / np.sqrt(2)).max() <= 1e-12

    def test_proportional_element_dropped(self):
        q = Quorum.from_elements([SZ, 2 * SZ, SX])
        basis, kept, coeffs = gram_schmidt_basis(q)
        assert kept == [True, False, True]
        assert np.abs(basis[0] - SZ / np.sqrt(2)).max() <= 1e-12
        assert np.abs(basis[1] - SX / np.sqrt(2)).max() <= 1e-12
        assert np.all(coeffs[:, 1] == 0)

    def test_random_quorum_orthonormal(self):
        q = random_quorum(2, 4, seed=11)
        basis, _, coeffs = gram_schmidt_basis(q)
        gram = np.array([[hs_inner(a, b) for b in basis] for a in basis])
        assert np.abs(gram - np.eye(4)).max() <= 1e-10
        # coeffs reproduce the basis from the original elements
        for k, y in enumerate(basis):
            rebuilt = sum(coeffs[k, n] * q.elements[n] for n in range(4))
            assert np.abs(rebuilt - y).max() <= 1e-10

    @pytest.mark.parametrize(
        "make",
        [
            lambda: interleaved_quorum(3, 1),
            lambda: interleaved_quorum(4, 2, every=3),
            lambda: random_quorum(3, 7, seed=4),  # incomplete
            lambda: random_quorum(2, 9, seed=6),  # overcomplete
            lambda: random_quorum(4, 30, seed=8),  # overcomplete
            lambda: Quorum.from_elements([SZ, 2 * SZ, SX, SX + 1e-3 * SY, EYE2]),
        ],
        ids=["dependent-d3", "dependent-d4", "incomplete", "overcomplete-d2", "overcomplete-d4",
             "near-dependent"],
    )
    def test_matches_modified_gram_schmidt(self, make):
        q = make()
        basis, kept, coeffs = gram_schmidt_basis(q)
        ref_basis, ref_kept, ref_coeffs = reference_gram_schmidt(q)
        assert kept == ref_kept
        assert len(basis) == sum(kept) <= q.dim**2
        assert coeffs.shape == (sum(kept), len(q))
        assert np.all(coeffs[:, ~np.array(kept)] == 0)
        y = np.array([b.reshape(-1) for b in basis])
        assert np.abs(np.conj(y) @ y.T - np.eye(len(basis))).max() <= 1e-12
        # both duals B_n = sum_k conj(T[k, n]) y_k; their distance is roundoff
        # of a computation conditioned like the kept elements
        kept_rows = q.coefficient_matrix()[np.array(kept)]
        cond = np.linalg.cond(kept_rows)
        dual = np.conj(coeffs).T @ y
        ref_dual = np.conj(ref_coeffs).T @ ref_basis
        bound = 10 * len(q) * cond * np.finfo(float).eps * np.abs(ref_dual).max()
        assert np.abs(dual - ref_dual).max() <= bound

    def test_all_zero_quorum_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            gram_schmidt_basis(Quorum.from_elements([np.zeros((2, 2))]))


class TestDualConstruction:
    def test_pauli_dual_gram_schmidt(self):
        q, expected = pauli_quorum()
        dual = dual_via_gram_schmidt(q)
        for b, e in zip(dual.elements, expected.elements):
            assert np.abs(b - e).max() <= 1e-12

    def test_pauli_dual_gram_inverse(self):
        q, expected = pauli_quorum()
        c = q.coefficient_matrix()
        assert np.abs(np.conj(c) @ c.T - 2 * np.eye(4)).max() <= 1e-12
        dual = dual_via_gram_inverse(q)
        for b, e in zip(dual.elements, expected.elements):
            assert np.abs(b - e).max() <= 1e-12

    def test_subspace_dual_with_dropped_element(self):
        q = Quorum.from_elements([SZ, 2 * SZ, SX])
        dual = dual_via_gram_schmidt(q, allow_subspace=True)
        assert dual.kept_mask == (True, False, True)
        assert np.abs(dual.elements[0] - SZ / 2).max() <= 1e-12
        assert np.abs(dual.elements[1]).max() == 0
        assert np.abs(dual.elements[2] - SX / 2).max() <= 1e-12

    def test_incomplete_without_flag_raises(self):
        q = Quorum.from_elements([SX, SY, SZ])
        with pytest.raises(IncompleteQuorumError) as err:
            dual_via_gram_schmidt(q)
        assert err.value.report.rank == 3

    def test_orthonormal_basis_is_self_dual(self):
        q = Quorum.from_elements([SX / np.sqrt(2), SY / np.sqrt(2), SZ / np.sqrt(2), EYE2 / np.sqrt(2)])
        dual = dual_via_gram_inverse(q)
        for b, c in zip(dual.elements, q.elements):
            assert np.abs(b - c).max() <= 1e-12

    def test_duality_relation_random_d3(self):
        q = random_quorum(3, 9, seed=5)
        dual_gs = dual_via_gram_schmidt(q)
        dual_gram = dual_via_gram_inverse(q)
        for dual in (dual_gs, dual_gram):
            assert np.abs(duality_matrix(q, dual) - np.eye(9)).max() <= 1e-10
        for a, b in zip(dual_gs.elements, dual_gram.elements):
            assert hs_norm(a - b) <= 1e-8

    def test_dependent_set_rejected_by_gram_inverse(self):
        q = Quorum.from_elements([SZ, 2 * SZ, SX])
        with pytest.raises(SingularGramError):
            dual_via_gram_inverse(q)
        overcomplete = Quorum.from_elements([SX, SY, SZ, EYE2, SX + SY])
        with pytest.raises(SingularGramError):
            dual_via_gram_inverse(overcomplete)

    @given(seed=st.integers(0, 500), dim=st.sampled_from([2, 3]))
    @example(seed=373, dim=3)  # cond(C) = 1.1e5: no double-precision dual is within 1e-8
    @settings(max_examples=25, deadline=None)
    def test_dual_route_agreement(self, seed, dim):
        # Each route against a 40-digit reference, within 4 d^2 cond(C) max|B_n| eps.
        # Over all 1,002 inputs drawn here the worst errors are 1.87 (SVD, at
        # (386, 2)) and 0.17 (Gram-Schmidt) times d^2 cond(C) max|B_n| eps.
        q = random_quorum(dim, dim * dim, seed)
        reference = reference_dual(q)
        c = q.coefficient_matrix()
        bound = 4 * dim**2 * np.linalg.cond(c) * max(map(hs_norm, reference)) * EPS
        for dual in (dual_via_gram_schmidt(q), dual_via_gram_inverse(q)):
            assert max(hs_norm(a - b) for a, b in zip(dual.elements, reference)) <= bound

    @pytest.mark.parametrize(
        "seed, dim", [(27, 2), (202, 2), (220, 2), (83, 3), (218, 3), (291, 3)]
    )
    def test_dual_route_agreement_ill_conditioned(self, seed, dim):
        # cond(C) from 1.1e3 to 2.7e4: a Gram dual whose error grows with
        # cond(C)^2 misses the 1e-8 bound on each of these
        q = random_quorum(dim, dim * dim, seed)
        dual_gs = dual_via_gram_schmidt(q)
        dual_gram = dual_via_gram_inverse(q)
        assert max(
            hs_norm(a - b) for a, b in zip(dual_gs.elements, dual_gram.elements)
        ) <= 1e-8

    def test_elimination_leaves_retained_duals_unchanged(self, rng):
        q = random_quorum(2, 4, seed=21)
        base = dual_via_gram_schmidt(q)
        combo = 0.3 * q.elements[0] - 1.7 * q.elements[2] + 0.4j * q.elements[3]
        extended = Quorum.from_elements(list(q.elements) + [combo])
        dual = dual_via_gram_schmidt(extended)
        assert dual.kept_mask == (True, True, True, True, False)
        for n in range(4):
            assert hs_norm(dual.elements[n] - base.elements[n]) <= 1e-9
        assert hs_norm(dual.elements[4]) <= 1e-12


class TestReproducingKernel:
    def test_pauli_pair(self):
        q, dual = pauli_quorum()
        assert reproducing_kernel_residual(q, dual) <= 1e-12

    def test_orthonormal_self_pair(self):
        q = Quorum.from_elements([SX / np.sqrt(2), SY / np.sqrt(2), SZ / np.sqrt(2), EYE2 / np.sqrt(2)])
        dual = dual_via_gram_inverse(q)
        assert reproducing_kernel_residual(q, dual) <= 1e-12

    def test_random_independent_pair(self):
        q = random_quorum(2, 4, seed=3)
        dual = dual_via_gram_inverse(q)
        assert reproducing_kernel_residual(q, dual) <= 1e-10

    def test_overcomplete_gram_schmidt_pair(self, rng):
        # every fourth element is followed by a combination of the previous
        # four, which the sweep drops; delta is then not symmetric
        independent = [random_hermitian(4, rng) for _ in range(16)]
        elements = []
        for k, c in enumerate(independent):
            elements.append(c)
            if k % 4 == 3:
                elements.append(sum(rng.uniform(-1, 1) * e for e in independent[k - 3:k + 1]))
        q = Quorum.from_elements(elements)
        dual = dual_via_gram_schmidt(q)
        assert sum(dual.kept_mask) == 16
        assert reproducing_kernel_residual(q, dual) <= 1e-10


MISALIGNED = [
    DualFrame.from_elements(pauli_quorum()[1].elements[:3]),
    DualFrame.from_elements([np.eye(3)] * 4),
]


@pytest.mark.parametrize("check", [reproducing_kernel_residual, verify_spanning_definitions])
@pytest.mark.parametrize("dual", MISALIGNED, ids=["short", "wrong-dim"])
def test_misaligned_pair_refused(check, dual):
    with pytest.raises(DimensionMismatchError, match="^quorum and dual frame do not align$"):
        check(pauli_quorum()[0], dual)


class TestSpanningDefinitions:
    def test_pauli_all_pass(self):
        q, dual = pauli_quorum()
        report = verify_spanning_definitions(q, dual, trials=50, seed=42)
        assert report.complete and report.definitions_agree
        assert all(chk.passed for chk in report.checks.values())
        assert report.checks["i"].residual <= 1e-10
        assert report.checks["iii"].residual <= 1e-10
        assert report.checks["iv"].residual <= 1e-10

    def test_incomplete_fails_consistently(self):
        q = Quorum.from_elements([SX, SY, SZ])
        dual = dual_via_gram_schmidt(q, allow_subspace=True)
        report = verify_spanning_definitions(q, dual, trials=20, seed=0)
        assert not report.complete and report.definitions_agree
        assert not any(chk.passed for chk in report.checks.values())
        assert np.abs(report.defect_witness - EYE2 / np.sqrt(2)).max() <= 1e-12

    def test_random_complete_d3(self):
        q = random_quorum(3, 9, seed=12)
        dual = dual_via_gram_inverse(q)
        report = verify_spanning_definitions(q, dual, trials=50, seed=1)
        assert report.complete and report.definitions_agree
        assert all(chk.residual <= 1e-9 for chk in report.checks.values())

    def test_frame_identity_whenever_complete(self):
        for seed in range(10):
            q = random_quorum(2, 6, seed)  # overcomplete, needs elimination
            assert completeness_check(q).complete
            dual = dual_via_gram_schmidt(q)
            s = superop_from_frame(q.elements, dual.elements)
            assert np.abs(s - np.eye(4)).max() <= 1e-10

    def test_parseval_sum_rule(self):
        q = random_quorum(3, 9, seed=8)
        dual = dual_via_gram_inverse(q)
        rng = np.random.default_rng(99)
        for _ in range(100):
            a = random_operator(3, rng)
            total = sum(
                hs_inner(a, c) * hs_inner(b, a)
                for c, b in zip(q.elements, dual.elements)
            )
            norm_sq = hs_norm(a) ** 2
            assert abs(total - norm_sq) <= 1e-9 * (1 + norm_sq)

    def test_reconstruction_bound(self):
        q = random_quorum(2, 4, seed=17)
        dual = dual_via_gram_inverse(q)
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_operator(2, rng)
            recon = sum(hs_inner(b, a) * c for c, b in zip(q.elements, dual.elements))
            assert hs_norm(a - recon) <= 1e-9 * (1 + hs_norm(a))


class TestQuorumType:
    def test_labels_default(self):
        q = Quorum.from_elements([SX, SY])
        assert q.labels == ("C_0", "C_1")

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Quorum.from_elements([SX, np.eye(3)])

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            Quorum.from_elements([])

    def test_elements_immutable(self):
        q = Quorum.from_elements([SX])
        with pytest.raises(ValueError):
            q.elements[0][0, 0] = 5.0

    def test_elements_are_one_readonly_stack(self):
        q, dual = pauli_quorum()
        wq = weigert_quorum(make_spin_system(1), tetrahedral_directions())
        for stack in (q.elements, dual.elements, wq.projectors, wq.dual.elements):
            assert isinstance(stack, np.ndarray)
            assert stack.shape == (4, 2, 2) and stack.dtype == complex
            assert not stack.flags.writeable
        c = q.coefficient_matrix()
        assert c.shape == (4, 4) and np.shares_memory(c, q.elements)

    def test_input_array_is_copied(self):
        ops = np.array([SX, SY, SZ, EYE2])
        q = Quorum.from_elements(ops)
        dual = DualFrame.from_elements(ops)
        ops[0, 0, 0] = 5.0
        assert ops.flags.writeable
        assert q.elements[0, 0, 0] == 0 and dual.elements[0, 0, 0] == 0


@pytest.mark.parametrize("make", [
    lambda: make_spin_system(1),
    lambda: coherent_state(make_spin_system(2), 0.5),
    lambda: pauli_quorum()[0],
    lambda: pauli_quorum()[1],
    lambda: completeness_check(Quorum.from_elements([SX, SY, SZ])),
], ids=["system", "state", "quorum", "dual", "report-with-witness"])
def test_array_values_compare_by_identity(make):
    # a field-wise == would ask an array for one truth value
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
