import dataclasses

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp

from fibrelab.eigensolve import DENSE_CUTOFF, SolveConfig, smallest_eigenpairs, verify_pairs
from fibrelab.errors import FactorizationFailed
from fibrelab.nodal import extract_nodal_set, field_from_operator
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry
from fibrelab.operators import DiscreteOperator, GridSpec, assemble_full, staggered_diff_periodic

TWO_PI = 2.0 * np.pi


def diag_operator(k_diag, w_diag, definite=True):
    k = sp.diags(np.asarray(k_diag, dtype=float)).tocsr()
    return DiscreteOperator(
        dim=len(k_diag), stiffness=k, weight=np.asarray(w_diag, dtype=float),
        positive_definite=definite,
    )


def warped_torus(amps=(0.3,)):
    return WarpedTorusGeometry(
        np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.0, amps), warp_is_exp=True
    )


def torus_operator(n=48, eps=0.3, order=2):
    return assemble_full(warped_torus(), eps, GridSpec(n, n, order))


def guide_operator():
    # dimension 48 * 16 = 768, above the dense cutoff: shift-invert ARPACK
    geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,)))
    return assemble_full(geom, 0.2, GridSpec(48, 17, 2))


both_paths = pytest.mark.parametrize("make_op", [torus_operator, guide_operator],
                                     ids=["torus", "guide"])


class TestSmallestEigenpairs:
    def test_diagonal_case(self):
        pairs = smallest_eigenpairs(diag_operator([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),
                                    SolveConfig(k=2))
        assert pairs.values == pytest.approx([1.0, 2.0], abs=1e-14)

    def test_generalized_diagonal_case(self):
        pairs = smallest_eigenpairs(diag_operator([2.0, 2.0], [1.0, 2.0]), SolveConfig(k=2))
        assert pairs.values == pytest.approx([1.0, 2.0], abs=1e-14)

    def test_periodic_laplacian_n4(self):
        d = staggered_diff_periodic(4, 1.0, 2)
        k = (d.T @ d).tocsr()
        op = DiscreteOperator(dim=4, stiffness=k, weight=np.ones(4))
        pairs = smallest_eigenpairs(op, SolveConfig(k=4))
        assert pairs.values == pytest.approx([0.0, 2.0, 2.0, 4.0], abs=1e-13)

    @both_paths
    def test_residuals_and_orthonormality(self, make_op):
        op = make_op()
        pairs = smallest_eigenpairs(op, SolveConfig(k=6, tol=1e-9, shift=-0.5))
        assert np.all(pairs.residuals <= 1e-9)
        gram = pairs.vectors.T @ (op.weight[:, None] * pairs.vectors)
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    @both_paths
    def test_rayleigh_quotient_sandwich(self, make_op):
        op = make_op()
        pairs = smallest_eigenpairs(op, SolveConfig(k=5, shift=-0.5))
        for lam, x in zip(pairs.values, pairs.vectors.T):
            rq = float(x @ (op.stiffness @ x)) / float(x @ (op.weight * x))
            assert abs(lam - rq) <= 1e-12 * abs(lam) + 1e-14

    @both_paths
    def test_deterministic_repeat(self, make_op):
        op = make_op()
        a = smallest_eigenpairs(op, SolveConfig(k=5, seed=7, shift=-0.5))
        b = smallest_eigenpairs(op, SolveConfig(k=5, seed=7, shift=-0.5))
        assert np.array_equal(a.values, b.values)
        signs = np.sign(np.sum(a.vectors * b.vectors, axis=0))
        assert np.array_equal(a.vectors * signs, b.vectors)

    @both_paths
    def test_shift_invariance_of_values(self, make_op):
        op = make_op()
        a = smallest_eigenpairs(op, SolveConfig(k=5, shift=-0.3))
        b = smallest_eigenpairs(op, SolveConfig(k=5, shift=-1.7))
        assert np.max(np.abs(a.values - b.values)) < 1e-9

    def test_closed_case_kernel_mode(self):
        op = torus_operator()
        pairs = smallest_eigenpairs(op, SolveConfig(k=3, tol=1e-8, shift=-0.5))
        assert abs(pairs.values[0]) <= 1e-8
        x0 = pairs.vectors[:, 0]
        x0 = x0 / np.max(np.abs(x0))
        spread = np.max(x0) - np.min(x0)
        assert spread <= 1e-6

    def test_singular_shift_fails_factorization(self):
        # integer diagonal makes K - 5 W exactly singular
        op = diag_operator(np.arange(1.0, 1001.0), np.ones(1000))
        with pytest.raises(FactorizationFailed):
            smallest_eigenpairs(op, SolveConfig(k=3, shift=5.0))

    def test_shift_inside_spectrum_fails_factorization(self):
        # shift-invert at a shift above lambda_1 would return the pairs nearest
        # the shift (here lambda_3..lambda_5) as if they were the smallest
        op = guide_operator()
        ref = dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True)
        with pytest.raises(FactorizationFailed):
            smallest_eigenpairs(op, SolveConfig(k=3, shift=0.5 * (ref[2] + ref[3])))

    def test_k_larger_than_dimension_rejected(self):
        with pytest.raises(ValueError):
            smallest_eigenpairs(diag_operator([1.0, 2.0], [1.0, 1.0]), SolveConfig(k=3))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(k=0)
        with pytest.raises(ValueError):
            SolveConfig(tol=0.0)
        for options in ({"max_iter": 0}, {"shift": float("nan")}, {"shift": -float("inf")}):
            with pytest.raises(ValueError):
                SolveConfig(**options)


def w_projector(vectors, weight):
    return vectors @ (vectors.T * weight[None, :])


class TestFiberFourier:
    """The separable torus path against a dense solve of the 2D pair (K, diag W)."""

    # orders 2 and 4, even and odd n_f (Nyquist mode or none); at these eps
    # fibre modes m != 0 interleave with the base levels of m = 0
    CASES = [(16, 16, 2, 0.7), (16, 17, 2, 0.6), (20, 16, 4, 0.5), (16, 19, 4, 0.9)]

    @staticmethod
    def oracle(op):
        return dla.eigh(op.stiffness.toarray(), np.diag(op.weight))

    @staticmethod
    def clusters(values):
        # near-degenerate levels share a cluster; its eigenspace is well conditioned
        breaks = np.flatnonzero(np.diff(values) > 1e-6 * np.maximum(1.0, np.abs(values[:-1])))
        return np.split(np.arange(len(values)), breaks + 1)

    @pytest.mark.parametrize("n_s,n_f,order,eps", CASES)
    def test_matches_dense_2d_solve(self, n_s, n_f, order, eps):
        op = assemble_full(warped_torus(), eps, GridSpec(n_s, n_f, order))
        ref_values, ref_vectors = self.oracle(op)
        for k in (1, 2, 7, 33, op.dim // 2, op.dim - 1):
            pairs = smallest_eigenpairs(op, SolveConfig(k=k))
            ref = ref_values[:k]
            assert np.all(np.abs(pairs.values - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
            for cluster in self.clusters(ref_values):
                if cluster[0] >= k:
                    break
                ref_p = w_projector(ref_vectors[:, cluster], op.weight)
                inside = cluster[cluster < k]
                ours = pairs.vectors[:, inside]
                if len(inside) == len(cluster):
                    got_p = w_projector(ours, op.weight)
                    assert np.max(np.abs(got_p - ref_p)) < 1e-8
                else:
                    # the k-th level splits a degenerate cluster: the vectors
                    # returned from it must still lie in its eigenspace
                    assert np.max(np.abs(ref_p @ ours - ours)) < 1e-8

    @pytest.mark.parametrize("n_s,n_f,order,eps", CASES)
    def test_fiber_labels(self, n_s, n_f, order, eps):
        op = assemble_full(warped_torus(), eps, GridSpec(n_s, n_f, order))
        pairs = smallest_eigenpairs(op, SolveConfig(k=op.dim - 1))
        modes = pairs.fiber_modes
        assert len(modes) == op.dim - 1
        # some m != 0 level sits below a base level of m = 0
        assert np.any(np.diff(modes[:16]) < 0)
        for m, x in zip(modes, pairs.vectors.T):
            grid = x.reshape(n_s, n_f)
            scale = np.max(np.abs(grid))
            if m == 0:
                assert np.max(np.ptp(grid, axis=1)) <= 1e-12 * scale
            else:
                assert np.max(np.abs(grid.mean(axis=1))) <= 1e-12 * scale
            power = np.abs(np.fft.rfft(grid, axis=1)) ** 2
            assert power[:, m].sum() >= (1.0 - 1e-12) * power.sum()

    def test_long_base_goes_through_arpack(self):
        # n_s above the dense cutoff: each base problem is a shift-invert solve;
        # the 2D shift-invert solve of the same operator is the reference
        op = assemble_full(warped_torus(), 0.6, GridSpec(640, 16, 2))
        pairs = smallest_eigenpairs(op, SolveConfig(k=10))
        assert set(pairs.fiber_modes) == {0, 1}
        ref = smallest_eigenpairs(dataclasses.replace(op, fiber_factors=None),
                                  SolveConfig(k=10))
        assert ref.fiber_modes is None
        assert np.all(np.abs(pairs.values - ref.values) <= 1e-10 * np.maximum(1.0, ref.values))

    def test_symmetric_warp_modes_have_nodal_sets(self):
        # odd modes of the reflection-symmetric warp vanish on the symmetry
        # row and sin(m t) on the row t = 0; returned with exact zeros there,
        # the nodal layer would reject them as degenerate fields
        op = assemble_full(warped_torus((0.3, 0.15)), 0.2, GridSpec(64, 64, 4))
        pairs = smallest_eigenpairs(op, SolveConfig(k=9))
        assert list(pairs.fiber_modes[-2:]) == [1, 1]
        for x in pairs.vectors.T:
            extract_nodal_set(field_from_operator(op, x))


def guide_operator_order4():
    # fourth-order stencil, dimension 40 * 20 = 800
    geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5, 0.25)))
    return assemble_full(geom, 0.3, GridSpec(40, 21, 4))


def closed_torus_operator():
    # the 2D periodic operator without its fibre factors: semidefinite K,
    # default shift -1, periodic wrap couplings in both grid directions
    return dataclasses.replace(torus_operator(n=32), fiber_factors=None)


def long_diagonal_operator():
    # band width 0; distinct values in a scrambled order
    rng = np.random.default_rng(3)
    return diag_operator(rng.permutation(np.arange(1.0, 1001.0)), rng.uniform(0.5, 2.0, 1000))


class TestShiftInvert:
    """The banded Cholesky shift-invert path against a dense solve of (K, diag W)."""

    @pytest.mark.parametrize("make_op,k", [
        (guide_operator, 6),
        (guide_operator_order4, 8),
        (closed_torus_operator, 7),
        (long_diagonal_operator, 5),
    ], ids=["guide", "guide_order4", "closed_torus", "diagonal"])
    def test_matches_dense_solve(self, make_op, k):
        op = make_op()
        assert op.dim > DENSE_CUTOFF and op.fiber_factors is None
        ref = dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True)[:k]
        pairs = smallest_eigenpairs(op, SolveConfig(k=k))
        assert np.all(np.abs(pairs.values - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
        gram = pairs.vectors.T @ (op.weight[:, None] * pairs.vectors)
        assert np.max(np.abs(gram - np.eye(k))) < 1e-10


class TestVerifyPairs:
    def test_exact_pairs_have_zero_residual(self):
        op = diag_operator([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        pairs = smallest_eigenpairs(op, SolveConfig(k=3))
        rep = verify_pairs(op, pairs)
        assert rep.max_residual < 1e-14
        assert rep.max_gram_offdiag < 1e-14

    def test_perturbation_grows_residual(self):
        op = diag_operator([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        pairs = smallest_eigenpairs(op, SolveConfig(k=3))
        pairs.vectors[:, 0] += 1e-3
        rep = verify_pairs(op, pairs)
        assert rep.max_residual > 1e-5

    def test_gram_is_identity_for_orthonormal_set(self):
        op = torus_operator(n=32)
        pairs = smallest_eigenpairs(op, SolveConfig(k=4, shift=-0.5))
        rep = verify_pairs(op, pairs)
        assert np.max(np.abs(rep.gram - np.eye(4))) < 1e-12

    def test_dimension_mismatch(self):
        op = diag_operator([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        pairs = smallest_eigenpairs(op, SolveConfig(k=2))
        other = diag_operator([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            verify_pairs(other, pairs)
