import concurrent.futures
import dataclasses
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as sla

import fibrelab.eigensolve as eigensolve_module
import fibrelab.study as study_module
from fibrelab.eigensolve import DENSE_CUTOFF, SolveConfig, smallest_eigenpairs
from fibrelab.errors import ConfigError, FactorizationFailed, NoConvergence
from fibrelab.nodal import extract_nodal_set, field_from_operator
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry
from fibrelab.operators import (
    BOUND_MARGIN,
    DiscreteOperator,
    GridSpec,
    _circulant_symbols,
    _staggered_int,
    assemble_effective,
    assemble_full,
    prolongate,
    staggered_diff_periodic,
)

from pair_checks import verify_pairs

TWO_PI = 2.0 * np.pi


def diag_operator(k_diag, w_diag):
    """``K = diag(k_diag)``, ``W = diag(w_diag)``, both positive: 0 is a safe shift."""
    k = sp.diags(np.asarray(k_diag, dtype=float)).tocsr()
    return DiscreteOperator(
        dim=len(k_diag), stiffness=k, weight=np.asarray(w_diag, dtype=float), safe_shift=0.0,
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
        op.safe_shift = -0.5
        pairs = smallest_eigenpairs(op, SolveConfig(k=6, tol=1e-9))
        assert np.all(pairs.residuals <= 1e-9)
        gram = pairs.vectors.T @ (op.weight[:, None] * pairs.vectors)
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    @both_paths
    def test_rayleigh_quotient_sandwich(self, make_op):
        op = make_op()
        op.safe_shift = -0.5
        pairs = smallest_eigenpairs(op, SolveConfig(k=5))
        for lam, x in zip(pairs.values, pairs.vectors.T):
            rq = float(x @ (op.stiffness @ x)) / float(x @ (op.weight * x))
            assert abs(lam - rq) <= 1e-12 * abs(lam) + 1e-14

    @pytest.mark.parametrize("make_op", [torus_operator, guide_operator,
                                         lambda: dataclasses.replace(torus_operator(n=16),
                                                                     fiber_factors=None)],
                             ids=["torus", "guide", "dense"])
    def test_one_product_per_returned_vector(self, make_op, monkeypatch):
        op = make_op()
        op.safe_shift = -0.5
        real = DiscreteOperator.apply
        shapes = []

        def counting_apply(self, x):
            if self is op:  # not the base problems of the torus path
                shapes.append(np.shape(x))
            return real(self, x)

        monkeypatch.setattr(DiscreteOperator, "apply", counting_apply)
        pairs = smallest_eigenpairs(op, SolveConfig(k=5))
        assert shapes == [(op.dim,)] * 5
        # that one product gives both the value and the residual of its vector:
        # the value is the vector's Rayleigh quotient, the residual its own
        with eigensolve_module.single_threaded_blas():
            for lam, x, res in zip(pairs.values, pairs.vectors.T, pairs.residuals):
                kx, wx = real(op, x), op.weight * x
                assert lam == pytest.approx(float(x @ kx) / float(x @ wx), rel=1e-14)
                assert res == pytest.approx(np.linalg.norm(kx - lam * wx) / np.linalg.norm(wx),
                                            rel=1e-14, abs=0)

    @both_paths
    def test_deterministic_repeat(self, make_op):
        op = make_op()
        op.safe_shift = -0.5
        a = smallest_eigenpairs(op, SolveConfig(k=5, seed=7))
        b = smallest_eigenpairs(op, SolveConfig(k=5, seed=7))
        assert np.array_equal(a.values, b.values)
        signs = np.sign(np.sum(a.vectors * b.vectors, axis=0))
        assert np.array_equal(a.vectors * signs, b.vectors)

    @both_paths
    def test_shift_invariance_of_values(self, make_op):
        op = make_op()
        op.safe_shift = -0.3
        a = smallest_eigenpairs(op, SolveConfig(k=5))
        op.safe_shift = -1.7
        b = smallest_eigenpairs(op, SolveConfig(k=5))
        assert np.max(np.abs(a.values - b.values)) < 1e-9

    def test_closed_case_kernel_mode(self):
        op = torus_operator()
        pairs = smallest_eigenpairs(op, SolveConfig(k=3, tol=1e-8))
        assert abs(pairs.values[0]) <= 1e-8
        x0 = pairs.vectors[:, 0]
        x0 = x0 / np.max(np.abs(x0))
        spread = np.max(x0) - np.min(x0)
        assert spread <= 1e-6

    def test_singular_shift_fails_factorization(self):
        # integer diagonal makes K - 5 W exactly singular
        op = diag_operator(np.arange(1.0, 1001.0), np.ones(1000))
        op.safe_shift = 5.0
        with pytest.raises(FactorizationFailed):
            smallest_eigenpairs(op, SolveConfig(k=3))

    def test_shift_inside_spectrum_fails_factorization(self):
        # shift-invert at a shift above lambda_1 would return the pairs nearest
        # the shift (here lambda_3..lambda_5) as if they were the smallest
        op = guide_operator()
        ref = dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True)
        op.safe_shift = 0.5 * (ref[2] + ref[3])
        with pytest.raises(FactorizationFailed):
            smallest_eigenpairs(op, SolveConfig(k=3))

    def test_default_shift_lies_below_an_indefinite_line_operator(self):
        # kappa = 1 + 2.5 cos s puts mu_0 near -1.81, below the -1 that suits a
        # semidefinite operator; above the dense cutoff the effective solve
        # shift-inverts at the shift its assembler states
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (2.5,)))
        eff = assemble_effective(geom, GridSpec(640, 16, 4))
        assert eff.dim > DENSE_CUTOFF
        ref = dla.eigh(eff.stiffness.toarray(), np.diag(eff.weight), eigvals_only=True)[:2]
        assert eff.safe_shift < ref[0] < -1.0

    def test_k_larger_than_dimension_rejected(self):
        with pytest.raises(ConfigError, match="requested 3 pairs from a dimension-2 operator"):
            smallest_eigenpairs(diag_operator([1.0, 2.0], [1.0, 1.0]), SolveConfig(k=3))

    def test_bad_config_rejected(self):
        for options in ({"k": 0}, {"tol": 0.0}, {"max_iter": 0}):
            with pytest.raises(ConfigError):
                SolveConfig(**options)

    def test_options_place_no_shift(self):
        # the shift-invert path solves at the operator's safe shift only
        assert [f.name for f in dataclasses.fields(SolveConfig)] == [
            "k", "tol", "max_iter", "seed"]
        with pytest.raises(TypeError):
            SolveConfig(shift=1.0)


class TestDenseBranch:
    def test_nearly_whole_spectrum_above_cutoff(self):
        # k > n - 2 routes a non-separable operator above the cutoff to the
        # dense solve instead of ARPACK
        op = guide_operator()
        assert op.fiber_factors is None and op.dim > DENSE_CUTOFF
        k = op.dim - 1
        pairs = smallest_eigenpairs(op, SolveConfig(k=k))
        full = dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True)
        assert np.max(np.abs(pairs.values - full[:k]) / np.abs(full[:k])) < 1e-12

    def test_small_waveguide_returns_the_subset_solve(self):
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5, 0.25)))
        op = assemble_full(geom, 0.2, GridSpec(32, 17, 4))
        assert op.fiber_factors is None and op.dim <= DENSE_CUTOFF
        pairs = smallest_eigenpairs(op, SolveConfig(k=6))
        # on one BLAS thread, as inside the solve: inverse iteration on two
        # threads moves the vectors by 3.5e-10 here
        with eigensolve_module.single_threaded_blas():
            values, vectors = dla.eigh(op.stiffness.toarray(), np.diag(op.weight),
                                       subset_by_index=[0, 5])
        assert np.max(np.abs(pairs.values - values) / np.abs(values)) < 1e-13
        signs = np.sign(np.sum(pairs.vectors * vectors, axis=0))
        assert np.max(np.abs(pairs.vectors * signs - vectors)) < 1e-14


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

    def test_base_problems_go_through_the_dispatcher(self, monkeypatch):
        # each fibre mode's n_s-dimensional base problem is a call of
        # smallest_eigenpairs, looked up in its own module, so its residuals
        # are certified like those of the full pairs; the base problems are
        # eps-free, their values mu = lambda / eps^2
        eps = 0.6
        op = assemble_full(warped_torus(), eps, GridSpec(20, 16, 4))
        cfg = SolveConfig(k=12, tol=1e-9)
        eigensolve_module._base_pairs.cache_clear()  # solve, do not recall
        real = eigensolve_module.smallest_eigenpairs
        base_calls = []

        def spy(sub, sub_cfg):
            pairs = real(sub, sub_cfg)
            if sub is not op:
                base_calls.append((sub, sub_cfg, pairs))
            return pairs

        monkeypatch.setattr(eigensolve_module, "smallest_eigenpairs", spy)
        pairs = eigensolve_module.smallest_eigenpairs(op, cfg)
        assert len(base_calls) >= len(set(pairs.fiber_modes)) > 1
        base_values = []
        for sub, sub_cfg, sub_pairs in base_calls:
            assert sub.dim == 20 and sub.fiber_factors is None
            assert sub_cfg == dataclasses.replace(cfg, k=sub_cfg.k)
            assert np.all(sub_pairs.residuals <= cfg.tol)
            base_values.extend(eps * eps * sub_pairs.values)
        for value in pairs.values:
            assert np.min(np.abs(np.asarray(base_values) - value)) <= 1e-12 * max(1.0, value)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("exp", [False, True], ids=["plain", "exp"])
    def test_fibre_constant_levels_scale_as_eps_squared(self, order, exp):
        # K = eps A + B / eps and W = W_0 / eps with B x = 0 on fibre-constant
        # x, so those levels are eps^2 times eps-free ones; the dense 2D
        # solve, without the factors or the memo, measures them
        geom = WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(
            TWO_PI, 0.0 if exp else 1.0, (0.3,)), warp_is_exp=exp)
        levels = []
        for eps in (0.3, 0.1):
            op = dataclasses.replace(assemble_full(geom, eps, GridSpec(20, 16, order)),
                                     fiber_factors=None)
            pairs = smallest_eigenpairs(op, SolveConfig(k=24))
            grid = pairs.vectors.T.reshape(-1, 20, 16)
            constant = np.ptp(grid, axis=2).max(axis=1) <= 1e-8 * np.abs(grid).max(axis=(1, 2))
            levels.append(pairs.values[constant] / (eps * eps))
        n = len(levels[0])
        assert n >= 10
        assert np.max(np.abs(levels[1][:n] - levels[0])) <= 1e-10

    def test_memoized_base_pairs_are_read_only(self):
        op = torus_operator(n=24)
        values, vectors = eigensolve_module._base_pairs(op.fiber_factors, 0.0, SolveConfig(k=4))
        for a in (values, vectors):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

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

    @pytest.mark.parametrize("margin", [0.5, 1e-3])
    def test_shift_just_below_ground_matches_dense_solve(self, margin):
        # a study's shift, the fibre-block bound, lies 0.25-0.5 eps^2 below
        # lambda_1; the factor must exist however close below it the shift lies
        op = guide_operator()
        ref = dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True)[:8]
        op.safe_shift = ref[0] - margin * op.eps**2
        pairs = smallest_eigenpairs(op, SolveConfig(k=8))
        assert np.all(np.abs(pairs.values - ref) <= 1e-10 * ref)

    def test_shift_just_above_ground_fails_factorization(self):
        op = guide_operator()
        ref = dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True)
        op.safe_shift = ref[0] + 1e-3 * op.eps**2
        with pytest.raises(FactorizationFailed):
            smallest_eigenpairs(op, SolveConfig(k=8))

    @pytest.mark.parametrize("k,warm,ncv", [
        pytest.param(k, warm, ncv, id=("warm-" if warm else "") + f"{k}-{ncv}")
        for k, warm, ncv in [(3, False, 20), (8, False, 20), (12, False, 28),
                             (2, True, 14), (3, True, 14), (4, True, 20), (8, True, 20),
                             (12, True, 28)]
    ])
    def test_krylov_basis_size(self, monkeypatch, k, warm, ncv):
        op = guide_operator()
        start = smallest_eigenpairs(op, SolveConfig(k=k)).vectors if warm else None
        seen = []
        real = sla.eigsh

        def spy(*args, **kwargs):
            seen.append(kwargs["ncv"])
            return real(*args, **kwargs)

        monkeypatch.setattr(sla, "eigsh", spy)
        smallest_eigenpairs(op, SolveConfig(k=k), start=start)
        assert seen == [ncv]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_start_vector(self, monkeypatch, seed):
        # no start: the seeded random vector and the cold basis, as before
        # starts existed; a start adds its W-normalized column sum at equal norm
        seen = []
        real = sla.eigsh

        def spy(*args, **kwargs):
            seen.append((kwargs["v0"].copy(), kwargs["ncv"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(sla, "eigsh", spy)
        op = guide_operator()
        cold = smallest_eigenpairs(op, SolveConfig(k=3, seed=seed))
        warm = smallest_eigenpairs(op, SolveConfig(k=3, seed=seed),
                                   start=2.0 * cold.vectors[:, :2])
        noise = np.random.default_rng(seed).standard_normal(op.dim)
        assert np.array_equal(seen[0][0], noise) and seen[0][1] == 20
        guess = cold.vectors[:, 0] + cold.vectors[:, 1]
        expected = noise + guess * (np.linalg.norm(noise) / np.linalg.norm(guess))
        assert np.allclose(seen[1][0], expected, rtol=1e-14, atol=1e-14)
        assert seen[1][1] == 14
        assert np.all(np.abs(warm.values - cold.values) <= 1e-12 * cold.values)

    def test_one_restart_is_too_few(self):
        # one restart converges 11 of the 16 pairs
        with pytest.raises(NoConvergence, match=r"^ARPACK did not converge: .*No convergence"):
            smallest_eigenpairs(guide_operator(), SolveConfig(k=16, max_iter=1))

    def test_arpack_error_is_no_convergence(self, monkeypatch):
        # an ARPACK failure other than non-convergence is reported as one too
        def failing(*args, **kwargs):
            raise sla.ArpackError(-9)

        monkeypatch.setattr(eigensolve_module.sla, "eigsh", failing)
        with pytest.raises(NoConvergence, match=r"^ARPACK failed: ARPACK error -9"):
            smallest_eigenpairs(guide_operator(), SolveConfig(k=6))

    def test_injected_start_shortens_the_refined_solve(self, monkeypatch):
        # GUIDE_J1's geometry one level down: the base grid's pairs, injected
        # onto the 128 x 192 grid (24 448 dofs), start its solve; measured 15
        # shift-invert solves against 21 from a cold start
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5, 0.25)))
        base, fine = GridSpec(64, 96, 4), GridSpec(128, 192, 4)
        solves = {}  # factor -> its solves, in the order of the first solve
        real = eigensolve_module._TwoSidedBand.solve

        def counted(factor, x):
            solves[factor] = solves.get(factor, 0) + 1
            return real(factor, x)

        monkeypatch.setattr(eigensolve_module._TwoSidedBand, "solve", counted)

        def solve(grid, start=None):
            op = assemble_full(geom, 0.1, grid)
            return smallest_eigenpairs(op, SolveConfig(k=3), start=start)

        coarse = solve(base)
        warm = solve(fine, start=prolongate(base, coarse.vectors, fine))
        cold = solve(fine)
        solves = list(solves.values())
        assert len(solves) == 3 and solves[1] < solves[2]
        assert np.all(np.abs(warm.values - cold.values) <= 1e-12 * cold.values)

    @pytest.mark.parametrize("path", ["fiber_fourier", "dense"])
    def test_start_is_ignored_off_the_shift_invert_path(self, path):
        op = torus_operator(n=16)
        if path == "dense":
            op = dataclasses.replace(op, fiber_factors=None)
        start = np.random.default_rng(1).standard_normal((op.dim, 3))
        cold = smallest_eigenpairs(op, SolveConfig(k=3))
        warm = smallest_eigenpairs(op, SolveConfig(k=3), start=start)
        assert np.array_equal(warm.values, cold.values)
        assert np.array_equal(warm.vectors, cold.vectors)


def random_band(n, b, seed=0):
    """A random symmetric positive definite matrix, dense within half-bandwidth ``b``."""
    rng = np.random.default_rng(seed)
    offdiag = [rng.uniform(-1.0, 1.0, n - d) for d in range(1, b + 1)]
    diag = 2.0 * b + 1.0 + rng.uniform(0.0, 1.0, n)
    return sp.diags([*offdiag[::-1], diag, *offdiag], range(-b, b + 1), format="csr")


def lower_band(a, b):
    """``a``'s lower band in LAPACK storage, for ``cholesky_banded(lower=True)``."""
    dense = a.toarray()
    n = len(dense)
    band = np.zeros((b + 1, n))
    for d in range(b + 1):
        band[d, :n - d] = np.diag(dense, -d)
    return band


class InlineWorker:
    """An executor that runs every task at once on the calling thread."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def band_operator(a):
    # the shift-invert path, at a shift of 0: K - 0 W = a
    return DiscreteOperator(dim=a.shape[0], stiffness=a.tocsr(), weight=np.ones(a.shape[0]),
                            safe_shift=0.0)


class TestTwoSidedBand:
    """The two-sided band Cholesky factor against LAPACK's whole-band one."""

    @pytest.mark.parametrize("n,b", [
        (40, 0), (41, 0), (40, 1), (41, 1), (40, 2), (41, 2), (40, 7), (41, 7),
        (39, 13), (40, 13), (1, 0), (2, 1), (4, 3), (5, 3), (6, 4), (9, 4),
    ])
    def test_solution_matches_the_whole_band_solve(self, n, b):
        # the last cases leave halves shorter than b, or empty
        a = random_band(n, b, seed=n + 100 * b)
        factor = eigensolve_module._TwoSidedBand(a)
        assert factor.separator.shape == (b, b)
        assert [len(i) for i in factor.index] == [(n - b) // 2, b, n - b - (n - b) // 2]
        whole = dla.cholesky_banded(lower_band(a, b), lower=True)
        rhs = np.random.default_rng(n).standard_normal((n, 3))
        for x in rhs.T:
            ref = dla.cho_solve_banded((whole, True), x)
            got = factor.solve(x)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def solve_fails(self, a):
        with pytest.raises(FactorizationFailed):
            smallest_eigenpairs(band_operator(a), SolveConfig(k=3))

    @pytest.mark.parametrize("half", [0, 2], ids=["first", "second"])
    def test_indefinite_half_fails_factorization(self, half):
        n, b = 700, 5
        a = random_band(n, b)
        index = eigensolve_module._TwoSidedBand(a).index
        # one negative diagonal entry inside the half; the pattern, and so
        # the split, stays that of the definite matrix
        dense = a.toarray()
        dense[index[half][0], index[half][0]] = -1.0
        for part in (0, 2):
            block = dense[np.ix_(index[part], index[part])]
            assert (np.linalg.eigvalsh(block)[0] > 0.0) == (part != half)
        self.solve_fails(sp.csr_matrix(dense))

    def test_indefinite_schur_complement_fails_factorization(self):
        n, b = 700, 5
        a = random_band(n, b)
        i1, i_s, i2 = eigensolve_module._TwoSidedBand(a).index
        dense = a.toarray()
        rest = np.concatenate([i1, i2])
        schur = dense[np.ix_(i_s, i_s)] - dense[np.ix_(i_s, rest)] @ np.linalg.solve(
            dense[np.ix_(rest, rest)], dense[np.ix_(rest, i_s)])
        lowest = np.linalg.eigvalsh(schur)[0]
        assert lowest > 0.0
        # lowering S's diagonal leaves both halves as they were
        dense[i_s, i_s] -= 1.5 * lowest
        assert np.linalg.eigvalsh(dense)[0] < 0.0
        self.solve_fails(sp.csr_matrix(dense))

    def test_threaded_run_is_bitwise_the_inline_run(self, monkeypatch):
        # wide enough that dpbtrf takes its blocked path
        a = random_band(3001, 40)
        x = np.random.default_rng(5).standard_normal(3001)
        threaded = eigensolve_module._TwoSidedBand(a)
        solved = threaded.solve(x)
        monkeypatch.setattr(eigensolve_module, "_band_worker", InlineWorker)
        inline = eigensolve_module._TwoSidedBand(a)
        for got, ref in zip([*threaded.bands, *threaded.coupling, threaded.separator,
                             solved],
                            [*inline.bands, *inline.coupling, inline.separator,
                             inline.solve(x)]):
            assert np.array_equal(got, ref)

    def test_torus_and_import_start_no_thread(self):
        # the band worker starts at the first shift-invert solve and not
        # before; the torus and dense paths never reach it
        script = textwrap.dedent("""
            import threading
            before = threading.active_count()
            import fibrelab
            from fibrelab.eigensolve import SolveConfig, smallest_eigenpairs
            from fibrelab.geometry import PeriodicProfile, WaveguideGeometry
            from fibrelab.operators import GridSpec, assemble_full
            from fibrelab.study import load_config, run_study
            after_import = threading.active_count()
            raw = {"geometry": {"type": "warped_torus", "L": 3.141592653589793,
                                "fiber_length": 6.283185307179586,
                                "warp": {"cos": [0.3, 0.15], "exp": True}},
                   "epsilons": [0.4, 0.3, 0.2],
                   "grid": {"n_s": 24, "n_f": 16, "stencil_order": 2},
                   "study": {"mode_index": 1}}
            report = run_study(load_config(raw))
            after_study = threading.active_count()
            geom = WaveguideGeometry(6.283185307179586,
                                     PeriodicProfile(6.283185307179586, 1.0, (0.5,)))
            smallest_eigenpairs(assemble_full(geom, 0.2, GridSpec(48, 17, 2)), SolveConfig(k=3))
            names = sorted(t.name for t in threading.enumerate())
            print(before, after_import, after_study, len(report.records), names)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                        env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120, check=True).stdout.split(maxsplit=4)
        assert out[:4] == ["1", "1", "1", "3"]
        assert out[4].strip() == "['MainThread', 'fibrelab-band_0']"


class TestSeparatedAnnulus:
    """The shift-invert path at production size against an exact separation.

    A constant-curvature waveguide, an annulus, has coefficients that do not
    depend on s, so ``K = L_s ⊗ C + I ⊗ K_f`` and ``W = 1 ⊗ w`` with the
    circulant ``L_s = d_s^T d_s``.  Each s-Fourier mode m then leaves the
    problem ``(sigma_m C + K_f) x = lambda diag(w) x`` of size ``n_f - 1``,
    once for m = 0 and the Nyquist mode and twice, as ``cos`` and ``sin``
    of ``m s``, for every other m.  ``C`` is positive, so the levels of a
    mode rise with ``sigma_m``, which rises with m up to the Nyquist mode:
    the walk over m stops at the first mode whose lowest level lies above
    the K-th level found.
    """

    # GUIDE_J1's levels: 128 x 191 = 24 448 and 256 x 383 = 98 048 dofs
    GRIDS = {"base": GridSpec(128, 192, 4), "refined": GridSpec(256, 384, 4)}
    EPS, K = 0.1, 10

    def separate(self, grid):
        """The operator and its K lowest separated levels ``(value, m, x)``; asserts
        that ``K`` and ``W`` separate exactly, and that the safe shift, the
        fibre-block bound, is exact here up to its margin."""
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0))
        op = assemble_full(geom, self.EPS, grid)
        n_rows = grid.n_f - 1
        # C and K_f from the blocks of the first block row; the rows of L_s sum to 0
        d_s, _ = _staggered_int(grid.n_s, grid.stencil_order, periodic=True)
        l_s = (d_s.T @ d_s).tocsr()
        row0 = op.stiffness[:n_rows].tocoo()
        block, col = np.divmod(row0.col, n_rows)
        k_f = sp.coo_matrix((row0.data, (row0.row, col)), shape=(n_rows, n_rows)).toarray()
        c = np.zeros(n_rows)
        c[row0.row[block == 1]] = row0.data[block == 1] / l_s[0, 1]
        assert np.array_equal(row0.row[block == 1], col[block == 1])
        w = op.weight[:n_rows]
        assert np.array_equal(op.weight, np.tile(w, grid.n_s))
        rebuilt = sp.kron(l_s, sp.diags(c)) + sp.kron(sp.identity(grid.n_s), k_f)
        assert abs(rebuilt - op.stiffness).max() <= 1e-14 * abs(op.stiffness).max()

        levels = []  # (value, m, x), the K smallest
        symbols = _circulant_symbols(grid.n_s, grid.stencil_order, grid.n_s // 2)
        assert np.all(np.diff(symbols) > 0.0)
        for m, sigma in enumerate(symbols):
            values, vectors = dla.eigh(sigma * np.diag(c) + k_f, np.diag(w),
                                       subset_by_index=[0, self.K - 1])
            if len(levels) == self.K and values[0] > levels[-1][0]:
                break
            copies = 1 if m in (0, grid.n_s // 2) else 2
            levels += [(value, m, x) for value, x in zip(values, vectors.T)] * copies
            levels = sorted(levels, key=lambda level: level[:2])[:self.K]
        # lambda_1 is the m = 0 level, whose K_s term vanishes: the fibre-block
        # bound equals it up to round-off (measured within 2e-11), and the safe
        # shift lies its margin below
        lam1 = levels[0][0]
        margin = BOUND_MARGIN * max(1.0, lam1)
        assert 0.0 < lam1 - op.safe_shift <= margin * (1.0 + 1e-2)
        return op, levels

    @pytest.fixture(scope="class")
    def annulus(self):
        return self.separate(self.GRIDS["base"])

    @pytest.fixture(scope="class")
    def annulus_pairs(self, annulus):
        op, _ = annulus
        return smallest_eigenpairs(op, SolveConfig(k=self.K))

    def check_modes(self, op, levels, pairs, n_s):
        """The K values to 1e-10 relative, and each vector in its mode's eigenspace."""
        assert [m for _, m, _ in levels] == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5]
        ref = np.array([value for value, _, _ in levels])
        assert np.max(np.abs(pairs.values - ref) / ref) < 1e-10
        # each vector lies in the eigenspace of its mode: x ⊗ cos, and x ⊗ sin for m != 0
        phase = TWO_PI * np.arange(n_s) / n_s
        for (_, m, x), ours in zip(levels, pairs.vectors.T):
            waves = [np.cos(m * phase)] + ([np.sin(m * phase)] if m else [])
            space = np.column_stack([np.outer(wave, x).ravel() for wave in waves])
            weighted = op.weight[:, None] * space
            coef = np.linalg.solve(space.T @ weighted, weighted.T @ ours)
            rest = ours - space @ coef
            assert np.sqrt(rest @ (op.weight * rest)) < 1e-8

    def test_matches_the_separated_modes(self, annulus, annulus_pairs):
        op, levels = annulus
        assert op.dim == 24448
        self.check_modes(op, levels, annulus_pairs, self.GRIDS["base"].n_s)

    def test_refined_solve_started_by_injection(self, annulus_pairs):
        # the study's refined level: 98 048 dofs, started from the base
        # level's pairs injected onto its grid
        base, refined = self.GRIDS["base"], self.GRIDS["refined"]
        op, levels = self.separate(refined)
        assert op.dim == 98048
        start = prolongate(base, annulus_pairs.vectors, refined)
        pairs = smallest_eigenpairs(op, SolveConfig(k=self.K), start=start)
        self.check_modes(op, levels, pairs, refined.n_s)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_misleading_start_still_finds_the_smallest(self, annulus, seed):
        # the start is levels 3-5 exactly (m = 2 cos, sin and m = 3 cos),
        # W-orthogonal to the three wanted levels; only the seeded random
        # half of the start vector reaches those
        op, levels = annulus
        n_s = self.GRIDS["base"].n_s
        phase = TWO_PI * np.arange(n_s) / n_s
        start = np.column_stack([np.outer(wave(m * phase), x).ravel() for (_, m, x), wave
                                 in zip(levels[3:6], (np.cos, np.sin, np.cos))])
        assert [m for _, m, _ in levels[3:6]] == [2, 2, 3]
        ref = np.array([value for value, _, _ in levels[:3]])
        pairs = smallest_eigenpairs(op, SolveConfig(k=3, seed=seed), start=start)
        assert np.max(np.abs(pairs.values - ref) / ref) < 1e-10


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
        pairs = smallest_eigenpairs(op, SolveConfig(k=4))
        rep = verify_pairs(op, pairs)
        assert np.max(np.abs(rep.gram - np.eye(4))) < 1e-12

    def test_dimension_mismatch(self):
        op = diag_operator([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        pairs = smallest_eigenpairs(op, SolveConfig(k=2))
        other = diag_operator([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            verify_pairs(other, pairs)


def blas_threads():
    return [get() for get, _ in eigensolve_module._openblas_thread_controls()]


@pytest.fixture
def two_blas_threads():
    """Every discovered OpenBLAS at two threads for the test, as found afterwards."""
    controls = eigensolve_module._openblas_thread_controls()
    found = blas_threads()
    for _, set_ in controls:
        set_(2)
    yield len(controls)
    for (_, set_), count in zip(controls, found):
        set_(count)


def small_study_config():
    return study_module.load_config({
        "geometry": {"type": "warped_torus", "L": np.pi, "fiber_length": TWO_PI,
                     "warp": {"constant": 0.0, "cos": [0.3], "sin": [], "exp": True}},
        "epsilons": [0.4, 0.3],
        "grid": {"n_s": 24, "n_f": 16, "stencil_order": 2, "refine": 2},
        "solver": {"k": 4},
        "study": {"mode_index": 0, "checks": []},
    })


class TestSingleThreadedBlas:
    """The scope that holds OpenBLAS at one thread for a solve or a study."""

    def test_discovery_finds_the_bundled_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy is built against {blas.get('name')}, not scipy-openblas")
        # without this the fast path could vanish silently
        assert len(eigensolve_module._openblas_thread_controls()) >= 1

    def test_every_library_at_one_thread_inside(self, two_blas_threads):
        with eigensolve_module.single_threaded_blas() as held:
            assert held == two_blas_threads
            assert blas_threads() == [1] * held
        assert blas_threads() == [2] * held

    def test_outermost_exit_restores(self, two_blas_threads):
        with eigensolve_module.single_threaded_blas():
            with eigensolve_module.single_threaded_blas():
                pass
            assert blas_threads() == [1] * two_blas_threads
        assert blas_threads() == [2] * two_blas_threads

    def test_exception_restores(self, two_blas_threads):
        with pytest.raises(RuntimeError):
            with eigensolve_module.single_threaded_blas():
                raise RuntimeError("body failed")
        assert blas_threads() == [2] * two_blas_threads

    def test_concurrent_scopes_restore_once(self, two_blas_threads):
        # more threads than cores, switching often: a lost update of the
        # shared depth would restore inside a live scope or never restore
        inside = []

        def enter_many():
            for _ in range(200):
                with eigensolve_module.single_threaded_blas():
                    with eigensolve_module.single_threaded_blas():
                        inside.extend(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_many) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert inside == [1] * (6 * 200 * two_blas_threads)
        assert eigensolve_module._blas_depth == 0
        assert blas_threads() == [2] * two_blas_threads

    def test_solve_runs_single_threaded(self, monkeypatch, two_blas_threads):
        seen = []
        real = DiscreteOperator.apply

        def spy(*args):
            seen.extend(blas_threads())
            return real(*args)

        monkeypatch.setattr(DiscreteOperator, "apply", spy)
        smallest_eigenpairs(guide_operator(), SolveConfig(k=3))
        # one product K x per returned vector
        assert seen == [1] * (3 * two_blas_threads)
        assert blas_threads() == [2] * two_blas_threads

    def test_study_runs_single_threaded_and_restores(self, monkeypatch, two_blas_threads):
        seen = []
        real = study_module.measure_discrepancy

        def spy(*args):
            seen.extend(blas_threads())
            return real(*args)

        monkeypatch.setattr(study_module, "measure_discrepancy", spy)
        report = study_module.run_study(small_study_config())
        # measure_discrepancy runs outside the solves, once per eps and grid level
        assert not report.failures
        assert seen == [1] * (4 * two_blas_threads)
        assert report.timings["blas_single_threaded"] == two_blas_threads
        assert blas_threads() == [2] * two_blas_threads

    def test_nothing_found_is_a_no_op(self, monkeypatch):
        found = blas_threads()
        monkeypatch.setattr(eigensolve_module, "_openblas_thread_controls", lambda: ())
        with eigensolve_module.single_threaded_blas() as held:
            assert held == 0
        pairs = smallest_eigenpairs(torus_operator(n=32), SolveConfig(k=4))
        assert np.all(pairs.residuals <= 1e-8)
        report = study_module.run_study(small_study_config())
        assert not report.failures and report.timings["blas_single_threaded"] == 0
        monkeypatch.undo()
        assert blas_threads() == found
