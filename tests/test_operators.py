import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from fibrelab.eigensolve import SolveConfig, smallest_eigenpairs
from fibrelab.errors import GridTooCoarse, TubeDegenerate
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry
from fibrelab.operators import (
    BOUND_MARGIN,
    FiberFactors,
    GridSpec,
    _circulant_symbols,
    _fiber_blocks,
    _fiber_ground,
    _form_matrix,
    _staggered_int,
    assemble_effective,
    assemble_full,
    base_nodes,
    dirichlet_ground_value,
    fiber_nodes,
    prolongate,
    staggered_diff_periodic,
)
from fibrelab.report import write_coordinate_triplets

TWO_PI = 2.0 * np.pi


def flat_torus():
    return WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 1.0))


def warped_torus():
    return WarpedTorusGeometry(
        np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.0, (0.3,)), warp_is_exp=True
    )


def plain_warped_torus():
    return WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.3,)))


def straight_guide():
    return WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 0.0))


def round_guide():
    return WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0))


def periodic_symbols(n, h, order):
    d = staggered_diff_periodic(n, h, order)
    k = (d.T @ d).toarray() * h
    return np.sort(np.linalg.eigvalsh(k / h))


class TestStaggeredDifferences:
    @pytest.mark.parametrize("order,expected_rate", [(2, 2.0), (4, 4.0)])
    def test_flux_accuracy_order(self, order, expected_rate):
        errs = []
        ns = (32, 64, 128)
        for n in ns:
            h = TWO_PI / n
            s = np.arange(n) * h
            d = staggered_diff_periodic(n, h, order)
            approx = d @ np.sin(s)
            exact = np.cos(s + 0.5 * h)
            errs.append(np.max(np.abs(approx - exact)))
        slope = np.polyfit(np.log([TWO_PI / n for n in ns]), np.log(errs), 1)[0]
        assert slope == pytest.approx(expected_rate, abs=0.3)

    @pytest.mark.parametrize("n,order,periodic,expected", [
        (5, 2, True, [[-1, 1, 0, 0, 0],
                      [0, -1, 1, 0, 0],
                      [0, 0, -1, 1, 0],
                      [0, 0, 0, -1, 1],
                      [1, 0, 0, 0, -1]]),
        # on four nodes the order-4 stencil wraps round the whole circle
        (4, 4, True, [[-27, 27, -1, 1],
                      [1, -27, 27, -1],
                      [-1, 1, -27, 27],
                      [27, -1, 1, -27]]),
        (6, 4, True, [[-27, 27, -1, 0, 0, 1],
                      [1, -27, 27, -1, 0, 0],
                      [0, 1, -27, 27, -1, 0],
                      [0, 0, 1, -27, 27, -1],
                      [-1, 0, 0, 1, -27, 27],
                      [27, -1, 0, 0, 1, -27]]),
        # four cells, three interior nodes: the wall columns are dropped
        (4, 2, False, [[1, 0, 0],
                       [-1, 1, 0],
                       [0, -1, 1],
                       [0, 0, -1]]),
    ])
    def test_stencil_matches_explicit_matrix(self, n, order, periodic, expected):
        d, denom = _staggered_int(n, order, periodic)
        assert denom == {2: 1.0, 4: 24.0}[order]
        assert np.array_equal(d.toarray(), np.array(expected, dtype=float))
        if periodic:
            scaled = staggered_diff_periodic(n, 0.5, order).toarray()
            assert np.array_equal(scaled, np.array(expected) / (denom * 0.5))

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("n", [4, 5, 16, 17])
    def test_circulant_symbols_are_the_spectrum(self, n, order):
        # each mode 0 < m < n/2 is the symbol of the pair cos, sin
        sym = _circulant_symbols(n, order, n // 2)
        d = _staggered_int(n, order, periodic=True)[0].toarray()
        expected = np.sort(np.linalg.eigvalsh(d.T @ d))
        got = np.sort(np.concatenate([sym, sym[1:(n + 1) // 2]]))
        assert sym[0] == 0.0
        assert np.max(np.abs(got - expected)) <= 1e-12 * expected.max()

    def test_constant_kernel_of_assembled_operator(self):
        for order in (2, 4):
            op = assemble_full(warped_torus(), 0.4, GridSpec(24, 24, order))
            resid = np.max(np.abs(op.stiffness @ np.ones(op.dim)))
            assert resid <= 1e-12 * np.abs(op.stiffness.data).max()


class TestFullAssembly:
    def test_symmetry_is_exact(self):
        for geom, grid in (
            (warped_torus(), GridSpec(32, 32, 4)),
            (round_guide(), GridSpec(32, 32, 2)),
        ):
            op = assemble_full(geom, 0.2, grid)
            assert op.symmetry_defect() == 0.0

    def test_closed_constant_kernel_exact(self):
        op = assemble_full(warped_torus(), 0.3, GridSpec(32, 32, 4))
        resid = np.max(np.abs(op.stiffness @ np.ones(op.dim)))
        assert resid <= 1e-12 * np.abs(op.stiffness.data).max()

    @pytest.mark.parametrize("order", [2, 4])
    def test_flat_tensor_exactness(self, order):
        geom = flat_torus()
        grid = GridSpec(64, 64, order)
        h = TWO_PI / 64
        sym = periodic_symbols(64, h, order)
        for eps in (0.5, 0.25):
            tensor = np.sort((eps**2 * sym[:, None] + sym[None, :]).ravel())[:10]
            op = assemble_full(geom, eps, grid)
            pairs = smallest_eigenpairs(op, SolveConfig(k=10))
            assert np.max(np.abs(pairs.values - tensor)) < 1e-10

    def test_flat_smallest_four_closed_form(self):
        # eps=0.5: {0, 0.25*sym1, 0.25*sym1, 0.25*sym2} with symk the
        # second-order periodic symbols on 64 points
        h = TWO_PI / 64
        sym1 = (2.0 - 2.0 * np.cos(TWO_PI / 64)) / h**2
        sym2 = (2.0 - 2.0 * np.cos(2.0 * TWO_PI / 64)) / h**2
        op = assemble_full(flat_torus(), 0.5, GridSpec(64, 64, 2))
        pairs = smallest_eigenpairs(op, SolveConfig(k=4))
        expected = np.array([0.0, 0.25 * sym1, 0.25 * sym1, 0.25 * sym2])
        assert np.max(np.abs(pairs.values - expected)) < 1e-10

    def test_straight_guide_ground_matches_closed_form_and_limit(self):
        geom = straight_guide()
        values = []
        for n in (32, 64, 128):
            op = assemble_full(geom, 0.3, GridSpec(32, n))
            op.safe_shift = 1.0
            pairs = smallest_eigenpairs(op, SolveConfig(k=1))
            assert pairs.values[0] == pytest.approx(dirichlet_ground_value(n), rel=1e-11)
            values.append(pairs.values[0])
        errs = [abs(v - np.pi**2 / 4.0) for v in values]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] == pytest.approx(0.0, abs=2e-4)

    def test_straight_guide_tensor_structure(self):
        geom = straight_guide()
        n_s, n_f = 32, 32
        grid = GridSpec(n_s, n_f)
        eps = 0.2
        h_s = TWO_PI / n_s
        sym_s = periodic_symbols(n_s, h_s, 2)
        h_f = 2.0 / n_f
        sym_f = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n_f) / n_f)) / h_f**2
        tensor = np.sort((eps**2 * sym_s[:, None] + sym_f[None, :]).ravel())[:8]
        op = assemble_full(geom, eps, grid)
        op.safe_shift = 1.0
        pairs = smallest_eigenpairs(op, SolveConfig(k=8))
        assert np.max(np.abs(pairs.values - tensor)) < 1e-10

    def test_dirichlet_positive_definite(self):
        op = assemble_full(round_guide(), 0.2, GridSpec(32, 32, 2))
        op.safe_shift = 0.0
        pairs = smallest_eigenpairs(op, SolveConfig(k=1))
        assert pairs.values[0] > 0.0

    @pytest.mark.parametrize(
        "geom_name,order,expected",
        [("torus", 2, 2.0), ("torus", 4, 4.0), ("waveguide", 2, 2.0)],
    )
    def test_apply_consistency_rate(self, geom_name, order, expected):
        # apply the discrete operator to a sampled smooth function and
        # compare with the analytic value of -Laplace(f)
        eps = 0.3
        errs, hs = [], []
        for n in (24, 48, 96):
            if geom_name == "torus":
                geom = warped_torus()
                grid = GridSpec(n, n, order)
                op = assemble_full(geom, eps, grid)
                h_s = TWO_PI / n
                s = (np.arange(n) * h_s)[:, None]
                t = (np.arange(n) * (TWO_PI / n))[None, :]
                f = np.cos(s) * np.cos(t)
                a = geom.warp_value(s)
                a1 = geom.log_warp_deriv(s, 1) * a
                lap = eps**2 * (-np.cos(s) - (a1 / a) * np.sin(s)) * np.cos(t) \
                    + (1.0 / a**2) * np.cos(s) * (-np.cos(t))
            else:
                geom = round_guide()
                grid = GridSpec(n, n, order)
                op = assemble_full(geom, eps, grid)
                h_s = TWO_PI / n
                s = (np.arange(n) * h_s)[:, None]
                h_f = 2.0 / n
                u = (-1.0 + h_f * np.arange(1, n))[None, :]
                rho = 1.0 - eps * u  # kappa = 1
                f = np.cos(s) * np.cos(np.pi * u / 2.0)
                f_ss = -f
                f_u = np.cos(s) * (-np.pi / 2.0) * np.sin(np.pi * u / 2.0)
                f_uu = -(np.pi / 2.0) ** 2 * f
                lap = eps**2 / rho**2 * f_ss + f_uu + (-eps / rho) * f_u
            resid = (op.stiffness @ f.ravel()) / op.weight - (-lap).ravel()
            errs.append(np.max(np.abs(resid)))
            hs.append(h_s)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(expected, abs=0.3)

    def test_waveguide_order4_base_direction_rate(self):
        # the Dirichlet fibre direction stays second order by design; isolate
        # the base truncation by differencing against a doubled base grid with
        # the fibre grid (and hence the fibre error) held fixed
        geom = round_guide()
        eps, n_f = 0.3, 64
        h_f = 2.0 / n_f
        u = (-1.0 + h_f * np.arange(1, n_f))[None, :]

        def apply_at(n_s):
            grid = GridSpec(n_s, n_f, 4)
            op = assemble_full(geom, eps, grid)
            h_s = TWO_PI / n_s
            s = (np.arange(n_s) * h_s)[:, None]
            f = np.cos(s) * np.cos(np.pi * u / 2.0)
            return ((op.stiffness @ f.ravel()) / op.weight).reshape(n_s, n_f - 1)

        errs, hs = [], []
        for n_s in (16, 32, 64):
            coarse = apply_at(n_s)
            fine = apply_at(2 * n_s)[::2, :]
            errs.append(np.max(np.abs(coarse - fine)))
            hs.append(TWO_PI / n_s)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            GridSpec(8, 32)

    def test_stencil_order_three_refused(self):
        with pytest.raises(ValueError, match="stencil_order must be 2 or 4"):
            GridSpec(16, 16, stencil_order=3)

    def test_tube_violation_raises(self):
        tight = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 2.0))
        with pytest.raises(TubeDegenerate):
            assemble_full(tight, 0.6, GridSpec(16, 16, 2))

    def test_fiber_boundary_follows_geometry(self):
        # one grid, two boundaries: n_f periodic nodes on the torus, and
        # n_f - 1 interior nodes between Dirichlet walls on the waveguide
        grid = GridSpec(16, 20, 2)
        assert assemble_full(flat_torus(), 0.2, grid).dim == 16 * 20
        guide = assemble_full(round_guide(), 0.2, grid)
        assert guide.dim == 16 * 19
        assert guide.fiber_ground_disc == dirichlet_ground_value(20)


def assert_apply_is_the_product(op):
    # a vector and an (n, 3) block, against the CSR matrix op.stiffness
    rng = np.random.default_rng(7)
    k = op.stiffness
    for x in (rng.standard_normal(op.dim), rng.standard_normal((op.dim, 3))):
        got = op.apply(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - k @ x)) <= 1e-13 * np.abs(k.data).max() * np.abs(x).max()


class TestKroneckerApply:
    """The torus K in its factors, applied and as the matrix built from them."""

    # orders 2 and 4, even and odd n_f (as in TestFiberFourier)
    GRIDS = [(16, 16, 2), (16, 17, 2), (20, 16, 4), (16, 19, 4)]
    WARPS = pytest.mark.parametrize("make_geom", [plain_warped_torus, warped_torus],
                                    ids=["plain", "exp"])

    def test_only_the_stiffness_is_built_on_demand(self):
        # every other missing attribute stays missing, the factors untouched
        op = assemble_full(warped_torus(), 0.2, GridSpec(16, 16, 2))
        assert not hasattr(op, "x")
        assert "stiffness" not in op.__dict__

    @WARPS
    @pytest.mark.parametrize("n_s,n_f,order", GRIDS)
    def test_apply_is_the_matrix_product(self, make_geom, n_s, n_f, order):
        op = assemble_full(make_geom(), 0.4, GridSpec(n_s, n_f, order))
        assert isinstance(op.stiffness, sp.csr_matrix)
        assert_apply_is_the_product(op)

    @WARPS
    @pytest.mark.parametrize("n_s,n_f,order", GRIDS)
    def test_factors_are_the_2d_divergence_form(self, make_geom, n_s, n_f, order):
        # K = D_s^T C_s D_s + D_f^T C_f D_f with the 2D staggered differences
        # and the metric coefficients sampled on the 2D grid, node (i_s, i_f)
        # at index i_s * n_f + i_f
        geom, eps = make_geom(), 0.4
        op = assemble_full(geom, eps, GridSpec(n_s, n_f, order))
        s, h_s = base_nodes(geom, n_s)
        _, _, h_f = fiber_nodes(geom, n_f)
        cell = h_s * h_f
        diff_s = sp.kron(staggered_diff_periodic(n_s, h_s, order), sp.identity(n_f))
        diff_f = sp.kron(sp.identity(n_s), staggered_diff_periodic(n_f, h_f, order))
        c_s = np.repeat(eps * geom.warp_value(s + 0.5 * h_s), n_f) * cell
        c_f = np.repeat(1.0 / (eps * geom.warp_value(s)), n_f) * cell
        k = diff_s.T @ sp.diags(c_s) @ diff_s + diff_f.T @ sp.diags(c_f) @ diff_f
        assert np.max(np.abs((op.stiffness - k).data), initial=0.0) \
            <= 1e-13 * np.abs(k.data).max()
        assert np.allclose(op.weight, np.repeat(geom.warp_value(s) / eps * cell, n_f),
                           rtol=1e-15, atol=0.0)

    @WARPS
    @pytest.mark.parametrize("n_s,n_f,order", GRIDS)
    def test_apply_is_eps_a_plus_b_over_eps(self, make_geom, n_s, n_f, order):
        # K = eps A + B / eps with A = K_s ⊗ I and B = diag(c_f) ⊗ L_f from
        # the eps-free factors, which every eps shares, and W = (w_s ⊗ 1) / eps
        geom, grid = make_geom(), GridSpec(n_s, n_f, order)
        ops = [assemble_full(geom, eps, grid) for eps in (0.4, 0.05)]
        factors = ops[0].fiber_factors
        a = sp.kron(factors.base_stiffness, sp.identity(n_f))
        b = sp.kron(sp.diags(factors.fiber_coeff), factors.fiber_matrix)
        x = np.random.default_rng(2).standard_normal((ops[0].dim, 3))
        for op in ops:
            assert op.fiber_factors is factors
            want = op.eps * (a @ x) + (b @ x) / op.eps
            assert np.max(np.abs(op.apply(x) - want)) <= 1e-13 * np.abs(want).max()
            assert np.array_equal(op.weight, np.repeat(factors.base_weight / op.eps, n_f))

    def test_waveguide_apply_is_the_csr_product_itself(self):
        op = assemble_full(round_guide(), 0.2, GridSpec(24, 17, 4))
        assert op.fiber_factors is None
        assert_apply_is_the_product(op)
        x = np.random.default_rng(1).standard_normal((op.dim, 3))
        assert np.array_equal(op.apply(x), op.stiffness @ x)

    def test_matrix_is_built_once_on_first_read(self, monkeypatch):
        op = assemble_full(warped_torus(), 0.4, GridSpec(16, 16, 2))
        assert "stiffness" not in vars(op)
        first = op.stiffness
        monkeypatch.setattr(FiberFactors, "matrix", lambda *_: pytest.fail("built twice"))
        assert op.stiffness is first

    def test_repr_builds_no_matrix(self):
        op = assemble_full(warped_torus(), 0.1, GridSpec(16, 16, 2))
        repr(op)
        assert "stiffness" not in vars(op)

    def test_replaced_eps_reads_the_matrix_at_that_eps(self):
        geom, grid = warped_torus(), GridSpec(16, 16, 2)
        op = assemble_full(geom, 0.1, grid)
        op.stiffness  # built at eps 0.1
        moved = dataclasses.replace(op, eps=0.05)
        x = np.random.default_rng(3).standard_normal(op.dim)
        want = moved.apply(x)
        assert np.max(np.abs(moved.stiffness @ x - want)) <= 1e-12 * np.abs(want).max()
        fresh = assemble_full(geom, 0.05, grid).stiffness
        assert (moved.stiffness != fresh).nnz == 0

    @pytest.mark.parametrize("make_geom", [warped_torus, round_guide], ids=["torus", "guide"])
    def test_identical_assemblies_compare_by_identity(self, make_geom):
        geom, grid = make_geom(), GridSpec(16, 17, 2)
        op = assemble_full(geom, 0.1, grid)
        assert (op == assemble_full(geom, 0.1, grid)) is False
        assert op == op


class TestFactorCache:
    """One set of eps-free torus factors per geometry and grid, read-only."""

    def test_shared_only_by_equal_geometry_and_grid(self):
        grid = GridSpec(24, 20, 4)
        factors = assemble_full(warped_torus(), 0.3, grid).fiber_factors
        assert assemble_full(warped_torus(), 0.05, grid).fiber_factors is factors
        other_warp = WarpedTorusGeometry(
            np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.0, (0.31,)), warp_is_exp=True)
        for geom, other in ((other_warp, grid), (warped_torus(), GridSpec(24, 20, 2)),
                            (warped_torus(), GridSpec(24, 22, 4))):
            assert assemble_full(geom, 0.3, other).fiber_factors is not factors
        other = assemble_full(other_warp, 0.3, grid).fiber_factors
        assert not np.array_equal(other.base_weight, factors.base_weight)
        assert not np.array_equal(other.fiber_coeff, factors.fiber_coeff)

    def test_cached_arrays_refuse_assignment(self):
        factors = assemble_full(plain_warped_torus(), 0.3, GridSpec(24, 20, 4)).fiber_factors
        arrays = [factors.fiber_coeff, factors.fiber_symbols, factors.base_weight]
        for m in (factors.base_stiffness, factors.fiber_matrix):
            arrays += [m.data, m.indices, m.indptr]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]


def inline_density_waveguide(geom, eps, grid):
    """``(K, W, safe_shift)`` of the waveguide, its tube density written out inline.

    The assembler's operations, with ``rho = 1 - eps*u*kappa(s)`` and the
    coefficients formed in place: the oracle that the coefficients read
    from ``metric_coefficients`` must match bit for bit.
    """
    s, h_s = base_nodes(geom, grid.n_s)
    f_nodes, f_mids, h_f = fiber_nodes(geom, grid.n_f)
    cell = h_s * h_f
    d_s, den_s = _staggered_int(grid.n_s, grid.stencil_order, periodic=True)
    d_f, den_f = _staggered_int(grid.n_f, 2, periodic=False)
    kap = geom.curvature.eval(s)
    rho_f = 1.0 - eps * np.outer(kap, f_mids)
    rho_w = 1.0 - eps * np.outer(kap, f_nodes)
    diff_f = sp.kron(sp.identity(grid.n_s, format="csr"), d_f, format="csr")
    k_f = _form_matrix(diff_f, (rho_f / eps).ravel() * (cell * (1.0 / (den_f * h_f) ** 2)))
    w = (rho_w / eps).ravel() * cell
    rho_s = 1.0 - eps * np.outer(geom.curvature.eval(s + 0.5 * h_s), f_nodes)
    diff_s = sp.kron(d_s, sp.identity(len(f_nodes), format="csr"), format="csr")
    k = _form_matrix(diff_s, (eps / rho_s).ravel() * (cell * (1.0 / (den_s * h_s) ** 2))) + k_f
    bound = _fiber_ground(k_f, w)
    return k.tocsr(), w, bound - BOUND_MARGIN * max(1.0, abs(bound))


def inline_warp_torus(geom, eps, grid):
    """``(K_s, c_f, base weight, W)`` of the torus, its warp coefficients written out inline.

    The factors are eps-free, from ``a`` and ``1/a``; only ``W`` carries eps.
    """
    s, h_s = base_nodes(geom, grid.n_s)
    _, _, h_f = fiber_nodes(geom, grid.n_f)
    cell = h_s * h_f
    d_s, den_s = _staggered_int(grid.n_s, grid.stencil_order, periodic=True)
    _, den_f = _staggered_int(grid.n_f, grid.stencil_order, periodic=True)
    a_mid = geom.warp_value(s + 0.5 * h_s)
    a_node = geom.warp_value(s)
    base_w = a_node * cell
    return (_form_matrix(d_s, a_mid * (cell * (1.0 / (den_s * h_s) ** 2))),
            1.0 / a_node * (cell * (1.0 / (den_f * h_f) ** 2)),
            base_w, np.repeat(base_w / eps, grid.n_f))


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestAssemblyOracle:
    """The assembled arrays equal those of the inline-coefficient oracles, bit for bit."""

    ORDERS = pytest.mark.parametrize("order", [2, 4])

    @ORDERS
    @pytest.mark.parametrize("eps", [0.3, 0.1])
    @pytest.mark.parametrize("curvature", [((0.5,), ()), ((0.5, 0.25), (0.3,))],
                             ids=["one", "two"])
    def test_waveguide(self, order, eps, curvature):
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, *curvature))
        grid = GridSpec(24, 20, order)
        op = assemble_full(geom, eps, grid)
        k, w, shift = inline_density_waveguide(geom, eps, grid)
        assert_same_csr(op.stiffness, k)
        assert np.array_equal(op.weight, w)
        assert op.safe_shift == shift

    @ORDERS
    @pytest.mark.parametrize("eps", [0.2, 0.05])
    @pytest.mark.parametrize("make_geom", [plain_warped_torus, warped_torus],
                             ids=["plain", "exp"])
    def test_torus(self, order, eps, make_geom):
        geom, grid = make_geom(), GridSpec(24, 20, order)
        op = assemble_full(geom, eps, grid)
        k_s, c_f, base_w, w = inline_warp_torus(geom, eps, grid)
        assert_same_csr(op.fiber_factors.base_stiffness, k_s)
        assert np.array_equal(op.fiber_factors.fiber_coeff, c_f)
        assert np.array_equal(op.fiber_factors.base_weight, base_w)
        assert np.array_equal(op.weight, w)


class TestMetamorphic:
    """Relations between the operators of two related geometries."""

    @staticmethod
    def bent(sign):
        # every curvature amplitude times sign: winding sign, one sin harmonic
        return WaveguideGeometry(TWO_PI, PeriodicProfile(
            TWO_PI, sign * 1.0, (sign * 0.5, sign * 0.25), (sign * 0.3,)))

    @pytest.mark.parametrize("n_s,n_f,order", [(32, 24, 4), (48, 33, 2)])
    @pytest.mark.parametrize("eps", [0.3, 0.1])
    def test_negated_curvature_is_the_reflected_operator(self, n_s, n_f, order, eps):
        # u -> -u maps the stored node j onto n_f - 2 - j, and 1 - eps*u*kappa
        # onto 1 - eps*u*(-kappa): K(-kappa) = R K(kappa) R, W likewise
        grid = GridSpec(n_s, n_f, order)
        op, neg = (assemble_full(self.bent(sign), eps, grid) for sign in (1.0, -1.0))
        n_rows = n_f - 1
        r = (np.arange(n_s)[:, None] * n_rows + np.arange(n_rows)[::-1]).ravel()
        reflected = op.stiffness[r][:, r]
        assert abs(neg.stiffness - reflected).max() <= 1e-15 * abs(op.stiffness).max()
        assert np.max(np.abs(neg.weight - op.weight[r])) <= 1e-15 * op.weight.max()
        values, neg_values = (smallest_eigenpairs(o, SolveConfig(k=6)).values for o in (op, neg))
        assert np.allclose(neg_values, values, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("eps", [0.3, 0.1])
    def test_longer_fibre_keeps_the_fibre_constant_levels(self, order, eps):
        # on fibre mode 0, K and W both carry the fibre cell h_f as a factor;
        # a longer fibre only brings the fibre-excited levels down
        levels = []
        for length in (TWO_PI, 3.0 * TWO_PI):
            geom = WarpedTorusGeometry(np.pi, length, PeriodicProfile(TWO_PI, 0.0, (0.3, 0.15)),
                                       warp_is_exp=True)
            pairs = smallest_eigenpairs(assemble_full(geom, eps, GridSpec(32, 24, order)),
                                        SolveConfig(k=12))
            levels.append(pairs.values[pairs.fiber_modes == 0])
        n = min(len(v) for v in levels)
        assert n >= 4
        scale = np.abs(levels[0][:n]).max()
        assert np.allclose(levels[1][:n], levels[0][:n], rtol=1e-12, atol=1e-12 * scale)


class TestEffectiveOperator:
    def test_flat_potential_and_spectrum(self):
        geom = flat_torus()
        eff = assemble_effective(geom, GridSpec(256, 16, 2))
        s, _ = base_nodes(geom, 256)
        assert np.max(np.abs(geom.effective_potential(s))) == 0.0
        assert np.max(np.abs(eff.stiffness @ np.ones(eff.dim))) == 0.0
        mu = smallest_eigenpairs(eff, SolveConfig(k=5)).values
        assert mu == pytest.approx([0.0, 1.0, 1.0, 4.0, 4.0], abs=1e-3)

    def test_warped_potential_sample(self):
        # log a = 0.3 cos s: V(0) = 0.5*(-0.3) + 0.25*0 = -0.15 exactly
        assert warped_torus().effective_potential(0.0) == pytest.approx(-0.15, abs=1e-15)

    def test_waveguide_potential_sample(self):
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,)))
        assert geom.effective_potential(0.0) == pytest.approx(-0.5625, abs=1e-15)

    def test_potential_samples_match_closed_form_everywhere(self):
        geom = warped_torus()
        s, _ = base_nodes(geom, 64)
        expected = 0.5 * (-0.3 * np.cos(s)) + 0.25 * (0.3 * np.sin(s)) ** 2
        assert np.max(np.abs(geom.effective_potential(s) - expected)) < 5e-16

    @pytest.mark.parametrize("geom,order", [
        (warped_torus(), 4),
        (WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,))), 2),
    ])
    def test_assembled_potential_is_the_row_sum(self, geom, order):
        # the difference part annihilates constants, so K @ 1 = V_eff * h_s
        eff = assemble_effective(geom, GridSpec(64, 16, order))
        s, h_s = base_nodes(geom, 64)
        resid = eff.stiffness @ np.ones(eff.dim) - geom.effective_potential(s) * h_s
        assert np.max(np.abs(resid)) <= 1e-12 * np.abs(eff.stiffness.data).max()
        assert eff.dim == 64 and np.all(eff.weight == h_s) and eff.eps is None


class TestFiberBlockBound:
    """The waveguide's safe shift: ``min_s lambda_1(K_f(s), W_s)`` less its margin.

    ``K = K_s + blockdiag_s K_f(s)`` with ``K_s >= 0`` makes it a lower
    bound of ``lambda_1(K, W)``; it is exact on the annulus, whose ground
    state is constant in s.
    """

    @staticmethod
    def dense_ground(op):
        import scipy.linalg as dla

        return dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True,
                        subset_by_index=[0, 0])[0]

    # GUIDE_J1's curvature on a 32 x 48 grid; at eps 0.55 the tube is strongly
    # bent (eps max|kappa| = 0.96) and the bound lies 1.08 eps^2 below lambda_1
    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.55])
    def test_bound_lies_below_the_ground_level(self, eps):
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5, 0.25)))
        op = assemble_full(geom, eps, GridSpec(32, 48, 4))
        lam1 = self.dense_ground(op)
        assert 0.0 < lam1 - op.safe_shift < 1.2 * eps**2

    @pytest.mark.parametrize("eps", [0.3, 0.1])
    def test_bound_is_exact_on_the_annulus(self, eps):
        # measured within 8e-14 of the dense lambda_1 at this size
        op = assemble_full(round_guide(), eps, GridSpec(32, 48, 4))
        lam1 = self.dense_ground(op)
        margin = BOUND_MARGIN * max(1.0, lam1)
        assert 0.0 < lam1 - op.safe_shift <= margin + 1e-12


class TestFiberOperator:
    """The fibre block ``(K_f(s), W_s)`` of the waveguide operator at one base point."""

    def test_straight_fiber_is_plain_laplacian(self):
        k_f, w = _fiber_blocks(straight_guide(), 0.1, 0.0, 64, 1.0)
        assert abs(k_f - k_f.T).max() == 0.0
        lam1 = _fiber_ground(k_f, w)
        assert lam1 == pytest.approx(dirichlet_ground_value(64), rel=1e-12)
        assert abs(lam1 - np.pi**2 / 4.0) < 1e-3

    def test_bent_fiber_ground_shift(self):
        lam1 = _fiber_ground(*_fiber_blocks(round_guide(), 0.1, 0.0, 128, 1.0))
        assert lam1 == pytest.approx(np.pi**2 / 4.0 - 0.0025, abs=3e-4)

    def test_fiber_positive_definite(self):
        assert _fiber_ground(*_fiber_blocks(round_guide(), 0.2, 1.0, 32, 1.0)) > 0.0

    def test_blocks_are_those_of_the_full_operator(self):
        # the block at each base node is the full operator with the base
        # coupling dropped: same K_f and W, bit for bit
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5, 0.25)))
        grid = GridSpec(16, 24, 4)
        op = assemble_full(geom, 0.3, grid)
        s, h_s = base_nodes(geom, grid.n_s)
        k_f, w = _fiber_blocks(geom, 0.3, s, grid.n_f, h_s)
        assert np.array_equal(w, op.weight)
        n_rows = grid.n_f - 1
        for i in (0, 5):
            one, w_one = _fiber_blocks(geom, 0.3, s[i], grid.n_f, h_s)
            rows = slice(i * n_rows, (i + 1) * n_rows)
            assert np.array_equal(w_one, w[rows])
            assert abs(one - k_f[rows, rows]).max() == 0.0

    def test_straight_guide_shift_is_the_dirichlet_ground_less_its_margin(self):
        lam1 = dirichlet_ground_value(48)
        op = assemble_full(straight_guide(), 0.3, GridSpec(32, 48, 4))
        assert op.safe_shift == pytest.approx(lam1 - BOUND_MARGIN * lam1, abs=1e-12)


class TestAnnulusOracle:
    """Independent continuum reference for the bent-tube assembly.

    A tube of half-width eps around the unit circle is the annulus with
    radii 1 -+ eps, whose Dirichlet eigenvalues are squared roots of Bessel
    cross products; the rescaled tube operator must reproduce eps^2 times
    those values up to the (known, kappa-independent) fibre-grid bias.
    """

    @staticmethod
    def annulus_root(m, eps):
        from scipy.optimize import brentq
        from scipy.special import jv, yv

        r0, r1 = 1.0 - eps, 1.0 + eps

        def cross(z):
            return jv(m, z * r0) * yv(m, z * r1) - jv(m, z * r1) * yv(m, z * r0)

        guess = np.pi / (2.0 * eps)
        return brentq(cross, 0.8 * guess, 1.2 * guess, xtol=1e-13)

    def test_full_solve_matches_bessel_roots(self):
        eps = 0.1
        op = assemble_full(round_guide(), eps, GridSpec(96, 128, 4))
        op.safe_shift = 1.97
        pairs = smallest_eigenpairs(op, SolveConfig(k=3))
        exact = [eps**2 * self.annulus_root(m, eps) ** 2 for m in (0, 1)]
        # raw values carry the kappa-independent fibre discretization bias
        bias = dirichlet_ground_value(128) - np.pi**2 / 4.0
        assert pairs.values[0] == pytest.approx(exact[0] + bias, abs=3e-6)
        # angular modes are exactly paired on the round annulus
        assert pairs.values[1] == pytest.approx(pairs.values[2], abs=1e-9)
        assert pairs.values[1] == pytest.approx(exact[1] + bias, abs=3e-6)
        # subtracting the discrete fibre ground value cancels the bias
        lhs = pairs.values[0] - op.fiber_ground_disc
        rhs = exact[0] - np.pi**2 / 4.0
        assert lhs == pytest.approx(rhs, abs=1e-5)


class TestProlongate:
    """Nearest-node injection of waveguide grid vectors onto a finer grid."""

    @staticmethod
    def nodes(geom, grid):
        """Base nodes, and the fibre nodes with the two walls u = -1, 1 closing them."""
        s, _ = base_nodes(geom, grid.n_s)
        f, _, _ = fiber_nodes(geom, grid.n_f)
        return s, np.r_[-1.0, f, 1.0]

    @pytest.mark.parametrize("refine", [2, 3])
    def test_shape(self, refine):
        coarse, fine = GridSpec(16, 20), GridSpec(16 * refine, 20 * refine)
        out = prolongate(coarse, np.ones((16 * 19, 2)), fine)
        assert out.shape == (assemble_full(round_guide(), 0.1, fine).dim, 2)

    @pytest.mark.parametrize("refine", [2, 3])
    def test_takes_the_coarse_node_at_or_below(self, refine):
        geom = round_guide()
        coarse, fine = GridSpec(16, 20), GridSpec(16 * refine, 20 * refine)
        s_c, f_c = self.nodes(geom, coarse)
        s_f, f_f = self.nodes(geom, fine)
        vectors = np.random.default_rng(3).standard_normal((16 * 19, 2))
        out = prolongate(coarse, vectors, fine).reshape(len(s_f), len(f_f) - 2, 2)
        # the walls hold exact zeros; a coordinate search, not the integer index rule
        walled = np.pad(vectors.reshape(len(s_c), len(f_c) - 2, 2), ((0, 0), (1, 1), (0, 0)))
        tiny = 1e-12
        below_s = np.searchsorted(s_c, s_f + tiny) - 1
        below_f = np.searchsorted(f_c, f_f[1:-1] + tiny) - 1
        assert np.array_equal(out, walled[below_s][:, below_f])

    def test_wraps_at_s_equal_L(self):
        geom = round_guide()
        coarse, fine = GridSpec(16, 16), GridSpec(32, 32)
        s_c, _ = self.nodes(geom, coarse)
        s_f, _ = self.nodes(geom, fine)
        sawtooth = np.repeat(s_c, 15)  # s at every node, 0 again at L
        out = prolongate(coarse, sawtooth[:, None], fine).reshape(32, 31)
        # the last fine row, halfway between s = L - h and s = L = 0, takes
        # the row at or below it, L - h, not the first row across the wrap
        assert s_f[-1] > s_c[-1] and out[-1, 1] == s_c[-1]
        assert np.array_equal(out[:, 1:], np.repeat(s_c, 2)[:, None] * np.ones(30))

    def test_waveguide_walls_are_zero(self):
        geom = round_guide()
        coarse = GridSpec(16, 16)
        _, f_c = self.nodes(geom, coarse)
        for refine in (2, 3):
            fine = GridSpec(16 * refine, 16 * refine)
            _, f_f = self.nodes(geom, fine)
            out = prolongate(coarse, np.ones((16 * 15, 1)), fine).reshape(16 * refine, -1)
            # the fine nodes below the first interior coarse node take the
            # wall's zero; every other one, the last included, an interior 1
            expected = (f_f[1:-1] > f_c[1] - 1e-12).astype(float)
            assert not expected[:refine - 1].any() and expected[refine - 1:].all()
            assert np.array_equal(out, np.broadcast_to(expected, out.shape))


def test_coordinate_triplet_dump(tmp_path):
    m = sp.csr_matrix(np.array([[1.5, 0.0], [0.25, -2.0]]))
    path = tmp_path / "k.txt"
    write_coordinate_triplets(m, path)
    lines = path.read_text().splitlines()
    assert lines == ["0 0 1.5", "1 0 0.25", "1 1 -2"]
