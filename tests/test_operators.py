import numpy as np
import pytest
import scipy.sparse as sp

from fibrelab.eigensolve import SolveConfig, smallest_eigenpairs
from fibrelab.errors import GridTooCoarse, TubeDegenerate
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry
from fibrelab.operators import (
    GridSpec,
    assemble_effective,
    assemble_fiber,
    assemble_full,
    density_potential,
    dirichlet_ground_value,
    staggered_diff_dirichlet,
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

    def test_dirichlet_flux_exact_on_cubics(self):
        n, h = 16, 2.0 / 16
        u = -1.0 + h * np.arange(1, n)
        mids = -1.0 + h * (np.arange(n) + 0.5)
        # (u+1)(u-1)u vanishes at both walls, so eliminated values are honest
        f = (u + 1.0) * (u - 1.0) * u
        exact = 3.0 * mids**2 - 1.0
        d = staggered_diff_dirichlet(n, h, 4)
        assert np.max(np.abs(d @ f - exact)) < 1e-12

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
            pairs = smallest_eigenpairs(op, SolveConfig(k=10, shift=-4 * eps * eps))
            assert np.max(np.abs(pairs.values - tensor)) < 1e-10

    def test_flat_smallest_four_closed_form(self):
        # eps=0.5: {0, 0.25*sym1, 0.25*sym1, 0.25*sym2} with symk the
        # second-order periodic symbols on 64 points
        h = TWO_PI / 64
        sym1 = (2.0 - 2.0 * np.cos(TWO_PI / 64)) / h**2
        sym2 = (2.0 - 2.0 * np.cos(2.0 * TWO_PI / 64)) / h**2
        op = assemble_full(flat_torus(), 0.5, GridSpec(64, 64, 2))
        pairs = smallest_eigenpairs(op, SolveConfig(k=4, shift=-1.0))
        expected = np.array([0.0, 0.25 * sym1, 0.25 * sym1, 0.25 * sym2])
        assert np.max(np.abs(pairs.values - expected)) < 1e-10

    def test_straight_guide_ground_matches_closed_form_and_limit(self):
        geom = straight_guide()
        values = []
        for n in (32, 64, 128):
            op = assemble_full(geom, 0.3, GridSpec(32, n))
            pairs = smallest_eigenpairs(op, SolveConfig(k=1, shift=1.0))
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
        pairs = smallest_eigenpairs(op, SolveConfig(k=8, shift=1.0))
        assert np.max(np.abs(pairs.values - tensor)) < 1e-10

    def test_dirichlet_positive_definite(self):
        op = assemble_full(round_guide(), 0.2, GridSpec(32, 32, 2))
        pairs = smallest_eigenpairs(op, SolveConfig(k=1, shift=0.0))
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
                a1 = geom.warp_value(s, 1)
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


class TestEffectiveOperator:
    def test_flat_potential_and_spectrum(self):
        eff = assemble_effective(flat_torus(), GridSpec(256, 16, 2))
        assert np.max(np.abs(eff.potential)) == 0.0
        assert eff.lambda0 == 0.0
        mu = smallest_eigenpairs(eff.operator, SolveConfig(k=5)).values
        assert mu == pytest.approx([0.0, 1.0, 1.0, 4.0, 4.0], abs=1e-3)

    def test_warped_potential_sample(self):
        # log a = 0.3 cos s: V(0) = 0.5*(-0.3) + 0.25*0 = -0.15 exactly
        eff = assemble_effective(warped_torus(), GridSpec(64, 16, 2))
        assert eff.potential[0] == pytest.approx(-0.15, abs=1e-15)

    def test_waveguide_potential_sample(self):
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,)))
        eff = assemble_effective(geom, GridSpec(64, 16, 2))
        assert eff.potential[0] == pytest.approx(-0.5625, abs=1e-15)
        assert eff.lambda0 == pytest.approx(np.pi**2 / 4.0, rel=1e-15)

    def test_potential_samples_match_closed_form_everywhere(self):
        geom = warped_torus()
        eff = assemble_effective(geom, GridSpec(64, 16, 4))
        s = eff.s_nodes
        expected = 0.5 * (-0.3 * np.cos(s)) + 0.25 * (0.3 * np.sin(s)) ** 2
        assert np.max(np.abs(eff.potential - expected)) < 5e-16


class TestFiberOperator:
    def test_straight_fiber_is_plain_laplacian(self):
        geom = straight_guide()
        op = assemble_fiber(geom, 0.1, 0.0, 64)
        assert op.symmetry_defect() == 0.0
        pairs = smallest_eigenpairs(op, SolveConfig(k=1))
        assert pairs.values[0] == pytest.approx(dirichlet_ground_value(64), rel=1e-12)
        assert abs(pairs.values[0] - np.pi**2 / 4.0) < 1e-3

    def test_bent_fiber_ground_shift(self):
        op = assemble_fiber(round_guide(), 0.1, 0.0, 128)
        pairs = smallest_eigenpairs(op, SolveConfig(k=1))
        assert pairs.values[0] == pytest.approx(np.pi**2 / 4.0 - 0.0025, abs=3e-4)

    def test_fiber_positive_definite(self):
        op = assemble_fiber(round_guide(), 0.2, 1.0, 32)
        pairs = smallest_eigenpairs(op, SolveConfig(k=1))
        assert pairs.values[0] > 0.0


class TestDensityPotential:
    def test_straight_is_zero(self):
        assert density_potential(straight_guide(), 0.3, 1.0, 0.5) == 0.0

    def test_round_values(self):
        assert density_potential(round_guide(), 0.1, 0.0, 0.0) == pytest.approx(
            -0.0025, abs=1e-18
        )
        assert density_potential(round_guide(), 0.1, 0.0, 1.0) == pytest.approx(
            -0.0025 / 0.81, rel=1e-14
        )

    def test_nonpositive_and_bounded(self):
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,)))
        eps = 0.2
        kmax = geom.curvature_bound
        bound = 0.25 * eps**2 * kmax**2 / (1.0 - eps * kmax) ** 2
        s = np.linspace(0.0, TWO_PI, 40)
        for u in np.linspace(-1.0, 1.0, 21):
            v = density_potential(geom, eps, s, u)
            assert np.all(v <= 0.0)
            assert np.all(np.abs(v) <= bound + 1e-15)

    def test_degenerate_tube_raises(self):
        with pytest.raises(TubeDegenerate):
            density_potential(round_guide(), 0.5, 0.0, 3.0)


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
        pairs = smallest_eigenpairs(op, SolveConfig(k=3, shift=1.97))
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


def test_coordinate_triplet_dump(tmp_path):
    m = sp.csr_matrix(np.array([[1.5, 0.0], [0.25, -2.0]]))
    path = tmp_path / "k.txt"
    write_coordinate_triplets(m, path)
    lines = path.read_text().splitlines()
    assert lines == ["0 0 1.5", "1 0 0.25", "1 1 -2"]
