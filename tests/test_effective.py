import numpy as np
import pytest
from scipy.integrate import quad

from fibrelab.effective import (
    build_prediction,
    fiber_ground_energy,
    measure_discrepancy,
    sup_rate_factor,
    volume_weight,
)
from fibrelab.eigensolve import EigenPairSet, SolveConfig, smallest_eigenpairs
from fibrelab.errors import DegenerateEffectiveEigenvalue, PairingAmbiguous
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry
from fibrelab.operators import (
    GridSpec,
    assemble_effective,
    assemble_full,
    base_nodes,
    staggered_diff_periodic,
)

TWO_PI = 2.0 * np.pi


def flat_torus():
    return WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 1.0))


def warped_torus(amps=(0.3,)):
    return WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.0, amps),
                               warp_is_exp=True)


def bent_guide(amps=(0.5,)):
    return WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, amps))


def ground_profile_ratio(geom, grid, mode_index, profile):
    """pred_field / (psi(s) * profile) with psi from an independent effective solve."""
    eff = assemble_effective(geom, grid)
    pred = build_prediction(eff, mode_index)
    psi = smallest_eigenpairs(eff.operator, SolveConfig(k=mode_index + 2)).vectors[:, mode_index]
    return pred, pred.pred_field / (psi[:, None] * profile)


class TestGroundState:
    """The fibre ground state is the fibre factor of the tensor prediction."""

    def test_waveguide_closed_form(self):
        grid = GridSpec(32, 32, 2)
        u = -1.0 + (2.0 / 32) * np.arange(1, 32)
        profile = np.cos(0.5 * np.pi * u)[None, :]
        pred, ratio = ground_profile_ratio(bent_guide(), grid, 0, profile)
        assert np.ptp(ratio) <= 1e-12 * np.abs(ratio).max()
        assert pred.phi0_min == pytest.approx(profile.min(), rel=1e-15)
        # fibrewise normalization: integral of cos^2(pi u/2) over [-1,1] is 1
        norm, _ = quad(lambda v: np.cos(0.5 * np.pi * v) ** 2, -1.0, 1.0, epsabs=1e-14)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_flat_torus_constant(self):
        pred, ratio = ground_profile_ratio(flat_torus(), GridSpec(32, 32, 2), 0,
                                           np.full((32, 1), 1.0 / np.sqrt(TWO_PI)))
        assert np.ptp(ratio) <= 1e-12 * np.abs(ratio).max()
        assert pred.phi0_min == pytest.approx(1.0 / np.sqrt(TWO_PI), rel=1e-14)

    def test_warped_torus_value(self):
        # the first excited mode: psi changes sign, the ratio must not
        geom = warped_torus(amps=(0.3, 0.15))
        s, _ = base_nodes(geom, 64)
        vol = TWO_PI * np.exp(0.3 * np.cos(s) + 0.15 * np.cos(2.0 * s))
        pred, ratio = ground_profile_ratio(geom, GridSpec(64, 32, 4), 1,
                                           (1.0 / np.sqrt(vol))[:, None])
        assert np.ptp(ratio) <= 1e-10 * np.abs(ratio).max()
        assert pred.phi0_min == pytest.approx(1.0 / np.sqrt(vol.max()), rel=1e-13)

    def test_torus_fibrewise_norm(self):
        geom = warped_torus()
        pred = build_prediction(assemble_effective(geom, GridSpec(64, 32, 4)), 0)
        s, _ = base_nodes(geom, 64)
        assert pred.phi0_min**2 * geom.fiber_volume(s).max() == pytest.approx(1.0, abs=1e-12)


class TestSupRateFactor:
    def test_dimension_one_is_unity(self):
        assert sup_rate_factor(1, 0.05) == 1.0

    def test_dimension_two_log(self):
        assert sup_rate_factor(2, np.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_three_inverse_sqrt(self):
        assert sup_rate_factor(3, 0.25) == pytest.approx(2.0, rel=1e-14)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            sup_rate_factor(4, 0.1)


class TestFiberGroundEnergy:
    def test_straight_tube_gives_dirichlet_ground(self):
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 0.0))
        lam = fiber_ground_energy(geom, 0.1, 0.0, 64)
        assert lam == pytest.approx(np.pi**2 / 4.0, abs=1e-7)

    def test_round_tube_against_perturbation_quadrature(self):
        # first-order shift: integral of cos^2(pi u/2) * V_rho with
        # V_rho = -eps^2/(4 (1-eps u)^2); second order contributes ~1e-9
        geom = bent_guide(amps=())
        eps = 0.1
        shift, _ = quad(
            lambda u: np.cos(np.pi * u / 2.0) ** 2 * (-0.25 * eps**2 / (1 - eps * u) ** 2),
            -1.0, 1.0, epsabs=1e-14,
        )
        lam = fiber_ground_energy(geom, eps, 0.0, 128)
        assert lam == pytest.approx(np.pi**2 / 4.0 + shift, abs=5e-7)
        assert lam == pytest.approx(2.4649011, abs=1e-5)

    def test_rescaled_shift_converges_to_potential(self):
        # eps^-2 (Lambda_eps - Lambda0) -> -kappa^2/4 at second order in eps
        for geom, s, kap in (
            (bent_guide(amps=()), 0.0, 1.0),
            (bent_guide(), 0.0, 1.5),
            (bent_guide(), np.pi / 2.0, 1.0),
            (bent_guide(), np.pi, 0.5),
        ):
            errs = []
            eps_list = (0.2, 0.1, 0.05)
            for eps in eps_list:
                lam = fiber_ground_energy(geom, eps, s, 128)
                errs.append(abs((lam - np.pi**2 / 4.0) / eps**2 + kap**2 / 4.0))
            for eps, err in zip(eps_list, errs):
                assert err <= 0.2 * kap**4 * eps**2 + 1e-6
            slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
            assert slope >= 1.8


class TestBuildPrediction:
    def test_flat_ground_mode_is_constant(self):
        geom = flat_torus()
        grid = GridSpec(32, 32, 2)
        eff = assemble_effective(geom, grid)
        pred = build_prediction(eff, 0)
        assert pred.mu == pytest.approx(0.0, abs=1e-10)
        assert pred.zeros == []
        assert np.ptp(pred.pred_field) < 1e-8
        assert np.all(pred.pred_field > 0.0)

    def test_flat_first_excited_is_degenerate(self):
        geom = flat_torus()
        grid = GridSpec(32, 32, 2)
        eff = assemble_effective(geom, grid)
        with pytest.raises(DegenerateEffectiveEigenvalue):
            build_prediction(eff, 1)

    def test_single_harmonic_log_warp_is_degenerate(self):
        # log a = 0.3 cos s factorizes the base operator, pairing the excited
        # levels exactly; once the grid resolves the pairing below the guard
        # the simple-branch check must fire
        geom = warped_torus()
        grid = GridSpec(128, 64, 4)
        eff = assemble_effective(geom, grid)
        mu = smallest_eigenpairs(eff.operator, SolveConfig(k=3)).values
        assert abs(mu[2] - mu[1]) < 1e-8
        with pytest.raises(DegenerateEffectiveEigenvalue):
            build_prediction(eff, 1)

    def test_two_harmonic_log_warp_splits(self):
        geom = warped_torus(amps=(0.3, 0.15))
        grid = GridSpec(64, 64, 4)
        eff = assemble_effective(geom, grid)
        pred = build_prediction(eff, 1)
        assert len(pred.zeros) == 2

    def test_prediction_normalized_and_sign_fixed(self):
        geom = warped_torus(amps=(0.3, 0.15))
        grid = GridSpec(64, 64, 4)
        eff = assemble_effective(geom, grid)
        pred = build_prediction(eff, 1)
        w1 = volume_weight(geom, grid).reshape(pred.pred_field.shape)
        norm = float(np.sum(pred.pred_field**2 * w1))
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert pred.pred_field.ravel()[np.argmax(np.abs(pred.pred_field))] > 0.0

    def test_predicted_lambda_combines_ground_and_mu(self):
        geom = bent_guide()
        grid = GridSpec(32, 32, 2)
        eff = assemble_effective(geom, grid)
        pred = build_prediction(eff, 0)
        assert pred.predicted_lambda(0.1) == pytest.approx(np.pi**2 / 4.0 + 0.01 * pred.mu,
                                                           rel=1e-12)


class TestMeasureDiscrepancy:
    def test_flat_ground_mode_exact(self):
        geom = flat_torus()
        grid = GridSpec(32, 32, 2)
        eff = assemble_effective(geom, grid)
        for eps in (0.5, 0.25):
            op = assemble_full(geom, eps, grid)
            pairs = smallest_eigenpairs(op, SolveConfig(k=3, shift=-4 * eps * eps))
            pred = build_prediction(eff, 0)
            rec = measure_discrepancy(op, pairs, pred)
            assert rec.eig_gap <= 1e-8
            assert rec.supnorm <= 1e-8
            assert rec.nodal.domain_count == 1

    def test_sign_involution_safe(self):
        geom = warped_torus(amps=(0.3, 0.15))
        grid = GridSpec(32, 32, 2)
        eff = assemble_effective(geom, grid)
        eps = 0.2
        op = assemble_full(geom, eps, grid)
        pairs = smallest_eigenpairs(op, SolveConfig(k=4, shift=-4 * eps * eps))
        pred = build_prediction(eff, 1)
        rec_a = measure_discrepancy(op, pairs, pred)
        flipped = EigenPairSet(values=pairs.values.copy(), vectors=-pairs.vectors,
                               residuals=pairs.residuals.copy())
        rec_b = measure_discrepancy(op, flipped, pred)
        assert rec_a.eig_gap == rec_b.eig_gap
        assert rec_a.supnorm == rec_b.supnorm
        assert rec_a.hausdorff == rec_b.hausdorff
        assert rec_a.nodal.domain_count == rec_b.nodal.domain_count

    def test_pairing_ambiguity_guard(self):
        geom = flat_torus()
        grid = GridSpec(32, 32, 2)
        eff = assemble_effective(geom, grid)
        eps = 0.5
        op = assemble_full(geom, eps, grid)
        pred = build_prediction(eff, 0)
        dim = op.dim
        vecs = np.ones((dim, 2)) / np.sqrt(np.sum(op.weight))
        fake = EigenPairSet(
            values=np.array([eps**2 * pred.mu, eps**2 * (pred.mu + 5e-9)]),
            vectors=vecs,
            residuals=np.zeros(2),
        )
        with pytest.raises(PairingAmbiguous):
            measure_discrepancy(op, fake, pred)


class TestPairingByFiberLabel:
    # at eps = 0.9 a fibre-mode m = 1 pair sits below the third m = 0 level
    EPS = 0.9

    def setup_method(self):
        self.geom = warped_torus(amps=(0.3, 0.15))
        self.grid = GridSpec(32, 32, 2)
        self.op = assemble_full(self.geom, self.EPS, self.grid)
        self.pred = build_prediction(assemble_effective(self.geom, self.grid), 2)

    def test_pairs_with_the_jth_fiber_ground_level(self):
        pairs = smallest_eigenpairs(self.op, SolveConfig(k=8))
        ground = np.flatnonzero(pairs.fiber_modes == 0)
        assert ground[2] > 2
        rec = measure_discrepancy(self.op, pairs, self.pred)
        assert rec.lambda_full == pairs.values[ground[2]]
        unlabelled = EigenPairSet(values=pairs.values, vectors=pairs.vectors,
                                  residuals=pairs.residuals)
        assert measure_discrepancy(self.op, unlabelled, self.pred).eig_gap > 10.0 * rec.eig_gap

    def test_too_few_fiber_ground_levels(self):
        pairs = smallest_eigenpairs(self.op, SolveConfig(k=4))
        assert list(pairs.fiber_modes) == [0, 0, 1, 1]
        with pytest.raises(PairingAmbiguous, match="mode 2 needs 3 .* found 2"):
            measure_discrepancy(self.op, pairs, self.pred)

    def test_short_unlabelled_spectrum(self):
        pairs = smallest_eigenpairs(self.op, SolveConfig(k=2))
        unlabelled = EigenPairSet(values=pairs.values, vectors=pairs.vectors,
                                  residuals=pairs.residuals)
        with pytest.raises(PairingAmbiguous, match="mode 2 needs 3 .* found 2"):
            measure_discrepancy(self.op, unlabelled, self.pred)


class TestRoundAnnulusEigenvalue:
    def test_curvature_lowers_the_ground_level_by_quarter_eps_squared(self):
        # round bend, mode 0: mu_0 = -1/4, so the full level sits at the fibre
        # ground value minus eps^2/4 up to higher order
        geom = bent_guide(amps=())
        eps = 0.1
        op = assemble_full(geom, eps, GridSpec(96, 128, 4))
        pairs = smallest_eigenpairs(op, SolveConfig(k=1, shift=1.97))
        shifted = pairs.values[0] - op.fiber_ground_disc
        assert shifted == pytest.approx(-0.0025, abs=5e-5)


class TestEffectiveOperatorIdentity:
    def test_weighted_conjugation_residual_shrinks(self):
        # psi solving the base problem makes Vol^{-1/2} psi an eigenfunction
        # of the fibre-constant block of the full operator, discretely up to
        # the stencil truncation
        geom = warped_torus(amps=(0.3, 0.15))
        resids = []
        ns = (32, 64, 128)
        for n in ns:
            grid = GridSpec(n, 16, 2)
            eff = assemble_effective(geom, grid)
            pairs = smallest_eigenpairs(eff.operator, SolveConfig(k=3))
            mu, psi = pairs.values[1], pairs.vectors[:, 1]
            s, h = base_nodes(geom, n)
            a_node = geom.warp_value(s)
            a_mid = geom.warp_value(s + 0.5 * h)
            d = staggered_diff_periodic(n, h, 2)
            k_w = (d.T @ (np.diag(a_mid) @ d.toarray()))
            v = psi / np.sqrt(geom.fiber_volume(s))
            resid = k_w @ v / a_node - mu * v
            resids.append(np.max(np.abs(resid)) / np.max(np.abs(v)))
        slope = np.polyfit(np.log([TWO_PI / n for n in ns]), np.log(resids), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.4)
        assert resids[-1] < 1e-3
