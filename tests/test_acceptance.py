"""Acceptance suite: one test per top-level criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  The four epsilon-sweep studies are shared session
fixtures; everything here drives the public API the way the shipped
configurations do.

Two structural facts about the testbeds shape the assertions (see the
degeneracy tests in test_effective.py for the measurements):

* On a warped product over the circle, the fibre-constant block of the
  full operator is unitarily equivalent to the effective base operator,
  so rescaled eigenvalue gaps, sup-norm errors, and nodal displacements
  have no epsilon-dependence at all; they sit at the discretization
  floor.  The guarded checks report exactly that outcome ("below
  floor"), which the flat-torus contract defines as a pass, and the
  assertions here additionally pin the gaps to the floor magnitude.
* Single-harmonic profiles (log-warp 0.3 cos s, curvature 1 + 0.5 cos s
  with unit winding) produce exactly paired excited levels of the base
  operator, so their "first excited branch" is not simple.  Mode-1
  studies therefore run on two-harmonic profiles, and the mode-1 request
  on the single-harmonic torus is asserted to fail the simplicity guard.
"""

import numpy as np
import pytest

from fibrelab.effective import build_prediction, fiber_ground_energy
from fibrelab.eigensolve import SolveConfig, smallest_eigenpairs, verify_pairs
from fibrelab.errors import DegenerateEffectiveEigenvalue
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry
from fibrelab.nodal import count_nodal_domains, field_from_operator
from fibrelab.operators import GridSpec, assemble_effective, assemble_full, staggered_diff_periodic
from fibrelab.report import emit_report
from fibrelab.study import load_config, run_study

TWO_PI = 2.0 * np.pi

TORUS_J0_CONFIG = {
    "geometry": {"type": "warped_torus", "L": np.pi, "fiber_length": TWO_PI,
                 "warp": {"constant": 0.0, "cos": [0.3], "sin": [], "exp": True}},
    "epsilons": [0.2, 0.1, 0.05, 0.025],
    "grid": {"n_s": 128, "n_f": 64, "stencil_order": 4, "refine": 2},
    "solver": {"k": 8, "tol": 1e-8, "max_iter": 5000, "seed": 0},
    "study": {"mode_index": 0, "checks": ["eig_rate", "supnorm_rate", "courant"],
              "out": None},
}

TORUS_J1_CONFIG = {
    "geometry": {"type": "warped_torus", "L": np.pi, "fiber_length": TWO_PI,
                 "warp": {"constant": 0.0, "cos": [0.3, 0.15], "sin": [], "exp": True}},
    "epsilons": [0.2, 0.1, 0.05, 0.025],
    "grid": {"n_s": 64, "n_f": 64, "stencil_order": 4, "refine": 2},
    "solver": {"k": 8, "tol": 1e-8, "max_iter": 5000, "seed": 0},
    "study": {"mode_index": 1,
              "checks": ["eig_rate", "supnorm_rate", "hausdorff_rate", "isotopy", "courant"],
              "out": None},
}

GUIDE_J0_CONFIG = {
    "geometry": {"type": "waveguide", "length": TWO_PI,
                 "curvature": {"constant": 1.0, "cos": [0.5], "sin": []}},
    "epsilons": [0.3, 0.22, 0.15, 0.1],
    "grid": {"n_s": 128, "n_f": 192, "stencil_order": 4, "refine": 2},
    "solver": {"k": 8, "tol": 1e-8, "max_iter": 5000, "seed": 0, "shift": 1.97},
    "study": {"mode_index": 0, "checks": ["eig_rate", "supnorm_rate", "courant"],
              "out": None},
}

GUIDE_J1_CONFIG = {
    "geometry": {"type": "waveguide", "length": TWO_PI,
                 "curvature": {"constant": 1.0, "cos": [0.5, 0.25], "sin": []}},
    "epsilons": [0.3, 0.22, 0.15, 0.1],
    "grid": {"n_s": 128, "n_f": 192, "stencil_order": 4, "refine": 2},
    "solver": {"k": 8, "tol": 1e-8, "max_iter": 5000, "seed": 0, "shift": 1.97},
    "study": {"mode_index": 1,
              "checks": ["eig_rate", "supnorm_rate", "hausdorff_rate", "boundary", "courant"],
              "out": None},
}


@pytest.fixture(scope="session")
def torus_j0_report():
    return run_study(load_config(TORUS_J0_CONFIG))


@pytest.fixture(scope="session")
def torus_j1_report():
    return run_study(load_config(TORUS_J1_CONFIG))


@pytest.fixture(scope="session")
def guide_j0_report():
    return run_study(load_config(GUIDE_J0_CONFIG))


@pytest.fixture(scope="session")
def guide_j1_report():
    return run_study(load_config(GUIDE_J1_CONFIG))


@pytest.fixture(scope="session")
def flat_setup():
    geom = WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 1.0))
    grid = GridSpec(64, 64, 2)
    h = TWO_PI / 64
    d = staggered_diff_periodic(64, h, 2)
    symbols = np.sort(np.linalg.eigvalsh((d.T @ d).toarray()))
    out = {}
    for eps in (0.5, 0.25):
        op = assemble_full(geom, eps, grid)
        pairs = smallest_eigenpairs(op, SolveConfig(k=12, shift=-4 * eps * eps))
        out[eps] = (op, pairs)
    return geom, grid, symbols, out


def _no_failures(report):
    assert not report.failures, f"per-epsilon failures: {report.failures}"


def test_flat_exactness(flat_setup):
    geom, grid, symbols, solved = flat_setup
    eff = assemble_effective(geom, grid)
    mu = smallest_eigenpairs(eff.operator, SolveConfig(k=4)).values
    for eps, (op, pairs) in solved.items():
        flags = np.concatenate([[True], np.zeros(63, bool)])  # sigma_t == 0 marker
        tensor_vals = (eps**2 * symbols[:, None] + symbols[None, :]).ravel()
        tensor_flags = np.broadcast_to(flags[None, :], (64, 64)).ravel()
        order = np.argsort(tensor_vals, kind="stable")
        tensor_sorted = tensor_vals[order][:12]
        flags_sorted = tensor_flags[order][:12]
        assert np.max(np.abs(pairs.values - tensor_sorted)) < 1e-10
        fibre_constant = np.nonzero(flags_sorted)[0][:3]
        rescaled = pairs.values[fibre_constant] / eps**2
        assert np.max(np.abs(rescaled - mu[:3])) < 1e-9
    print("PASS flat exactness: tensor spectrum to 1e-10, "
          "rescaled fibre-constant modes match the effective ones to 1e-9")


def test_eigenvalue_rate_closed_case(torus_j0_report):
    report = torus_j0_report
    _no_failures(report)
    check = report.checks["eig_rate"]
    assert check.passed
    # the fibre-constant block is unitarily equivalent to the effective
    # operator, so the model gap is identically zero and every sweep point
    # sits at the discretization floor; the guard reports exactly that
    assert "floor" in check.reason
    gaps = [rec.eig_gap for rec in report.records]
    assert max(gaps) < 1e-6
    assert max(gaps) - min(gaps) < 0.05 * max(gaps)  # no epsilon dependence
    print(f"PASS eigenvalue rate, closed case: exact correspondence, "
          f"gaps at the discretization floor (max {max(gaps):.2e}) at every eps")


def test_eigenvalue_rate_closed_case_mode1_branch_is_degenerate():
    # the criterion asks for the simple branch of the first excited level;
    # for log-warp 0.3 cos s that level is exactly paired, so the request
    # trips the simplicity guard and the mode is skipped
    raw = load_config(TORUS_J0_CONFIG)
    grid = GridSpec(128, 64, 4)
    eff = assemble_effective(raw.geometry, grid)
    with pytest.raises(DegenerateEffectiveEigenvalue):
        build_prediction(eff, 1)
    print("PASS eigenvalue rate, closed case, mode 1: exactly degenerate pair "
          "detected and skipped by the simplicity guard")


def test_eigenvalue_rate_waveguide(guide_j0_report):
    report = guide_j0_report
    _no_failures(report)
    check = report.checks["eig_rate"]
    assert check.passed
    assert check.slope is not None and check.slope >= 0.8
    print(f"PASS eigenvalue rate, waveguide: fitted slope {check.slope:.3f} >= 0.8")


def test_uniform_convergence_rates(torus_j0_report, torus_j1_report, guide_j0_report,
                                   guide_j1_report):
    for name, report, kind in (
        ("waveguide j=0", guide_j0_report, "fit"),
        ("waveguide j=1", guide_j1_report, "fit"),
        ("warped torus j=0", torus_j0_report, "floor"),
        ("warped torus j=1", torus_j1_report, "floor"),
    ):
        check = report.checks["supnorm_rate"]
        assert check.passed, f"{name}: {check.reason}"
        if kind == "fit":
            assert check.slope is not None and check.slope >= 0.9, name
        else:
            assert "floor" in check.reason
            assert max(rec.supnorm for rec in report.records) < 1e-5
    slopes = [guide_j0_report.checks["supnorm_rate"].slope,
              guide_j1_report.checks["supnorm_rate"].slope]
    print(f"PASS uniform convergence: waveguide sup-norm slopes "
          f"{slopes[0]:.3f}, {slopes[1]:.3f} >= 0.9; torus sup-norm errors at the "
          f"discretization floor (< 1e-5) with exact model correspondence")


def test_hausdorff_convergence(torus_j1_report, guide_j1_report):
    check = guide_j1_report.checks["hausdorff_rate"]
    assert check.passed
    assert check.slope is not None and check.slope >= 0.9
    t_check = torus_j1_report.checks["hausdorff_rate"]
    assert t_check.passed
    assert "floor" in t_check.reason
    t_haus = [rec.hausdorff for rec in torus_j1_report.records]
    assert max(t_haus) < 5e-3
    print(f"PASS Hausdorff convergence: waveguide slope {check.slope:.3f} >= 0.9; "
          f"torus nodal sets at the sampling floor (< 5e-3) of exactly "
          f"fibre-aligned nodal circles")


def test_isotopy_structure(torus_j1_report):
    report = torus_j1_report
    _no_failures(report)
    check = report.checks["isotopy"]
    assert check.passed
    smallest = min(report.records, key=lambda r: r.eps)
    assert smallest.nodal.graph_over_fiber is True
    assert smallest.nodal.component_count == len(smallest.nodal.zero_list) == 2
    print("PASS isotopy structure: nodal set is a graph over the predicted "
          "fibres and component count equals the zero count at the smallest eps")


def test_boundary_contact(guide_j1_report):
    report = guide_j1_report
    _no_failures(report)
    check = report.checks["boundary"]
    assert check.passed
    for rec in report.records:
        assert rec.nodal.boundary_components >= 2 * len(rec.nodal.zero_list)
        assert rec.nodal.boundary_components > 0
    print("PASS boundary contact: nodal set meets the walls with >= 2 x zeros "
          "components at every eps")


def test_courant_audit(torus_j0_report, torus_j1_report, guide_j0_report,
                       guide_j1_report, flat_setup):
    for name, report in (("torus j0", torus_j0_report), ("torus j1", torus_j1_report),
                         ("guide j0", guide_j0_report), ("guide j1", guide_j1_report)):
        check = report.checks["courant"]
        assert check.passed, f"{name}: {check.reason}"
        for counts in report.courant_counts.values():
            assert len(counts) >= 6
    _, _, _, solved = flat_setup
    for eps, (op, pairs) in solved.items():
        for idx in range(6):
            fld = field_from_operator(op, pairs.vectors[:, idx])
            assert count_nodal_domains(fld) <= idx + 1
    print("PASS Courant audit: first six eigenfunctions of every assembled "
          "operator have at most index+1 nodal domains")


def test_effective_potential_oracle():
    geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,)))
    eps_list = (0.3, 0.2, 0.1, 0.05)
    slopes = []
    for s in (0.0, np.pi / 2.0, np.pi):
        kap = geom.curvature.eval(s)
        errs = [
            abs((fiber_ground_energy(geom, eps, s, 128) - np.pi**2 / 4.0) / eps**2
                + kap**2 / 4.0)
            for eps in eps_list
        ]
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        slopes.append(slope)
        assert slope >= 1.8
    print(f"PASS effective-potential oracle: rescaled fibre ground shifts "
          f"converge to -kappa^2/4 with slopes {[f'{s:.2f}' for s in slopes]} >= 1.8")


def test_solver_and_assembly_invariants(tmp_path_factory, guide_j0_report):
    torus = WarpedTorusGeometry(np.pi, TWO_PI,
                                PeriodicProfile(TWO_PI, 0.0, (0.3,)), warp_is_exp=True)
    guide = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,)))
    t_op = assemble_full(torus, 0.1, GridSpec(48, 48, 4))
    g_op = assemble_full(guide, 0.2, GridSpec(48, 48, 4))
    assert t_op.symmetry_defect() == 0.0
    assert g_op.symmetry_defect() == 0.0

    cfg = SolveConfig(k=6, tol=1e-8, shift=-0.04)
    t_pairs = smallest_eigenpairs(t_op, cfg)
    g_pairs = smallest_eigenpairs(g_op, SolveConfig(k=6, tol=1e-8, shift=1.9))
    for op, pairs in ((t_op, t_pairs), (g_op, g_pairs)):
        rep = verify_pairs(op, pairs)
        assert rep.max_residual <= 1e-8
        assert rep.max_gram_offdiag <= 1e-8

    assert abs(t_pairs.values[0]) <= 1e-8
    kernel = t_pairs.vectors[:, 0] / np.max(np.abs(t_pairs.vectors[:, 0]))
    assert np.max(kernel) - np.min(kernel) <= 1e-6

    flat_cfg = {
        "geometry": {"type": "warped_torus", "L": np.pi, "fiber_length": TWO_PI,
                     "warp": {"constant": 1.0, "cos": [], "sin": []}},
        "epsilons": [0.5, 0.4, 0.3],
        "grid": {"n_s": 32, "n_f": 32, "stencil_order": 2, "refine": 2},
        "solver": {"k": 6, "tol": 1e-8, "max_iter": 5000, "seed": 0},
        "study": {"mode_index": 0, "checks": ["eig_rate"], "out": None},
    }
    out = tmp_path_factory.mktemp("determinism")
    emit_report(run_study(load_config(flat_cfg)), out / "a")
    emit_report(run_study(load_config(flat_cfg)), out / "b")
    for name in ("report.json", "records.csv"):
        assert (out / "a" / name).read_bytes() == (out / "b" / name).read_bytes()
    print("PASS solver and assembly invariants: exact symmetry, residuals and "
          "orthonormality within tolerance, constant kernel mode, "
          "byte-identical repeated reports")
