import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fibrelab.nodal as nodal_module
from fibrelab.effective import build_prediction
from fibrelab.eigensolve import SolveConfig, smallest_eigenpairs
from fibrelab.errors import DegenerateField, EmptySet, NonTransversalZero
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry
from fibrelab.nodal import (
    FiberLines,
    NodalSet,
    ScalarField,
    boundary_trace_components,
    count_nodal_domains,
    extract_nodal_set,
    field_from_operator,
    graph_over_fiber_check,
    hausdorff_distance,
    zeros_of_base,
)
from fibrelab.operators import GridSpec, assemble_effective, assemble_full
from fibrelab.report import nodal_set_to_csv

TWO_PI = 2.0 * np.pi


def torus_field(fn, n=64):
    h = TWO_PI / n
    s = np.arange(n) * h
    t = np.arange(n) * h
    vals = fn(s[:, None], t[None, :]) * np.ones((n, n))
    return ScalarField(vals, s, t, h, h, TWO_PI, True)


def guide_field(fn, n_s=64, n_f=64):
    h_s = TWO_PI / n_s
    h_f = 2.0 / n_f
    s = np.arange(n_s) * h_s
    u = -1.0 + h_f * np.arange(1, n_f)
    vals = fn(s[:, None], u[None, :]) * np.ones((n_s, n_f - 1))
    return ScalarField(vals, s, u, h_s, h_f, TWO_PI, False)


def flat_torus():
    return WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 1.0))


def straight_guide():
    return WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 0.0))


class TestExtractNodalSet:
    def test_vertical_circles_of_cos(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s)))
        assert nodal.component_count == 2
        # each component closes around the fibre circle: one crossing per row,
        # located at the zeros of the cosine
        for j in range(nodal.n_rows):
            ss = nodal.row_crossings[j]
            assert len(ss) == 2
            assert np.allclose(np.sort(ss), [np.pi / 2, 3 * np.pi / 2], atol=1e-9)

    def test_segments_stay_within_one_cell(self):
        nodal = extract_nodal_set(
            torus_field(lambda s, t: np.cos(s + 0.3) * np.cos(t + 0.2) + 0.1)
        )
        spans = np.abs(nodal.segments[:, 1] - nodal.segments[:, 0])
        assert np.all(spans[:, 0] <= nodal.h_s * (1 + 1e-12))
        assert np.all(spans[:, 1] <= nodal.h_f * (1 + 1e-12))

    @pytest.mark.parametrize("m,expected", [(1, 2), (2, 4), (3, 6)])
    def test_cos_multiples_components(self, m, expected):
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(m * s + 0.1)))
        assert nodal.component_count == expected

    def test_guide_mode_lines(self):
        fld = guide_field(lambda s, u: np.sin(s + 0.05) * np.cos(np.pi * u / 2.0))
        nodal = extract_nodal_set(fld)
        assert nodal.component_count == 2
        assert len(nodal.wall_contacts) == 4

    def test_positive_field_is_empty(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: 2.0 + np.cos(s)))
        assert nodal.component_count == 0
        assert len(nodal.segments) == 0

    def test_degenerate_field_raises(self):
        fld = torus_field(lambda s, t: np.sin(s))
        fld.values[0, :] = 0.0  # a full zero column is > 1% of nodes
        with pytest.raises(DegenerateField):
            extract_nodal_set(fld)

    def test_every_sign_changing_edge_crossed_once(self):
        fld = torus_field(lambda s, t: np.cos(s + 0.3) * np.cos(t + 0.2) + 0.1)
        nodal = extract_nodal_set(fld)
        pos = fld.values > 0
        changes = int(np.sum(pos != np.roll(pos, -1, axis=0)))
        changes += int(np.sum(pos != np.roll(pos, -1, axis=1)))
        endpoints = set()
        count = 0
        for j, ss in nodal.row_crossings.items():
            count += len(ss)
        # f-edge crossings = total endpoints - s-edge crossings
        keys = 2 * len(nodal.segments)
        assert changes >= count
        # every segment endpoint sits on a sign-changing edge, shared exactly
        # by the segments meeting there; crossing coordinates per edge are unique
        flat = nodal.segments.reshape(-1, 2)
        uniq = {(round(a % TWO_PI, 9), round(b % TWO_PI, 9)) for a, b in flat}
        assert len(uniq) == changes

    def test_saddle_cells_resolved_deterministically(self):
        fld = torus_field(lambda s, t: np.cos(s + 0.3) * np.cos(t + 0.2))
        a = extract_nodal_set(fld)
        b = extract_nodal_set(fld)
        assert np.array_equal(a.segments, b.segments)
        assert a.component_count == b.component_count


@st.composite
def random_sign_fields(draw):
    """Torus or strip fields of random signs, full of saddle cells.

    Magnitudes stay in [0.01, 1], so every crossing sits strictly inside
    its edge, at least 1% of a cell from either node.
    """
    periodic = draw(st.booleans())
    n_s, n_rows = draw(st.integers(3, 10)), draw(st.integers(2, 10))
    size = n_s * n_rows
    mags = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=size, max_size=size))
    vals = (np.asarray(mags) * np.asarray(signs)).reshape(n_s, n_rows)
    h_s = TWO_PI / n_s
    if periodic:
        h_f = TWO_PI / n_rows
        f = np.arange(n_rows) * h_f
    else:
        h_f = 2.0 / (n_rows + 1)
        f = -1.0 + h_f * np.arange(1, n_rows + 1)
    return ScalarField(vals, np.arange(n_s) * h_s, f, h_s, h_f, TWO_PI, periodic)


def crossing_edge(fld, point):
    """Grid edge ("s" along the base or "f" along the fibre, i, j) a crossing lies on."""
    n_s, n_rows = fld.values.shape
    x = point[0] / fld.h_s
    y = (point[1] - fld.f_nodes[0]) / fld.h_f
    if abs(y - round(y)) < 1e-9:
        return ("s", int(np.floor(x + 1e-9)) % n_s, round(y) % n_rows)
    assert abs(x - round(x)) < 1e-9, f"crossing {point} lies on no grid edge"
    return ("f", round(x) % n_s, int(np.floor(y + 1e-9)) % n_rows)


class TestExtractionInvariants:
    @given(random_sign_fields())
    @settings(max_examples=150, deadline=None)
    def test_crossings_segments_and_labels(self, fld):
        nodal = extract_nodal_set(fld)
        pos = fld.values > 0
        n_rows = pos.shape[1]
        f_rows = n_rows if fld.periodic_f else n_rows - 1
        expected = {("s", i, j) for i, j in np.argwhere(pos != np.roll(pos, -1, axis=0))}
        expected |= {("f", i, j) for i, j in np.argwhere(pos != np.roll(pos, -1, axis=1))
                     if j < f_rows}

        at_edge: dict = {}  # edge -> [(segment, crossing point)]
        for m, seg in enumerate(nodal.segments):
            for point in seg:
                if not fld.periodic_f and abs(point[1]) == 1.0:
                    continue  # a strip chain closed off to the wall
                at_edge.setdefault(crossing_edge(fld, point), []).append((m, point))

        # every sign-changing edge carries exactly one crossing, and only those do
        assert set(at_edge) == expected
        # each crossing ends exactly two segments; on a strip a crossing in
        # the outermost row ends one cell segment and its wall closure
        assert all(len(uses) == 2 for uses in at_edge.values())
        # both ends agree on the crossing, and segments sharing it share a label
        labels = nodal.component_labels
        period = np.array([TWO_PI, fld.h_f * n_rows if fld.periodic_f else np.inf])
        for (m, p), (k, q) in at_edge.values():
            gap = np.abs(p - q)
            assert np.all(np.minimum(gap, period - gap) < 1e-9)
            assert labels[m] == labels[k]
        # labels are 0..count-1, numbered by first appearance
        assert list(dict.fromkeys(labels.tolist())) == list(range(nodal.component_count))


class TestNodalDomains:
    def test_cos_has_two_domains(self):
        assert count_nodal_domains(torus_field(lambda s, t: np.cos(s + 0.1))) == 2

    def test_constant_has_one(self):
        assert count_nodal_domains(torus_field(lambda s, t: 1.0 + 0.0 * s)) == 1

    def test_cos2s_has_four(self):
        assert count_nodal_domains(torus_field(lambda s, t: np.cos(2 * s + 0.1))) == 4

    def test_sign_flip_symmetry(self):
        fld = torus_field(lambda s, t: np.cos(s + 0.3) * np.cos(t + 0.7) + 0.2)
        neg = torus_field(lambda s, t: -(np.cos(s + 0.3) * np.cos(t + 0.7) + 0.2))
        assert count_nodal_domains(fld) == count_nodal_domains(neg)

    def test_partition_counts(self):
        fld = torus_field(lambda s, t: np.sin(s) * np.sin(t))
        v = fld.values
        assert (v > 0).sum() + (v < 0).sum() + (v == 0).sum() == v.size

    def test_guide_checkerboard(self):
        fld = guide_field(lambda s, u: np.sin(s + 0.02) * np.sin(np.pi * u + 0.013))
        assert count_nodal_domains(fld) == 4


class TestZerosOfBase:
    def test_sin_zeros_and_slopes(self):
        n = 256
        s = np.arange(n) * TWO_PI / n
        zeros = zeros_of_base(np.sin(s), s, TWO_PI)
        assert len(zeros) == 2
        assert zeros[0][0] == pytest.approx(0.0, abs=1e-12)
        assert zeros[1][0] == pytest.approx(np.pi, abs=1e-12)
        assert zeros[0][1] == pytest.approx(1.0, abs=1e-3)
        assert zeros[1][1] == pytest.approx(-1.0, abs=1e-3)

    def test_constant_has_no_zeros(self):
        n = 64
        s = np.arange(n) * TWO_PI / n
        assert zeros_of_base(np.ones(n), s, TWO_PI) == []

    def test_sin2s_has_four_zeros(self):
        n = 256
        s = np.arange(n) * TWO_PI / n
        zeros = zeros_of_base(np.sin(2 * s), s, TWO_PI)
        assert [z for z, _ in zeros] == pytest.approx([0.0, np.pi / 2, np.pi, 3 * np.pi / 2],
                                                      abs=1e-12)

    def test_tangential_zero_flagged(self):
        n = 64
        s = np.arange(n) * TWO_PI / n
        with pytest.raises(NonTransversalZero):
            zeros_of_base(1.0 + np.cos(2 * s), s, TWO_PI)


def loop_sample(obj, geom, stretch, spacing):
    """Reference sampler: one ``np.linspace`` per fibre line and per segment."""
    pieces = [np.zeros((0, 2))]
    if isinstance(obj, FiberLines):
        f_lo, f_hi = (-1.0, 1.0) if isinstance(geom, WaveguideGeometry) else (0.0, geom.fiber_length)
        n = max(2, int(np.ceil((f_hi - f_lo) * stretch / spacing)) + 1)
        f = np.linspace(f_lo, f_hi, n)
        pieces += [np.column_stack([np.full(n, s), f]) for s in obj.s_positions]
    else:
        for p0, p1 in obj.segments:
            length = float(np.hypot(p1[0] - p0[0], stretch * (p1[1] - p0[1])))
            n = max(2, int(np.ceil(length / spacing)) + 1)
            t = np.linspace(0.0, 1.0, n)[:, None]
            pieces.append(p0[None, :] * (1.0 - t) + p1[None, :] * t)
    return np.concatenate(pieces, axis=0)


def brute_directed_sup_inf(p, q, geom):
    """Reference search: the chart distance of every pair of points."""
    period = geom.period
    torus = isinstance(geom, WarpedTorusGeometry)
    fiber_period = geom.fiber_length if torus else None
    worst = 0.0
    for start in range(0, len(p), 512):
        pc = p[start : start + 512]
        ds = pc[:, 0][:, None] - q[:, 0][None, :]
        ds -= period * np.round(ds / period)
        df = pc[:, 1][:, None] - q[:, 1][None, :]
        if fiber_period is not None:
            df -= fiber_period * np.round(df / fiber_period)
        if torus:
            mid = q[:, 0][None, :] + 0.5 * ds
            wt = geom.warp_value(np.mod(mid, period))
            d2 = ds * ds + (wt * df) ** 2
        else:
            d2 = ds * ds + df * df
        worst = max(worst, float(np.sqrt(np.min(d2, axis=1)).max()))
    return worst


def stretch_of(geom):
    if isinstance(geom, WaveguideGeometry):
        return 1.0
    bound = geom.warp.max_abs_bound
    return max(1.0, float(np.exp(bound)) if geom.warp_is_exp else bound)


def brute_hausdorff(set_a, set_b, geom, spacing):
    pa = loop_sample(set_a, geom, stretch_of(geom), spacing)
    pb = loop_sample(set_b, geom, stretch_of(geom), spacing)
    return max(brute_directed_sup_inf(pa, pb, geom), brute_directed_sup_inf(pb, pa, geom))


HAUSDORFF_GEOMETRIES = {
    "exp": WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.0, (0.3, 0.15)), True),
    "strong_exp": WarpedTorusGeometry(
        np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.0, (1.2, -0.5), (0.4,)), True
    ),
    "plain": WarpedTorusGeometry(np.pi, 3.0, PeriodicProfile(TWO_PI, 1.0, (0.6,), (0.3,))),
    "guide": WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,))),
}


def fiber_range(geom):
    return (-1.0, 1.0) if isinstance(geom, WaveguideGeometry) else (0.0, geom.fiber_length)


@st.composite
def polyline_sets(draw, geom):
    """A random polyline whose ``s`` straddles 0 and the period and runs past it.

    Like the unwrapped segments of a nodal set, consecutive points may lie
    on either side of a seam without being taken back into the chart.
    """
    f_lo, f_hi = fiber_range(geom)
    pad = 0.0 if isinstance(geom, WaveguideGeometry) else 0.3
    n = draw(st.integers(1, 12))
    s0 = draw(st.sampled_from((-0.4, geom.period - 0.4, draw(st.floats(-1.0, geom.period + 1.0)))))
    f0 = draw(st.floats(f_lo - pad, f_hi + pad))
    steps = draw(st.lists(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
                          min_size=n, max_size=n))
    pts = np.array([[s0, f0]] + steps).cumsum(axis=0)
    pts[:, 1] = np.clip(pts[:, 1], f_lo - pad, f_hi + pad)
    segments = np.stack([pts[:-1], pts[1:]], axis=1)
    return NodalSet(segments, np.zeros(n, dtype=int), 1)


@st.composite
def hausdorff_cases(draw):
    """(set, set, geometry, spacing) over the four test geometries."""
    geom = HAUSDORFF_GEOMETRIES[draw(st.sampled_from(sorted(HAUSDORFF_GEOMETRIES)))]
    lines = FiberLines(np.array(draw(st.lists(
        st.one_of(st.floats(-0.5, geom.period + 0.5), st.sampled_from((0.0, geom.period))),
        min_size=1, max_size=3))))
    if draw(st.booleans()):
        set_a = draw(polyline_sets(geom))
        set_b = draw(st.sampled_from((lines, draw(polyline_sets(geom)))))
        spacing = draw(st.floats(0.06, 0.3))
    else:  # a real nodal set against whole fibres
        n = draw(st.integers(12, 24))
        a = draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
        h_s = geom.period / n
        s = np.arange(n) * h_s
        if isinstance(geom, WaveguideGeometry):
            h_f = 2.0 / n
            f = -1.0 + h_f * np.arange(1, n)
            phase = np.pi * (f + 1.0) / 2.0
        else:
            h_f = geom.fiber_length / n
            f = np.arange(n) * h_f
            phase = TWO_PI * f / geom.fiber_length
        vals = (a[0] * np.cos(s + a[1])[:, None] * np.ones_like(phase)
                + a[2] * np.cos(2 * s + a[3])[:, None] * np.sin(phase + a[4])[None, :]
                + 0.1 * a[5] + 1e-3)
        nodal_set = extract_nodal_set(ScalarField(vals, s, f, h_s, h_f, geom.period,
                                                  isinstance(geom, WarpedTorusGeometry)))
        assume(len(nodal_set.segments) > 0)
        set_a, set_b = nodal_set, lines
        spacing = draw(st.sampled_from((0.25, 0.5))) * min(h_s, h_f)
    if draw(st.booleans()):
        set_a, set_b = set_b, set_a
    return set_a, set_b, geom, spacing


def mode1_nodal_set():
    """Mode-1 nodal set of a 64x64 warped torus and the fibres over its predicted zeros."""
    geom = HAUSDORFF_GEOMETRIES["exp"]
    grid = GridSpec(64, 64, 4)
    op = assemble_full(geom, 0.1, grid)
    pairs = smallest_eigenpairs(op, SolveConfig(k=4, tol=1e-8, max_iter=5000, seed=0))
    idx = int(np.flatnonzero(pairs.fiber_modes == 0)[1])
    fld = field_from_operator(op, pairs.vectors[:, idx])
    pred = build_prediction(assemble_effective(geom, grid), 1)
    zeros = FiberLines(np.array([z for z, _ in pred.zeros]))
    return geom, fld, extract_nodal_set(fld), zeros


class TestHausdorff:
    def test_identical_sets_vanish(self):
        geom = flat_torus()
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s)))
        assert hausdorff_distance(nodal, nodal, geom, 0.05) == 0.0

    def test_two_shifted_circles(self):
        geom = flat_torus()
        delta = 0.5
        a = FiberLines(np.array([1.0]))
        b = FiberLines(np.array([1.0 + delta]))
        d = hausdorff_distance(a, b, geom, 0.01)
        assert d == pytest.approx(delta, rel=0.02)

    def test_point_sets_on_base_circle(self):
        geom = flat_torus()
        d = hausdorff_distance(FiberLines(np.array([0.0])), FiberLines(np.array([1.3])), geom, 0.01)
        assert d == pytest.approx(1.3, rel=0.02)

    def test_symmetry(self):
        geom = flat_torus()
        a = FiberLines(np.array([0.5]))
        b = FiberLines(np.array([2.0]))
        assert hausdorff_distance(a, b, geom, 0.01) == hausdorff_distance(b, a, geom, 0.01)

    def test_wraparound_distance(self):
        geom = flat_torus()
        a = FiberLines(np.array([0.1]))
        b = FiberLines(np.array([TWO_PI - 0.1]))
        assert hausdorff_distance(a, b, geom, 0.01) == pytest.approx(0.2, rel=0.05)

    def test_empty_set_raises(self):
        geom = flat_torus()
        with pytest.raises(EmptySet):
            hausdorff_distance(FiberLines(np.zeros(0)), FiberLines(np.array([1.0])), geom, 0.1)

    @pytest.mark.parametrize("sampling", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_sampling_rejected(self, sampling):
        geom = flat_torus()
        a, b = FiberLines(np.array([1.0])), FiberLines(np.array([2.0]))
        with pytest.raises(ValueError, match="sampling spacing must be positive and finite"):
            hausdorff_distance(a, b, geom, sampling)

    @given(hausdorff_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_all_pairs_search(self, case):
        set_a, set_b, geom, spacing = case
        for obj in (set_a, set_b):
            assert np.array_equal(nodal_module._sample(obj, geom, stretch_of(geom), spacing),
                                  loop_sample(obj, geom, stretch_of(geom), spacing))
        expected = brute_hausdorff(set_a, set_b, geom, spacing)
        assert hausdorff_distance(set_a, set_b, geom, spacing) == pytest.approx(expected,
                                                                               rel=1e-13)

    def test_work_is_linear_in_the_samples(self, monkeypatch):
        geom, fld, nodal_set, zeros = mode1_nodal_set()
        spacing = 0.125 * min(fld.h_s, fld.h_f)
        n_p = len(nodal_module._sample(nodal_set, geom, stretch_of(geom), spacing))
        n_q = len(nodal_module._sample(zeros, geom, stretch_of(geom), spacing))
        evaluated = []
        warp_value = WarpedTorusGeometry.warp_value

        def counting_warp_value(self, s, deriv=0):
            evaluated.append(np.size(s))
            return warp_value(self, s, deriv)

        monkeypatch.setattr(WarpedTorusGeometry, "warp_value", counting_warp_value)
        d = hausdorff_distance(nodal_set, zeros, geom, spacing)
        assert 0.0 < d < fld.h_s
        # an all-pairs search evaluates the warp at 2 |P| |Q| midpoints
        assert sum(evaluated) <= 64 * (n_p + n_q)

    def test_import_leaves_the_tree_module_unloaded(self):
        src = str(Path(nodal_module.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, fibrelab; print('scipy.spatial' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestBoundaryTraces:
    def test_single_line_pair_touches_both_walls(self):
        geom = straight_guide()
        fld = guide_field(lambda s, u: np.sin(s + 0.05) * np.cos(np.pi * u / 2.0))
        assert boundary_trace_components(extract_nodal_set(fld), geom) == 4

    def test_two_line_pairs(self):
        geom = straight_guide()
        fld = guide_field(lambda s, u: np.sin(2 * s + 0.05) * np.cos(np.pi * u / 2.0))
        assert boundary_trace_components(extract_nodal_set(fld), geom) == 8

    def test_positive_field_has_no_contacts(self):
        geom = straight_guide()
        fld = guide_field(lambda s, u: 1.0 + 0.1 * np.cos(s) + 0.0 * u)
        assert boundary_trace_components(extract_nodal_set(fld), geom) == 0


class TestGraphOverFiber:
    def test_vertical_circles_pass(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s)))
        zeros = [(np.pi / 2, -1.0), (3 * np.pi / 2, 1.0)]
        assert graph_over_fiber_check(nodal, zeros, 0.1) is True

    def test_horizontal_lines_fail_uniqueness(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s + 0.05) * np.cos(t + 0.1)))
        zeros = [(np.pi / 2 - 0.05, -1.0), (3 * np.pi / 2 - 0.05, 1.0)]
        assert graph_over_fiber_check(nodal, zeros, 0.2) is False

    def test_component_count_mismatch_fails(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: 1.0 + 0.1 * np.cos(s)))
        assert graph_over_fiber_check(nodal, [(np.pi, 1.0)], 0.1) is False

    def test_empty_nodal_and_no_zeros_passes(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: 1.0 + 0.1 * np.cos(s)))
        assert graph_over_fiber_check(nodal, [], 0.1) is True


def test_csv_export_shape():
    nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s + 0.1)))
    text = nodal_set_to_csv(nodal)
    lines = text.strip().split("\n")
    assert lines[0] == "s0,f0,s1,f1,component"
    assert len(lines) == len(nodal.segments) + 1
    assert all(len(line.split(",")) == 5 for line in lines[1:])
