import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import fibrelab.nodal as nodal_module
from fibrelab.effective import build_prediction
from fibrelab.eigensolve import SolveConfig, smallest_eigenpairs
from fibrelab.errors import DegenerateField, EmptySet, NonTransversalZero
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry
from fibrelab.nodal import (
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


def node_graph_domains(fld):
    """Reference count: one graph node per grid node, one edge per equal-sign neighbour pair."""
    v = fld.values
    n_s, n_rows = v.shape
    sign = np.sign(v).astype(np.int8)
    idx = np.arange(v.size).reshape(n_s, n_rows)
    right = (sign != 0) & (sign == np.roll(sign, -1, axis=0))
    a, b = [idx[right]], [np.roll(idx, -1, axis=0)[right]]
    if fld.periodic_f:
        up = (sign != 0) & (sign == np.roll(sign, -1, axis=1))
        a.append(idx[up])
        b.append(np.roll(idx, -1, axis=1)[up])
    else:
        up = (sign[:, :-1] != 0) & (sign[:, :-1] == sign[:, 1:])
        a.append(idx[:, :-1][up])
        b.append(idx[:, 1:][up])
    a, b = np.concatenate(a), np.concatenate(b)
    graph = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(v.size, v.size))
    labels = connected_components(graph, directed=False)[1]
    return int(len(np.unique(labels[(sign != 0).ravel()])))


@st.composite
def signed_fields(draw):
    """Torus or strip fields of signs -1, 0, 1, exact zeros and whole one-sign fibres included."""
    periodic = draw(st.booleans())
    n_s, n_rows = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    signs = np.array(draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)),
                                   min_size=n_s * n_rows, max_size=n_s * n_rows)))
    vals = signs.reshape(n_s, n_rows) * draw(st.floats(0.1, 10.0))
    for i in draw(st.lists(st.integers(0, n_s - 1), max_size=3)):
        vals[i] = draw(st.sampled_from((-1.0, 1.0)))  # a fibre of one sign, no run starts on it
    h_s = TWO_PI / n_s
    h_f = TWO_PI / n_rows if periodic else 2.0 / (n_rows + 1)
    f = np.arange(n_rows) * h_f if periodic else -1.0 + h_f * np.arange(1, n_rows + 1)
    return ScalarField(vals, np.arange(n_s) * h_s, f, h_s, h_f, TWO_PI, periodic)


class TestRunLengthDomains:
    @given(signed_fields())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_node_graph(self, fld):
        assert count_nodal_domains(fld) == node_graph_domains(fld)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_runs_joined_across_the_fibre_seam(self, periodic):
        # + at both ends of every fibre, - between: one + domain through the
        # seam on the torus, two on the strip; the - band is one domain
        vals = np.tile([1.0, 1.0, -1.0, -1.0, 1.0], (6, 1))
        fld = ScalarField(vals, np.arange(6) * TWO_PI / 6, np.arange(5) * 0.3, TWO_PI / 6, 0.3,
                          TWO_PI, periodic)
        assert count_nodal_domains(fld) == node_graph_domains(fld) == (2 if periodic else 3)

    def test_overlaps_that_wrap_the_fibre(self):
        # fibres of one sign next to each other: their overlap has no first node
        vals = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 0.0, -1.0], [1.0, -1.0, 1.0]])
        for periodic in (True, False):
            fld = ScalarField(vals, np.arange(4) * TWO_PI / 4, np.arange(3) * 0.5, TWO_PI / 4,
                              0.5, TWO_PI, periodic)
            assert count_nodal_domains(fld) == node_graph_domains(fld)


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
    """Reference sampler: one ``np.linspace`` per segment, or per fibre over base points."""
    pieces = [np.zeros((0, 2))]
    if isinstance(obj, NodalSet):
        for p0, p1 in obj.segments:
            length = float(np.hypot(p1[0] - p0[0], stretch * (p1[1] - p0[1])))
            n = max(2, int(np.ceil(length / spacing)) + 1)
            t = np.linspace(0.0, 1.0, n)[:, None]
            pieces.append(p0[None, :] * (1.0 - t) + p1[None, :] * t)
    else:  # the fibres over the base points obj
        f_lo, f_hi = (-1.0, 1.0) if isinstance(geom, WaveguideGeometry) else (0.0, geom.fiber_length)
        n = max(2, int(np.ceil((f_hi - f_lo) * stretch / spacing)) + 1)
        f = np.linspace(f_lo, f_hi, n)
        pieces += [np.column_stack([np.full(n, s), f]) for s in obj]
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


def low_of(geom):
    """The warp's lower bound, less the margin that ``hausdorff_distance`` takes."""
    if isinstance(geom, WaveguideGeometry):
        return 1.0
    low = geom.warp.lower_bound
    return (float(np.exp(low)) if geom.warp_is_exp else low) * (1.0 - 1e-12)


def brute_hausdorff(nodal, zeros, geom, spacing):
    p = loop_sample(nodal, geom, stretch_of(geom), spacing)
    q = loop_sample(zeros, geom, stretch_of(geom), spacing)
    return max(brute_directed_sup_inf(p, q, geom), brute_directed_sup_inf(q, p, geom))


HAUSDORFF_GEOMETRIES = {
    "exp": WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.0, (0.3, 0.15)), True),
    "strong_exp": WarpedTorusGeometry(
        np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.0, (1.2, -0.5), (0.4,)), True
    ),
    "plain": WarpedTorusGeometry(np.pi, 3.0, PeriodicProfile(TWO_PI, 1.0, (0.6,), (0.3,))),
    "guide": WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5,))),
}
TORUS_GEOMETRIES = sorted(name for name in HAUSDORFF_GEOMETRIES if name != "guide")


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
    """(nodal set, base zeros, geometry, spacing) over the four test geometries."""
    geom = HAUSDORFF_GEOMETRIES[draw(st.sampled_from(sorted(HAUSDORFF_GEOMETRIES)))]
    zeros = np.array(draw(st.lists(
        st.one_of(st.floats(-0.5, geom.period + 0.5), st.sampled_from((0.0, geom.period))),
        min_size=1, max_size=3)))
    if draw(st.booleans()):
        nodal_set = draw(polyline_sets(geom))
        spacing = draw(st.floats(0.06, 0.3))
    else:  # a real nodal set
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
        spacing = draw(st.sampled_from((0.25, 0.5))) * min(h_s, h_f)
    return nodal_set, zeros, geom, spacing


def mode1_nodal_set(geom):
    """Mode-1 nodal set at eps 0.1 and its predicted zeros: a 64x64 torus, a 64x48 strip."""
    torus = isinstance(geom, WarpedTorusGeometry)
    grid = GridSpec(64, 64 if torus else 48, 4)
    op = assemble_full(geom, 0.1, grid)
    pairs = smallest_eigenpairs(op, SolveConfig(k=4, tol=1e-8, max_iter=5000, seed=0))
    # the strip's lowest pairs all carry the fibre ground state
    idx = int(np.flatnonzero(pairs.fiber_modes == 0)[1]) if torus else 1
    fld = field_from_operator(op, pairs.vectors[:, idx])
    pred = build_prediction(assemble_effective(geom, grid), 1)
    return fld, extract_nodal_set(fld), np.array([z for z, _ in pred.zeros])


def degenerate_segments(points):
    """A nodal set whose samples are exactly ``points``: each a segment of length 0."""
    points = np.asarray(points, dtype=float)
    return NodalSet(np.stack([points, points], axis=1), np.zeros(len(points), dtype=int), 1)


def fiber_line(s, f_lo, f_hi):
    """A nodal set that is one straight segment along the fibre over ``s``."""
    return NodalSet(np.array([[[s, f_lo], [s, f_hi]]]), np.zeros(1, dtype=int), 1)


class TestHausdorff:
    def test_identical_sets_vanish(self):
        # a nodal set made of the fibre samples themselves
        geom = flat_torus()
        q = loop_sample(np.array([1.0, 4.0]), geom, 1.0, 0.05)
        assert hausdorff_distance(degenerate_segments(q), [1.0, 4.0], geom, 0.05) == 0.0

    def test_two_shifted_circles(self):
        geom = flat_torus()
        delta = 0.5
        d = hausdorff_distance(fiber_line(1.0, 0.0, TWO_PI), [1.0 + delta], geom, 0.01)
        assert d == pytest.approx(delta, rel=0.02)

    def test_point_sets_on_base_circle(self):
        # a point against a whole fibre: the far side of the fibre decides,
        # up to the half step between the samples next to it
        geom = flat_torus()
        d = hausdorff_distance(degenerate_segments([[0.0, 0.0]]), [1.3], geom, 0.01)
        assert d == pytest.approx(np.hypot(1.3, np.pi), abs=0.01)

    def test_symmetry(self):
        # on the flat torus, swapping which fibre is the nodal set changes nothing
        geom = flat_torus()
        f = loop_sample(np.array([0.0]), geom, 1.0, 0.01)[:, 1]

        def line_at(s):
            return degenerate_segments(np.column_stack([np.full(len(f), s), f]))

        assert hausdorff_distance(line_at(0.5), [2.0], geom, 0.01) == \
            hausdorff_distance(line_at(2.0), [0.5], geom, 0.01) == 1.5

    def test_wraparound_distance(self):
        geom = flat_torus()
        d = hausdorff_distance(fiber_line(0.1, 0.0, TWO_PI), [TWO_PI - 0.1], geom, 0.01)
        assert d == pytest.approx(0.2, rel=0.05)

    def test_empty_set_raises(self):
        geom = flat_torus()
        with pytest.raises(EmptySet):
            hausdorff_distance(fiber_line(1.0, 0.0, 1.0), [], geom, 0.1)
        with pytest.raises(EmptySet):
            hausdorff_distance(degenerate_segments(np.zeros((0, 2))), [1.0], geom, 0.1)

    @pytest.mark.parametrize("sampling", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_sampling_rejected(self, sampling):
        with pytest.raises(ValueError, match="sampling spacing must be positive and finite"):
            hausdorff_distance(fiber_line(1.0, 0.0, 1.0), [2.0], flat_torus(), sampling)

    @given(hausdorff_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_all_pairs_search(self, case):
        nodal_set, zeros, geom, spacing = case
        assert np.array_equal(nodal_module._sample(nodal_set, stretch_of(geom), spacing),
                              loop_sample(nodal_set, geom, stretch_of(geom), spacing))
        expected = brute_hausdorff(nodal_set, zeros, geom, spacing)
        assert hausdorff_distance(nodal_set, zeros, geom, spacing) == expected

    def test_work_is_linear_in_the_samples(self, monkeypatch):
        geom = HAUSDORFF_GEOMETRIES["exp"]
        fld, nodal_set, zeros = mode1_nodal_set(geom)
        spacing = 0.125 * min(fld.h_s, fld.h_f)
        n_p = len(nodal_module._sample(nodal_set, stretch_of(geom), spacing))
        n_q = len(zeros) * len(nodal_module._fiber_grid(geom, stretch_of(geom), spacing))
        evaluated = []
        warp_value = WarpedTorusGeometry.warp_value

        def counting_warp_value(self, s):
            evaluated.append(np.size(s))
            return warp_value(self, s)

        monkeypatch.setattr(WarpedTorusGeometry, "warp_value", counting_warp_value)
        d = hausdorff_distance(nodal_set, zeros, geom, spacing)
        assert 0.0 < d < fld.h_s
        # an all-pairs search evaluates the warp at 2 |P| |Q| midpoints
        assert sum(evaluated) <= 64 * (n_p + n_q)

    def test_waveguide_work_is_linear_in_the_samples(self, monkeypatch):
        geom = WaveguideGeometry(TWO_PI, PeriodicProfile(TWO_PI, 1.0, (0.5, 0.25)))
        fld, nodal_set, zeros = mode1_nodal_set(geom)
        spacing = 0.125 * min(fld.h_s, fld.h_f)
        n_p = len(nodal_module._sample(nodal_set, 1.0, spacing))
        n_q = len(zeros) * len(nodal_module._fiber_grid(geom, 1.0, spacing))
        measured = []
        pair_d2 = nodal_module._pair_d2

        def counting_pair_d2(*args):
            d2 = pair_d2(*args)
            measured.append(d2.size)
            return d2

        monkeypatch.setattr(nodal_module, "_pair_d2", counting_pair_d2)
        d = hausdorff_distance(nodal_set, zeros, geom, spacing)
        assert 0.0 < d < fld.h_s
        # an all-pairs search measures 2 |P| |Q| pairs, here over 400 (|P| + |Q|)
        assert sum(measured) <= 64 * (n_p + n_q)

    def test_import_leaves_the_tree_module_unloaded(self):
        # a whole torus study, Hausdorff rate included, needs no scipy.spatial
        src = str(Path(nodal_module.__file__).resolve().parents[1])
        config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "warped_torus.json"
        script = (
            "import json, sys\n"
            "from fibrelab.study import load_config, run_study\n"
            f"raw = json.loads({config.read_text()!r})\n"
            "assert 'hausdorff_rate' in raw['study']['checks']\n"
            "report = run_study(load_config(raw))\n"
            "assert report.records and all(r.hausdorff for r in report.records)\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"


def fiber_special_points(geom, f):
    """Fibre coordinates where rounding decides the nearest sample."""
    f_lo, f_hi = fiber_range(geom)
    mid = 0.5 * (f[:-1] + f[1:])
    special = [f_lo, f_hi, f[1], f[-2], mid[0], mid[len(mid) // 2], mid[-1],
               np.nextafter(f_lo, -np.inf), np.nextafter(f_lo, np.inf),
               np.nextafter(f_hi, -np.inf), np.nextafter(f_hi, np.inf),
               np.nextafter(mid[3], -np.inf), np.nextafter(mid[3], np.inf)]
    if isinstance(geom, WarpedTorusGeometry):
        special += [1e-17, -1e-17, f_hi - 1e-16, f_hi + 1e-15, -0.3, f_hi + 0.3, -f_hi]
    return special


def midpoints_and_neighbours(f):
    """Every midpoint between two samples and the floats next to it.

    At many of them ``rint((f_p - f_lo) / step)`` names the sample that is
    one rounding step farther away.
    """
    mid = 0.5 * (f[:-1] + f[1:])
    return np.concatenate([mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)])


class TestFiberLineKernel:
    """Each point's distance to whole fibres, against every sample of every fibre."""

    @pytest.mark.parametrize("name", sorted(HAUSDORFF_GEOMETRIES))
    @pytest.mark.parametrize("spacing", [0.05, 0.13])
    def test_each_point_matches_all_samples(self, name, spacing):
        geom = HAUSDORFF_GEOMETRIES[name]
        zeros = np.array([0.0, 1.0, geom.period - 1e-9])
        f = nodal_module._fiber_grid(geom, stretch_of(geom), spacing)
        q = loop_sample(zeros, geom, stretch_of(geom), spacing)
        rng = np.random.default_rng(7)
        fs = fiber_special_points(geom, f) + list(rng.uniform(*fiber_range(geom), 20))
        ss = [0.0, geom.period, 0.5, 1.0, -1e-17, geom.period + 1e-15, 0.5 * geom.period]
        points = [(s, fp) for s in ss for fp in fs]
        points += [(1.0, fp) for fp in midpoints_and_neighbours(f)]  # on a fibre: ds = 0
        for point in points:
            p = np.array([point])
            got = nodal_module._sup_inf_to_fibers(p, zeros, f, geom)
            assert got == brute_directed_sup_inf(p, q, geom), point

    @pytest.mark.parametrize("name", sorted(HAUSDORFF_GEOMETRIES))
    def test_both_orders_equal_the_all_pairs_value(self, name):
        # both directed distances, nodal set to fibres and fibres to nodal set
        geom = HAUSDORFF_GEOMETRIES[name]
        spacing = 0.07
        f = nodal_module._fiber_grid(geom, stretch_of(geom), spacing)
        zeros = np.array([0.0, 2.0])
        pts = np.array([[s, fp] for s in (0.0, geom.period, 1.0, 2.0 + 1e-12)
                        for fp in fiber_special_points(geom, f)])
        q = loop_sample(zeros, geom, stretch_of(geom), spacing)
        assert nodal_module._sup_inf_to_fibers(pts, zeros, f, geom) == \
            brute_directed_sup_inf(pts, q, geom)
        assert nodal_module._sup_inf_from_fibers(zeros, f, pts, geom, low_of(geom)) == \
            brute_directed_sup_inf(q, pts, geom)
        assert hausdorff_distance(degenerate_segments(pts), zeros, geom, spacing) == \
            brute_hausdorff(degenerate_segments(pts), zeros, geom, spacing)


class TestTreeSearch:
    """The search from the fibre samples to the nodal samples."""

    @pytest.mark.parametrize("name", sorted(HAUSDORFF_GEOMETRIES))
    def test_crowded_targets_are_queried_again(self, name, monkeypatch):
        # no nodal sample lies within several steps of the fibre over z, so
        # the first bound settles no fibre sample; 40 coincident samples
        # crowd one spot, and every bound that reaches them holds all 40
        geom = HAUSDORFF_GEOMETRIES[name]
        f_lo, f_hi = fiber_range(geom)
        spacing = 0.05
        f = nodal_module._fiber_grid(geom, stretch_of(geom), spacing)
        step = f[1] - f[0]
        z = 1.0
        rng = np.random.default_rng(3)
        crowd = [[z + 12 * step, 0.5 * (f_lo + f_hi)]] * 40
        scatter = np.column_stack([z + rng.choice([-1.0, 1.0], 25) * rng.uniform(8, 60, 25) * step,
                                   rng.uniform(f_lo, f_hi, 25)])
        p = np.concatenate([crowd, scatter])
        passes = []
        pair_d2 = nodal_module._pair_d2

        def counting_pair_d2(*args):
            passes.append(np.size(args[0]))
            return pair_d2(*args)

        monkeypatch.setattr(nodal_module, "_pair_d2", counting_pair_d2)
        q = loop_sample(np.array([z]), geom, stretch_of(geom), spacing)
        got = nodal_module._sup_inf_from_fibers(np.array([z]), f, p, geom, low_of(geom))
        assert got == brute_directed_sup_inf(q, p, geom)
        assert passes[0] == 0 and len(passes) > 3  # the first bound held no pair
        assert hausdorff_distance(degenerate_segments(p), [z], geom, spacing) == \
            brute_hausdorff(degenerate_segments(p), np.array([z]), geom, spacing)

    @pytest.mark.parametrize("name", ["thin", "strong_exp"])
    def test_window_is_scaled_by_the_warp_lower_bound(self, name):
        # where the warp is small, a point far along the fibre is nearer in
        # the metric than one just beside it: the fibre samples of a gap of
        # 2 D around f0, a point at either end of the gap, and one at
        # base distance a from f0 with wt D < a < D
        geom = HAUSDORFF_GEOMETRIES.get(
            name, WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.2)))
        spacing = 0.05
        f = nodal_module._fiber_grid(geom, stretch_of(geom), spacing)
        s = np.linspace(0.0, geom.period, 4096, endpoint=False)
        z = s[np.argmin(geom.warp_value(s))]
        k0, gap = len(f) // 2, 20
        d_f = f[k0 + gap] - f[k0]
        a = np.sqrt(geom.warp_value(z)) * d_f
        fs = np.concatenate([f[: k0 - gap + 1], f[k0 + gap :]])
        p = np.concatenate([np.column_stack([np.full(len(fs), z), fs]), [[z + a, f[k0]]]])
        q = loop_sample(np.array([z]), geom, stretch_of(geom), spacing)
        got = nodal_module._sup_inf_from_fibers(np.array([z]), f, p, geom, low_of(geom))
        assert got == brute_directed_sup_inf(q, p, geom)
        assert got < 0.5 * a  # the gap's centre, nearest to its ends

    @pytest.mark.parametrize("name", TORUS_GEOMETRIES)
    def test_seam_sample_is_measured(self, name):
        # f[0] and f[n - 1] are one point of the fibre circle; the nodal
        # samples leave a gap around it, so the seam is the farthest fibre
        # sample, and rounding decides which of the two copies is farther
        geom = HAUSDORFF_GEOMETRIES[name]
        spacing = 0.05
        f = nodal_module._fiber_grid(geom, stretch_of(geom), spacing)
        zeros = np.array([0.0, 2.0])
        q = loop_sample(zeros, geom, stretch_of(geom), spacing)
        inner = f[(f > 0.4) & (f < f[-1] - 0.3)]
        for s in (0.0, 0.05, geom.period - 1e-9, 2.0 + 1e-12):
            for fs in (inner, inner - f[-1], np.append(inner, [0.3, f[-1] + 0.35])):
                p = np.column_stack([np.full(len(fs), s), fs])
                got = nodal_module._sup_inf_from_fibers(zeros, f, p, geom, low_of(geom))
                assert got == brute_directed_sup_inf(q, p, geom), (s, fs[0])


class TestBoundaryTraces:
    def test_single_line_pair_touches_both_walls(self):
        fld = guide_field(lambda s, u: np.sin(s + 0.05) * np.cos(np.pi * u / 2.0))
        assert boundary_trace_components(extract_nodal_set(fld)) == 4

    def test_two_line_pairs(self):
        fld = guide_field(lambda s, u: np.sin(2 * s + 0.05) * np.cos(np.pi * u / 2.0))
        assert boundary_trace_components(extract_nodal_set(fld)) == 8

    def test_positive_field_has_no_contacts(self):
        fld = guide_field(lambda s, u: 1.0 + 0.1 * np.cos(s) + 0.0 * u)
        assert boundary_trace_components(extract_nodal_set(fld)) == 0

    def test_periodic_fibre_is_refused(self):
        # a closed fibre has no walls to touch
        with pytest.raises(ValueError):
            boundary_trace_components(extract_nodal_set(torus_field(lambda s, t: np.cos(s))))


class TestGraphOverFiber:
    def test_vertical_circles_pass(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s)))
        assert graph_over_fiber_check(nodal, [np.pi / 2, 3 * np.pi / 2], 0.1) is True

    def test_horizontal_lines_fail_uniqueness(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s + 0.05) * np.cos(t + 0.1)))
        zeros = [np.pi / 2 - 0.05, 3 * np.pi / 2 - 0.05]
        assert graph_over_fiber_check(nodal, zeros, 0.2) is False

    def test_component_count_mismatch_fails(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: 1.0 + 0.1 * np.cos(s)))
        assert graph_over_fiber_check(nodal, [np.pi], 0.1) is False

    def test_empty_nodal_and_no_zeros_passes(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: 1.0 + 0.1 * np.cos(s)))
        assert graph_over_fiber_check(nodal, [], 0.1) is True


def row_loop_graph_check(nodal, zeros_s, tube_radius):
    """Reference check: one fibre grid row at a time."""
    zeros = np.asarray(zeros_s, dtype=float)
    if nodal.component_count != len(zeros):
        return False
    if len(zeros) == 0:
        return len(nodal.segments) == 0
    period = nodal.s_period
    seg_s = nodal.segments[:, :, 0].ravel()
    if len(seg_s):
        dmin = np.min(nodal_module._circle_dist(seg_s[:, None], zeros[None, :], period), axis=1)
        if float(dmin.max()) > tube_radius:
            return False
    for j in range(nodal.n_rows):
        ss = nodal.row_crossings.get(j, np.zeros(0))
        if len(ss) == 0:
            return False
        in_tube = nodal_module._circle_dist(ss[:, None], zeros[None, :], period) <= tube_radius
        if np.any(~np.any(in_tube, axis=1)):
            return False
        if np.any(np.count_nonzero(in_tube, axis=0) != 1):
            return False
    return True


@st.composite
def graph_check_cases(draw):
    """A nodal set of a perturbed cos(m s) field, candidate zeros and a tube radius."""
    m = draw(st.integers(1, 3))
    phase, tilt, wobble = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    fld = torus_field(lambda s, t: np.cos(m * s + phase + 0.3 * tilt * np.sin(t))
                      + 0.2 * wobble * np.cos(t), n=24)
    try:
        nodal = extract_nodal_set(fld)
    except DegenerateField:
        assume(False)
    zeros = sorted(((np.pi / 2 + k * np.pi - phase) / m) % TWO_PI for k in range(2 * m))
    zeros = [z + draw(st.floats(-0.2, 0.2)) for z in zeros]
    if draw(st.booleans()) and len(zeros) > 1:
        zeros[1] = zeros[0] + draw(st.floats(0.0, 0.3))  # two tubes that overlap
    if draw(st.booleans()) and nodal.row_crossings:
        del nodal.row_crossings[draw(st.sampled_from(sorted(nodal.row_crossings)))]
    return nodal, zeros, draw(st.floats(0.01, 1.0))


class TestGraphCheckKernel:
    @given(graph_check_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_row_loop(self, case):
        nodal, zeros, radius = case
        assert graph_over_fiber_check(nodal, zeros, radius) is \
            row_loop_graph_check(nodal, zeros, radius)

    def test_missing_row_fails(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s)))
        zeros = [np.pi / 2, 3 * np.pi / 2]
        assert graph_over_fiber_check(nodal, zeros, 0.1) is True
        del nodal.row_crossings[5]
        assert graph_over_fiber_check(nodal, zeros, 0.1) is False
        assert row_loop_graph_check(nodal, zeros, 0.1) is False

    def test_crossing_outside_every_tube_fails(self):
        # row crossings that no segment carries: only the row test sees them
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s)))
        zeros = [np.pi / 2, 3 * np.pi / 2]
        nodal.row_crossings[7] = np.append(nodal.row_crossings[7], 0.0)
        assert graph_over_fiber_check(nodal, zeros, 0.1) is False
        assert row_loop_graph_check(nodal, zeros, 0.1) is False

    def test_crossing_inside_two_tubes_counts_for_both(self):
        nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s)))
        # each row's crossing at pi/2 lies in the tubes of pi/2 - 0.05 and pi/2 + 0.05
        zeros = [np.pi / 2 - 0.05, np.pi / 2 + 0.05]
        one_line = replace(nodal, component_count=2,
                           segments=nodal.segments[nodal.segments[:, 0, 0] < np.pi],
                           row_crossings={j: ss[ss < np.pi] for j, ss in nodal.row_crossings.items()})
        assert graph_over_fiber_check(one_line, zeros, 0.1) is True
        assert row_loop_graph_check(one_line, zeros, 0.1) is True
        # with tubes wide enough for both lines, each tube crosses every row twice
        assert graph_over_fiber_check(nodal, zeros, 3.2) is False
        assert row_loop_graph_check(nodal, zeros, 3.2) is False


def test_csv_export_shape():
    nodal = extract_nodal_set(torus_field(lambda s, t: np.cos(s + 0.1)))
    text = nodal_set_to_csv(nodal)
    lines = text.strip().split("\n")
    assert lines[0] == "s0,f0,s1,f1,component"
    assert len(lines) == len(nodal.segments) + 1
    assert all(len(line.split(",")) == 5 for line in lines[1:])
