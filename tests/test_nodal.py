import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrelab.errors import DegenerateField, EmptySet, NonTransversalZero
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry
from fibrelab.nodal import (
    FiberLines,
    ScalarField,
    boundary_trace_components,
    count_nodal_domains,
    extract_nodal_set,
    graph_over_fiber_check,
    hausdorff_distance,
    nodal_set_to_csv,
    zeros_of_base,
)

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
