"""Nodal sets and nodal domains of discrete eigenfunctions.

Zero level sets are extracted with a 16-case marching-squares table over
the whole grid and linear interpolation along sign-changing edges.  Each
segment endpoint is the integer id of the grid edge that carries it, so
shared endpoints are exact and connectivity is graph labelling over edge
ids, the same :func:`scipy.sparse.csgraph.connected_components` labelling
that counts nodal domains.  On Dirichlet strips every chain reaching the
outermost interior row is closed off to the wall, where the eigenfunction
vanishes; wall contact points feed the boundary-trace count.

Hausdorff distances are measured in the eps-independent metric of the
geometry: ``ds^2 + a(s)^2 dt^2`` on the torus and the flat chart metric
``ds^2 + du^2`` on the waveguide (the tube density is dropped there; its
effect is an order-eps correction, below the quantity being measured).
Both sets are sampled, and two sample points are compared with the metric
frozen at their midpoint.  The sup-inf over the samples is found exactly
without visiting every pair: a periodic KD-tree over a chart whose
Euclidean distance bounds the metric distance from below (``t`` scaled by
a certified lower bound of the warp) yields, per point, an upper bound
from its tree-nearest neighbour and then the few candidates within it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateField, EmptySet, NonTransversalZero
from .geometry import BundleGeometry, WarpedTorusGeometry, WaveguideGeometry
from .operators import DiscreteOperator, fiber_nodes, base_nodes

__all__ = [
    "ScalarField",
    "NodalSet",
    "NodalReport",
    "FiberLines",
    "field_from_operator",
    "extract_nodal_set",
    "count_nodal_domains",
    "zeros_of_base",
    "hausdorff_distance",
    "boundary_trace_components",
    "graph_over_fiber_check",
]


@dataclass
class ScalarField:
    """Grid samples of a scalar function on one of the testbeds."""

    values: np.ndarray  # (n_s, n_rows)
    s_nodes: np.ndarray
    f_nodes: np.ndarray
    h_s: float
    h_f: float
    s_period: float
    periodic_f: bool

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.s_nodes), len(self.f_nodes)):
            raise ValueError("field shape does not match the node arrays")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def field_from_operator(op: DiscreteOperator, vec: np.ndarray) -> ScalarField:
    """Reshape an eigenvector of a full operator into a grid field."""
    geom, grid = op.geometry, op.grid
    s, h_s = base_nodes(geom, grid.n_s)
    f, _, h_f = fiber_nodes(geom, grid.n_f)
    return ScalarField(
        values=np.asarray(vec, dtype=float).reshape(grid.n_s, len(f)),
        s_nodes=s,
        f_nodes=f,
        h_s=h_s,
        h_f=h_f,
        s_period=geom.period,
        periodic_f=not isinstance(geom, WaveguideGeometry),
    )


@dataclass
class NodalSet:
    """Straight segments of the extracted zero level set."""

    segments: np.ndarray  # (m, 2, 2): endpoint coordinates (s, f)
    component_labels: np.ndarray  # (m,)
    component_count: int
    wall_contacts: list[tuple[int, float]] = field(default_factory=list)
    row_crossings: dict[int, np.ndarray] = field(default_factory=dict)
    s_period: float = 0.0
    h_s: float = 0.0
    h_f: float = 0.0
    n_rows: int = 0
    periodic_f: bool = True


@dataclass
class FiberLines:
    """Preimage of finitely many base points: whole fibres."""

    s_positions: np.ndarray

    def __post_init__(self) -> None:
        self.s_positions = np.atleast_1d(np.asarray(self.s_positions, dtype=float))


@dataclass
class NodalReport:
    """Aggregated nodal quantities for one eigenfunction."""

    domain_count: int
    component_count: int
    hausdorff: Optional[float]
    boundary_components: int
    graph_over_fiber: Optional[bool]
    zero_list: list[float]


def _circle_dist(a, b, period: float):
    d = np.abs(np.asarray(a) - np.asarray(b)) % period
    return np.minimum(d, period - d)


def _segment_table() -> np.ndarray:
    """Edge slots joined by the segments of each marching-squares case.

    Corners a=(i, j), b=(i+1, j), c=(i+1, j+1), d=(i, j+1) of a cell give
    case ``a + 2b + 4c + 8d`` of their signs; the edge slots are bottom
    (a-b), right (b-c), top (d-c) and left (a-d).  A cell cut on two edges
    joins them in that order.  The saddle cases 5 and 10 join the a-c
    diagonal through the centre (segments bottom-right, top-left); row 16
    is the other resolution.  Each row holds two segments, -1 when unused.
    """
    table = np.full((17, 2, 2), -1)
    for case in range(16):
        a, b, c, d = ((case >> k) & 1 for k in range(4))
        cut = [slot for slot, crossed in enumerate((a != b, b != c, d != c, a != d)) if crossed]
        if len(cut) == 2:
            table[case, 0] = cut
        elif len(cut) == 4:
            table[case] = [[0, 1], [2, 3]]
    table[16] = [[0, 3], [2, 1]]
    return table


_SEGMENT_TABLE = _segment_table()


def _label_components(n_nodes: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of every node of the graph with edges a[k]-b[k]."""
    graph = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(n_nodes, n_nodes))
    return connected_components(graph, directed=False)[1]


def extract_nodal_set(fld: ScalarField) -> NodalSet:
    """Marching-squares zero set with connected-component labels.

    Segments follow the cells in row-major order, a saddle cell's two in a
    row, and components are numbered by first appearance.  Saddle cells
    are disambiguated by the sign of the cell-centre average.  Raises
    :class:`DegenerateField` when more than 1% of the nodes vanish
    exactly; callers resolve that with a half-cell grid offset.
    """
    v = fld.values
    n_s, n_rows = v.shape
    if v.size == 0 or not np.any(v):
        raise ValueError("field is identically zero")
    if np.count_nonzero(v == 0.0) > 0.01 * v.size:
        raise DegenerateField("more than 1% of grid nodes are exactly zero")

    pos = v > 0.0
    pos_a = pos.view(np.uint8)
    pos_b = np.roll(pos_a, -1, axis=0)
    case = pos_a + 2 * pos_b + 4 * np.roll(pos_b, -1, axis=1) + 8 * np.roll(pos_a, -1, axis=1)
    if not fld.periodic_f:
        case = case[:, :-1]  # no cell above the last interior row of a strip
    i, j = np.nonzero((case != 0) & (case != 15))
    if len(i) == 0:  # the zero set is empty, as for every ground state
        return NodalSet(np.zeros((0, 2, 2)), np.zeros(0, dtype=int), 0, s_period=fld.s_period,
                        h_s=fld.h_s, h_f=fld.h_f, n_rows=n_rows, periodic_f=fld.periodic_f)
    i1, j1 = (i + 1) % n_s, (j + 1) % n_rows
    key = case[i, j]
    centre_pos = (v[i, j] + v[i1, j] + v[i1, j1] + v[i, j1]) > 0.0
    key[((key == 5) | (key == 10)) & (centre_pos != pos[i, j])] = 16

    # edge ids: s-edge (i, j)-(i+1, j) is i*n_rows + j, f-edge (i, j)-(i, j+1)
    # is n_cells + i*n_rows + j; slots are bottom, right, top, left
    n_cells = n_s * n_rows
    slots = np.stack([i * n_rows + j, n_cells + i1 * n_rows + j,
                      i * n_rows + j1, n_cells + i * n_rows + j], axis=1)
    table = _SEGMENT_TABLE[key]
    seg_edges = slots[np.arange(len(key))[:, None, None], table][table[:, :, 0] >= 0]

    edges, first, inv = np.unique(seg_edges.ravel(), return_index=True, return_inverse=True)
    on_s = edges < n_cells
    ei, ej = np.divmod(edges % n_cells, n_rows)
    v0 = v[ei, ej]
    t = v0 / (v0 - np.where(on_s, v[(ei + 1) % n_s, ej], v[ei, (ej + 1) % n_rows]))
    s = np.where(on_s, fld.s_nodes[ei] + t * fld.h_s, fld.s_nodes[ei])
    f = np.where(on_s, fld.f_nodes[ej], fld.f_nodes[ej] + t * fld.h_f)
    seg_coords = np.stack([s, f], axis=1)[inv].reshape(-1, 2, 2)
    # both endpoints live in one cell; unwrap across a periodic seam
    periods = [fld.s_period] + ([fld.h_f * n_rows] if fld.periodic_f else [])
    for axis, period in enumerate(periods):
        d = seg_coords[:, 1, axis] - seg_coords[:, 0, axis]
        wrap = np.abs(d) > 0.5 * period
        seg_coords[wrap, 1, axis] -= np.copysign(period, d[wrap])

    comp = _label_components(len(edges), inv[0::2], inv[1::2])[inv[0::2]]
    _, first_seg, comp_inv = np.unique(comp, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first_seg))[comp_inv]

    wall_contacts: list[tuple[int, float]] = []
    if not fld.periodic_f:
        at_wall = np.flatnonzero(on_s & ((ej == 0) | (ej == n_rows - 1)))
        at_wall = at_wall[np.argsort(first[at_wall])]
        wall = np.where(ej[at_wall] == 0, -1.0, 1.0)
        s_wall = s[at_wall]
        extra = np.stack([np.stack([s_wall, f[at_wall]], axis=1),
                          np.stack([s_wall, wall], axis=1)], axis=1)
        seg_coords = np.concatenate([seg_coords, extra])
        labels = np.concatenate([labels, labels[first[at_wall] // 2]])
        wall_contacts = [(int(w), float(x)) for w, x in zip(wall, s_wall)]

    rows, ss = ej[on_s], s[on_s]
    order = np.lexsort((ss, rows))
    keys, starts = np.unique(rows[order], return_index=True)
    row_crossings = dict(zip(keys.tolist(), np.split(ss[order], starts[1:])))

    return NodalSet(
        segments=seg_coords,
        component_labels=labels,
        component_count=len(first_seg),
        wall_contacts=wall_contacts,
        row_crossings=row_crossings,
        s_period=fld.s_period,
        h_s=fld.h_s,
        h_f=fld.h_f,
        n_rows=n_rows,
        periodic_f=fld.periodic_f,
    )


def count_nodal_domains(fld: ScalarField) -> int:
    """Connected components of same-strict-sign nodes under 4-adjacency."""
    v = fld.values
    n_s, n_rows = v.shape
    sign = np.sign(v).astype(np.int8)
    idx = np.arange(v.size).reshape(n_s, n_rows)

    pairs = []
    right = (sign != 0) & (sign == np.roll(sign, -1, axis=0))
    pairs.append((idx[right], np.roll(idx, -1, axis=0)[right]))
    if fld.periodic_f:
        up = (sign != 0) & (sign == np.roll(sign, -1, axis=1))
        pairs.append((idx[up], np.roll(idx, -1, axis=1)[up]))
    else:
        up = (sign[:, :-1] != 0) & (sign[:, :-1] == sign[:, 1:])
        pairs.append((idx[:, :-1][up], idx[:, 1:][up]))

    labels = _label_components(v.size, np.concatenate([p[0] for p in pairs]),
                               np.concatenate([p[1] for p in pairs]))
    return int(len(np.unique(labels[(sign != 0).ravel()])))


def zeros_of_base(values: np.ndarray, s_nodes: np.ndarray, period: float) -> list[tuple[float, float]]:
    """Zero crossings of a periodic 1D function with slopes.

    Crossings are linearly interpolated between sign changes; slopes come
    from centered differences.  A zero whose slope is below 1e-6 of the
    derivative scale raises :class:`NonTransversalZero`.
    """
    psi = np.asarray(values, dtype=float)
    n = len(psi)
    h = period / n
    dpsi = (np.roll(psi, -1) - np.roll(psi, 1)) / (2.0 * h)
    scale = float(np.max(np.abs(dpsi))) if n else 0.0

    out: list[tuple[float, float]] = []
    for i in range(n):
        v0, v1 = psi[i], psi[(i + 1) % n]
        if v0 == 0.0:
            out.append((float(s_nodes[i]), float(dpsi[i])))
        elif v0 * v1 < 0.0:
            t = v0 / (v0 - v1)
            slope = (1.0 - t) * dpsi[i] + t * dpsi[(i + 1) % n]
            out.append((float(s_nodes[i] + t * h), float(slope)))
    for s, slope in out:
        if abs(slope) < 1e-6 * scale:
            raise NonTransversalZero(f"zero at s={s:.6g} has slope {slope:.3e}")
    return out


def _sample(obj: NodalSet | FiberLines, geom: BundleGeometry, stretch: float,
            spacing: float) -> np.ndarray:
    """Points along ``obj`` at most ``spacing`` apart; ``stretch`` bounds the fibre metric.

    Segment m gets ``n_m`` evenly spaced points ``p0 + t (p1 - p0)`` with
    ``t = k / (n_m - 1)`` rounded as :func:`numpy.linspace` rounds it.
    """
    if isinstance(obj, FiberLines):
        f_lo, f_hi = (-1.0, 1.0) if isinstance(geom, WaveguideGeometry) else (0.0, geom.fiber_length)
        n = max(2, int(np.ceil((f_hi - f_lo) * stretch / spacing)) + 1)
        f = np.linspace(f_lo, f_hi, n)
        return np.column_stack([np.repeat(obj.s_positions, n), np.tile(f, len(obj.s_positions))])
    p0, p1 = obj.segments[:, 0], obj.segments[:, 1]
    length = np.hypot(p1[:, 0] - p0[:, 0], stretch * (p1[:, 1] - p0[:, 1]))
    n = np.maximum(2, np.ceil(length / spacing).astype(int) + 1)
    seg = np.repeat(np.arange(len(n)), n)
    ends = np.cumsum(n)
    t = (np.arange(len(seg)) - (ends - n)[seg]) * (1.0 / (n - 1))[seg]
    t[ends - 1] = 1.0
    t = t[:, None]
    return p0[seg] * (1.0 - t) + p1[seg] * t


def _pair_d2(p: np.ndarray, q: np.ndarray, geom: BundleGeometry) -> np.ndarray:
    """Squared chart-metric distance of each pair p[k], q[k].

    Both coordinate differences are taken to the nearest periodic image and
    the torus warp is evaluated at the pair midpoint.
    """
    period = geom.period
    ds = p[:, 0] - q[:, 0]
    ds -= period * np.round(ds / period)
    df = p[:, 1] - q[:, 1]
    if isinstance(geom, WaveguideGeometry):
        return ds * ds + df * df
    df -= geom.fiber_length * np.round(df / geom.fiber_length)
    wt = geom.warp_value(np.mod(q[:, 0] + 0.5 * ds, period))
    return ds * ds + (wt * df) ** 2


def _tree_chart(points: np.ndarray, scale: float, f_lo: float, box: np.ndarray) -> np.ndarray:
    """Points as ``(s, scale * (f - f_lo))`` wrapped into the periodic box ``[0, box)``."""
    x = np.column_stack([points[:, 0], scale * (points[:, 1] - f_lo)])
    x = np.mod(x, box)
    return np.where(x < box, x, 0.0)  # mod of a tiny negative rounds up to box


def _directed_sup_inf(p: np.ndarray, xp: np.ndarray, q: np.ndarray, xq: np.ndarray,
                      geom: BundleGeometry, box: np.ndarray) -> float:
    """``max_p min_q`` of the chart distance, searched in a KD-tree over ``q``.

    ``xp`` and ``xq`` are the points in the tree chart, periodic with
    ``box``.  The tree's Euclidean distance there bounds the metric
    distance from below.  The metric distance ``u`` to the tree's nearest
    neighbour therefore bounds the minimum from above, and every ``q``
    attaining the minimum lies in the tree ball of radius ``u``.  The
    radius is widened by 1e-9 relative, against rounding of the bound, and
    1e-12 of the box, against rounding of the wrapped coordinates.  Only
    the ball's points are measured, so the result is the all-pairs value.
    """
    from scipy.spatial import cKDTree  # loaded only when a distance is measured

    tree = cKDTree(xq, boxsize=box)
    nearest = tree.query(xp)[1]
    best = _pair_d2(p, q[nearest], geom)
    balls = tree.query_ball_point(xp, np.sqrt(best) * (1.0 + 1e-9) + 1e-12 * float(box.max()))
    counts = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    cand = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp, count=int(counts.sum()))
    d2 = _pair_d2(np.repeat(p, counts, axis=0), q[cand], geom)
    hit = counts > 0
    starts = np.cumsum(counts) - counts
    best[hit] = np.minimum(best[hit], np.minimum.reduceat(d2, starts[hit]))
    return float(np.sqrt(best.max()))


def hausdorff_distance(set_a: NodalSet | FiberLines, set_b: NodalSet | FiberLines,
                       geom: BundleGeometry, sampling: float) -> float:
    """Symmetric sup-inf distance between two sampled sets.

    Both sets are densified to spacing at most ``sampling``.  The distance
    of two sample points uses the chart metric at their midpoint, with
    both coordinates taken to the nearest periodic image.  Each direction
    is an exact pruned search (see :func:`_directed_sup_inf`): on the
    torus the tree chart scales ``f`` by a certified lower bound of the
    warp, on the waveguide ``f`` is unscaled and shifted into a box at
    least twice its range, so the periodic wrap never shortens a fibre
    difference.  The result equals the sup-inf over all sample pairs.
    """
    if not 0.0 < sampling < np.inf:
        raise ValueError("sampling spacing must be positive and finite")
    stretch = 1.0
    if isinstance(geom, WarpedTorusGeometry):
        bound = geom.warp.max_abs_bound
        stretch = max(1.0, float(np.exp(bound)) if geom.warp_is_exp else bound)
    pa = _sample(set_a, geom, stretch, sampling)
    pb = _sample(set_b, geom, stretch, sampling)
    if len(pa) == 0 or len(pb) == 0:
        raise EmptySet("hausdorff distance of an empty set")
    if isinstance(geom, WarpedTorusGeometry):
        low = geom.warp.lower_bound
        scale = (float(np.exp(low)) if geom.warp_is_exp else low) * (1.0 - 1e-12)
        f_lo, f_box = 0.0, scale * geom.fiber_length
    else:
        scale = 1.0
        f_lo = min(pa[:, 1].min(), pb[:, 1].min())
        f_box = max(2.0 * (max(pa[:, 1].max(), pb[:, 1].max()) - f_lo), 1.0)
    box = np.array([geom.period, f_box])
    xa, xb = (_tree_chart(x, scale, f_lo, box) for x in (pa, pb))
    return max(_directed_sup_inf(pa, xa, pb, xb, geom, box),
               _directed_sup_inf(pb, xb, pa, xa, geom, box))


def boundary_trace_components(nodal: NodalSet, geom: WaveguideGeometry) -> int:
    """Clusters of nodal wall contacts, merged within one cell width."""
    if not isinstance(geom, WaveguideGeometry):
        raise ValueError("boundary traces require a geometry with boundary")
    merge = nodal.h_s * (1.0 + 1e-9)
    total = 0
    for wall in (-1, 1):
        ss = np.sort(np.asarray([s for w, s in nodal.wall_contacts if w == wall]))
        if len(ss) == 0:
            continue
        gaps = np.diff(ss)
        clusters = 1 + int(np.count_nonzero(gaps > merge))
        if len(ss) > 1 and clusters > 1:
            wrap_gap = nodal.s_period - (ss[-1] - ss[0])
            if wrap_gap <= merge:
                clusters -= 1
        total += clusters
    return total


def graph_over_fiber_check(nodal: NodalSet, zero_list, tube_radius: float) -> bool:
    """Is the nodal set a union of fibre-like graphs over the predicted zeros?

    True iff every segment stays within ``tube_radius`` (base distance) of
    some predicted zero, each tube crosses every fibre grid row exactly
    once, and the component count equals the number of zeros.
    """
    zeros = np.asarray([z[0] if isinstance(z, tuple) else z for z in zero_list], dtype=float)
    if nodal.component_count != len(zeros):
        return False
    if len(zeros) == 0:
        return len(nodal.segments) == 0
    period = nodal.s_period

    seg_s = nodal.segments[:, :, 0].ravel()
    if len(seg_s):
        dmin = np.min(_circle_dist(seg_s[:, None], zeros[None, :], period), axis=1)
        if float(dmin.max()) > tube_radius:
            return False

    for j in range(nodal.n_rows):
        ss = nodal.row_crossings.get(j, np.zeros(0))
        if len(ss) == 0:
            return False
        d = _circle_dist(ss[:, None], zeros[None, :], period)
        in_tube = d <= tube_radius
        if np.any(~np.any(in_tube, axis=1)):
            return False
        if np.any(np.count_nonzero(in_tube, axis=0) != 1):
            return False
    return True

