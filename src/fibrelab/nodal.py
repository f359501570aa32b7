"""Nodal sets and nodal domains of discrete eigenfunctions.

Zero level sets are extracted with a 16-case marching-squares table over
the whole grid and linear interpolation along sign-changing edges.  Each
segment endpoint is the integer id of the grid edge that carries it, so
shared endpoints are exact and connectivity is graph labelling over edge
ids, the same :func:`scipy.sparse.csgraph.connected_components` labelling
that counts nodal domains.  Domains are labelled over same-sign runs
along each fibre rather than over nodes, one edge per pair of runs that
touch, so the graph has a node per sign change instead of per grid node.
On Dirichlet strips every chain reaching the outermost interior row is
closed off to the wall, where the eigenfunction vanishes; wall contact
points feed the boundary-trace count.  The graph-over-fibre check counts
the crossings of every (row, tube) pair in one ``bincount``.

The one Hausdorff distance is the paper's: from the nodal set to the
fibres over the zeros of the effective eigenfunction.  It is measured in
the eps-independent metric of the geometry: ``ds^2 + a(s)^2 dt^2`` on the
torus and the flat chart metric ``ds^2 + du^2`` on the waveguide (the tube
density is dropped there; its effect is an order-eps correction, below the
quantity being measured).  Both sets are sampled, and two sample points
are compared with the metric frozen at their midpoint.  The sup-inf over
the samples is found exactly without visiting every pair, on the uniform
grid of fibre samples both ways.  Towards the fibres, a point's distance
to one fibre grows with the fibre difference alone, so only the samples
next to its ``f`` are measured.  From the fibres, the base difference and
a certified lower bound of the warp bound every distance from below, so a
growing trial bound admits only the pairs that can be nearest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateField, EmptySet, NonTransversalZero
from .geometry import BundleGeometry, WarpedTorusGeometry, WaveguideGeometry
from .operators import DiscreteOperator, fiber_nodes, base_nodes

__all__ = [
    "ScalarField",
    "NodalSet",
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
    exactly.  No caller recovers from it: ``fibrelab nodal`` exits 1, and
    a study records a failure for that eps.
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
    """Connected components of same-strict-sign nodes under 4-adjacency.

    Each fibre (a row of ``values``) is cut into runs of one sign, and
    the runs stand in for their nodes: on the torus a fibre's first and
    last run are joined when their signs agree, and two runs of
    neighbouring fibres (periodic in ``s``) get one edge where an overlap
    of equal nonzero sign begins.  Components of that run graph, zero runs
    left out, are the nodal domains.
    """
    sign = np.sign(fld.values).astype(np.int8)
    start = np.ones(sign.shape, dtype=bool)
    start[:, 1:] = sign[:, 1:] != sign[:, :-1]
    run = np.cumsum(start.ravel()).reshape(sign.shape) - 1
    match = (sign != 0) & (sign == np.roll(sign, -1, axis=0))
    # an overlap goes on where it matched one node earlier and no run starts
    begins = match.copy()
    begins[:, 1:] &= ~(match[:, :-1] & ~start[:, 1:])
    a, b = run[begins], np.roll(run, -1, axis=0)[begins]
    if fld.periodic_f:
        wrap = (sign[:, 0] != 0) & (sign[:, 0] == sign[:, -1])
        a, b = np.concatenate([a, run[wrap, 0]]), np.concatenate([b, run[wrap, -1]])
    labels = _label_components(np.count_nonzero(start), a, b)
    return int(len(np.unique(labels[sign[start] != 0])))


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


def _fiber_grid(geom: BundleGeometry, stretch: float, spacing: float) -> np.ndarray:
    """The ``f`` samples of one whole fibre, end to end, at most ``spacing`` apart."""
    f_lo, f_hi = (-1.0, 1.0) if isinstance(geom, WaveguideGeometry) else (0.0, geom.fiber_length)
    n = max(2, int(np.ceil((f_hi - f_lo) * stretch / spacing)) + 1)
    return np.linspace(f_lo, f_hi, n)


def _sample(nodal: NodalSet, stretch: float, spacing: float) -> np.ndarray:
    """Points along the segments at most ``spacing`` apart; ``stretch`` bounds the fibre metric.

    Segment m gets ``n_m`` evenly spaced points ``p0 + t (p1 - p0)`` with
    ``t = k / (n_m - 1)`` rounded as :func:`numpy.linspace` rounds it.
    """
    p0, p1 = nodal.segments[:, 0], nodal.segments[:, 1]
    length = np.hypot(p1[:, 0] - p0[:, 0], stretch * (p1[:, 1] - p0[:, 1]))
    n = np.maximum(2, np.ceil(length / spacing).astype(int) + 1)
    seg = np.repeat(np.arange(len(n)), n)
    ends = np.cumsum(n)
    t = (np.arange(len(seg)) - (ends - n)[seg]) * (1.0 / (n - 1))[seg]
    t[ends - 1] = 1.0
    t = t[:, None]
    return p0[seg] * (1.0 - t) + p1[seg] * t


def _pair_d2(ps, pf, qs, qf, geom: BundleGeometry) -> np.ndarray:
    """Squared chart-metric distance of the points ``(ps, pf)`` and ``(qs, qf)``.

    The coordinate arrays broadcast together.  Both coordinate differences
    are taken to the nearest periodic image, and the torus warp is
    evaluated at the pair midpoint, once per entry of the broadcast of
    ``ps`` and ``qs``.  Every entry is computed by the same operations
    whatever the shapes, so a distance does not depend on the batch it is
    measured in.
    """
    period = geom.period
    ds = ps - qs
    ds -= period * np.round(ds / period)
    df = pf - qf
    if isinstance(geom, WaveguideGeometry):
        return ds * ds + df * df
    df -= geom.fiber_length * np.round(df / geom.fiber_length)
    wt = geom.warp_value(np.mod(qs + 0.5 * ds, period))
    return ds * ds + (wt * df) ** 2


def _sup_inf_to_fibers(p: np.ndarray, zeros: np.ndarray, f: np.ndarray,
                       geom: BundleGeometry) -> float:
    """``max_p min_q`` of the chart distance to the samples ``f`` of the fibres over ``zeros``.

    All samples of one fibre share its ``s``, so the base difference and
    the midpoint warp of ``p`` against a fibre are the same for all of
    them, and the distance only grows with the fibre difference ``|df|``.
    The nearest sample in ``f`` is therefore the nearest in the metric.
    It lies within a step of ``(f_p - f_lo) / step`` however the division
    rounds, so the two neighbours on each side of that index are measured,
    wrapped modulo ``n - 1`` on the torus and clipped on the waveguide.
    On the torus ``f[0]`` and ``f[n - 1]`` are one point of the fibre
    circle, whose differences to ``p`` agree only up to rounding; the
    last sample is measured for every point, so both are.
    """
    n = len(f)
    step = (f[-1] - f[0]) / (n - 1)
    near = np.rint((p[:, 1] - f[0]) / step).astype(np.intp)[:, None] + np.arange(-2, 3)
    if isinstance(geom, WaveguideGeometry):
        cand = np.clip(near, 0, n - 1)
    else:
        cand = np.concatenate([near % (n - 1), np.full((len(p), 1), n - 1)], axis=1)
    d2 = _pair_d2(p[:, 0, None, None], p[:, 1, None, None],
                  zeros[None, :, None], f[cand][:, None, :], geom)
    return float(np.sqrt(d2.min(axis=(1, 2)).max()))


def _sup_inf_from_fibers(zeros: np.ndarray, f: np.ndarray, p: np.ndarray,
                         geom: BundleGeometry, low: float) -> float:
    """``max_q min_p`` of the chart distance from the fibre samples ``(z, f[k])`` to ``p``.

    Every sample of the fibre over ``z`` shares ``s = z``, so a point's
    ``ds * ds``, computed as :func:`_pair_d2` computes it, bounds its
    squared distance to each of them from below exactly, and ``low * |df|``
    bounds the distance in ``f`` (``low`` is a lower bound of the warp).
    For a trial bound ``U`` only points with ``ds * ds < U`` can come
    closer than ``sqrt(U)``, and each only to the fibre indices within
    ``sqrt(U) / low`` of its ``f``.  The window runs from the floor of its
    lower end to the ceiling of its upper end, so it holds every index less
    than one sample beyond that, against rounding; it is wrapped modulo
    ``n - 1`` on the torus, with ``f[n - 1]`` measured wherever ``f[0]``
    is, and clipped on the waveguide.  The least distance
    over those pairs is therefore exact wherever it ends below ``U``.
    ``U`` starts at ``step**2`` and grows fourfold for the samples left
    open; a pass that holds every pair is the all-pairs search, so the loop
    ends, and the result is the all-pairs value to the bit.
    """
    n = len(f)
    step = (f[-1] - f[0]) / (n - 1)
    torus = not isinstance(geom, WaveguideGeometry)
    ds = zeros[:, None] - p[:, 0]
    ds -= geom.period * np.round(ds / geom.period)
    ds2 = ds * ds
    pos = (p[:, 1] - f[0]) / step  # fractional fibre index of each point
    best = np.full((len(zeros), n), np.inf)
    open_ = np.ones(best.shape, dtype=bool)
    bound = step * step
    while True:
        reach = np.sqrt(bound) / (low * step)
        whole = reach >= n and ds2.max() < bound  # this pass holds every pair
        reach = min(reach, n)
        zi, pi = np.nonzero(ds2 < bound)
        lo = np.floor(pos[pi] - reach).astype(np.intp)
        hi = np.ceil(pos[pi] + reach).astype(np.intp)
        if torus:
            hi = np.minimum(hi, lo + n - 2)  # one whole turn at most
        else:
            lo, hi = np.maximum(lo, 0), np.minimum(hi, n - 1)
        count = np.maximum(hi - lo + 1, 0)
        pair = np.repeat(np.arange(len(pi)), count)
        k = lo[pair] + np.arange(len(pair)) - (np.cumsum(count) - count)[pair]
        zi, pi = zi[pair], pi[pair]
        if torus:
            k %= n - 1
            seam = k == 0
            zi, pi = np.concatenate([zi, zi[seam]]), np.concatenate([pi, pi[seam]])
            k = np.concatenate([k, np.full(np.count_nonzero(seam), n - 1)])
        todo = open_[zi, k]
        zi, pi, k = zi[todo], pi[todo], k[todo]
        np.minimum.at(best, (zi, k), _pair_d2(zeros[zi], f[k], p[pi, 0], p[pi, 1], geom))
        open_ &= best >= bound
        if whole or not open_.any():
            return float(np.sqrt(best.max()))
        bound *= 4.0


def hausdorff_distance(nodal: NodalSet, zeros, geom: BundleGeometry, sampling: float) -> float:
    """Hausdorff distance from a nodal set to the fibres over the base points ``zeros``.

    This is the distance of the paper's theorem: the nodal set of the full
    eigenfunction against ``pi^-1(psi^-1(0))``.  The segments are sampled
    at spacing at most ``sampling`` and each fibre on a uniform grid of at
    most that metric spacing.  The distance of two sample points uses the
    chart metric at their midpoint, with both coordinates taken to the
    nearest periodic image.  Towards the fibres each nodal sample is
    measured against the nearest fibre samples only (see
    :func:`_sup_inf_to_fibers`); from the fibres, a search bounded by the
    base difference and the warp's lower bound measures only the pairs
    that can be nearest (see :func:`_sup_inf_from_fibers`).  Both
    directions equal the sup-inf over all sample pairs, to the bit.
    """
    if not 0.0 < sampling < np.inf:
        raise ValueError("sampling spacing must be positive and finite")
    zeros = np.atleast_1d(np.asarray(zeros, dtype=float))
    stretch = low = 1.0
    if isinstance(geom, WarpedTorusGeometry):
        bound = geom.warp.max_abs_bound
        stretch = max(1.0, float(np.exp(bound)) if geom.warp_is_exp else bound)
        low = geom.warp.lower_bound
        low = (float(np.exp(low)) if geom.warp_is_exp else low) * (1.0 - 1e-12)
    p = _sample(nodal, stretch, sampling)
    if len(p) == 0 or len(zeros) == 0:
        raise EmptySet("hausdorff distance of an empty set")
    f = _fiber_grid(geom, stretch, sampling)
    return max(_sup_inf_to_fibers(p, zeros, f, geom),
               _sup_inf_from_fibers(zeros, f, p, geom, low))


def boundary_trace_components(nodal: NodalSet) -> int:
    """Clusters of nodal wall contacts, merged within one cell width."""
    if nodal.periodic_f:
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


def graph_over_fiber_check(nodal: NodalSet, zeros_s: list[float], tube_radius: float) -> bool:
    """Is the nodal set a union of fibre-like graphs over the predicted zeros?

    ``zeros_s`` holds the base positions of the predicted zeros.  True iff
    every segment stays within ``tube_radius`` (base distance) of some
    predicted zero, each tube crosses every fibre grid row exactly once,
    and the component count equals the number of zeros.
    """
    zeros = np.asarray(zeros_s, dtype=float)
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

    rows = [j for j in nodal.row_crossings if 0 <= j < nodal.n_rows]
    ss = np.concatenate([np.zeros(0)] + [nodal.row_crossings[j] for j in rows])
    row_of = np.repeat(np.array(rows, dtype=np.intp), [len(nodal.row_crossings[j]) for j in rows])
    in_tube = _circle_dist(ss[:, None], zeros[None, :], period) <= tube_radius
    if not np.all(np.any(in_tube, axis=1)):
        return False
    # crossings per (row, tube): exactly one each, a row without any fails
    hits = np.bincount((row_of[:, None] * len(zeros) + np.arange(len(zeros)))[in_tube],
                       minlength=nodal.n_rows * len(zeros))
    return bool(np.all(hits == 1))

