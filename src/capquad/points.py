"""Separable and maximal separable node sets on caps and collars.

Sets are generated by farthest-point insertion over a dense product grid
of candidates: seed one point, then repeatedly insert the candidate
farthest (in the boundary-adapted metric) from everything chosen so far,
until that farthest distance drops below the separation target.  By
construction the output is separated at exactly the target and, relative
to the candidate grid, covering.  Ties go to the lowest candidate index,
so generation is fully deterministic.

Coverage and multiplicity checks are grid-probe based, not exact: a
probe grid stands in for the continuum.  Probe grids and candidate pools
come from the same generator, at nested resolutions, so the greedy
output always passes its own coverage check.

The geodesic bound dist <= alpha * rho lets a chordal KD-tree cull both
the greedy update and all probe scans.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    Cap,
    Collar,
    SpherePoint,
    boundary_distance_many,
    contains,
    north_frame,
    rho_many,
    rho_rows,
)

_POOL_LIMIT = 25_000_000


class NodeSet:
    """A finite tagged point set with its separation target and provenance.

    ``epsilon`` is the separation target delta/n; sets built from
    arbitrary points (no separation promise) carry epsilon = 0, which
    makes the separation invariant vacuous.
    """

    __slots__ = ("domain", "coords", "epsilon", "degree", "delta", "seed")

    def __init__(self, domain, coords, epsilon, degree=1, delta=None, seed=0, validate=True):
        if not isinstance(domain, (Cap, Collar)):
            raise TypeError("domain must be a Cap or Collar")
        coords = np.asarray(coords, dtype=float).copy()
        if coords.ndim != 2 or coords.shape[1] != domain.dim + 1:
            raise ValueError("coords must be (npoints, d+1)")
        if coords.shape[0]:
            norms = np.linalg.norm(coords, axis=1, keepdims=True)
            off = np.abs(norms - 1.0).ravel() > 1e-12
            if np.any(off):
                coords[off] /= norms[off]
        coords.setflags(write=False)
        epsilon = float(epsilon)
        degree = int(degree)
        delta = float(epsilon * degree) if delta is None else float(delta)
        if validate:
            if not np.all(contains(domain, coords)):
                raise ValueError("node outside the domain")
            if epsilon > 0 and coords.shape[0] > 1:
                sep = min_separation(domain, coords)
                if sep < epsilon - 1e-12:
                    raise ValueError(f"set not separated: min rho {sep} < {epsilon}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "seed", int(seed))

    def __len__(self):
        return self.coords.shape[0]

    @property
    def points(self):
        return [SpherePoint(row) for row in self.coords]

    def __setattr__(self, name, value):
        raise AttributeError("NodeSet is immutable")

    def __repr__(self):
        return (f"NodeSet({self.domain!r}, n={len(self)}, epsilon={self.epsilon!r}, "
                f"degree={self.degree}, delta={self.delta!r}, seed={self.seed})")


def _as_coords(points, dim):
    if isinstance(points, NodeSet):
        return points.coords
    if isinstance(points, np.ndarray):
        return np.atleast_2d(points)
    rows = [p.coords if isinstance(p, SpherePoint) else np.asarray(p, float) for p in points]
    if not rows:
        return np.empty((0, dim + 1))
    return np.vstack(rows)


def min_separation(domain, coords):
    """Smallest pairwise rho-distance (inf for fewer than two points).

    Only pairs within chordal distance alpha*rho_bound can violate a
    separation level, so candidate pairs come from a KD-tree sweep with a
    growing radius instead of the full quadratic scan.
    """
    n = coords.shape[0]
    if n < 2:
        return math.inf
    tree = cKDTree(coords)
    alpha = domain.alpha
    sqrt_b = np.sqrt(boundary_distance_many(domain, coords))
    radius = 0.05 * alpha
    while True:
        pairs = tree.query_pairs(min(radius, 2.0), output_type="ndarray")
        if pairs.size:
            i, j = pairs[:, 0], pairs[:, 1]
            diffs = rho_rows(domain, coords[i], coords[j], sqrt_b[i], sqrt_b[j])
            best = float(diffs.min())
            # every rho below best/ (guaranteed) was within the chord radius
            if best <= radius / alpha or radius >= 2.0:
                return best
        elif radius >= 2.0:
            break
        radius *= 4.0
    # fully scanned with no pairs: points are antipodal-ish / tiny set
    best = math.inf
    for k in range(n - 1):
        d = rho_many(domain, coords[k + 1 :], coords[k],
                     sqrt_b=sqrt_b[k + 1 :], sqrt_b_y=float(sqrt_b[k]))
        best = min(best, float(d.min()))
    return best


def is_separable(domain, points, epsilon):
    """True iff all pairwise rho-distances are >= epsilon - 1e-12 (vacuous when empty)."""
    coords = _as_coords(points, domain.dim)
    if coords.shape[0] < 2:
        return True
    return min_separation(domain, coords) >= epsilon - 1e-12


# ---------------------------------------------------------------------------
# product grids (candidate pools and probe grids share this generator)


def product_grid(domain, epsilon, resolution):
    """Deterministic product grid with spacing about epsilon*alpha/resolution.

    Counts are resolution times a base count fixed by epsilon alone, so
    grids at resolutions 4 and 8 are nested; the coverage check leans on
    that.  Returns an (N, d+1) coords array in the domain's frame.
    """
    alpha = domain.alpha
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    step = epsilon * alpha
    frame = north_frame(domain.center)
    if domain.dim == 1:
        if isinstance(domain, Cap):
            segments = [(-alpha, alpha)]
        else:
            segments = [(domain.alpha, domain.beta), (-domain.beta, -domain.alpha)]
        us = []
        for lo, hi in segments:
            m = resolution * max(1, math.ceil((hi - lo) / step))
            u = lo + np.arange(m + 1) * ((hi - lo) / m)
            u[-1] = hi
            us.append(u)
        u = np.concatenate(us)
        local = np.column_stack([np.sin(u), np.cos(u)])
        return local @ frame
    if isinstance(domain, Cap):
        th_lo, th_hi = 0.0, alpha
    else:
        th_lo, th_hi = domain.alpha, domain.beta
    m_theta = resolution * max(1, math.ceil((th_hi - th_lo) / step))
    m_phi = resolution * max(1, math.ceil(2.0 * math.pi / step))
    if (m_theta + 1) * m_phi > _POOL_LIMIT:
        raise ValueError(
            f"grid of {(m_theta + 1) * m_phi} points exceeds the pool limit; "
            "epsilon is too small for grid-based generation"
        )
    theta = th_lo + np.arange(m_theta + 1) * ((th_hi - th_lo) / m_theta)
    theta[-1] = th_hi
    phi = np.arange(m_phi) * (2.0 * math.pi / m_phi)
    s, t = np.sin(theta), np.cos(theta)
    local = np.empty(((m_theta + 1) * m_phi, 3))
    local[:, 0] = np.outer(s, np.cos(phi)).ravel()
    local[:, 1] = np.outer(s, np.sin(phi)).ravel()
    local[:, 2] = np.repeat(t, m_phi)
    return local @ frame


def _probe_grid_by_count(domain, epsilon, target_count):
    """Probe grid of roughly target_count points (resolution knob form)."""
    base = product_grid(domain, epsilon, 1)
    n_base = base.shape[0]
    if n_base >= target_count:
        if n_base > 2 * target_count:
            stride = n_base // target_count
            return base[::stride]
        return base
    res = max(1, int(math.sqrt(target_count / n_base)) if domain.dim == 2
              else int(target_count / n_base))
    return product_grid(domain, epsilon, res)


def _seed_coords(domain):
    if isinstance(domain, Cap):
        return domain.center.coords.copy()
    mid = 0.5 * (domain.alpha + domain.beta)
    local = np.zeros(domain.dim + 1)
    local[0] = math.sin(mid)
    local[-1] = math.cos(mid)
    return local @ north_frame(domain.center)


def greedy_maximal_set(domain, epsilon, seed=0, degree=None, delta=None):
    """Maximal separated set by farthest-point insertion over a product grid.

    Deterministic: the pool, the seed point, and the lowest-index
    tie-break are all fixed by (domain, epsilon); the ``seed`` argument
    is provenance metadata carried into the NodeSet and derived files.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha = domain.alpha
    pool = product_grid(domain, epsilon, 8)
    npool = pool.shape[0]
    sqrt_b = np.sqrt(boundary_distance_many(domain, pool))
    tree = cKDTree(pool)

    start = _seed_coords(domain)
    chosen = [start]
    sb_start = math.sqrt(float(boundary_distance_many(domain, start.reshape(1, -1))[0]))
    mind = rho_many(domain, pool, start, sqrt_b=sqrt_b, sqrt_b_y=sb_start)

    block = 8192
    nblocks = (npool + block - 1) // block
    bounds = np.arange(1, nblocks) * block
    bmax = np.maximum.reduceat(mind, np.r_[0, bounds])

    while True:
        b = int(np.argmax(bmax))
        lo = b * block
        i = lo + int(np.argmax(mind[lo : lo + block]))
        v = float(mind[i])
        if v < epsilon:
            break
        z = pool[i]
        chosen.append(z)
        sb_z = float(sqrt_b[i])
        chord = alpha * v * (1.0 + 1e-9)
        if chord >= 2.0:
            dz = rho_many(domain, pool, z, sqrt_b=sqrt_b, sqrt_b_y=sb_z)
            np.minimum(mind, dz, out=mind)
            bmax = np.maximum.reduceat(mind, np.r_[0, bounds])
            continue
        idx = tree.query_ball_point(z, chord, return_sorted=False)
        idx = np.asarray(idx, dtype=np.intp)
        dz = rho_many(domain, pool[idx], z, sqrt_b=sqrt_b[idx], sqrt_b_y=sb_z)
        upd = dz < mind[idx]
        ii = idx[upd]
        mind[ii] = dz[upd]
        for blk in np.unique(ii // block):
            s = blk * block
            bmax[blk] = mind[s : s + block].max()

    coords = np.vstack(chosen)
    if degree is None and delta is None:
        degree_v, delta_v = 1, min(epsilon, 1.0)
    elif degree is not None and delta is None:
        degree_v, delta_v = int(degree), epsilon * int(degree)
    elif degree is None:
        raise ValueError("delta without degree is ambiguous")
    else:
        degree_v, delta_v = int(degree), float(delta)
        if abs(delta_v / degree_v - epsilon) > 1e-12 * max(1.0, epsilon):
            raise ValueError("degree and delta must satisfy epsilon = delta/degree")
    return NodeSet(domain, coords, epsilon, degree=degree_v, delta=delta_v,
                   seed=seed, validate=False)


# ---------------------------------------------------------------------------
# probe-based coverage, multiplicity, and concentration statistics


def _node_neighbours(domain, probes, node_coords, radius):
    """For each node, yield (probe indices, rho distances) over the probes in
    the chordal ball that can possibly hold a probe at rho <= radius."""
    tree = cKDTree(probes)
    sqrt_b_probes = np.sqrt(boundary_distance_many(domain, probes))
    sqrt_b_nodes = np.sqrt(boundary_distance_many(domain, node_coords))
    chord = min(domain.alpha * radius * (1.0 + 1e-9) + 1e-12, 2.0)
    for k in range(node_coords.shape[0]):
        idx = tree.query_ball_point(node_coords[k], chord, return_sorted=False)
        if not idx:
            continue
        idx = np.asarray(idx, dtype=np.intp)
        yield idx, rho_many(domain, probes[idx], node_coords[k],
                            sqrt_b=sqrt_b_probes[idx], sqrt_b_y=float(sqrt_b_nodes[k]))


def is_maximal_separable(domain, points, epsilon, probe_resolution=4):
    """Separated, and every probe of a dense grid lies within epsilon of a node.

    The probe grid has about probe_resolution probes per epsilon length
    (at least 4); a small additive slack absorbs grid-alignment rounding.
    """
    if probe_resolution < 4:
        raise ValueError("probe_resolution must be >= 4")
    coords = _as_coords(points, domain.dim)
    if coords.shape[0] == 0:
        return False
    if not is_separable(domain, coords, epsilon):
        return False
    probes = product_grid(domain, epsilon, probe_resolution)
    best = np.full(probes.shape[0], np.inf)  # inf beyond every node's chordal ball
    for idx, d in _node_neighbours(domain, probes, coords, epsilon):
        np.minimum.at(best, idx, d)
    return bool(np.all(best <= epsilon + 1e-7))


def _count_within(domain, probes, node_coords, radius):
    """Per-probe count of nodes within rho <= radius."""
    counts = np.zeros(probes.shape[0], dtype=np.int64)
    for idx, d in _node_neighbours(domain, probes, node_coords, radius):
        counts[idx[d <= radius + 1e-12]] += 1
    return counts


def _probes_with_nodes(domain, nodes, epsilon, target_count):
    grid = _probe_grid_by_count(domain, max(epsilon, 1e-3), target_count)
    return np.vstack([grid, nodes.coords])


def covering_multiplicity(domain, nodes, beta=1.0, probes=20000):
    """Largest number of beta-dilated node balls covering one probe point.

    Balls have rho-radius beta times the set's separation target; the
    probe set is the shared product grid plus the nodes themselves, so
    coincident-node configurations are counted exactly.
    """
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    if len(nodes) == 0:
        return 0
    radius = beta * nodes.epsilon
    pts = _probes_with_nodes(domain, nodes, nodes.epsilon, probes)
    return int(_count_within(domain, pts, nodes.coords, radius).max())


def tau_statistic(domain, nodes, n, probes=20000):
    """Peak node count of a rho-ball of radius 1/n (probe-grid maximum)."""
    if len(nodes) == 0:
        return 0
    eps = nodes.epsilon if nodes.epsilon > 0 else 1.0 / n
    pts = _probes_with_nodes(domain, nodes, eps, probes)
    return int(_count_within(domain, pts, nodes.coords, 1.0 / n).max())
