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

Candidates are rows of constant polar angle theta, each a ring of
equally spaced azimuths phi (on d=1, one row of ascending angles per
arc).  Since chord <= alpha * rho, each insertion can only lower the
running distances of candidates in an index window of rows and columns
around the inserted point, and the greedy update touches that window
alone.  Separation and probe scans use the same bound through KD-trees:
separation by a pair query of growing radius, probe counts and
coverage by blocked pair sweeps of the nodes against the probes, which
give rho from the chords the sweeps return.
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
    rho_from_chord,
    rho_many,
    rho_rows,
)

_POOL_LIMIT = 25_000_000
_PAIR_BLOCK = 256  # nodes per KD pair sweep of the probe scans


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


def _grid_axes(domain, epsilon, resolution):
    """Polar angles (rows) and azimuths (columns) of the d=2 product grid."""
    step = epsilon * domain.alpha
    th_lo, th_hi = domain.polar_range
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
    return theta, phi


def _arc_axes(domain, epsilon, resolution):
    """Angles u of the d=1 grid, one row per arc of the domain (a cap is
    one arc, a collar two of equal length), ascending within each row."""
    step = epsilon * domain.alpha
    rows = []
    for lo, hi in domain.arcs:
        m = resolution * max(1, math.ceil((hi - lo) / step))
        u = lo + np.arange(m + 1) * ((hi - lo) / m)
        u[-1] = hi
        rows.append(u)
    return np.vstack(rows)


def product_grid(domain, epsilon, resolution):
    """Deterministic product grid with spacing about epsilon*alpha/resolution.

    Counts are resolution times a base count fixed by epsilon alone, so
    grids at resolutions 4 and 8 are nested; the coverage check leans on
    that.  Returns an (N, d+1) coords array in the domain's frame,
    row-major over (theta, phi) as ``_grid_axes`` gives them on d=2 and
    over the arcs of ``_arc_axes`` on d=1.
    """
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    frame = north_frame(domain.center)
    if domain.dim == 1:
        u = _arc_axes(domain, epsilon, resolution).ravel()
        local = np.column_stack([np.sin(u), np.cos(u)])
        return local @ frame
    theta, phi = _grid_axes(domain, epsilon, resolution)
    s, t = np.sin(theta), np.cos(theta)
    local = np.empty((theta.size * phi.size, 3))
    local[:, 0] = np.outer(s, np.cos(phi)).ravel()
    local[:, 1] = np.outer(s, np.sin(phi)).ravel()
    local[:, 2] = np.repeat(t, phi.size)
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


def _sphere_window(theta, m_phi, r, c, g):
    """(rows, columns) slice pairs of a d=2 pool window that holds every
    point within geodesic distance g of the point in row r, column c.

    Such a point lies in a row with |theta_r - theta_z| <= g.  Unless
    that disc holds a pole, it differs from z in phi by at most
    asin(sin g / sin theta_z) (the right spherical triangle of the pole,
    z and a tangent point); with a pole inside, rows are taken whole.
    The phi interval wraps around at phi = 0.
    """
    theta_z = float(theta[r])
    rows = slice(int(np.searchsorted(theta, theta_z - g, side="left")),
                 int(np.searchsorted(theta, theta_z + g, side="right")))
    if g >= min(theta_z, math.pi - theta_z):
        return [(rows, slice(None))]
    w = int(math.asin(math.sin(g) / math.sin(theta_z)) / (2.0 * math.pi / m_phi)) + 1
    if 2 * w + 1 >= m_phi:
        return [(rows, slice(None))]
    lo, hi = c - w, c + w + 1
    if lo < 0:
        return [(rows, slice(0, hi)), (rows, slice(lo + m_phi, m_phi))]
    if hi > m_phi:
        return [(rows, slice(lo, m_phi)), (rows, slice(0, hi - m_phi))]
    return [(rows, slice(lo, hi))]


def _arc_window(u, r, c, g):
    """(row, columns) slice pairs of a d=1 pool window that holds every
    point within geodesic distance g of the point in row r, column c.

    A point at angle u is within g of u_z when u lies within g of u_z
    modulo 2*pi; each row is ascending in u, so every shift of that
    interval is one column slice of the row.
    """
    u_z = float(u[r, c])
    pieces = []
    for k in range(u.shape[0]):
        for centre in (u_z - 2.0 * math.pi, u_z, u_z + 2.0 * math.pi):
            if centre + g < u[k, 0] or centre - g > u[k, -1]:
                continue
            lo = int(np.searchsorted(u[k], centre - g, side="left"))
            hi = int(np.searchsorted(u[k], centre + g, side="right"))
            if lo < hi:
                pieces.append((slice(k, k + 1), slice(lo, hi)))
    return pieces


def greedy_maximal_set(domain, epsilon, seed=0, degree=None, delta=None):
    """Maximal separated set by farthest-point insertion over a product grid.

    Deterministic: the pool, the seed point, and the lowest-index
    tie-break are all fixed by (domain, epsilon); the ``seed`` argument
    is provenance metadata carried into the NodeSet and derived files.

    Each insertion at distance v can only lower the running distance of
    pool points within chord alpha*v of it (chord <= alpha*rho); those
    lie in an index window of the grid's rows and columns, and only the
    window is updated.  A point outside that chordal ball has rho > v >=
    its running distance, so a window that contains the ball gives the
    same result as a full update.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha = domain.alpha
    pool = product_grid(domain, epsilon, 8)
    sqrt_b = np.sqrt(boundary_distance_many(domain, pool))
    if domain.dim == 2:
        theta, phi = _grid_axes(domain, epsilon, 8)
        shape = (theta.size, phi.size)
    else:
        u = _arc_axes(domain, epsilon, 8)
        shape = u.shape

    start = _seed_coords(domain)
    chosen = [start]
    sb_start = math.sqrt(float(boundary_distance_many(domain, start.reshape(1, -1))[0]))
    # the running distances sit in blocks of `width` consecutive pool
    # indices (a ring on d=2, a stretch of about sqrt(N) points of an arc
    # on d=1), padded with -inf; blockmax is kept equal to each block's
    # max, so argmax over blocks then within the block is the lowest
    # index of the global max (the tie-break above)
    npool = pool.shape[0]
    width = shape[1] if domain.dim == 2 else max(1, math.isqrt(npool))
    blocks = np.full((-(-npool // width), width), -np.inf)
    mind = blocks.reshape(-1)[:npool]
    mind[:] = rho_many(domain, pool, start, sqrt_b=sqrt_b, sqrt_b_y=sb_start)
    mind2 = mind.reshape(shape)
    pool2 = pool.reshape(shape + (pool.shape[1],))
    sqrt_b2 = sqrt_b.reshape(shape)
    blockmax = blocks.max(axis=1)

    while True:
        k = int(np.argmax(blockmax))
        i = k * width + int(np.argmax(blocks[k]))
        v = float(mind[i])
        if v < epsilon:
            break
        r, c = divmod(i, shape[1])
        z = pool[i]
        chosen.append(z)
        chord = alpha * v * (1.0 + 1e-9)
        if chord >= 2.0:
            window = [(slice(None), slice(None))]
        else:
            g = 2.0 * math.asin(chord / 2.0) + 1e-12
            if domain.dim == 2:
                window = _sphere_window(theta, shape[1], r, c, g)
            else:
                window = _arc_window(u, r, c, g)
        for rows, cols in window:
            win = mind2[rows, cols]
            dz = rho_many(domain, pool2[rows, cols].reshape(-1, pool.shape[1]), z,
                          sqrt_b=sqrt_b2[rows, cols].reshape(-1), sqrt_b_y=float(sqrt_b[i]))
            np.minimum(win, dz.reshape(win.shape), out=win)
            r0, r1, _ = rows.indices(shape[0])
            c0, c1, _ = cols.indices(shape[1])
            k0 = (r0 * shape[1] + c0) // width
            k1 = ((r1 - 1) * shape[1] + c1 - 1) // width + 1
            blockmax[k0:k1] = blocks[k0:k1].max(axis=1)

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
    """Yield flat (node indices, probe indices, rho distances) arrays over
    every node-probe pair within the chord that can hold rho <= radius.

    Chord <= alpha * rho, so the pairs of each block of at most
    _PAIR_BLOCK nodes come from one KD pair sweep against a tree of the
    probes, and rho follows from the sweep's chords.  Blocks follow the
    leaf order of a KD-tree of the nodes, so each covers a small patch
    and its sweep prunes most of the probe tree; the block size bounds
    the memory of the pair arrays.
    """
    probe_tree = cKDTree(probes)
    sqrt_b_probes = np.sqrt(boundary_distance_many(domain, probes))
    sqrt_b_nodes = np.sqrt(boundary_distance_many(domain, node_coords))
    chord = min(domain.alpha * radius * (1.0 + 1e-9) + 1e-12, 2.0)
    leaf_order = cKDTree(node_coords).indices
    for k in range(0, leaf_order.size, _PAIR_BLOCK):
        block = leaf_order[k:k + _PAIR_BLOCK]
        pairs = cKDTree(node_coords[block]).sparse_distance_matrix(
            probe_tree, chord, output_type="ndarray")
        i, j = block[pairs["i"]], pairs["j"]
        yield i, j, rho_from_chord(domain, pairs["v"], sqrt_b_probes[j], sqrt_b_nodes[i])


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
    for _, j, d in _node_neighbours(domain, probes, coords, epsilon):
        np.minimum.at(best, j, d)
    return bool(np.all(best <= epsilon + 1e-7))


def _count_within(domain, probes, node_coords, radius):
    """Per-probe count of nodes within rho <= radius."""
    counts = np.zeros(probes.shape[0], dtype=np.int64)
    for _, j, d in _node_neighbours(domain, probes, node_coords, radius):
        counts += np.bincount(j[d <= radius + 1e-12], minlength=probes.shape[0])
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
