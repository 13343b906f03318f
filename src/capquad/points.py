"""Separable and maximal separable node sets on caps and collars.

``ring_lattice`` builds a deterministic set at rho-separation epsilon in
steps of epsilon * (1 + 1e-5), a margin above the rounding of a measured
rho.  On d=2, rings of constant polar angle go from the outer boundary
inward, each one step in rho from the last along a meridian (a bisected
root of scalar rho, ``_walk``), and a closing ring sits at the pole of a
cap or the inner boundary of a collar.  A ring holds about one node per
1.6 alpha * epsilon of its length, fewer while its neighbours sit nearer
than one step; odd rings are turned by half a spacing.  On d=1 each arc
is walked from its low end and closed by its high end.  A node within
rho epsilon of an earlier one is dropped.  Coordinates come from the
bisection's floats, ``sin`` and ``cos`` alone.

Separation: rho between two nodes is at least rho between their polar
angles on one meridian.  On a d=2 cap that grows with the gap (sqrt(b)
falls outward), so every pair of rings is separated.  Across a collar's
midline and the centre of a d=1 cap's arc sqrt(b) peaks and the
argument fails; there, and at dropped nodes, separation is measured by
the check every NodeSet passes.  Maximality is not proved;
``is_maximal_separable`` measures it.

Coverage and multiplicity checks are grid-probe based, not exact: a
probe grid (``product_grid``) stands in for the continuum.  Separation
and probe scans use chord <= alpha * rho through KD-trees: separation
by a pair query that finds a near pair and one at the chord of its rho,
probe counts and coverage by blocked pair sweeps of the nodes against
the probes.  The lattice steps in scalar rho; every other distance here
is ``rho_from_chord`` of a chord, a sweep's or one from ``rho_many``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import InitVar, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    Cap,
    Collar,
    SpherePoint,
    boundary_distance_many,
    contains,
    domain_measure,
    north_frame,
    north_pole,
    rho_from_chord,
    rho_many,
)

_GRID_LIMIT = 25_000_000  # points of one product grid
_PROBE_RESOLUTION = 4  # probes per epsilon length of the coverage check
_PAIR_BLOCK = 256  # nodes per KD pair sweep of the probe scans


@dataclass(frozen=True, slots=True, eq=False)
class NodeSet:
    """A finite tagged point set with its separation target and provenance.

    ``epsilon`` is the separation target delta/n; sets built from
    arbitrary points (no separation promise) carry epsilon = 0, which
    makes the separation invariant vacuous.  ``epsilon`` and ``delta``
    must be finite and nonnegative; ``validate`` checks membership and
    separation ("membership": membership alone).  ``algorithm`` names
    the generator of the nodes, as files record it.
    """

    domain: Cap | Collar
    coords: np.ndarray
    epsilon: float
    degree: int = 1
    delta: float | None = None
    seed: int = 0
    algorithm: str = "unknown"
    validate: InitVar[bool | str] = True

    def __post_init__(self, validate):
        domain = self.domain
        if not isinstance(domain, (Cap, Collar)):
            raise TypeError("domain must be a Cap or Collar")
        coords = np.asarray(self.coords, dtype=float).copy()
        if coords.ndim != 2 or coords.shape[1] != domain.dim + 1:
            raise ValueError("coords must be (npoints, d+1)")
        if coords.shape[0]:
            norms = np.linalg.norm(coords, axis=1, keepdims=True)
            off = np.abs(norms - 1.0).ravel() > 1e-12
            if np.any(off):
                coords[off] /= norms[off]
        coords.setflags(write=False)
        epsilon = float(self.epsilon)
        degree = int(self.degree)
        delta = float(epsilon * degree) if self.delta is None else float(self.delta)
        for name, value in (("epsilon", epsilon), ("delta", delta)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if validate and not np.all(contains(domain, coords)):
            raise ValueError("node outside the domain")
        sep = min_separation(domain, coords) if validate is True and epsilon > 0 else math.inf
        if sep < epsilon - 1e-12:
            raise ValueError(f"set not separated: min rho {sep} < {epsilon}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "seed", int(self.seed))

    def __len__(self):
        return self.coords.shape[0]

    def __repr__(self):
        return (f"NodeSet({self.domain!r}, n={len(self)}, epsilon={self.epsilon!r}, "
                f"degree={self.degree}, delta={self.delta!r}, seed={self.seed}, "
                f"algorithm={self.algorithm!r})")


def canonical(nodes):
    """The set turned so that its domain is centred at the pole: the one
    frame of the solver and of every measurement.

    Coords go through the domain's ``north_frame``; a set already at the
    pole comes back as the same object.
    """
    domain = nodes.domain
    pole = north_pole(domain.dim)
    if domain.center == pole:
        return nodes
    coords = nodes.coords @ north_frame(domain.center)
    return NodeSet(dataclasses.replace(domain, center=pole), coords, nodes.epsilon,
                   nodes.degree, nodes.delta, nodes.seed, nodes.algorithm, validate=False)


def _as_coords(points, dim):
    if isinstance(points, NodeSet):
        return points.coords
    if isinstance(points, np.ndarray):
        return np.atleast_2d(points)
    rows = [p.coords if isinstance(p, SpherePoint) else np.asarray(p, float) for p in points]
    if not rows:
        return np.empty((0, dim + 1))
    return np.vstack(rows)


def _chord_within(domain, rho):
    """A chord that every pair at rho-distance <= ``rho`` lies within
    (chord <= alpha * rho, with a rounding slack), capped at 2."""
    return min(domain.alpha * rho * (1.0 + 1e-9) + 1e-12, 2.0)


def min_separation(domain, coords):
    """Smallest pairwise rho-distance (inf for fewer than two points).

    Chord <= alpha * rho, so only pairs within chord alpha * rho can lie
    at rho.  A KD pair query at the points' mean spacing, its radius
    grown 4x until it holds a pair, bounds the minimum by the least rho
    it finds; a second query at the chord of that bound then holds every
    pair at or below it, so its least rho is the exact minimum.  The
    second query is skipped when the first already reached that chord.
    """
    if coords.shape[0] < 2:
        return math.inf
    tree = cKDTree(coords)
    sqrt_b = np.sqrt(boundary_distance_many(domain, coords))

    def least_rho(chord):
        i, j = tree.query_pairs(chord, output_type="ndarray").T
        return float(rho_many(domain, coords[i], coords[j], sqrt_b[i], sqrt_b[j])
                     .min(initial=math.inf))

    radius = (domain_measure(domain) / coords.shape[0]) ** (1.0 / domain.dim)
    while (best := least_rho(radius)) == math.inf:  # a chord of 2 holds every pair
        radius *= 4.0
    chord = _chord_within(domain, best)
    return min(best, least_rho(chord)) if chord > radius else best


def is_separable(domain, points, epsilon):
    """True iff all pairwise rho-distances are >= epsilon - 1e-12 (vacuous when empty)."""
    return min_separation(domain, _as_coords(points, domain.dim)) >= epsilon - 1e-12


# ---------------------------------------------------------------------------
# product grids (the probes of every coverage and count check)


def grid_counts(domain, epsilon, resolution):
    """Intervals along each axis of ``product_grid`` (polar angle and
    azimuth on d=2, each arc on d=1); raises ValueError, before anything
    is allocated, when the grid would hold more than _GRID_LIMIT points."""
    step = epsilon * domain.alpha
    spans = ([hi - lo for lo, hi in domain.arcs] if domain.dim == 1
             else [domain.polar_range[1] - domain.polar_range[0], 2.0 * math.pi])
    counts = [resolution * max(1, math.ceil(span / step)) for span in spans]
    size = sum(m + 1 for m in counts) if domain.dim == 1 else (counts[0] + 1) * counts[1]
    if size > _GRID_LIMIT:
        raise ValueError(f"epsilon {epsilon:.6g} is too small: its product grid at resolution "
                         f"{resolution} would hold {size} points, over the grid limit")
    return counts


def product_grid(domain, epsilon, resolution):
    """Deterministic product grid with spacing about epsilon*alpha/resolution.

    Counts are resolution times a base count fixed by epsilon alone, so
    grids at resolutions 4 and 8 are nested.  Returns an (N, d+1) coords
    array in the domain's frame, row-major over (theta, phi) on d=2, and
    arc after arc in ascending angle on d=1.
    """
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    counts = grid_counts(domain, epsilon, resolution)
    frame = north_frame(domain.center)
    if domain.dim == 1:
        arcs = zip(domain.arcs, counts)
        u = np.concatenate([np.linspace(lo, hi, m + 1) for (lo, hi), m in arcs])
        return np.column_stack([np.sin(u), np.cos(u)]) @ frame
    theta = np.linspace(*domain.polar_range, counts[0] + 1)
    phi = np.arange(counts[1]) * (2.0 * math.pi / counts[1])
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


# ---------------------------------------------------------------------------
# the rho-ring lattice


_MARGIN = 1.0 + 1e-5  # steps are epsilon * _MARGIN: above the rounding of measured rho
_RING_SPACING = 1.6  # first try at the in-ring spacing, in units of alpha * epsilon


def _rho_along(domain, s, t):
    """rho in scalar math between the points at angles s and t of a great
    circle through the centre (polar angles of a meridian, signed angles of
    a d=1 arc); the distance term runs along it: |s - t| on caps, its chord on collars."""
    alpha = domain.alpha
    if isinstance(domain, Collar):
        dist = 2.0 * math.sin(0.5 * abs(s - t))
        beta = domain.beta
        bs, bt = min(abs(s) - alpha, beta - abs(s)), min(abs(t) - alpha, beta - abs(t))
    else:
        dist = abs(s - t)
        bs, bt = alpha - abs(s), alpha - abs(t)
    gap = math.sqrt(max(bs, 0.0)) - math.sqrt(max(bt, 0.0))
    return math.hypot(dist, math.sqrt(alpha) * gap) / alpha


_BAND = 5e-15  # a walk step's bracket width, relative to its largest angle


def _walk(domain, start, end, step):
    """Angles from ``start`` toward ``end``, each ``step`` in rho past the
    last (``_step``) until ``end`` is nearer than that; then ``end`` itself."""
    out = [start]
    while (f_end := _rho_along(domain, out[-1], end) - step) >= 0:
        out.append(_step(domain, out[-1], end, step, f_end))
    return out + [end]


def _step(domain, last, end, step, f_end):
    """The far end of the bisection of [last, end] to adjacent floats on
    rho(last, m) < step: the first float past the step, never short.

    Illinois false position on f = rho(last, .) - step brackets the root
    within a width of _BAND times the largest angle, each trial at least
    half that width inside the bracket.  The bisection then runs its own
    midpoints, calling ``_rho_along`` only within half a width of the
    bracket and placing every other midpoint by its side of it, so it
    returns the float of the full bisection wherever f crosses 0 once on
    [last, end] (rho grows along every cap meridian).  The band, at most
    1e-14 of the largest angle, holds the last floats, where a rounded
    rho need not grow, so the root's own float is not taken instead.
    Angles are signed t = sign * angle, so t grows from last to end;
    negation is exact.
    """
    sign = 1.0 if end > last else -1.0
    width = _BAND * max(abs(last), abs(end))

    def f(t):
        return _rho_along(domain, last, sign * t) - step

    lo, hi, f_lo, f_hi, side = sign * last, sign * end, -step, f_end, 0
    while hi - lo > width:  # f(lo) < 0 <= f(hi)
        t = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        t = min(max(t, lo + 0.5 * width), hi - 0.5 * width)
        if (f_t := f(t)) < 0:
            if side < 0:  # Illinois: an end kept twice in a row counts half
                f_hi *= 0.5
            lo, f_lo, side = t, f_t, -1
        else:
            if side > 0:
                f_lo *= 0.5
            hi, f_hi, side = t, f_t, 1
    lo, hi = lo - 0.5 * width, hi + 0.5 * width
    a, b = sign * last, sign * end
    while (m := 0.5 * (a + b)) not in (a, b):
        if m < lo or (m <= hi and f(m) < 0):
            a = m
        else:
            b = m
    return sign * b


def _fit_ring(domain, theta, k, step):
    """The largest count up to ``k`` whose neighbours on the ring at polar
    angle theta sit at least ``step`` apart in rho (1 if none does)."""
    ks = np.arange(k, 1, -1)
    chords = 2.0 * math.sin(theta) * np.sin(math.pi / ks)
    fits = ks[rho_from_chord(domain, chords, 0.0, 0.0) >= step]
    return int(fits[0]) if fits.size else 1


def _drop_crowded(domain, coords, epsilon):
    """``coords`` without each row within rho epsilon of an earlier row
    kept (a crowded closing node, or d=1 arc ends that meet): every pair
    left is epsilon-separated, the query holding each pair within it."""
    pairs = cKDTree(coords).query_pairs(_chord_within(domain, epsilon), output_type="ndarray")
    close = pairs[rho_many(domain, coords[pairs[:, 0]], coords[pairs[:, 1]]) < epsilon]
    keep = np.ones(coords.shape[0], dtype=bool)
    for later, earlier in sorted(zip(close.max(axis=1), close.min(axis=1))):
        if keep[earlier]:
            keep[later] = False
    return coords[keep]


def ring_lattice(domain, epsilon, seed=0, degree=None, delta=None):
    """Maximal epsilon-separated set on rings of constant polar angle (on
    arcs on d=1), built as the module docstring says.  Nodes depend on
    (domain, epsilon) alone; ``seed`` is provenance metadata carried into
    the NodeSet and derived files."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if delta is not None:
        if degree is None:
            raise ValueError("delta without degree is ambiguous")
        if abs(float(delta) / int(degree) - epsilon) > 1e-12 * max(1.0, epsilon):
            raise ValueError("degree and delta must satisfy epsilon = delta/degree")
    step = epsilon * _MARGIN
    if domain.dim == 1:
        u = np.array([v for lo, hi in domain.arcs for v in _walk(domain, lo, hi, step)])
        local = np.column_stack([np.sin(u), np.cos(u)])
    else:
        thetas = _walk(domain, domain.polar_range[1], domain.polar_range[0], step)
        rings = []
        for j, theta in enumerate(thetas):
            # the closing ring keeps the previous count: its stagger falls midway
            if j < len(thetas) - 1:
                k = math.ceil(2.0 * math.pi * math.sin(theta)
                              / (_RING_SPACING * domain.alpha * epsilon))
            k = _fit_ring(domain, theta, max(k, 1), step)
            phi = (np.arange(k) + 0.5 * (j % 2)) * (2.0 * math.pi / k)
            rings.append(np.column_stack([math.sin(theta) * np.cos(phi),
                                          math.sin(theta) * np.sin(phi),
                                          np.full(k, math.cos(theta))]))
        local = np.vstack(rings)
    coords = _drop_crowded(domain, local @ north_frame(domain.center), epsilon)
    # NodeSet takes delta = epsilon * degree when it is missing; the kept
    # rows hold no pair nearer than epsilon, so only membership is checked
    return NodeSet(domain, coords, epsilon, degree=1 if degree is None else degree,
                   delta=delta, seed=seed, algorithm="rho-ring-lattice", validate="membership")


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
    chord = _chord_within(domain, radius)
    leaf_order = cKDTree(node_coords).indices
    for k in range(0, leaf_order.size, _PAIR_BLOCK):
        block = leaf_order[k:k + _PAIR_BLOCK]
        pairs = cKDTree(node_coords[block]).sparse_distance_matrix(
            probe_tree, chord, output_type="ndarray")
        i, j = block[pairs["i"]], pairs["j"]
        yield i, j, rho_from_chord(domain, pairs["v"], sqrt_b_probes[j], sqrt_b_nodes[i])


def is_maximal_separable(domain, points, epsilon):
    """Separated, and every probe of a dense grid lies within epsilon of a node.

    The probe grid has about _PROBE_RESOLUTION probes per epsilon length;
    a small additive slack absorbs grid-alignment rounding.
    """
    coords = _as_coords(points, domain.dim)
    if coords.shape[0] == 0:
        return False
    if not is_separable(domain, coords, epsilon):
        return False
    probes = product_grid(domain, epsilon, _PROBE_RESOLUTION)
    best = np.full(probes.shape[0], np.inf)  # inf beyond every node's chordal ball
    for _, j, d in _node_neighbours(domain, probes, coords, epsilon):
        np.minimum.at(best, j, d)
    return bool(np.all(best <= epsilon + 1e-7))


def _peak_count(domain, nodes, epsilon, radius, target_count):
    """Largest number of nodes within rho <= radius of one probe.

    The probes are the shared product grid of about ``target_count``
    points at spacing max(epsilon, 1e-3) plus the nodes themselves, so
    coincident-node configurations are counted exactly.
    """
    grid = _probe_grid_by_count(domain, max(epsilon, 1e-3), target_count)
    probes = np.vstack([grid, nodes.coords])
    counts = np.zeros(probes.shape[0], dtype=np.int64)
    for _, j, d in _node_neighbours(domain, probes, nodes.coords, radius):
        counts += np.bincount(j[d <= radius + 1e-12], minlength=probes.shape[0])
    return int(counts.max())


def covering_multiplicity(domain, nodes, beta=1.0, probes=20000):
    """Largest number of beta-dilated node balls covering one probe point.

    Balls have rho-radius beta times the set's separation target; the
    probes are those of ``_peak_count``.
    """
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    if len(nodes) == 0:
        return 0
    return _peak_count(domain, nodes, nodes.epsilon, beta * nodes.epsilon, probes)


def tau_statistic(domain, nodes, n, probes=20000):
    """Peak node count of a rho-ball of radius 1/n (probe-grid maximum)."""
    if len(nodes) == 0:
        return 0
    eps = nodes.epsilon if nodes.epsilon > 0 else 1.0 / n
    return _peak_count(domain, nodes, eps, 1.0 / n, probes)
