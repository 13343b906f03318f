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
uses chord <= alpha * rho: a close-pair enumerator (``_close_pairs``)
hashes points into cubes of the chord's side and pairs each with the
points of its own and neighbouring cubes; separation takes a near pair
and then every pair at the chord of its rho.  Probe counts go row by row
of the grid (``_grid_counts``): on a row of one polar angle the probes
within rho of a node form one azimuth interval in closed form, and only
probes within a rounding margin of its ends are measured.  The lattice
steps in scalar rho; every other distance here is ``rho_from_chord`` of
a chord between coordinates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .geometry import (
    Cap,
    Collar,
    SpherePoint,
    azimuth_half_width,
    ball_reach,
    boundary_distance_many,
    contains,
    domain_measure,
    north_frame,
    north_pole,
    rho_from_chord,
)

_GRID_LIMIT = 25_000_000  # points of one product grid
_PROBE_RESOLUTION = 4  # probes per epsilon length of the coverage check
_PAIR_BLOCK = 1 << 16  # candidate pairs per block of the pair and probe-row scans
_CUBES = 1 << 20  # most cubes along an axis of the pair hash, so keys fit in int64


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
        sep = (min_separation(domain, coords, epsilon) if validate is True and epsilon > 0
               else math.inf)
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


def _members(owner, start, length):
    """(owner, member) for every member of each owner's integer range
    start .. start + length - 1."""
    return (np.repeat(owner, length),
            np.arange(length.sum()) + np.repeat(start - np.cumsum(length) + length, length))


def _ranges(owner, start, length):
    """Yield ``_members`` of the ranges in blocks of at most
    2 * _PAIR_BLOCK members, a range longer than _PAIR_BLOCK cut first."""
    live = np.flatnonzero(length > 0)
    owner, start, length = owner.take(live), start.take(live), length.take(live)
    if length.size == 0:
        return
    if length.max() > _PAIR_BLOCK:
        piece, skip = _members(np.arange(length.size), np.zeros_like(length),
                               -(-length // _PAIR_BLOCK))
        skip *= _PAIR_BLOCK
        owner, start = owner[piece], start[piece] + skip
        length = np.minimum(length[piece] - skip, _PAIR_BLOCK)
    ends = np.cumsum(length)
    cuts = np.searchsorted(ends, np.arange(_PAIR_BLOCK, ends[-1], _PAIR_BLOCK), side="right")
    for block in np.split(np.arange(length.size), cuts):
        yield _members(owner[block], start[block], length[block])


def _close_pairs(coords, chord, other=None):
    """Yield blocks (i, j, chords) of the pairs within ``chord`` of each
    other: rows i and j of ``coords``, each unordered pair once, or row i
    of ``coords`` and row j of ``other``, with their chord lengths.

    Points hash into cubes of side just above ``chord`` (at least the
    span over _CUBES, so a key fits in int64), padded by one empty cube
    on each side; a pair within the chord lies in one cube or in two
    neighbouring ones.  Keys are row-major with the last axis fastest, so
    the 3 neighbours along it hold consecutive keys, and the points of
    such a column of cubes, sorted by key, form one ``searchsorted``
    window.  Each occupied cube looks up its 3^(D-1) neighbouring
    columns; within one set only its own column past each point and the
    columns after it in key order.  The windows' candidates go in
    ``_ranges`` blocks, each filtered to the chord.
    """
    target = coords if other is None else other
    if coords.shape[0] == 0 or target.shape[0] == 0:
        return
    both = coords if other is None else np.vstack([coords, other])
    lo, hi = both.min(axis=0), both.max(axis=0)
    side = max(chord * (1.0 + 1e-9), float((hi - lo).max()) / _CUBES, 1e-300)
    shape = np.floor((hi - lo) / side).astype(np.int64) + 3
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)

    def by_key(x):  # (order, x sorted by key, sorted keys)
        keys = (np.floor((x - lo) / side).astype(np.int64) + 1) @ strides
        order = np.argsort(keys, kind="stable")
        return order, x.take(order, axis=0), keys.take(order)

    t_order, t_sorted, t_keys = by_key(target)
    q_order, q_sorted, q_keys = by_key(coords) if other is not None else \
        (t_order, t_sorted, t_keys)
    first = np.flatnonzero(np.concatenate([[True], q_keys[1:] != q_keys[:-1]]))
    size = np.diff(np.append(first, q_keys.size))
    dim = coords.shape[1]
    columns = (np.indices((3,) * (dim - 1)).reshape(dim - 1, -1).T - 1) @ strides[:-1]
    if other is None:
        columns = np.sort(columns[columns >= 0])  # the own column first
    near = q_keys[first][:, None] + columns
    start = np.repeat(np.searchsorted(t_keys, near - 1, side="left"), size, axis=0)
    stop = np.repeat(np.searchsorted(t_keys, near + 1, side="right"), size, axis=0)
    if other is None:  # each pair once: in the own column, the points past each point
        start[:, 0] = np.arange(q_keys.size) + 1
    point = np.repeat(np.arange(q_keys.size), columns.size)
    for xs, ys in _ranges(point, start.ravel(), (stop - start).ravel()):
        diff = q_sorted.take(xs, axis=0) - t_sorted.take(ys, axis=0)
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = np.flatnonzero(d <= chord)
        yield q_order.take(xs.take(keep)), t_order.take(ys.take(keep)), d.take(keep)


def min_separation(domain, coords, epsilon=0.0):
    """Smallest pairwise rho-distance (inf for fewer than two points).

    Chord <= alpha * rho, so only pairs within chord alpha * rho can lie
    at rho.  The close pairs at a first chord, grown 4x until it holds a
    pair, bound the minimum by the least rho among them; the pairs at the
    chord of that bound then hold every pair at or below it, so their
    least rho is the exact minimum.  The second scan is skipped when the
    first already reached that chord.  The first chord is the points'
    mean spacing, or the chord of 1.01 * ``epsilon`` if larger: given the
    separation a set should keep, its nearest pairs sit inside that, and
    one scan suffices.
    """
    if coords.shape[0] < 2:
        return math.inf
    sqrt_b = np.sqrt(boundary_distance_many(domain, coords))

    def least_rho(chord):
        return min((float(rho_from_chord(domain, d, sqrt_b[i], sqrt_b[j]).min(initial=math.inf))
                    for i, j, d in _close_pairs(coords, chord)), default=math.inf)

    radius = max((domain_measure(domain) / coords.shape[0]) ** (1.0 / domain.dim),
                 _chord_within(domain, 1.01 * epsilon))
    while (best := least_rho(radius)) == math.inf:  # a chord of 2 holds every pair
        radius *= 4.0
    chord = _chord_within(domain, best)
    return min(best, least_rho(chord)) if chord > radius else best


def is_separable(domain, points, epsilon):
    """True iff all pairwise rho-distances are >= epsilon - 1e-12 (vacuous when empty)."""
    return min_separation(domain, _as_coords(points, domain.dim), epsilon) >= epsilon - 1e-12


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
    size = _grid_size(domain, counts)
    if size > _GRID_LIMIT:
        raise ValueError(f"epsilon {epsilon:.6g} is too small: its product grid at resolution "
                         f"{resolution} would hold {size} points, over the grid limit")
    return counts


def _grid_size(domain, counts):
    return sum(m + 1 for m in counts) if domain.dim == 1 else (counts[0] + 1) * counts[1]


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


def _probe_layout(domain, epsilon, target_count):
    """(resolution, stride) of the probe grid of roughly target_count
    points, ``product_grid(domain, epsilon, resolution)[::stride]``: the
    base grid, every stride-th point of it when it holds more than twice
    the target, or a finer grid when it holds fewer."""
    n_base = _grid_size(domain, grid_counts(domain, epsilon, 1))
    if n_base >= target_count:
        return 1, (n_base // target_count if n_base > 2 * target_count else 1)
    res = max(1, int(math.sqrt(target_count / n_base)) if domain.dim == 2
              else int(target_count / n_base))
    return res, 1


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
    left is epsilon-separated, the close pairs holding each pair within it."""
    sqrt_b = np.sqrt(boundary_distance_many(domain, coords))
    close = [np.column_stack([i, j])[rho_from_chord(domain, d, sqrt_b[i], sqrt_b[j]) < epsilon]
             for i, j, d in _close_pairs(coords, _chord_within(domain, epsilon))]
    close = np.vstack(close) if close else np.empty((0, 2), dtype=np.intp)
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


def _grid_counts(domain, coords, threshold, epsilon, resolution, stride=1):
    """For each probe of ``product_grid(domain, epsilon, resolution)[::stride]``,
    the number of rows of ``coords`` within rho <= threshold of it.

    On d=1 the counts come from the close pairs of nodes and probes.  On
    d=2 they go row by row of the grid, one polar angle t per row: a node
    at polar angle s and the row's boundary term sqrt(b) leave the
    distance term dist^2 <= reach = (alpha*threshold)^2 - alpha*gap^2,
    and the dot product of node and probe, cos s cos t + sin s sin t
    cos(dphi), falls with the azimuth gap dphi, so the probes within
    reach form one azimuth interval about the node (``azimuth_half_width``).
    Two intervals bracket it: an inner one, on the row's widest sqrt(b)
    gap and with reach, dot and azimuth each a margin inside, whose
    probes all count, and an outer one a margin outside.  Only probes
    between the two are measured, by the one test ``rho_from_chord <=
    threshold``, so every count is that test's.  The inner intervals
    become counts by one cumulative sum over the probes.  The (node, row)
    pairs go in ``_ranges`` blocks.
    """
    probes = product_grid(domain, epsilon, resolution)[::stride]
    nprobes = probes.shape[0]
    counts = np.zeros(nprobes, dtype=np.int64)
    sqrt_b = np.sqrt(boundary_distance_many(domain, coords))
    sqrt_b_probes = np.sqrt(boundary_distance_many(domain, probes))

    def measure(i, j, chord):
        near = rho_from_chord(domain, chord, sqrt_b_probes[j], sqrt_b[i]) <= threshold
        return np.bincount(j[near], minlength=nprobes)

    if domain.dim == 1 or coords.shape[0] == 0:
        for block in _close_pairs(coords, _chord_within(domain, threshold), probes):
            counts += measure(*block)
        return counts
    n_theta, n_phi = grid_counts(domain, epsilon, resolution)
    theta = np.linspace(*domain.polar_range, n_theta + 1)
    step = 2.0 * math.pi / n_phi
    row_start = -(-np.arange(theta.size + 1) * n_phi // stride)  # first probe of each row
    filled = np.flatnonzero(row_start[1:] > row_start[:-1])
    b_lo, b_hi = np.full(theta.size, np.nan), np.full(theta.size, np.nan)
    b_lo[filled] = np.minimum.reduceat(sqrt_b_probes, row_start[filled])
    b_hi[filled] = np.maximum.reduceat(sqrt_b_probes, row_start[filled])
    local = coords @ north_frame(domain.center)
    theta_n = np.arctan2(np.hypot(local[:, 0], local[:, 1]), local[:, 2])
    phi_n = np.arctan2(local[:, 1], local[:, 0])
    reach_rows = ball_reach(domain, threshold) + 1e-9
    first = np.searchsorted(theta, theta_n - reach_rows, side="left")
    rows = np.searchsorted(theta, theta_n + reach_rows, side="right") - first
    full = (domain.alpha * threshold) ** 2
    pad = 1e-13 * (1.0 + full)  # above the rounding of rho^2, in units of dist^2
    inside = np.zeros(nprobes + 1, dtype=np.int64)  # difference array of the inner intervals

    def columns(phi, half):  # the column range within half of each azimuth phi
        return (np.ceil((phi - half) / step).astype(np.int64),
                np.floor((phi + half) / step).astype(np.int64))

    def spans(row, lo, hi):
        """(pair, start, stop) probe ranges of columns lo..hi (at most one
        turn, wrapped at the row's end) of each pair's row."""
        shift = lo // n_phi * n_phi
        lo, hi, base = lo - shift, hi - shift, row * n_phi
        flat_lo = np.concatenate([base + lo, base])
        flat_hi = np.concatenate([base + np.minimum(hi, n_phi - 1), base + hi - n_phi]) + 1
        start, stop = -(-flat_lo // stride), -(-flat_hi // stride)
        live = np.flatnonzero(start < stop)
        return live % row.size, start.take(live), stop.take(live)

    for i, row in _ranges(np.arange(coords.shape[0]), first, rows):
        live = np.flatnonzero(~np.isnan(b_lo[row]))
        i, row = i.take(live), row.take(live)
        cos_prod = np.cos(theta_n[i]) * np.cos(theta[row])
        sin_prod = np.sin(theta_n[i]) * np.sin(theta[row])
        gap_lo, gap_hi = b_lo[row] - sqrt_b[i], b_hi[row] - sqrt_b[i]
        widest = np.maximum(np.abs(gap_lo), np.abs(gap_hi))
        nearest = np.where(gap_lo * gap_hi <= 0.0, 0.0, np.minimum(np.abs(gap_lo), np.abs(gap_hi)))
        lo_in, hi_in = columns(phi_n[i], azimuth_half_width(
            domain, full - domain.alpha * widest**2 - pad, cos_prod, sin_prod, 2e-12) - 1e-12)
        lo_out, hi_out = columns(phi_n[i], azimuth_half_width(
            domain, full - domain.alpha * nearest**2 + pad, cos_prod, sin_prod, -2e-12) + 1e-12)
        empty = hi_in < lo_in  # an empty inner interval sits at the outer one's end
        lo_in, hi_in = np.where(empty, hi_out + 1, lo_in), np.where(empty, hi_out, hi_in)
        part = hi_in - lo_in + 1 < n_phi
        _, start, stop = spans(row, np.where(part, lo_in, 0), np.where(part, hi_in, n_phi - 1))
        inside += np.bincount(start, minlength=inside.size)
        inside -= np.bincount(stop, minlength=inside.size)
        # measured: the columns beyond each end of a part inner interval, or
        # its complement where the outer interval is the whole row
        part = np.flatnonzero(part)
        i, row, lo_in, hi_in = i.take(part), row.take(part), lo_in.take(part), hi_in.take(part)
        lo_out, hi_out = lo_out.take(part), hi_out.take(part)
        whole = hi_out - lo_out + 1 >= n_phi
        for lo, hi in ((np.where(whole, hi_in + 1, lo_out), np.where(whole, lo_in + n_phi, lo_in) - 1),
                       (hi_in + 1, np.where(whole, hi_in, hi_out))):
            pair, start, stop = spans(row, lo, hi)
            node, j = _members(i.take(pair), start, stop - start)
            diff = coords.take(node, axis=0) - probes.take(j, axis=0)
            counts += measure(node, j, np.sqrt(np.einsum("ij,ij->i", diff, diff)))
    return counts + np.cumsum(inside[:-1])


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
    counts = _grid_counts(domain, coords, epsilon + 1e-7, epsilon, _PROBE_RESOLUTION)
    return bool(np.all(counts > 0))


def _peak_count(domain, nodes, epsilon, radius, target_count):
    """Largest number of nodes within rho <= radius of one probe.

    The probes are the shared product grid of about ``target_count``
    points at spacing max(epsilon, 1e-3) (``_grid_counts``) plus the
    nodes themselves (their close pairs), so coincident-node
    configurations are counted exactly.
    """
    spacing = max(epsilon, 1e-3)
    threshold = radius + 1e-12
    coords = nodes.coords
    grid = _grid_counts(domain, coords, threshold, spacing,
                        *_probe_layout(domain, spacing, target_count))
    sqrt_b = np.sqrt(boundary_distance_many(domain, coords))
    own = np.ones(coords.shape[0], dtype=np.int64)  # each node at rho 0 of itself
    for i, j, d in _close_pairs(coords, _chord_within(domain, threshold)):
        near = rho_from_chord(domain, d, sqrt_b[i], sqrt_b[j]) <= threshold
        own += np.bincount(i[near], minlength=own.size) + np.bincount(j[near], minlength=own.size)
    return int(max(grid.max(initial=0), own.max()))


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
