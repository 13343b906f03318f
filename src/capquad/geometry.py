"""Spherical caps, collars, and their boundary-adapted metrics.

Points live on the unit circle (d=1) or the unit 2-sphere (d=2) in
R^{d+1}.  A cap is the set of points within geodesic distance ``alpha``
of a center ``e``; a collar is the band between two geodesic radii.
The workhorse is the metric

    rho(x, y) = sqrt(dist(x, y)**2 + alpha*(sqrt(b_x) - sqrt(b_y))**2) / alpha

where ``dist`` is geodesic distance on a cap (chordal on a collar) and
``b_x`` is the distance from ``x`` to the domain boundary.  Close to the
boundary the square-root term dominates, so equal-radius balls flatten
into thin annuli there; that is the shape a sampling set for polynomials
has to follow, and the node generator and every inequality check downstream
measure distances with this ruler: ``rho_from_chord`` on the chord |x - y|,
which ``rho_many`` takes from coordinates and the close-pair scans of
``points`` hand over.

All angles are radians.  Measures are arc length for d=1 and steradians
for d=2.  Every object is an immutable value and every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INSIDE_TOL = 1e-10
ALPHA_MAX = math.pi - 0.1


class GeometryError(ValueError):
    """A point lies outside the domain required by an operation."""


def _as_unit(coords):
    coords = np.asarray(coords, dtype=float)
    if coords.shape not in ((2,), (3,)):
        raise ValueError("coords must have length 2 or 3 (d = 1 or 2)")
    nrm = float(np.linalg.norm(coords))
    if not np.isfinite(nrm) or nrm == 0.0:
        raise ValueError("coords must be a finite nonzero vector")
    # leave already-unit vectors untouched so serialized points round-trip
    # byte-identically; renormalize anything genuinely off the sphere
    out = coords.copy() if abs(nrm - 1.0) <= 1e-12 else coords / nrm
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True, eq=False)
class SpherePoint:
    """A point of S^d, stored as a unit vector (renormalized on construction)."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_unit(self.coords))

    @property
    def dim(self):
        return self.coords.shape[0] - 1

    def __eq__(self, other):
        return isinstance(other, SpherePoint) and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash(self.coords.tobytes())

    def __repr__(self):
        return f"SpherePoint({self.coords.tolist()!r})"


def north_pole(dim):
    """The canonical pole (0, ..., 0, 1) of S^dim."""
    v = np.zeros(dim + 1)
    v[-1] = 1.0
    return SpherePoint(v)


def north_frame(center):
    """Orthogonal matrix H with H @ center == north pole.

    H is the Householder reflection through the bisecting hyperplane,
    fixed deterministically by ``center`` (identity when ``center`` is
    already the pole).  H is symmetric and involutive, so it is its own
    inverse and maps the pole back to ``center``.
    """
    e = center.coords if isinstance(center, SpherePoint) else np.asarray(center, float)
    v = e - north_pole(e.shape[0] - 1).coords
    vv = float(v @ v)
    if vv < 1e-28:
        return np.eye(e.shape[0])
    return np.eye(e.shape[0]) - (2.0 / vv) * np.outer(v, v)


def _as_point(center):
    return center if isinstance(center, SpherePoint) else SpherePoint(center)


@dataclass(frozen=True, slots=True)
class Cap:
    """Spherical cap: all points within geodesic distance alpha of center.

    ``polar_range`` is the interval of polar angles about the center,
    (0, alpha); ``arcs`` are the same points on S^1 as signed angles.
    """

    center: SpherePoint
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        alpha = float(self.alpha)
        if not (0.0 < alpha <= ALPHA_MAX + 1e-12):
            raise ValueError(f"alpha must lie in (0, pi - 0.1], got {alpha}")
        object.__setattr__(self, "alpha", min(alpha, ALPHA_MAX))

    @property
    def dim(self):
        return self.center.dim

    @property
    def polar_range(self):
        return 0.0, self.alpha

    @property
    def arcs(self):
        return ((-self.alpha, self.alpha),)


@dataclass(frozen=True, slots=True)
class Collar:
    """Spherical collar: points with geodesic distance to center in [alpha, beta].

    The two width scales must be comparable (alpha and beta - alpha within
    a factor 4 of each other); the metric below degrades outside that
    regime.  ``polar_range`` is (alpha, beta); on S^1 the collar is the
    two ``arcs`` on either side of the center.
    """

    center: SpherePoint
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        alpha, beta = float(self.alpha), float(self.beta)
        if not (0.0 < alpha < beta < math.pi - 0.1):
            raise ValueError(f"need 0 < alpha < beta < pi - 0.1, got ({alpha}, {beta})")
        width = beta - alpha
        ratio = max(alpha / width, width / alpha)
        if ratio > 4.0 + 1e-12:
            raise ValueError(
                f"alpha and beta - alpha must be within a factor 4, got ratio {ratio:.3g}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def dim(self):
        return self.center.dim

    @property
    def polar_range(self):
        return self.alpha, self.beta

    @property
    def arcs(self):
        return (self.alpha, self.beta), (-self.beta, -self.alpha)


@dataclass(frozen=True, slots=True)
class Sphere:
    """The whole of S^dim; used as an integration domain, centered at the
    north pole: ``polar_range`` is (0, pi) and the one arc is (-pi, pi)."""

    dim: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def center(self):
        return north_pole(self.dim)

    @property
    def polar_range(self):
        return 0.0, math.pi

    @property
    def arcs(self):
        return ((-math.pi, math.pi),)


def domain_measure(domain):
    """Surface measure of a cap, collar, or sphere: of its polar range."""
    lo, hi = domain.polar_range
    if domain.dim == 2:
        return 2.0 * math.pi * (math.cos(lo) - math.cos(hi))
    return 2.0 * (hi - lo)


# ---------------------------------------------------------------------------
# distances


def _arccos(dots):
    """Geodesic distances arccos(dots), the dots clamped into [-1, 1].

    From rounded dots, distances near 0 have a floor of about 3e-8: a dot
    one rounding step below 1 reads 1.5e-8 or 2.1e-8.  Only polar angles
    and single-pair geodesics are taken this way: a point near a cap's
    center can be off by that much in its polar angle and so in its
    boundary distance, while rho between points comes from their chord.
    """
    return np.arccos(np.clip(dots, -1.0, 1.0))


def geodesic_distance(x, y):
    """Geodesic distance arccos(x . y), clamped into [0, pi]."""
    xc = x.coords if isinstance(x, SpherePoint) else np.asarray(x, float)
    yc = y.coords if isinstance(y, SpherePoint) else np.asarray(y, float)
    if xc.shape != yc.shape:
        raise ValueError("dimension mismatch")
    return float(_arccos(xc @ yc))


def polar_angles(domain, coords):
    """Geodesic distance of each row of ``coords`` to the domain center."""
    return _arccos(np.atleast_2d(coords) @ domain.center.coords)


RING_TOL = 4.0 * np.finfo(float).eps  # dots with the center this close share a ring


def ring_labels(domain, coords):
    """(labels, order, starts): the ring of each row of ``coords``, the rows
    ring after ring (by rising dot with the domain center, then by index),
    and where each ring starts in ``order``, ending with the row count.

    A ring is one polar angle: rows whose sorted dots with the center step
    by at most RING_TOL, so a lattice turned off the pole keeps the rings
    of its pole copy.  On d=1 every row is its own ring.  Callers take a
    ring's polar angle at its first row.  Its dots spread by delta (at
    most 3 eps on turned lattices), and by Markov's inequality on
    [cos alpha, 1] that moves a polynomial of degree n in the dot by at
    most 2 n^2 delta / (1 - cos alpha) of its largest value there: 2e-10
    for delta = eps on a cap alpha 0.05 at n 24.
    """
    rows = len(coords)
    if domain.dim == 1 or rows == 0:
        return np.arange(rows), np.arange(rows), np.arange(rows + 1)
    dots = coords @ domain.center.coords
    order = np.argsort(dots, kind="stable")
    dots = dots[order]
    new = np.concatenate([[True], dots[1:] - dots[:-1] > RING_TOL])
    starts = np.append(np.flatnonzero(new), rows)
    labels = np.empty(rows, dtype=np.intp)
    labels[order] = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    return labels, order, starts


def contains(domain, coords, tol=INSIDE_TOL):
    """Vectorized membership test for rows of ``coords``."""
    theta = polar_angles(domain, coords)
    lo, hi = domain.polar_range
    return (theta >= lo - tol) & (theta <= hi + tol)


def boundary_distance_many(domain, coords):
    """Distance to the domain boundary for each row, clamped at 0 and read as
    0 within 16 eps * max(hi, 1 / sin(edge)): a polar angle up to hi rounds by
    eps * hi, and arccos turns a dot's rounding into eps / sin(edge) at an edge.
    An edge row's sqrt(b) is then 0, not 0 or 1e-8 as its coordinates round."""
    b = boundary_distance_at(domain, polar_angles(domain, coords))
    lo, hi = domain.polar_range
    scale = max(hi, *(1.0 / math.sin(e) for e in (lo, hi) if e > 0))
    b[b <= 16.0 * np.finfo(float).eps * scale] = 0.0
    return b


def boundary_distance_at(domain, theta):
    """Distance to the domain boundary at polar angles ``theta`` (clamped at 0)."""
    if isinstance(domain, Cap):
        return np.maximum(domain.alpha - theta, 0.0)
    if isinstance(domain, Collar):
        return np.maximum(np.minimum(theta - domain.alpha, domain.beta - theta), 0.0)
    raise TypeError("boundary distance needs a cap or collar")


def boundary_distance(cap, x):
    """Distance from x to the cap boundary: alpha - dist(x, center), 0 on
    the boundary (with the edge floor of ``boundary_distance_many``) and
    alpha at the center.  Raises if x lies outside the cap beyond tolerance."""
    theta = geodesic_distance(cap.center, x)
    if cap.alpha - theta < -INSIDE_TOL:
        raise GeometryError(f"point outside the cap: dist {theta:.6g} > alpha {cap.alpha:.6g}")
    return float(boundary_distance_many(cap, _as_point(x).coords)[0])


def _require_inside(domain, coords_rows, what="point"):
    ok = contains(domain, coords_rows)
    if not np.all(ok):
        raise GeometryError(f"{what} outside the domain")


def rho_many(domain, coords, y, sqrt_b=None, sqrt_b_y=None):
    """Boundary-adapted distance from each row of ``coords`` to ``y``: one
    point (a vector), or the matching row of a stack of points.

    ``sqrt_b`` and ``sqrt_b_y`` let hot loops reuse precomputed square
    roots of boundary distances.  No membership checks are done here.
    """
    if sqrt_b is None:
        sqrt_b = np.sqrt(boundary_distance_many(domain, coords))
    if sqrt_b_y is None:
        sqrt_b_y = np.sqrt(boundary_distance_many(domain, y))
    diff = coords - y
    return rho_from_chord(domain, np.sqrt(np.einsum("ij,ij->i", diff, diff)), sqrt_b, sqrt_b_y)


def rho_from_chord(domain, chord, sqrt_b_x, sqrt_b_y):
    """The metric from chordal distances: the distance term is the chord
    itself on a collar and the geodesic 2*arcsin(chord/2) on a cap, so
    equal points read exactly 0 and nearby points keep their digits."""
    if isinstance(domain, Collar):
        dist = chord
    else:
        dist = 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))
    rho = dist * dist + domain.alpha * (sqrt_b_x - sqrt_b_y) ** 2
    np.sqrt(rho, out=rho)
    rho /= domain.alpha
    return rho


def _metric(domain, x, y):
    _require_inside(domain, np.vstack([x.coords, y.coords]))
    return float(rho_many(domain, x.coords.reshape(1, -1), y.coords)[0])


def rho(cap, x, y):
    """The boundary-adapted cap metric.

    Symmetric, nonnegative, and zero only at coinciding points; raises
    for points outside the cap.
    """
    if not isinstance(cap, Cap):
        raise TypeError("rho is the cap metric; use collar_rho on collars")
    return _metric(cap, x, y)


def collar_rho(collar, x, y):
    """Collar analogue of the cap metric, built on chordal distance."""
    if not isinstance(collar, Collar):
        raise TypeError("collar_rho needs a Collar")
    return _metric(collar, x, y)


# ---------------------------------------------------------------------------
# ball-volume surrogate and rho-balls


def delta_r_many(domain, coords, r):
    """Closed-form ball-volume surrogate alpha^d (r^{d+1} + r^d sqrt(b/alpha))."""
    return delta_r_at(domain, boundary_distance_many(domain, coords), r)


def delta_r_at(domain, b, r):
    """The surrogate of ``delta_r_many`` at boundary distances ``b``."""
    alpha = domain.alpha
    d = domain.dim
    r = np.asarray(r, dtype=float)
    return alpha**d * (r ** (d + 1) + r**d * np.sqrt(b / alpha))


def delta_r(domain, x, r):
    """Surrogate for the measure of the rho-ball of radius r at x.

    Strictly positive and increasing in r.  On a collar the same formula
    is used with the collar's inner radius and boundary distance.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    xc = x.coords
    _require_inside(domain, xc.reshape(1, -1))
    return float(delta_r_many(domain, xc.reshape(1, -1), r)[0])


@dataclass(frozen=True, slots=True)
class RhoBall:
    """A ball of the boundary-adapted metric inside a cap or collar."""

    domain: Cap | Collar
    center: SpherePoint
    radius: float

    def __post_init__(self):
        if not isinstance(self.domain, (Cap, Collar)):
            raise TypeError("domain must be a Cap or Collar")
        center = _as_point(self.center)
        radius = float(self.radius)
        if not radius > 0:
            raise ValueError("radius must be positive")
        if not bool(contains(self.domain, center.coords.reshape(1, -1))[0]):
            raise GeometryError("ball center outside the domain")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


def rho_ball_contains(ball, y):
    """True iff y lies in the domain and within rho-distance radius of the center."""
    yc = y.coords if isinstance(y, SpherePoint) else np.asarray(y, float)
    row = yc.reshape(1, -1)
    if not bool(contains(ball.domain, row)[0]):
        return False
    dist = float(rho_many(ball.domain, row, ball.center.coords)[0])
    return dist <= ball.radius + 1e-12


def ball_reach(domain, radius):
    """Geodesic distance from a rho-ball's center beyond which no point of
    the ball lies: alpha*radius bounds the distance term of the metric,
    which is geodesic on a cap and chordal on a collar."""
    if isinstance(domain, Cap):
        return min(domain.alpha * radius, math.pi)
    return 2.0 * math.asin(0.5 * min(domain.alpha * radius, 2.0))


def azimuth_half_width(domain, reach, cos_prod, sin_prod, slack=0.0):
    """Half-width of the azimuths |dphi| <= half at which a row of polar
    angle t lies within distance term dist^2 <= reach of a point at polar
    angle s (geodesic on a cap, chord on a collar; polar angles about the
    domain's center).

    By the spherical law of cosines the dot product of the two,
    cos s cos t + sin s sin t cos(dphi) (``cos_prod`` + ``sin_prod`` *
    cos(dphi)), falls with |dphi|, so the row's part is one interval: the
    azimuths where the dot is at least that of distance sqrt(reach)
    raised by ``slack``.  Where sin_prod <= 1e-12 (the row or the point
    on the pole) cos_prod alone decides between the whole row (pi) and
    none of it.  -1 marks no part: reach < 0, or no azimuth reaches the dot.
    """
    if isinstance(domain, Collar):  # chord^2 = 2 - 2 dot
        least_dot = 1.0 - 0.5 * reach + slack
    else:
        least_dot = np.cos(np.sqrt(np.clip(reach, 0.0, math.pi**2))) + slack
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_half = (least_dot - cos_prod) / sin_prod
    cos_half = np.where(sin_prod <= 1e-12, np.where(cos_prod >= least_dot, -1.0, 2.0), cos_half)
    half = np.arccos(np.clip(cos_half, -1.0, 1.0))
    return np.where((cos_half > 1.0) | (reach < 0.0), -1.0, half)


# ---------------------------------------------------------------------------
# the interval metrics (d=1 model of the cap metric)


def _check_interval(alpha, *xs):
    for x in xs:
        if abs(x) > alpha + INSIDE_TOL:
            raise GeometryError(f"argument {x} outside [-alpha, alpha]")


def rho1(alpha, x1, x2):
    """Interval metric with boundary distances min(|x+alpha|, |x-alpha|)."""
    _check_interval(alpha, x1, x2)
    b1 = min(abs(x1 + alpha), abs(x1 - alpha))
    b2 = min(abs(x2 + alpha), abs(x2 - alpha))
    return math.sqrt((x1 - x2) ** 2 + alpha * (math.sqrt(b1) - math.sqrt(b2)) ** 2) / alpha


def rho2(alpha, x1, x2):
    """Interval metric using differences of sqrt(alpha^2 - x^2)."""
    _check_interval(alpha, x1, x2)
    h1 = math.sqrt(max(alpha * alpha - x1 * x1, 0.0))
    h2 = math.sqrt(max(alpha * alpha - x2 * x2, 0.0))
    return math.sqrt((x1 - x2) ** 2 + (h1 - h2) ** 2) / alpha


def _t_of_x(alpha, x):
    # inverse of x = arcsin(sin(alpha) * cos(t)), clamped for boundary safety
    return math.acos(np.clip(math.sin(x) / math.sin(alpha), -1.0, 1.0))


def rho3(alpha, x1, x2):
    """Interval metric |t1 - t2| in the parametrization x = arcsin(sin(alpha) cos t)."""
    _check_interval(alpha, x1, x2)
    return abs(_t_of_x(alpha, x1) - _t_of_x(alpha, x2))


# ---------------------------------------------------------------------------
# auxiliary cap metrics (d >= 2 decompositions)


def _polar_split(cap, x):
    """Write x = e cos(theta) + xi sin(theta) with xi a unit vector normal to e."""
    e = cap.center.coords
    theta = geodesic_distance(cap.center, x)
    s = math.sin(theta)
    if s < 1e-14:  # xi is undefined; every formula taking it ignores it here
        xi = north_frame(cap.center)[:, 0]
    else:
        xi = (x.coords - e * math.cos(theta)) / s
        xi = xi / np.linalg.norm(xi)
    return theta, xi


def rho4(cap, x, y):
    """max of the interval metric on polar angles and the geodesic gap of directions.

    Equivalent to the cap metric on the outer part of the cap (polar angle
    at least a fixed fraction of alpha); degenerates near the center.
    """
    _require_inside(cap, np.vstack([x.coords, y.coords]))
    theta, xi = _polar_split(cap, x)
    t, eta = _polar_split(cap, y)
    dxi = math.acos(float(np.clip(xi @ eta, -1.0, 1.0)))
    return max(rho1(cap.alpha, theta, t), dxi)


def rho5(cap, x, y):
    """Sine-parametrized cap metric, globally equivalent to the cap metric."""
    _require_inside(cap, np.vstack([x.coords, y.coords]))
    alpha = cap.alpha
    theta, xi = _polar_split(cap, x)
    t, eta = _polar_split(cap, y)
    sa = math.sin(alpha)
    u = xi * math.sin(theta) - eta * math.sin(t)
    g1 = math.sqrt(max(sa * sa - math.sin(theta) ** 2, 0.0))
    g2 = math.sqrt(max(sa * sa - math.sin(t) ** 2, 0.0))
    return math.sqrt(float(u @ u) + (g1 - g2) ** 2) / sa


def _interval_metric(lo, hi, u, v):
    # boundary-adapted metric on [lo, hi], scaled by lo (the collar convention)
    bu = min(u - lo, hi - u)
    bv = min(v - lo, hi - v)
    return math.sqrt((u - v) ** 2 + lo * (math.sqrt(max(bu, 0.0)) - math.sqrt(max(bv, 0.0))) ** 2) / lo


def collar_rho6(collar, x, y):
    """max of chordal direction gap and the interval metric on polar angles.

    Comparison partner for the collar metric; the two are equivalent when
    the inner radius stays below pi/2.
    """
    _require_inside(collar, np.vstack([x.coords, y.coords]))
    cap_view = Cap(collar.center, ALPHA_MAX)
    theta, xi = _polar_split(cap_view, x)
    t, eta = _polar_split(cap_view, y)
    theta = min(max(theta, collar.alpha), collar.beta)
    t = min(max(t, collar.alpha), collar.beta)
    return max(float(np.linalg.norm(xi - eta)), _interval_metric(collar.alpha, collar.beta, theta, t))


# ---------------------------------------------------------------------------
# the dilation map and its Jacobian polynomial


def map_T_many(coords, e_coords, limit=math.pi / 8):
    """Vectorized polar dilation theta -> 8*theta about ``e_coords``.

    Only the cap of radius pi/8 maps into a cap, which is what ``limit``
    polices; pass limit=None for the global polynomial extension of the
    same formula (the image then wraps around the sphere).
    """
    e = np.asarray(e_coords, float)
    theta = _arccos(coords @ e)
    if limit is not None and np.any(theta > limit + 1e-12):
        raise GeometryError(f"polar angle exceeds {limit:.6g}")
    s = np.sin(theta)
    safe = s > 1e-14
    eta = np.empty_like(coords)
    eta[safe] = (coords[safe] - np.outer(np.cos(theta[safe]), e)) / s[safe][:, None]
    if np.any(~safe):
        eta[~safe] = north_frame(SpherePoint(e))[:, 0]
    eta /= np.linalg.norm(eta, axis=1, keepdims=True)
    t8 = 8.0 * theta
    out = np.outer(np.cos(t8), e) + eta * np.sin(t8)[:, None]
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out


def map_T(x, e):
    """Dilation about e: scales the polar angle by exactly 8, keeps the direction.

    Defined for points with polar angle at most pi/8.
    """
    out = map_T_many(x.coords.reshape(1, -1), e.coords)
    return SpherePoint(out[0])


def poly_D(d, t):
    """Jacobian factor of the dilation: sin^{d-1}(8 theta) / sin^{d-1}(theta) at t = cos(theta).

    A polynomial of degree 7(d-1); identically 1 for d=1.  For d=2 it is
    the degree-7 Chebyshev polynomial of the second kind, evaluated by
    recurrence, which also supplies the continuous limits at t = +-1.
    """
    if d == 1:
        t_arr = np.asarray(t, dtype=float)
        return 1.0 if t_arr.ndim == 0 else np.ones_like(t_arr)
    if d != 2:
        raise ValueError("d must be 1 or 2")
    t_arr = np.asarray(t, dtype=float)
    u_prev = np.ones_like(t_arr)
    u = 2.0 * t_arr
    for _ in range(6):
        u_prev, u = u, 2.0 * t_arr * u - u_prev
    return float(u) if np.ndim(t) == 0 else u
