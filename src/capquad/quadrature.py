"""Reference integration over caps, collars, and full spheres.

d=2 domains get a product rule: Gauss-Legendre in t = cos(theta) over the
domain's t-interval crossed with a uniform azimuthal grid of M angles,
each carrying weight 2*pi/M.  After azimuthal averaging, every spherical
polynomial restricted to the domain reduces to a polynomial in t, so the
product rule is exact (to rounding) once M exceeds the trigonometric
degree and the polar order covers the t-degree.

d=1 arcs use Gauss-Legendre directly in the angle.  That rule is not
exact in the Gaussian sense for trigonometric integrands, but with the
order picked from the arc length it lands far below the 1e-12 relative
target; full circles use the uniform rule, which is exact.

Gauss-Legendre nodes come from Newton iteration on the Legendre
recurrence, converged to 1e-15 and symmetrized.

A polynomial on a product rule's grid is its order-m parts at the polar
nodes on azimuth 0 (``polys.order_parts``) turned about the pole to each
azimuth (``rule_values``): no basis table of the rule's points is built.
That needs the canonical frame, where the domain is centred at the pole;
the solver and the measurements work there too (``points.canonical``),
so no coefficient is ever mapped between frames.

rho-balls (measures and weighted masses, for the weighted inequalities)
are integrated on their own: on S^2 every row of fixed polar angle meets
a ball in one azimuth interval of closed-form length, leaving a 1-D
Gauss-Legendre sum in the polar angle whose order doubles until stable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Cap,
    Collar,
    Sphere,
    ball_reach,
    boundary_distance_at,
    boundary_distance_many,
    north_frame,
    north_pole,
    polar_angles,
    rho_from_chord,
)
from .polys import as_point_function, fourier_table, order_parts, order_table

DEGREE_CAP = 200


class QuadratureError(RuntimeError):
    """Adaptive integration failed to converge; carries the last two estimates."""

    def __init__(self, message, estimates):
        super().__init__(message)
        self.estimates = tuple(estimates)


def _legendre(x, order):
    """[P_0(x), ..., P_order(x)] by the three-term recurrence."""
    values = [np.ones_like(x), x]
    for k in range(2, order + 1):
        values.append(((2 * k - 1) * x * values[-1] - (k - 1) * values[-2]) / k)
    return values[:order + 1]


@functools.lru_cache(maxsize=1024)
def gauss_legendre(order):
    """Nodes and weights on [-1, 1], by Newton iteration on the recurrence."""
    if order < 1:
        raise ValueError("order must be >= 1")

    def legendre(x):  # P_order(x) and its derivative
        *_, p_prev, p = _legendre(x, order)
        return p, order * (x * p - p_prev) / (x * x - 1.0)

    i = np.arange(order)
    x = np.cos(math.pi * (4 * i + 3) / (4 * order + 2))
    for _ in range(100):
        p, dp = legendre(x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # one clean evaluation at the converged nodes for the weights
    dp = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce the +-x symmetry exactly
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    order_idx = np.argsort(x)
    x, w = x[order_idx], w[order_idx]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_on(a, b, order):
    x, w = gauss_legendre(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@dataclass(frozen=True, slots=True, eq=False)
class ProductRule:
    """Immutable positive rule with materialized points and weights."""

    domain: Cap | Collar | Sphere
    polar_nodes: np.ndarray
    polar_weights: np.ndarray
    azimuth_count: int
    points: np.ndarray
    weights: np.ndarray
    target_degree: int

    def __post_init__(self):
        for arr in (self.polar_nodes, self.polar_weights, self.points, self.weights):
            arr.setflags(write=False)

    def __repr__(self):
        return (f"ProductRule(domain={self.domain!r}, npoints={self.points.shape[0]}, "
                f"target_degree={self.target_degree})")


def _d1_polar_order(target, half_width):
    # generous: geometric decay of Gauss error on analytic integrands gives
    # ~ (k * a * e / (4m))^(2m); this choice keeps it far below 1e-13
    return max(target + 2, int(math.ceil(0.75 * target * half_width)) + 26)


@functools.lru_cache(maxsize=512)
def build_rule(domain, target_degree):
    """A rule integrating every member of the polynomial space of the given
    degree, restricted to the domain, to ~1e-12 relative error."""
    target_degree = int(target_degree)
    if target_degree > DEGREE_CAP:
        raise ValueError(f"target degree {target_degree} exceeds cap {DEGREE_CAP}")
    if target_degree < 0:
        raise ValueError("target degree must be >= 0")
    if domain.dim == 2:
        azimuth = max(2 * target_degree + 1, 4)
        lo, hi = domain.polar_range
        t, wt = gauss_legendre_on(math.cos(hi), math.cos(lo), target_degree + 2)
        phi = np.arange(azimuth) * (2.0 * math.pi / azimuth)
        s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        local = np.empty((azimuth * t.size, 3))  # azimuth-major, as ``rule_values``
        local[:, 0] = np.outer(np.cos(phi), s).ravel()
        local[:, 1] = np.outer(np.sin(phi), s).ravel()
        local[:, 2] = np.tile(t, azimuth)
        points = local @ north_frame(domain.center)  # frame is symmetric
        weights = np.tile(wt * (2.0 * math.pi / azimuth), azimuth)
        return ProductRule(domain, t, wt, azimuth, points, weights, target_degree)
    if isinstance(domain, Sphere):  # periodic: the uniform rule is exact
        m = max(2 * target_degree + 2, 8)
        u = np.arange(m) * (2.0 * math.pi / m) - math.pi
        w = np.full(m, 2.0 * math.pi / m)
        points = np.column_stack([np.sin(u), np.cos(u)])
        return ProductRule(domain, u, w, 0, points, w.copy(), target_degree)
    arc_lo, arc_hi = domain.arcs[0]
    order = _d1_polar_order(target_degree, 0.5 * (arc_hi - arc_lo))
    parts = [gauss_legendre_on(lo, hi, order) for lo, hi in domain.arcs]
    u, w = (np.concatenate(column) for column in zip(*parts))
    points = np.column_stack([np.sin(u), np.cos(u)]) @ north_frame(domain.center)
    return ProductRule(domain, u, w, 0, points, w.copy(), target_degree)


def integrate(rule, f):
    """Sum of weights times values; f maps an (N, d+1) array to (N,) values."""
    vals = as_point_function(f)(rule.points)
    return float(rule.weights @ vals)


# ---------------------------------------------------------------------------
# polynomials on a product rule's grid


def rule_values(space, rule, coeffs):
    """f = sum_k c_k Y_k at every point of a product rule, one column per
    column of the (space.size, columns) ``coeffs``, from the rule's own factors.

    Rows follow ``rule.points``.  At d=2 the points at azimuth phi are the
    points at azimuth 0 turned by phi about the pole, so f there is the
    Fourier table at phi times the ``polys.order_parts`` of f at azimuth 0
    (sum factorization); at d=1 f is the Fourier table at the rule's angles
    times the coefficients.  The domain must be centred at the pole.
    """
    table, fourier = _grid_factors(rule, space.degree)
    if table is None:
        return fourier @ coeffs
    parts = order_parts(table, coeffs)  # (2n + 1, polar nodes, columns)
    return (fourier @ parts.reshape(parts.shape[0], -1)).reshape(-1, parts.shape[2])


@functools.lru_cache(maxsize=8)  # one measurement's ladder of orders
def _grid_factors(rule, degree):
    """(table, fourier) of a rule of a domain centred at the pole (ValueError
    otherwise): at d=2 the ``polys.order_table`` at its first points, on azimuth
    0, and the Fourier table at the azimuths; at d=1 (None, the Fourier table)."""
    if rule.domain.center != north_pole(rule.domain.dim):
        raise ValueError("rule_values needs a rule of a domain centred at the pole")
    table, angles = None, rule.polar_nodes
    if rule.azimuth_count:
        table = order_table(degree, rule.points[:angles.size])
        table.setflags(write=False)  # cached: shared by every caller
        angles = np.arange(rule.azimuth_count) * (2.0 * math.pi / rule.azimuth_count)
    fourier = fourier_table(degree, angles)
    fourier.setflags(write=False)
    return table, fourier


ADAPTIVE_ORDERS = (8, 16, 32, 64, 128, DEGREE_CAP)


def double_until_stable(estimate, orders, tol, count=1):
    """Evaluate ``estimate(order, cols)`` along ``orders`` until, column by
    column, two successive values agree to ``tol`` relative.

    ``estimate`` returns values whose last axis runs over the column
    indices in ``cols`` (a scalar serves a single column); a column stops
    once every entry along the leading axes agrees.  Each order sees only
    the columns still apart.  Returns (converged, previous, last):
    ``converged`` is over the ``count`` columns, ``previous`` and ``last``
    keep the leading axes, and ``previous`` is the estimate one order
    before ``last``.  When ``orders`` runs out the caller decides whether
    the final estimates are good enough.
    """
    converged = np.zeros(count, bool)
    prev = last = None
    active = np.arange(count)
    for order in orders:
        values = np.asarray(estimate(order, active), float)
        if last is None:
            last = np.full(values.shape[:-1] + (count,), np.nan)
            prev = last.copy()
        prev[..., active] = last[..., active]
        last[..., active] = values
        a, b = prev[..., active], last[..., active]
        done = np.all(np.abs(b - a) <= tol * (np.abs(b) + 1e-14), axis=tuple(range(b.ndim - 1)))
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    return converged, prev, last


def integrate_adaptive(domain, f, tol=1e-10, on_fail="raise"):
    """Double the rule order until successive estimates agree to tol (relative).

    Raises QuadratureError with the two last estimates when the order cap
    is reached without convergence; pass on_fail="last" to accept the
    final estimate instead (statistics that only need constant-factor
    accuracy use that mode).
    """
    if tol < 1e-10:
        raise ValueError("tol must be >= 1e-10")
    fv = as_point_function(f)
    converged, prev, last = double_until_stable(
        lambda order, _: integrate(build_rule(domain, order), fv), ADAPTIVE_ORDERS, tol)
    estimates = float(prev[0]), float(last[0])
    if converged[0] or on_fail == "last":
        return estimates[1]
    raise QuadratureError(
        f"no convergence by order {DEGREE_CAP}: last estimates {estimates}", estimates)


# ---------------------------------------------------------------------------
# analytic moments of the orthonormal basis


def _legendre_antiderivative(c, lmax):
    """I_l = integral of P_l over [c, 1] for l = 0..lmax.

    I_0 = 1 - c and I_l = (P_{l-1}(c) - P_{l+1}(c)) / (2l + 1) for l >= 1.
    """
    p = _legendre(c, lmax + 1)
    out = np.empty(lmax + 1)
    out[0] = 1.0 - c
    for l in range(1, lmax + 1):
        out[l] = (p[l - 1] - p[l + 1]) / (2 * l + 1)
    return out


def domain_moments(domain, n):
    """Moments of the orthonormal basis over a cap, collar, or sphere.

    The domain is taken in its canonical north-pole position, which is how
    the cubature solver consumes it; there every entry with azimuthal
    dependence vanishes identically and the rest follow from the closed
    Legendre antiderivative (d=2) or elementary sine integrals (d=1).
    """
    n = int(n)
    lo, hi = domain.polar_range
    if domain.dim == 2:
        out = np.zeros((n + 1) ** 2)
        ints = (_legendre_antiderivative(math.cos(hi), n)
                - _legendre_antiderivative(math.cos(lo), n))
        for l in range(n + 1):
            out[l * l + l] = 2.0 * math.pi * math.sqrt((2 * l + 1) / (4.0 * math.pi)) * ints[l]
        return out
    # d == 1: [const, cos k, sin k, ...] against arc length, over the arcs
    # u in +-[lo, hi]; the sine moments cancel between the two signs
    out = np.zeros(2 * n + 1)
    out[0] = 2.0 * (hi - lo) / math.sqrt(2.0 * math.pi)
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for k in range(1, n + 1):
        out[2 * k - 1] = 2.0 * (math.sin(k * hi) - math.sin(k * lo)) / k * inv_sqrt_pi
    return out


# ---------------------------------------------------------------------------
# localized rho-ball quadrature


def _ball_boxes(domain, theta_c, sqrt_b_c, radius):
    """Polar-angle interval [lo, hi] containing each d=2 ball.

    The metric forces both a distance bound and a boundary-distance band:
    sqrt(b) can move by at most sqrt(alpha)*radius, which pins the polar
    angle into an annulus.  Integrating over that interval instead of a
    bounding cap keeps the ball a constant fraction of the integration
    region even hard against the boundary, where balls flatten into
    slivers.  On a cap the interval is then cut to the ball's own polar
    extent (``_cap_polar_edge``).
    """
    alpha = domain.alpha
    shift = math.sqrt(alpha) * radius
    b_lo = np.maximum(sqrt_b_c - shift, 0.0) ** 2
    b_hi = (sqrt_b_c + shift) ** 2
    dmax = ball_reach(domain, radius)
    if isinstance(domain, Cap):
        lo = np.maximum.reduce([np.zeros_like(theta_c), theta_c - dmax, alpha - b_hi])
        hi = np.minimum(np.minimum(np.full_like(theta_c, alpha), theta_c + dmax),
                        alpha - b_lo)
        lo, hi = (_cap_polar_edge(alpha, theta_c, sqrt_b_c, radius, end) for end in (lo, hi))
    else:
        lo = np.maximum(np.maximum(np.full_like(theta_c, domain.alpha),
                                   theta_c - dmax), domain.alpha + b_lo)
        hi = np.minimum(np.minimum(np.full_like(theta_c, domain.beta),
                                   theta_c + dmax), domain.beta - b_lo)
    return np.minimum(lo, theta_c), np.maximum(hi, theta_c)


def _cap_polar_edge(alpha, theta_c, sqrt_b_c, radius, end):
    """The polar angle between ``theta_c`` and ``end`` where the rows of a
    cap stop meeting the ball (``end`` itself when they meet it all the way).

    A row of polar angle theta meets the ball iff its point nearest the
    center, at geodesic distance |theta - theta_c|, lies in it.  On a cap
    both terms of that point's squared metric, (theta - theta_c)^2 and
    alpha * (sqrt(b) - sqrt(b_c))^2, grow with |theta - theta_c|, so the
    meeting rows form one interval around theta_c and bisection finds its
    end.  Ending the Gauss-Legendre interval there keeps the step of the
    azimuth half-width (pi to 0 on a ball around the pole of the frame)
    out of the interval.
    """
    reach = (alpha * (radius + 1e-12)) ** 2

    def meets(theta):
        return ((theta - theta_c) ** 2
                + alpha * (np.sqrt(np.maximum(alpha - theta, 0.0)) - sqrt_b_c) ** 2 <= reach)

    inside, outside = theta_c.copy(), end.copy()
    for _ in range(60):  # bisection steps
        mid = 0.5 * (inside + outside)
        ok = meets(mid)
        inside = np.where(ok, mid, inside)
        outside = np.where(ok, outside, mid)
    return np.where(meets(end), end, outside)


def _eval_balls_d2(domain, theta_c, sqrt_b_c, radius, lo, hi, order, weight_fn):
    """One quadrature order for d=2 balls: Gauss-Legendre in the polar
    angle over [lo, hi], the azimuth integrated exactly.

    On the row of polar angle theta (canonical frame) the boundary
    distance b is fixed, so the ball condition reads dist2 <= reach with
    reach = (alpha*radius)^2 - alpha*(sqrt(b) - sqrt(b_c))^2, and dist2
    (squared geodesic distance on caps, squared chord on collars) grows
    with the azimuth gap |dphi|.  The row's part of the ball is the
    interval |dphi| <= half, from the spherical law of cosines; where the
    row or the center sits on the pole of the frame, half is pi or 0.
    """
    alpha = domain.alpha
    xi, wxi = gauss_legendre_on(0.0, 1.0, order)
    span = (hi - lo)[:, None]
    theta = lo[:, None] + span * xi[None, :]
    b = boundary_distance_at(domain, theta)
    reach = (alpha * (radius + 1e-12)) ** 2 - alpha * (np.sqrt(b) - sqrt_b_c[:, None]) ** 2
    if isinstance(domain, Collar):
        cos_reach = 1.0 - 0.5 * reach
    else:
        cos_reach = np.cos(np.sqrt(np.clip(reach, 0.0, math.pi**2)))
    cos_prod = np.cos(theta_c)[:, None] * np.cos(theta)
    sin_prod = np.sin(theta_c)[:, None] * np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arccos(np.clip((cos_reach - cos_prod) / sin_prod, -1.0, 1.0))
    half = np.where(sin_prod <= 1e-12, np.where(cos_prod >= cos_reach, math.pi, 0.0), half)
    half[reach < 0.0] = 0.0
    row_w = (span * wxi) * np.sin(theta) * (2.0 * half)
    vols = row_w.sum(axis=1)
    if weight_fn is None:
        return vols, vols
    wv = np.asarray(weight_fn(b.ravel()), float).reshape(b.shape)
    return vols, (row_w * wv).sum(axis=1)


def _eval_balls_d1(domain, u_c, sqrt_b_c, radius, order, weight_fn):
    """One quadrature order for d=1 balls: union of arc segments."""
    dmax = ball_reach(domain, radius)
    xi, wxi = gauss_legendre_on(0.0, 1.0, order)
    k = u_c.shape[0]
    vols = np.zeros(k)
    masses = np.zeros(k)
    for seg_lo, seg_hi in domain.arcs:
        lo = np.maximum(seg_lo, u_c - dmax)
        hi = np.minimum(seg_hi, u_c + dmax)
        ok = lo < hi
        if not np.any(ok):
            continue
        span = (hi - lo)[:, None]
        u = lo[:, None] + span * xi[None, :]
        w = span * wxi[None, :]
        chord = 2.0 * np.abs(np.sin(0.5 * (u - u_c[:, None])))
        b = boundary_distance_at(domain, np.abs(u))
        rho_val = rho_from_chord(domain, chord, np.sqrt(b), sqrt_b_c[:, None])
        mask = (rho_val <= radius + 1e-12) & ok[:, None]
        vols += np.einsum("ki,ki->k", mask.astype(float), w)
        if weight_fn is not None:
            wv = np.asarray(weight_fn(b.ravel()), float).reshape(b.shape)
            masses += np.einsum("ki,ki->k", mask * wv, w)
    if weight_fn is None:
        masses = vols.copy()
    return vols, masses


_BALL_ORDERS = (32, 64, 128, 256, 512, 1024)
_BALL_RTOL = 0.01
_BALL_POINT_BUDGET = 4_000_000  # quadrature points per block of balls


def balls_integral(domain, centers, radius, weight_fn=None):
    """(volumes, masses, unconverged) of the rho-balls at many centers.

    ``weight_fn`` maps a 1-D array of boundary distances b to weights;
    without it the masses are the volumes.  d=2 balls are integrated
    exactly in the azimuth and by Gauss-Legendre in the polar angle
    (``_eval_balls_d2``), d=1 balls by indicator quadrature over their
    arc segments.  The order doubles per ball along 32, 64, ..., 1024
    (``double_until_stable``) until volume and mass both agree to 1%
    relative with the previous order; ``unconverged`` counts the balls
    still apart at order 1024, which keep their last estimates.  Balls
    are evaluated in blocks of ``_BALL_POINT_BUDGET // order``, which
    bounds the memory of an order's quadrature points.  A d=2 ball is a
    function of its centre's polar angle: one evaluation per angle.
    """
    centers = np.atleast_2d(np.asarray(centers, float))
    if domain.dim == 2:
        theta_c, ball = np.unique(polar_angles(domain, centers), return_inverse=True)
        sqrt_b_c = np.sqrt(boundary_distance_at(domain, theta_c))
        lo, hi = _ball_boxes(domain, theta_c, sqrt_b_c, radius)

        def level(sel, order):
            return _eval_balls_d2(domain, theta_c[sel], sqrt_b_c[sel], radius,
                                  lo[sel], hi[sel], order, weight_fn)
    else:
        ball = np.arange(centers.shape[0])
        sqrt_b_c = np.sqrt(boundary_distance_many(domain, centers))
        canon = centers @ north_frame(domain.center)
        u_c = np.arctan2(canon[:, 0], canon[:, 1])

        def level(sel, order):
            return _eval_balls_d1(domain, u_c[sel], sqrt_b_c[sel], radius, order, weight_fn)

    def estimate(order, cols):
        block = max(1, _BALL_POINT_BUDGET // order)
        return np.concatenate([np.stack(level(cols[i:i + block], order))
                               for i in range(0, cols.size, block)], axis=1)

    converged, _, (vols, masses) = double_until_stable(estimate, _BALL_ORDERS, _BALL_RTOL,
                                                       sqrt_b_c.size)
    return vols[ball], masses[ball], int(np.count_nonzero(~converged[ball]))


def rho_ball_volume(ball):
    """Quadrature measure of a rho-ball (see balls_integral).

    The rule order doubles from 32 until two successive estimates agree
    to 1%; the ball's edge defeats fixed-order rules, and the volume
    claims this feeds only need constant-factor accuracy.
    """
    vols, _, _ = balls_integral(ball.domain, ball.center.coords.reshape(1, -1), ball.radius)
    return float(vols[0])
