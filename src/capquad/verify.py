"""Empirical constants for the sampling inequalities on caps and collars.

Every operation here measures a ratio bracket: draw random polynomials
from the rotation-invariant Gaussian ensemble, evaluate both sides of an
inequality, and record min/max/mean of the ratio over trials.  Nothing
is proved; brackets and their stability across parameters are the
product.

Ball maxima are approximated by deterministic low-discrepancy samples
plus the ball center.  Under-sampling can only shrink a maximum, so
measured constants are lower bounds, and reports say so via the
``ball_samples`` entry they carry.

Trials are independent given per-trial generators derived from the
master seed, so a thread pool can run them in any order without changing
a single reported digit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geometry import (
    Cap,
    RhoBall,
    SpherePoint,
    boundary_distance_many,
    contains,
    delta_r_many,
    map_T_many,
    north_frame,
    poly_D,
    rho_rows,
)
from .points import product_grid, tau_statistic
from .polys import PolySpace, eval_basis_many
from .quadrature import (
    QuadratureError,
    ball_integral,
    balls_average,
    balls_integral,
    build_rule,
    double_until_stable,
    gauss_legendre_on,
)

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
DEGENERATE_FLOOR = 1e-14
MAX_REDRAWS = 100


# ---------------------------------------------------------------------------
# weights


class DoublingWeight:
    """Weight family for the weighted inequalities: constants and smoothed
    boundary powers (b_x + 1/n_ref)^gamma.

    The 1/n_ref offset keeps boundary powers strictly positive on the
    closed domain.  Both kinds depend on the boundary distance b only:
    ``eval_b`` is the formula, and the callable that the rho-ball
    quadrature takes.  ``eval_on`` evaluates on points of a cap or
    collar; ``eval_interval`` is the d=1 interval version with
    b_t = alpha - |t|.
    """

    __slots__ = ("kind", "gamma", "n_ref", "value")

    def __init__(self, kind, gamma=0.0, n_ref=8, value=1.0):
        if kind not in ("constant", "boundary_power"):
            raise ValueError("kind must be 'constant' or 'boundary_power'")
        if kind == "boundary_power":
            if gamma < 0 or gamma > 2:
                raise ValueError("gamma must lie in [0, 2]")
            if n_ref <= 0:
                raise ValueError("n_ref must be positive")
        if value <= 0:
            raise ValueError("constant weights must be positive")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gamma", float(gamma))
        object.__setattr__(self, "n_ref", int(n_ref))
        object.__setattr__(self, "value", float(value))

    @classmethod
    def constant(cls, value=1.0):
        return cls("constant", value=value)

    @classmethod
    def boundary_power(cls, gamma, n_ref=8):
        return cls("boundary_power", gamma=gamma, n_ref=n_ref)

    def __setattr__(self, name, value):
        raise AttributeError("DoublingWeight is immutable")

    def eval_b(self, b):
        b = np.asarray(b, dtype=float)
        if self.kind == "constant":
            return np.full(b.shape, self.value)
        return (b + 1.0 / self.n_ref) ** self.gamma

    def eval_on(self, domain, coords):
        return self.eval_b(boundary_distance_many(domain, np.atleast_2d(coords)))

    def eval_interval(self, alpha, t):
        return self.eval_b(np.maximum(alpha - np.abs(np.asarray(t, dtype=float)), 0.0))

    def label(self):
        if self.kind == "constant":
            return f"constant({self.value:g})"
        return f"boundary_power(gamma={self.gamma:g}, n_ref={self.n_ref})"

    def __repr__(self):
        return f"DoublingWeight.{self.label()}"


class VerificationReport:
    """Per-inequality ratio statistics over a parameter grid."""

    __slots__ = ("inequality", "grid", "cells", "seed", "wall_time_s")

    def __init__(self, inequality, grid, cells, seed, wall_time_s=0.0):
        self.inequality = str(inequality)
        self.grid = dict(grid)
        self.cells = [dict(c) for c in cells]
        self.seed = int(seed)
        self.wall_time_s = float(wall_time_s)

    def to_dict(self):
        return {
            "version": "capquad-report/1",
            "inequality": self.inequality,
            "grid": self.grid,
            "cells": self.cells,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data):
        if data.get("version") != "capquad-report/1":
            raise ValueError("not a capquad-report/1 file")
        return cls(data["inequality"], data["grid"], data["cells"],
                   data["seed"], data.get("wall_time_s", 0.0))

    def csv_rows(self):
        keys = sorted({k for c in self.cells for k in c})
        yield keys
        for c in self.cells:
            yield [c.get(k, "") for k in keys]


# ---------------------------------------------------------------------------
# trial plumbing


def trial_rng(seed, index):
    """Deterministic per-trial generator; independent of execution order."""
    return np.random.default_rng((int(seed), int(index)))


def run_trials(trials, trial, size, seed, threads=1):
    """trial(c) for one standard-normal draw c of length ``size`` per trial.

    Trial k draws from ``trial_rng(seed, k)``.  A trial returning None
    marks a degenerate draw, which is redrawn from the same stream (at
    most MAX_REDRAWS times).  Values come back in trial order.
    """
    def worker(k):
        rng = trial_rng(seed, k)
        for _ in range(MAX_REDRAWS):
            value = trial(rng.standard_normal(size))
            if value is not None:
                return value
        raise RuntimeError("persistent degenerate draws")

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            return list(pool.map(worker, range(trials)))
    return [worker(k) for k in range(trials)]


def _bracket(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.min()), float(arr.max())


# ---------------------------------------------------------------------------
# cached basis evaluation at quadrature points


class _BasisCache:
    def __init__(self):
        self._store = {}

    def at_rule(self, space, rule):
        key = (space.dim_sphere, space.degree, rule.domain, rule.target_degree)
        if key not in self._store:
            self._store[key] = eval_basis_many(space, rule.points)
        return self._store[key]


def _abs_power_integral(domain, space, coeffs, p, cache, tol=1e-8):
    """Adaptive integral of |f|^p over the domain, with cached basis tables.

    Even p makes the integrand a polynomial and the doubling loop stops as
    soon as two exact orders agree; odd p integrands have kinks along the
    zero set of f, converge algebraically, and are accepted at the last
    order when the cap is hit (the brackets this feeds only need a few
    digits).
    """
    def estimate(order):
        rule = build_rule(domain, order)
        vals = np.abs(cache.at_rule(space, rule) @ coeffs) ** p
        return float(rule.weights @ vals)

    _, last = double_until_stable(estimate, (8, 16, 32, 64, 128, 200), tol)
    return last[-1]


# ---------------------------------------------------------------------------
# ball sampling


class _NodeBallTable:
    """Deterministic low-discrepancy samples of the rho-ball at every node.

    A golden-angle spiral (d=2) or evenly spaced angles (d=1) fill the
    bounding geodesic region; points falling outside the ball or the
    domain are dropped, and the node itself always leads its block, so a
    sample never over-reaches the ball.  The region depends only on the
    radius, so one spiral serves every node, turned by the node's frame,
    and all nodes are filtered in one pass.  Blocks are concatenated in
    node order; ``offsets`` marks where each starts.
    """

    def __init__(self, nodes, radius, count):
        domain, centers = nodes.domain, nodes.coords
        k = centers.shape[0]
        alpha = domain.alpha
        if isinstance(domain, Cap):
            bound = min(alpha * radius, math.pi)
        else:
            chord = min(alpha * radius, 2.0)
            bound = min(2.0 * math.asin(0.5 * chord), math.pi)
        j = np.arange(count)
        if domain.dim == 2:
            t = 1.0 - (1.0 - math.cos(bound)) * (j + 0.5) / count
            phi = 2.0 * math.pi * np.mod(j / _GOLDEN, 1.0)
            s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
            local = np.column_stack([s * np.cos(phi), s * np.sin(phi), t])
            frames = np.array([north_frame(SpherePoint(c)) for c in centers])
            pts = np.matmul(local, frames)
        else:
            offs = bound * (2.0 * (j + 0.5) / count - 1.0)
            base = np.array([math.atan2(c[0], c[1]) for c in centers])
            u = base[:, None] + offs
            pts = np.stack([np.sin(u), np.cos(u)], axis=-1)
        flat = pts.reshape(k * count, -1)
        sqrt_b_c = np.sqrt(boundary_distance_many(domain, centers))
        dist = rho_rows(domain, flat, np.repeat(centers, count, axis=0),
                        np.sqrt(boundary_distance_many(domain, flat)),
                        np.repeat(sqrt_b_c, count))
        inside = contains(domain, flat) & (dist <= radius + 1e-12)
        keep = np.column_stack([np.ones(k, bool), inside.reshape(k, count)])
        self.samples = np.concatenate([centers[:, None, :], pts], axis=1)[keep]
        self.offsets = np.r_[0, np.cumsum(keep.sum(axis=1))[:-1]]

    def group_max_min(self, values):
        gmax = np.maximum.reduceat(values, self.offsets)
        gmin = np.minimum.reduceat(values, self.offsets)
        return gmax, gmin

    def basis_table(self, space):
        return eval_basis_many(space, self.samples)


# ---------------------------------------------------------------------------
# the inequality measurements


def mz_bracket(rule, p, trials, seed, trial_degree=None, threads=1):
    """(min, max) over trials of the discrete-sum to integral ratio.

    Draws f from the Gaussian ensemble at the rule's degree (or
    ``trial_degree``), compares the weighted node sum of |f|^p with the
    adaptive integral.  Degenerate draws with integral below 1e-14 are
    redrawn from the same per-trial stream.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    nodes = rule.nodes
    domain = nodes.domain
    degree = rule.degree if trial_degree is None else int(trial_degree)
    space = PolySpace(domain.dim, degree)
    basis_nodes = eval_basis_many(space, nodes.coords)
    cache = _BasisCache()
    weights = rule.weights

    def trial(c):
        integral = _abs_power_integral(domain, space, c, p, cache)
        if not integral >= DEGENERATE_FLOOR:
            return None
        disc = float(weights @ np.abs(basis_nodes @ c) ** p)
        return disc / integral

    ratios = run_trials(trials, trial, space.size, seed, threads)
    return _bracket(ratios)


def osc_constant(nodes, degree, p, beta=1.0, trials=200, ball_samples=64,
                 seed=0, threads=1, trial_degree=None, diagnostics=None):
    """Estimated oscillation constant: max over trials of (LHS/RHS)^{1/p} / delta.

    LHS sums, over nodes, the p-th power of the oscillation of f on the
    beta-dilated ball times the quadrature measure of the undilated ball;
    RHS is the integral of |f|^p.  ``trial_degree`` restricts the draw to
    a lower-degree subspace (degree 0 exercises the zero-oscillation case).
    A ``diagnostics`` dict, when given, receives
    ``ball_quadrature_unconverged``: the number of ball measures that
    stopped at the quadrature's order cap (see balls_integral).
    """
    domain = nodes.domain
    eps = nodes.epsilon
    delta = nodes.delta
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    table = _NodeBallTable(nodes, beta * eps, ball_samples)
    basis_samples = table.basis_table(space)
    volumes, _, unconverged = balls_integral(domain, nodes.coords, eps)
    if diagnostics is not None:
        diagnostics["ball_quadrature_unconverged"] = unconverged
    cache = _BasisCache()

    def trial(c):
        integral = _abs_power_integral(domain, space, c, p, cache)
        if not integral >= DEGENERATE_FLOOR:
            return None
        vals = basis_samples @ c
        gmax, gmin = table.group_max_min(vals)
        lhs = float(((gmax - gmin) ** p) @ volumes)
        return (lhs / integral) ** (1.0 / p) / delta

    return float(max(run_trials(trials, trial, space.size, seed, threads)))


def large_sieve_constant(nodes, degree, p, trials=200, seed=0, threads=1,
                         probes=20000, trial_degree=None):
    """Max over trials of LHS / (tau * RHS) for the one-sided sieve bound.

    LHS weighs node values of |f|^p by the ball-volume surrogate at
    radius 1/n; tau is the peak node count of a 1/n ball.  No separation
    is assumed of the node set.  ``trial_degree`` restricts the draw (the
    surrogate radius stays 1/degree).
    """
    domain = nodes.domain
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    basis_nodes = eval_basis_many(space, nodes.coords)
    surrogate = delta_r_many(domain, nodes.coords, 1.0 / degree)
    tau = tau_statistic(domain, nodes, degree, probes=probes)
    cache = _BasisCache()

    def trial(c):
        integral = _abs_power_integral(domain, space, c, p, cache)
        if not integral >= DEGENERATE_FLOOR:
            return None
        lhs = float(surrogate @ np.abs(basis_nodes @ c) ** p)
        return lhs / (tau * integral)

    return float(max(run_trials(trials, trial, space.size, seed, threads)))


def maxmin_equivalence(nodes, degree, p, beta=1.0, trials=200, ball_samples=64,
                       seed=0, threads=1, trial_degree=None, return_trials=False):
    """Ratio brackets of the ball-max and ball-min sums against the integral.

    Returns ((max_lo, max_hi), (min_lo, min_hi)); per trial the max-sum
    ratio dominates the min-sum ratio by construction.  With
    ``return_trials`` the per-trial (max_ratio, min_ratio) pairs come
    back as a third element for ordering checks.
    """
    domain = nodes.domain
    eps = nodes.epsilon
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    table = _NodeBallTable(nodes, beta * eps, ball_samples)
    basis_samples = table.basis_table(space)
    surrogate = delta_r_many(domain, nodes.coords, eps)
    cache = _BasisCache()

    def trial(c):
        integral = _abs_power_integral(domain, space, c, p, cache)
        if not integral >= DEGENERATE_FLOOR:
            return None
        avals = np.abs(basis_samples @ c)
        gmax, gmin = table.group_max_min(avals)
        rmax = float((gmax**p) @ surrogate) / integral
        rmin = float((gmin**p) @ surrogate) / integral
        return rmax, rmin

    pairs = run_trials(trials, trial, space.size, seed, threads)
    rmaxs = [a for a, _ in pairs]
    rmins = [b for _, b in pairs]
    brackets = (min(rmaxs), max(rmaxs)), (min(rmins), max(rmins))
    if return_trials:
        return brackets[0], brackets[1], pairs
    return brackets


# ---------------------------------------------------------------------------
# d=1 derivative inequality


def _interval_quad_points(alpha, order):
    """Panel nodes for integrals over [-alpha, alpha] of weighted trig data.

    The substitution t = alpha*sin(psi) absorbs the sqrt(alpha^2 - t^2)
    endpoint factor, and splitting at zero isolates the |t| kink of the
    boundary-power weights; each panel then sees an analytic integrand.
    """
    panels = [(-math.pi / 2.0, 0.0), (0.0, math.pi / 2.0)]
    ts, ws = [], []
    for lo, hi in panels:
        psi, w = gauss_legendre_on(lo, hi, order)
        ts.append(alpha * np.sin(psi))
        ws.append(w * alpha * np.cos(psi))
    return np.concatenate(ts), np.concatenate(ws)


def _interval_adaptive(alpha, integrand, tol=1e-7):
    def estimate(order):
        t, w = _interval_quad_points(alpha, order)
        return float(w @ integrand(t))

    _, last = double_until_stable(estimate, (16, 32, 64, 128, 256), tol)
    return last[-1]


def _trig_derivative(coeffs):
    """Coefficient map of d/dt in the [const, cos k, sin k, ...] basis."""
    out = np.zeros_like(coeffs)
    n = (len(coeffs) - 1) // 2
    for k in range(1, n + 1):
        a_k = coeffs[2 * k - 1]
        b_k = coeffs[2 * k]
        out[2 * k - 1] = k * b_k
        out[2 * k] = -k * a_k
    return out


def _trig_eval(coeffs, t):
    n = (len(coeffs) - 1) // 2
    vals = np.full(t.shape, coeffs[0] / math.sqrt(2.0 * math.pi))
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for k in range(1, n + 1):
        vals += (coeffs[2 * k - 1] * np.cos(k * t) + coeffs[2 * k] * np.sin(k * t)) * inv_sqrt_pi
    return vals


def bernstein_check_d1(alpha, degree, p, weight, trials=200, seed=0, threads=1,
                       statistic="max"):
    """Trial statistic of LHS / (n^p RHS) for the weighted derivative bound.

    LHS integrates |T'|^p W(t) (alpha/n + sqrt(alpha^2 - t^2))^p over the
    interval; RHS integrates |T|^p W.  Only d=1 makes sense here.

    ``statistic`` picks the reduction over trials: "max" reports the worst
    draw and lower-bounds the sharp constant, but the tail of the ratio
    distribution widens at small degrees, so the max of a fixed trial
    count drifts with n.  "mean" is the self-averaging variant used where
    stability across degrees is the claim under test.
    """
    if alpha > 0.5 + 1e-12:
        raise ValueError("the derivative bound is measured for alpha <= 1/2")
    if statistic not in ("max", "mean"):
        raise ValueError("statistic must be 'max' or 'mean'")
    n = int(degree)
    space = PolySpace(1, n)

    def trial(c):
        rhs = _interval_adaptive(alpha, lambda t:
                                 np.abs(_trig_eval(c, t)) ** p * weight.eval_interval(alpha, t))
        if not rhs >= DEGENERATE_FLOOR:
            return None
        dc = _trig_derivative(c)
        lhs = _interval_adaptive(alpha, lambda t:
                                 np.abs(_trig_eval(dc, t)) ** p
                                 * weight.eval_interval(alpha, t)
                                 * (alpha / n + np.sqrt(np.clip(alpha**2 - t**2, 0.0, None))) ** p)
        return lhs / (n**p * rhs)

    ratios = run_trials(trials, trial, space.size, seed, threads)
    return float(max(ratios)) if statistic == "max" else float(np.mean(ratios))


# ---------------------------------------------------------------------------
# doubling-weight machinery


def compute_Wn(cap, weight, n, x):
    """Ball average of the weight over the 1/n ball at x.

    Computed as the ratio of weighted to unweighted mass over identical
    quadrature nodes, so a constant weight averages to exactly itself.
    """
    coords = x.coords if isinstance(x, SpherePoint) else np.asarray(x, float)
    ball = RhoBall(cap, SpherePoint(coords), 1.0 / n)
    vol, mass = ball_integral(ball, weight.eval_b)
    if vol <= 0:
        raise QuadratureError("degenerate ball in compute_Wn", (vol, mass))
    return mass / vol


def estimate_doubling(cap, weight, radii_levels=4, probes=25):
    """Empirical doubling constant: peak mass ratio of doubled balls.

    Probes a small grid of centers and dyadic radii 2^{-k}; finite for
    the configured weight family.
    """
    if radii_levels < 3:
        raise ValueError("radii_levels must be >= 3")
    grid = product_grid(cap, 1.0, 1)
    if grid.shape[0] > probes:
        idx = np.unique(np.linspace(0, grid.shape[0] - 1, probes).astype(int))
        grid = grid[idx]
    level_masses = [
        balls_integral(cap, grid, 2.0 ** (-k), weight.eval_b)[1]
        for k in range(radii_levels + 1)
    ]
    worst = 0.0
    for k in range(1, radii_levels + 1):
        ok = level_masses[k] > 0
        if np.any(ok):
            worst = max(worst, float((level_masses[k - 1][ok] / level_masses[k][ok]).max()))
    return float(worst)


def weighted_mz(cap, weight, nodes, degree, p, trials=200, ball_samples=64,
                seed=0, threads=1, wn_resolution=32, trial_degree=None, diagnostics=None):
    """Ratio brackets for the three weighted norm equivalences.

    Returns a dict with brackets (lo, hi) for: the weighted integral
    against its ball-averaged version ('wn_equivalence'), and the ball-max
    and ball-min node sums against the weighted integral ('max_sum',
    'min_sum').  Ball radii equal the set's separation target.  A
    ``diagnostics`` dict, when given, receives
    ``ball_quadrature_unconverged``: the number of ball averages and node
    ball masses that stopped at the quadrature's order cap.
    """
    if cap.alpha > 0.5 + 1e-12:
        raise ValueError("weighted equivalences are measured for alpha <= 1/2")
    domain = nodes.domain
    eps = nodes.epsilon
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    order = min(int(p) * degree + 16, 200)
    rule = build_rule(cap, order)
    basis_rule = eval_basis_many(space, rule.points)
    w_vals = weight.eval_on(cap, rule.points)
    wn_vals, wn_unconverged = balls_average(cap, rule.points, 1.0 / degree, weight.eval_b,
                                            resolution=wn_resolution)
    table = _NodeBallTable(nodes, eps, ball_samples)
    basis_samples = table.basis_table(space)
    _, masses, mass_unconverged = balls_integral(domain, nodes.coords, eps, weight.eval_b,
                                                 resolution=wn_resolution)
    if diagnostics is not None:
        diagnostics["ball_quadrature_unconverged"] = wn_unconverged + mass_unconverged

    def trial(c):
        fp = np.abs(basis_rule @ c) ** p
        int_w = float(rule.weights @ (fp * w_vals))
        if not int_w >= DEGENERATE_FLOOR:
            return None
        int_wn = float(rule.weights @ (fp * wn_vals))
        avals = np.abs(basis_samples @ c)
        gmax, gmin = table.group_max_min(avals)
        return (int_w / int_wn,
                float((gmax**p) @ masses) / int_w,
                float((gmin**p) @ masses) / int_w)

    triples = run_trials(trials, trial, space.size, seed, threads)
    return {name: _bracket(column)
            for name, column in zip(("wn_equivalence", "max_sum", "min_sum"), zip(*triples))}


# ---------------------------------------------------------------------------
# dilation identity


def change_of_variables_check(cap, degree, trials=20, seed=0, threads=1):
    """Max relative gap between the cap integral of f and the dilated form.

    The dilated side integrates f(Tx) times the Jacobian polynomial over
    the cap of radius alpha/8; both sides use reference rules exact for
    the integrands, so agreement certifies the identity.
    """
    domain_big = cap
    d = cap.dim
    cap_small = Cap(cap.center, cap.alpha / 8.0)
    space = PolySpace(d, degree)
    rule_big = build_rule(domain_big, degree)
    rule_small = build_rule(cap_small, 8 * degree + 7 * (d - 1))
    basis_big = eval_basis_many(space, rule_big.points)
    mapped = map_T_many(rule_small.points, cap.center.coords)
    basis_small = eval_basis_many(space, mapped)
    jac = poly_D(d, np.clip(rule_small.points @ cap.center.coords, -1.0, 1.0))

    def trial(c):
        lhs = float(rule_big.weights @ (basis_big @ c))
        rhs = 8.0 * float(rule_small.weights @ ((basis_small @ c) * jac))
        return abs(lhs - rhs) / (1.0 + abs(lhs))

    return float(max(run_trials(trials, trial, space.size, seed, threads)))
