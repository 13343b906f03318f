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

Every measurement runs all trials at once: trial k is column k of a
coefficient matrix drawn from its own generator, derived from the master
seed, and each basis table meets that matrix in one matrix product (per
fixed chunk of columns where the table is tall).  A degenerate column is
redrawn from its own stream, so a trial's draws never depend on another
trial.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    Cap,
    RhoBall,
    SpherePoint,
    ball_reach,
    boundary_distance_many,
    contains,
    delta_r_many,
    map_T_many,
    north_frames,
    poly_D,
    rho_rows,
)
from . import polys
from .points import product_grid, tau_statistic
from .polys import PolySpace, eval_basis_many
from .quadrature import (
    ADAPTIVE_ORDERS,
    QuadratureError,
    ball_integral,
    balls_integral,
    build_rule,
    double_until_stable,
    gauss_legendre_on,
)

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
DEGENERATE_FLOOR = 1e-14
MAX_REDRAWS = 100
COLUMN_CHUNK = 16  # trial columns per product with a tall basis table
INTEGRAL_TOL = 1e-8


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


def run_trials(trials, measure, size, seed):
    """Values of ``measure`` over ``trials`` standard-normal draws of length ``size``.

    Trial k is column k of the (size, trials) coefficient matrix and
    draws from ``trial_rng(seed, k)``.  ``measure(C)`` returns (values,
    degenerate): an array whose last axis runs over the columns of C, and
    a mask of the columns that are degenerate draws.  Each degenerate
    column is redrawn from its own stream and measured again, at most
    MAX_REDRAWS draws in all.  Values come back in trial order.
    """
    rngs = [trial_rng(seed, k) for k in range(trials)]
    redo = np.arange(trials)
    values = None
    for _ in range(MAX_REDRAWS):
        coeffs = np.column_stack([rngs[k].standard_normal(size) for k in redo])
        # degenerate columns may divide by zero; their values are dropped.
        # |f|^p may overflow to inf, which the CLI turns into exit 1 (non-finite)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got, degenerate = measure(coeffs)
        if values is None:
            values = np.array(got, dtype=float)
        else:
            values[..., redo] = got
        redo = redo[np.asarray(degenerate, bool)]
        if redo.size == 0:
            return values
    raise RuntimeError("persistent degenerate draws")


def _degenerate(integrals):
    return ~(integrals >= DEGENERATE_FLOOR)


def _bracket(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.min()), float(arr.max())


def _by_chunks(table, coeffs, reduce):
    """reduce(table @ block) over fixed blocks of COLUMN_CHUNK columns of
    ``coeffs``, joined along the last axis; bounds the memory of a tall
    table's products whatever the trial count."""
    return np.concatenate([reduce(table @ coeffs[:, j:j + COLUMN_CHUNK])
                           for j in range(0, coeffs.shape[1], COLUMN_CHUNK)], axis=-1)


def _abs_power(values, p):
    """|values|^p, computed in place."""
    np.abs(values, out=values)
    values **= p
    return values


def _abs_power_integral(domain, space, coeffs, p):
    """Adaptive integrals of |f|^p over the domain, one per column of coeffs.

    Returns (integrals, capped): ``capped`` is 0 for a column whose last
    two orders agreed to INTEGRAL_TOL, and otherwise the last relative
    change of a column accepted at the order cap.  Each order's basis
    table is built once and meets only the columns still apart.  Even p
    makes the integrand a polynomial and two exact orders agree at once;
    odd p integrands have kinks along the zero set of f, converge
    algebraically, and are accepted at the cap (the brackets this feeds
    only need a few digits).  A rule whose table would pass
    ``polys.MAX_TABLE_ENTRIES`` is built and summed in blocks of rows
    that fit; a table that fits stays one block.
    """
    def estimate(order, cols):
        rule = build_rule(domain, order)
        step = max(1, polys.MAX_TABLE_ENTRIES // space.size)
        total = 0.0  # 0.0 + x is x: one block keeps the whole table's bits
        for r in range(0, len(rule.weights), step):
            weights = rule.weights[r:r + step]
            table = eval_basis_many(space, rule.points[r:r + step])
            total += _by_chunks(table, coeffs[:, cols], lambda v: weights @ _abs_power(v, p))
        return total

    converged, prev, last = double_until_stable(estimate, ADAPTIVE_ORDERS, INTEGRAL_TOL,
                                                coeffs.shape[1])
    change = np.abs(last - prev) / (np.abs(last) + 1e-14)
    return last, np.where(converged, 0.0, change)


def _order_cap_fields(capped):
    """Report fields on the integrals accepted at the order cap without two
    orders agreeing: how many, and their largest last relative change."""
    return {"integral_order_cap_hits": int(np.count_nonzero(capped)),
            "integral_last_rel_change": float(capped.max())}


# ---------------------------------------------------------------------------
# ball sampling


class _NodeBallTable:
    """Deterministic low-discrepancy samples of the rho-ball at every node.

    A golden-angle spiral (d=2) or evenly spaced angles (d=1) fill the
    bounding geodesic region; points falling outside the ball or the
    domain are dropped, and the node itself always leads its block, so a
    sample never over-reaches the ball.  The region depends only on the
    radius, so one spiral serves every node, turned by the node's frame,
    and all nodes are filtered in one pass.

    Rows are stored slot-major, so that the per-node reduction runs over
    contiguous memory.  Nodes are sorted by block size, largest first
    (stably), and run j holds sample j of every node with more than j
    samples, in that order: each run is a prefix of the one before, and
    ``runs`` lists their lengths.  Run 0 holds the centres, and
    ``centre_rows`` gives each node's row there, which is also its
    position in every later run.  The order does not change results: max
    and min are exact, a basis table of the samples holds in each row the
    bits of that sample, and one product of the whole table with a
    coefficient matrix gave row-permuted bits on every benchmark shape
    checked (products over slices of the rows need not, so the table
    meets each chunk of columns whole).
    """

    def __init__(self, nodes, radius, count):
        domain, centers = nodes.domain, nodes.coords
        k = centers.shape[0]
        bound = ball_reach(domain, radius)
        j = np.arange(count)
        if domain.dim == 2:
            t = 1.0 - (1.0 - math.cos(bound)) * (j + 0.5) / count
            phi = 2.0 * math.pi * np.mod(j / _GOLDEN, 1.0)
            s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
            local = np.column_stack([s * np.cos(phi), s * np.sin(phi), t])
            pts = np.matmul(local, north_frames(centers))
        else:
            offs = bound * (2.0 * (j + 0.5) / count - 1.0)
            # a Python loop on purpose: NumPy's SIMD arctan2 differs from
            # math.atan2 in the last bit on some inputs (14 657 of 200 000
            # random pairs on an AVX-512 Xeon), which would change sample bytes
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
        sizes = keep.sum(axis=1)
        order = np.argsort(-sizes, kind="stable")
        # each node's kept samples moved to the front of its block, in
        # sample order, then taken slot-major as rows of the flat blocks
        front = np.argsort(~keep[order], axis=1, kind="stable")[:, :sizes.max()]
        slots = np.arange(sizes.max())[:, None] < sizes[order]
        rows = ((count + 1) * order[:, None] + front).T[slots]
        self.runs = slots.sum(axis=1).tolist()
        blocks = np.concatenate([centers[:, None, :], pts], axis=1)
        self.samples = blocks.reshape(k * (count + 1), -1)[rows]
        self.centre_rows = np.argsort(order)

    def group_max_min(self, values):
        """Per-node maxima and minima of sample values (rows of ``samples``),
        stacked in node order: out[0] the maxima, out[1] the minima.  A
        running maximum and minimum over the runs, gathered back to node
        order."""
        lo = self.runs[0]
        out = np.stack([values[:lo], values[:lo]])
        for run in self.runs[1:]:
            np.maximum(out[0, :run], values[lo:lo + run], out=out[0, :run])
            np.minimum(out[1, :run], values[lo:lo + run], out=out[1, :run])
            lo += run
        return out[:, self.centre_rows]

    def basis_table(self, space):
        return eval_basis_many(space, self.samples)


# ---------------------------------------------------------------------------
# the inequality measurements


def mz_bracket(rule, p, trials, seed, trial_degree=None, diagnostics=None):
    """(min, max) over trials of the discrete-sum to integral ratio.

    Draws f from the Gaussian ensemble at the rule's degree (or
    ``trial_degree``), compares the weighted node sum of |f|^p with the
    adaptive integral.  Degenerate draws with integral below 1e-14 are
    redrawn from the same per-trial stream.  A ``diagnostics`` dict, when
    given, receives the order-cap fields of the integrals
    (``_order_cap_fields``).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    nodes = rule.nodes
    domain = nodes.domain
    degree = rule.degree if trial_degree is None else int(trial_degree)
    space = PolySpace(domain.dim, degree)
    basis_nodes = eval_basis_many(space, nodes.coords)

    def measure(c):
        integral, capped = _abs_power_integral(domain, space, c, p)
        disc = rule.weights @ _abs_power(basis_nodes @ c, p)
        return np.vstack([disc / integral, capped]), _degenerate(integral)

    ratios, capped = run_trials(trials, measure, space.size, seed)
    if diagnostics is not None:
        diagnostics.update(_order_cap_fields(capped))
    return _bracket(ratios)


def osc_constant(nodes, degree, p, beta=1.0, trials=200, ball_samples=64,
                 seed=0, trial_degree=None, diagnostics=None):
    """Estimated oscillation constant: max over trials of (LHS/RHS)^{1/p} / delta.

    LHS sums, over nodes, the p-th power of the oscillation of f on the
    beta-dilated ball times the quadrature measure of the undilated ball;
    RHS is the integral of |f|^p.  ``trial_degree`` restricts the draw to
    a lower-degree subspace (degree 0 exercises the zero-oscillation case).
    A ``diagnostics`` dict, when given, receives
    ``ball_quadrature_unconverged`` (the number of ball measures that
    stopped at the quadrature's order cap, see balls_integral) and the
    order-cap fields of the integrals.
    """
    domain = nodes.domain
    eps = nodes.epsilon
    delta = nodes.delta
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    table = _NodeBallTable(nodes, beta * eps, ball_samples)
    basis_samples = table.basis_table(space)
    volumes, _, unconverged = balls_integral(domain, nodes.coords, eps)

    def oscillation(vals):
        gmax, gmin = table.group_max_min(vals)
        return gmax - gmin

    def measure(c):
        integral, capped = _abs_power_integral(domain, space, c, p)
        lhs = volumes @ _by_chunks(basis_samples, c, oscillation) ** p
        return np.vstack([(lhs / integral) ** (1.0 / p) / delta, capped]), _degenerate(integral)

    estimates, capped = run_trials(trials, measure, space.size, seed)
    if diagnostics is not None:
        diagnostics["ball_quadrature_unconverged"] = unconverged
        diagnostics.update(_order_cap_fields(capped))
    return float(estimates.max())


def large_sieve_constant(nodes, degree, p, trials=200, seed=0, probes=20000,
                         trial_degree=None, diagnostics=None):
    """Max over trials of LHS / (tau * RHS) for the one-sided sieve bound.

    LHS weighs node values of |f|^p by the ball-volume surrogate at
    radius 1/n; tau is the peak node count of a 1/n ball.  No separation
    is assumed of the node set.  ``trial_degree`` restricts the draw (the
    surrogate radius stays 1/degree).  A ``diagnostics`` dict, when given,
    receives the order-cap fields of the integrals.
    """
    domain = nodes.domain
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    basis_nodes = eval_basis_many(space, nodes.coords)
    surrogate = delta_r_many(domain, nodes.coords, 1.0 / degree)
    tau = tau_statistic(domain, nodes, degree, probes=probes)

    def measure(c):
        integral, capped = _abs_power_integral(domain, space, c, p)
        lhs = surrogate @ _abs_power(basis_nodes @ c, p)
        return np.vstack([lhs / (tau * integral), capped]), _degenerate(integral)

    estimates, capped = run_trials(trials, measure, space.size, seed)
    if diagnostics is not None:
        diagnostics.update(_order_cap_fields(capped))
    return float(estimates.max())


def maxmin_equivalence(nodes, degree, p, beta=1.0, trials=200, ball_samples=64,
                       seed=0, trial_degree=None, return_trials=False, diagnostics=None):
    """Ratio brackets of the ball-max and ball-min sums against the integral.

    Returns ((max_lo, max_hi), (min_lo, min_hi)); per trial the max-sum
    ratio dominates the min-sum ratio by construction.  With
    ``return_trials`` the per-trial (max_ratio, min_ratio) pairs come
    back as a third element for ordering checks.  A ``diagnostics`` dict,
    when given, receives the order-cap fields of the integrals.
    """
    domain = nodes.domain
    eps = nodes.epsilon
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    table = _NodeBallTable(nodes, beta * eps, ball_samples)
    basis_samples = table.basis_table(space)
    surrogate = delta_r_many(domain, nodes.coords, eps)

    def measure(c):
        integral, capped = _abs_power_integral(domain, space, c, p)
        extremes = _by_chunks(basis_samples, c, lambda v: table.group_max_min(np.abs(v)))
        sums = surrogate @ extremes ** p
        return np.vstack([sums / integral, capped]), _degenerate(integral)

    rmaxs, rmins, capped = run_trials(trials, measure, space.size, seed)
    if diagnostics is not None:
        diagnostics.update(_order_cap_fields(capped))
    brackets = _bracket(rmaxs), _bracket(rmins)
    if return_trials:
        return brackets[0], brackets[1], [(float(a), float(b)) for a, b in zip(rmaxs, rmins)]
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


def _interval_adaptive(alpha, coeffs, p, factor):
    """Adaptive integrals over [-alpha, alpha] of |T|^p * factor(t), one per
    column T of trigonometric coefficients; each order's trig table meets
    only the columns still apart; two orders agree at 1e-7 relative."""
    def estimate(order, cols):
        t, w = _interval_quad_points(alpha, order)
        vals = _abs_power(_trig_table(coeffs.shape[0] // 2, t) @ coeffs[:, cols], p)
        return w @ (vals * factor(t)[:, None])

    _, _, last = double_until_stable(estimate, (16, 32, 64, 128, 256), 1e-7, coeffs.shape[1])
    return last


def _trig_derivative(coeffs):
    """Coefficient map of d/dt in the [const, cos k, sin k, ...] basis (along axis 0)."""
    out = np.zeros_like(coeffs)
    n = (len(coeffs) - 1) // 2
    for k in range(1, n + 1):
        a_k = coeffs[2 * k - 1]
        b_k = coeffs[2 * k]
        out[2 * k - 1] = k * b_k
        out[2 * k] = -k * a_k
    return out


def _trig_table(n, t):
    """Orthonormal [const, cos k, sin k, ...] basis up to degree n at the angles t."""
    kt = np.outer(t, np.arange(1, n + 1))
    table = np.empty((t.size, 2 * n + 1))
    table[:, 0] = 1.0 / math.sqrt(2.0 * math.pi)
    table[:, 1::2] = np.cos(kt) / math.sqrt(math.pi)
    table[:, 2::2] = np.sin(kt) / math.sqrt(math.pi)
    return table


def bernstein_check_d1(alpha, degree, p, weight, trials=200, seed=0, statistic="max"):
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

    def rhs_factor(t):
        return weight.eval_interval(alpha, t)

    def lhs_factor(t):
        return rhs_factor(t) * (alpha / n + np.sqrt(np.clip(alpha**2 - t**2, 0.0, None))) ** p

    def measure(c):
        rhs = _interval_adaptive(alpha, c, p, rhs_factor)
        lhs = _interval_adaptive(alpha, _trig_derivative(c), p, lhs_factor)
        return lhs / (np.float64(n) ** p * rhs), _degenerate(rhs)  # inf, not OverflowError

    ratios = run_trials(trials, measure, space.size, seed)
    return float(ratios.max()) if statistic == "max" else float(np.mean(ratios))


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
                seed=0, trial_degree=None, diagnostics=None):
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
    w_vals = weight.eval_on(cap, rule.points)[:, None]
    wn_vols, wn_masses, wn_unconverged = balls_integral(cap, rule.points, 1.0 / degree,
                                                        weight.eval_b)
    if np.any(wn_vols <= 0.0):
        raise QuadratureError("empty rho-ball in weighted_mz", (wn_vols.min(), 0))
    wn_vals = (wn_masses / wn_vols)[:, None]
    table = _NodeBallTable(nodes, eps, ball_samples)
    basis_samples = table.basis_table(space)
    _, masses, mass_unconverged = balls_integral(domain, nodes.coords, eps, weight.eval_b)
    if diagnostics is not None:
        diagnostics["ball_quadrature_unconverged"] = wn_unconverged + mass_unconverged

    def weighted_integrals(vals):
        fp = _abs_power(vals, p)
        return np.stack([rule.weights @ (fp * w_vals), rule.weights @ (fp * wn_vals)])

    def measure(c):
        int_w, int_wn = _by_chunks(basis_rule, c, weighted_integrals)
        extremes = _by_chunks(basis_samples, c, lambda v: table.group_max_min(np.abs(v)))
        sums = masses @ extremes ** p
        return np.vstack([int_w / int_wn, sums / int_w]), _degenerate(int_w)

    columns = run_trials(trials, measure, space.size, seed)
    return {name: _bracket(column)
            for name, column in zip(("wn_equivalence", "max_sum", "min_sum"), columns)}


# ---------------------------------------------------------------------------
# dilation identity


def change_of_variables_check(cap, degree, trials=20, seed=0):
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
    jac = poly_D(d, np.clip(rule_small.points @ cap.center.coords, -1.0, 1.0))[:, None]

    def measure(c):
        lhs = rule_big.weights @ (basis_big @ c)
        rhs = 8.0 * (rule_small.weights @ ((basis_small @ c) * jac))
        return np.abs(lhs - rhs) / (1.0 + np.abs(lhs)), np.zeros(c.shape[1], bool)

    return float(run_trials(trials, measure, space.size, seed).max())
