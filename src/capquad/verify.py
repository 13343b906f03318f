"""Empirical constants for the sampling inequalities on caps and collars.

Every operation here measures a ratio bracket: draw random polynomials
from the rotation-invariant Gaussian ensemble, evaluate both sides of an
inequality, and record min/max/mean of the ratio over trials.  Nothing
is proved; brackets and their stability across parameters are the
product.  Each measurement returns its report cell: a dict of named
fields (the bracket or estimate, and the diagnostics of its quadrature),
which the CLI writes as it is, beside the trial settings.

Ball maxima are approximated by deterministic low-discrepancy samples
plus the ball center, drawn and evaluated once per ring of nodes at one
polar angle and turned about the pole to the ring's other nodes, so the
tables stay small at n >= 16 (``_RingBallTable``).  Under-sampling can
only shrink a maximum, so measured constants are lower bounds, as the
``ball_samples`` entry of a report says.

Every measurement runs all trials at once: trial k is column k of a
coefficient matrix drawn from its own generator, derived from the master
seed, and each basis table meets that matrix in one matrix product (per
fixed chunk of columns where the table is tall).  The integrals over a
domain take f on each product rule's grid from ``quadrature.rule_values``
and ball samples of turned nodes from ``polys.order_parts``, which build
no table of those points.  A degenerate column is redrawn from its own
stream, so a trial's draws never depend on another trial.

Each measurement first turns its node set into the canonical frame
(``points.canonical``), where the domain is centred at the pole: the
trials, the ball samples and the rules all live there, so a set turned
off the pole measures what its pole copy measures, up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    poly_D,
    rho_many,
    ring_labels,
)
from . import polys
from .points import canonical, product_grid, tau_statistic
from .polys import PolySpace, eval_basis_many, fourier_table
from .quadrature import (
    ADAPTIVE_ORDERS,
    QuadratureError,
    balls_integral,
    build_rule,
    double_until_stable,
    gauss_legendre_on,
    rule_values,
)

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
DEGENERATE_FLOOR = 1e-14
MAX_REDRAWS = 100
COLUMN_CHUNK = 16  # trial columns per product with a tall basis table
INTEGRAL_TOL = 1e-8
VALUES_ENTRIES = 2**20  # ball values (8 MiB) of one block of ``_RingBallTable.extremes``


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True, slots=True)
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

    kind: str
    gamma: float = 0.0
    n_ref: int = 8
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "boundary_power"):
            raise ValueError("kind must be 'constant' or 'boundary_power'")
        if self.kind == "boundary_power":
            if not 0 <= self.gamma <= 2:
                raise ValueError("gamma must lie in [0, 2]")
            if self.n_ref <= 0:
                raise ValueError("n_ref must be positive")
        if not self.value > 0:
            raise ValueError("constant weights must be positive")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "n_ref", int(self.n_ref))
        object.__setattr__(self, "value", float(self.value))

    @classmethod
    def constant(cls, value=1.0):
        return cls("constant", value=value)

    @classmethod
    def boundary_power(cls, gamma, n_ref=8):
        return cls("boundary_power", gamma=gamma, n_ref=n_ref)

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


@dataclass(frozen=True, slots=True, eq=False)
class VerificationReport:
    """Per-inequality ratio statistics over a parameter grid."""

    inequality: str
    grid: dict
    cells: list
    seed: int
    wall_time_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "inequality", str(self.inequality))
        object.__setattr__(self, "grid", dict(self.grid))
        object.__setattr__(self, "cells", [dict(c) for c in self.cells])
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "wall_time_s", float(self.wall_time_s))

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


class DegenerateDraws(RuntimeError):
    """A trial's draws stayed degenerate through MAX_REDRAWS draws (``run_trials``)."""


def run_trials(trials, measure, size, seed):
    """Values of ``measure`` over ``trials`` standard-normal draws of length ``size``.

    Trial k is column k of the (size, trials) coefficient matrix and
    draws from ``trial_rng(seed, k)``.  ``measure(C)`` returns (values,
    degenerate): an array whose last axis runs over the columns of C, and
    a mask of the columns that are degenerate draws.  Each degenerate
    column is redrawn from its own stream and measured again, at most
    MAX_REDRAWS draws in all (then DegenerateDraws).  Values come in trial order.
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
    raise DegenerateDraws("persistent degenerate draws")


def _degenerate(integrals):
    return ~(integrals >= DEGENERATE_FLOOR)


def _bracket(name, values):
    """The report fields ``<name>_lo`` and ``<name>_hi``: min and max of values."""
    return {f"{name}_lo": float(values.min()), f"{name}_hi": float(values.max())}


def _by_chunks(evaluate, coeffs, reduce):
    """reduce(evaluate(block)) over fixed blocks of COLUMN_CHUNK columns of
    ``coeffs``, joined along the last axis; bounds the memory of the values
    on a tall table or a large rule whatever the trial count."""
    return np.concatenate([reduce(evaluate(coeffs[:, j:j + COLUMN_CHUNK]))
                           for j in range(0, coeffs.shape[1], COLUMN_CHUNK)], axis=-1)


def _abs_power(values, p):
    """|values|^p in place; an integral p by repeated squaring and
    multiplication (p = 2 is one square, as the general power takes it)."""
    np.abs(values, out=values)
    if not float(p).is_integer():
        values **= p
    elif p > 1:
        base, k = values.copy(), int(p) - 1  # values holds |v|^(p - k)
        while k:
            if k & 1:
                values *= base
            k >>= 1
            if k:
                base *= base
    return values


def _abs_power_integral(domain, space, coeffs, p):
    """Adaptive integrals of |f|^p over the domain, one per column of coeffs.

    Returns (integrals, capped): ``capped`` is 0 for a column whose last
    two orders agreed to INTEGRAL_TOL, and otherwise the last relative
    change of a column accepted at the order cap.  Each order's rule
    meets only the columns still apart, through ``rule_values`` (no basis
    table of the rule's points is built).  Even p makes the integrand a
    polynomial and two exact orders agree at once; odd p integrands have
    kinks along the zero set of f, converge algebraically, and are
    accepted at the cap (the brackets this feeds only need a few digits).
    """
    def estimate(order, cols):
        rule = build_rule(domain, order)
        return _by_chunks(lambda c: rule_values(space, rule, c), coeffs[:, cols],
                          lambda v: rule.weights @ _abs_power(v, p))

    converged, prev, last = double_until_stable(estimate, ADAPTIVE_ORDERS, INTEGRAL_TOL,
                                                coeffs.shape[1])
    change = np.abs(last - prev) / (np.abs(last) + 1e-14)
    return last, np.where(converged, 0.0, change)


def _integral_ratio_trials(domain, space, p, ratio, trials, seed):
    """(rows, fields): rows of ``ratio(C, integrals)`` over the trials, with
    the integrals of |f|^p over the domain (a column whose integral is
    below DEGENERATE_FLOOR is redrawn), and two report fields on the
    integrals accepted at the order cap without two orders agreeing: how
    many, and their largest last relative change.
    """
    def measure(c):
        integral, capped = _abs_power_integral(domain, space, c, p)
        return np.vstack([ratio(c, integral), capped]), _degenerate(integral)

    values = run_trials(trials, measure, space.size, seed)
    capped = values[-1]
    return values[:-1], {"integral_order_cap_hits": int(np.count_nonzero(capped)),
                         "integral_last_rel_change": float(capped.max())}


# ---------------------------------------------------------------------------
# ball sampling


class _RingBallTable:
    """Low-discrepancy samples of the rho-ball at every node, drawn and
    evaluated once per ring of nodes at one polar angle (``ring_labels``).

    A golden-angle spiral (d=2) or evenly spaced angles (d=1) fill the
    bounding geodesic region; points outside the ball or the domain are
    dropped and the centre leads, so no sample over-reaches the ball.  A
    ring's first node, its reference, turns the spiral by the frame
    R_z(phi) R_y(theta) of its own angles and keeps ``samples`` (ring
    after ring from ``starts``) and their basis table.  rho depends on
    the chord and the polar angles alone and the frame is equivariant,
    so a ring node at azimuth gap g has the reference samples turned by
    R_z(g); ``turns`` is the Fourier table at each node's gap.  On d=1, or
    with no shared polar angle, a node is its own ring and the table a plain
    basis table; else it is a ``polys.order_table``.
    """

    def __init__(self, nodes, radius, count, space):
        domain, coords = nodes.domain, nodes.coords
        ring, self.nodes, self.node_starts = ring_labels(domain, coords)  # reference first
        refs = self.refs = self.nodes[self.node_starts[:-1]]
        azimuth = np.zeros(len(coords))
        if domain.dim == 2:
            theta = np.arctan2(np.hypot(coords[:, 0], coords[:, 1]), coords[:, 2])
            azimuth = np.arctan2(coords[:, 1], coords[:, 0])
        if refs.size * (count + 1) * space.size > polys.MAX_TABLE_ENTRIES:
            raise ValueError(f"ball-sample tables of {refs.size * (count + 1)} x {space.size} "
                             "entries exceed 1 GiB; lower --ball-samples or the degree")
        bound = ball_reach(domain, radius)
        j = np.arange(count)
        if domain.dim == 2:
            t = 1.0 - (1.0 - math.cos(bound)) * (j + 0.5) / count
            phi = 2.0 * math.pi * np.mod(j / _GOLDEN, 1.0)
            s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
            local = np.column_stack([s * np.cos(phi), s * np.sin(phi), t])
            (ct, st), (cp, sp) = ((np.cos(a[refs]), np.sin(a[refs])) for a in (theta, azimuth))
            frames = np.stack([cp * ct, sp * ct, -st, -sp, cp, 0.0 * ct, cp * st, sp * st, ct])
            pts = np.matmul(local, frames.T.reshape(-1, 3, 3))  # rows turned by R_z R_y
        else:
            u = bound * (2.0 * (j + 0.5) / count - 1.0) + np.arctan2(*coords[refs].T)[:, None]
            pts = np.stack([np.sin(u), np.cos(u)], axis=-1)
        flat = pts.reshape(refs.size * count, -1)
        dist = rho_many(domain, flat, np.repeat(coords[refs], count, axis=0))
        inside = contains(domain, flat) & (dist <= radius + 1e-12)
        keep = np.column_stack([np.ones(refs.size, bool), inside.reshape(refs.size, count)])
        self.samples = np.concatenate([coords[refs][:, None, :], pts], axis=1)[keep]
        self.starts = np.r_[0, np.cumsum(keep.sum(axis=1))]
        self.turned = np.flatnonzero(np.diff(self.node_starts) > 1)  # d=2 only
        n = space.degree if self.turned.size else 0
        self.turns = fourier_table(n, (azimuth - azimuth[refs[ring]])[self.nodes])
        self.basis = (polys.order_table(n, self.samples) if self.turned.size
                      else eval_basis_many(space, self.samples))

    def extremes(self, coeffs, absolute):
        """Per-node maxima (out[0]) and minima (out[1]) of f, or of |f| when
        ``absolute``, over the samples: one column per column of coeffs.

        With no shared polar angle f at the samples is one product with the
        table.  Else a ring's samples y give the ``polys.order_parts`` of f,
        and a node's row of ``turns`` (gap 0 at the reference) times them is
        f at its samples R_z(g) y: 2n + 1 products per sample, not (n + 1)^2.
        Columns and ring nodes go in blocks of at most VALUES_ENTRIES values.
        """
        out = np.empty((2, len(self.nodes), coeffs.shape[1]))
        samples = np.diff(self.starts).max() if self.turned.size else len(self.basis)
        width = max(1, VALUES_ENTRIES // (samples * self.turns.shape[1]))
        for j in range(0, coeffs.shape[1], width):
            c, part = coeffs[:, j:j + width], out[:, :, j:j + width]
            if not self.turned.size:  # every node its own ring: f at its samples directly
                values = c.T @ self.basis.T  # samples along the last axis: a fast reduceat
                ref = np.abs(values) if absolute else values
                part[0, self.refs] = np.maximum.reduceat(ref, self.starts[:-1], axis=1).T
                part[1, self.refs] = np.minimum.reduceat(ref, self.starts[:-1], axis=1).T
                continue
            for r in range(len(self.refs)):
                parts = polys.order_parts(self.basis[self.starts[r]:self.starts[r + 1]], c)
                ring = parts.reshape(parts.shape[0], -1)
                block = max(1, VALUES_ENTRIES // ring.shape[1])
                for i in range(self.node_starts[r], self.node_starts[r + 1], block):
                    at = slice(i, min(i + block, self.node_starts[r + 1]))
                    vals = (self.turns[at] @ ring).reshape(-1, parts.shape[1], c.shape[1])
                    if absolute:
                        np.abs(vals, out=vals)
                    part[:, self.nodes[at]] = vals.max(axis=1), vals.min(axis=1)
        return out


# ---------------------------------------------------------------------------
# the inequality measurements


def mz_bracket(rule, p, trials, seed, trial_degree=None):
    """``ratio_min``, ``ratio_max`` and ``spread`` (max / min) over trials
    of the discrete-sum to integral ratio.

    Draws f from the Gaussian ensemble at the rule's degree (or
    ``trial_degree``), compares the weighted node sum of |f|^p with the
    adaptive integral.  Degenerate draws with integral below 1e-14 are
    redrawn from the same per-trial stream.  The cell also holds the
    order-cap fields of the integrals (``_integral_ratio_trials``).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    nodes = canonical(rule.nodes)
    domain = nodes.domain
    degree = rule.degree if trial_degree is None else int(trial_degree)
    space = PolySpace(domain.dim, degree)
    basis_nodes = eval_basis_many(space, nodes.coords)

    def ratio(c, integral):
        disc = rule.weights @ _abs_power(basis_nodes @ c, p)
        return disc / integral

    ratios, cell = _integral_ratio_trials(domain, space, p, ratio, trials, seed)
    lo, hi = float(ratios.min()), float(ratios.max())
    return {"ratio_min": lo, "ratio_max": hi, "spread": hi / lo, **cell}


def osc_constant(nodes, degree, p, beta=1.0, trials=200, ball_samples=64,
                 seed=0, trial_degree=None):
    """``estimate``: max over trials of (LHS/RHS)^{1/p} / delta, the oscillation constant.

    LHS sums, over nodes, the p-th power of the oscillation of f on the
    beta-dilated ball times the quadrature measure of the undilated ball;
    RHS is the integral of |f|^p.  ``trial_degree`` restricts the draw to
    a lower-degree subspace (degree 0 exercises the zero-oscillation case).
    The cell also holds ``ball_quadrature_unconverged`` (the number of
    ball measures that stopped at the quadrature's order cap, see
    balls_integral) and the order-cap fields of the integrals.
    """
    nodes = canonical(nodes)
    domain = nodes.domain
    eps = nodes.epsilon
    delta = nodes.delta
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    table = _RingBallTable(nodes, beta * eps, ball_samples, space)
    volumes, _, unconverged = balls_integral(domain, nodes.coords, eps)

    def ratio(c, integral):
        gmax, gmin = table.extremes(c, absolute=False)
        lhs = volumes @ (gmax - gmin) ** p
        return (lhs / integral) ** (1.0 / p) / delta

    estimates, cell = _integral_ratio_trials(domain, space, p, ratio, trials, seed)
    return {"estimate": float(estimates.max()), "ball_quadrature_unconverged": unconverged,
            **cell}


def large_sieve_constant(nodes, degree, p, trials=200, seed=0, probes=20000,
                         trial_degree=None):
    """``estimate``: max over trials of LHS / (tau * RHS) for the one-sided sieve bound.

    LHS weighs node values of |f|^p by the ball-volume surrogate at
    radius 1/n; tau is the peak node count of a 1/n ball.  No separation
    is assumed of the node set.  ``trial_degree`` restricts the draw (the
    surrogate radius stays 1/degree).  The cell also holds the order-cap
    fields of the integrals.
    """
    nodes = canonical(nodes)
    domain = nodes.domain
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    basis_nodes = eval_basis_many(space, nodes.coords)
    surrogate = delta_r_many(domain, nodes.coords, 1.0 / degree)
    tau = tau_statistic(domain, nodes, degree, probes=probes)

    def ratio(c, integral):
        lhs = surrogate @ _abs_power(basis_nodes @ c, p)
        return lhs / (tau * integral)

    estimates, cell = _integral_ratio_trials(domain, space, p, ratio, trials, seed)
    return {"estimate": float(estimates.max()), **cell}


def maxmin_equivalence(nodes, degree, p, beta=1.0, trials=200, ball_samples=64,
                       seed=0, trial_degree=None, return_trials=False):
    """Brackets ``max_lo/hi`` and ``min_lo/hi`` of the ball-max and ball-min
    sums against the integral.

    Per trial the max-sum ratio dominates the min-sum ratio by
    construction.  With ``return_trials`` the per-trial (max_ratio,
    min_ratio) pairs come back beside the cell, as (cell, pairs), for
    ordering checks.  The cell also holds the order-cap fields of the
    integrals.
    """
    nodes = canonical(nodes)
    domain = nodes.domain
    eps = nodes.epsilon
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    table = _RingBallTable(nodes, beta * eps, ball_samples, space)
    surrogate = delta_r_many(domain, nodes.coords, eps)

    def ratio(c, integral):
        sums = surrogate @ table.extremes(c, absolute=True) ** p
        return sums / integral

    (rmaxs, rmins), cell = _integral_ratio_trials(domain, space, p, ratio, trials, seed)
    cell = {**_bracket("max", rmaxs), **_bracket("min", rmins), **cell}
    if return_trials:
        return cell, [(float(a), float(b)) for a, b in zip(rmaxs, rmins)]
    return cell


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
        vals = _abs_power(fourier_table(coeffs.shape[0] // 2, t) @ coeffs[:, cols], p)
        return w @ (vals * factor(t)[:, None])

    _, _, last = double_until_stable(estimate, (16, 32, 64, 128, 256), 1e-7, coeffs.shape[1])
    return last


def _trig_derivative(coeffs):
    """Coefficient map of d/dt in the [const, cos k, sin k, ...] basis (along axis 0)."""
    out = np.zeros_like(coeffs)
    k = np.arange(1, (len(coeffs) - 1) // 2 + 1).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    out[1::2] = k * coeffs[2::2]
    out[2::2] = -k * coeffs[1::2]
    return out


def bernstein_check_d1(alpha, degree, p, weight, trials=200, seed=0, statistic="max"):
    """``estimate``: trial statistic of LHS / (n^p RHS) for the weighted derivative bound.

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
    return {"estimate": float(ratios.max()) if statistic == "max" else float(np.mean(ratios))}


# ---------------------------------------------------------------------------
# doubling-weight machinery


def _ball_average(domain, weight, n, coords):
    """(W_n, unconverged): the ball average of the weight over the 1/n ball
    at each row of ``coords``, and the count of balls stopped at the
    quadrature's order cap (see balls_integral).

    Computed as the ratio of weighted to unweighted mass over identical
    quadrature nodes, so a constant weight averages to exactly itself.
    """
    vols, masses, unconverged = balls_integral(domain, coords, 1.0 / n, weight.eval_b)
    if np.any(vols <= 0.0):
        raise QuadratureError("empty rho-ball in the ball average of W", (vols.min(), 0))
    return masses / vols, unconverged


def compute_Wn(cap, weight, n, x):
    """Ball average of the weight over the 1/n ball at x (see _ball_average)."""
    coords = x.coords if isinstance(x, SpherePoint) else np.asarray(x, float)
    ball = RhoBall(cap, SpherePoint(coords), 1.0 / n)  # checks the centre and the radius
    return float(_ball_average(cap, weight, n, ball.center.coords.reshape(1, -1))[0][0])


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
                seed=0, trial_degree=None):
    """Ratio brackets ``<name>_lo/hi`` for the three weighted norm equivalences.

    The names: the weighted integral against its ball-averaged version
    ('wn_equivalence'), and the ball-max and ball-min node sums against
    the weighted integral ('max_sum', 'min_sum').  Ball radii equal the
    set's separation target.  ``cap`` must be the node set's own domain
    (ValueError otherwise).  The cell also holds
    ``ball_quadrature_unconverged``: the number of ball averages and node
    ball masses that stopped at the quadrature's order cap.
    """
    if cap.alpha > 0.5 + 1e-12:
        raise ValueError("weighted equivalences are measured for alpha <= 1/2")
    if cap != nodes.domain:
        raise ValueError("weighted_mz needs the cap of the node set")
    nodes = canonical(nodes)
    domain = nodes.domain
    eps = nodes.epsilon
    space = PolySpace(domain.dim, degree if trial_degree is None else int(trial_degree))
    order = min(int(p) * degree + 16, 200)
    rule = build_rule(domain, order)
    wn, wn_unconverged = _ball_average(domain, weight, degree, rule.points)
    weighted = np.stack([rule.weights * weight.eval_on(domain, rule.points), rule.weights * wn])
    table = _RingBallTable(nodes, eps, ball_samples, space)
    _, masses, mass_unconverged = balls_integral(domain, nodes.coords, eps, weight.eval_b)

    def measure(c):
        int_w, int_wn = _by_chunks(lambda b: rule_values(space, rule, b), c,
                                   lambda v: weighted @ _abs_power(v, p))
        sums = masses @ table.extremes(c, absolute=True) ** p
        return np.vstack([int_w / int_wn, sums / int_w]), _degenerate(int_w)

    wn_ratios, max_sums, min_sums = run_trials(trials, measure, space.size, seed)
    return {**_bracket("wn_equivalence", wn_ratios), **_bracket("max_sum", max_sums),
            **_bracket("min_sum", min_sums),
            "ball_quadrature_unconverged": wn_unconverged + mass_unconverged}


# ---------------------------------------------------------------------------
# dilation identity


def change_of_variables_check(cap, degree, trials=20, seed=0):
    """``max_discrepancy``: max relative gap between the cap integral of f and the dilated form.

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

    return {"max_discrepancy": float(run_trials(trials, measure, space.size, seed).max())}
