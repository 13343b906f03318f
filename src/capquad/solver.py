"""Strictly positive cubature weights on a node set, by moment matching.

The weight vector must reproduce the analytic moments of the orthonormal
basis over the cap (or collar) while staying strictly positive.  The
weights the paper predicts are comparable to the ball volumes
|B_rho(omega, delta/n)|, approximated by ``profile`` (the ball-volume
surrogate at the set's separation radius).  The solve takes the first of
two paths that yields an acceptable rule:

``"min-norm"``
    the minimum profile-weighted-norm solution of the moment system,
    ``w = sqrt(profile) * lstsq(A diag(sqrt(profile)), m)``, by
    truncated-SVD least squares (relative cut-off 1e-13, since the
    moment matrix is numerically rank-deficient).  It spreads the
    weights in proportion to the profile, so on a dense enough set
    every weight is positive.
``"nnls-active-set"``
    when the minimum-norm weights miss the residual target or go below
    the positivity floor: ``w = base + profile * u`` with
    ``base = 0.5 * t * profile`` (``t`` fits the profile to the moments
    in one dimension) and ``u >= 0`` from a Lawson-Hanson active-set solve
    of the residual moment system.  Every node keeps its base weight, so
    positivity is structural.

If neither path meets the target the set is declared infeasible, which
signals that it is too sparse for the degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import delta_r_many, domain_measure, north_frame
from .points import NodeSet
from .polys import PolySpace, eval_basis_many
from .quadrature import domain_moments

DEFAULT_TOL = 1e-10
_RCOND = 1e-13  # singular-value cut-off of the minimum-norm solve, relative to the largest
_BASE_SHARE = 0.5  # share of the fitted profile every node keeps on the NNLS path


class Infeasible:
    """Returned when no acceptable weight vector exists for (nodes, degree).

    Carries the better of the two paths' residuals and the nodes whose
    minimum-norm weight fell below the positivity floor; the usual remedy
    is to halve delta and regenerate the set.
    """

    __slots__ = ("residual", "zero_nodes", "message")

    def __init__(self, residual, zero_nodes, message):
        self.residual = float(residual)
        self.zero_nodes = zero_nodes
        self.message = message

    def __repr__(self):
        return f"Infeasible(residual={self.residual:.3e}, zeros={len(self.zero_nodes)})"


@dataclass(frozen=True, slots=True, eq=False)
class CubatureRule:
    """Nodes, strictly positive weights, exactness degree, and a residual certificate."""

    nodes: NodeSet
    weights: np.ndarray
    degree: int
    residual: float
    solver_meta: dict

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(self.nodes),):
            raise ValueError("one weight per node required")
        if np.any(weights < positivity_floor(self.nodes)):
            raise ValueError("weights must be strictly positive")
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "solver_meta", dict(self.solver_meta))

    def __repr__(self):
        return (f"CubatureRule(n={len(self.nodes)}, degree={self.degree}, "
                f"residual={self.residual:.3e})")


def positivity_floor(nodes):
    return 1e-14 * domain_measure(nodes.domain) / max(len(nodes), 1)


def nnls(a, b):
    """Active-set nonnegative least squares on ``min ||a x - b|| s.t. x >= 0``.

    Thin wrapper over the library Lawson-Hanson-style solver; returns
    (x, residual_norm, support_size).
    """
    from scipy.optimize import nnls as _lh_nnls

    x, rnorm = _lh_nnls(np.asarray(a, float), np.asarray(b, float))
    return x, float(rnorm), int(np.count_nonzero(x))


def _moment_matrix(nodes, degree):
    """Basis-at-nodes matrix and analytic moments, in the canonical frame."""
    domain = nodes.domain
    frame = north_frame(domain.center)
    canon = nodes.coords @ frame
    space = PolySpace(domain.dim, degree)
    a = eval_basis_many(space, canon).T
    moments = domain_moments(domain, degree)
    return a, moments


def moment_residual(a, weights, moments):
    """Max relative moment error: |A w - m|_k / (1 + |m_k|), maximized over k."""
    err = a @ weights - moments
    return float(np.max(np.abs(err) / (1.0 + np.abs(moments))))


def _profile(nodes):
    eps = nodes.epsilon if nodes.epsilon > 0 else 1.0 / max(nodes.degree, 1)
    prof = delta_r_many(nodes.domain, nodes.coords, eps)
    return np.maximum(prof, 1e-300)


def solve_weights(nodes, degree, tol=DEFAULT_TOL):
    """Positive weights exact on the polynomial space over the domain.

    Returns a CubatureRule on acceptance (relative moment residual at most
    ``tol`` with every weight at least the positivity floor), its
    ``solver_meta["solver"]`` naming the path taken, or an Infeasible
    carrying diagnostics.
    """
    if len(nodes) == 0:
        raise ValueError("empty node set")
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")
    a, moments = _moment_matrix(nodes, degree)
    profile = _profile(nodes)
    floor = positivity_floor(nodes)

    root = np.sqrt(profile)
    weights = root * np.linalg.lstsq(a * root[None, :], moments, rcond=_RCOND)[0]
    resid = moment_residual(a, weights, moments)
    low = np.flatnonzero(weights < floor)
    if resid <= tol and low.size == 0:
        return CubatureRule(nodes, weights, degree, resid,
                            {"seed": nodes.seed, "solver": "min-norm"})

    scaled = a * profile[None, :]
    g = scaled.sum(axis=1)
    gg = float(g @ g)
    t_fit = float(g @ moments) / gg if gg > 0 else 0.0
    if not (t_fit > 0 and np.isfinite(t_fit)):
        t_fit = domain_measure(nodes.domain) / float(profile.sum())
    base = _BASE_SHARE * t_fit * profile
    u, _, _ = nnls(scaled, moments - a @ base)
    weights = base + profile * u
    resid_nnls = moment_residual(a, weights, moments)
    if resid_nnls <= tol and np.all(weights >= floor):
        return CubatureRule(nodes, weights, degree, resid_nnls,
                            {"seed": nodes.seed, "solver": "nnls-active-set"})
    return Infeasible(min(resid, resid_nnls), [int(i) for i in low],
                      f"min-norm residual {resid:.3e} with {low.size} weights below "
                      f"the floor; nnls residual {resid_nnls:.3e}; tol {tol:.1e}")


def verify_exactness(rule, probe_degree=None):
    """Max relative moment error of the rule at the probe degree."""
    if probe_degree is None:
        probe_degree = rule.degree
    if probe_degree > rule.degree:
        raise ValueError("probe degree exceeds the rule's exactness degree")
    a, moments = _moment_matrix(rule.nodes, probe_degree)
    return moment_residual(a, rule.weights, moments)


def weight_sharpness(rule):
    """(min, max) over nodes of weight / ball-volume surrogate at the
    separation radius; the two-sided bracket the weights are expected to sit in."""
    prof = _profile(rule.nodes)
    ratios = rule.weights / prof
    return float(ratios.min()), float(ratios.max())

