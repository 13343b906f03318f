"""Strictly positive cubature weights on a node set, by moment matching.

The weight vector must reproduce the moments sqrt(|D|) e_0 of the basis
orthonormal on the domain (``polys.eval_domain_basis``) while staying
strictly positive, both taken in the canonical frame (``points.canonical``),
so a rule's ``residual`` is its error on polynomials of unit norm.  The
weights the paper predicts are comparable to the ball volumes
|B_rho(omega, delta/n)|, approximated by ``profile`` (the ball-volume
surrogate at the set's separation radius).  The solve takes the first of
two paths that yields an acceptable rule:

``"min-norm"``
    the minimum profile-weighted-norm solution of the moment system,
    ``w = P A^T c`` with ``(A P A^T) c = m``, ``P = diag(profile)``, by
    one Cholesky factorization and two block substitutions on its factor,
    with no cut-off (the Gram matrix of an orthonormal basis is well
    conditioned on a set dense enough for the degree; when it is not
    positive definite the path fails).  It spreads the
    weights in proportion to the profile, so on a dense enough set
    every weight is positive.
``"nnls-active-set"``
    when the minimum-norm weights miss the residual target or go below
    the positivity floor: ``w = base + profile * u`` with
    ``base = 0.5 * t * profile`` (``t`` fits the profile to the moments
    in one dimension) and ``u >= 0`` from a Lawson-Hanson active-set solve
    of the residual moment system (``scipy.optimize.nnls``, imported only
    on this path).  Every node keeps its base weight, so positivity is
    structural.

If neither path meets the target the set is declared infeasible, which
signals that it is too sparse for the degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import delta_r_many, domain_measure
from .points import NodeSet, canonical
from .polys import MAX_TABLE_ENTRIES, PolySpace, eval_domain_basis

DEFAULT_TOL = 1e-10
_BASE_SHARE = 0.5  # share of the fitted profile every node keeps on the NNLS path
_SUBST_BLOCK = 64  # rows per dense diagonal-block solve of the substitutions


@dataclass(frozen=True, slots=True, eq=False)
class Infeasible:
    """Returned when no acceptable weight vector exists for (nodes, degree).

    Carries the better of the two paths' residuals and the nodes whose
    minimum-norm weight fell below the positivity floor; the usual remedy
    is to halve delta and regenerate the set.
    """

    residual: float
    zero_nodes: list
    message: str

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))

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


def _moment_matrix(nodes, degree):
    """Basis-at-nodes matrix and moments, in the canonical frame
    (``points.canonical``), of the basis orthonormal on the domain there."""
    nodes = canonical(nodes)
    a = eval_domain_basis(nodes.domain, degree, nodes.coords).T
    moments = np.zeros(a.shape[0])
    moments[0] = np.sqrt(domain_measure(nodes.domain))  # the first function is 1/sqrt(|D|)
    return a, moments


def moment_residual(a, weights, moments):
    """Max relative moment error: |A w - m|_k / (1 + |m_k|), maximized over k."""
    err = a @ weights - moments
    return float(np.max(np.abs(err) / (1.0 + np.abs(moments))))


def _profile(nodes):
    eps = nodes.epsilon if nodes.epsilon > 0 else 1.0 / max(nodes.degree, 1)
    prof = delta_r_many(nodes.domain, nodes.coords, eps)
    return np.maximum(prof, 1e-300)


def _cholesky_solve(lower, rhs):
    """x with (lower @ lower.T) @ x == rhs: forward substitution on the
    factor, then the back substitution as a forward one on its reversed
    transpose, one diagonal block of _SUBST_BLOCK rows at a time (numpy
    has no triangular solve, and a dense solve of the factor would
    factor it again)."""
    x = np.array(rhs, dtype=float)
    for tri in (lower, lower.T[::-1, ::-1]):
        for k in range(0, x.size, _SUBST_BLOCK):
            block, rest = slice(k, k + _SUBST_BLOCK), slice(k + _SUBST_BLOCK, None)
            x[block] = np.linalg.solve(tri[block, block], x[block])
            x[rest] -= tri[rest, block] @ x[block]
        x = x[::-1].copy()
    return x


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
    size = PolySpace(nodes.domain.dim, degree).size
    if size * size > MAX_TABLE_ENTRIES:  # the Gram below, refused before any table
        raise ValueError(f"a Gram matrix of {size} x {size} entries exceeds "
                         f"{MAX_TABLE_ENTRIES} (1 GiB); lower the degree")
    a, moments = _moment_matrix(nodes, degree)
    profile = _profile(nodes)
    floor = positivity_floor(nodes)

    root = np.sqrt(profile)
    b = a * root  # b b^T = A P A^T, one symmetric rank-k product
    try:  # the factorization is the positive-definiteness guard
        weights = root * (b.T @ _cholesky_solve(np.linalg.cholesky(b @ b.T), moments))
    except np.linalg.LinAlgError:
        weights = np.full_like(profile, np.nan)
    resid = moment_residual(a, weights, moments)
    resid = resid if np.isfinite(resid) else np.inf  # non-finite: a failed path
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
    from scipy.optimize import nnls  # late: importing scipy.optimize is slow

    u = nnls(scaled, moments - a @ base)[0]
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

