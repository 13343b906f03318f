"""Strictly positive cubature weights on a node set, by moment matching.

The weight vector must reproduce the moments sqrt(|D|) e_0 of the basis
orthonormal on the domain (``polys.eval_domain_basis``) while staying
strictly positive, both taken in the canonical frame (``points.canonical``),
so a rule's ``residual`` is its error on polynomials of unit norm.  The
weights the paper predicts are comparable to the ball volumes
|B_rho(omega, delta/n)|, approximated by ``profile`` (the ball-volume
surrogate at the set's separation radius, one value per ring at its first
row's boundary distance).  The solve takes the first of two paths that
yields an acceptable rule:

``"min-norm"``
    the minimum profile-weighted-norm solution of the moment system,
    ``w = P A^T c`` with ``(A P A^T) c = m``, ``P = diag(profile)``, by
    one Cholesky factorization and two block substitutions on its factor,
    with no cut-off (the Gram matrix of an orthonormal basis is well
    conditioned on a set dense enough for the degree; when it is not
    positive definite the path fails).  It spreads the
    weights in proportion to the profile, so on a dense enough set
    every weight is positive.

    The Gram matrix is factored by ring.  At d=2 the basis (l, m) at a
    node is a polar factor q_{l,|m|}(z) times the ``fourier_table`` entry
    t_{o(m)}(phi) of its azimuth, so the nodes of one z (a ring of
    ``geometry.ring_labels``, its q from its first node) add q q^T times
    F_r[o, o'] to the Gram matrix, F_r = sum p_j t_j t_j^T, p_j the ring's
    one profile value.  On a ring of at least 2n + 1 evenly spaced nodes,
    as ``points.ring_lattice`` makes them at the pole or turned off it, F_r
    is diagonal, and the ring adds one order block at a time from one
    polar row; that is checked on every ring (``_Rings``).  Every other
    node (short rings near a cap's pole, d=1 sets, scattered sets) is a
    plain row sqrt(p_j) a_j, so such sets cost what the full table costs.
    The weights p_j t_j . U_r and the residual A w come from per-ring
    sums, so the min-norm path builds no table with a row per node; the
    max-entropy path and ``verify_exactness`` use the full table.
``"max-entropy"``
    when those weights miss the target or go below the positivity floor:
    ``w = P exp(B^T c)``, positive by construction, ``c`` minimizing the
    convex dual ``sum_j p_j exp(b_j . c) - (V^T m) . c`` by Newton steps
    with Armijo backtracking (Borwein & Lewis, SIAM J. Control Optim. 29,
    1991), in the rows ``B = V^T A`` of A in the span V of A P A^T's
    eigenvectors (singular on a minimal product set: fewer nodes than
    moments).  When the least-squares residual misses the target, no
    weights of any sign meet it, and the path takes no step.

If neither path meets the target the set is declared infeasible, which
signals that it is too sparse for the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .geometry import boundary_distance_many, delta_r_at, domain_measure, ring_labels
from .points import NodeSet, canonical
from .polys import (MAX_TABLE_ENTRIES, PolySpace, _order_columns, eval_domain_basis,
                    fourier_table, ring_factors)

DEFAULT_TOL = 1e-10
_NEWTON_STEPS = 30  # max-entropy Newton steps before the fallback gives up
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
    """Nodes, strictly positive weights, exactness degree, and a residual
    certificate; immutable (read-only weights, a read-only copy of
    ``solver_meta``), so one rule can be shared by every caller."""

    nodes: NodeSet
    weights: np.ndarray
    degree: int
    residual: float
    solver_meta: MappingProxyType

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
        object.__setattr__(self, "solver_meta", MappingProxyType(dict(self.solver_meta)))

    def __repr__(self):
        return (f"CubatureRule(n={len(self.nodes)}, degree={self.degree}, "
                f"residual={self.residual:.3e})")


def positivity_floor(nodes):
    return 1e-14 * domain_measure(nodes.domain) / max(len(nodes), 1)


def _moments(domain, size):
    """The moments sqrt(|D|) e_0 of the basis orthonormal on the domain,
    whose first function is 1/sqrt(|D|)."""
    moments = np.zeros(size)
    moments[0] = np.sqrt(domain_measure(domain))
    return moments


def _moment_matrix(nodes, degree):
    """Basis-at-nodes matrix and moments, in the canonical frame
    (``points.canonical``), of the basis orthonormal on the domain there."""
    nodes = canonical(nodes)
    a = eval_domain_basis(nodes.domain, degree, nodes.coords).T
    return a, _moments(nodes.domain, a.shape[0])


def moment_residual(aw, moments):
    """Max relative moment error of A w: |A w - m|_k / (1 + |m_k|), maximized over k."""
    return float(np.max(np.abs(aw - moments) / (1.0 + np.abs(moments))))


def _profile(nodes, grouping=None):
    """The ball-volume surrogate at the separation radius, one value per
    ring of ``grouping`` (the set's ``geometry.ring_labels``): at the
    boundary distance of the ring's first row, whose polar row ``_Rings``
    takes, so a ring's nodes share one value however their last bits round."""
    eps = nodes.epsilon if nodes.epsilon > 0 else 1.0 / max(nodes.degree, 1)
    labels, order, starts = grouping or ring_labels(nodes.domain, nodes.coords)
    b = boundary_distance_many(nodes.domain, nodes.coords[order[starts[:-1]]])
    return np.maximum(delta_r_at(nodes.domain, b, eps), 1e-300)[labels]


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


class _Rings:
    """The rings of a canonical d=2 set (its ``ring_labels``, ``grouping``) whose
    F_r = sum_j p_j t(phi_j) t(phi_j)^T is diagonal, t the ``fourier_table``
    row at a node's azimuth: ``nodes`` ring after ring from ``starts``, their
    rows ``t`` and profile ``p``, each ring's diagonal ``f`` of F_r and its
    first node turned to azimuth 0, ``polar``.  A node's basis row in the
    ``order_table`` columns is q * t[fourier], q the ``polys.ring_factors``
    of its ring's polar row, so a ring's part of A P A^T is q q^T times
    F_r[fourier, fourier], which vanishes across orders.  Only rings of at
    least 2n + 1 nodes are tried: F_r of fewer has rank below 2n + 1.
    """

    def __init__(self, nodes, degree, profile, grouping):
        coords, width = nodes.coords, 2 * degree + 1
        labels, order, starts = grouping
        sizes = np.diff(starts)
        members, ring, sizes = self._select(order, labels[order], sizes, sizes >= width)
        t = fourier_table(degree, np.arctan2(coords[members, 1], coords[members, 0]))
        # F_r = R^T R for the rows R = sqrt(p_j) t_j of ring r, one product per
        # ring on rings padded with zero rows to the longest
        length, starts = sizes.max(initial=0), np.cumsum(sizes) - sizes
        pad = np.zeros((sizes.size, length, width))
        pad.reshape(-1, width)[ring * length + np.arange(members.size) - starts[ring]] = (
            np.sqrt(profile[members])[:, None] * t)
        f = np.matmul(pad.transpose(0, 2, 1), pad).reshape(sizes.size, width * width)
        diag = f[:, ::width + 1].copy()
        f[:, ::width + 1] = 0.0
        # rounding: k*phi is off by about k ulps, and a ring sums its nodes
        ok = (np.abs(f).max(axis=1, initial=0.0)
              <= 8.0 * width * np.finfo(float).eps * diag.max(axis=1, initial=0.0))
        if not ok.all():
            t, diag = t[ok[ring]], diag[ok]
            members, ring, sizes = self._select(members, ring, sizes, ok)
            starts = np.cumsum(sizes) - sizes
        self.nodes, self.ring, self.starts, self.t, self.f = members, ring, starts, t, diag
        self.p = profile[members]
        first = coords[members[starts]]
        self.polar = np.column_stack([np.hypot(first[:, 0], first[:, 1]),
                                      np.zeros(starts.size), first[:, 2]])

    @staticmethod
    def _select(members, ring, sizes, chosen):
        """The members of the ``chosen`` rings, their rings renumbered, and their sizes."""
        keep = chosen[ring]
        return members[keep], (np.cumsum(chosen) - 1)[ring[keep]], sizes[chosen]

    def factor(self, degree, rows):
        """Take the rings' ``polys.ring_factors`` from their polar rows."""
        self.q, self.fourier = ring_factors(degree, rows)
        self.orders = np.flatnonzero(np.diff(self.fourier, prepend=-1))

    def gram(self):
        """The rings' part of A P A^T, block diagonal by order."""
        g = (self.q * self.f[:, self.fourier]).T @ self.q
        return g * (self.fourier[:, None] == self.fourier[None, :])

    def weights(self, c):
        """p_j t_j . U_r with U_r[a] = sum over order a's columns of q_r c."""
        u = np.add.reduceat(self.q * c, self.orders, axis=1)
        return self.p * np.einsum("jk,jk->j", self.t, u[self.ring])

    def moments(self, w):
        """The rings' part of A w, from V_r = sum_j w_j t_j."""
        v = np.add.reduceat(w[:, None] * self.t, self.starts, axis=0)
        return np.einsum("rk,rk->k", self.q, v[:, self.fourier])


def _min_norm(nodes, degree, profile, moments, grouping):
    """Weights ``w = P A^T c`` with ``(A P A^T) c = m`` on a canonical set,
    the relative residual of A w, and the numbers of nodes that went through
    ``_Rings`` and of their rings.  Every other node is a row sqrt(p_j) a_j
    of A sqrt(P), its basis row ``a_j`` in the ``order_table`` columns at
    d=2; one ``eval_domain_basis`` call takes the rings' polar rows and them."""
    domain, coords = nodes.domain, nodes.coords
    loose = np.ones(len(coords), dtype=bool)
    rings, columns, polar = None, slice(None), coords[:0]
    if domain.dim == 2:
        rings = _Rings(nodes, degree, profile, grouping)
        loose[rings.nodes] = False
        columns, polar = _order_columns(degree)[0], rings.polar
    loose = np.flatnonzero(loose)
    rows = eval_domain_basis(domain, degree, np.concatenate([polar, coords[loose]]))
    a = rows[len(polar):, columns].T
    root = np.sqrt(profile[loose])
    b = a * root
    gram = b @ b.T  # one symmetric rank-k product
    if len(polar):
        rings.factor(degree, rows[:len(polar)])
        gram += rings.gram()
    weights = np.full(len(coords), np.nan)
    try:  # the factorization is the positive-definiteness guard
        c = _cholesky_solve(np.linalg.cholesky(gram), moments)
    except np.linalg.LinAlgError:
        return weights, np.inf, 0, 0
    weights[loose] = root * (b.T @ c)
    aw = a @ weights[loose]
    if len(polar):
        weights[rings.nodes] = rings.weights(c)
        aw += rings.moments(weights[rings.nodes])
    return weights, moment_residual(aw, moments), len(coords) - loose.size, len(polar)


def _max_entropy(a, moments, profile, tol):
    """The max-entropy path's last weights, their residual, and why it stopped (None: met tol)."""
    root = a * np.sqrt(profile)
    vals, vecs = np.linalg.eigh(root @ root.T)  # symmetric rank-k products here and below
    v = vecs[:, vals > 1e-13 * vals[-1]]
    b, target = v.T @ a, v.T @ moments
    # |A w - m|_inf >= |(I - V V^T) m|_2 / sqrt(K) for every w of any sign (m >= 0)
    bound = np.linalg.norm(moments - v @ target) / np.sqrt(moments.size) / (1 + moments.max())
    c, w, dual = np.zeros(target.size), profile, float(profile.sum())
    resid = moment_residual(a @ w, moments)
    halt = "max-entropy Newton stopped: {} at step {}, residual {:.3e}".format
    if bound > tol:
        return w, resid, f"least-squares bound {bound:.3e}: no weights of any sign reach tol"
    for step in range(_NEWTON_STEPS):
        grad, root = b @ w - target, b * np.sqrt(w)
        try:
            d = -_cholesky_solve(np.linalg.cholesky(root @ root.T), grad)
        except np.linalg.LinAlgError:  # weights underflowed
            return w, resid, halt("singular Hessian", step, resid)
        slope = float(grad @ d)  # minus the squared Newton decrement
        for t in 0.5 ** np.arange(40):
            trial = profile * np.exp(np.minimum(b.T @ (c + t * d), 600.0))  # capped: backtracks
            value = float(trial.sum() - target @ (c + t * d))
            # rounding hides the decrease of a step this small: take it whole
            if value <= dual + 1e-4 * t * slope or -slope <= 1e-14 * abs(dual):
                break
        else:
            return w, resid, halt("failed line search", step, resid)
        c, w, dual, resid = c + t * d, trial, value, moment_residual(a @ trial, moments)
        if resid <= tol:
            return w, resid, None
    return w, resid, halt("step cap", _NEWTON_STEPS, resid)


def solve_weights(nodes, degree, tol=DEFAULT_TOL):
    """Positive weights exact on the polynomial space over the domain.

    Returns a CubatureRule on acceptance (relative moment residual at most
    ``tol`` with every weight at least the positivity floor), its
    ``solver_meta["solver"]`` naming the path taken (on the min-norm path,
    ``"ring_nodes"``, ``"rings"`` and ``"loose"`` count how its nodes went
    in), or an Infeasible carrying diagnostics.
    """
    if len(nodes) == 0:
        raise ValueError("empty node set")
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")
    size = PolySpace(nodes.domain.dim, degree).size
    if size * size > MAX_TABLE_ENTRIES:  # the Gram below, refused before any table
        raise ValueError(f"a Gram matrix of {size} x {size} entries exceeds "
                         f"{MAX_TABLE_ENTRIES} (1 GiB); lower the degree")
    frame = canonical(nodes)
    grouping = ring_labels(frame.domain, frame.coords)
    profile = _profile(frame, grouping)
    floor = positivity_floor(nodes)
    moments = _moments(frame.domain, size)
    weights, resid, ring_nodes, rings = _min_norm(frame, degree, profile, moments, grouping)
    resid = resid if np.isfinite(resid) else np.inf  # non-finite: a failed path
    low = np.flatnonzero(weights < floor)
    if resid <= tol and low.size == 0:
        return CubatureRule(nodes, weights, degree, resid,
                            {"seed": nodes.seed, "solver": "min-norm", "ring_nodes": ring_nodes,
                             "rings": rings, "loose": len(nodes) - ring_nodes})

    weights, resid_me, stop = _max_entropy(*_moment_matrix(frame, degree), profile, tol)
    if stop is None and np.all(weights >= floor):
        return CubatureRule(nodes, weights, degree, resid_me,
                            {"seed": nodes.seed, "solver": "max-entropy"})
    return Infeasible(min(resid, resid_me), [int(i) for i in low],
                      f"min-norm residual {resid:.3e} with {low.size} weights below the "
                      f"floor; {stop or 'max-entropy weights below the floor'}; tol {tol:.1e}")


def verify_exactness(rule, probe_degree=None):
    """Max relative moment error of the rule at the probe degree."""
    if probe_degree is None:
        probe_degree = rule.degree
    if probe_degree > rule.degree:
        raise ValueError("probe degree exceeds the rule's exactness degree")
    a, moments = _moment_matrix(rule.nodes, probe_degree)
    return moment_residual(a @ rule.weights, moments)


def weight_sharpness(rule):
    """(min, max) over nodes of weight / ball-volume surrogate at the
    separation radius; the two-sided bracket the weights are expected to sit in."""
    prof = _profile(rule.nodes)
    ratios = rule.weights / prof
    return float(ratios.min()), float(ratios.max())

