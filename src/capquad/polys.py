"""Orthonormal real bases for spherical polynomials on S^1 and S^2.

d=1 uses the Fourier basis in the signed polar angle u about the north
pole (0, 1), ordered [const, cos u, sin u, cos 2u, sin 2u, ...] and
normalized against arc length.  d=2 uses real spherical harmonics in the
standard frame, ordered lexicographically in (l, m) with m in [-l, l],
so the flat index of (l, m) is l*l + l + m.

The associated Legendre values carry their normalization inside the
three-term recurrence; entries stay O(sqrt(l)) instead of growing
factorially, which keeps degree 64 comfortably inside double precision.

The d=2 table is built in blocks of points.  For each block the
recurrence runs over all orders m at once (a block costs O(n) NumPy
calls, not one per (l, m), which keeps small blocks cheap at high
degree) and writes every basis function as a contiguous row of a
(size x block) scratch array, which is then copied into the
point-major (npoints x size) table.  The scratch
holds at most BLOCK_ENTRIES entries (1 MiB), so a table costs its own
memory plus a bounded amount whatever its size.  Each value goes through
the same floating-point operations in the same order as a
column-at-a-time evaluation, so the table's bits do not depend on the
block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpherePoint, Sphere, map_T_many

_SQRT2 = math.sqrt(2.0)
PROJECTION_DEGREE_CAP = 99  # full-sphere rule degree 2*deg + 2 must stay <= 200
MAX_TABLE_ENTRIES = 2**27  # 1 GiB of float64: the largest basis table built
BLOCK_ENTRIES = 2**17  # scratch entries (1 MiB) of one block of points of the d=2 kernel


@dataclass(frozen=True, slots=True)
class PolySpace:
    """Descriptor of the spherical polynomials of degree <= n on S^d."""

    dim_sphere: int
    degree: int

    def __post_init__(self):
        if self.dim_sphere not in (1, 2):
            raise ValueError("dim_sphere must be 1 or 2")
        degree = int(self.degree)
        if degree < 0:
            raise ValueError("degree must be >= 0")
        object.__setattr__(self, "degree", degree)

    @property
    def size(self):
        n = self.degree
        return 2 * n + 1 if self.dim_sphere == 1 else (n + 1) ** 2


@dataclass(frozen=True, slots=True, eq=False)
class PolyCoeffs:
    """Coefficient vector in the orthonormal basis of a PolySpace."""

    space: PolySpace
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.space.size,):
            raise ValueError(f"expected {self.space.size} coefficients, got shape {coeffs.shape}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def __repr__(self):
        return f"PolyCoeffs(space={self.space!r}, coeffs=<{self.coeffs.shape[0]} values>)"


def _basis_d1(coords, n):
    # signed polar angle about (0, 1); basis is orthonormal in arc length
    u = np.arctan2(coords[:, 0], coords[:, 1])
    out = np.empty((coords.shape[0], 2 * n + 1))
    out[:, 0] = 1.0 / math.sqrt(2.0 * math.pi)
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for k in range(1, n + 1):
        out[:, 2 * k - 1] = np.cos(k * u) * inv_sqrt_pi
        out[:, 2 * k] = np.sin(k * u) * inv_sqrt_pi
    return out


def _basis_d2(coords, n):
    # blocks of points into a (size x block) scratch whose rows are the
    # basis functions, each block copied into the point-major table
    size = (n + 1) ** 2
    block = max(1, BLOCK_ENTRIES // size)
    steps = _recurrence_steps(n)
    out = np.empty((coords.shape[0], size))
    scratch = np.empty((size, min(block, coords.shape[0])))
    for lo in range(0, coords.shape[0], block):
        rows = scratch[:, :min(block, coords.shape[0] - lo)]
        _harmonics_into(rows, coords[lo:lo + block], n, steps)
        out[lo:lo + block] = rows.T
    return out


def _recurrence_steps(n):
    """Factors of the Legendre recurrence p_l = a * (t p_{l-1} - b p_{l-2})
    at each step k = l - m, as columns over the orders m = 0 .. n - k:
    entry k >= 2 is (a, b); entry 1 is sqrt(2m + 3), of the first step
    p_{m+1} = sqrt(2m + 3) * t * p_m.  Every operand before the division
    is an exact integer, so these equal the scalar factors bit for bit."""
    steps = [None, np.sqrt(2.0 * np.arange(n)[:, None] + 3.0)]
    for k in range(2, n + 1):
        m = np.arange(n + 1 - k, dtype=float)[:, None]
        l = m + k
        steps.append((np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m)),
                      np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))))
    return steps


def _harmonics_into(rows, coords, n, steps):
    # row l*l + l + m of ``rows`` gets harmonic (l, m) at every point; the
    # recurrence in l runs for all orders m at once (row m of each array)
    t = np.clip(coords[:, 2], -1.0, 1.0)
    s = np.hypot(coords[:, 0], coords[:, 1])
    phi = np.arctan2(coords[:, 1], coords[:, 0])
    orders = np.arange(n + 1)
    pmm = np.empty((n + 1, coords.shape[0]))
    pmm[0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, n + 1):
        pmm[m] = pmm[m - 1] * s * math.sqrt((2.0 * m + 1.0) / (2.0 * m))
    cos_m = np.cos(orders[1:, None] * phi) * _SQRT2
    sin_m = np.sin(orders[1:, None] * phi) * _SQRT2

    p_prev, p_curr = None, pmm
    for k in range(n + 1):
        j = n + 1 - k  # orders 0 .. j - 1 reach degree l = m + k
        if k == 1:
            p_prev, p_curr = p_curr[:j], steps[1] * t * p_curr[:j]
        elif k > 1:
            a, b = steps[k]
            p_prev, p_curr = p_curr[:j], a * (t * p_curr[:j] - b * p_prev[:j])
        m = orders[1:j]
        base = (m + k) * (m + k) + m + k  # l*l + l at l = m + k
        rows[k * k + k] = p_curr[0]
        rows[base + m] = p_curr[1:] * cos_m[:j - 1]
        rows[base - m] = p_curr[1:] * sin_m[:j - 1]


def eval_basis_many(space, coords):
    """Basis values at every row of ``coords``; shape (npoints, dim).

    A table of more than MAX_TABLE_ENTRIES entries is refused with
    ValueError before it is allocated; every basis table is built here.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[1] != space.dim_sphere + 1:
        raise ValueError("dimension mismatch between space and points")
    if coords.shape[0] * space.size > MAX_TABLE_ENTRIES:
        raise ValueError(f"a basis table of {coords.shape[0]} x {space.size} entries exceeds "
                         f"{MAX_TABLE_ENTRIES} (1 GiB); lower the degree")
    if space.dim_sphere == 1:
        return _basis_d1(coords, space.degree)
    return _basis_d2(coords, space.degree)


def eval_basis(space, x):
    """Basis values at a single point."""
    if isinstance(x, SpherePoint):
        x = x.coords
    return eval_basis_many(space, np.asarray(x, float).reshape(1, -1))[0]


def eval_poly_many(p, coords):
    return eval_basis_many(p.space, coords) @ p.coeffs


def eval_poly(p, x):
    """Value of the polynomial at a point: the dot of coeffs with the basis."""
    return float(eval_basis(p.space, x) @ p.coeffs)


def random_polynomial(space, seed):
    """I.i.d. standard normal coefficients from a seeded deterministic generator.

    In the orthonormal basis this ensemble is rotation invariant on the
    full sphere.
    """
    rng = np.random.default_rng(seed)
    return PolyCoeffs(space, rng.standard_normal(space.size))


def as_point_function(f):
    """Wrap f so it maps an (N, d+1) coords array to an (N,) value array.

    Accepts either an already-vectorized callable or one written against
    single SpherePoint arguments.
    """
    def wrapped(coords):
        coords = np.atleast_2d(coords)
        try:
            vals = np.asarray(f(coords), dtype=float)
            if vals.shape == (coords.shape[0],):
                return vals
        except Exception:
            pass
        return np.array([float(f(SpherePoint(row))) for row in coords])

    return wrapped


def project_onto(space, f):
    """L2 projection of f onto the space, over the full sphere.

    Uses a full-sphere rule exact to degree 2*degree + 2; the returned
    residual is the relative L2 error of f minus its projection, which
    certifies membership when it vanishes.  Degrees above 99 would push
    the rule past its order cap and are rejected.
    """
    from . import quadrature

    if space.degree > PROJECTION_DEGREE_CAP:
        raise ValueError(f"projection degree capped at {PROJECTION_DEGREE_CAP}")
    rule = quadrature.build_rule(Sphere(space.dim_sphere), 2 * space.degree + 2)
    fv = as_point_function(f)
    coeffs = np.zeros(space.size)
    norm2 = 0.0
    chunk = 4096
    pts, wts = rule.points, rule.weights
    fvals = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], chunk):
        block = pts[lo : lo + chunk]
        wblock = wts[lo : lo + chunk]
        vals = fv(block)
        fvals[lo : lo + chunk] = vals
        basis = eval_basis_many(space, block)
        coeffs += basis.T @ (wblock * vals)
        norm2 += float(wblock @ (vals * vals))
    if norm2 <= 1e-300:
        return PolyCoeffs(space, coeffs), 0.0
    # second pass: the pointwise defect avoids the cancellation that
    # norm2 - |coeffs|^2 suffers when f lies (nearly) in the space
    resid2 = 0.0
    for lo in range(0, pts.shape[0], chunk):
        basis = eval_basis_many(space, pts[lo : lo + chunk])
        defect = fvals[lo : lo + chunk] - basis @ coeffs
        resid2 += float(wts[lo : lo + chunk] @ (defect * defect))
    return PolyCoeffs(space, coeffs), math.sqrt(max(resid2, 0.0) / norm2)


def compose_with_T(p, e, clip=True):
    """The function x -> p(Tx) on the cap of radius pi/8 about e.

    With clip=True (the default) evaluation outside that cap raises,
    since only there does the dilation land inside the reference cap.
    The composed formula itself is a polynomial on the whole sphere of
    eight times the degree; clip=False exposes that global extension,
    which the membership check through projection relies on.  The
    returned callable takes a SpherePoint or an (N, d+1) array.
    """
    e_coords = e.coords
    limit = math.pi / 8 if clip else None

    def composed(x):
        if isinstance(x, SpherePoint):
            mapped = map_T_many(x.coords.reshape(1, -1), e_coords, limit=limit)
            return float(eval_poly_many(p, mapped)[0])
        coords = np.atleast_2d(np.asarray(x, float))
        mapped = map_T_many(coords, e_coords, limit=limit)
        return eval_poly_many(p, mapped)

    return composed
