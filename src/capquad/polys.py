"""Orthonormal real bases for spherical polynomials on S^1 and S^2.

d=1 uses the Fourier basis in the signed polar angle u about the north
pole (0, 1), ordered [const, cos u, sin u, cos 2u, sin 2u, ...] and
normalized against arc length.  d=2 uses real spherical harmonics in the
standard frame, ordered lexicographically in (l, m) with m in [-l, l],
so the flat index of (l, m) is l*l + l + m.

The associated Legendre values carry their normalization inside the
three-term recurrence; entries stay O(sqrt(l)) instead of growing
factorially, which keeps degree 64 comfortably inside double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import SpherePoint, Sphere, map_T_many

_SQRT2 = math.sqrt(2.0)
PROJECTION_DEGREE_CAP = 99  # full-sphere rule degree 2*deg + 2 must stay <= 200


class PolySpace:
    """Descriptor of the spherical polynomials of degree <= n on S^d."""

    __slots__ = ("dim_sphere", "degree")

    def __init__(self, dim_sphere, degree):
        if dim_sphere not in (1, 2):
            raise ValueError("dim_sphere must be 1 or 2")
        degree = int(degree)
        if degree < 0:
            raise ValueError("degree must be >= 0")
        object.__setattr__(self, "dim_sphere", dim_sphere)
        object.__setattr__(self, "degree", degree)

    @property
    def size(self):
        n = self.degree
        return 2 * n + 1 if self.dim_sphere == 1 else (n + 1) ** 2

    def __setattr__(self, name, value):
        raise AttributeError("PolySpace is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, PolySpace)
            and (self.dim_sphere, self.degree) == (other.dim_sphere, other.degree)
        )

    def __hash__(self):
        return hash(("PolySpace", self.dim_sphere, self.degree))

    def __repr__(self):
        return f"PolySpace(dim_sphere={self.dim_sphere}, degree={self.degree})"


class PolyCoeffs:
    """Coefficient vector in the orthonormal basis of a PolySpace."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.size,):
            raise ValueError(f"expected {space.size} coefficients, got shape {coeffs.shape}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("PolyCoeffs is immutable")

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
    npts = coords.shape[0]
    t = np.clip(coords[:, 2], -1.0, 1.0)
    s = np.hypot(coords[:, 0], coords[:, 1])
    phi = np.arctan2(coords[:, 1], coords[:, 0])
    out = np.empty((npts, (n + 1) ** 2))

    pmm = np.full(npts, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(n + 1):
        if m > 0:
            pmm = pmm * s * math.sqrt((2.0 * m + 1.0) / (2.0 * m))
        if m == 0:
            cos_m = sin_m = None
        else:
            cos_m = np.cos(m * phi) * _SQRT2
            sin_m = np.sin(m * phi) * _SQRT2

        p_prev = np.zeros(npts)
        p_curr = pmm
        for l in range(m, n + 1):
            if l == m:
                pass
            elif l == m + 1:
                p_prev, p_curr = p_curr, math.sqrt(2.0 * m + 3.0) * t * p_curr
            else:
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_prev, p_curr = p_curr, a * (t * p_curr - b * p_prev)
            base = l * l + l
            if m == 0:
                out[:, base] = p_curr
            else:
                out[:, base + m] = p_curr * cos_m
                out[:, base - m] = p_curr * sin_m
    return out


def eval_basis_many(space, coords):
    """Basis values at every row of ``coords``; shape (npoints, dim)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[1] != space.dim_sphere + 1:
        raise ValueError("dimension mismatch between space and points")
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
