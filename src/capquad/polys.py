"""Orthonormal real bases for spherical polynomials on S^1 and S^2.

d=1 uses the Fourier basis in the signed polar angle u about the north
pole (0, 1), ordered [const, cos u, sin u, cos 2u, sin 2u, ...] and
normalized against arc length.  d=2 uses real spherical harmonics in the
standard frame, ordered lexicographically in (l, m) with m in [-l, l],
so the flat index of (l, m) is l*l + l + m.

One kernel, ``eval_domain_basis``, evaluates the d=2 harmonics and the
basis of the same space orthonormal on a cap, collar or sphere centred at
the pole, in which the solver works; on the sphere the two are one basis.
It takes every order's three-term recurrence coefficients from a
Gauss-Legendre rule alone, once per domain and degree, then runs the
points through that recurrence in column blocks of at most BLOCK_ENTRIES
table entries (1 MiB), written straight into the basis-major table.  A
table so costs its own memory plus a bounded amount, and a row's bits
depend neither on the other rows of the call nor on the block size.  The
orthonormal recurrence keeps entries O(sqrt(l)), far inside double
precision at every degree used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpherePoint, Sphere, map_T_many, north_pole

PROJECTION_DEGREE_CAP = 99  # full-sphere rule degree 2*deg + 2 must stay <= 200
MAX_TABLE_ENTRIES = 2**27  # 1 GiB of float64: the largest basis table built
BLOCK_ENTRIES = 2**17  # table entries (1 MiB) of one column block of ``eval_domain_basis``


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


def fourier_table(n, angles):
    """Orthonormal [const, cos u, sin u, ..., cos nu, sin nu] basis at ``angles``;
    shape (len(angles), 2n + 1), normalized against arc length."""
    angles = np.asarray(angles, dtype=float)
    ku = np.outer(angles, np.arange(1, n + 1))
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    out = np.empty((angles.shape[0], 2 * n + 1))
    out[:, 0] = 1.0 / math.sqrt(2.0 * math.pi)
    out[:, 1::2] = np.cos(ku) * inv_sqrt_pi
    out[:, 2::2] = np.sin(ku) * inv_sqrt_pi
    return out


def order_table(n, coords):
    """The d=2 basis table of degree n at ``coords`` as ``order_parts`` takes
    it: the columns (l, 0), then (l, m) and (l, -m) for m = 1..n (l >= m),
    each divided by the constant of its Fourier factor."""
    return _by_order(n, eval_domain_basis(Sphere(2), n, coords), _order_columns(n)[0])


def _by_order(n, table, columns):
    """The ``columns`` of a d=2 basis table, which are in the order of an
    ``order_table``, each divided by the constant of its Fourier factor."""
    table = table[:, columns]
    table[:, :n + 1] *= math.sqrt(2.0 * math.pi)
    table[:, n + 1:] *= math.sqrt(math.pi)
    return table


@functools.lru_cache(maxsize=64)
def _order_columns(n):
    """Indices into [coeffs; -coeffs]: of the columns of an ``order_table``
    (row 0), and of each order's block quarter-turned, (l, -m) then -(l, m)."""
    l = np.arange(n + 1)
    cols = [l * l + l] + [l[m:] * l[m:] + l[m:] + s * m for m in range(1, n + 1) for s in (1, -1)]
    turned = cols[:1] + [b for m in range(1, n + 1)
                         for b in (cols[2 * m], cols[2 * m - 1] + (n + 1) ** 2)]
    index = np.stack([np.concatenate(cols), np.concatenate(turned)])
    index.setflags(write=False)  # cached: shared by every caller
    return index


def ring_factors(n, rows):
    """The polar factors q of d=2 basis rows at azimuth 0 (``eval_domain_basis``
    of a domain centred at the pole, at points (s, 0, z)) in the columns of
    an ``order_table``, and the Fourier column of each: the basis at
    (s cos g, s sin g, z) is q * fourier_table(n, [g])[0, fourier].  Each
    column is divided by its Fourier constant; (l, -m), whose sine vanishes
    at azimuth 0, takes the factor of (l, m).  ``fourier`` is nondecreasing,
    one run per order."""
    flat = _order_columns(n)[0]
    l = np.sqrt(flat).astype(int)  # l*l <= flat < (l + 1)^2: the floor is l
    m = flat - l * l - l
    return _by_order(n, rows, flat + np.abs(m) - m), 2 * np.abs(m) - (m > 0)


def order_parts(table, coeffs):
    """The order-m parts of f = basis @ coeffs at the rows y of an
    ``order_table`` of degree n, shape (2n + 1, rows, columns):
    f(R_z(g) y) = fourier_table(n, [g]) @ parts for every turn g about the
    pole, part 2m being part 2m - 1 with (l, m) and (l, -m) quarter-turned."""
    n = math.isqrt(table.shape[1]) - 1
    c = np.take(np.concatenate([coeffs, np.negative(coeffs)]), _order_columns(n), axis=0)
    out = np.empty((2 * n + 1, table.shape[0], c.shape[2]))
    np.matmul(table[:, :n + 1], c[0, :n + 1], out=out[0])
    start = n + 1
    for m in range(1, n + 1):  # the block of order m times both rows of its coefficients
        stop = start + 2 * (n + 1 - m)
        np.matmul(table[:, start:stop], c[:, start:stop], out=out[2 * m - 1:2 * m + 1])
        start = stop
    return out


def check_table_size(rows, columns):
    if rows * columns > MAX_TABLE_ENTRIES:
        raise ValueError(f"a basis table of {rows} x {columns} entries exceeds "
                         f"{MAX_TABLE_ENTRIES} (1 GiB); lower the degree")


def eval_basis_many(space, coords):
    """Basis values at every row of ``coords``; shape (npoints, dim).

    d=1 is the ``fourier_table`` in the signed polar angle about (0, 1);
    d=2 is ``eval_domain_basis`` of the sphere.  A table of more than
    MAX_TABLE_ENTRIES entries is refused with ValueError before it is
    allocated.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[1] != space.dim_sphere + 1:
        raise ValueError("dimension mismatch between space and points")
    if space.dim_sphere == 2:
        return eval_domain_basis(Sphere(2), space.degree, coords)
    check_table_size(coords.shape[0], space.size)
    return fourier_table(space.degree, np.arctan2(coords[:, 0], coords[:, 1]))


def eval_domain_basis(domain, degree, coords):
    """The basis of the polynomials of degree <= ``degree`` orthonormal on
    a domain centred at the pole, at every row of ``coords``; shape
    (npoints, size of the PolySpace), the first function 1/sqrt(|D|).

    d=2: (l, m), at the harmonics' index l*l + l + m, is s^|m| q(t) times
    the ``fourier_table`` factor of order |m| at phi (sin for m < 0), with
    q of degree l - |m| orthonormal for (1 - t^2)^|m| on the domain's
    t = cos(theta) interval, whose Gauss-Legendre rule of 2n + 8 points is
    exact for it.  d=1: q_l(cos u) at index 2l - 1 and sin(u) r_{l-1}(cos u)
    at 2l, orthonormal for arc length, from a Gauss-Legendre rule of 2n + 16
    points in u on [lo, hi] with doubled weights.  On the sphere these are
    the harmonic and Fourier bases, equal to rounding.
    """
    space = PolySpace(domain.dim, degree)
    n = space.degree
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[1] != domain.dim + 1:
        raise ValueError("dimension mismatch between domain and points")
    if domain.center != north_pole(domain.dim):
        raise ValueError("the domain basis needs a domain centred at the pole")
    check_table_size(coords.shape[0], space.size)
    orders, a, b = _recurrence(domain, n)
    out = np.empty((space.size, coords.shape[0]))
    block = max(1, BLOCK_ENTRIES // space.size)
    for start in range(0, coords.shape[0], block):
        pts, rows = coords[start:start + block], out[:, start:start + block]
        if domain.dim == 1:
            x, s = pts[:, 1], pts[:, 0]
        else:
            x, s = np.clip(pts[:, 2], -1.0, 1.0), np.hypot(pts[:, 0], pts[:, 1])
            fourier = fourier_table(n, np.arctan2(pts[:, 1], pts[:, 0])).T
            cos_m, sin_m = fourier[np.maximum(2 * orders - 1, 0)], fourier[2::2]
        v = _powers(s, orders)
        v_prev = np.zeros_like(v)
        for k in range(n + 1):  # the points through the nodes' recurrence
            j = b[k].shape[0]
            if k:
                v_prev, v = v[:j], (x - a[k]) * v[:j] - b[k - 1][:j] * v_prev[:j]
            v /= b[k]
            m, l = orders[:j], orders[:j] + k
            if domain.dim == 1:
                rows[np.maximum(2 * l - 1 + m, 0)] = v
            else:
                rows[l * l + l + m] = v * cos_m[:j]
                rows[(l * l + l - m)[1:]] = v[1:] * sin_m[:j - 1]
    return out.T


@functools.lru_cache(maxsize=64)
def _recurrence(domain, n):
    """The orders m and read-only ``_stieltjes`` coefficients of ``eval_domain_basis``."""
    from . import quadrature

    lo, hi = domain.polar_range
    if domain.dim == 1:  # the even (m = 0) and the odd (m = 1) part, in c = cos(u)
        u, w = quadrature.gauss_legendre_on(lo, hi, 2 * n + 16)
        nodes, w, s_nodes = np.cos(u), 2.0 * w, np.sin(u)
        orders = np.arange(min(n, 1) + 1)
    else:
        nodes, w = quadrature.gauss_legendre_on(math.cos(hi), math.cos(lo), 2 * n + 8)
        s_nodes = np.sqrt(np.clip(1.0 - nodes * nodes, 0.0, None))
        orders = np.arange(n + 1)
    a, b = _stieltjes(nodes, _powers(s_nodes, orders) * np.sqrt(w), orders, n)
    for arr in (orders, *a[1:], *b):  # cached: shared by every caller
        arr.setflags(write=False)
    return orders, tuple(a), tuple(b)


def _stieltjes(nodes, v, orders, n):
    """Recurrence coefficients a_k, b_k (columns over the orders m reaching
    degree m + k; a_0 is None) of every order at once, by the discretized
    Stieltjes procedure (Gautschi 2004, section 2.2) on the rows v of
    s^m sqrt(w) at the Gauss nodes."""
    v_prev, a, b = np.zeros_like(v), [None], []
    for k in range(n + 1):
        j = np.count_nonzero(orders <= n - k)
        if k:
            a.append(np.einsum("fi,fi->f", v[:j] * nodes, v[:j])[:, None])
            v_prev, v = v[:j], (nodes - a[k]) * v[:j] - b[k - 1][:j] * v_prev[:j]
        b.append(np.sqrt(np.einsum("fi,fi->f", v, v))[:, None])
        v /= b[k]
    return a, b


def _powers(s, orders):
    # rows s^m, one pow per entry: a row-wise power squares exactly at m = 2
    # only when its row is one inner loop, so its bits would hang on the
    # number of points in the call
    return np.ascontiguousarray((s[:, None] ** orders.astype(float)).T)


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
    """Wrap a vectorized f so it maps an (N, d+1) coords array to (N,) values.

    ``f`` must take the whole array; an output of any other shape raises
    ValueError, and an exception raised inside ``f`` propagates.
    """
    def wrapped(coords):
        coords = np.atleast_2d(coords)
        vals = np.asarray(f(coords), dtype=float)
        if vals.shape != (coords.shape[0],):
            raise ValueError(f"a point function must map coordinates of shape {coords.shape} "
                             f"to values of shape ({coords.shape[0]},), got shape {vals.shape}")
        return vals

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
    fvals = as_point_function(f)(rule.points)
    weighted = rule.weights * fvals
    norm2 = float(weighted @ fvals)
    coeffs = np.zeros(space.size)
    for lo in range(0, len(fvals), 4096):  # basis tables of at most 4096 rows
        coeffs += eval_basis_many(space, rule.points[lo:lo + 4096]).T @ weighted[lo:lo + 4096]
    if norm2 <= 1e-300:
        return PolyCoeffs(space, coeffs), 0.0
    # the pointwise defect, on the rule's grid by sum factorization, avoids
    # the cancellation that norm2 - |coeffs|^2 suffers when f lies (nearly) in the space
    defect = fvals - quadrature.rule_values(space, rule, coeffs[:, None])[:, 0]
    resid2 = float(rule.weights @ (defect * defect))
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
