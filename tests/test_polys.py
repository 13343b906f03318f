import math

import numpy as np
import pytest

import capquad as cq
from capquad.polys import eval_basis_many, eval_domain_basis

from conftest import random_cap_points

E2 = cq.north_pole(2)
E1 = cq.north_pole(1)


def test_dims():
    assert cq.PolySpace(1, 0).size == 1
    assert cq.PolySpace(2, 0).size == 1
    assert cq.PolySpace(2, 8).size == 81
    assert cq.PolySpace(1, 5).size == 11


def test_constant_normalization():
    b2 = cq.eval_basis(cq.PolySpace(2, 0), cq.SpherePoint([0.3, -0.4, 0.86]))
    assert b2[0] == pytest.approx(1 / math.sqrt(4 * math.pi))
    b1 = cq.eval_basis(cq.PolySpace(1, 0), cq.SpherePoint([0.6, 0.8]))
    assert b1[0] == pytest.approx(1 / math.sqrt(2 * math.pi))


def test_degree_one_at_pole():
    vals = cq.eval_basis(cq.PolySpace(2, 1), E2)
    # (l, m) lexicographic: index of (1, 0) is 2
    assert vals[2] == pytest.approx(math.sqrt(3 / (4 * math.pi)))
    assert vals[1] == pytest.approx(0.0, abs=1e-15)
    assert vals[3] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("d,n", [(1, 16), (1, 64), (2, 8), (2, 24)])
def test_full_sphere_orthonormality(d, n):
    space = cq.PolySpace(d, n)
    rule = cq.build_rule(cq.Sphere(d), 2 * n)
    basis = eval_basis_many(space, rule.points)
    gram = (basis * rule.weights[:, None]).T @ basis
    assert np.abs(gram - np.eye(space.size)).max() < 1e-10


_BASIS_DOMAINS = [
    pytest.param(domain, id=f"{name}-d{d}") for d in (1, 2) for name, domain in [
        *((f"cap{a:.3g}", cq.Cap(cq.north_pole(d), a))
          for a in (0.05, 0.3, 1.0, 2.0, 2.5, math.pi - 0.1)),
        ("collar", cq.Collar(cq.north_pole(d), 0.5, 1.0)), ("sphere", cq.Sphere(d))]]


@pytest.mark.parametrize("domain", _BASIS_DOMAINS)
def test_domain_basis_orthonormal_on_its_domain(domain):
    for n in (0, 1, 8, 16, 24):
        rule = cq.build_rule(domain, 2 * n + 40)
        basis = eval_domain_basis(domain, n, rule.points)
        assert basis.shape == (rule.points.shape[0], cq.PolySpace(domain.dim, n).size)
        gram = (basis * rule.weights[:, None]).T @ basis
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10, (domain, n)
        assert np.allclose(basis[:, 0], 1.0 / math.sqrt(cq.domain_measure(domain)),
                           rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_domain_basis_on_the_sphere_is_the_harmonic_basis(d):
    # equal to rounding, signs included, to the closed-form families
    pts = random_cap_points(cq.Cap(cq.north_pole(d), 3.0), 300, seed=3)
    pts[:2] = np.eye(d + 1)[-1] * [[1.0], [-1.0]]  # both poles
    got = eval_domain_basis(cq.Sphere(d), 12, pts)
    if d == 1:
        want = cq.polys.fourier_table(12, np.arctan2(pts[:, 0], pts[:, 1]))
    else:
        want = _column_basis_d2(pts, 12)
    assert np.abs(got - want).max() < 1e-12


def test_domain_basis_refuses_off_pole_domains_and_huge_tables():
    cap = cq.Cap(cq.north_pole(2), 1.0)
    with pytest.raises(ValueError, match="pole"):
        eval_domain_basis(cq.Cap(cq.SpherePoint([1.0, 0.0, 0.0]), 1.0), 2, E2.coords)
    with pytest.raises(ValueError, match="exceeds"):
        eval_domain_basis(cap, 99, np.tile(E2.coords, (20000, 1)))


def test_domain_basis_recurrence_is_computed_once_and_read_only():
    # the coefficients depend on (domain, degree) alone: an equal domain
    # reuses them, shared read-only, and writes the first call's bits
    cap = cq.Cap(E2, 0.7)
    pts = random_cap_points(cap, 50, seed=2)
    cq.polys._recurrence.cache_clear()
    first = eval_domain_basis(cap, 6, pts)
    again = eval_domain_basis(cq.Cap(cq.north_pole(2), 0.7), 6, pts)
    assert again.tobytes() == first.tobytes()
    info = cq.polys._recurrence.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    orders, a, b = cq.polys._recurrence(cap, 6)
    assert not any(arr.flags.writeable for arr in (orders, *a[1:], *b))


def test_basis_values_bounded_high_degree():
    space = cq.PolySpace(2, 64)
    pts = random_cap_points(cq.Cap(E2, 3.0), 500, seed=1)
    vals = eval_basis_many(space, pts)
    assert np.all(np.isfinite(vals))
    assert np.abs(vals).max() < 50.0


def test_eval_poly_matches_dot():
    space = cq.PolySpace(2, 6)
    p = cq.random_polynomial(space, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = cq.SpherePoint(rng.standard_normal(3))
        want = float(cq.eval_basis(space, x) @ p.coeffs)
        assert cq.eval_poly(p, x) == want
    zero = cq.PolyCoeffs(space, np.zeros(space.size))
    assert cq.eval_poly(zero, cq.SpherePoint([1, 0, 0])) == 0.0


def test_random_polynomial_deterministic_and_gaussian():
    space = cq.PolySpace(2, 3)
    a = cq.random_polynomial(space, seed=9)
    b = cq.random_polynomial(space, seed=9)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert cq.random_polynomial(cq.PolySpace(2, 0), seed=1).coeffs.shape == (1,)
    draws = np.concatenate([
        cq.random_polynomial(space, seed=s).coeffs for s in range(625)
    ])
    assert abs(draws.mean()) < 0.05


def test_project_member_reproduction():
    space = cq.PolySpace(2, 8)
    p = cq.random_polynomial(space, seed=11)
    f = lambda pts: eval_basis_many(space, pts) @ p.coeffs
    q, resid = cq.project_onto(space, f)
    assert resid <= 1e-9
    assert np.abs(q.coeffs - p.coeffs).max() < 1e-9


def test_project_orthogonal_residual():
    # a zonal harmonic of degree n+1 projects to nothing
    n = 6
    big = cq.PolySpace(2, n + 1)
    idx = (n + 1) ** 2 + (n + 1)  # (l, m) = (n+1, 0)
    c = np.zeros(big.size)
    c[idx] = 1.0
    f = lambda pts: eval_basis_many(big, pts) @ c
    _, resid = cq.project_onto(cq.PolySpace(2, n), f)
    assert resid == pytest.approx(1.0, abs=1e-9)


def test_composition_with_dilation_stays_polynomial():
    n = 4
    space = cq.PolySpace(2, n)
    p = cq.random_polynomial(space, seed=13)
    f = cq.compose_with_T(p, E2, clip=False)
    _, resid = cq.project_onto(cq.PolySpace(2, 8 * n), f)
    assert resid <= 1e-8


def test_compose_with_T_pointwise(cap_a1):
    space = cq.PolySpace(2, 5)
    p = cq.random_polynomial(space, seed=17)
    f = cq.compose_with_T(p, E2)
    const = cq.PolyCoeffs(cq.PolySpace(2, 0), np.array([2.5]))
    g = cq.compose_with_T(const, E2)
    rng = np.random.default_rng(19)
    small = cq.Cap(E2, math.pi / 8)
    pts = random_cap_points(small, 1000, seed=23)
    direct = cq.polys.eval_poly_many(p, cq.geometry.map_T_many(pts, E2.coords))
    assert np.abs(f(pts) - direct).max() < 1e-14
    assert g(cq.SpherePoint(pts[0])) == g(cq.SpherePoint(pts[1]))
    assert f(cq.SpherePoint(E2.coords)) == pytest.approx(cq.eval_poly(p, E2))
    with pytest.raises(ValueError):
        f(cq.SpherePoint([math.sin(0.5), 0, math.cos(0.5)]))


def test_d1_basis_ordering():
    space = cq.PolySpace(1, 2)
    u = 0.37
    x = cq.SpherePoint([math.sin(u), math.cos(u)])
    vals = cq.eval_basis(space, x)
    sq = 1 / math.sqrt(math.pi)
    assert vals[0] == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert vals[1] == pytest.approx(math.cos(u) * sq)
    assert vals[2] == pytest.approx(math.sin(u) * sq)
    assert vals[3] == pytest.approx(math.cos(2 * u) * sq)
    assert vals[4] == pytest.approx(math.sin(2 * u) * sq)


def test_eval_basis_dimension_mismatch():
    with pytest.raises(ValueError):
        cq.eval_basis(cq.PolySpace(2, 2), cq.SpherePoint([0.6, 0.8]))
    with pytest.raises(ValueError):
        cq.PolyCoeffs(cq.PolySpace(2, 2), np.zeros(3))


def _column_basis_d2(coords, n):
    # real spherical harmonics, one (l, m) column at a time by the normalized
    # associated Legendre recurrence: a closed-form reference for the d=2 basis
    npts = coords.shape[0]
    t = np.clip(coords[:, 2], -1.0, 1.0)
    s = np.hypot(coords[:, 0], coords[:, 1])
    phi = np.arctan2(coords[:, 1], coords[:, 0])
    out = np.empty((npts, (n + 1) ** 2))
    pmm = np.full(npts, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(n + 1):
        if m > 0:
            pmm = pmm * s * math.sqrt((2.0 * m + 1.0) / (2.0 * m))
            cos_m = np.cos(m * phi) * math.sqrt(2.0)
            sin_m = np.sin(m * phi) * math.sqrt(2.0)
        p_prev = np.zeros(npts)
        p_curr = pmm
        for l in range(m, n + 1):
            if l == m + 1:
                p_prev, p_curr = p_curr, math.sqrt(2.0 * m + 3.0) * t * p_curr
            elif l > m + 1:
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


@pytest.mark.parametrize("n", [0, 1, 2, 6, 12, 20, 24])
def test_basis_table_matches_column_reference(n):
    # a row's bits do not depend on the rows that share its call: any
    # prefix, across block edges and with both poles, is the full call's;
    # on the sphere the values are the closed-form harmonics'
    rng = np.random.default_rng(n)
    for d in (1, 2):
        block = max(1, cq.polys.BLOCK_ENTRIES // cq.PolySpace(d, n).size)
        pts = rng.standard_normal((4 * block, d + 1))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts[:2] = np.eye(d + 1)[-1] * [[-1.0], [1.0]]  # poles: s = 0, t = -1, 1
        pole = cq.north_pole(d)
        for domain in (cq.Cap(pole, 1.0), cq.Collar(pole, 0.5, 1.0), cq.Sphere(d)):
            full = eval_domain_basis(domain, n, pts)
            for rows in (0, 1, block - 1, block, block + 1, 3 * block + 7):
                table = eval_domain_basis(domain, n, pts[:rows])
                assert table.tobytes() == full[:rows].tobytes(), (domain, rows)
        if d == 2:
            assert np.abs(full - _column_basis_d2(pts, n)).max() < 1e-12


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_order_parts_turn_the_polynomial_about_the_pole(n):
    # f(R_z(g) y) = fourier_table(n, [g]) @ parts at rows of any azimuth,
    # against the basis table at the explicitly turned rows
    from capquad.polys import fourier_table, order_parts, order_table

    rng = np.random.default_rng(n + 40)
    space = cq.PolySpace(2, n)
    rows = rng.standard_normal((57, 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]  # the poles, where every turn is still
    coeffs = rng.standard_normal((space.size, 3))
    parts = order_parts(order_table(n, rows), coeffs)
    assert parts.shape == (2 * n + 1, len(rows), 3)
    for g in (0.0, 0.7, -2.4, math.pi, 5.9):
        c, s = math.cos(g), math.sin(g)
        turned = rows @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        want = eval_basis_many(space, turned) @ coeffs
        got = (fourier_table(n, [g]) @ parts.reshape(2 * n + 1, -1)).reshape(want.shape)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), g


@pytest.mark.parametrize("domain", [
    pytest.param(cq.Sphere(2), id="sphere"), pytest.param(cq.Cap(E2, 1.0), id="cap"),
    pytest.param(cq.Collar(E2, 0.5, 1.0), id="collar"), pytest.param(cq.Cap(E1, 1.0), id="arc")])
def test_basis_table_memory_stays_near_table_size(domain):
    # the blocked kernel's working arrays are bounded; a whole second table is not
    import tracemalloc

    pts = random_cap_points(cq.Cap(cq.north_pole(domain.dim), 3.0), 81002, seed=3)
    tracemalloc.start()
    try:
        table = eval_domain_basis(domain, 6, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 4 * 2**20


def test_as_point_function_takes_vectorized_callables_only():
    from capquad.polys import as_point_function

    pts = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    assert np.array_equal(as_point_function(lambda x: x[:, 2])(pts), [1.0, 0.8])
    with pytest.raises(ValueError, match=r"\(2,\).*\(\)"):
        as_point_function(lambda x: 1.0)(pts)
    with pytest.raises(ValueError, match=r"\(2,\).*\(2, 3\)"):
        as_point_function(lambda x: x)(pts)
    calls = []

    def failing(x):
        calls.append(x)
        raise ZeroDivisionError("inside f")

    # the exception of f propagates, with no second try one point at a time
    with pytest.raises(ZeroDivisionError, match="inside f"):
        as_point_function(failing)(pts)
    assert len(calls) == 1
