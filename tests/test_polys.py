import math

import numpy as np
import pytest

import capquad as cq
from capquad.polys import eval_basis_many

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
