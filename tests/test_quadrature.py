import math

import numpy as np
import pytest

import capquad as cq
from capquad.geometry import boundary_distance_many, contains, rho_many
from capquad.polys import eval_basis_many
from capquad import quadrature
from capquad.quadrature import (
    QuadratureError,
    balls_integral,
    domain_moments,
    double_until_stable,
    gauss_legendre,
    integrate_adaptive,
)

from conftest import random_cap_points

E2 = cq.north_pole(2)
E1 = cq.north_pole(1)
ONES = lambda pts: np.ones(len(pts))


def test_gauss_legendre_nodes():
    for order in (2, 5, 16, 64, 200):
        x, w = gauss_legendre(order)
        assert np.all(np.diff(x) > 0)
        assert np.all(np.abs(x) < 1.0)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(2.0, abs=1e-14)
    # degree-2*order-1 exactness
    x, w = gauss_legendre(8)
    for k in range(16):
        assert w @ x**k == pytest.approx(2.0 / (k + 1) if k % 2 == 0 else 0.0, abs=1e-14)


def test_area_trivials(collar_std):
    cap = cq.Cap(E2, 1.0)
    assert cq.integrate(cq.build_rule(cap, 8), ONES) == pytest.approx(
        2 * math.pi * (1 - math.cos(1)), rel=1e-13)
    assert cq.integrate(cq.build_rule(collar_std, 8), ONES) == pytest.approx(
        2 * math.pi * (math.cos(0.5) - math.cos(1.0)), rel=1e-13)
    arc = cq.Cap(E1, 0.7)
    assert cq.integrate(cq.build_rule(arc, 8), ONES) == pytest.approx(1.4, rel=1e-13)


def test_rule_invariants():
    cap = cq.Cap(E2, 1.2)
    rule = cq.build_rule(cap, 10)
    assert np.all(rule.polar_weights > 0)
    assert rule.polar_weights.sum() == pytest.approx(1 - math.cos(1.2), abs=1e-14)
    assert np.all(rule.polar_nodes > math.cos(1.2))
    assert np.all(rule.polar_nodes < 1.0)
    assert rule.azimuth_count >= 2 * 10 + 1
    with pytest.raises(ValueError):
        cq.build_rule(cap, 201)


def test_odd_azimuth_vanishes():
    cap = cq.Cap(E2, 1.0)
    rule = cq.build_rule(cap, 6)
    f = lambda pts: pts[:, 1]  # odd in azimuth about the pole
    assert abs(cq.integrate(rule, f)) < 1e-14


@pytest.mark.parametrize("domain_kind", ["cap2", "collar2", "cap1"])
def test_polynomial_exactness_vs_moments(domain_kind, collar_std):
    if domain_kind == "cap2":
        domain, n = cq.Cap(E2, 1.3), 12
    elif domain_kind == "collar2":
        domain, n = collar_std, 12
    else:
        domain, n = cq.Cap(E1, 2.9), 40
    space = cq.PolySpace(domain.dim, n)
    rule = cq.build_rule(domain, n)
    basis = eval_basis_many(space, rule.points)
    got = basis.T @ rule.weights
    want = domain_moments(domain, n)
    assert np.abs(got - want).max() < 1e-12


def test_rotated_cap_moments_match_quadrature():
    # canonical-frame moments still hold for an off-pole cap by rotation
    center = cq.SpherePoint([0.4, -0.3, 0.87])
    cap = cq.Cap(center, 0.9)
    rule = cq.build_rule(cap, 8)
    frame = cq.geometry.north_frame(center)
    space = cq.PolySpace(2, 8)
    basis = eval_basis_many(space, rule.points @ frame)
    got = basis.T @ rule.weights
    assert np.abs(got - domain_moments(cq.Cap(E2, 0.9), 8)).max() < 1e-12


def test_parseval_full_sphere():
    space = cq.PolySpace(2, 10)
    p = cq.random_polynomial(space, seed=3)
    rule = cq.build_rule(cq.Sphere(2), 2 * 10)
    f2 = lambda pts: (eval_basis_many(space, pts) @ p.coeffs) ** 2
    assert cq.integrate(rule, f2) == pytest.approx(float(p.coeffs @ p.coeffs), rel=1e-10)


def test_cap_moments_values():
    hemi = cq.Cap(E2, math.pi / 2)
    m = domain_moments(hemi, 1)
    assert m[0] == pytest.approx(math.sqrt(math.pi))          # 2pi(1-cos a)/sqrt(4pi)
    assert m[2] == pytest.approx(math.pi * math.sqrt(3 / (4 * math.pi)))
    assert m[1] == 0.0 and m[3] == 0.0
    m6 = domain_moments(cq.Cap(E2, 0.8), 6)
    for l in range(7):
        for mm in range(-l, l + 1):
            if mm != 0:
                assert m6[l * l + l + mm] == 0.0
    d1 = domain_moments(cq.Cap(E1, 0.5), 3)
    assert d1[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert d1[1] == pytest.approx(2 * math.sin(0.5) / math.sqrt(math.pi))
    assert d1[2] == 0.0


def test_integrate_adaptive_polynomial_and_zero():
    cap = cq.Cap(E2, 1.0)
    space = cq.PolySpace(2, 4)
    p = cq.random_polynomial(space, seed=8)
    f2 = lambda pts: (eval_basis_many(space, pts) @ p.coeffs) ** 2
    fixed = cq.integrate(cq.build_rule(cap, 8), f2)
    assert integrate_adaptive(cap, f2, tol=1e-10) == pytest.approx(fixed, rel=1e-12)
    assert integrate_adaptive(cap, ONES, tol=1e-10) == pytest.approx(
        2 * math.pi * (1 - math.cos(1)), rel=1e-12)
    assert integrate_adaptive(cap, lambda pts: np.zeros(len(pts)), tol=1e-10) == 0.0
    with pytest.raises(ValueError):
        integrate_adaptive(cap, ONES, tol=1e-11)


def test_integrate_adaptive_nonconvergent_raises():
    cap = cq.Cap(E2, 1.0)
    rng_f = lambda pts: np.sign(np.sin(60 * np.arctan2(pts[:, 1], pts[:, 0])))
    with pytest.raises(QuadratureError) as err:
        integrate_adaptive(cap, rng_f, tol=1e-10)
    assert len(err.value.estimates) == 2
    # permissive mode returns the last estimate instead
    val = integrate_adaptive(cap, rng_f, tol=1e-10, on_fail="last")
    assert np.isfinite(val)


def test_adaptive_monotone_on_abs_integrand():
    cap = cq.Cap(E2, 1.0)
    space = cq.PolySpace(2, 6)
    p = cq.random_polynomial(space, seed=12)
    fabs = lambda pts: np.abs(eval_basis_many(space, pts) @ p.coeffs)
    ests = [cq.integrate(cq.build_rule(cap, o), fabs) for o in (8, 16, 32, 64, 128)]
    diffs = [abs(b - a) for a, b in zip(ests, ests[1:])]
    assert diffs[-1] < diffs[0]


def test_hemisphere_abs_zonal_monte_carlo():
    # adaptive integral of |Y_1^0| over the upper hemisphere vs closed form and MC
    hemi = cq.Cap(E2, math.pi / 2)
    space = cq.PolySpace(2, 1)
    c = np.zeros(4)
    c[2] = 1.0
    fabs = lambda pts: np.abs(eval_basis_many(space, pts) @ c)
    got = integrate_adaptive(hemi, fabs, tol=1e-10)
    closed = math.pi * math.sqrt(3 / (4 * math.pi))
    assert got == pytest.approx(closed, rel=1e-9)
    pts = random_cap_points(hemi, 10**7, seed=99)
    mc = 2 * math.pi * float(np.mean(fabs(pts)))
    assert got == pytest.approx(mc, abs=5e-4)


def test_balls_integral_batch_matches_single(cap_a1, monkeypatch):
    pts = random_cap_points(cap_a1, 32, seed=31)
    vols, _, unconverged = balls_integral(cap_a1, pts, 0.12)
    assert unconverged == 0
    # a single order cannot be compared with anything: every ball is flagged
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_BALL_ORDERS", (32,))
        assert balls_integral(cap_a1, pts, 0.12)[2] == 32
    for k in (0, 7, 31):
        ball = cq.RhoBall(cap_a1, cq.SpherePoint(pts[k]), 0.12)
        assert cq.rho_ball_volume(ball) == pytest.approx(vols[k], rel=1e-14)


def test_balls_integral_takes_one_ball_per_ring_of_turned_centres(monkeypatch):
    # centres turned off the pole keep their pole copy's rings (dots with
    # the centre a few ulps apart): one ball per ring, at its first centre
    import dataclasses

    from capquad.geometry import north_frame

    cap = cq.Cap(E2, 1.0)
    pole = cq.ring_lattice(cap, 0.25 / 4, degree=4, delta=0.25).coords
    centre = cq.SpherePoint([0.4, -0.3, 0.87])
    turned = dataclasses.replace(cap, center=centre), pole @ north_frame(centre).T
    seen = []

    def counting(domain, theta_c, *rest):
        seen.append(theta_c.size)
        return evaluate(domain, theta_c, *rest)

    evaluate = quadrature._eval_balls_d2
    monkeypatch.setattr(quadrature, "_eval_balls_d2", counting)
    want = balls_integral(cap, pole, 0.1, lambda b: 1.0 + b)
    rings = seen[0]
    assert 4 * rings < len(pole)
    seen.clear()
    got = balls_integral(*turned, 0.1, lambda b: 1.0 + b)
    assert seen[0] == rings and got[2] == want[2]
    labels = cq.geometry.ring_labels(*turned)[0]
    for g, w in zip(got[:2], want[:2]):
        assert all(np.ptp(g[labels == r]) == 0.0 for r in range(rings))
        assert np.max(np.abs(g - w) / w) <= 1e-12


def test_double_until_stable_waits_for_every_row():
    # column 0 agrees in both rows from order 2 on; column 1's first row
    # agrees at once but its second row only from order 3 on, and
    # column 2 never agrees in its second row
    table = {1: [[1.0, 5.0, 7.0], [2.0, 3.0, 1.0]],
             2: [[1.0, 5.0, 7.0], [2.0, 4.0, 2.0]],
             3: [[1.0, 5.0, 7.0], [2.0, 4.0, 3.0]]}
    seen = []

    def estimate(order, cols):
        seen.append(cols.tolist())
        return np.asarray(table[order])[:, cols]

    converged, prev, last = double_until_stable(estimate, (1, 2, 3), 1e-12, 3)
    assert seen == [[0, 1, 2], [0, 1, 2], [1, 2]]
    assert converged.tolist() == [True, True, False]
    assert last.tolist() == [[1.0, 5.0, 7.0], [2.0, 4.0, 3.0]]
    assert prev.tolist() == [[1.0, 5.0, 7.0], [2.0, 4.0, 2.0]]


def test_ball_average_constant_is_exact(cap_a05):
    from capquad.quadrature import balls_integral

    vols, masses, _ = balls_integral(cap_a05, E2.coords.reshape(1, -1), 0.125,
                                     lambda pts: np.full(len(pts), 3.7))
    avg = masses[0] / vols[0]
    assert avg == pytest.approx(3.7, rel=1e-15)


def test_moments_match_rule_high_degree():
    cap = cq.Cap(E2, 0.9)
    n = 24
    rule = cq.build_rule(cap, n)
    basis = eval_basis_many(cq.PolySpace(2, n), rule.points)
    got = basis.T @ rule.weights
    assert np.abs(got - domain_moments(cap, n)).max() < 1e-12


def _polar_point(theta, phi):
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


@pytest.mark.parametrize("domain, center, r, batches, rel", [
    (cq.Cap(E2, 1.0), _polar_point(0.45, 0.3), 0.15, 1, 0.02),    # interior ball
    (cq.Cap(E2, 1.0), _polar_point(0.95, -2.0), 0.2, 1, 0.02),    # touches the cap boundary
    # at the cap centre the ball holds the pole of the frame, where the
    # row half-width steps from pi to 0 at the ball's polar edge
    (cq.Cap(E2, 1.0), E2.coords, 0.1, 4, 0.005),
    (cq.Collar(E2, 0.5, 1.0), _polar_point(0.7, 1.0), 0.3, 1, 0.02),
], ids=["cap-interior", "cap-boundary", "cap-centre", "collar"])
def test_balls_integral_monte_carlo(domain, center, r, batches, rel):
    # independent oracle: a rejection count of batches * 10^6 points over
    # a geodesic cap around the center that holds the ball (rho <= r
    # bounds the geodesic distance by alpha * r on caps and the chord by
    # alpha * r on collars)
    weight = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
    vols, masses, unconverged = balls_integral(domain, center, r, weight.eval_b)
    assert unconverged == 0
    reach = 2 * math.asin(min(domain.alpha * r, 2.0) / 2) + 1e-3
    hits = mass = 0.0
    for k in range(batches):
        pts = random_cap_points(cq.Cap(cq.SpherePoint(center), reach), 10**6, seed=321 + k)
        inside = contains(domain, pts) & (rho_many(domain, pts, center) <= r)
        hits += float(np.mean(inside))
        b = boundary_distance_many(domain, pts)
        mass += float(np.mean(np.where(inside, weight.eval_b(b), 0.0)))
    area = 2 * math.pi * (1 - math.cos(reach))
    assert vols[0] == pytest.approx(area * hits / batches, rel=rel)
    assert masses[0] == pytest.approx(area * mass / batches, rel=rel)

