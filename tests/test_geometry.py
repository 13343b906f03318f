import dataclasses
import math

import numpy as np
import pytest

import capquad as cq
from capquad.geometry import (
    boundary_distance_many,
    contains,
    delta_r_many,
    north_frame,
    rho_many,
    ring_labels,
)
from capquad.points import canonical

from conftest import north_frame_per_node, random_cap_points, random_collar_points

E2 = cq.north_pole(2)
E1 = cq.north_pole(1)


def on_cap(cap, theta, phi=0.0):
    local = np.array([math.sin(theta) * math.cos(phi),
                      math.sin(theta) * math.sin(phi),
                      math.cos(theta)])
    return cq.SpherePoint(local @ north_frame(cap.center))


def test_sphere_point_normalizes():
    p = cq.SpherePoint([0.0, 0.0, 2.0])
    assert np.allclose(p.coords, [0, 0, 1])
    assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        cq.SpherePoint([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        cq.SpherePoint([1.0, 0.0, 0.0, 0.0])


def test_cap_alpha_range():
    cq.Cap(E2, math.pi - 0.1)
    with pytest.raises(ValueError):
        cq.Cap(E2, math.pi - 0.05)
    with pytest.raises(ValueError):
        cq.Cap(E2, 0.0)


def test_collar_invariants():
    cq.Collar(E2, 0.5, 1.0)
    with pytest.raises(ValueError):
        cq.Collar(E2, 1.0, 0.5)
    with pytest.raises(ValueError):
        cq.Collar(E2, 0.1, 1.0)  # width/alpha = 9 > 4


def test_geodesic_distance_basics():
    x = cq.SpherePoint([1, 0, 0])
    assert cq.geodesic_distance(x, x) == 0.0
    anti = cq.SpherePoint([0, 0, -1])
    assert cq.geodesic_distance(E2, anti) == pytest.approx(math.pi)
    assert cq.geodesic_distance(E2, x) == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        cq.geodesic_distance(E2, E1)


def test_geodesic_symmetry_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = cq.SpherePoint(rng.standard_normal(3))
        b = cq.SpherePoint(rng.standard_normal(3))
        assert cq.geodesic_distance(a, b) == cq.geodesic_distance(b, a)


def test_boundary_distance():
    cap = cq.Cap(E2, 1.0)
    assert cq.boundary_distance(cap, E2) == pytest.approx(1.0)
    edge = on_cap(cap, 1.0)
    assert cq.boundary_distance(cap, edge) == pytest.approx(0.0, abs=1e-12)
    cap5 = cq.Cap(E2, 0.5)
    assert cq.boundary_distance(cap5, on_cap(cap5, 0.2)) == pytest.approx(0.3)
    outside = on_cap(cap5, 0.7)
    with pytest.raises(cq.GeometryError):
        cq.boundary_distance(cap5, outside)


def test_rho_identity_and_boundary():
    cap = cq.Cap(E2, 1.0)
    assert cq.rho(cap, E2, E2) == 0.0
    edge = on_cap(cap, cap.alpha)
    assert cq.rho(cap, E2, edge) == pytest.approx(math.sqrt(2), rel=1e-7)
    with pytest.raises(cq.GeometryError):
        cq.rho(cap, E2, on_cap(cq.Cap(E2, 1.5), 1.4))


def test_rho_extended_precision_oracle():
    # term-by-term recomputation of the metric at 50 digits
    import mpmath

    mpmath.mp.dps = 50
    cap = cq.Cap(E2, 0.8)
    pts = random_cap_points(cap, 40, seed=5)
    for i in range(0, 40, 2):
        x, y = pts[i], pts[i + 1]
        got = float(rho_many(cap, x.reshape(1, -1), y)[0])
        xm = [mpmath.mpf(v) for v in x]
        ym = [mpmath.mpf(v) for v in y]
        em = [mpmath.mpf(v) for v in cap.center.coords]
        dot = lambda a, b: mpmath.fsum(u * v for u, v in zip(a, b))
        clip1 = lambda v: max(min(v, mpmath.mpf(1)), mpmath.mpf(-1))
        d_xy = mpmath.acos(clip1(dot(xm, ym)))
        alpha = mpmath.mpf(cap.alpha)
        b_x = alpha - mpmath.acos(clip1(dot(xm, em)))
        b_y = alpha - mpmath.acos(clip1(dot(ym, em)))
        want = mpmath.sqrt(d_xy**2 + alpha * (mpmath.sqrt(b_x) - mpmath.sqrt(b_y))**2) / alpha
        assert got == pytest.approx(float(want), rel=1e-12, abs=1e-13)


def test_delta_r_values():
    # direct substitutions in the closed formula
    cap = cq.Cap(E2, 0.5)
    assert cq.delta_r(cap, E2, 0.1) == pytest.approx(0.25 * (0.001 + 0.01))
    edge = on_cap(cap, 0.5)
    assert cq.delta_r(cap, edge, 0.1) == pytest.approx(0.25 * 0.001, rel=1e-5)
    cap1 = cq.Cap(E1, 1.0)
    # d=1: alpha^d (r^{d+1} + r^d sqrt(b/alpha)) = r^2 + r at the center
    assert cq.delta_r(cap1, E1, 0.5) == pytest.approx(0.5**2 + 0.5)
    with pytest.raises(ValueError):
        cq.delta_r(cap, E2, 0.0)


def test_delta_r_monotone_in_r():
    cap = cq.Cap(E2, 1.0)
    x = on_cap(cap, 0.7)
    rs = np.linspace(0.01, 1.0, 25)
    vals = [cq.delta_r(cap, x, r) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def _near_pairs(domain):
    """Pairs 1e-3 ... 1e-12 apart: at one polar angle on S^2, mirrored
    about the center on S^1 (both rows of a pair share their b)."""
    gaps = 10.0 ** -np.arange(3, 13)
    if domain.dim == 1:
        return (np.column_stack([np.sin(gaps), np.cos(gaps)]),
                np.column_stack([-np.sin(gaps), np.cos(gaps)]))
    theta = 0.5 * sum(domain.polar_range) + 0.1
    phi = 0.3 + np.stack([np.zeros_like(gaps), gaps])
    rows = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.full_like(phi, np.cos(theta))], axis=-1)
    return rows[0], rows[1]


@pytest.mark.parametrize("domain", [cq.Cap(E2, 1.0), cq.Cap(E1, 0.5), cq.Collar(E2, 0.5, 1.0)],
                         ids=["cap-d2", "cap-d1", "collar-d2"])
def test_rho_many_near_pairs_match_a_chord_oracle(domain):
    # rho is dist / alpha when b agrees; dist is the 50-digit chord of the
    # same float coordinates, taken to 2 arcsin(chord / 2) on a cap
    import mpmath

    xs, ys = _near_pairs(domain)
    assert np.array_equal(boundary_distance_many(domain, xs), boundary_distance_many(domain, ys))
    got = rho_many(domain, xs, ys)
    with mpmath.workdps(50):
        for x, y, rho in zip(xs, ys, got):
            chord = mpmath.sqrt(mpmath.fsum((mpmath.mpf(u) - mpmath.mpf(v)) ** 2
                                            for u, v in zip(x, y)))
            dist = chord if isinstance(domain, cq.Collar) else 2 * mpmath.asin(chord / 2)
            want = dist / mpmath.mpf(domain.alpha)
            assert abs(rho - want) <= 1e-14 * want
    # equal points read exactly 0, and one point meets the rows as its
    # repeated row does, bit for bit
    assert np.array_equal(rho_many(domain, xs, xs), np.zeros(len(xs)))
    assert np.array_equal(rho_many(domain, xs, ys[0]),
                          rho_many(domain, xs, np.repeat(ys[:1], len(xs), axis=0)))


def test_rho_ball_contains():
    cap = cq.Cap(E2, 1.0)
    ball = cq.RhoBall(cap, E2, 0.5)
    assert cq.rho_ball_contains(ball, E2)
    outside_domain = on_cap(cq.Cap(E2, 2.0), 1.5)
    assert not cq.rho_ball_contains(ball, outside_domain)
    # radius 2 covers the whole cap from the center: checked pointwise
    big = cq.RhoBall(cap, E2, 2.0)
    probes = random_cap_points(cap, 500, seed=11)
    for row in probes:
        assert cq.rho_ball_contains(big, cq.SpherePoint(row))


def test_rho_ball_volume_trivials(cap_a1):
    area = 2 * math.pi * (1 - math.cos(cap_a1.alpha))
    whole = cq.RhoBall(cap_a1, E2, 2.5)
    assert cq.rho_ball_volume(whole) == pytest.approx(area, rel=1e-10)
    vols = [cq.rho_ball_volume(cq.RhoBall(cap_a1, E2, r)) for r in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(vols, vols[1:]))
    assert vols[-1] > 0


def test_rho_ball_volume_monte_carlo(cap_a1):
    # independent oracle: uniform rejection count on the cap
    r = 0.1
    vol = cq.rho_ball_volume(cq.RhoBall(cap_a1, E2, r))
    pts = random_cap_points(cap_a1, 10**6, seed=123)
    dist = rho_many(cap_a1, pts, E2.coords)
    area = 2 * math.pi * (1 - math.cos(cap_a1.alpha))
    mc = area * float(np.mean(dist <= r))
    assert vol == pytest.approx(mc, rel=0.02)
    ratio = vol / cq.delta_r(cap_a1, E2, r)
    assert 1 / 20 <= ratio <= 20


def test_interval_metrics():
    assert cq.rho1(0.5, 0.0, 0.0) == 0.0
    assert cq.rho1(0.5, 0.0, 0.5) == pytest.approx(math.sqrt(2))
    assert cq.rho2(0.5, 0.0, 0.0) == 0.0
    assert cq.rho3(0.5, 0.3, 0.3) == 0.0
    with pytest.raises(cq.GeometryError):
        cq.rho1(0.5, 0.6, 0.0)


def test_rho1_extended_precision_oracle():
    import mpmath

    mpmath.mp.dps = 50
    rng = np.random.default_rng(2)
    alpha = 0.37
    for _ in range(50):
        x1, x2 = rng.uniform(-alpha, alpha, 2)
        got = cq.rho1(alpha, x1, x2)
        a = mpmath.mpf(alpha)
        b1 = min(abs(mpmath.mpf(x1) + a), abs(mpmath.mpf(x1) - a))
        b2 = min(abs(mpmath.mpf(x2) + a), abs(mpmath.mpf(x2) - a))
        want = mpmath.sqrt((mpmath.mpf(x1) - mpmath.mpf(x2))**2
                           + a * (mpmath.sqrt(b1) - mpmath.sqrt(b2))**2) / a
        assert got == pytest.approx(float(want), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5])
def test_interval_metric_equivalence(alpha):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-alpha, alpha, (2000, 2))
    r12, r23 = [], []
    for x1, x2 in xs:
        if abs(x1 - x2) < 1e-12:
            continue
        a, b, c = cq.rho1(alpha, x1, x2), cq.rho2(alpha, x1, x2), cq.rho3(alpha, x1, x2)
        r12.append(a / b)
        r23.append(b / c)
    for ratios in (r12, r23):
        arr = np.array(ratios)
        assert arr.max() / arr.min() <= 100


def test_rho4_rho5_basics(cap_a05):
    x = on_cap(cap_a05, 0.3, 0.4)
    assert cq.rho4(cap_a05, x, x) == 0.0
    assert cq.rho5(cap_a05, x, x) == 0.0
    pts = random_cap_points(cap_a05, 400, seed=3)
    ratios5 = []
    ratios4 = []
    alpha = cap_a05.alpha
    for i in range(0, 400, 2):
        x, y = cq.SpherePoint(pts[i]), cq.SpherePoint(pts[i + 1])
        r = cq.rho(cap_a05, x, y)
        if r < 1e-8:
            continue
        ratios5.append(r / cq.rho5(cap_a05, x, y))
        tx = cq.geodesic_distance(x, cq.SpherePoint(cap_a05.center.coords))
        ty = cq.geodesic_distance(y, cq.SpherePoint(cap_a05.center.coords))
        if min(tx, ty) >= alpha / 12:
            ratios4.append(r / cq.rho4(cap_a05, x, y))
    a5 = np.array(ratios5)
    a4 = np.array(ratios4)
    assert a5.max() / a5.min() <= 100
    assert a4.max() / a4.min() <= 100


def test_collar_rho_values(collar_std):
    x = on_cap(cq.Cap(E2, 2.0), 0.5)
    y = on_cap(cq.Cap(E2, 2.0), 1.0)
    got = cq.collar_rho(collar_std, x, y)
    # same meridian, both on the boundary: chordal term only
    assert got == pytest.approx(2.0 * math.sin(0.25) / 0.5, rel=1e-7)
    assert cq.collar_rho(collar_std, x, x) == 0.0
    with pytest.raises(cq.GeometryError):
        cq.collar_rho(collar_std, E2, x)


def test_collar_rho_vs_rho6(collar_std):
    pts = random_collar_points(collar_std, 600, seed=9)
    ratios = []
    for i in range(0, 600, 2):
        x, y = cq.SpherePoint(pts[i]), cq.SpherePoint(pts[i + 1])
        r = cq.collar_rho(collar_std, x, y)
        if r < 1e-8:
            continue
        ratios.append(r / cq.collar_rho6(collar_std, x, y))
    arr = np.array(ratios)
    assert arr.max() / arr.min() <= 100


def _axiom_sweep(dist_fn, sampler, n_triples, seed):
    pts = sampler(3 * n_triples, seed)
    for i in range(0, 3 * n_triples, 3):
        x, y, z = pts[i], pts[i + 1], pts[i + 2]
        dxy = dist_fn(x, y)
        assert dxy == dist_fn(y, x)
        assert dxy >= 0.0
        assert dist_fn(x, z) <= dxy + dist_fn(y, z) + 1e-10


@pytest.mark.parametrize("alpha", [0.25, 1.0])
def test_metric_axioms_cap(alpha):
    cap = cq.Cap(E2, alpha)
    sampler = lambda n, s: random_cap_points(cap, n, s)
    dist = lambda a, b: float(rho_many(cap, a.reshape(1, -1), b)[0])
    _axiom_sweep(dist, sampler, 400, seed=21)


def test_metric_axioms_collar(collar_std):
    sampler = lambda n, s: random_collar_points(collar_std, n, s)
    dist = lambda a, b: float(rho_many(collar_std, a.reshape(1, -1), b)[0])
    _axiom_sweep(dist, sampler, 400, seed=22)


def test_inclusion_in_geodesic_ball(cap_a1):
    # rho-balls sit inside geodesic balls of radius alpha * r
    pts = random_cap_points(cap_a1, 2000, seed=13)
    rng = np.random.default_rng(14)
    rs = rng.uniform(0.05, 1.0, 1000)
    for i in range(1000):
        x, y = pts[2 * i], pts[2 * i + 1]
        r = rs[i]
        if float(rho_many(cap_a1, x.reshape(1, -1), y)[0]) <= r:
            gd = math.acos(float(np.clip(x @ y, -1, 1)))
            assert gd <= cap_a1.alpha * r + 1e-10


def test_volume_regularity(cap_a1):
    # ball volumes vary by at most c*(1 + rho/r) between centers
    pts = random_cap_points(cap_a1, 60, seed=17)
    r = 0.15
    vols = cq.quadrature.balls_integral(cap_a1, pts, r)[0]
    worst = 0.0
    for i in range(0, 60, 2):
        x, y = pts[i], pts[i + 1]
        d = float(rho_many(cap_a1, x.reshape(1, -1), y)[0])
        factor = (vols[i] / vols[i + 1]) / (1.0 + d / r)
        worst = max(worst, factor)
    assert worst <= 20.0


def test_map_T_properties():
    cap = cq.Cap(E2, 1.0)
    assert np.allclose(cq.map_T(E2, E2).coords, E2.coords)
    x = on_cap(cap, math.pi / 16, 0.3)
    tx = cq.map_T(x, E2)
    assert cq.geodesic_distance(tx, E2) == pytest.approx(math.pi / 2, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta = rng.uniform(0, math.pi / 8)
        phi = rng.uniform(0, 2 * math.pi)
        p = on_cap(cap, theta, phi)
        tp = cq.map_T(p, E2)
        assert cq.geodesic_distance(tp, E2) == pytest.approx(8 * theta, abs=1e-12)
    with pytest.raises(cq.GeometryError):
        cq.map_T(on_cap(cap, 0.5), E2)


def test_poly_D():
    assert cq.poly_D(1, 0.3) == 1.0
    assert cq.poly_D(2, 1.0) == pytest.approx(8.0)
    theta = math.pi / 16
    assert cq.poly_D(2, math.cos(theta)) == pytest.approx(1.0 / math.sin(theta), rel=1e-12)
    # ratio-of-sines agreement away from the pole
    for theta in np.linspace(0.05, math.pi - 0.05, 40):
        want = math.sin(8 * theta) / math.sin(theta)
        assert cq.poly_D(2, math.cos(theta)) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        cq.poly_D(3, 0.0)


def test_domain_measure(collar_std):
    assert cq.domain_measure(cq.Cap(E2, 1.0)) == pytest.approx(2 * math.pi * (1 - math.cos(1)))
    assert cq.domain_measure(collar_std) == pytest.approx(
        2 * math.pi * (math.cos(0.5) - math.cos(1.0)))
    assert cq.domain_measure(cq.Cap(E1, 0.5)) == pytest.approx(1.0)
    assert cq.domain_measure(cq.Sphere(2)) == pytest.approx(4 * math.pi)


def test_interval_metric_domain_errors():
    for fn in (cq.rho2, cq.rho3):
        with pytest.raises(cq.GeometryError):
            fn(0.5, 0.6, 0.0)


def test_rho_ball_validation(cap_a1):
    with pytest.raises(cq.GeometryError):
        cq.RhoBall(cap_a1, cq.SpherePoint([0, 0, -1]), 0.5)
    with pytest.raises(ValueError):
        cq.RhoBall(cap_a1, E2, 0.0)
    with pytest.raises(ValueError):
        cq.Sphere(3)


def test_near_limit_alpha_pipeline():
    # the admissible range tops out just short of pi; everything still runs
    cap = cq.Cap(E2, 3.0)
    ns = cq.ring_lattice(cap, 0.25 / 2, seed=0, degree=2, delta=0.25)
    import capquad.solver as sol

    rule = sol.solve_weights(ns, 2)
    assert isinstance(rule, cq.CubatureRule)
    assert rule.residual <= 1e-10
    area = 2 * math.pi * (1 - math.cos(3.0))
    assert rule.weights.sum() == pytest.approx(area, rel=1e-9)


@pytest.mark.parametrize("dim", [1, 2])
def test_north_frame_bit_equal_to_per_node_frames(dim):
    # every canonical node set, rule and ball takes its coordinates through it
    rng = np.random.default_rng(9)
    rand = rng.standard_normal((4000, dim + 1))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    pole = np.zeros(dim + 1)
    pole[-1] = 1.0
    near = pole.copy()
    near[0] = 1e-14  # v.v = 1e-28: on the identity threshold
    nearer = pole.copy()
    nearer[0] = 5e-15
    coords = np.vstack([rand, pole, near, nearer, -pole, rand[:3]])
    want = np.array([north_frame_per_node(c) for c in coords])
    assert np.array([north_frame(c) for c in coords]).tobytes() == want.tobytes()
    assert (north_frame(pole) == np.eye(dim + 1)).all()
    assert (north_frame(nearer) == np.eye(dim + 1)).all()
    if dim == 2:
        nodes = cq.ring_lattice(cq.Cap(E2, 1.0), 0.25 / 6, degree=6, delta=0.25)
        want = np.array([north_frame_per_node(c) for c in nodes.coords])
        assert np.array([north_frame(c) for c in nodes.coords]).tobytes() == want.tobytes()


def _turned_rows(coords, angle):
    """Rows of a pole set turned to the centre at polar angle ``angle``, and that centre."""
    centre = cq.SpherePoint(np.array([math.sin(angle), 0.0, math.cos(angle)]))
    return coords @ north_frame(centre).T, centre


@pytest.mark.parametrize("domain, n", [
    (cq.Cap(E2, 0.05), 12), (cq.Cap(E2, 0.3), 8), (cq.Cap(E2, 1.0), 6), (cq.Cap(E2, 2.0), 8),
    (cq.Cap(E2, 2.5), 6), (cq.Collar(E2, 0.5, 1.0), 6)],
    ids=["cap0.05", "cap0.3", "cap1", "cap2", "cap2.5", "collar"])
def test_turned_lattices_keep_the_rings_of_their_pole_copy(domain, n):
    # a turn rounds each node's dot with the centre on its own, by a few
    # ulps: exact-z groups split a lattice ring into many
    coords = cq.ring_lattice(domain, 0.25 / n, degree=n, delta=0.25).coords
    want, order, starts = ring_labels(domain, coords)
    assert np.array_equal(want[order], np.repeat(np.arange(starts.size - 1), np.diff(starts)))
    assert 4 * (want.max() + 1) < len(coords)
    for angle in (0.2, 0.7, 1.3):
        rows, centre = _turned_rows(coords, angle)
        turned = dataclasses.replace(domain, center=centre)
        assert np.array_equal(ring_labels(turned, rows)[0], want)
        back = canonical(cq.NodeSet(turned, rows, 0.25 / n, degree=n, validate=False))
        assert np.array_equal(ring_labels(back.domain, back.coords)[0], want)


def test_d1_and_scattered_rows_are_rings_of_one(cap_a1):
    arc = cq.ring_lattice(cq.Cap(E1, 1.0), 0.25 / 16, degree=16, delta=0.25)
    labels, order, starts = ring_labels(arc.domain, arc.coords)
    assert np.array_equal(labels, np.arange(len(arc))) and np.array_equal(order, labels)
    assert np.array_equal(starts, np.arange(len(arc) + 1))
    coords = random_cap_points(cap_a1, 2000, seed=4)
    labels, order, starts = ring_labels(cap_a1, coords)
    assert np.array_equal(np.sort(labels), np.arange(len(coords)))
    assert np.array_equal(starts, np.arange(len(coords) + 1))
    dots = coords[order] @ cap_a1.center.coords
    assert np.all(np.diff(dots) > 0)


def test_ring_tolerance_is_rounding_level():
    # dots 1e-13 apart are two polar angles, dots one rounding step apart
    # one: the snap to a ring's first row must stay at rounding level
    z = np.array([0.5, 0.5 + 1e-13, 0.5, np.nextafter(0.5, 1.0), 0.9])
    coords = np.column_stack([np.sqrt(1.0 - z * z), np.zeros(5), z])
    labels, order, starts = ring_labels(cq.Cap(E2, 1.5), coords)
    assert labels.tolist() == [0, 1, 0, 0, 2]
    assert order.tolist() == [0, 2, 3, 1, 4] and starts.tolist() == [0, 3, 4, 5]
