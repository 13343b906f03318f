import dataclasses
import math

import numpy as np
import pytest

import capquad as cq
from capquad import solver
from capquad.geometry import domain_measure, north_frame
from capquad.points import canonical
from capquad.polys import eval_basis_many, eval_domain_basis
from capquad.quadrature import domain_moments

from conftest import random_cap_points, three_node_set

E2 = cq.north_pole(2)
E1 = cq.north_pole(1)


def test_degree0_single_node_d2():
    cap = cq.Cap(E2, math.pi / 2)
    ns = cq.NodeSet(cap, E2.coords.reshape(1, -1), 1.0)
    rule = cq.solve_weights(ns, 0)
    assert isinstance(rule, cq.CubatureRule)
    assert rule.weights[0] == pytest.approx(2 * math.pi, rel=1e-12)


def test_degree0_single_node_d1():
    cap = cq.Cap(E1, 0.5)
    ns = cq.NodeSet(cap, E1.coords.reshape(1, -1), 1.0)
    rule = cq.solve_weights(ns, 0)
    assert rule.weights[0] == pytest.approx(1.0, rel=1e-12)


def test_accepted_rule_properties(rule_a1_n8):
    assert np.all(rule_a1_n8.weights > 0)
    assert rule_a1_n8.residual <= 1e-10
    area = 2 * math.pi * (1 - math.cos(1.0))
    assert rule_a1_n8.weights.sum() == pytest.approx(area, rel=1e-9)
    assert cq.verify_exactness(rule_a1_n8) <= 1e-10
    assert cq.verify_exactness(rule_a1_n8, 0) <= 1e-10
    with pytest.raises(ValueError):
        cq.verify_exactness(rule_a1_n8, 9)


def test_exactness_on_random_polynomials(rule_a1_n8, cap_a1):
    space = cq.PolySpace(2, rule_a1_n8.degree)
    basis_nodes = eval_basis_many(space, rule_a1_n8.nodes.coords)
    moments = domain_moments(cq.Cap(E2, cap_a1.alpha), rule_a1_n8.degree)
    rng = np.random.default_rng(77)
    for _ in range(100):
        c = rng.standard_normal(space.size)
        disc = float(rule_a1_n8.weights @ (basis_nodes @ c))
        exact = float(moments @ c)
        assert abs(disc - exact) <= 1e-9 * (1 + abs(exact)) * np.linalg.norm(c)


def test_feasibility_monotone_in_degree(nodes_a1_n8):
    for lower in (6, 4, 2, 0):
        rule = cq.solve_weights(nodes_a1_n8, lower)
        assert isinstance(rule, cq.CubatureRule)


def test_sparse_set_infeasible(cap_a1):
    # a deliberately thin set cannot match degree-8 moments
    ns = cq.ring_lattice(cap_a1, 4.0 / 8, seed=0, degree=8, delta=4.0)
    result = cq.solve_weights(ns, 8)
    assert isinstance(result, cq.Infeasible)
    assert result.residual > 1e-10
    assert np.isfinite(result.residual)


def test_weight_sharpness(rule_a1_n8):
    lo, hi = cq.weight_sharpness(rule_a1_n8)
    assert 0 < lo <= hi
    assert hi / lo <= 1e3


def test_min_norm_weight_sharpness(rule_a1_n8):
    # the minimum profile-weighted-norm weights follow the ball-volume
    # surrogate closely; the max-entropy fallback piles weight next to a
    # hole instead (a spread of 25.8 on the holed lattice of
    # test_max_entropy_fallback_solves_where_min_norm_goes_negative)
    lo, hi = cq.weight_sharpness(rule_a1_n8)
    assert hi / lo <= 10


def test_dense_set_takes_min_norm_path(rule_a1_n8):
    assert rule_a1_n8.solver_meta["solver"] == "min-norm"


def _holed_lattice(domain, hole=0.15, degree=8, at=0.5):
    """A ring lattice at delta 1 and the same lattice without the nodes
    within geodesic ``hole`` of a point at polar angle ``at``."""
    ns = cq.ring_lattice(domain, 1.0 / degree, seed=0, degree=degree, delta=1.0)
    sin, cos = math.sin(at), math.cos(at)
    centre = np.array([sin, cos] if domain.dim == 1 else [sin, 0.0, cos])
    return ns, cq.NodeSet(domain, ns.coords[ns.coords @ centre < math.cos(hole)], ns.epsilon,
                          degree=degree)


def _gauss_product(degree):
    """The minimal Gauss product set on the cap of radius 1: degree/2 + 1
    Gauss-Legendre rows in cos(theta) on [cos 1, 1] times degree + 1 evenly
    spaced azimuths, fewer nodes than the (degree + 1)^2 moments, though
    positive exact weights exist."""
    x = np.polynomial.legendre.leggauss(degree // 2 + 1)[0]
    z = np.repeat((1 + math.cos(1.0) + (1 - math.cos(1.0)) * x) / 2, degree + 1)
    phi = np.tile(2 * math.pi * np.arange(degree + 1) / (degree + 1), degree // 2 + 1)
    s = np.sqrt(1 - z * z)
    return cq.NodeSet(cq.Cap(E2, 1.0), np.column_stack([s * np.cos(phi), s * np.sin(phi), z]),
                      0.0, degree=degree)


def test_max_entropy_fallback_solves_where_min_norm_goes_negative(cap_a1):
    # the lattice's own min-norm weights are positive; a hole in it is not
    ns, holed = _holed_lattice(cap_a1)
    assert len(ns) == 217
    assert cq.solve_weights(ns, 8).solver_meta["solver"] == "min-norm"
    assert len(holed) == 213
    rule = cq.solve_weights(holed, 8)
    assert isinstance(rule, cq.CubatureRule)
    assert rule.solver_meta["solver"] == "max-entropy"
    assert np.all(rule.weights > 0)
    assert rule.residual <= 1e-10


def test_max_entropy_without_convergence_is_infeasible(cap_a1):
    # a hole too large to fill: the Gram is positive definite, so the
    # min-norm weights are exact but 46 of them fall below the floor, and
    # the Newton iteration stops without positive exact weights
    holed = _holed_lattice(cap_a1, 0.25)[1]
    result = cq.solve_weights(holed, 8)
    assert isinstance(result, cq.Infeasible)
    assert len(result.zero_nodes) == 46
    assert result.residual <= 1e-12  # the exact, partly negative min-norm weights
    assert "max-entropy Newton stopped: " in result.message
    assert "least-squares bound" not in result.message


_CAP1, _COLLAR, _ARC1 = cq.Cap(E2, 1.0), cq.Collar(E2, 0.5, 1.0), cq.Cap(E1, 1.0)


@pytest.mark.parametrize("make, size, degree, accepted", [
    pytest.param(lambda: _holed_lattice(_CAP1)[1], 213, 8, True, id="cap-hole-0.15"),
    pytest.param(lambda: _holed_lattice(_COLLAR, 0.2, at=0.75)[1], 615, 8, True,
                 id="collar-hole-0.2"),
    *[pytest.param(lambda n=n: _gauss_product(n), size, n, True, id=f"gauss-{n}")
      for n, size in ((4, 15), (8, 45), (12, 91))],
    *[pytest.param(lambda h=h: _holed_lattice(_CAP1, h)[1], size, 8, False, id=f"cap-hole-{h}")
      for h, size in ((0.25, 205), (0.35, 197), (0.5, 171))],
    pytest.param(lambda: _holed_lattice(_COLLAR, 0.3, at=0.75)[1], 571, 8, False,
                 id="collar-hole-0.3"),
    *[pytest.param(lambda h=h: _holed_lattice(_ARC1, h, 16)[1], size, 16, False,
                   id=f"arc-hole-{h}") for h, size in ((0.1, 44), (0.2, 41), (0.3, 36))],
    pytest.param(three_node_set, 3, 4, False, id="three-nodes"),
    pytest.param(lambda: cq.ring_lattice(_CAP1, 0.5, seed=0, degree=8, delta=4.0), 17, 8, False,
                 id="sparse-lattice"),
])
def test_fallback_accepts_and_refuses_as_nnls_did(make, size, degree, accepted):
    # each set sends the solve past the min-norm path; the outcomes are the
    # ones the earlier NNLS fallback reached on them
    nodes = make()
    assert len(nodes) == size
    result = cq.solve_weights(nodes, degree)
    assert isinstance(result, cq.CubatureRule) == accepted
    if accepted:
        assert result.solver_meta["solver"] != "min-norm"
        assert np.all(result.weights >= solver.positivity_floor(nodes))
        assert result.residual <= 1e-10
        assert cq.verify_exactness(result) <= 1e-10
    else:
        assert np.isfinite(result.residual)


def test_sharpness_single_node_degree0():
    cap = cq.Cap(E2, 0.8)
    ns = cq.NodeSet(cap, E2.coords.reshape(1, -1), 1.0)
    rule = cq.solve_weights(ns, 0)
    lo, hi = cq.weight_sharpness(rule)
    assert lo == hi
    assert lo > 0


def test_collar_solve(collar_std):
    ns = cq.ring_lattice(collar_std, 0.25 / 6, seed=0, degree=6, delta=0.25)
    rule = cq.solve_weights(ns, 6)
    assert isinstance(rule, cq.CubatureRule)
    assert rule.residual <= 1e-10
    measure = 2 * math.pi * (math.cos(0.5) - math.cos(1.0))
    assert rule.weights.sum() == pytest.approx(measure, rel=1e-9)


def test_solver_deterministic(nodes_a1_n8):
    r1 = cq.solve_weights(nodes_a1_n8, 8)
    r2 = cq.solve_weights(nodes_a1_n8, 8)
    assert np.array_equal(r1.weights, r2.weights)


def test_rejects_empty_and_bad_tol(nodes_a1_n8, cap_a1):
    with pytest.raises(ValueError):
        cq.solve_weights(cq.NodeSet(cap_a1, np.empty((0, 3)), 0.0), 2)
    with pytest.raises(ValueError):
        cq.solve_weights(nodes_a1_n8, 4, tol=1e-13)


@pytest.mark.parametrize("domain, n", [
    (cq.Cap(E2, 1.0), 12), (cq.Collar(E2, 0.5, 1.0), 6), (cq.Cap(E1, 1.0), 16)],
    ids=["cap", "collar", "arc"])
def test_rule_is_exact_on_every_function_of_the_domain_basis(domain, n):
    # the rule sum of each orthonormal function of the domain matches its
    # integral; the full-sphere harmonic basis of a truncated solve missed
    # by about 1e-2 on a cap
    ns = cq.ring_lattice(domain, 0.25 / n, seed=42, degree=n, delta=0.25)
    rule = cq.solve_weights(ns, n)
    assert isinstance(rule, cq.CubatureRule)
    ref = cq.build_rule(domain, 2 * n + 8)
    want = ref.weights @ eval_domain_basis(domain, n, ref.points)
    got = rule.weights @ eval_domain_basis(domain, n, rule.nodes.coords)
    assert np.abs(got - want).max() <= 1e-12
    assert rule.residual <= 1e-12


def test_three_nodes_at_degree4_infeasible():
    # the min-norm system is singular, the max-entropy path's least-squares
    # bound refuses the set, and the result is Infeasible with finite diagnostics
    result = cq.solve_weights(three_node_set(), 4)
    assert isinstance(result, cq.Infeasible)
    assert 1e-10 < result.residual < np.inf
    assert result.zero_nodes == []


def test_least_squares_refusal_reports_the_bound():
    # refused by the least-squares bound, the Infeasible carries that bound:
    # no weights of any sign, the bare profile's among them, fall below it
    nodes = three_node_set()
    result = cq.solve_weights(nodes, 4)
    assert result.bound and f"least-squares bound {result.residual:.3e}:" in result.message
    a, moments = solver._moment_matrix(nodes, 4)
    trials = np.vstack([solver._profile(canonical(nodes)),
                        np.random.default_rng(0).normal(size=(200, len(nodes)))])
    trials = np.vstack([trials, np.linalg.lstsq(a, moments, rcond=None)[0]])
    least = min(solver.moment_residual(a @ w, moments) for w in trials)
    assert 0 < result.residual <= least


def dense_min_norm(nodes, degree):
    """The min-norm weights P A^T (A P A^T)^-1 m from the full basis table at
    every node: the reference the ring factorization must reproduce."""
    frame = canonical(nodes)
    a = eval_domain_basis(frame.domain, degree, frame.coords).T
    moments = np.zeros(a.shape[0])
    moments[0] = math.sqrt(domain_measure(frame.domain))
    profile = solver._profile(frame)
    return profile * (a.T @ np.linalg.solve((a * profile) @ a.T, moments))


def assert_min_norm_matches_reference(rule, degree, bound=1e-12):
    assert rule.solver_meta["solver"] == "min-norm"
    want = dense_min_norm(rule.nodes, degree)
    assert np.max(np.abs(rule.weights - want) / want) <= bound
    assert abs(rule.residual - cq.verify_exactness(rule)) <= 1e-13


@pytest.mark.parametrize("domain, set_degree, degree, short", [
    (cq.Cap(E2, 0.3), 8, 0, False), (cq.Cap(E2, 0.3), 8, 8, True),
    (cq.Cap(E2, 1.0), 16, 4, True), (cq.Cap(E2, 1.0), 16, 16, True),
    (cq.Cap(E2, 2.0), 8, 8, True), (cq.Collar(E2, 0.5, 1.0), 8, 12, False)],
    ids=["cap0.3-n0", "cap0.3-n8", "cap1-n4", "cap1-n16", "cap2-n8", "collar-n12"])
def test_ring_weights_match_the_dense_min_norm_formula(domain, set_degree, degree, short):
    # short rings (fewer than 2n + 1 nodes: the pole and the rings around
    # it on a cap) go in as loose rows; every other ring through its F_r
    ns = cq.ring_lattice(domain, 0.5 / set_degree, degree=set_degree, delta=0.5)
    rule = cq.solve_weights(ns, degree)
    meta = rule.solver_meta
    assert meta["rings"] > 0 and meta["ring_nodes"] + meta["loose"] == len(ns)
    assert (meta["loose"] > 0) == short
    assert_min_norm_matches_reference(rule, degree)


def _turned(nodes, angle=0.7):
    """The set turned to the centre at polar angle ``angle``, by the pole's frame."""
    centre = cq.SpherePoint(np.array([math.sin(angle), 0.0, math.cos(angle)]))
    return cq.NodeSet(dataclasses.replace(nodes.domain, center=centre),
                      nodes.coords @ north_frame(centre).T, nodes.epsilon,
                      degree=nodes.degree, validate=False)


def test_random_sets_go_loose_and_turned_sets_keep_their_rings(cap_a1):
    # no two random nodes share a polar angle; a turn off the pole and back
    # rounds each node's canonical z on its own, by a few ulps, and the
    # rings are grouped within rounding and take one profile value each, at
    # their first row, so the turned set keeps them all; thin caps snap z
    # the most (see the test below), hence their looser bound
    coords = random_cap_points(cap_a1, 1500, seed=5)
    random_set = cq.NodeSet(cap_a1, coords, 0.25 / 4, degree=4, validate=False)
    rule = cq.solve_weights(random_set, 4)
    assert rule.solver_meta["ring_nodes"] == 0
    assert_min_norm_matches_reference(rule, 4)
    thin, collar = cq.Cap(E2, 0.05), cq.Collar(E2, 0.5, 1.0)
    for domain, degree, ring_nodes, bound in [
            (cap_a1, 6, 1818, 1e-12), (thin, 4, 910, 1e-10), (thin, 8, 3551, 1e-10),
            (collar, 4, 2473, 1e-12), (collar, 8, 9831, 1e-12)]:
        lattice = cq.ring_lattice(domain, 0.25 / degree, degree=degree, delta=0.25)
        pole = cq.solve_weights(lattice, degree)
        rule = cq.solve_weights(_turned(lattice), degree)
        for key in ("ring_nodes", "rings", "loose"):
            assert rule.solver_meta[key] == pole.solver_meta[key]
        assert rule.solver_meta["ring_nodes"] == ring_nodes
        assert_min_norm_matches_reference(rule, degree, bound)


def test_turned_thin_cap_solves_through_rings_near_the_dense_formula():
    # a ring's nodes take its first node's polar row; on a thin cap that
    # few-ulp snap in z moves the weights most (Markov's inequality on
    # [cos alpha, 1]), and the factorized residual cannot see it
    ns = _turned(cq.ring_lattice(cq.Cap(E2, 0.05), 0.25 / 12, degree=12, delta=0.25))
    rule = cq.solve_weights(ns, 12)
    assert rule.solver_meta["rings"] > 0
    assert_min_norm_matches_reference(rule, 12, 1e-10)


def test_min_norm_path_evaluates_the_basis_at_ring_and_loose_rows_only(monkeypatch, cap_a1):
    rows = []

    def counting(domain, degree, coords):
        rows.append(len(coords))
        return eval_domain_basis(domain, degree, coords)

    ns = cq.ring_lattice(cap_a1, 0.5 / 16, degree=16, delta=0.5)
    monkeypatch.setattr(solver, "eval_domain_basis", counting)
    rule = cq.solve_weights(ns, 16)
    meta = rule.solver_meta
    assert meta["solver"] == "min-norm"
    assert sum(rows) <= meta["rings"] + meta["loose"] < len(ns) // 10


@pytest.mark.parametrize("domain, bound", [
    (cq.Cap(E2, 1.0), 1e-12), (cq.Collar(E2, 0.5, 1.0), 1e-12),
    (cq.Cap(E2, 0.05), 1e-10), (cq.Cap(E2, 0.1), 1e-10)],
    ids=["cap", "collar", "cap0.05", "cap0.1"])
def test_edge_nodes_do_not_hang_weights_on_their_last_bits(domain, bound):
    # edge nodes' boundary distances read 0 or a few ulps; without the edge
    # floor of ``boundary_distance_many`` sqrt(b) made that 0 or 1e-8, and a
    # 1e-16 move of the coordinates moved the weights by about 2e-7.  arccos
    # rounds by about eps / sin(alpha) at the edge, so on thin caps the floor
    # is wider
    ns = cq.ring_lattice(domain, 0.25 / 4, degree=4, delta=0.25)
    want = cq.solve_weights(ns, 4).weights
    rng = np.random.default_rng(3)
    moved = ns.coords * (1.0 + 1e-16 * rng.standard_normal(ns.coords.shape))
    copies = [cq.NodeSet(domain, moved, ns.epsilon, degree=4, validate=False), _turned(ns)]
    for copy in copies:
        got = cq.solve_weights(copy, 4).weights
        assert np.max(np.abs(got - want) / want) <= bound
