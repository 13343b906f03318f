import math

import numpy as np
import pytest

import capquad as cq
from capquad.geometry import boundary_distance_many, rho_many
from capquad.points import _seed_coords, product_grid

from conftest import random_cap_points

E2 = cq.north_pole(2)
E1 = cq.north_pole(1)


def test_is_separable_basics(cap_a1):
    assert cq.is_separable(cap_a1, [], 0.5)
    assert cq.is_separable(cap_a1, [E2], 0.5)
    dup = np.vstack([E2.coords, E2.coords])
    assert not cq.is_separable(cap_a1, dup, 0.1)


def test_single_center_ball_covers_cap(cap_a1):
    # the metric diameter from the center is sqrt(2)-ish, under 2
    assert cq.is_maximal_separable(cap_a1, [E2], 2.0)
    assert not cq.is_maximal_separable(cap_a1, [E2], 0.01)


def test_greedy_output_separable_and_maximal(cap_a1, nodes_a1_n8):
    eps = nodes_a1_n8.epsilon
    assert cq.is_separable(cap_a1, nodes_a1_n8, eps)
    assert cq.is_maximal_separable(cap_a1, nodes_a1_n8, eps, 4)


def test_greedy_deterministic(cap_a1):
    a = cq.greedy_maximal_set(cap_a1, 0.05, seed=1)
    b = cq.greedy_maximal_set(cap_a1, 0.05, seed=1)
    assert np.array_equal(a.coords, b.coords)
    c = cq.greedy_maximal_set(cap_a1, 0.05, seed=2)
    assert np.array_equal(a.coords, c.coords)  # seed is provenance only
    assert a.seed == 1 and c.seed == 2


def test_greedy_huge_epsilon_single_point(cap_a1):
    ns = cq.greedy_maximal_set(cap_a1, 3.0, seed=0)
    assert len(ns) == 1


def test_greedy_on_collar(collar_std):
    ns = cq.greedy_maximal_set(collar_std, 0.05, seed=0)
    assert len(ns) > 10
    assert cq.is_separable(collar_std, ns, 0.05)
    assert cq.is_maximal_separable(collar_std, ns, 0.05, 4)


def test_greedy_d1():
    cap = cq.Cap(E1, 0.5)
    ns = cq.greedy_maximal_set(cap, 0.03, seed=0, degree=8, delta=0.24)
    assert cq.is_separable(cap, ns, 0.03)
    assert cq.is_maximal_separable(cap, ns, 0.03, 4)
    assert ns.delta == pytest.approx(0.24)


def _greedy_full_scan(domain, epsilon):
    """Farthest-point insertion that updates the whole pool at every step."""
    pool = product_grid(domain, epsilon, 8)
    sqrt_b = np.sqrt(boundary_distance_many(domain, pool))
    chosen = [_seed_coords(domain)]
    mind = rho_many(domain, pool, chosen[0], sqrt_b=sqrt_b)
    while True:
        i = int(np.argmax(mind))
        if mind[i] < epsilon:
            return np.vstack(chosen)
        chosen.append(pool[i])
        np.minimum(mind, rho_many(domain, pool, pool[i], sqrt_b=sqrt_b,
                                  sqrt_b_y=float(sqrt_b[i])), out=mind)


@pytest.mark.parametrize("domain, epsilon", [
    (cq.Cap(E2, 0.5), 0.1),  # phi windows wrap past phi = 0
    (cq.Cap(E2, 2.5), 0.3),  # rows taken whole
    (cq.Collar(E2, 0.5, 1.0), 0.15),
    (cq.Cap(E1, 0.5), 0.03),
    (cq.Collar(E1, 0.5, 1.0), 0.05),
    (cq.Cap(E1, 3.0), 0.01),  # windows wrap past u = +-pi
    (cq.Collar(E1, 1.0, 2.9), 0.01),  # the wrap joins the two arcs
], ids=["cap-d2-wrap", "cap-d2-wide", "collar-d2", "cap-d1", "collar-d1",
        "cap-d1-wrap", "collar-d1-wrap"])
def test_greedy_matches_full_scan(domain, epsilon):
    ns = cq.greedy_maximal_set(domain, epsilon)
    assert ns.coords.tobytes() == _greedy_full_scan(domain, epsilon).tobytes()


def test_node_count_scaling(nodes_family_d05):
    # count * epsilon^d stays in one narrow bracket as the degree doubles
    vals = [len(ns) * ns.epsilon**2 for ns in nodes_family_d05.values()]
    assert max(vals) / min(vals) <= 4.0


def test_nodeset_validation(cap_a1):
    with pytest.raises(ValueError):
        cq.NodeSet(cap_a1, np.array([[0.0, 0.0, -1.0]]), 0.1)
    dup = np.vstack([E2.coords, E2.coords])
    with pytest.raises(ValueError):
        cq.NodeSet(cap_a1, dup, 0.1)
    ns = cq.NodeSet(cap_a1, dup, 0.0)  # epsilon=0 waives separation
    assert len(ns) == 2


def test_product_grid_nested(cap_a1):
    eps = 0.07
    coarse = product_grid(cap_a1, eps, 4)
    fine = product_grid(cap_a1, eps, 8)
    fine_set = {row.tobytes() for row in fine}
    missing = sum(1 for row in coarse if row.tobytes() not in fine_set)
    assert missing == 0


def test_covering_multiplicity(cap_a1, nodes_a1_n8):
    single = cq.NodeSet(cap_a1, E2.coords.reshape(1, -1), 1.0)
    assert cq.covering_multiplicity(cap_a1, single, 1.0, probes=500) == 1
    m1 = cq.covering_multiplicity(cap_a1, nodes_a1_n8, 1.0, probes=4000)
    m2 = cq.covering_multiplicity(cap_a1, nodes_a1_n8, 2.0, probes=4000)
    assert m1 >= 1
    assert m2 >= m1
    assert m2 <= m1 * 2 ** (2 + 2) * 4


def test_tau_statistic(cap_a1):
    single = cq.NodeSet(cap_a1, E2.coords.reshape(1, -1), 1.0)
    assert cq.tau_statistic(cap_a1, single, 8, probes=500) == 1
    triple = cq.NodeSet(cap_a1, np.vstack([E2.coords] * 3), 0.0)
    assert cq.tau_statistic(cap_a1, triple, 8, probes=500) == 3


def test_tau_bounded_for_separated(cap_a1, nodes_a1_n8):
    # (1/n, rho)-separable sets keep a bounded count in any 1/n ball
    n = 8
    ns = cq.greedy_maximal_set(cap_a1, 1.0 / n, seed=0, degree=n, delta=1.0)
    tau = cq.tau_statistic(cap_a1, ns, n, probes=4000)
    assert 1 <= tau <= 10


def test_covering_multiplicity_d1():
    cap = cq.Cap(E1, 0.5)
    ns = cq.greedy_maximal_set(cap, 0.05, seed=0)
    m1 = cq.covering_multiplicity(cap, ns, 1.0, probes=2000)
    m3 = cq.covering_multiplicity(cap, ns, 3.0, probes=2000)
    assert 1 <= m1 <= 4
    assert m1 <= m3 <= m1 * 3**3 * 4
