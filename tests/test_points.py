import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

import capquad as cq
from capquad.geometry import boundary_distance_many, rho_many
from capquad.points import (
    _PAIR_BLOCK,
    _node_neighbours,
    _probes_with_nodes,
    _seed_coords,
    product_grid,
)

from conftest import random_cap_points, random_collar_points

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


def _per_node_neighbours(domain, probes, node_coords, radius):
    """The per-node enumerator the blocked pair sweep replaced: one KD ball
    query and one rho_many call per node, yielding (probe indices, rho)."""
    tree = cKDTree(probes)
    sqrt_b_probes = np.sqrt(boundary_distance_many(domain, probes))
    sqrt_b_nodes = np.sqrt(boundary_distance_many(domain, node_coords))
    chord = min(domain.alpha * radius * (1.0 + 1e-9) + 1e-12, 2.0)
    for k in range(node_coords.shape[0]):
        idx = tree.query_ball_point(node_coords[k], chord, return_sorted=False)
        if not idx:
            continue
        idx = np.asarray(idx, dtype=np.intp)
        yield idx, rho_many(domain, probes[idx], node_coords[k],
                            sqrt_b=sqrt_b_probes[idx], sqrt_b_y=float(sqrt_b_nodes[k]))


def _per_probe(pairs, nprobes, radius):
    """Per-probe node counts within rho <= radius and minimum rho."""
    counts = np.zeros(nprobes, dtype=np.int64)
    best = np.full(nprobes, np.inf)
    for j, d in pairs:
        np.add.at(counts, j[d <= radius + 1e-12], 1)
        np.minimum.at(best, j, d)
    return counts, best


def _reference_count_max(domain, nodes, probe_eps, radius, probes):
    pts = _probes_with_nodes(domain, nodes, probe_eps, probes)
    pairs = _per_node_neighbours(domain, pts, nodes.coords, radius)
    return int(_per_probe(pairs, pts.shape[0], radius)[0].max())


def _reference_is_maximal(domain, nodes, epsilon):
    if not cq.is_separable(domain, nodes, epsilon):
        return False
    probes = product_grid(domain, epsilon, 4)
    pairs = _per_node_neighbours(domain, probes, nodes.coords, epsilon)
    return bool(np.all(_per_probe(pairs, probes.shape[0], epsilon)[1] <= epsilon + 1e-7))


def _random_nodes(domain, count, seed):
    """count points of the domain, every tenth one repeated."""
    if domain.dim == 2:
        sample = random_cap_points if isinstance(domain, cq.Cap) else random_collar_points
        coords = sample(domain, count, seed)
    else:
        arc = np.random.default_rng(seed).integers(len(domain.arcs), size=count)
        lo, hi = np.array(domain.arcs).T
        u = np.random.default_rng(seed + 1).uniform(lo[arc], hi[arc])
        coords = np.column_stack([np.sin(u), np.cos(u)]) @ cq.geometry.north_frame(domain.center)
    return cq.NodeSet(domain, np.vstack([coords, coords[::10]]), 0.0)


_SWEEP_DOMAINS = [cq.Cap(E2, 1.0), cq.Collar(E2, 0.5, 1.0), cq.Cap(E1, 0.5),
                  cq.Collar(E1, 0.5, 1.0)]
_SWEEP_IDS = ["cap-d2", "collar-d2", "cap-d1", "collar-d1"]


@pytest.mark.parametrize("domain", _SWEEP_DOMAINS, ids=_SWEEP_IDS)
def test_pair_sweep_matches_per_node_scan(domain):
    nodes = _random_nodes(domain, 3 * _PAIR_BLOCK, seed=5)
    assert len(nodes) > 2 * _PAIR_BLOCK
    pts = _probes_with_nodes(domain, nodes, 0.05, 3000)  # the nodes are probes too
    # the largest radius's chord clamps at 2: every pair is enumerated
    for radius in (0.02, 0.1, 0.4, 2.5 / domain.alpha):
        sweep = ((j, d) for _, j, d in _node_neighbours(domain, pts, nodes.coords, radius))
        counts, best = _per_probe(sweep, pts.shape[0], radius)
        ref_counts, ref_best = _per_probe(
            _per_node_neighbours(domain, pts, nodes.coords, radius), pts.shape[0], radius)
        assert np.array_equal(counts, ref_counts)
        # the reference takes a cap's geodesic distance as arccos of a
        # rounded dot, which is off by up to 3e-8 near 0 (the sweep's
        # 2 arcsin(chord/2) reads exactly 0 at a probe on a node); from
        # rho 1e-2 on, both agree to 1e-12
        atol = np.where(ref_best >= 1e-2, 1e-12, 1e-7)
        assert np.isclose(best, ref_best, rtol=0.0, atol=atol).all()
        assert (best[-len(nodes):] == 0.0).all()
        assert counts.max() > 1


def test_pair_sweep_yields_each_pair_once():
    cap = cq.Cap(E2, 1.0)
    nodes = _random_nodes(cap, 2 * _PAIR_BLOCK + 3, seed=8)
    pts = _probes_with_nodes(cap, nodes, 0.05, 2000)
    i, j, d = (np.concatenate(a) for a in zip(*_node_neighbours(cap, pts, nodes.coords, 0.1)))
    assert np.unique(i * pts.shape[0] + j).size == i.size
    want = cq.geometry.rho_pairwise(cap, nodes.coords[i], pts[j])
    assert np.isclose(d, want, rtol=0.0, atol=np.where(want >= 1e-2, 1e-12, 1e-7)).all()


@pytest.mark.parametrize("domain, eps", zip(_SWEEP_DOMAINS, (0.06, 0.1, 0.0025, 0.0025)),
                         ids=_SWEEP_IDS)
def test_probe_statistics_match_per_node_scan(domain, eps):
    nodes = _random_nodes(domain, 2 * _PAIR_BLOCK, seed=11)
    for n in (4, 12):
        assert cq.tau_statistic(domain, nodes, n, probes=3000) == _reference_count_max(
            domain, nodes, 1.0 / n, 1.0 / n, 3000)
    greedy = cq.greedy_maximal_set(domain, eps)
    assert len(greedy) > _PAIR_BLOCK
    for beta in (1.0, 2.0):
        assert cq.covering_multiplicity(domain, greedy, beta, probes=3000) == \
            _reference_count_max(domain, greedy, eps, beta * eps, 3000)
    thinned = cq.NodeSet(domain, greedy.coords[::7], eps)
    for ns in (greedy, thinned):
        assert cq.is_maximal_separable(domain, ns, eps) == _reference_is_maximal(domain, ns, eps)
    assert cq.is_maximal_separable(domain, greedy, eps)
    assert not cq.is_maximal_separable(domain, thinned, eps)


def test_tau_statistic_memory_is_bounded():
    # the benchmark's verify cap set: 1764 nodes against 20 000 probes;
    # a sweep of all nodes at once holds about 66 MB of pairs
    cap = cq.Cap(E2, 1.0)
    nodes = cq.greedy_maximal_set(cap, 0.25 / 6, degree=6, delta=0.25)
    assert len(nodes) == 1764
    tracemalloc.start()
    try:
        tau = cq.tau_statistic(cap, nodes, 6, probes=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau >= 1
    assert peak < 24 * 2**20
