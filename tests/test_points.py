import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

import capquad as cq
from capquad import points
from capquad.geometry import boundary_distance_many, domain_measure, rho_from_chord, rho_many
from capquad.points import (
    _MARGIN,
    _chord_within,
    _close_pairs,
    _grid_counts,
    _probe_layout,
    _rho_along,
    min_separation,
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
    assert cq.is_maximal_separable(cap_a1, nodes_a1_n8, eps)


def test_greedy_deterministic(cap_a1):
    a = cq.ring_lattice(cap_a1, 0.05, seed=1)
    b = cq.ring_lattice(cap_a1, 0.05, seed=1)
    assert a.coords.tobytes() == b.coords.tobytes()
    c = cq.ring_lattice(cap_a1, 0.05, seed=2)
    assert a.coords.tobytes() == c.coords.tobytes()  # seed is provenance only
    assert a.seed == 1 and c.seed == 2


def test_greedy_huge_epsilon_single_point(cap_a1):
    ns = cq.ring_lattice(cap_a1, 3.0, seed=0)
    assert len(ns) == 1


def test_greedy_without_degree_round_trips(cap_a1):
    # without degree and delta the set records degree 1 and delta = epsilon,
    # which its own loader accepts also for epsilon > 1
    from capquad import io as cqio

    ns = cq.ring_lattice(cap_a1, 3.0, seed=0)
    assert (ns.degree, ns.delta) == (1, 3.0)
    back = cqio.nodes_from_dict(cqio.points_to_dict(ns))
    assert (back.epsilon, back.degree, back.delta) == (3.0, 1, 3.0)
    assert np.array_equal(back.coords, ns.coords)
    assert cq.ring_lattice(cap_a1, 0.05, degree=4).delta == 0.05 * 4
    with pytest.raises(ValueError, match="ambiguous"):
        cq.ring_lattice(cap_a1, 0.05, delta=0.2)


def test_greedy_on_collar(collar_std):
    ns = cq.ring_lattice(collar_std, 0.05, seed=0)
    assert len(ns) > 10
    assert cq.is_separable(collar_std, ns, 0.05)
    assert cq.is_maximal_separable(collar_std, ns, 0.05)


def test_greedy_d1():
    cap = cq.Cap(E1, 0.5)
    ns = cq.ring_lattice(cap, 0.03, seed=0, degree=8, delta=0.24)
    assert cq.is_separable(cap, ns, 0.03)
    assert cq.is_maximal_separable(cap, ns, 0.03)
    assert ns.delta == pytest.approx(0.24)


# (domain, n, delta): nine caps and six collars over the range of alpha,
# the collar shapes and delta
_LATTICE_CELLS = [
    (cq.Cap(E2, 1.0), 4, 0.25), (cq.Cap(E2, 1.0), 8, 0.25), (cq.Cap(E2, 1.0), 12, 0.25),
    (cq.Cap(E2, 0.3), 12, 0.25), (cq.Cap(E2, 0.3), 8, 1.0), (cq.Cap(E2, 2.0), 8, 0.25),
    (cq.Cap(E2, 2.5), 8, 0.25), (cq.Cap(E2, 0.05), 12, 0.25), (cq.Cap(E2, 0.5), 6, 0.5),
    (cq.Collar(E2, 0.5, 1.0), 12, 0.25), (cq.Collar(E2, 0.5, 1.0), 16, 0.25),
    (cq.Collar(E2, 0.5, 1.0), 8, 1.0), (cq.Collar(E2, 0.3, 0.9), 8, 0.5),
    (cq.Collar(E2, 0.3, 0.9), 4, 0.5), (cq.Collar(E2, 1.0, 2.0), 6, 0.25),
]


def _cell_id(cell):
    domain, n, delta = cell
    shape = (f"cap{domain.alpha:g}" if isinstance(domain, cq.Cap)
             else f"collar{domain.alpha:g}-{domain.beta:g}")
    return f"{shape}-n{n}-delta{delta:g}"


@pytest.mark.parametrize("domain, n, delta", _LATTICE_CELLS,
                         ids=[_cell_id(c) for c in _LATTICE_CELLS])
def test_ring_lattice_separated_and_maximal(domain, n, delta):
    eps = delta / n
    ns = cq.ring_lattice(domain, eps, degree=n, delta=delta)
    assert min_separation(domain, ns.coords) >= eps  # not checked again by the NodeSet
    assert cq.is_maximal_separable(domain, ns, eps)


def test_ring_lattice_separated_on_a_thin_cap():
    # on this cell a cap distance read as arccos of a rounded dot has a floor
    # of about 1e-4 of epsilon near 0; the probe grid of the coverage check
    # would pass the grid limit, so only separation is checked
    cap, eps = cq.Cap(E2, 0.05), 0.125 / 24
    ns = cq.ring_lattice(cap, eps, degree=24, delta=0.125)
    assert min_separation(cap, ns.coords) >= eps
    with pytest.raises(ValueError, match="grid limit"):
        product_grid(cap, eps, 4)


def test_ring_lattice_checks_membership_but_not_separation_again(monkeypatch):
    # _drop_crowded proves the separation of the kept rows, so the lattice's
    # NodeSet checks membership alone; a file of the same set is checked in full
    from capquad import io

    calls = []
    monkeypatch.setattr(points, "min_separation", lambda *args: calls.append(args) or math.inf)
    cap = cq.Cap(E2, 1.0)
    ns = cq.ring_lattice(cap, 0.25 / 4, degree=4, delta=0.25)
    assert calls == []
    io.nodes_from_dict(io.points_to_dict(ns))
    assert len(calls) == 1
    monkeypatch.setattr(points, "contains", lambda domain, coords: np.zeros(len(coords), bool))
    with pytest.raises(ValueError, match="outside the domain"):
        cq.ring_lattice(cap, 0.25 / 4, degree=4, delta=0.25)


@pytest.mark.parametrize("domain, eps", [
    (cq.Cap(E1, 1.0), 0.25 / 16), (cq.Collar(E1, 0.5, 1.0), 0.25 / 16),
    (cq.Cap(E1, 3.0), 0.125),  # the arc's two ends meet across u = +-pi
    (cq.Collar(E1, 1.0, 2.9), 0.5),  # the two arcs meet across u = 0 and +-pi
], ids=["cap", "collar", "cap-wrap", "collar-wrap"])
def test_ring_lattice_d1(domain, eps):
    ns = cq.ring_lattice(domain, eps)
    assert min_separation(domain, ns.coords) >= eps
    assert cq.is_maximal_separable(domain, ns, eps)


# (domain, n) of the benchmark's build workload at delta 0.25
_BUILD_CELLS = [(cq.Cap(E2, 0.3), 4), (cq.Cap(E2, 1.0), 6), (cq.Cap(E2, 2.0), 8),
                (cq.Collar(E2, 0.5, 1.0), 4), (cq.Cap(E1, 1.0), 16), (cq.Collar(E1, 0.5, 1.0), 16)]


def _brute_min_separation(domain, coords):
    """min rho_many over every pair i < j, in blocks of pairs."""
    sqrt_b = np.sqrt(boundary_distance_many(domain, coords))
    i_all, j_all = np.triu_indices(coords.shape[0], 1)
    best = math.inf
    for k in range(0, i_all.size, 1 << 18):
        i, j = i_all[k:k + (1 << 18)], j_all[k:k + (1 << 18)]
        best = min(best, float(rho_many(domain, coords[i], coords[j], sqrt_b[i], sqrt_b[j]).min()))
    return best


def _first_radius(domain, coords):
    """The chord of min_separation's first pair query: the mean spacing."""
    return (domain_measure(domain) / coords.shape[0]) ** (1.0 / domain.dim)


def _ring_points(theta, phi):
    """Points of S^2 at polar angles theta and azimuths phi about the pole."""
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    return np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                            np.cos(theta)])


def test_min_separation_is_the_brute_force_minimum():
    sets = [(d, cq.ring_lattice(d, 0.25 / n).coords) for d, n in _BUILD_CELLS]
    off_pole = cq.Cap(cq.SpherePoint([0.6, 0.0, 0.8]), 0.7)
    for k, domain in enumerate([cq.Cap(E2, 1.0), off_pole, cq.Collar(E2, 0.5, 1.0),
                                cq.Cap(E1, 0.5), cq.Collar(E1, 0.5, 1.0)]):
        count = 600 if domain.dim == 2 else 150  # the sample, without its repeated rows
        sets.append((domain, _random_nodes(domain, count, seed=20 + k).coords[:count]))
    # the nearest pair in rho (on the boundary ring, chord 0.9) lies past the
    # first radius; the pair inside it (along a meridian) is farther in rho
    cap = cq.Cap(E2, 1.0)
    past = _ring_points([1.0, 1.0, 1.0, 0.2], [-0.5625, 0.5625, math.pi, math.pi])
    sets.append((cap, past))
    # three nodes 120 degrees apart on the boundary ring, and the two ends
    # of a d=1 arc: the first query holds no pair
    sparse = [(cap, _ring_points([1.0] * 3, [0.0, 2 * math.pi / 3, 4 * math.pi / 3])),
              (cq.Cap(E1, 1.0), np.array([[-math.sin(1.0), math.cos(1.0)],
                                          [math.sin(1.0), math.cos(1.0)]]))]
    sets += sparse
    for domain, coords in sets:
        want = _brute_min_separation(domain, coords)
        assert min_separation(domain, coords) == want
        # a separation hint moves the first chord, never the minimum
        for hint in (0.5 * want, want, 3.0 * want):
            assert min_separation(domain, coords, hint) == want
    # the two constructed cases do reach the branches they are named for
    r0 = _first_radius(cap, past)
    pairs = cKDTree(past).query_pairs(r0, output_type="ndarray")
    first_best = float(rho_many(cap, past[pairs[:, 0]], past[pairs[:, 1]]).min())
    nearest = np.linalg.norm(past[0] - past[1])
    assert r0 < nearest <= cap.alpha * first_best
    assert min_separation(cap, past) < first_best
    for domain, coords in sparse:
        assert not cKDTree(coords).query_pairs(_first_radius(domain, coords))


def _walk_args(domain, eps):
    """(start, end, step) of each walk of ring_lattice(domain, eps)."""
    step = eps * _MARGIN
    if domain.dim == 1:
        return [(lo, hi, step) for lo, hi in domain.arcs]
    return [(domain.polar_range[1], domain.polar_range[0], step)]


def _reference_walk(domain, start, end, step):
    """The bisection walk: each step bisected to adjacent floats on
    rho(last, m) < step, ending on the far one."""
    out = [start]
    while _rho_along(domain, out[-1], end) >= step:
        a, b = out[-1], end
        while (m := 0.5 * (a + b)) not in (a, b):
            a, b = (m, b) if _rho_along(domain, out[-1], m) < step else (a, m)
        out.append(b)
    return out + [end]


def test_walk_replays_the_bisection(monkeypatch):
    cells = ([(d, 0.25 / n) for d, n in _BUILD_CELLS]
             + [(d, delta / n) for d, n, delta in _LATTICE_CELLS]
             + [(cq.Cap(E1, 3.0), 0.125), (cq.Collar(E1, 1.0, 2.9), 0.5)])  # the wraps
    for domain, eps in cells:
        for args in _walk_args(domain, eps):
            assert points._walk(domain, *args) == _reference_walk(domain, *args)
    # evaluations per step on the build cells (the bisection takes about 54)
    calls = []
    monkeypatch.setattr(points, "_rho_along", lambda *args: calls.append(1) or _rho_along(*args))
    steps = sum(len(points._walk(domain, *args)) - 2
                for domain, n in _BUILD_CELLS for args in _walk_args(domain, 0.25 / n))
    assert steps > 500
    assert len(calls) <= 20 * steps


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


@pytest.mark.parametrize("field, value", [("epsilon", -0.125), ("epsilon", math.nan),
                                          ("epsilon", math.inf), ("delta", -0.25),
                                          ("delta", math.nan), ("delta", math.inf)])
def test_nodeset_rejects_negative_or_non_finite_epsilon_and_delta(cap_a1, field, value):
    # one node, so no separation check runs; zero stays legal (above)
    fields = {"epsilon": 0.0, field: value}
    with pytest.raises(ValueError, match=field):
        cq.NodeSet(cap_a1, E2.coords.reshape(1, -1), **fields)


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
    ns = cq.ring_lattice(cap_a1, 1.0 / n, seed=0, degree=n, delta=1.0)
    tau = cq.tau_statistic(cap_a1, ns, n, probes=4000)
    assert 1 <= tau <= 10


def test_covering_multiplicity_d1():
    cap = cq.Cap(E1, 0.5)
    ns = cq.ring_lattice(cap, 0.05, seed=0)
    m1 = cq.covering_multiplicity(cap, ns, 1.0, probes=2000)
    m3 = cq.covering_multiplicity(cap, ns, 3.0, probes=2000)
    assert 1 <= m1 <= 4
    assert m1 <= m3 <= m1 * 3**3 * 4


def _per_node_neighbours(domain, probes, node_coords, radius):
    """The per-node enumerator the pair scans replaced: one KD ball query
    and one rho_many call per node, yielding (probe indices, rho)."""
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


def _pair_sweep(domain, probes, node_coords, radius):
    """(probe indices, rho) blocks of the close node-probe pairs."""
    sqrt_b_probes = np.sqrt(boundary_distance_many(domain, probes))
    sqrt_b_nodes = np.sqrt(boundary_distance_many(domain, node_coords))
    for i, j, chord in _close_pairs(node_coords, _chord_within(domain, radius), probes):
        yield j, rho_from_chord(domain, chord, sqrt_b_probes[j], sqrt_b_nodes[i])


def _per_probe(pairs, nprobes, radius):
    """Per-probe node counts within rho <= radius and minimum rho."""
    counts = np.zeros(nprobes, dtype=np.int64)
    best = np.full(nprobes, np.inf)
    for j, d in pairs:
        np.add.at(counts, j[d <= radius + 1e-12], 1)
        np.minimum.at(best, j, d)
    return counts, best


def _probe_grid(domain, epsilon, count):
    """The probes of the statistics' grid of about ``count`` points."""
    resolution, stride = _probe_layout(domain, epsilon, count)
    return product_grid(domain, epsilon, resolution)[::stride]


def _reference_count_max(domain, nodes, probe_eps, radius, probes):
    grid = _probe_grid(domain, max(probe_eps, 1e-3), probes)
    pts = np.vstack([grid, nodes.coords])
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
def test_pair_sweep_matches_per_node_scan(domain, monkeypatch):
    monkeypatch.setattr(points, "_PAIR_BLOCK", 4096)  # many blocks per scan
    nodes = _random_nodes(domain, 768, seed=5)
    pts = np.vstack([_probe_grid(domain, 0.05, 3000), nodes.coords])  # nodes too
    # the largest radius's chord clamps at 2: every pair is enumerated
    for radius in (0.02, 0.1, 0.4, 2.5 / domain.alpha):
        counts, best = _per_probe(_pair_sweep(domain, pts, nodes.coords, radius),
                                  pts.shape[0], radius)
        ref_counts, ref_best = _per_probe(
            _per_node_neighbours(domain, pts, nodes.coords, radius), pts.shape[0], radius)
        assert np.array_equal(counts, ref_counts)
        assert np.isclose(best, ref_best, rtol=0.0, atol=1e-12).all()
        assert (best[-len(nodes):] == 0.0).all()
        assert counts.max() > 1


def test_pair_sweep_yields_each_pair_once(monkeypatch):
    monkeypatch.setattr(points, "_PAIR_BLOCK", 512)
    cap = cq.Cap(E2, 1.0)
    nodes = _random_nodes(cap, 515, seed=8)
    pts = np.vstack([_probe_grid(cap, 0.05, 2000), nodes.coords])
    blocks = list(_close_pairs(nodes.coords, 0.1, pts))
    assert len(blocks) > 2
    i, j, d = (np.concatenate(a) for a in zip(*blocks))
    assert np.unique(i * pts.shape[0] + j).size == i.size
    want = np.linalg.norm(nodes.coords[i] - pts[j], axis=1)
    assert np.isclose(d, want, rtol=0.0, atol=1e-15).all()
    # within one set: each unordered pair once, never a point with itself
    i, j, d = (np.concatenate(a) for a in zip(*_close_pairs(nodes.coords, 0.1)))
    assert (i != j).all()
    assert np.unique(np.minimum(i, j) * len(nodes) + np.maximum(i, j)).size == i.size


def _kd_pairs(coords, chord, other=None):
    """Sorted (i, j) rows of the pairs a KD-tree finds within ``chord``."""
    if other is None:
        pairs = cKDTree(coords).query_pairs(chord, output_type="ndarray")
    else:
        near = cKDTree(coords).sparse_distance_matrix(cKDTree(other), chord,
                                                      output_type="ndarray")
        pairs = np.column_stack([near["i"], near["j"]])
    return _sorted_pairs(pairs.reshape(-1, 2), other is None)


def _sorted_pairs(pairs, unordered):
    if unordered:
        pairs = np.sort(pairs, axis=1)
    return pairs[np.lexsort(pairs.T[::-1])]


@pytest.mark.parametrize("block", [1 << 16, 7])
def test_close_pairs_match_a_kd_tree(block, monkeypatch):
    monkeypatch.setattr(points, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(3)
    cap, collar = cq.Cap(E2, 1.0), cq.Collar(E2, 0.5, 1.0)
    arc = cq.Collar(E1, 0.5, 1.0)
    sets = [
        (cq.ring_lattice(cap, 0.1).coords, 0.13),  # lattice
        (cq.ring_lattice(collar, 0.1).coords, 0.07),
        (random_cap_points(cap, 300, 1), 0.2),  # random
        (random_collar_points(collar, 300, 2), 0.05),
        (cq.ring_lattice(arc, 0.02).coords, 0.03),  # d=1
        (_random_nodes(cq.Cap(E1, 0.5), 200, 4).coords, 0.01),
        (np.repeat(random_cap_points(cap, 40, 5), 3, axis=0), 1e-300),  # coincident
        (random_cap_points(cq.Cap(E2, 2.5), 150, 6), 2.0),  # every pair
        (random_cap_points(cap, 150, 7), 3.0),
    ]
    for coords, chord in sets:
        got = [np.column_stack(b[:2]) for b in _close_pairs(coords, chord)]
        got = _sorted_pairs(np.vstack(got) if got else np.empty((0, 2), int), True)
        assert np.array_equal(got, _kd_pairs(coords, chord))
        other = coords[rng.permutation(coords.shape[0])[:coords.shape[0] // 2]]
        got = [np.column_stack(b[:2]) for b in _close_pairs(coords, chord, other)]
        got = _sorted_pairs(np.vstack(got) if got else np.empty((0, 2), int), False)
        assert np.array_equal(got, _kd_pairs(coords, chord, other))
    # coincident rows only, at a chord so small that coords / chord
    # overflows an int64 cube index; every repeat pairs with its twin
    coords = np.repeat(random_cap_points(cap, 40, 5), 3, axis=0)
    got = np.vstack([np.column_stack(b[:2]) for b in _close_pairs(coords, 1e-300)])
    assert len(got) == 40 * 3 and (coords[got[:, 0]] == coords[got[:, 1]]).all()


def _brute_counts(domain, node_coords, probes, threshold):
    """Per probe, the nodes within rho_many <= threshold of it."""
    sqrt_b = np.sqrt(boundary_distance_many(domain, probes))
    counts = np.zeros(probes.shape[0], dtype=np.int64)
    for node in node_coords:
        counts += rho_many(domain, probes, node, sqrt_b=sqrt_b) <= threshold
    return counts


@pytest.mark.parametrize("domain, n, delta, radius", [
    (cq.Cap(E2, 1.0), 6, 0.25, 1 / 6),  # the pole row
    (cq.Cap(E2, 1.0), 6, 0.25, 0.5),
    (cq.Collar(E2, 0.5, 1.0), 8, 0.5, 0.3),  # the chord distance term
    (cq.Cap(E2, 2.5), 6, 0.5, 1 / 6),  # rows past the equator
    (cq.Cap(E2, 2.5), 6, 0.5, 1.2),  # balls past the antipode of the row
    (cq.Cap(cq.SpherePoint([0.6, 0.0, 0.8]), 0.7), 8, 0.5, 1 / 8),  # turned frame
    (cq.Collar(cq.SpherePoint([0.0, 0.6, 0.8]), 0.3, 0.9), 8, 0.5, 0.2),
    (cq.Cap(E2, 1.0), 24, 0.25, 1 / 24),  # the strided grid
])
def test_row_counts_match_a_per_probe_scan(domain, n, delta, radius, monkeypatch):
    monkeypatch.setattr(points, "_PAIR_BLOCK", 2048)  # several node blocks
    eps = delta / n
    lattice = cq.ring_lattice(domain, eps, degree=n, delta=delta)
    sample = lattice.coords[np.random.default_rng(n).permutation(len(lattice))[:600]]
    node_coords = np.vstack([sample, _random_nodes(domain, 200, seed=n).coords])
    resolution, stride = _probe_layout(domain, eps, 20000)
    if n == 24:
        assert stride >= 2
    probes = product_grid(domain, eps, resolution)[::stride]
    if isinstance(domain, cq.Cap):  # the pole row leads
        assert np.isclose(probes[0], domain.center.coords).all()
    threshold = radius + 1e-12
    counts = _grid_counts(domain, node_coords, threshold, eps, resolution, stride)
    want = _brute_counts(domain, node_coords, probes, threshold)
    assert np.array_equal(counts, want)
    assert want.max() > 1


@pytest.mark.parametrize("domain, eps", zip(_SWEEP_DOMAINS, (0.06, 0.1, 0.0025, 0.0025)),
                         ids=_SWEEP_IDS)
def test_probe_statistics_match_per_node_scan(domain, eps):
    nodes = _random_nodes(domain, 512, seed=11)
    for n in (4, 12):
        assert cq.tau_statistic(domain, nodes, n, probes=3000) == _reference_count_max(
            domain, nodes, 1.0 / n, 1.0 / n, 3000)
    lattice = cq.ring_lattice(domain, eps)
    assert len(lattice) > 256
    for beta in (1.0, 2.0):
        assert cq.covering_multiplicity(domain, lattice, beta, probes=3000) == \
            _reference_count_max(domain, lattice, eps, beta * eps, 3000)
    thinned = cq.NodeSet(domain, lattice.coords[::7], eps)
    for ns in (lattice, thinned):
        assert cq.is_maximal_separable(domain, ns, eps) == _reference_is_maximal(domain, ns, eps)
    assert cq.is_maximal_separable(domain, lattice, eps)
    assert not cq.is_maximal_separable(domain, thinned, eps)


def test_tau_statistic_memory_is_bounded():
    # the benchmark's verify cap set: 1834 nodes against 20 000 probes;
    # a sweep of all nodes at once holds about 66 MB of pairs
    cap = cq.Cap(E2, 1.0)
    nodes = cq.ring_lattice(cap, 0.25 / 6, degree=6, delta=0.25)
    assert len(nodes) == 1834
    tracemalloc.start()
    try:
        tau = cq.tau_statistic(cap, nodes, 6, probes=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau >= 1
    assert peak < 24 * 2**20
