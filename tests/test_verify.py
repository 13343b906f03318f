import math

import numpy as np
import pytest

import capquad as cq
from capquad.verify import VerificationReport

from conftest import north_frame_per_node, spread_subset

E2 = cq.north_pole(2)


def _ratios(cell):
    return cell["ratio_min"], cell["ratio_max"]


def test_mz_constant_poly_ratio_one(rule_a1_n8):
    lo, hi = _ratios(cq.mz_bracket(rule_a1_n8, 2, trials=5, seed=1, trial_degree=0))
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_mz_exactness_collapse(rule_a1_n8):
    # p * deg <= n makes |f|^p a polynomial the rule integrates exactly
    lo, hi = _ratios(cq.mz_bracket(rule_a1_n8, 2, trials=20, seed=2, trial_degree=4))
    assert max(abs(lo - 1), abs(hi - 1)) <= 1e-9
    lo4, hi4 = _ratios(cq.mz_bracket(rule_a1_n8, 4, trials=10, seed=2, trial_degree=2))
    assert max(abs(lo4 - 1), abs(hi4 - 1)) <= 1e-9


def test_mz_full_degree_bracket(rule_a1_n8):
    lo, hi = _ratios(cq.mz_bracket(rule_a1_n8, 2, trials=50, seed=3))
    assert 0 < lo <= hi
    assert hi / lo <= 20
    lo1, hi1 = _ratios(cq.mz_bracket(rule_a1_n8, 1, trials=20, seed=3))
    assert hi1 / lo1 <= 20


def test_mz_repeat_identical(rule_a1_n8):
    # the cells hold the order-cap fields too
    runs = [cq.mz_bracket(rule_a1_n8, 1, trials=16, seed=5) for _ in range(2)]
    assert "integral_order_cap_hits" in runs[0]
    assert runs[0] == runs[1]


def test_run_trials_redraws_from_own_stream():
    # column 2 is flagged on its first draw only: the second call must
    # receive that column alone, drawn second from trial_rng(seed, 2)
    from capquad.verify import run_trials, trial_rng

    seen = []

    def measure(c):
        seen.append(c.copy())
        flagged = np.zeros(c.shape[1], bool)
        if len(seen) == 1:
            flagged[2] = True
        return c[0], flagged

    values = run_trials(5, measure, 3, seed=7)
    rng = trial_rng(7, 2)
    first, second = rng.standard_normal(3), rng.standard_normal(3)
    assert len(seen) == 2
    assert np.array_equal(seen[0][:, 2], first)
    assert seen[1].shape == (3, 1) and np.array_equal(seen[1][:, 0], second)
    assert values[2] == second[0]
    for k in (0, 1, 3, 4):
        assert values[k] == trial_rng(7, k).standard_normal(3)[0]


def test_run_trials_persistent_degenerate_raises():
    from capquad.verify import MAX_REDRAWS, run_trials

    calls = []

    def measure(c):
        calls.append(c.shape[1])
        return c[0], np.arange(c.shape[1]) == 0

    with pytest.raises(RuntimeError, match="persistent degenerate"):
        run_trials(3, measure, 2, seed=1)
    assert calls == [3] + [1] * (MAX_REDRAWS - 1)


def _one_column_run_trials(trials, measure, size, seed):
    """Reference engine: each trial's draws measured alone, as a one-column matrix."""
    from capquad.verify import MAX_REDRAWS, trial_rng

    def one(k):
        rng = trial_rng(seed, k)
        for _ in range(MAX_REDRAWS):
            with np.errstate(divide="ignore", invalid="ignore"):
                values, degenerate = measure(rng.standard_normal(size)[:, None])
            if not degenerate[0]:
                return np.asarray(values)[..., 0]
        raise RuntimeError("persistent degenerate draws")

    return np.stack([one(k) for k in range(trials)], axis=-1)


def _seven_measurements(rule_a1_n8, nodes_a1_n8, cap_a05, nodes_a05_n8, cap_a1):
    # mz at p=1 stops every integral at the order cap, osc at p=3 stops
    # them at different orders, the even-p ones at the same early order
    bp = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
    return {
        "mz": lambda: cq.mz_bracket(rule_a1_n8, 1, trials=4, seed=30),
        "osc": lambda: cq.osc_constant(nodes_a1_n8, 8, 3, trials=4, ball_samples=16, seed=31),
        "sieve": lambda: cq.large_sieve_constant(nodes_a1_n8, 8, 2, trials=4, seed=32,
                                                 probes=2000),
        "maxmin": lambda: cq.maxmin_equivalence(nodes_a1_n8, 8, 2, trials=4,
                                                ball_samples=16, seed=33),
        "bernstein": lambda: cq.bernstein_check_d1(0.5, 8, 1, bp, trials=4, seed=34),
        "weighted-mz": lambda: cq.weighted_mz(cap_a05, bp, nodes_a05_n8, 8, 2, trials=4,
                                              ball_samples=16, seed=35),
        "cov": lambda: cq.change_of_variables_check(cap_a1, 6, trials=4, seed=36),
    }


@pytest.mark.parametrize("name", ["mz", "osc", "sieve", "maxmin", "bernstein",
                                  "weighted-mz", "cov"])
def test_batched_matches_one_column_at_a_time(name, monkeypatch, rule_a1_n8, nodes_a1_n8,
                                              cap_a05, nodes_a05_n8, cap_a1):
    from capquad import verify

    run = _seven_measurements(rule_a1_n8, nodes_a1_n8, cap_a05, nodes_a05_n8, cap_a1)[name]
    batched = run()
    monkeypatch.setattr(verify, "run_trials", _one_column_run_trials)
    single = run()
    assert batched.keys() == single.keys()
    # the last relative change of a capped integral is a difference of
    # nearby estimates, so it agrees to fewer digits than the values
    keys = sorted(k for k in batched if k != "integral_last_rel_change")
    assert np.allclose([batched[k] for k in keys], [single[k] for k in keys],
                       rtol=1e-12, atol=0.0 if name != "cov" else 1e-15)
    hits = "integral_order_cap_hits"
    assert batched.get(hits) == single.get(hits)


def test_osc_constant_zero_for_constants(nodes_a1_n8):
    # a constant polynomial has zero oscillation on every ball
    from capquad.polys import PolySpace
    from capquad.verify import _NodeBallTable

    table = _NodeBallTable(nodes_a1_n8, nodes_a1_n8.epsilon, 16, PolySpace(2, 0))
    vals = np.ones(table.samples.shape[0])
    gmax, gmin = table.group_max_min(vals)
    assert np.abs(gmax - gmin).max() == 0.0


def _node_order_ball_samples(nodes, radius, count):
    # the node-major layout of the ball samples: each node's block (its
    # centre, then its kept samples in order), blocks in node order
    from capquad import geometry as g
    from capquad.verify import _GOLDEN

    domain, centers = nodes.domain, nodes.coords
    k = centers.shape[0]
    bound = g.ball_reach(domain, radius)
    j = np.arange(count)
    if domain.dim == 2:
        t = 1.0 - (1.0 - math.cos(bound)) * (j + 0.5) / count
        phi = 2.0 * math.pi * np.mod(j / _GOLDEN, 1.0)
        s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        local = np.column_stack([s * np.cos(phi), s * np.sin(phi), t])
        pts = np.matmul(local, np.array([g.north_frame(cq.SpherePoint(c)) for c in centers]))
    else:
        base = np.array([math.atan2(c[0], c[1]) for c in centers])
        u = base[:, None] + bound * (2.0 * (j + 0.5) / count - 1.0)
        pts = np.stack([np.sin(u), np.cos(u)], axis=-1)
    flat = pts.reshape(k * count, -1)
    dist = g.rho_many(domain, flat, np.repeat(centers, count, axis=0),
                      np.sqrt(g.boundary_distance_many(domain, flat)),
                      np.repeat(np.sqrt(g.boundary_distance_many(domain, centers)), count))
    inside = g.contains(domain, flat) & (dist <= radius + 1e-12)
    keep = np.column_stack([np.ones(k, bool), inside.reshape(k, count)])
    samples = np.concatenate([centers[:, None, :], pts], axis=1)[keep]
    return samples, np.r_[0, np.cumsum(keep.sum(axis=1))[:-1]]


def _sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


def test_group_max_min_matches_node_order_reduceat(nodes_a1_n8):
    from capquad.polys import PolySpace
    from capquad.verify import _NodeBallTable

    arc = cq.Cap(cq.north_pole(1), 1.0)
    nodes_d1 = cq.ring_lattice(arc, 0.25 / 16, seed=0, degree=16, delta=0.25)
    centre_only = 0
    for nodes, count in ((nodes_a1_n8, 16), (nodes_a1_n8, 1), (nodes_d1, 16), (nodes_d1, 2)):
        radius = nodes.epsilon
        table = _NodeBallTable(nodes, radius, count, PolySpace(nodes.domain.dim, 0))
        ref_samples, offsets = _node_order_ball_samples(nodes, radius, count)
        assert np.array_equal(_sorted_rows(table.samples), _sorted_rows(ref_samples))
        centre_only += int(np.count_nonzero(np.diff(np.r_[offsets, len(ref_samples)]) == 1))
        # values are row-wise functions of the sample, so both layouts hold
        # the same bits in permuted rows; (N, 16) is one trial chunk
        for f in (lambda x: np.sin(7.0 * x[:, 0]) + x[:, -1] ** 3,
                  lambda x: np.cos(np.arange(1, 17) * x[:, :1] - x[:, -1:])):
            want = np.stack([np.maximum.reduceat(f(ref_samples), offsets),
                             np.minimum.reduceat(f(ref_samples), offsets)])
            assert np.array_equal(table.group_max_min(f(table.samples)), want)
    assert centre_only > 0


def test_ball_table_samples_match_per_node_frames(monkeypatch, nodes_a1_n8):
    # the constructor with the frames built one node at a time
    from capquad import verify
    from capquad.polys import PolySpace

    collar = cq.Collar(E2, 0.5, 1.0)
    space = PolySpace(2, 0)
    nodes_collar = cq.ring_lattice(collar, 0.25 / 4, degree=4, delta=0.25)
    for nodes, count in ((nodes_a1_n8, 64), (nodes_collar, 64), (nodes_collar, 7)):
        table = verify._NodeBallTable(nodes, nodes.epsilon, count, space)
        with monkeypatch.context() as m:
            m.setattr(verify, "north_frames", lambda centers: np.array(
                [north_frame_per_node(c) for c in centers]))
            ref = verify._NodeBallTable(nodes, nodes.epsilon, count, space)
        assert table.samples.tobytes() == ref.samples.tobytes()
        assert table.runs == ref.runs
        assert np.array_equal(table.centre_rows, ref.centre_rows)


def _table_abs_power_integrals(domain, space, coeffs, powers):
    """The adaptive |f|^p integrals at each p of ``powers`` from a basis
    table of each rule's points (built once per order, in blocks of rows to
    bound memory): the reference for ``verify._abs_power_integral``."""
    from capquad import verify
    from capquad.polys import eval_basis_many
    from capquad.quadrature import ADAPTIVE_ORDERS, build_rule, double_until_stable

    values = {}

    def values_at(order):
        if order not in values:
            points = build_rule(domain, order).points
            step = max(1, 2**20 // space.size)
            values[order] = np.concatenate([eval_basis_many(space, points[r:r + step]) @ coeffs
                                            for r in range(0, len(points), step)])
        return values[order]

    out = []
    for p in powers:
        converged, prev, last = double_until_stable(
            lambda order, cols: build_rule(domain, order).weights
            @ np.abs(values_at(order)[:, cols]) ** p,
            ADAPTIVE_ORDERS, verify.INTEGRAL_TOL, coeffs.shape[1])
        change = np.abs(last - prev) / (np.abs(last) + 1e-14)
        out.append((last, np.where(converged, 0.0, change)))
    return out


_RULE_DOMAINS = {
    "cap-a0.3": cq.Cap(E2, 0.3),
    "cap-a1": cq.Cap(E2, 1.0),
    "cap-a2.5": cq.Cap(E2, 2.5),
    "collar": cq.Collar(E2, 0.5, 1.0),
    "cap-off-pole": cq.Cap(cq.SpherePoint([0.4, -0.3, 0.87]), 1.0),
    "arc": cq.Cap(cq.north_pole(1), 0.5),
    "arc-off-pole": cq.Cap(cq.SpherePoint([0.6, 0.8]), 0.5),
}


@pytest.mark.parametrize("degree", [0, 1, 6, 20])
@pytest.mark.parametrize("name", list(_RULE_DOMAINS))
def test_rule_values_match_basis_table(name, degree):
    from capquad import verify
    from capquad.polys import PolySpace, eval_basis_many
    from capquad.quadrature import build_rule, rule_values

    domain = _RULE_DOMAINS[name]
    space = PolySpace(domain.dim, degree)
    coeffs = np.random.default_rng(degree).standard_normal((space.size, 3))
    rule = build_rule(domain, 16)
    if name.endswith("off-pole"):
        # the factors hold at the pole only; measurements turn their sets there
        for call in (lambda: rule_values(space, rule, coeffs),
                     lambda: verify._abs_power_integral(domain, space, coeffs, 2)):
            with pytest.raises(ValueError, match="pole"):
                call()
        return
    want = eval_basis_many(space, rule.points) @ coeffs
    got = rule_values(space, rule, coeffs)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    reference = _table_abs_power_integrals(domain, space, coeffs, (1, 2, 3))
    for p, (ref, ref_capped) in zip((1, 2, 3), reference):
        integrals, capped = verify._abs_power_integral(domain, space, coeffs, p)
        assert np.allclose(integrals, ref, rtol=1e-12, atol=0.0)
        assert np.count_nonzero(capped) == np.count_nonzero(ref_capped)


def test_integral_powers_match_the_general_power(monkeypatch):
    # an integral p goes by repeated multiplication: p 1 and p 2 keep the
    # general power's bits, p 3 and p 5 agree with it at rounding level
    from capquad import verify
    from capquad.polys import PolySpace

    values = np.random.default_rng(8).standard_normal(1000) * 3
    for p in (1.0, 2.0):
        assert verify._abs_power(values.copy(), p).tobytes() == (np.abs(values) ** p).tobytes()
    space = PolySpace(2, 6)
    coeffs = np.random.default_rng(9).standard_normal((space.size, 20))
    domain = cq.Cap(E2, 1.0)
    got = {p: verify._abs_power_integral(domain, space, coeffs, p)[0] for p in (3.0, 5.0)}

    def general(values, p):
        np.abs(values, out=values)
        values **= p
        return values

    monkeypatch.setattr(verify, "_abs_power", general)
    for p, integrals in got.items():
        want = verify._abs_power_integral(domain, space, coeffs, p)[0]
        assert np.allclose(integrals, want, rtol=1e-14, atol=0.0)


def test_abs_power_integral_memory_is_bounded():
    # the order-200 rule of a degree-20 odd-p integral has 81 002 points: a
    # basis table of them would be 81 002 x 441 entries (286 MB)
    import tracemalloc

    from capquad import verify
    from capquad.polys import PolySpace

    space = PolySpace(2, 20)
    coeffs = np.random.default_rng(3).standard_normal((space.size, 2))
    tracemalloc.start()
    try:
        _, capped = verify._abs_power_integral(cq.Cap(E2, 0.9), space, coeffs, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(capped) == 2  # both columns reached the order-200 rule
    assert peak < 32 * 2**20


def test_osc_constant_finite(nodes_a1_n8):
    est = cq.osc_constant(nodes_a1_n8, 8, 2, trials=10, ball_samples=32, seed=4)["estimate"]
    assert np.isfinite(est)
    assert est > 0


def test_sieve_single_node_formula(cap_a1):
    # one node at the center with a constant polynomial: the ratio is
    # the ball surrogate over the cap measure, independently computable
    ns = cq.NodeSet(cap_a1, E2.coords.reshape(1, -1), 1.0, degree=8)
    got = cq.large_sieve_constant(ns, 8, 2, trials=3, seed=6, trial_degree=0)["estimate"]
    want = cq.delta_r(cap_a1, E2, 1.0 / 8) / cq.domain_measure(cap_a1)
    assert got == pytest.approx(want, rel=1e-6)


def test_osc_zero_for_constant_trials(nodes_a1_n8):
    est = cq.osc_constant(nodes_a1_n8, 8, 2, trials=3, ball_samples=16,
                          seed=6, trial_degree=0)
    assert est["estimate"] == 0.0


def test_maxmin_constant_trials_coincide(nodes_a1_n8):
    cell = cq.maxmin_equivalence(nodes_a1_n8, 8, 2, trials=3, ball_samples=16, seed=6,
                                 trial_degree=0)
    assert cell["max_lo"] == pytest.approx(cell["min_lo"], rel=1e-12)
    assert cell["max_hi"] == pytest.approx(cell["min_hi"], rel=1e-12)


def test_sieve_duplication_invariance(cap_a1, nodes_a1_n8):
    spread = spread_subset(nodes_a1_n8, 40)
    base = cq.NodeSet(cap_a1, spread, 0.0, degree=8)
    tripled = cq.NodeSet(cap_a1, np.repeat(spread, 3, axis=0), 0.0, degree=8)
    c1 = cq.large_sieve_constant(base, 8, 2, trials=10, seed=7)["estimate"]
    c3 = cq.large_sieve_constant(tripled, 8, 2, trials=10, seed=7)["estimate"]
    assert c3 == pytest.approx(c1, abs=1e-12)


def test_sieve_clustered_vs_separated(cap_a1, nodes_a1_n8):
    rng = np.random.default_rng(8)
    separated = cq.NodeSet(cap_a1, spread_subset(nodes_a1_n8, 60), 0.0, degree=8)
    # clustered: 60 points crammed near the center
    from conftest import random_cap_points
    cluster = random_cap_points(cq.Cap(E2, 0.05), 60, seed=8)
    clustered = cq.NodeSet(cap_a1, cluster, 0.0, degree=8)
    cs = cq.large_sieve_constant(separated, 8, 2, trials=20, seed=9)["estimate"]
    cc = cq.large_sieve_constant(clustered, 8, 2, trials=20, seed=9)["estimate"]
    assert np.isfinite(cs) and np.isfinite(cc)
    assert max(cs, cc) / min(cs, cc) <= 50


def test_maxmin_ordering_and_bracket(nodes_a1_n8):
    cell = cq.maxmin_equivalence(nodes_a1_n8, 8, 2, trials=20, ball_samples=32, seed=10)
    mx_lo, mx_hi, mn_lo, mn_hi = (cell[k] for k in ("max_lo", "max_hi", "min_lo", "min_hi"))
    assert mx_lo >= mn_lo and mx_hi >= mn_hi
    for v in (mx_lo, mx_hi, mn_lo, mn_hi):
        assert 1 / 20 <= v <= 20


@pytest.mark.parametrize("make", [
    lambda: cq.DoublingWeight.boundary_power(math.nan),
    lambda: cq.DoublingWeight.constant(math.nan),
], ids=["gamma", "value"])
def test_doubling_weight_rejects_nan(make):
    with pytest.raises(ValueError):
        make()


def test_bernstein_trivials():
    w = cq.DoublingWeight.constant()
    # T = pure cosine of full degree: directly computable ratio, finite
    est = cq.bernstein_check_d1(0.5, 8, 2, w, trials=5, seed=11)["estimate"]
    assert np.isfinite(est)
    assert 0 < est <= 2.0  # derivative gain is at most ~n, normalized away


def test_bernstein_stability_across_n():
    w = cq.DoublingWeight.constant()
    ests = [cq.bernstein_check_d1(0.5, n, 2, w, trials=20, seed=12)["estimate"]
            for n in (8, 16, 32)]
    assert max(ests) / min(ests) <= 2.0


def test_compute_Wn(cap_a05):
    const = cq.DoublingWeight.constant()
    assert cq.compute_Wn(cap_a05, const, 8, E2) == pytest.approx(1.0, rel=1e-14)
    bp = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
    got = cq.compute_Wn(cap_a05, bp, 64, E2)
    # at an interior point the ball average approaches the value b_x + 1/n_ref
    assert got == pytest.approx(0.5 + 0.125, rel=0.05)
    # mean-value bound on a random point
    from conftest import random_cap_points
    x = cq.SpherePoint(random_cap_points(cap_a05, 1, seed=13)[0])
    wn = cq.compute_Wn(cap_a05, bp, 8, x)
    assert 0 < wn <= (0.5 + 0.125) * 1.01


def test_estimate_doubling(cap_a05):
    const = cq.DoublingWeight.constant()
    l_const = cq.estimate_doubling(cap_a05, const, radii_levels=3, probes=9)
    bp = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
    l_bp = cq.estimate_doubling(cap_a05, bp, radii_levels=3, probes=9)
    assert 1.0 <= l_const < 100
    assert 1.0 <= l_bp < 100


def test_weighted_mz_unit_weight(cap_a05, nodes_a05_n8):
    const = cq.DoublingWeight.constant()
    out = cq.weighted_mz(cap_a05, const, nodes_a05_n8, 8, 2, trials=5, seed=14)
    lo, hi = out["wn_equivalence_lo"], out["wn_equivalence_hi"]
    assert abs(lo - 1) <= 1e-12 and abs(hi - 1) <= 1e-12
    assert out["max_sum_hi"] >= out["min_sum_lo"]


def test_weighted_mz_boundary_power(cap_a05, nodes_a05_n8):
    bp = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
    out = cq.weighted_mz(cap_a05, bp, nodes_a05_n8, 8, 2, trials=10, seed=15)
    for name in ("wn_equivalence", "max_sum", "min_sum"):
        assert 1 / 50 <= out[f"{name}_lo"] <= out[f"{name}_hi"] <= 50


def test_change_of_variables(cap_a1):
    # d=1: the jacobian polynomial is identically 1
    for cap in (cap_a1, cq.Cap(E2, 2.5), cq.Cap(cq.north_pole(1), 2.0)):
        cell = cq.change_of_variables_check(cap, 8, trials=5, seed=16)
        assert cell["max_discrepancy"] <= 1e-9


def test_report_roundtrip(tmp_path):
    rep = VerificationReport("mz", {"d": 2, "alpha": 1.0}, [{"ratio_min": 0.9}], 5)
    d = rep.to_dict()
    back = VerificationReport.from_dict(d)
    assert back.to_dict() == d
    rows = list(rep.csv_rows())
    assert rows[0] == ["ratio_min"]


def test_degenerate_redraw(cap_a1):
    # zero-degree space cannot produce degenerate draws, but the redraw
    # path must keep determinism: same seed, same bracket
    ns = cq.NodeSet(cap_a1, E2.coords.reshape(1, -1), 1.0, degree=0)
    rule = cq.solve_weights(ns, 0)
    a = cq.mz_bracket(rule, 2, trials=4, seed=17)
    b = cq.mz_bracket(rule, 2, trials=4, seed=17)
    assert a == b


def test_d1_rule_mz_and_weighted():
    # the whole pipeline also runs on arcs of the circle
    cap = cq.Cap(cq.north_pole(1), 0.5)
    nodes = cq.ring_lattice(cap, 0.25 / 6, seed=1, degree=6, delta=0.25)
    rule = cq.solve_weights(nodes, 6)
    assert isinstance(rule, cq.CubatureRule)
    assert rule.residual <= 1e-10
    lo, hi = _ratios(cq.mz_bracket(rule, 2, trials=20, seed=20))
    assert hi / lo <= 20
    clo, chi = _ratios(cq.mz_bracket(rule, 2, trials=10, seed=20, trial_degree=3))
    assert max(abs(clo - 1), abs(chi - 1)) <= 1e-9
    out = cq.weighted_mz(cap, cq.DoublingWeight.constant(), nodes, 6, 2,
                         trials=5, seed=21)
    lo_u, hi_u = out["wn_equivalence_lo"], out["wn_equivalence_hi"]
    assert abs(lo_u - 1) <= 1e-12 and abs(hi_u - 1) <= 1e-12


def test_osc_single_node_finite(cap_a1):
    ns = cq.NodeSet(cap_a1, E2.coords.reshape(1, -1), 1.0, degree=8, delta=1.0)
    est = cq.osc_constant(ns, 8, 2, trials=5, ball_samples=32, seed=22)["estimate"]
    assert np.isfinite(est) and est > 0


def test_weighted_mz_constant_trials_coincide(cap_a05, nodes_a05_n8):
    bp = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
    out = cq.weighted_mz(cap_a05, bp, nodes_a05_n8, 8, 2, trials=3, seed=23,
                         trial_degree=0)
    assert out["max_sum_lo"] == pytest.approx(out["min_sum_lo"], rel=1e-12)
    assert out["max_sum_hi"] == pytest.approx(out["min_sum_hi"], rel=1e-12)


def test_bernstein_pure_mode_oracle():
    # T(t) = cos(n t): both sides reduce to elementary integrals; compare
    # the module's trial machinery pieces against direct dense quadrature
    from capquad.verify import _interval_adaptive, _trig_derivative

    alpha, n, p = 0.5, 8, 2
    c = np.zeros((2 * n + 1, 1))
    c[2 * n - 1] = 1.0  # cos(n t) up to the 1/sqrt(pi) normalization
    dc = _trig_derivative(c)
    lhs = _interval_adaptive(alpha, dc, p, lambda t:
                             (alpha / n + np.sqrt(np.clip(alpha**2 - t**2, 0, None))) ** p)[0]
    rhs = _interval_adaptive(alpha, c, p, np.ones_like)[0]
    t = np.linspace(-alpha, alpha, 400_001)
    f_l = (n * np.sin(n * t)) ** 2 * (alpha / n + np.sqrt(alpha**2 - t**2)) ** 2 / np.pi
    f_r = np.cos(n * t) ** 2 / np.pi
    assert lhs == pytest.approx(np.trapezoid(f_l, t), rel=1e-6)
    assert rhs == pytest.approx(np.trapezoid(f_r, t), rel=1e-6)
    assert np.isfinite(lhs / (n**p * rhs))


def test_trig_derivative_of_constant_is_zero():
    from capquad.verify import _trig_derivative

    c = np.zeros(17)
    c[0] = 2.0
    assert np.all(_trig_derivative(c) == 0.0)


def test_estimate_doubling_power_zero_matches_constant(cap_a05):
    const = cq.DoublingWeight.constant()
    bp0 = cq.DoublingWeight.boundary_power(0.0, n_ref=8)
    l1 = cq.estimate_doubling(cap_a05, const, radii_levels=3, probes=9)
    l2 = cq.estimate_doubling(cap_a05, bp0, radii_levels=3, probes=9)
    assert l1 == pytest.approx(l2, rel=1e-12)


def test_doubling_weight_one_formula(cap_a05):
    from conftest import random_cap_points

    pts = random_cap_points(cap_a05, 50, seed=5)
    b = cq.geometry.boundary_distance_many(cap_a05, pts)
    t = np.linspace(-0.5, 0.5, 41)
    for weight in (cq.DoublingWeight.constant(2.5), cq.DoublingWeight.boundary_power(1.5, n_ref=4)):
        assert np.array_equal(weight.eval_on(cap_a05, pts), weight.eval_b(b))
        assert np.array_equal(weight.eval_interval(0.5, t), weight.eval_b(0.5 - np.abs(t)))
    bp = cq.DoublingWeight.boundary_power(1.5, n_ref=4)
    assert np.allclose(bp.eval_b(np.array([0.0, 0.25])), [0.25**1.5, 0.5**1.5], rtol=1e-15)


def _turned(nodes, centre):
    """``nodes`` turned so that the pole goes to ``centre``."""
    import dataclasses

    from capquad.geometry import north_frame

    domain = dataclasses.replace(nodes.domain, center=centre)
    return cq.NodeSet(domain, nodes.coords @ north_frame(centre), nodes.epsilon,
                      nodes.degree, nodes.delta, nodes.seed, validate=False)


_OFF_POLE = cq.SpherePoint([0.4, -0.3, 0.87])


def test_canonical_turns_a_set_to_the_pole(nodes_a1_n8):
    from capquad.points import canonical

    assert canonical(nodes_a1_n8) is nodes_a1_n8
    turned = _turned(nodes_a1_n8, _OFF_POLE)
    back = canonical(turned)
    assert back.domain == nodes_a1_n8.domain
    assert np.abs(back.coords - nodes_a1_n8.coords).max() <= 1e-15
    assert (back.epsilon, back.degree, back.delta, back.seed) == (
        turned.epsilon, turned.degree, turned.delta, turned.seed)


def test_turned_set_measures_like_the_pole_set(cap_a1):
    # the constants do not depend on the cap centre: a set turned off the
    # pole measures what its canonical copy measures, bit for bit, and what
    # the pole set measures up to rounding
    from capquad.points import canonical

    pole = cq.ring_lattice(cap_a1, 0.25 / 4, seed=3, degree=4, delta=0.25)
    turned = _turned(pole, _OFF_POLE)
    rule_pole = cq.solve_weights(pole, 4)
    rule = cq.CubatureRule(turned, rule_pole.weights, 4, rule_pole.residual,
                           rule_pole.solver_meta)
    copy = canonical(turned)
    rule_copy = cq.CubatureRule(copy, rule.weights, 4, rule.residual, rule.solver_meta)
    run = {"trials": 6, "seed": 9}

    def measures(nodes, rule):
        cells = (cq.mz_bracket(rule, 1, **run), cq.mz_bracket(rule, 2, **run),
                 cq.osc_constant(nodes, 4, 2, ball_samples=16, **run),
                 cq.large_sieve_constant(nodes, 4, 2, probes=2000, **run),
                 cq.maxmin_equivalence(nodes, 4, 2, ball_samples=16, **run))
        # the brackets and estimates, not the quadrature diagnostics
        return [c[k] for c in cells for k in sorted(c) if not k.startswith(("integral", "ball"))]

    got = measures(turned, rule)
    assert got == measures(copy, rule_copy)
    assert np.allclose(got, measures(pole, rule_pole), rtol=1e-8, atol=0.0)


def test_turned_set_solves_like_the_pole_set(cap_a1):
    pole = cq.ring_lattice(cap_a1, 0.25 / 4, seed=3, degree=4, delta=0.25)
    rule_pole, rule = cq.solve_weights(pole, 4), cq.solve_weights(_turned(pole, _OFF_POLE), 4)
    assert rule.solver_meta == rule_pole.solver_meta
    assert rule.residual <= 1e-10
    # a rounding-level move of a node on the boundary moves sqrt(b) in its
    # profile by about 1e-8 (b ~ 1e-16): the weights agree to about 1e-7
    assert np.allclose(rule.weights, rule_pole.weights, rtol=1e-6, atol=0.0)


def test_turned_set_weighted_mz_like_the_pole_set(cap_a05, nodes_a05_n8):
    from capquad.points import canonical

    turned = _turned(nodes_a05_n8, _OFF_POLE)
    weight = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
    run = {"trials": 3, "seed": 4, "ball_samples": 8}
    got = cq.weighted_mz(turned.domain, weight, turned, 4, 2, **run)
    copy = canonical(turned)
    assert got == cq.weighted_mz(copy.domain, weight, copy, 4, 2, **run)
    want = cq.weighted_mz(cap_a05, weight, nodes_a05_n8, 4, 2, **run)
    assert np.allclose([got[k] for k in sorted(got)], [want[k] for k in sorted(want)],
                       rtol=1e-8, atol=0.0)


def test_weighted_mz_refuses_another_cap(cap_a05, nodes_a05_n8):
    weight = cq.DoublingWeight.constant()
    with pytest.raises(ValueError, match="cap of the node set"):
        cq.weighted_mz(cq.Cap(E2, 0.45), weight, nodes_a05_n8, 8, 2, trials=2)
    turned = _turned(nodes_a05_n8, _OFF_POLE)
    with pytest.raises(ValueError, match="cap of the node set"):
        cq.weighted_mz(cap_a05, weight, turned, 8, 2, trials=2)
