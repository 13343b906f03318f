import math

import numpy as np
import pytest

import capquad as cq
from capquad.verify import VerificationReport

from conftest import spread_subset

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
    # a constant polynomial has zero oscillation on every ball, the turned
    # ring nodes included: its order m >= 1 parts are exact zeros
    from capquad.polys import PolySpace
    from capquad.verify import _RingBallTable

    for degree in (0, 4):
        space = PolySpace(2, degree)
        table = _RingBallTable(nodes_a1_n8, nodes_a1_n8.epsilon, 16, space)
        assert table.turned.size > 0
        coeffs = np.zeros((space.size, 3))
        coeffs[0] = [1.0, -2.0, 0.5]
        gmax, gmin = table.extremes(coeffs, absolute=False)
        assert np.abs(gmax - gmin).max() == 0.0


def _turn_z(points, gap):
    """Rows of ``points`` turned by ``gap`` about the pole (0, 0, 1)."""
    c, s = math.cos(gap), math.sin(gap)
    return points @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def _ball_sets():
    """(nodes, radius) of a cap lattice, the same turned off the pole and
    back (canonical z a few ulps apart in a ring), a collar lattice, a d=1
    arc and a cap set with no two nodes at one polar angle."""
    from conftest import random_cap_points
    from capquad.points import canonical

    cap = cq.Cap(E2, 1.0)
    scattered = cq.NodeSet(cap, random_cap_points(cap, 150, seed=8), 0.0)
    arc = cq.ring_lattice(cq.Cap(cq.north_pole(1), 1.0), 0.25 / 16, degree=16, delta=0.25)
    lattice = cq.ring_lattice(cap, 0.25 / 4, degree=4, delta=0.25)
    return [(lattice, 0.25 / 4), (canonical(_turned(lattice, _OFF_POLE)), 0.25 / 4),
            (cq.ring_lattice(cq.Collar(E2, 0.5, 1.0), 0.25 / 4, degree=4, delta=0.25), 0.1),
            (arc, arc.epsilon), (scattered, 0.08)]


def test_ring_extremes_match_each_nodes_turned_samples():
    # every node's max and min against eval_basis_many at its own samples:
    # the ring's reference samples turned by the node's azimuth gap
    from capquad import geometry as g
    from capquad.polys import PolySpace, eval_basis_many
    from capquad.verify import _RingBallTable

    for nodes, radius in _ball_sets():
        domain, coords = nodes.domain, nodes.coords
        space = PolySpace(domain.dim, 5)
        table = _RingBallTable(nodes, radius, 24, space)
        coeffs = np.random.default_rng(3).standard_normal((space.size, 4))
        rings = len(table.starts) - 1
        if domain.dim == 1 or nodes.epsilon == 0:  # rings of one node, none turned
            assert table.turned.size == 0 and rings == len(nodes)
        else:
            assert table.turned.size > 0 and 4 * rings < len(nodes)
        got = [table.extremes(coeffs, absolute) for absolute in (False, True)]
        want = np.full((2,) + got[0].shape, np.nan)
        for r in range(rings):
            ring = table.nodes[table.node_starts[r]:table.node_starts[r + 1]]
            ref = table.samples[table.starts[r]:table.starts[r + 1]]
            assert np.array_equal(ref[0], coords[ring[0]])  # the reference centre leads
            for j in np.r_[ring[::max(1, len(ring) // 4)], ring[-1]]:  # a few of each ring
                pts = ref
                if domain.dim == 2:
                    gap = math.atan2(coords[j, 1], coords[j, 0]) - math.atan2(
                        coords[ring[0], 1], coords[ring[0], 0])
                    pts = _turn_z(ref, gap)
                assert np.abs(pts[0] - coords[j]).max() <= 1e-15
                assert (g.rho_many(domain, pts, coords[j]) <= radius + 1e-12).all()
                assert g.contains(domain, pts).all()
                values = eval_basis_many(space, pts) @ coeffs
                for k, v in enumerate((values, np.abs(values))):
                    want[k, :, j] = v.max(axis=0), v.min(axis=0)
        checked = ~np.isnan(want[0, 0, :, 0])
        for k in (0, 1):
            gap = np.abs(got[k] - want[k])[:, checked]
            assert gap.max() <= 1e-12 * np.abs(want[k][:, checked]).max()


def _turned_about_pole(nodes, gap):
    return cq.NodeSet(nodes.domain, _turn_z(nodes.coords, gap), nodes.epsilon, nodes.degree,
                      nodes.delta, nodes.seed, validate=False)


def _coefficient_turn(degree, gap):
    """The matrix taking the coefficients of f to those of f turned by
    ``gap`` about the pole, f(R_z(-gap) x)."""
    turn = np.eye((degree + 1) ** 2)
    for l in range(1, degree + 1):
        for m in range(1, l + 1):
            cos_m, sin_m = l * l + l + m, l * l + l - m
            c, s = math.cos(m * gap), math.sin(m * gap)
            turn[np.ix_([cos_m, sin_m], [cos_m, sin_m])] = [[c, -s], [s, c]]
    return turn


def test_ball_cells_are_invariant_under_a_turn_about_the_pole(monkeypatch, cap_a1, cap_a05,
                                                              nodes_a05_n8):
    # the ring frame is equivariant: a set and its trial polynomials turned
    # together about the pole give the same balls and so the same cells
    from capquad import verify

    gap = 2.0171
    lattice = cq.ring_lattice(cap_a1, 0.25 / 4, degree=4, delta=0.25)
    weight = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
    run = {"trials": 5, "seed": 12, "ball_samples": 24}

    def cells(cap_nodes, small_nodes):
        return [cq.osc_constant(cap_nodes, 4, 2, **run),
                cq.maxmin_equivalence(cap_nodes, 4, 2, **run),
                cq.weighted_mz(cap_a05, weight, small_nodes, 4, 2, **run)]

    want = cells(lattice, nodes_a05_n8)
    turn = _coefficient_turn(4, gap)
    engine = verify.run_trials
    monkeypatch.setattr(verify, "run_trials", lambda trials, measure, size, seed: engine(
        trials, lambda c: measure(turn @ c), size, seed))
    got = cells(_turned_about_pole(lattice, gap), _turned_about_pole(nodes_a05_n8, gap))
    for a, b in zip(got, want):
        assert a.keys() == b.keys()
        assert np.allclose([a[k] for k in sorted(a)], [b[k] for k in sorted(b)],
                           rtol=1e-12, atol=0.0)


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
    assert np.allclose(got, measures(pole, rule_pole), rtol=1e-12, atol=0.0)


def test_turned_set_solves_like_the_pole_set(cap_a1):
    pole = cq.ring_lattice(cap_a1, 0.25 / 4, seed=3, degree=4, delta=0.25)
    rule_pole, rule = cq.solve_weights(pole, 4), cq.solve_weights(_turned(pole, _OFF_POLE), 4)
    # the same path and the same rings: the turned set's canonical z are
    # rounded node by node, by a few ulps, and rings are grouped within that
    assert rule.solver_meta == rule_pole.solver_meta
    assert (rule.solver_meta["ring_nodes"], rule.solver_meta["rings"]) == (819, 22)
    assert rule.residual <= 1e-10
    # edge nodes' boundary distances read 0 in the profile, whatever their
    # last bits, so the weights agree to rounding (they did to 1e-7)
    assert np.allclose(rule.weights, rule_pole.weights, rtol=1e-12, atol=0.0)


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
                       rtol=1e-12, atol=0.0)


def test_weighted_mz_refuses_another_cap(cap_a05, nodes_a05_n8):
    weight = cq.DoublingWeight.constant()
    with pytest.raises(ValueError, match="cap of the node set"):
        cq.weighted_mz(cq.Cap(E2, 0.45), weight, nodes_a05_n8, 8, 2, trials=2)
    turned = _turned(nodes_a05_n8, _OFF_POLE)
    with pytest.raises(ValueError, match="cap of the node set"):
        cq.weighted_mz(cap_a05, weight, turned, 8, 2, trials=2)
