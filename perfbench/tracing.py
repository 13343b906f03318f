"""Spans and counters around calls into capquad's layers.

The tracer wraps public functions at every module attribute that holds
them (``capquad.solver.nnls``, ``capquad.cli.greedy_maximal_set``, ...),
so calls made through any import site are seen.  Each call records a
span (name, start, end, parent) in memory; hooks add counters measured
at the same boundary.  A span's self time is its duration minus that of
its child spans (calls are nested and single-threaded, so children never
overlap).
"""

import json
import os
import time
from collections import defaultdict

LAYERS = ("geometry", "points", "polys", "quadrature", "solver", "verify", "io", "cli")

VERIFY_SPANS = ("mz", "osc", "sieve", "maxmin", "weighted_mz", "bernstein", "cov")

# counters the hooks below add to (reported as 0 when no call reached them)
COUNTERS = ("points.pool_points", "points.nodes", "geometry.rho_many.rows",
            "polys.eval_basis.rows", "polys.eval_basis.entries",
            "quadrature.build_rule.misses", "quadrature.balls_integral.balls",
            "solver.nnls.support", "solver.back_offs", "solver.matrix_entries",
            "verify.trials", "io.write.bytes", "io.load.bytes")


def _rho_rows(counters, name, args, kwargs, result, parent):
    counters[name + ".rows"] += len(args[1])  # rho_many(domain, coords, y)


def _greedy(counters, name, args, kwargs, result, parent):
    counters["points.nodes"] += len(result)


def _grid(counters, name, args, kwargs, result, parent):
    if parent == "points.greedy":
        counters["points.pool_points"] += len(result)


def _basis(counters, name, args, kwargs, result, parent):
    counters[name + ".rows"] += result.shape[0]
    counters[name + ".entries"] += result.size


def _balls(counters, name, args, kwargs, result, parent):
    counters[name + ".balls"] += len(result[0])  # one volume per ball


def _solve(counters, name, args, kwargs, result, parent):
    meta = getattr(result, "solver_meta", None) or {}
    counters["solver.back_offs"] += meta.get("back_offs", 0)


def _nnls(counters, name, args, kwargs, result, parent):
    counters[name + ".support"] += result[2]
    counters["solver.matrix_entries"] += args[0].size


def _trials(counters, name, args, kwargs, result, parent):
    counters["verify.trials"] += args[0]


def _file_bytes(counters, name, args, kwargs, result, parent):
    counters[name + ".bytes"] += os.path.getsize(args[0])  # first argument: the path


# (defining module, function, span name, counter hook)
TARGETS = (
    ("points", "greedy_maximal_set", "points.greedy", _greedy),
    ("points", "product_grid", "points.product_grid", _grid),
    ("points", "min_separation", "points.min_separation", None),
    ("points", "tau_statistic", "points.tau_statistic", None),
    ("geometry", "rho_many", "geometry.rho_many", _rho_rows),
    ("geometry", "boundary_distance_many", "geometry.boundary_distance", None),
    ("geometry", "delta_r_many", "geometry.delta_r", None),
    ("polys", "eval_basis_many", "polys.eval_basis", _basis),
    ("quadrature", "build_rule", "quadrature.build_rule", None),
    ("quadrature", "balls_integral", "quadrature.balls_integral", _balls),
    ("quadrature", "domain_moments", "quadrature.domain_moments", None),
    ("solver", "solve_weights", "solver.solve_weights", _solve),
    ("solver", "nnls", "solver.nnls", _nnls),
    ("verify", "mz_bracket", "verify.mz", None),
    ("verify", "osc_constant", "verify.osc", None),
    ("verify", "large_sieve_constant", "verify.sieve", None),
    ("verify", "maxmin_equivalence", "verify.maxmin", None),
    ("verify", "weighted_mz", "verify.weighted_mz", None),
    ("verify", "bernstein_check_d1", "verify.bernstein", None),
    ("verify", "change_of_variables_check", "verify.cov", None),
    ("verify", "run_trials", "verify.run_trials", _trials),
    ("io", "write_canonical", "io.write", _file_bytes),
    ("io", "load_json", "io.load", _file_bytes),
    ("io", "nodes_from_dict", "io.nodes_from_dict", None),
    ("io", "rule_from_dict", "io.rule_from_dict", None),
    ("io", "points_to_dict", "io.points_to_dict", None),
    ("io", "rule_to_dict", "io.rule_to_dict", None),
)


class Tracer:
    """In-memory spans and counters; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []
        self._cache_misses0 = None
        self._build_rule = None

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append([name, 0.0, 0.0, parent])
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][1] = t0
                spans[sid][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, name, args, kwargs, result,
                     spans[parent][0] if parent >= 0 else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package, modules):
        """Wrap every TARGETS function wherever ``modules`` hold it.

        A target missing from the package is skipped; its metrics stay 0.
        """
        self._build_rule = getattr(package.quadrature, "build_rule", None)
        if hasattr(self._build_rule, "cache_info"):
            self._cache_misses0 = self._build_rule.cache_info().misses
        for mod_name, fn_name, span_name, hook in TARGETS:
            orig = getattr(getattr(package, mod_name), fn_name, None)
            if orig is None:
                continue
            wrapper = self.span(span_name, orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        calls = sum(1 for s in self.spans if s[0] == "quadrature.build_rule")
        if self._cache_misses0 is None:
            self.counters["quadrature.build_rule.misses"] = calls
        else:
            misses = self._build_rule.cache_info().misses - self._cache_misses0
            self.counters["quadrature.build_rule.misses"] = misses

    def totals(self):
        """Additive per-span and per-layer sums plus counters, by metric name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
        for name in COUNTERS:
            out[name] = 0.0
        for _, _, span_name, _ in TARGETS:
            out[span_name + ".s"] = 0.0
            out[span_name + ".calls"] = 0.0
            out[span_name + ".self_s"] = 0.0
        for (name, t0, t1, _), c in zip(self.spans, child):
            dur = t1 - t0
            out[name + ".s"] += dur
            out[name + ".calls"] += 1
            out[name + ".self_s"] += dur - c
            out[name.split(".")[0] + ".self_s"] += dur - c
        out.update(self.counters)
        return dict(out)

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def derived(totals):
    """Ratios and differences computed from (summed) totals."""
    out = dict(totals)
    nodes = totals.get("points.nodes", 0.0)
    out["points.pool_per_node"] = totals.get("points.pool_points", 0.0) / nodes if nodes else 0.0
    calls = totals.get("quadrature.build_rule.calls", 0.0)
    misses = totals.get("quadrature.build_rule.misses", 0.0)
    out["quadrature.build_rule.hit_ratio"] = 1.0 - misses / calls if calls else 0.0
    measured = sum(totals.get(f"verify.{v}.s", 0.0) for v in VERIFY_SPANS)
    out["verify.tables_s"] = measured - totals.get("verify.run_trials.s", 0.0)
    return out
