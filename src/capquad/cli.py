"""Command-line entry points: points, solve, verify, moments.

Exit codes: 0 success, 1 malformed flags or input, 2 infeasible solve,
3 assertion failure under --assert.  Seeds and thread counts follow the
precedence flags > environment (CAPQUAD_SEED, CAPQUAD_THREADS) >
defaults, and an environment value gets its flag's check.  The thread
count is parsed and checked but changes no output: every measurement
runs its trials as one batch of matrix products.  A verify measurement
that is not finite or whose draws stay degenerate, or a verify flag its
measurement does not take, exits 1 without a report.
"""

from __future__ import annotations

import argparse
import collections
import functools
import inspect
import math
import os
import sys
import time

from . import io as cqio
from .geometry import ALPHA_MAX, Cap, Collar, north_pole
from .points import grid_counts, ring_lattice
from .quadrature import DEGREE_CAP, domain_moments
from .solver import Infeasible, solve_weights
from . import verify
from .verify import DoublingWeight, VerificationReport


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _checked(kind, lo=None, hi=None, open_lo=False):
    """argparse type: a finite ``kind`` at least ``lo`` (above it when
    ``open_lo``) and at most ``hi``; bad values exit 1 naming the flag."""
    need = ["finite"] if kind is float else []
    if lo is not None:
        need.append(f"{'>' if open_lo else '>='} {lo!r}")
    if hi is not None:
        need.append(f"<= {hi!r}")

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        below = lo is not None and (value <= lo if open_lo else value < lo)
        if not math.isfinite(value) or below or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be {' and '.join(need)}, got {text}")
        return value

    return parse


_ALPHA = _checked(float, 0.0, ALPHA_MAX, open_lo=True)
# verify flags by attribute, and the measurement parameter each shapes: set
# off its default for a measurement that does not take it, a flag exits 1
_SHAPING = {"p": "p", "beta": "beta", "ball_samples": "ball_samples", "statistic": "statistic",
            "trial_degree": "trial_degree", "weight": "weight", "gamma": "weight",
            "n_ref": "weight"}
_POSITIVE_INT = _checked(int, 1)
_NONNEG_INT = _checked(int, 0)


# (flag attribute, environment variable, check, default): an unset flag
# falls back to the variable, which goes through the flag's own check
_ENV = (("seed", "CAPQUAD_SEED", _NONNEG_INT, 0),
        ("threads", "CAPQUAD_THREADS", _POSITIVE_INT, 1))


def _add_common(p):
    p.add_argument("--seed", type=_NONNEG_INT, default=None,
                   help="master seed (default: CAPQUAD_SEED or 0)")
    p.add_argument("--threads", type=_POSITIVE_INT, default=None,
                   help="thread count (default: CAPQUAD_THREADS or 1); checked, "
                        "but does not change the output")
    p.add_argument("--timing", action="store_true",
                   help="embed wall time in reports (breaks byte reproducibility)")


@functools.cache  # one parser per process: building it costs about a millisecond
def make_parser():
    parser = _Parser(prog="capquad",
                     description="Positive cubature and sampling-inequality checks on spherical caps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pts = sub.add_parser("points", help="generate a maximal separated node set")
    p_pts.set_defaults(func=cmd_points)
    p_pts.add_argument("--d", type=int, choices=(1, 2), required=True)
    p_pts.add_argument("--alpha", type=_ALPHA, required=True)
    p_pts.add_argument("--degree", type=_POSITIVE_INT, required=True)
    p_pts.add_argument("--delta", type=_checked(float, 0.0, 1.0, open_lo=True), required=True)
    p_pts.add_argument("--collar-beta", type=_checked(float), default=None)
    p_pts.add_argument("--out", required=True)
    _add_common(p_pts)

    p_sol = sub.add_parser("solve", help="solve positive cubature weights on a node file")
    p_sol.set_defaults(func=cmd_solve)
    p_sol.add_argument("--points", required=True)
    p_sol.add_argument("--degree", type=_NONNEG_INT, required=True)
    p_sol.add_argument("--tol", type=_checked(float, 0.0, open_lo=True), default=1e-10)
    p_sol.add_argument("--out", required=True)
    _add_common(p_sol)

    p_ver = sub.add_parser("verify", help="measure an inequality and write a report")
    p_ver.set_defaults(func=cmd_verify)
    p_ver.add_argument("subcommand", choices=VERIFY_SUBCOMMANDS)
    p_ver.add_argument("--rule", default=None, help="rule file (mz)")
    p_ver.add_argument("--points", default=None, help="points file (osc/sieve/maxmin/weighted-mz)")
    p_ver.add_argument("--d", type=int, choices=(1, 2), default=2)
    p_ver.add_argument("--alpha", type=_ALPHA, default=None)
    p_ver.add_argument("--degree", type=_POSITIVE_INT, default=None)
    p_ver.add_argument("--p", type=_checked(float, 1.0), default=2.0)
    p_ver.add_argument("--beta", type=_checked(float, 1.0), default=1.0)
    p_ver.add_argument("--trials", type=_POSITIVE_INT, default=200)
    p_ver.add_argument("--ball-samples", type=_POSITIVE_INT, default=64)
    p_ver.add_argument("--trial-degree", type=_NONNEG_INT, default=None,
                       help="degree of the trial polynomials (not bernstein/cov); "
                            "recorded in the cell")
    p_ver.add_argument("--weight", choices=("constant", "boundary-power"), default="constant")
    p_ver.add_argument("--gamma", type=_checked(float, 0.0, 2.0), default=1.0)
    p_ver.add_argument("--n-ref", type=_POSITIVE_INT, default=8)
    p_ver.add_argument("--statistic", choices=("max", "mean"), default="max",
                       help="trial reduction for bernstein")
    p_ver.add_argument("--report", required=True)
    p_ver.add_argument("--csv", default=None, help="also write cells as CSV")
    p_ver.add_argument("--assert", dest="enforce", action="store_true",
                       help="enforce acceptance thresholds; exit 3 on violation")
    _add_common(p_ver)
    p_ver.set_defaults(flag_defaults={attr: p_ver.get_default(attr)
                                      for attr in (*_SHAPING, "d", "alpha")})

    p_mom = sub.add_parser("moments", help="print analytic cap moments of the basis")
    p_mom.set_defaults(func=cmd_moments)
    p_mom.add_argument("--d", type=int, choices=(1, 2), required=True)
    p_mom.add_argument("--alpha", type=_ALPHA, required=True)
    p_mom.add_argument("--degree", type=_checked(int, 0, DEGREE_CAP), required=True)
    _add_common(p_mom)

    return parser


def cmd_points(args):
    center = north_pole(args.d)
    try:
        if args.collar_beta is None:
            domain = Cap(center, args.alpha)
        else:
            domain = Collar(center, args.alpha, args.collar_beta)
        epsilon = args.delta / args.degree
        # refuse a set whose product grid at twice the coverage probes'
        # resolution would pass the grid limit: its coverage is checkable
        grid_counts(domain, epsilon, 8)
        nodes = ring_lattice(domain, epsilon, seed=args.seed, degree=args.degree,
                             delta=args.delta)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    cqio.write_canonical(args.out, cqio.points_to_dict(nodes))
    sys.stderr.write(f"wrote {len(nodes)} nodes to {args.out}\n")
    return 0


def cmd_solve(args):
    try:
        nodes = cqio.nodes_from_dict(cqio.load_json(args.points))
    except (cqio.FormatError, ValueError) as exc:
        sys.stderr.write(f"error: --points file invalid: {exc}\n")
        return 1
    try:
        result = solve_weights(nodes, args.degree, tol=args.tol)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if isinstance(result, Infeasible):
        sys.stderr.write(
            f"infeasible: {result.message}; achieved residual {result.residual:.3e}; "
            f"suggest regenerating the set at delta = {nodes.delta / 2:.6g}\n"
        )
        return 2
    cqio.write_canonical(args.out, cqio.rule_to_dict(result))
    sys.stderr.write(
        f"accepted ({result.solver_meta['solver']}): {len(result.nodes)} nodes, "
        f"residual {result.residual:.3e}\n"
    )
    return 0


# ---------------------------------------------------------------------------
# verify: one table row per subcommand


def _cap_nodes(values):
    if not isinstance(values["cap"], Cap):
        raise cqio.FormatError("weighted-mz runs on cap node sets")


def _dilation_alpha(values):
    if not (0.5 <= values["cap"].alpha <= ALPHA_MAX):
        raise cqio.FormatError("dilation check needs alpha in [1/2, pi - 0.1]")


def _positive(cell):
    return cell["estimate"] > 0


def _within(bound):
    """Acceptance of brackets: every *_lo at least 1/bound, every *_hi at most bound."""
    return lambda cell: all(1 / bound <= v if k.endswith("_lo") else v <= bound
                            for k, v in cell.items() if k.endswith(("_lo", "_hi")))


# One row per subcommand.  source: what is measured, "rule" or "points" (the
# file that flag names), "arc" (the d=1 interval of --alpha; --degree
# required) or "cap" (--d and --alpha; --degree defaults to 8).  measure:
# the name of the verify function, looked up when called; it gets, by
# parameter name, the values it takes of those _verify_input offers, and
# returns the report cell.  grid: the report's grid keys.  cell: flags
# copied into the cell beside "trials".  accept: the --assert predicate
# on the measured cell.  check: None, or a check of the offered values
# that raises FormatError.
_Verify = collections.namedtuple("_Verify", "source measure grid cell accept check")
_NODE_GRID = ("d", "alpha", "n", "delta", "p")
_VERIFY = {
    "mz": _Verify("rule", "mz_bracket", _NODE_GRID, (), lambda c: c["spread"] <= 20.0, None),
    "osc": _Verify("points", "osc_constant", _NODE_GRID + ("beta",), ("ball_samples",),
                   _positive, None),
    "sieve": _Verify("points", "large_sieve_constant", ("d", "alpha", "n", "p"), (),
                     _positive, None),
    "maxmin": _Verify("points", "maxmin_equivalence", _NODE_GRID + ("beta",),
                      ("ball_samples",), _within(20), None),
    "bernstein": _Verify("arc", "bernstein_check_d1",
                         ("d", "alpha", "n", "p", "weight", "statistic"), (), _positive, None),
    "weighted-mz": _Verify("points", "weighted_mz", _NODE_GRID + ("weight",),
                           ("ball_samples",), _within(50), _cap_nodes),
    "cov": _Verify("cap", "change_of_variables_check", ("d", "alpha", "n"), (),
                   lambda c: c["max_discrepancy"] <= 1e-9, _dilation_alpha),
}
_ALIASES = {"change-of-var": "cov"}
VERIFY_SUBCOMMANDS = (*_VERIFY, *_ALIASES)


def _verify_input(args, name, source):
    """The values a measurement can take, by parameter name (the loaded
    rule or node set, its domain as ``cap``, the degree and the flags),
    and the grid fields; --degree overrides a node set's own degree and
    does not apply to a rule, whose degree is its own."""
    weight = (DoublingWeight.constant() if args.weight == "constant"
              else DoublingWeight.boundary_power(args.gamma, n_ref=args.n_ref))
    offered = {"p": args.p, "beta": args.beta, "ball_samples": args.ball_samples,
               "weight": weight, "statistic": args.statistic,
               "trials": args.trials, "seed": args.seed}
    if args.trial_degree is not None:
        offered["trial_degree"] = args.trial_degree
    if source in ("rule", "points"):
        path = getattr(args, source)
        if path is None:
            raise cqio.FormatError(f"--{source} is required for {name}")
        for attr in ("d", "alpha"):
            if getattr(args, attr) != args.flag_defaults[attr]:
                raise cqio.FormatError(f"--{attr} does not apply to {name}, which measures "
                                       f"on the domain of its --{source} file")
        if source == "rule" and args.degree is not None:
            raise cqio.FormatError(f"--degree does not apply to {name}, which measures at "
                                   "the rule's degree; use --trial-degree")
        data = cqio.load_json(path)
        if source == "rule":
            rule = offered["rule"] = cqio.rule_from_dict(data)
            nodes, degree = rule.nodes, rule.degree
        else:
            nodes = offered["nodes"] = cqio.nodes_from_dict(data)
            degree = nodes.degree if args.degree is None else args.degree
        domain = nodes.domain
        offered.update(cap=domain, degree=degree)
        return offered, {"d": domain.dim, "alpha": domain.alpha, "n": degree,
                         "delta": nodes.delta}
    if args.alpha is None:
        raise cqio.FormatError(f"--alpha is required for {name}")
    if source == "arc" and args.degree is None:
        raise cqio.FormatError(f"--degree is required for {name}")
    degree = 8 if args.degree is None else args.degree
    d = 1 if source == "arc" else args.d
    offered.update(alpha=args.alpha, cap=Cap(north_pole(d), args.alpha), degree=degree)
    return offered, {"d": d, "alpha": args.alpha, "n": degree}


def cmd_verify(args):
    name = _ALIASES.get(args.subcommand, args.subcommand)
    spec = _VERIFY[name]
    t0 = time.perf_counter()
    try:
        offered, grid = _verify_input(args, name, spec.source)
        if spec.check is not None:
            spec.check(offered)
        measure = getattr(verify, spec.measure)  # at call time: tracers wrap the attribute
        takes = inspect.signature(measure).parameters
        for attr, param in _SHAPING.items():
            if getattr(args, attr) != args.flag_defaults[attr] and param not in takes:
                raise cqio.FormatError(f"--{attr.replace('_', '-')} does not apply to {name}")
        measured = measure(**{k: v for k, v in offered.items() if k in takes})
    except (cqio.FormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except verify.DegenerateDraws:
        sys.stderr.write(f"error: verify {name}: every draw of a trial integrates |f|^p below "
                         f"{verify.DEGENERATE_FLOOR:g} at --p {args.p:g}; no report written\n")
        return 1
    bad = sorted(k for k, v in measured.items() if not math.isfinite(v))
    if bad:
        sys.stderr.write(f"error: verify {name}: non-finite {', '.join(bad)} at --p {args.p:g} "
                         "(|f|^p out of floating-point range?); no report written\n")
        return 1
    elapsed = time.perf_counter() - t0
    cell = dict(measured, trials=args.trials, **{k: getattr(args, k) for k in spec.cell})
    if args.trial_degree is not None:
        cell["trial_degree"] = args.trial_degree
    grid.update(p=args.p, beta=args.beta, statistic=args.statistic,
                weight=offered["weight"].label())
    report = VerificationReport(name, {k: grid[k] for k in spec.grid}, [cell], args.seed,
                                elapsed if args.timing else 0.0)
    cqio.write_canonical(args.report, report.to_dict())
    if args.csv:
        cqio.write_report_csv(args.csv, report)
    sys.stderr.write(f"report written to {args.report} ({elapsed:.1f}s)\n")
    if args.enforce and not spec.accept(measured):
        sys.stderr.write("assertion failed: report violates acceptance thresholds\n")
        return 3
    return 0


def cmd_moments(args):
    cap = Cap(north_pole(args.d), args.alpha)
    values = domain_moments(cap, args.degree)
    if args.d == 2:
        labels = [{"l": l, "m": m} for l in range(args.degree + 1)
                  for m in range(-l, l + 1)]
    else:
        labels = [{"k": 0, "kind": "const"}]
        for k in range(1, args.degree + 1):
            labels.append({"k": k, "kind": "cos"})
            labels.append({"k": k, "kind": "sin"})
    moments = [dict(lab, value=float(v)) for lab, v in zip(labels, values)]
    payload = {"d": args.d, "alpha": args.alpha, "degree": args.degree,
               "basis": "fourier" if args.d == 1 else "real-spherical-harmonics",
               "moments": moments}
    sys.stdout.write(cqio.canonical_dumps(payload))
    return 0


def main(argv=None):
    args = make_parser().parse_args(argv)
    for attr, var, check, default in _ENV:
        if getattr(args, attr) is None:
            raw = os.environ.get(var)
            try:
                setattr(args, attr, default if raw is None else check(raw))
            except argparse.ArgumentTypeError as exc:
                sys.stderr.write(f"error: environment variable {var}: {exc}\n")
                return 1
    try:
        return args.func(args)
    except OSError as exc:  # input files raise FormatError, so this is an output
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
