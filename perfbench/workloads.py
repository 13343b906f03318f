"""The benchmark's workloads: CLI command lists made from a workload seed.

Each workload is a setup list (inputs the timed part reads) and a pass
list (the timed commands), all run through ``capquad.cli.main``.  Seed 0
gives the nominal parameters; any other seed shifts each alpha/beta by a
deterministic jitter of at most ``JITTER`` (relative), because the
commands' ``--seed`` alone does not change greedy output.  The jitter
keeps every parameter inside the range its command accepts.

A command is a dict: ``stage`` (points/solve/verify), ``argv`` and
``out`` = (kind, file).  ``{in}/`` in an argument names a file in the
setup directory; output files are relative to the running directory.
"""

import random

JITTER = 0.03
TRIALS = 100
TOY_TRIALS = 5

WORKLOADS = ("build", "solve", "verify")

WHY = {
    "build": "greedy point generation over large candidate pools dominates; "
             "solve and the d=1 code paths ride along",
    "solve": "NNLS weight solves on systems of up to 441 x 3034 dominate; "
             "greedy runs only in setup",
    "verify": "rho-ball quadrature, basis tables and trial loops of all seven "
              "verify subcommands dominate; points and solve only in setup",
}


class _Jitter:
    """Deterministic per-seed parameter shifts, drawn in a fixed order."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def __call__(self, value, down_only=False):
        u = self.rng.uniform(-1.0, 1.0)
        if self.seed == 0:
            return value
        if down_only:  # ranges with an upper limit at the nominal value
            u = -abs(u)
        return value * (1.0 + JITTER * u)


def _num(x):
    return f"{x:.6g}"


def _points(d, alpha, degree, delta, out, beta=None):
    argv = ["points", "--d", str(d), "--alpha", _num(alpha), "--degree", str(degree),
            "--delta", _num(delta), "--out", out]
    if beta is not None:
        argv += ["--collar-beta", _num(beta)]
    return {"stage": "points", "argv": argv, "out": ("nodes", out)}


def _solve(points, degree, out):
    return {"stage": "solve",
            "argv": ["solve", "--points", points, "--degree", str(degree), "--out", out],
            "out": ("rule", out)}


def _verify(sub, out, trials, *args):
    return {"stage": "verify",
            "argv": ["verify", sub, *args, "--trials", str(trials), "--assert",
                     "--report", out],
            "out": ("report", out)}


def _build(jit, toy):
    # (d, alpha, beta, degree) at delta 0.25
    cells = [(2, 1.0, None, 2), (1, 1.0, None, 4)] if toy else [
        (2, 0.3, None, 4), (2, 1.0, None, 6), (2, 2.0, None, 8), (2, 0.5, 1.0, 4),
        (1, 1.0, None, 16), (1, 0.5, 1.0, 16)]
    cmds = []
    for k, (d, alpha, beta, n) in enumerate(cells):
        a = jit(alpha)
        b = None if beta is None else jit(beta)
        cmds.append(_points(d, a, n, 0.25, f"nodes{k}.json", beta=b))
        cmds.append(_solve(f"nodes{k}.json", n, f"rule{k}.json"))
    return [], cmds


def _solve_workload(jit, toy):
    cap_deg, col_deg = (4, 2) if toy else (16, 8)
    setup = [_points(2, jit(1.0), cap_deg, 0.5, "cap.json"),
             _points(2, jit(0.5), col_deg, 0.5, "collar.json", beta=jit(1.0))]
    solves = [("cap", 3), ("cap", 4), ("collar", 2)] if toy else [
        ("cap", 12), ("cap", 16), ("cap", 20), ("collar", 8), ("collar", 12)]
    cmds = [_solve(f"{{in}}/{name}.json", n, f"rule_{name}{n}.json") for name, n in solves]
    return setup, cmds


def _verify_workload(jit, toy):
    n_cap, n_small, n_arc = (2, 2, 4) if toy else (6, 3, 16)
    trials = TOY_TRIALS if toy else TRIALS
    setup = [_points(2, jit(1.0), n_cap, 0.25, "cap.json"),
             _solve("cap.json", n_cap, "rule.json"),
             _points(1, jit(0.5), n_arc, 0.25, "arc.json"),
             _solve("arc.json", n_arc, "arc_rule.json"),
             _points(2, jit(0.5, down_only=True), n_small, 0.25, "small.json")]
    bern_alpha = jit(0.5, down_only=True)
    cov_alpha = jit(2.5)
    cmds = [
        _verify("mz", "mz2.json", trials, "--rule", "{in}/rule.json", "--p", "2"),
        _verify("mz", "mz1.json", trials, "--rule", "{in}/rule.json", "--p", "1"),
        _verify("osc", "osc.json", trials, "--points", "{in}/cap.json"),
        _verify("sieve", "sieve.json", trials, "--points", "{in}/cap.json"),
        _verify("maxmin", "maxmin.json", trials, "--points", "{in}/cap.json"),
        _verify("weighted-mz", "wmz.json", trials, "--points", "{in}/small.json",
                "--weight", "boundary-power", "--gamma", "1"),
        _verify("bernstein", "bern.json", trials, "--alpha", _num(bern_alpha),
                "--degree", str(n_arc)),
        _verify("cov", "cov.json", min(trials, 20), "--alpha", _num(cov_alpha)),
        _verify("mz", "mz_arc.json", trials, "--rule", "{in}/arc_rule.json", "--p", "2"),
    ]
    return setup, cmds


_MAKERS = {"build": _build, "solve": _solve_workload, "verify": _verify_workload}


def commands(workload, seed, toy=False):
    """(setup, timed) command lists of a workload at a seed.

    Every command runs single-threaded and carries the workload seed.
    """
    setup, timed = _MAKERS[workload](_Jitter(seed), toy)
    for cmd in setup + timed:
        cmd["argv"] += ["--seed", str(seed), "--threads", "1"]
    return setup, timed
