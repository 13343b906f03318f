"""One benchmark phase in a fresh process: the setup, or one timed pass.

Usage: python3 child.py SPEC.json RESULT.json  (run from the phase's own
directory; ``run.py`` writes the spec and reads the result).

The phase imports capquad from the checkout's ``src``, runs its commands
one after another through ``capquad.cli.main`` (a closed loop with one
client), then checks every output outside the timed region:

- a node file must load, which runs the separation check;
- a rule must load, every weight must be > 0, and its moment residual,
  recomputed with ``solver.verify_exactness``, must be at most 1e-10;
- a report must hold only finite numbers, and its command (run with
  ``--assert``) must have exited 0.

Each output's SHA-256 digest is recorded.  With tracing on, the calls
into every layer are wrapped for the duration of the commands only.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

import tracing
import workloads

RESIDUAL_TOL = 1e-10


def _finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def _check(capquad, kind, path):
    """(failure reason or None, node count) for one output file."""
    data = capquad.io.load_json(path)
    if kind == "nodes":
        nodes = capquad.io.nodes_from_dict(data)
        return (None if len(nodes) else "empty node set"), len(nodes)
    if kind == "rule":
        rule = capquad.io.rule_from_dict(data)
        if not (rule.weights > 0).all():
            return "non-positive weight", 0
        resid = capquad.solver.verify_exactness(rule)
        if not resid <= RESIDUAL_TOL:
            return f"moment residual {resid:.3e} above {RESIDUAL_TOL:g}", 0
        return None, 0
    return (None if _finite(data) else "non-finite value in report"), 0


def _run(main, argv):
    try:
        return main(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception:  # a crash is a failed command, not a failed benchmark
        return None, traceback.format_exc()


def _versions(capquad):
    import numpy
    import scipy

    blas = {k: os.environ.get(k) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        from threadpoolctl import threadpool_info
        blas["threadpoolctl"] = threadpool_info()
    except ImportError:
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "capquad": getattr(capquad, "__version__", None),
            "blas_threads": blas}


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import capquad
    import capquad.cli
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(capquad.__file__)) != os.path.join(src, "capquad"):
        sys.exit(f"capquad imported from {capquad.__file__}, not from {src}")

    setup, timed = workloads.commands(spec["workload"], spec["seed"], spec["toy"])
    cmds = setup if spec["mode"] == "setup" else timed
    cli_main = capquad.cli.main
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        modules = [m for name, m in sys.modules.items()
                   if name == "capquad" or name.startswith("capquad.")]
        tracer.install(capquad, modules)
        cli_main = tracer.span("cli.main", cli_main)

    runs = []
    start = time.perf_counter()
    for cmd in cmds:
        argv = [a.replace("{in}", spec["inputs"]) for a in cmd["argv"]]
        t = time.perf_counter()
        rc, crash = _run(cli_main, argv)
        runs.append((cmd, argv, rc, crash, time.perf_counter() - t))
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    results = []
    for cmd, argv, rc, crash, seconds in runs:
        kind, path = cmd["out"]
        reason, nodes, digest = None, 0, None
        if crash is not None:
            reason = "crashed: " + crash.strip().splitlines()[-1]
        elif rc != 0:
            reason = f"exit code {rc}"
        else:
            try:
                reason, nodes = _check(capquad, kind, path)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            except Exception as exc:  # any failure to read back is a failed check
                reason = f"check raised {exc!r}"
        if reason:
            sys.stderr.write(f"FAILED {' '.join(argv)}: {reason}\n")
        results.append({"stage": cmd["stage"], "argv": argv, "seconds": seconds,
                        "ok": reason is None, "reason": reason, "nodes": nodes,
                        "file": path, "sha256": digest})

    out = {"import_s": import_s, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
           "commands": results, "versions": _versions(capquad)}
    if tracer is not None:
        out["totals"] = tracer.totals()
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
