"""capquad benchmark: the build, solve and verify workloads over the CLI.

    python3 perfbench/run.py --workload build --seed 0 --seconds 26 --trace 0
    python3 perfbench/run.py --workload verify --seed 3 --seconds 26 --trace 1
    python3 perfbench/run.py --smoke

A run sets up the workload's inputs ``SETUP_REPEATS`` times, each in a
fresh process (import plus input preparation is ``setup_s``), then runs
timed passes, each in a fresh process, for about ``--seconds`` seconds
and reports medians over them.  With ``--trace 1`` it instead alternates
untraced and traced passes after one untraced and one traced setup, and
reports per-layer figures of the traced setup plus the median traced
pass, the tracing overhead, and whether traced and untraced artifacts
are byte-identical.  See README.md in this directory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric by name and unit, and a full record (provenance,
per-pass values, SHA-256 digests of every artifact) goes to
``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 3
CHILD_TIMEOUT = 150
# one BLAS thread: the workloads are single-client, and extra BLAS threads
# on a small shared machine add noise, not speed (solve timed equal at 1 and 2)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

STAGES = ("points", "solve", "verify")

# every end-to-end metric, by name and unit
E2E = {"wall_s": "s", "setup_s": "s", "points_s": "s", "nodes_per_s": "1/s",
       "solve_s": "s", "verify_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}
# the ones every workload measures and that are never 0: the last line's set
E2E_REPORTED = ("wall_s", "setup_s", "peak_rss_mb")

_V = tracing.VERIFY_SPANS
LAYER = {
    "points.product_grid.s": "s", "points.pool_points": "count",
    "points.greedy.self_s": "s", "points.nodes": "count",
    "points.pool_per_node": "ratio", "points.min_separation.s": "s",
    "points.tau_statistic.s": "s",
    "geometry.rho_many.calls": "count", "geometry.rho_many.rows": "count",
    "geometry.rho_many.s": "s", "geometry.boundary_distance.calls": "count",
    "geometry.boundary_distance.s": "s", "geometry.delta_r.s": "s",
    "polys.eval_basis.calls": "count", "polys.eval_basis.rows": "count",
    "polys.eval_basis.entries": "count", "polys.eval_basis.s": "s",
    "quadrature.build_rule.calls": "count", "quadrature.build_rule.misses": "count",
    "quadrature.build_rule.hit_ratio": "ratio", "quadrature.build_rule.s": "s",
    "quadrature.balls_integral.calls": "count", "quadrature.balls_integral.balls": "count",
    "quadrature.balls_integral.s": "s", "quadrature.domain_moments.s": "s",
    "solver.solve_weights.self_s": "s", "solver.nnls.calls": "count",
    "solver.nnls.s": "s", "solver.nnls.support": "count",
    "solver.back_offs": "count", "solver.matrix_entries": "count",
    **{f"verify.{v}.s": "s" for v in _V},
    "verify.run_trials.s": "s", "verify.trials": "count", "verify.tables_s": "s",
    "io.write.s": "s", "io.write.bytes": "B", "io.load.s": "s", "io.load.bytes": "B",
    "io.nodes_from_dict.s": "s", "io.rule_from_dict.s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.overhead_s": "s",
}
# times of layers that only the verify workload reaches read 0 elsewhere, so
# the last line leaves them out; they are printed and recorded all the same
VERIFY_ONLY_TIMES = ("points.tau_statistic.s", "quadrature.build_rule.s",
                     "quadrature.balls_integral.s", *(f"verify.{v}.s" for v in _V),
                     "verify.run_trials.s", "verify.tables_s", "verify.self_s",
                     "io.rule_from_dict.s")
LAYER_REPORTED = tuple(k for k in LAYER if k not in VERIFY_ONLY_TIMES)


class BenchError(RuntimeError):
    """A phase could not run at all (no result to report)."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _phase(work, name, spec):
    """Run child.py for one phase in its own directory; return its result."""
    d = work / name
    d.mkdir()
    spec_path, result_path = d / "spec.json", d / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAPQUAD_")}
    env.update(BLAS_ENV)
    with open(d / "stderr.log", "w", encoding="utf-8") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            cwd=d, env=env, stdout=subprocess.DEVNULL, stderr=err,
            timeout=CHILD_TIMEOUT, check=False)
    if proc.returncode != 0 or not result_path.exists():
        tail = (d / "stderr.log").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"phase {name} exited {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _digests(result):
    return {c["file"]: c["sha256"] for c in result["commands"]}


def _pass_values(result):
    """End-to-end values of one timed pass (setup_s is added by the caller)."""
    cmds = result["commands"]
    stage_s = {s: sum(c["seconds"] for c in cmds if c["stage"] == s) for s in STAGES}
    nodes = sum(c["nodes"] for c in cmds if c["stage"] == "points")
    failed = sum(not c["ok"] for c in cmds)
    return {
        "wall_s": result["wall_s"],
        "points_s": stage_s["points"],
        "nodes_per_s": nodes / stage_s["points"] if stage_s["points"] else 0.0,
        "solve_s": stage_s["solve"],
        "verify_s": stage_s["verify"],
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": failed / len(cmds) if cmds else 0.0,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_workload(workload, seed, seconds, trace, toy=False):
    """Set up and run one workload; return the full record of the run."""
    work = OUT / "work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(work, workload, seed, seconds, trace, toy)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(work, workload, seed, seconds, trace, toy):
    base = {"root": str(ROOT), "workload": workload, "seed": seed, "toy": toy}
    phases = []  # every phase result, for attempted/failed

    def phase(name, mode, traced, spans=None):
        spec = dict(base, mode=mode, trace=traced, inputs=str(work / "setup0"), spans=spans)
        res = _phase(work, name, spec)
        phases.append(res)
        return res

    # setup: several untraced repeats (setup_s), or one untraced + one traced
    if trace:
        setups = [phase("setup0", "setup", False), phase("setup1", "setup", True)]
    else:
        setups = [phase(f"setup{k}", "setup", False) for k in range(SETUP_REPEATS)]
    setup_s = [s["import_s"] + s["wall_s"] for s in setups]

    # timed passes for about `seconds`, at least MIN_PASSES; when tracing, in
    # the order untraced, traced, traced, untraced, ... so that drift cancels
    plain, traced = [], []
    costs = []
    t_start = time.monotonic()
    min_passes = 1 if toy else MIN_PASSES
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    while True:
        n = len(plain) + len(traced)
        enough = (plain and traced) if trace else n >= min_passes
        if enough and time.monotonic() - t_start + _median(costs) > seconds:
            break
        t = time.monotonic()
        if trace and n % 4 in (1, 2):
            traced.append(phase(f"pass{n}", "pass", True, spans=str(spans_path)))
        else:
            plain.append(phase(f"pass{n}", "pass", False))
        costs.append(time.monotonic() - t)

    reference = _digests(plain[0])
    identical = all(_digests(p) == reference for p in plain + traced)
    setup_identical = all(_digests(s) == _digests(setups[0]) for s in setups)

    per_pass = [_pass_values(p) for p in plain]
    e2e = {k: _median([v[k] for v in per_pass]) for k in per_pass[0]}
    e2e["setup_s"] = _median(setup_s)

    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "toy": toy,
        "seconds": seconds, "why": workloads.WHY[workload],
        "provenance": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "commit": _git_commit(),
            **plain[0]["versions"],
        },
        "setup_commands": [c["argv"] for c in setups[0]["commands"]],
        "pass_commands": [c["argv"] for c in plain[0]["commands"]],
        "setup_s": setup_s,
        "passes": per_pass,
        "command_seconds": [[c["seconds"] for c in p["commands"]] for p in plain],
        "digests": {"setup": _digests(setups[0]), "pass": reference},
        "deterministic": identical and setup_identical,
        "attempted": sum(len(p["commands"]) for p in phases),
        "failed": sum(not c["ok"] for p in phases for c in p["commands"]),
        "e2e": e2e,
    }
    if trace:
        keys = set(setups[1]["totals"]).union(*(p["totals"] for p in traced))
        totals = {k: setups[1]["totals"].get(k, 0.0)
                  + _median([p["totals"].get(k, 0.0) for p in traced]) for k in keys}
        layer = tracing.derived(totals)
        layer["trace.overhead_s"] = (_median([p["wall_s"] for p in traced])
                                     - _median([p["wall_s"] for p in plain]))
        record["layer"] = layer
        record["traced_passes"] = [p["wall_s"] for p in traced]
    # digests are information, except that tracing must not change a byte
    record["correct"] = record["failed"] == 0 and (not trace or record["deterministic"])
    return record


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record):
    """Print every metric by name and unit, then the JSON result line."""
    prov = record["provenance"]
    blas = ",".join(f"{k}={v}" for k, v in prov["blas_threads"].items()
                    if not isinstance(v, list))
    print(f"capquad benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']}" + (" (toy size)" if record["toy"] else ""))
    print(f"  why: {record['why']}")
    print(f"  machine: nproc={prov['nproc']} affinity={prov['affinity']} "
          f"python={prov['python']} numpy={prov['numpy']} scipy={prov['scipy']} "
          f"blas: {blas}")
    print(f"  commit: {prov['commit'] or 'unknown (not a git checkout)'}")
    print(f"  passes: {len(record['passes'])} untraced, setups: {len(record['setup_s'])}, "
          f"commands attempted {record['attempted']}, failed {record['failed']}, "
          f"artifacts deterministic: {record['deterministic']}")
    stage_of = {"points_s": "points", "nodes_per_s": "points", "solve_s": "solve",
                "verify_s": "verify"}
    stages = {argv[0] for argv in record["pass_commands"]}
    for name, unit in E2E.items():
        values = record["setup_s"] if name == "setup_s" else [p[name] for p in record["passes"]]
        if name in stage_of and stage_of[name] not in stages:
            print(f"  {name:<34} -  (no {stage_of[name]} command in the timed pass)")
            continue
        print(f"  {name:<34} {_fmt(record['e2e'][name]):>12} {unit:<6} "
              f"median of {len(values)} [{_fmt(min(values))} .. {_fmt(max(values))}]")
    if record["trace"]:
        print(f"  traced artifacts byte-identical to untraced: {record['deterministic']}")
        for name, unit in LAYER.items():
            print(f"  {name:<34} {_fmt(record['layer'].get(name, 0.0)):>12} {unit}")
        names = {n: LAYER[n] for n in LAYER_REPORTED}
        values = record["layer"]
    else:
        names = {n: E2E[n] for n in E2E_REPORTED}
        values = record["e2e"]
    line = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {n: {"value": float(values.get(n, 0.0)), "unit": u}
                    for n, u in names.items()},
    }
    print(json.dumps(line))


def _save(record):
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"result-{record['workload']}-seed{record['seed']}"
                  f"-trace{record['trace']}{'-toy' if record['toy'] else ''}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return path


def smoke():
    """Toy-size run of every workload, traced and not; checks names and units."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != {n: E2E[n] for n in E2E_REPORTED}:
        problems.append("BENCHMARK.json end_to_end differs from E2E_REPORTED")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != {n: LAYER[n] for n in LAYER_REPORTED}:
        problems.append("BENCHMARK.json per_layer differs from LAYER_REPORTED")
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            record = run_workload(workload, 1, 0, trace, toy=True)
            _save(record)
            tag = f"{workload} trace={int(trace)}"
            if not record["correct"] or record["e2e"]["fail_ratio"] != 0:
                problems.append(f"{tag}: correct={record['correct']} "
                                f"fail_ratio={record['e2e']['fail_ratio']}")
            missing = [n for n in E2E if n not in record["e2e"]]
            if trace:
                missing += [n for n in LAYER if n not in record["layer"]]
            if missing:
                problems.append(f"{tag}: missing metrics {missing}")
            print(f"smoke {tag}: attempted {record['attempted']}, failed {record['failed']}")
    for p in problems:
        print("smoke problem:", p)
    print("smoke:", "ok" if not problems else "FAILED")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size run of every workload; checks metric names")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "capquad" / "__init__.py").is_file():
        sys.stderr.write(f"error: no capquad sources under {ROOT / 'src'}\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    path = _save(record)
    print(f"  full record: {path.relative_to(ROOT)}")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
