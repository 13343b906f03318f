import hashlib
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import capquad as cq
from capquad import cli, io as cqio
from capquad.cli import _VERIFY, main

from conftest import run_cli, three_node_set


@pytest.fixture(scope="module")
def points_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "points.json"
    code = main(["points", "--d", "2", "--alpha", "1.0", "--degree", "8",
                 "--delta", "0.5", "--seed", "42", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def rule_file(points_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "rule.json"
    code = main(["solve", "--points", str(points_file), "--degree", "8",
                 "--out", str(path)])
    assert code == 0
    return path


def test_points_output_schema(points_file):
    data = json.loads(points_file.read_text())
    assert data["version"] == "capquad-points/1"
    assert data["d"] == 2 and data["alpha"] == 1.0
    assert data["generator"]["algorithm"] == "rho-ring-lattice"
    n = len(data["nodes"])
    assert 1 <= n * (0.5 / 8) ** 2 <= 5  # count scaling bracket


def test_points_rejects_bad_alpha(tmp_path):
    res = run_cli(["points", "--d", "2", "--alpha", "3.1", "--degree", "8",
                   "--delta", "0.5", "--out", str(tmp_path / "x.json")])
    assert res.returncode == 1
    assert "alpha" in res.stderr


def test_bad_flag_exits_1(tmp_path):
    res = run_cli(["points", "--d", "2", "--alpha"])
    assert res.returncode == 1


@pytest.mark.parametrize("argv, flag, env", [
    (["verify", "osc", "--points", "{points}", "--p", "0"], "--p", None),
    (["verify", "mz", "--rule", "{rule}", "--p", "inf"], "--p", None),
    (["verify", "mz", "--rule", "{rule}", "--trials", "0"], "--trials", None),
    (["verify", "sieve", "--points", "{points}", "--degree", "0"], "--degree", None),
    (["solve", "--points", "{points}", "--degree", "4", "--tol", "nan"], "--tol", None),
    (["verify", "mz", "--rule", "{rule}"], "CAPQUAD_SEED", {"CAPQUAD_SEED": "-1"}),
    (["verify", "mz", "--rule", "{rule}"], "CAPQUAD_SEED", {"CAPQUAD_SEED": "abc"}),
    (["verify", "mz", "--rule", "{rule}"], "CAPQUAD_THREADS", {"CAPQUAD_THREADS": "0"}),
    (["points", "--d", "2", "--alpha", "1", "--degree", "2", "--delta", "0.5"],
     "CAPQUAD_SEED", {"CAPQUAD_SEED": "1.5"}),
], ids=["osc-p0", "mz-p-inf", "mz-trials0", "sieve-degree0", "solve-tol-nan",
        "env-seed-negative", "env-seed-text", "env-threads0", "points-env-seed-float"])
def test_bad_numeric_flag_exits_1(argv, flag, env, points_file, rule_file, tmp_path):
    args = [a.format(points=points_file, rule=rule_file) for a in argv]
    out = tmp_path / "out.json"
    if args[0] == "verify":
        args[2:2] = ["--trials", "2", "--report", str(out)]
    else:
        args += ["--out", str(out)]
    res = run_cli(args, env_extra=env)
    assert res.returncode == 1
    assert flag in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_ball_measurements_run_at_scale(tmp_path):
    # one sample table per ring keeps these far below the table limit; with a
    # table row per node sample both went over it (see osc-table-limit below
    # for a request that still does)
    files = {n: tmp_path / f"cap_n{n}.json" for n in (8, 16)}
    for n, path in files.items():  # 3236 and 12 790 nodes
        assert main(["points", "--d", "2", "--alpha", "1", "--degree", str(n),
                     "--delta", "0.25", "--out", str(path)]) == 0
    runs = [["osc", "--points", str(files[16])], ["maxmin", "--points", str(files[16])],
            ["osc", "--points", str(files[8]), "--ball-samples", "1024"]]
    for k, argv in enumerate(runs):
        report = tmp_path / f"report{k}.json"
        assert main(["verify", *argv, "--trials", "4", "--report", str(report)]) == 0
        cell = json.loads(report.read_text())["cells"][0]
        assert all(math.isfinite(v) for v in cell.values())


def test_verify_non_finite_report_exits_1(tmp_path):
    # |f|^1000 overflows on this rule: no report, exit 1 naming the
    # subcommand and --p
    pts, rule, out = tmp_path / "p.json", tmp_path / "r.json", tmp_path / "out.json"
    assert main(["points", "--d", "2", "--alpha", "0.8", "--degree", "6",
                 "--delta", "0.25", "--out", str(pts)]) == 0
    assert main(["solve", "--points", str(pts), "--degree", "6", "--out", str(rule)]) == 0
    res = run_cli(["verify", "mz", "--rule", str(rule), "--p", "1000", "--trials", "3",
                   "--report", str(out)])
    assert res.returncode == 1
    assert "verify mz" in res.stderr and "--p" in res.stderr
    assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("subcommand, field, value", [
    ("osc", "delta", -0.25), ("osc", "epsilon", -0.125), ("maxmin", "epsilon", -0.125)])
def test_verify_rejects_negative_separation_fields(subcommand, field, value, tmp_path, capsys):
    pts, bad, out = tmp_path / "p.json", tmp_path / "bad.json", tmp_path / "out.json"
    assert main(["points", "--d", "2", "--alpha", "0.5", "--degree", "2",
                 "--delta", "0.25", "--out", str(pts)]) == 0
    data = json.loads(pts.read_text())
    data[field] = value
    bad.write_text(json.dumps(data))
    assert main(["verify", subcommand, "--points", str(bad), "--trials", "3",
                 "--report", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, needle", [
    (["points", "--d", "2", "--alpha", "0.5", "--degree", "2", "--delta", "0.5",
      "--out", "{missing}"], "{missing}"),
    (["solve", "--points", "{points}", "--degree", "2", "--out", "{missing}"], "{missing}"),
    (["verify", "mz", "--rule", "{rule}", "--trials", "2", "--report", "{missing}"],
     "{missing}"),
    (["verify", "mz", "--rule", "{rule}", "--trials", "2", "--report", "{out}",
      "--csv", "{missing}"], "{missing}"),
    # the grid-limit check raises before anything is allocated
    (["points", "--d", "2", "--alpha", "0.01", "--degree", "1000", "--delta", "0.01",
      "--out", "{out}"], "grid limit"),
    (["verify", "bernstein", "--alpha", "0.3", "--degree", "4", "--p", "1000",
      "--report", "{out}"], "--p"),
    # the ring tables of the ball samples would hold about 1e10 entries (80 GB)
    (["verify", "osc", "--points", "{points}", "--degree", "100", "--ball-samples", "20000",
      "--trials", "2", "--report", "{out}"], "--ball-samples"),
    # |f|^p of a constant stays below the degenerate floor in every draw at --p 100
    (["verify", "mz", "--rule", "{rule}", "--p", "100", "--trial-degree", "0", "--trials", "2",
      "--report", "{out}"], "--p 100"),
    (["verify", "osc", "--points", "{points}", "--p", "100", "--trial-degree", "0",
      "--trials", "2", "--report", "{out}"], "--p 100"),
    # the Gram would hold about 1e20 entries at degree 100000 and 1.6e9 at 200
    (["solve", "--points", "{points}", "--degree", "100000", "--out", "{out}"], "Gram"),
    (["solve", "--points", "{points}", "--degree", "200", "--out", "{out}"], "Gram"),
    # the dilated rule would need degree 8 * 25 + 7 = 207, over the cap of 200
    (["verify", "cov", "--alpha", "2.5", "--degree", "25", "--report", "{out}"], "--degree"),
    (["moments", "--d", "2", "--alpha", "1", "--degree", "1"], "invalid choice"),
], ids=["points-out", "solve-out", "verify-report", "verify-csv", "points-pool-limit",
        "bernstein-p-overflow", "osc-table-limit", "mz-p-degenerate", "osc-p-degenerate",
        "solve-table-limit", "solve-gram-limit", "cov-degree-cap", "moments"])
def test_cli_failure_exits_1_without_traceback(argv, needle, points_file, rule_file, tmp_path):
    paths = {"points": points_file, "rule": rule_file, "out": tmp_path / "out.json",
             "missing": tmp_path / "missing" / "out.json"}
    res = run_cli([a.format(**paths) for a in argv])
    assert res.returncode == 1
    assert needle.format(**paths) in res.stderr
    assert "error:" in res.stderr and "Traceback" not in res.stderr
    assert "RuntimeWarning" not in res.stderr
    if "--p" in needle:  # a measurement that fails writes no report
        assert not paths["out"].exists()


def test_cov_degree_cap_is_the_dilated_rules():
    # the dilated rule is exact to 8n + 7(d - 1), which must stay <= DEGREE_CAP
    check = _VERIFY["cov"].check
    for d, top in ((2, 24), (1, 25)):
        cap = cq.Cap(cq.north_pole(d), 2.5)
        check({"cap": cap, "degree": top})
        with pytest.raises(cqio.FormatError, match=f"--degree must be <= {top} "):
            check({"cap": cap, "degree": top + 1})


def test_main_builds_the_parser_once(monkeypatch, tmp_path):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))  # subcommand parsers are "capquad <name>"
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.make_parser.cache_clear()
    for _ in range(2):
        assert main(["verify", "bernstein", "--alpha", "0.5", "--degree", "2", "--trials", "1",
                     "--report", str(tmp_path / "b.json")]) == 0
    assert built.count("capquad") == 1


def test_readme_quick_start_commands_parse():
    # parsed, not run: the docs keep to the parser's commands and flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)")[1].split("```sh\n")[1].split("```")[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("capquad ")]
    assert len(lines) >= 4
    for line in lines:
        try:
            cli.make_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_points_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["points", "--d", "2", "--alpha", "0.6", "--degree", "4",
            "--delta", "0.5", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_rule_schema(rule_file):
    data = json.loads(rule_file.read_text())
    assert data["version"] == "capquad-rule/1"
    assert len(data["nodes"]) == len(data["weights"])
    assert all(w > 0 for w in data["weights"])
    assert data["residual"] <= 1e-9
    assert data["generator"]["solver"] == "min-norm"
    assert "back_offs" not in data["generator"]
    rule = cqio.rule_from_dict(data)
    assert cq.verify_exactness(rule) <= 1e-9


def test_solve_off_pole_file_keeps_the_rings_of_its_pole_copy(tmp_path, capsys):
    # a points file carries its cap centre; a set turned off the pole goes
    # through the same rings as its pole copy
    pole = tmp_path / "pole.json"
    assert main(["points", "--d", "2", "--alpha", "1", "--degree", "6", "--delta", "0.25",
                 "--out", str(pole)]) == 0
    data = json.loads(pole.read_text())
    centre = cq.SpherePoint([0.4, -0.3, 0.87])
    frame = cq.geometry.north_frame(centre)
    data["center"] = centre.coords.tolist()
    data["nodes"] = (np.array(data["nodes"]) @ frame.T).tolist()
    turned = tmp_path / "turned.json"
    turned.write_text(json.dumps(data))
    splits = []
    for path in (pole, turned):
        capsys.readouterr()
        assert main(["solve", "--points", str(path), "--degree", "6",
                     "--out", str(tmp_path / "rule.json")]) == 0
        line = capsys.readouterr().err
        assert line.startswith("accepted (min-norm): ") and " rings, " in line
        splits.append(line.split(", residual")[0])
    assert splits[1] == splits[0]
    assert int(splits[0].split(", ")[1].split()[0]) > len(data["nodes"]) // 2


def test_solve_infeasible_exit2(tmp_path):
    sparse = tmp_path / "sparse.json"
    assert main(["points", "--d", "2", "--alpha", "1.0", "--degree", "1",
                 "--delta", "1.0", "--out", str(sparse)]) == 0
    res = run_cli(["solve", "--points", str(sparse), "--degree", "8",
                   "--out", str(tmp_path / "r.json")])
    assert res.returncode == 2
    assert "suggest" in res.stderr


def test_solve_three_nodes_at_degree4_exit2(tmp_path):
    # a singular min-norm system falls through to the max-entropy path,
    # whose least-squares bound refuses the set: exit 2
    sparse = tmp_path / "three.json"
    cqio.write_canonical(sparse, cqio.points_to_dict(three_node_set()))
    res = run_cli(["solve", "--points", str(sparse), "--degree", "4",
                   "--out", str(tmp_path / "r.json")])
    assert res.returncode == 2
    assert "infeasible" in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "r.json").exists()


def test_solve_above_the_set_degree_names_both_degrees(tmp_path, capsys):
    # the three-node set is tagged degree 4: past it, regenerate at the asked degree
    sparse, out = tmp_path / "three.json", tmp_path / "r.json"
    cqio.write_canonical(sparse, cqio.points_to_dict(three_node_set()))
    for degree, hint in ((4, "; suggest regenerating the set at delta = 0.2\n"),
                         (6, "; suggest regenerating the set at degree 6, or at "
                             "delta = 0.2; it was made for degree 4\n")):
        assert main(["solve", "--points", str(sparse), "--degree", str(degree),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ") and err.endswith(hint)
    # without its "degree" (and the delta that goes with it) the file reads as
    # degree 1, and the line claims no degree the set was made for
    data = cqio.points_to_dict(three_node_set())
    del data["degree"], data["delta"]
    cqio.write_canonical(sparse, data)
    assert main(["solve", "--points", str(sparse), "--degree", "6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ")
    assert err.endswith("; suggest regenerating the set at delta = 0.05\n")
    assert not out.exists()


def test_in_process_solves_match_fresh_processes(points_file, tmp_path):
    # later solves of one set reuse its parsed nodes and node text: same bytes
    for degree in ("4", "6", "8"):
        here, fresh = tmp_path / f"here{degree}.json", tmp_path / f"fresh{degree}.json"
        assert main(["solve", "--points", str(points_file), "--degree", degree,
                     "--out", str(here)]) == 0
        assert run_cli(["solve", "--points", str(points_file), "--degree", degree,
                        "--out", str(fresh)]).returncode == 0
        assert (hashlib.sha256(here.read_bytes()).hexdigest()
                == hashlib.sha256(fresh.read_bytes()).hexdigest())


def test_solve_below_least_squares_bound_exits_2(tmp_path, capsys):
    # three nodes cannot carry the 25 moments of degree 4: even the
    # least-squares residual misses the target, so no weights of any sign
    # reach it, and the solve refuses the set before any Newton step
    sparse, out = tmp_path / "three.json", tmp_path / "r.json"
    cqio.write_canonical(sparse, cqio.points_to_dict(three_node_set()))
    assert main(["solve", "--points", str(sparse), "--degree", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and "Traceback" not in err
    assert "least-squares bound" in err and "max-entropy Newton" not in err
    # the residual the line states is that bound, not one any weights achieved
    assert "; least residual any weights reach 1.158e-01; " in err
    assert "least-squares bound 1.158e-01:" in err and "achieved residual" not in err
    assert not out.exists()


def test_solve_malformed_exit1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": \"nope\"}")
    res = run_cli(["solve", "--points", str(bad), "--degree", "4",
                   "--out", str(tmp_path / "r.json")])
    assert res.returncode == 1


def test_verify_mz_and_assert(rule_file, tmp_path):
    rep = tmp_path / "mz.json"
    code = main(["verify", "mz", "--rule", str(rule_file), "--p", "2",
                 "--trials", "20", "--seed", "1", "--report", str(rep),
                 "--assert"])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["version"] == "capquad-report/1"
    assert data["inequality"] == "mz"
    cell = data["cells"][0]
    assert cell["ratio_min"] <= 1.0 <= cell["ratio_max"] * 1.5
    assert data["wall_time_s"] == 0.0


def test_verify_change_of_var(tmp_path):
    rep = tmp_path / "cov.json"
    code = main(["verify", "change-of-var", "--alpha", "2.5", "--degree", "8",
                 "--trials", "5", "--seed", "1", "--report", str(rep), "--assert"])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["inequality"] == "cov"
    assert data["cells"][0]["max_discrepancy"] <= 1e-9
    # "cov" names the same check
    rep2 = tmp_path / "cov2.json"
    assert main(["verify", "cov", "--alpha", "2.5", "--degree", "8",
                 "--trials", "5", "--seed", "1", "--report", str(rep2)]) == 0
    assert rep.read_bytes() == rep2.read_bytes()


def test_verify_sieve_duplication(points_file, tmp_path):
    data = json.loads(points_file.read_text())
    data["nodes"] = data["nodes"][:30] * 2
    data["epsilon"] = 0.0
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(data))
    base = dict(data)
    base["nodes"] = data["nodes"][:30]
    single = tmp_path / "single.json"
    single.write_text(json.dumps(base))
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "sieve", "--points", str(single), "--degree", "8",
                 "--trials", "10", "--seed", "3", "--report", str(rep1)]) == 0
    assert main(["verify", "sieve", "--points", str(dup), "--degree", "8",
                 "--trials", "10", "--seed", "3", "--report", str(rep2)]) == 0
    c1 = json.loads(rep1.read_text())["cells"][0]["estimate"]
    c2 = json.loads(rep2.read_text())["cells"][0]["estimate"]
    assert abs(c1 - c2) <= 1e-12


def test_verify_reports_reproducible_with_threads(rule_file, tmp_path):
    reps = []
    for name, threads in (("t1.json", "1"), ("t2.json", "3")):
        rep = tmp_path / name
        code = main(["verify", "mz", "--rule", str(rule_file), "--p", "2",
                     "--trials", "16", "--seed", "9", "--threads", threads,
                     "--report", str(rep)])
        assert code == 0
        reps.append(rep.read_bytes())
    assert reps[0] == reps[1]


def test_env_seed_and_flag_precedence(rule_file, tmp_path):
    rep_env = tmp_path / "env.json"
    res = run_cli(["verify", "mz", "--rule", str(rule_file), "--p", "2",
                   "--trials", "8", "--report", str(rep_env)],
                  env_extra={"CAPQUAD_SEED": "5"})
    assert res.returncode == 0
    assert json.loads(rep_env.read_text())["seed"] == 5
    rep_flag = tmp_path / "flag.json"
    res = run_cli(["verify", "mz", "--rule", str(rule_file), "--p", "2",
                   "--trials", "8", "--seed", "6", "--report", str(rep_flag)],
                  env_extra={"CAPQUAD_SEED": "5"})
    assert res.returncode == 0
    assert json.loads(rep_flag.read_text())["seed"] == 6


def test_rule_roundtrip_byte_identical(rule_file, tmp_path):
    data = json.loads(rule_file.read_text())
    rule = cqio.rule_from_dict(data)
    out = tmp_path / "again.json"
    cqio.write_canonical(out, cqio.rule_to_dict(rule))
    assert out.read_bytes() == rule_file.read_bytes()


def test_rule_loads_legacy_generator_fields():
    # capquad-rule/1 files written before the solver path was recorded carry
    # an always-zero back_offs count; it is accepted and not written back
    data = {
        "version": "capquad-rule/1", "d": 2, "alpha": 1.0, "beta": None,
        "center": [0.0, 0.0, 1.0], "degree": 0, "delta": 1.0, "epsilon": 1.0,
        "nodes": [[0.0, 0.0, 1.0]], "weights": [1.0], "residual": 0.0,
        "generator": {"seed": 3, "algorithm": "greedy-fps",
                      "solver": "nnls-active-set", "back_offs": 0},
    }
    rule = cqio.rule_from_dict(data)
    gen = cqio.rule_to_dict(rule)["generator"]
    # the generator named in the file is written back, whatever it was
    assert gen == {"seed": 3, "algorithm": "greedy-fps", "solver": "nnls-active-set"}
    data["generator"]["solver"] = 1
    with pytest.raises(cqio.FormatError, match="solver"):
        cqio.rule_from_dict(data)


def test_solve_keeps_the_generator_of_its_points_file(points_file, tmp_path):
    # a legacy greedy set stays greedy in its rule; a set of no named
    # generator is written as unknown
    data = json.loads(points_file.read_text())
    for algorithm, keys in (("greedy-fps", {"seed": 42, "algorithm": "greedy-fps"}),
                            ("unknown", {"seed": 42})):
        pts, rule = tmp_path / f"{algorithm}.json", tmp_path / f"{algorithm}-rule.json"
        pts.write_text(json.dumps(dict(data, generator=keys)))
        assert main(["solve", "--points", str(pts), "--degree", "8", "--out", str(rule)]) == 0
        assert json.loads(rule.read_text())["generator"]["algorithm"] == algorithm
    assert cqio.points_to_dict(three_node_set())["generator"]["algorithm"] == "unknown"


def test_verify_assert_violation_exit3(points_file, tmp_path):
    # maxmin thresholds on a tiny subset will not hold: force exit 3
    data = json.loads(points_file.read_text())
    data["nodes"] = data["nodes"][:3]
    data["epsilon"] = 0.0
    few = tmp_path / "few.json"
    few.write_text(json.dumps(data))
    rep = tmp_path / "mm.json"
    code = main(["verify", "maxmin", "--points", str(few), "--degree", "8",
                 "--trials", "5", "--seed", "3", "--report", str(rep), "--assert"])
    assert code == 3
    assert rep.exists()


def test_solve_degree0_single_node(tmp_path):
    pts = {
        "version": "capquad-points/1", "d": 2, "alpha": 1.0, "beta": None,
        "center": [0.0, 0.0, 1.0], "degree": 1, "delta": 1.0, "epsilon": 1.0,
        "nodes": [[0.0, 0.0, 1.0]], "generator": {"seed": 0, "algorithm": "rho-ring-lattice"},
    }
    pfile = tmp_path / "one.json"
    pfile.write_text(json.dumps(pts))
    out = tmp_path / "rule0.json"
    assert main(["solve", "--points", str(pfile), "--degree", "0",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["weights"][0] == pytest.approx(2 * np.pi * (1 - np.cos(1.0)), rel=1e-12)


def test_points_and_solve_on_collar(tmp_path):
    pts = tmp_path / "collar.json"
    assert main(["points", "--d", "2", "--alpha", "0.5", "--collar-beta", "1.0",
                 "--degree", "6", "--delta", "0.25", "--seed", "1",
                 "--out", str(pts)]) == 0
    data = json.loads(pts.read_text())
    assert data["beta"] == 1.0
    rule = tmp_path / "collar_rule.json"
    assert main(["solve", "--points", str(pts), "--degree", "6",
                 "--out", str(rule)]) == 0
    out = json.loads(rule.read_text())
    measure = 2 * np.pi * (np.cos(0.5) - np.cos(1.0))
    assert sum(out["weights"]) == pytest.approx(measure, rel=1e-9)


def test_verify_remaining_subcommands(tmp_path):
    pts = tmp_path / "p05.json"
    assert main(["points", "--d", "2", "--alpha", "0.5", "--degree", "6",
                 "--delta", "0.5", "--seed", "2", "--out", str(pts)]) == 0
    rep = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    assert main(["verify", "osc", "--points", str(pts), "--degree", "6",
                 "--p", "2", "--trials", "5", "--ball-samples", "16",
                 "--seed", "2", "--report", str(rep), "--csv", str(csv)]) == 0
    osc = json.loads(rep.read_text())
    assert osc["inequality"] == "osc"
    assert osc["cells"][0]["ball_quadrature_unconverged"] == 0
    assert csv.read_text().splitlines()[0].count(",") >= 2
    assert main(["verify", "maxmin", "--points", str(pts), "--degree", "6",
                 "--p", "2", "--trials", "5", "--ball-samples", "16",
                 "--seed", "2", "--report", str(rep)]) == 0
    assert main(["verify", "weighted-mz", "--points", str(pts), "--degree", "6",
                 "--p", "2", "--weight", "boundary-power", "--gamma", "1.0",
                 "--trials", "5", "--seed", "2", "--assert", "--report", str(rep)]) == 0
    wmz = json.loads(rep.read_text())
    assert wmz["inequality"] == "weighted-mz"
    assert wmz["cells"][0]["ball_quadrature_unconverged"] == 0
    assert main(["verify", "bernstein", "--alpha", "0.5", "--degree", "8",
                 "--p", "2", "--trials", "5", "--seed", "2",
                 "--statistic", "mean", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["grid"]["statistic"] == "mean"


def test_verify_bernstein_assert_rejects_nonpositive():
    accept = _VERIFY["bernstein"].accept
    assert not accept({"estimate": 0.0})
    assert accept({"estimate": 0.25})


def test_malformed_rule_weights_rejected(tmp_path):
    rule = {
        "version": "capquad-rule/1", "d": 2, "alpha": 1.0, "beta": None,
        "center": [0.0, 0.0, 1.0], "degree": 0, "delta": 1.0, "epsilon": 1.0,
        "nodes": [[0.0, 0.0, 1.0]], "weights": [-1.0], "residual": 0.0,
        "generator": {"seed": 0, "algorithm": "rho-ring-lattice",
                      "solver": "nnls-active-set", "back_offs": 0},
    }
    with pytest.raises(cqio.FormatError):
        cqio.rule_from_dict(rule)
    rule["weights"] = [1.0, 2.0]
    with pytest.raises(cqio.FormatError):
        cqio.rule_from_dict(rule)
    rule["weights"] = [float("nan")]
    with pytest.raises(cqio.FormatError, match="weights"):
        cqio.rule_from_dict(rule)
    # missing keys, wrong shapes and non-finite numbers, in rule and points files
    rule["weights"] = [1.0]
    points = dict(rule, version="capquad-points/1")
    for key, value in (("alpha", None), ("center", [0.0, 1.0]), ("nodes", [[0.0, 1.0]]),
                       ("nodes", [[0.0, 0.0, float("inf")]]), ("delta", float("nan")),
                       ("d", "two"), ("generator", [])):
        for data, load in ((rule, cqio.rule_from_dict), (points, cqio.nodes_from_dict)):
            bad = {k: v for k, v in data.items() if k != key}
            if value is not None:
                bad[key] = value
            with pytest.raises(cqio.FormatError, match=key):
                load(bad)
    for key in ("residual", "degree"):
        with pytest.raises(cqio.FormatError, match=key):
            cqio.rule_from_dict({k: v for k, v in rule.items() if k != key})
    # null is legal only in the optional fields beta and delta
    for key in ("alpha", "center", "nodes", "epsilon"):
        for data, load in ((rule, cqio.rule_from_dict), (points, cqio.nodes_from_dict)):
            with pytest.raises(cqio.FormatError, match=key):
                load(dict(data, **{key: None}))
    for key in ("weights", "residual"):
        with pytest.raises(cqio.FormatError, match=key):
            cqio.rule_from_dict(dict(rule, **{key: None}))
    assert cqio.rule_from_dict(dict(rule, delta=None)).nodes.delta == 0.0
    assert len(cqio.rule_from_dict(rule).nodes) == 1


def _points_data(tmp_path, alpha=0.5, degree=2):
    path = tmp_path / "pts.json"
    assert main(["points", "--d", "2", "--alpha", str(alpha), "--degree", str(degree),
                 "--delta", "0.25", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("edit, needle", [
    ({"degree": 0}, "degree"), ({"delta": 5.0}, "delta"),
    ({"generator": {"seed": -5, "algorithm": "rho-ring-lattice"}}, "seed"),
    ({"generator": {"seed": 0, "algorithm": 7}}, "algorithm")])
def test_points_file_fields_must_agree(edit, needle, tmp_path, capsys):
    # a points file's delta is epsilon * degree, its degree at least 1, its seed >= 0
    data = _points_data(tmp_path)
    data["delta"] += 1e-14  # within the tolerance of delta = epsilon * degree
    assert len(cqio.nodes_from_dict(data)) > 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(data, **edit)))
    with pytest.raises(cqio.FormatError, match=needle):
        cqio.nodes_from_dict(json.loads(bad.read_text()))
    capsys.readouterr()
    for argv in (["solve", "--points", str(bad), "--degree", "2",
                  "--out", str(tmp_path / "r.json")],
                 ["verify", "osc", "--points", str(bad), "--trials", "3",
                  "--report", str(tmp_path / "o.json")]):
        assert main(argv) == 1
        assert needle in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "o.json").exists()


def test_rule_file_seed_must_be_nonnegative(rule_file):
    data = json.loads(rule_file.read_text())
    data["generator"]["seed"] = -1
    with pytest.raises(cqio.FormatError, match="seed"):
        cqio.rule_from_dict(data)


def test_verify_trial_degree_reaches_every_measurement(tmp_path):
    # constants have no oscillation, and their ball maxima and minima coincide
    data = _points_data(tmp_path, alpha=0.5, degree=2)
    pts, rule = tmp_path / "p.json", tmp_path / "r.json"
    pts.write_text(json.dumps(data))
    assert main(["solve", "--points", str(pts), "--degree", "2", "--out", str(rule)]) == 0
    cells = {}
    samples = ["--ball-samples", "8"]  # only where the measurement takes it
    for sub, src, more in (("mz", "--rule", []), ("osc", "--points", samples),
                           ("sieve", "--points", []), ("maxmin", "--points", samples),
                           ("weighted-mz", "--points", samples)):
        for flag in ([], ["--trial-degree", "0"]):
            out = tmp_path / f"{sub}{len(flag)}.json"
            assert main(["verify", sub, src, str(rule if src == "--rule" else pts),
                         "--trials", "3", *more, "--report", str(out), *flag]) == 0
            cells[sub, len(flag)] = json.loads(out.read_text())["cells"][0]
    for sub in ("mz", "osc", "sieve", "maxmin", "weighted-mz"):
        assert "trial_degree" not in cells[sub, 0]
        assert cells[sub, 2]["trial_degree"] == 0
    assert cells["osc", 2]["estimate"] == 0.0 < cells["osc", 0]["estimate"]
    assert cells["mz", 2]["ratio_max"] == pytest.approx(1.0, abs=1e-9)
    for sub, hi, lo in (("maxmin", "max_hi", "min_hi"),
                        ("weighted-mz", "max_sum_hi", "min_sum_hi")):
        assert cells[sub, 2][hi] == pytest.approx(cells[sub, 2][lo], rel=1e-12)
        assert cells[sub, 0][hi] > cells[sub, 0][lo]
    assert cells["sieve", 2]["estimate"] != cells["sieve", 0]["estimate"]


@pytest.mark.parametrize("argv", [["bernstein", "--alpha", "0.5", "--degree", "4"],
                                  ["cov", "--alpha", "1.0", "--degree", "2"]])
def test_verify_trial_degree_refused_where_unused(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", *argv, "--trials", "2", "--trial-degree", "2",
                 "--report", str(out)]) == 1
    assert "--trial-degree" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub, flags", [
    ("sieve", ["--beta", "2"]), ("sieve", ["--ball-samples", "3"]),
    ("sieve", ["--weight", "boundary-power"]), ("osc", ["--gamma", "0.5"]),
    ("maxmin", ["--n-ref", "4"]), ("osc", ["--statistic", "mean"])],
    ids=["sieve-beta", "sieve-ball-samples", "sieve-weight", "osc-gamma", "maxmin-n-ref",
         "osc-statistic"])
def test_verify_refuses_flags_the_measurement_does_not_take(sub, flags, small_cap_files,
                                                           tmp_path, capsys):
    # each of these left the report's bytes unchanged; --gamma and --n-ref
    # count as --weight
    paths, _ = small_cap_files
    out = tmp_path / "r.json"
    argv = ["verify", sub, "--points", str(paths["points"]), "--trials", "2",
            "--report", str(out)]
    assert main(argv + flags) == 1
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0 and out.exists()


@pytest.mark.parametrize("source, sub, flags", [
    ("points", "sieve", ["--alpha", "0.3"]), ("points", "sieve", ["--d", "1"]),
    ("rule", "mz", ["--alpha", "0.3"])], ids=["sieve-alpha", "sieve-d", "mz-alpha"])
def test_verify_file_subcommands_refuse_domain_flags(source, sub, flags, small_cap_files,
                                                     tmp_path, capsys):
    # a file subcommand measures on the domain of its file
    paths, _ = small_cap_files
    out = tmp_path / "r.json"
    argv = ["verify", sub, f"--{source}", str(paths[source]), "--trials", "2",
            "--report", str(out)]
    assert main(argv + flags) == 1
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0 and out.exists()


def test_verify_mz_refuses_degree(rule_file, tmp_path, capsys):
    # mz measures at the rule's degree; a lower trial degree has its own flag
    out = tmp_path / "r.json"
    assert main(["verify", "mz", "--rule", str(rule_file), "--degree", "2", "--trials", "3",
                 "--report", str(out)]) == 1
    assert "--trial-degree" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def small_cap_files(tmp_path_factory):
    """Points and rule files of the cap of radius 1/2 at degree 2, and what they load to."""
    tmp = tmp_path_factory.mktemp("small")
    paths = {"points": tmp / "p.json", "rule": tmp / "r.json"}
    assert main(["points", "--d", "2", "--alpha", "0.5", "--degree", "2", "--delta", "0.25",
                 "--out", str(paths["points"])]) == 0
    assert main(["solve", "--points", str(paths["points"]), "--degree", "2",
                 "--out", str(paths["rule"])]) == 0
    loaded = {"nodes": cqio.nodes_from_dict(cqio.load_json(paths["points"])),
              "rule": cqio.rule_from_dict(cqio.load_json(paths["rule"]))}
    return paths, loaded


_BP = cq.DoublingWeight.boundary_power(1.0, n_ref=8)
_RUN = {"trials": 3, "seed": 4}
# subcommand -> (flags, the measurement called as the CLI should call it,
# the fields the CLI adds to its cell)
_CELL_CASES = {
    "mz": (["--rule", "{rule}", "--p", "1"],
           lambda f: cq.mz_bracket(f["rule"], 1.0, **_RUN), {}),
    "osc": (["--points", "{points}", "--beta", "1.5", "--ball-samples", "8"],
            lambda f: cq.osc_constant(f["nodes"], 2, 2.0, beta=1.5, ball_samples=8, **_RUN),
            {"ball_samples": 8}),
    "sieve": (["--points", "{points}", "--trial-degree", "1"],
              lambda f: cq.large_sieve_constant(f["nodes"], 2, 2.0, trial_degree=1, **_RUN),
              {"trial_degree": 1}),
    "maxmin": (["--points", "{points}", "--degree", "3", "--ball-samples", "8"],
               lambda f: cq.maxmin_equivalence(f["nodes"], 3, 2.0, ball_samples=8, **_RUN),
               {"ball_samples": 8}),
    "bernstein": (["--alpha", "0.4", "--degree", "4", "--weight", "boundary-power",
                   "--statistic", "mean"],
                  lambda f: cq.bernstein_check_d1(0.4, 4, 2.0, _BP, statistic="mean", **_RUN),
                  {}),
    "weighted-mz": (["--points", "{points}", "--weight", "boundary-power",
                     "--ball-samples", "8"],
                    lambda f: cq.weighted_mz(f["nodes"].domain, _BP, f["nodes"], 2, 2.0,
                                             ball_samples=8, **_RUN),
                    {"ball_samples": 8}),
    "cov": (["--alpha", "1.0", "--degree", "2"],
            lambda f: cq.change_of_variables_check(cq.Cap(cq.north_pole(2), 1.0), 2, **_RUN),
            {}),
}


@pytest.mark.parametrize("name", list(_CELL_CASES))
def test_verify_writes_the_measured_cell(name, small_cap_files, tmp_path):
    # the report cell is the measurement's own cell plus the trial settings
    paths, loaded = small_cap_files
    flags, measure, added = _CELL_CASES[name]
    out = tmp_path / "r.json"
    assert main(["verify", name, *(a.format(**paths) for a in flags), "--trials", "3",
                 "--seed", "4", "--report", str(out)]) == 0
    cell = json.loads(out.read_text())["cells"][0]
    assert cell == {**measure(loaded), "trials": 3, **added}
