"""The content-keyed memo of ``io``: a file's bytes are decoded and
validated once per parser, a node array's text is made once per content,
a set ``points`` writes is the set a later load of its bytes returns, and
none of it changes a byte of what is read or written."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from capquad import io as cqio, points
from capquad.cli import main
from capquad.verify import VerificationReport

from conftest import run_cli, three_node_set


def _reference(data):
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}
    return json.dumps(plain, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


@pytest.fixture
def memo(monkeypatch):
    """Empty load and encode slots for one test."""
    monkeypatch.setattr(cqio, "_LOADS", cqio._Last())
    monkeypatch.setattr(cqio, "_ARRAY_TEXT", cqio._Last())
    return cqio


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls into ``load_json`` and ``nodes_from_dict``, the
    functions a load that misses goes through (and the benchmark traces)."""
    counts = {"load_json": 0, "nodes_from_dict": 0}
    for name in counts:
        def counting(*args, _fn=getattr(cqio, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cqio, name, counting)
    return counts


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("memo")
    points, rule = tmp / "p.json", tmp / "r.json"
    assert main(["points", "--d", "2", "--alpha", "0.5", "--degree", "2", "--delta", "0.25",
                 "--seed", "0", "--out", str(points)]) == 0
    assert main(["solve", "--points", str(points), "--degree", "2", "--out", str(rule)]) == 0
    return points, rule


def test_canonical_dumps_is_sorted_compact_json(memo, rule_a1_n8):
    report = VerificationReport("mz", {"d": 2, "alpha": 1.0, "n": 8},
                                [{"lo": 0.5, "hi": 2.0, "trials": 3}], 3).to_dict()
    points = cqio.points_to_dict(rule_a1_n8.nodes)
    assert cqio.canonical_dumps(points) == _reference(points)  # a miss
    text = memo._ARRAY_TEXT.value
    for data in (points, cqio.rule_to_dict(rule_a1_n8), report):
        assert cqio.canonical_dumps(data) == _reference(data)  # hits on the node text
    assert memo._ARRAY_TEXT.value is text


def test_canonical_dumps_writes_any_top_level_array_as_lists(memo):
    # the node array is the builders' only array, but any other top-level
    # array is written the same way; one nested deeper is not JSON data
    for array in (np.arange(4), np.array([0.1, 1e-300, 2.5]), np.zeros((0, 3)),
                  np.array([[True, False]])):
        data = {"b": array, "a": [1, 2.5], "c": {"x": None}}
        assert cqio.canonical_dumps(data) == _reference(data)
        assert cqio.canonical_dumps(data) == _reference(data)  # a hit
    assert cqio.canonical_dumps({}) == "{}\n"
    with pytest.raises(TypeError):
        cqio.canonical_dumps({"generator": {"nodes": np.zeros((2, 3))}})
    with pytest.raises(TypeError):
        json.dumps(cqio.points_to_dict(three_node_set()))


def test_canonical_dumps_rejects_nan_every_time(memo):
    data = cqio.points_to_dict(three_node_set())
    nodes = data["nodes"].copy()
    nodes[1, 0] = np.nan
    for _ in range(2):
        with pytest.raises(ValueError):
            cqio.canonical_dumps(dict(data, nodes=nodes))
    assert memo._ARRAY_TEXT.key is None
    with pytest.raises(ValueError):
        cqio.canonical_dumps(dict(data, alpha=np.nan))


def test_same_bytes_parse_once(memo, calls, small_files, tmp_path):
    points = small_files[0]
    nodes = memo.load(points, memo.nodes_from_dict)
    for n in (1, 2):
        assert main(["solve", "--points", str(points), "--degree", str(n),
                     "--out", str(tmp_path / f"r{n}.json")]) == 0
    assert memo.load(points, memo.nodes_from_dict) is nodes
    assert calls == {"load_json": 1, "nodes_from_dict": 1}


def test_one_changed_byte_parses_again(memo, calls, small_files, tmp_path):
    raw = small_files[0].read_bytes()
    edited = raw.replace(b'"seed":0', b'"seed":7', 1)
    assert sum(a != b for a, b in zip(raw, edited)) == 1 and len(edited) == len(raw)
    path = tmp_path / "p.json"
    path.write_bytes(raw)
    first = memo.load(path, memo.nodes_from_dict)
    path.write_bytes(edited)
    second = memo.load(path, memo.nodes_from_dict)
    assert (first.seed, second.seed) == (0, 7)
    assert calls["nodes_from_dict"] == 2


def test_failed_loads_fail_every_time(memo, calls, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    for _ in range(2):
        with pytest.raises(cqio.FormatError):
            memo.load(bad, memo.nodes_from_dict)
    data = cqio.points_to_dict(three_node_set())
    data["nodes"] = data["nodes"][[0, 0, 1]]  # a repeated node: not separated
    cqio.write_canonical(bad, data)
    for _ in range(2):
        with pytest.raises(ValueError, match="not separated"):
            memo.load(bad, memo.nodes_from_dict)
    assert calls["nodes_from_dict"] == 2 and memo._LOADS.key is None


def test_memo_keeps_one_content(memo, calls, small_files):
    # a set read or written between two uses of another costs it a parse
    # and an encoding again: one slot each, so memory stays bounded
    points, rule = small_files
    first = memo.load(points, memo.nodes_from_dict)
    memo.load(rule, memo.rule_from_dict)
    again = memo.load(points, memo.nodes_from_dict)
    assert again is not first
    assert calls["nodes_from_dict"] == 3  # the rule's nodes are parsed by it too
    assert memo._LOADS.key[1] == points.read_bytes()
    texts = []
    for k in (0.5, 1.5, 0.5):
        cqio.canonical_dumps({"nodes": np.full((2, 3), k)})
        texts.append(memo._ARRAY_TEXT.value)
    assert texts[0] == texts[2] and texts[0] is not texts[2]


def test_a_cached_rule_cannot_change(memo, small_files):
    rule = memo.load(small_files[1], memo.rule_from_dict)
    with pytest.raises(TypeError):
        rule.solver_meta["solver"] = "edited"
    with pytest.raises(ValueError):
        rule.weights[0] = 1.0
    with pytest.raises(ValueError):
        rule.nodes.coords[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.solver_meta = {}
    again = memo.load(small_files[1], memo.rule_from_dict)
    assert again is rule and again.solver_meta["solver"] != "edited"


# (argv of points, solve degree): the six cells of the benchmark's build
# workload, then a thin cap and a wide one, all at delta 0.25
_BUILD = [(["--d", "2", "--alpha", "0.3"], 4), (["--d", "2", "--alpha", "1.0"], 6),
          (["--d", "2", "--alpha", "2.0"], 8),
          (["--d", "2", "--alpha", "0.5", "--collar-beta", "1.0"], 4),
          (["--d", "1", "--alpha", "1.0"], 16),
          (["--d", "1", "--alpha", "0.5", "--collar-beta", "1.0"], 16),
          (["--d", "2", "--alpha", "0.05"], 12), (["--d", "2", "--alpha", "2.5"], 8)]


def _points(path, cell, seed=0):
    shape, degree = cell
    return main(["points", *shape, "--degree", str(degree), "--delta", "0.25",
                 "--seed", str(seed), "--out", str(path)])


@pytest.fixture
def separations(monkeypatch):
    """Calls into ``points.min_separation``, the check a set that is
    parsed, not handed over, goes through."""
    counted = []
    monkeypatch.setattr(points, "min_separation",
                        lambda *args, _fn=points.min_separation: counted.append(1) or _fn(*args))
    return counted


@pytest.mark.parametrize("cell", [_BUILD[1], _BUILD[3], _BUILD[4]], ids=["cap", "collar", "arc"])
def test_solve_takes_the_set_points_wrote(memo, calls, separations, cell, tmp_path):
    path, here, fresh = tmp_path / "p.json", tmp_path / "here.json", tmp_path / "fresh.json"
    assert _points(path, cell) == 0
    solve = ["solve", "--points", str(path), "--degree", str(cell[1])]
    assert main([*solve, "--out", str(here)]) == 0
    assert calls == {"load_json": 0, "nodes_from_dict": 0} and separations == []
    assert run_cli([*solve, "--out", str(fresh)]).returncode == 0
    assert (hashlib.sha256(here.read_bytes()).hexdigest()
            == hashlib.sha256(fresh.read_bytes()).hexdigest())


@pytest.mark.parametrize("k", range(len(_BUILD)))
def test_the_set_handed_over_is_the_set_its_file_parses_to(memo, k, tmp_path):
    path = tmp_path / "p.json"
    assert _points(path, _BUILD[k], seed=k) == 0
    wrote = memo._LOADS.value
    assert memo._LOADS.key == (memo.nodes_from_dict, path.read_bytes())
    parsed = memo.nodes_from_dict(memo.load_json(path))
    assert type(parsed.domain) is type(wrote.domain) and parsed.domain == wrote.domain
    assert parsed.coords.dtype == wrote.coords.dtype and parsed.coords.shape == wrote.coords.shape
    assert parsed.coords.tobytes() == wrote.coords.tobytes()
    for field in ("epsilon", "degree", "delta", "seed", "algorithm"):
        assert getattr(parsed, field) == getattr(wrote, field), field
    assert wrote.seed == k and wrote.algorithm == "rho-ring-lattice"
    eps = wrote.epsilon
    assert points.min_separation(wrote.domain, wrote.coords, eps) >= eps - 1e-12


def test_a_file_changed_after_points_parses_again(memo, calls, separations, tmp_path):
    other = cqio.canonical_dumps(cqio.points_to_dict(three_node_set())).encode()
    separations.clear()
    path = tmp_path / "p.json"
    assert _points(path, _BUILD[0]) == 0
    wrote, raw = memo._LOADS.value, path.read_bytes()
    path.write_bytes(raw.replace(b'"seed":0', b'"seed":7', 1))  # one byte
    edited = memo.load(path, memo.nodes_from_dict)
    assert edited is not wrote and edited.seed == 7
    assert calls["nodes_from_dict"] == 1 and len(separations) == 1
    path.write_bytes(other)  # another set's file, not written by points
    assert len(memo.load(path, memo.nodes_from_dict)) == 3
    assert calls["nodes_from_dict"] == 2 and len(separations) == 2


def test_a_failed_points_write_keeps_the_memo(memo, tmp_path):
    path = tmp_path / "p.json"
    assert _points(path, _BUILD[0]) == 0
    key, value = memo._LOADS.key, memo._LOADS.value
    assert _points(tmp_path / "missing" / "p.json", _BUILD[1]) == 1
    assert memo._LOADS.key is key and memo._LOADS.value is value
    assert memo.load(path, memo.nodes_from_dict) is value
