"""The content-keyed memo of ``io``: a file's bytes are decoded and
validated once per parser, a node array's text is made once per content,
and neither changes a byte of what is read or written."""

import dataclasses
import json

import numpy as np
import pytest

from capquad import io as cqio
from capquad.cli import main
from capquad.verify import VerificationReport

from conftest import three_node_set


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
