"""Canonical JSON persistence for node sets, rules, and reports.

Canonical form: sorted keys, compact separators, shortest round-trip
floats (repr, capped at 17 significant digits by the float type itself),
newline-terminated.  Writing the same object twice yields byte-identical
files, which the reproducibility checks compare directly.

A process that reads or writes one node set several times (one set
solved at several degrees, then measured) pays for it once per content:
``load`` keeps the object parsed from the last file's bytes, and
``canonical_dumps`` the text of the last node array.  Both key on the
content itself, so a hit is exact and the bytes written never change.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import Cap, Collar, SpherePoint
from .points import NodeSet
from .solver import CubatureRule

RULE_VERSION = "capquad-rule/1"
POINTS_VERSION = "capquad-points/1"


class FormatError(ValueError):
    """Malformed or wrong-version input file."""


class _Last:
    """The value made for the last key: ``get`` makes a value only for a
    key unequal to the last one, and a make that raises keeps nothing.
    One slot is enough for a set solved at several degrees, then measured,
    and holds the least memory."""

    def __init__(self):
        self.key = self.value = None

    def get(self, key, make):
        if key != self.key:
            self.key = self.value = None  # the old pair goes before the new is made
            self.value = make()
            self.key = key
        return self.value


_LOADS, _ARRAY_TEXT = _Last(), _Last()


def _dumps(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_dumps(data):
    """The canonical text of ``data``, a dict with string keys: ``_dumps``
    of it plus a newline, with each top-level array value (a node set's
    coordinates, as ``points_to_dict`` leaves them) written as nested
    lists from text made once per dtype, shape and bytes.  An array
    nested deeper is not JSON data and raises ``TypeError``."""
    items = (f"{_dumps(k)}:{_array_text(v) if isinstance(v, np.ndarray) else _dumps(v)}"
             for k, v in sorted(data.items()))
    return "{" + ",".join(items) + "}\n"


def _array_text(array):
    return _ARRAY_TEXT.get((array.dtype.str, array.shape, array.tobytes()),
                           lambda: _dumps(array.tolist()))


def write_canonical(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(data))


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def load_json(path, raw=None):
    """The JSON value of the file at ``path``, decoded from ``raw``, its
    bytes, when the caller has read them."""
    try:
        return json.loads((_read(path) if raw is None else raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def load(path, parse):
    """``parse(load_json(path))``, or the object that call returned before
    on the same bytes with the same ``parse`` (``nodes_from_dict`` or
    ``rule_from_dict``, whose results are immutable)."""
    raw = _read(path)
    return _LOADS.get((parse, raw), lambda: parse(load_json(path, raw)))


def _check_version(data, versions):
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object")
    if data.get("version") not in versions:
        raise FormatError(f"unsupported version {data.get('version')!r}")


_REQUIRED = object()


def _field(data, key, default=_REQUIRED):
    if key in data:
        return data[key]
    if default is _REQUIRED:
        raise FormatError(f"missing field {key!r}")
    return default


def _numbers(data, key, default=_REQUIRED):
    """data[key] as a float array of finite entries; null is allowed only
    where the default is None (the optional fields) and comes back as None."""
    raw = _field(data, key, default)
    if raw is None:
        if default is None:
            return None
        raise FormatError(f"field {key!r} is null")
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise FormatError(f"field {key!r} is not numeric") from None
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"field {key!r} has non-finite values")
    return arr


def _scalar(data, key, default=_REQUIRED):
    arr = _numbers(data, key, default)
    if arr is None:
        return None
    if arr.ndim:
        raise FormatError(f"field {key!r} is not a number")
    return float(arr)


def _integer(data, key, default=_REQUIRED):
    value = _field(data, key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"field {key!r} is not an integer")
    return value


def _string(data, key):
    value = _field(data, key, "unknown")
    if not isinstance(value, str):
        raise FormatError(f"field {key!r} is not a string")
    return value


def _generator(data):
    gen = data.get("generator", {})
    if not isinstance(gen, dict):
        raise FormatError("field 'generator' is not an object")
    return gen


def _domain_from_fields(data):
    d = _integer(data, "d")
    center = _numbers(data, "center")
    if center.shape != (d + 1,):
        raise FormatError("center length inconsistent with d")
    alpha = _scalar(data, "alpha")
    beta = _scalar(data, "beta", None)
    if beta is not None:
        return Collar(SpherePoint(center), alpha, beta)
    return Cap(SpherePoint(center), alpha)


def points_to_dict(nodes):
    """The points file of a node set, for ``canonical_dumps``: ``"nodes"``
    is the read-only coordinate array itself, not lists, so the dict is
    not plain JSON data (``json.dumps`` of it raises ``TypeError``).  This
    and ``rule_to_dict`` are the only builders of such dicts, and the
    node array is their only array value."""
    domain = nodes.domain
    return {
        "version": POINTS_VERSION,
        "d": domain.dim,
        "alpha": domain.alpha,
        "beta": domain.beta if isinstance(domain, Collar) else None,
        "center": domain.center.coords.tolist(),
        "degree": nodes.degree,
        "delta": nodes.delta,
        "epsilon": nodes.epsilon,
        "nodes": nodes.coords,
        "generator": {"seed": nodes.seed, "algorithm": nodes.algorithm},
    }


def nodes_from_dict(data):
    """The node set of a points or rule file.  Once every field has parsed,
    a points file must have degree >= 1 and, when epsilon > 0, delta equal
    to epsilon * degree (a rule's degree is its own); both kinds need a
    nonnegative generator seed, and a string generator algorithm when
    they name one."""
    _check_version(data, (POINTS_VERSION, RULE_VERSION))
    domain = _domain_from_fields(data)
    nodes = _numbers(data, "nodes")
    if nodes.ndim != 2 or nodes.shape[1] != domain.dim + 1:
        raise FormatError("nodes must be an array of unit vectors of length d+1")
    epsilon, degree = _scalar(data, "epsilon", 0.0), _integer(data, "degree", 1)
    gen = _generator(data)
    delta, seed = _scalar(data, "delta", None), _integer(gen, "seed", 0)
    algorithm = _string(gen, "algorithm")
    if seed < 0:
        raise FormatError(f"generator seed must be >= 0, got {seed}")
    if data["version"] == POINTS_VERSION:
        if degree < 1:
            raise FormatError(f"degree must be >= 1, got {degree}")
        if epsilon > 0 and delta is not None and (
                abs(delta - epsilon * degree) > 1e-12 * max(1.0, delta)):
            raise FormatError(f"delta {delta} differs from epsilon * degree = {epsilon * degree}")
    return NodeSet(domain, nodes, epsilon, degree=degree, delta=delta, seed=seed,
                   algorithm=algorithm)


def rule_to_dict(rule):
    """The points file of the rule's nodes, with the rule's degree, weights
    (as lists), residual and solver; like ``points_to_dict``, it leaves the
    node array an array, for ``canonical_dumps``."""
    out = points_to_dict(rule.nodes)
    meta = rule.solver_meta
    out["generator"].update(seed=int(meta.get("seed", rule.nodes.seed)),
                            solver=meta.get("solver", "unknown"))
    out.update({
        "version": RULE_VERSION,
        "degree": rule.degree,
        "weights": rule.weights.tolist(),
        "residual": rule.residual,
    })
    return out


def rule_from_dict(data):
    _check_version(data, (RULE_VERSION,))
    nodes = nodes_from_dict(data)
    weights = _numbers(data, "weights")
    if weights.shape != (len(nodes),):
        raise FormatError("nodes and weights must have equal length")
    if np.any(weights <= 0):
        raise FormatError("rule weights must be strictly positive")
    gen = _generator(data)
    meta = {"seed": _integer(gen, "seed", 0), "solver": _string(gen, "solver")}
    return CubatureRule(nodes, weights, _integer(data, "degree"),
                        _scalar(data, "residual"), meta)


def write_report_csv(path, report):
    rows = list(report.csv_rows())
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
