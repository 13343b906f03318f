"""Fuzzing of the rule and node-set loaders: a valid rule dict with one
field replaced by arbitrary JSON, or dropped, must be rejected with
FormatError or ValueError, never with another exception."""

import pytest

from capquad import io as cqio

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RULE = {
    "version": "capquad-rule/1", "d": 2, "alpha": 1.0, "beta": None,
    "center": [0.0, 0.0, 1.0], "degree": 0, "delta": 1.0, "epsilon": 1.0,
    "nodes": [[0.0, 0.0, 1.0]], "weights": [1.0], "residual": 0.0,
    "generator": {"seed": 0, "algorithm": "rho-ring-lattice", "solver": "nnls-active-set"},
}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8)
DROP = object()


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(st.sampled_from(sorted(RULE)), st.just(DROP) | JSON)
def test_loaders_reject_only_with_format_or_value_error(key, value):
    data = dict(RULE)
    if value is DROP:
        del data[key]
    else:
        data[key] = value
    for load in (cqio.rule_from_dict, cqio.nodes_from_dict):
        try:
            load(data)
        except ValueError:  # FormatError is a ValueError
            pass
