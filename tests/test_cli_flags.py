"""Fuzzing of the CLI's numeric flags and environment variables, parse only.

Arbitrary text given to a numeric flag must either exit 1 or parse to a
finite value of the flag's type inside its range; no command is run.
"""

import argparse
import contextlib
import io
import math

import pytest

from capquad.cli import _ENV, make_parser
from capquad.geometry import ALPHA_MAX

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# each command with its required flags set to valid values; a flag given
# again at the end overrides the earlier value
BASE = {
    "points": ["points", "--d", "2", "--alpha", "1", "--degree", "2", "--delta", "0.5",
               "--out", "out.json"],
    "solve": ["solve", "--points", "in.json", "--degree", "2", "--out", "out.json"],
    "verify": ["verify", "mz", "--report", "out.json"],
    "moments": ["moments", "--d", "2", "--alpha", "1", "--degree", "2"],
}


def _range(kind, lo=-math.inf, hi=math.inf, open_lo=False):
    def ok(value):
        return (type(value) is kind and math.isfinite(value)
                and (value > lo if open_lo else value >= lo) and value <= hi)
    return ok


def _choice(value):
    return value in (1, 2)


ALPHA = _range(float, 0.0, ALPHA_MAX, open_lo=True)
POSITIVE_INT = _range(int, 1)
NONNEG_INT = _range(int, 0)
COMMON = {"--seed": NONNEG_INT, "--threads": POSITIVE_INT}
FLAGS = {
    "points": {"--d": _choice, "--alpha": ALPHA, "--degree": POSITIVE_INT,
               "--delta": _range(float, 0.0, 1.0, open_lo=True),
               "--collar-beta": _range(float), **COMMON},
    "solve": {"--degree": NONNEG_INT, "--tol": _range(float, 0.0, open_lo=True), **COMMON},
    "verify": {"--d": _choice, "--alpha": ALPHA, "--degree": POSITIVE_INT,
               "--p": _range(float, 1.0), "--beta": _range(float, 1.0),
               "--trials": POSITIVE_INT, "--ball-samples": POSITIVE_INT,
               "--trial-degree": NONNEG_INT, "--gamma": _range(float, 0.0, 2.0),
               "--n-ref": POSITIVE_INT, **COMMON},
    "moments": {"--d": _choice, "--alpha": ALPHA, "--degree": NONNEG_INT, **COMMON},
}
CASES = [(command, flag) for command, flags in FLAGS.items() for flag in flags]
ENV_RANGES = {"CAPQUAD_SEED": NONNEG_INT, "CAPQUAD_THREADS": POSITIVE_INT}

TEXT = (st.text()
        | st.integers().map(str)
        | st.floats().map(repr)
        | st.sampled_from(["", " 3 ", "1_0", "0x10", "-0", "1e309", "-inf", "nan", "2.",
                           "1e-320", "9" * 5000]))

PARSER = make_parser()


def _parse(argv):
    """The parsed namespace, or the exit code of a refused command line."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code


def test_every_numeric_flag_is_fuzzed():
    commands = next(a for a in PARSER._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, flags in FLAGS.items():
        assert not isinstance(_parse(BASE[command]), int), command
        typed = {a.option_strings[-1] for a in commands[command]._actions
                 if a.type is not None}
        assert typed == set(flags), command
    assert set(ENV_RANGES) == {var for _, var, _, _ in _ENV}


@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.given(st.sampled_from(CASES), TEXT)
def test_numeric_flag_exits_1_or_parses_in_range(case, text):
    command, flag = case
    args = _parse(BASE[command] + [f"{flag}={text}"])
    if isinstance(args, int):
        assert args == 1
        return
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    assert FLAGS[command][flag](value), (flag, text, value)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(st.sampled_from(_ENV), TEXT)
def test_environment_value_exits_1_or_parses_in_range(env, text):
    # main() turns ArgumentTypeError from the check into exit 1; any other
    # exception fails the test
    _, var, check, _ = env
    try:
        value = check(text)
    except argparse.ArgumentTypeError:
        return
    assert ENV_RANGES[var](value), (var, text, value)
