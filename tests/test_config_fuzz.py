"""Fuzz gate: a wrong-typed leaf anywhere in a bundled scenario is a config error,
and so is an out-of-range number in any numeric field.

One leaf of a bundled scenario's JSON tree is replaced by a value of another
JSON type (string, bool, null, non-integral float, list or object). Whether
the mutation arrives in the file or through `--override`, the CLI must exit
0 (the value is acceptable) or 2 (rejected with a message), never 3. The
value gate sets each int and float field to 0, -1, 1000 and 10**9 (and
floats also to 0.5, the smallest subnormal 5e-324, 1e308, NaN and
+-Infinity) through `--override` and asks the same of `run`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scenario_path
from vecsim.cli import main
from vecsim.config import ScenarioConfig

BUNDLED = ("smoke", "degenerate", "oracle", "eco_toy")
TREES = {name: json.loads(scenario_path(name).read_text(encoding="utf-8")) for name in BUNDLED}

WRONG = {
    "string": st.text(max_size=4),
    "bool": st.booleans(),
    "null": st.none(),
    "float": st.floats(-1e3, 1e3, allow_nan=False).filter(lambda x: x != int(x)),
    "list": st.lists(st.integers(-2, 2), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
}


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


LEAVES = [(name, path, value) for name in BUNDLED for path, value in _leaves(TREES[name])]


def _json_kind(value) -> str:
    if value is None:
        return "null"
    return {bool: "bool", str: "string", float: "float", int: "int", list: "list", dict: "object"}[type(value)]


@st.composite
def mutations(draw):
    name, path, old = draw(st.sampled_from(LEAVES))
    kind = draw(st.sampled_from([k for k in WRONG if k != _json_kind(old)]))
    tree = json.loads(json.dumps(TREES[name]))
    parent = tree
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = draw(WRONG[kind])
    return name, path, tree


def _main(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutations())
def test_validate_rejects_a_wrong_typed_leaf_without_crashing(mutation):
    _, _, tree = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        code, out = _main("validate", str(path))
    assert code in (0, 2), out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutations())
def test_run_rejects_a_wrong_typed_override_without_crashing(mutation):
    name, path, tree = mutation
    # A dotted path cannot index a list, so the override carries the mutated
    # subtree under its section.field prefix, or the shorter one before a list.
    depth = min(2, next((i for i, part in enumerate(path) if not isinstance(part, str)), len(path)))
    value = tree
    for part in path[:depth]:
        value = value[part]
    override = ".".join(path[:depth]) + "=" + json.dumps(value)
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _main(
            "run", str(scenario_path(name)), "--out", tmp,
            "--override", "horizon=5", "--override", override,
        )
    assert code in (0, 2), (override, out)


def _numeric_fields():
    """(dotted path, type) of the top-level numbers and of every int or float
    field of every section; horizon stays fixed so each run is short."""
    top = typing.get_type_hints(ScenarioConfig)
    fields = [(name, top[name]) for name in ("seed", "slot_duration", "latency_deadline_s", "snr_threshold_db")]
    for section, hint in top.items():
        if dataclasses.is_dataclass(hint):
            fields += [
                (f"{section}.{name}", float if sub is not int else int)
                for name, sub in typing.get_type_hints(hint).items()
                if sub in (int, float) or sub == float | None
            ]
    return fields


VALUE_PROBES = [
    f"{path}={v}"
    for path, kind in _numeric_fields()
    for v in ((0, -1, 1000, 0.5, 1e9, 5e-324, 1e308, "NaN", "Infinity", "-Infinity") if kind is float else (0, -1, 1000, 10**9))
]


@pytest.mark.parametrize("override", VALUE_PROBES)
def test_run_rejects_an_out_of_range_number_without_crashing(override, tmp_path):
    code, out = _main(
        "run", str(scenario_path("smoke")), "--out", str(tmp_path),
        "--override", "horizon=20", "--override", override,
    )
    assert code in (0, 2), (override, out)
