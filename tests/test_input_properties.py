"""Hypothesis properties over the two file inputs a user hands the CLI: a
scenario for `lakat run` and a dump directory for `lakat verify`.  Mutated
input must be accepted or refused in the documented way, never end in a
traceback."""

import contextlib
import copy
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lakat.cli import main as cli_main
from lakat.scenario import Runner, dump_state, parse_scenario, verify_dump

from test_scenario_cli import MINIMAL, scenario_path

with open(scenario_path("fig5a.json")) as fh:
    FIG5A = fh.read()
with open(scenario_path("fig5b.json")) as fh:
    FIG5B = fh.read()
ODD_VALUES = (None, True, -1, 0, 1.5, 2**64, "x", "", [], [1, 0], {}, {"kind": 3})


def _odd_value(draw):
    return copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))  # a fresh copy: later edits may change it


def _slots(value):
    """Every (container, key) inside a JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield value, key
        yield from _slots(child)


def _strings(value) -> list:
    if isinstance(value, str):
        return [value]
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return [text for child in children for text in _strings(child)]


def _mutate(data, draw):
    """One edit of a JSON document: delete a key or element, retype a value,
    put another of the document's strings in a string's place, push a number
    out of range, or swap two steps."""
    kind = draw(st.sampled_from(("delete", "retype", "swap-name", "number", "reorder")))
    steps = data.get("steps") if isinstance(data, dict) else None
    if kind == "reorder" and isinstance(steps, list) and len(steps) > 1:
        i, j = draw(st.integers(0, len(steps) - 1)), draw(st.integers(0, len(steps) - 1))
        steps[i], steps[j] = steps[j], steps[i]
        return
    slots = list(_slots(data))
    if not slots:
        return
    container, key = draw(st.sampled_from(slots))
    value = container[key]
    if kind == "delete":
        del container[key]
    elif kind == "swap-name" and isinstance(value, str):
        container[key] = draw(st.sampled_from(_strings(data)))
    elif kind == "number" and isinstance(value, int) and not isinstance(value, bool):
        container[key] = draw(st.sampled_from((-1, -value, value + 1, 2**31, 2**63, 10**30)))
    else:
        container[key] = _odd_value(draw)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_scenario_runs_or_is_refused_in_one_line(data):
    text = data.draw(st.sampled_from((FIG5A, FIG5B, MINIMAL)), label="scenario")
    scenario = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        _mutate(scenario, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["run", path])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


@pytest.fixture(scope="module")
def fig5a_dump(tmp_path_factory):
    runner = Runner(parse_scenario(FIG5A))
    runner.run()
    path = tmp_path_factory.mktemp("fig5a") / "dump"
    dump_state(runner.world, str(path))
    return str(path)


def _flip_hex(text: str, draw) -> str:
    digits = [i for i, c in enumerate(text) if c in "0123456789abcdef"]
    if not digits:
        return text
    i = draw(st.sampled_from(digits))
    return text[:i] + format(int(text[i], 16) ^ draw(st.integers(1, 15)), "x") + text[i + 1:]


def _mutate_log(path: str, draw):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        return
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("delete", "truncate", "retype", "flip")))
    if kind == "delete":
        del lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    elif kind == "retype":
        lines[i] = draw(st.sampled_from(("", "x", "00 00", "{}", lines[i].split(" ")[0])))
    else:
        lines[i] = _flip_hex(lines[i], draw)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _mutate_json(path: str, draw):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError:  # an earlier edit truncated it
        return
    slots = list(_slots(data))
    if not slots:
        return
    container, key = draw(st.sampled_from(slots))
    kind = draw(st.sampled_from(("delete", "retype", "flip", "truncate")))
    if kind == "delete":
        del container[key]
    elif kind == "flip" and isinstance(container[key], str):
        container[key] = _flip_hex(container[key], draw)
    else:
        container[key] = _odd_value(draw)
    text = json.dumps(data)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    with open(path, "w") as fh:
        fh.write(text)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_dump_gives_problem_lines_not_a_traceback(fig5a_dump, data):
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "dump")
        shutil.copytree(fig5a_dump, dump)
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            peer = data.draw(st.sampled_from(("p1", "p2", "p3")), label="peer")
            name = data.draw(st.sampled_from(("store.log", "headers.json", "trie_roots.json")), label="file")
            path = os.path.join(dump, peer, name)
            (_mutate_log if name == "store.log" else _mutate_json)(path, data.draw)
        problems = verify_dump(dump)
    assert isinstance(problems, list)
    assert all(isinstance(line, str) and "\n" not in line for line in problems)
