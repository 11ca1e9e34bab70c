import json
import os

import pytest

from lakat.branch import Submit, SubmitTrace, get_submit
from fuzz_driver import state_digest
from lakat.cli import main as cli_main
from lakat.codec import ContentId
from lakat.scenario import (
    Runner,
    ScenarioError,
    dump_state,
    parse_scenario,
    run,
    verify_dump,
)
from lakat.store import MemoryStore, open_log, read_log, write_log

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario_path(name):
    return os.path.join(SCENARIO_DIR, name)


MINIMAL = json.dumps({
    "sim": {"seed": 1, "latency": {"fixed": 1}, "peers": ["p1"]},
    "actors": [{"name": "ann", "peer": "p1"}],
    "steps": [
        {"op": "create_branch", "name": "solo", "creator": "ann", "type": "twig"},
        {"op": "submit", "branch": "solo", "author": "ann", "payload": "hello"},
        {"op": "advance_ticks", "ticks": 2},
        {"op": "expect", "that": "contributor", "branch": "solo", "actor": "ann",
         "kind": "content", "present": True},
        {"op": "expect", "that": "bucket_count", "branch": "solo", "equals": 2},
    ],
})


def test_minimal_scenario_parses_and_runs():
    scenario = parse_scenario(MINIMAL)
    report = run(scenario)
    assert report.ok
    assert report.transcript_hash


def test_misspelled_directive_positioned_error():
    bad = json.dumps({
        "sim": {"peers": ["p1"]},
        "actors": [{"name": "ann", "peer": "p1"}],
        "steps": [{"op": "create_brnch", "name": "x", "creator": "ann", "type": "twig"}],
    })
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(bad)
    assert "step 0" in str(excinfo.value)
    assert "create_brnch" in str(excinfo.value)


def test_undeclared_actor_rejected():
    bad = json.dumps({
        "sim": {"peers": ["p1"]},
        "actors": [],
        "steps": [{"op": "create_branch", "name": "x", "creator": "ghost", "type": "twig"}],
    })
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(bad)
    assert "ghost" in str(excinfo.value)


def test_json_error_carries_position():
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario("{ not json }")
    assert "line" in str(excinfo.value)


def test_shipped_scenarios_parse():
    for name in ("fig5a.json", "fig5b.json"):
        with open(scenario_path(name)) as fh:
            scenario = parse_scenario(fh.read())
        assert scenario.peers == ["p1", "p2", "p3"]
        main_config = scenario.steps[0]["config"]
        assert main_config["broadcasting_buffer"] == 1
        assert main_config["lignification_time"] == 50
        assert main_config["engagement_time"] == 60


def test_empty_scenario_empty_report():
    scenario = parse_scenario(json.dumps({"sim": {"peers": []}, "actors": [], "steps": []}))
    report = run(scenario)
    assert report.ok
    assert report.assertions == []


def test_cli_run_exit_codes(tmp_path, capsys):
    path = tmp_path / "minimal.json"
    path.write_text(MINIMAL)
    assert cli_main(["run", str(path)]) == 0
    capsys.readouterr()

    failing = json.loads(MINIMAL)
    failing["steps"][-1]["equals"] = 99
    bad_path = tmp_path / "failing.json"
    bad_path.write_text(json.dumps(failing))
    assert cli_main(["run", str(bad_path)]) == 1
    capsys.readouterr()

    parse_error = tmp_path / "broken.json"
    parse_error.write_text("{}{")
    assert cli_main(["run", str(parse_error)]) == 2
    capsys.readouterr()

    assert cli_main(["run", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    blocker = tmp_path / "a-file"  # a dump directory below a file cannot be made
    blocker.write_text("")
    assert cli_main(["run", str(path), "--dump", str(blocker / "dump")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot write dump: ")


@pytest.mark.parametrize("actors", [
    ["ann"],
    [{"peer": "p1"}],
    [{"name": "ann"}],
    [{"name": ["ann"], "peer": "p1"}],
    {"name": "ann", "peer": "p1"},
])
def test_cli_malformed_actor_exits_2(tmp_path, capsys, actors):
    scenario = json.loads(MINIMAL)
    scenario["actors"] = actors
    path = tmp_path / "bad-actor.json"
    path.write_text(json.dumps(scenario))
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: actor")
    assert len(err.strip().splitlines()) == 1


_REVIEW_STEPS = [  # appended to MINIMAL as steps 5 and 6: a review whose text is a number
    {"op": "pull_request", "name": "pr", "issuing": "solo", "requesting": "solo", "target": "solo",
     "author": "ann"},
    {"op": "review", "pr": "pr", "reviewer": "ann", "verdict": "accept", "text": 3},
]


@pytest.mark.parametrize("edit, message", [
    (lambda s: s["steps"].insert(1, "submit"), "step 1: must be an object"),
    (lambda s: s["steps"].insert(0, ["op", "submit"]), "step 0: must be an object"),
    (lambda s: s["sim"].update(latency={"uniform": [5, 1]}), "latency uniform [5, 1]"),
    (lambda s: s["sim"].update(latency={"uniform": [1]}), "latency must be"),
    (lambda s: s["sim"].update(latency={"fixed": "x"}), "latency must be"),
    (lambda s: s["sim"].update(latency=5), "latency must be"),
    (lambda s: s["steps"][2].update(ticks=-5), "step 2: ticks must be a non-negative integer"),
    (lambda s: s["steps"][2].update(ticks="2"), "step 2: ticks must be a non-negative integer"),
    (lambda s: s["steps"][4].pop("equals"), "step 4: directive 'expect' is missing field 'equals'"),
    (lambda s: s["steps"].append({"op": "expect", "that": "stable_head", "branch": "solo"}),
     "step 5: directive 'expect' is missing field 'equals_sprout_head'"),
    (lambda s: s["steps"][3].update(that="colour"), "step 3: unknown expectation 'colour'"),
    (lambda s: s["steps"][0].update(config={"colour": 1}), "step 0: unknown config field 'colour'"),
    (lambda s: s["steps"][0].update(config=[1]), "step 0: config must be an object"),
    (lambda s: s["steps"][0].update(config={"acceptance_rule": 5}),
     "step 0: create_branch rejected: config unreadable: BranchError: acceptance_rule: must be an object"),
    (lambda s: s["steps"][1].update(payload=5), "step 1: payload must be a string"),
    (lambda s: s["steps"].extend(_REVIEW_STEPS), "step 6: text must be a string"),
    (lambda s: s["steps"][0].update(name=["x"]), "step 0: name must be a string"),
    (lambda s: s["steps"][0].update(token="zz"), "step 0: token must be hex"),
    (lambda s: s.update(sim=[1]), "sim: must be an object"),
    (lambda s: s["sim"].update(seed="x"), "sim: seed must be a non-negative integer"),
    (lambda s: s["sim"].update(schedule=["x"]), "schedule 0: must be an object"),
    (lambda s: s["steps"][3].update(kind=3), "step 3: kind must be a string"),
    (lambda s: s["steps"][0].update(config={"lignification_time": "x"}),
     "config unreadable: BranchError: lignification_time must be a non-negative integer"),
    (lambda s: s["steps"][0].update(config={"min_reviewers": "x"}),
     "config unreadable: BranchError: min_reviewers must be a non-negative integer"),
    (lambda s: s["steps"][1].update(message=5), "step 1: message must be a string"),
    (lambda s: s["steps"][3].update(present="yes"), "step 3: present must be true or false"),
    (lambda s: s["steps"][4].update(equals="2"), "step 4: equals must be a non-negative integer"),
    (lambda s: s["steps"][0].update(config={"accept_conflicts": "no"}),
     "config unreadable: BranchError: accept_conflicts must be true or false"),
    (lambda s: s["steps"][0].update(config={"twig_merge_fraction": [1, 0]}),
     "config unreadable: BranchError: twig_merge_fraction must be [num, den] with num >= 0 and den > 0"),
    (lambda s: s["steps"][0].update(config={"acceptance_rule": {"kind": "fraction", "fraction": [1, 0]}}),
     "config unreadable: BranchError: acceptance_rule fraction must be [num, den] with num >= 0 and den > 0"),
], ids=["step-string", "step-list", "uniform-reversed", "uniform-short", "fixed-string", "latency-number",
        "ticks-negative", "ticks-string", "expect-without-equals", "expect-without-sprout-head",
        "expect-unknown", "config-unknown-field", "config-not-object", "config-unreadable",
        "payload-number", "review-text-number", "name-list", "token-not-hex", "sim-list", "seed-string",
        "schedule-string", "kind-number", "window-string", "reviewers-string", "message-number",
        "present-string", "equals-string", "conflicts-string", "twig-fraction-zero-den", "rule-fraction-zero-den"])
def test_cli_malformed_step_or_latency_exits_2(tmp_path, capsys, edit, message):
    scenario = json.loads(MINIMAL)
    edit(scenario)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_cli_uniform_latency_runs(tmp_path, capsys):
    scenario = json.loads(MINIMAL)
    scenario["sim"]["latency"] = {"uniform": [1, 3]}
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(scenario))
    assert cli_main(["run", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("garbage", ["garbage", "zz zz", "01ab not-hex", "\u00ff\u00fe"])
def test_cli_verify_reports_malformed_store_log_line(tmp_path, capsys, garbage):
    path = tmp_path / "minimal.json"
    path.write_text(MINIMAL)
    dump_dir = tmp_path / "dump"
    assert cli_main(["run", str(path), "--dump", str(dump_dir)]) == 0
    capsys.readouterr()
    log_path = dump_dir / "p1" / "store.log"
    lines = log_path.read_text().splitlines()
    for line_no in range(1, len(lines) + 1):  # each line in turn, so every record goes missing once
        broken = lines[:line_no - 1] + [garbage] + lines[line_no:]
        log_path.write_text("\n".join(broken) + "\n")
        assert cli_main(["verify", str(dump_dir)]) == 1
        assert f"p1: store.log line {line_no} malformed" in capsys.readouterr().err.splitlines()


def _dump_minimal(tmp_path, capsys):
    path = tmp_path / "minimal.json"
    path.write_text(MINIMAL)
    dump_dir = tmp_path / "dump"
    assert cli_main(["run", str(path), "--dump", str(dump_dir)]) == 0
    capsys.readouterr()
    return dump_dir


def test_cli_verify_reports_torn_store_log_tail(tmp_path, capsys):
    dump_dir = _dump_minimal(tmp_path, capsys)
    log_path = dump_dir / "p1" / "store.log"
    text = log_path.read_text()
    log_path.write_text(text[:-1])  # the last line loses its newline
    assert cli_main(["verify", str(dump_dir)]) == 1
    assert f"p1: store.log line {text.count(chr(10))} torn" in capsys.readouterr().err.splitlines()


def _edit_json(name, edit):
    def apply(peer_dir):
        path = peer_dir / name
        data = json.loads(path.read_text())
        edit(data, peer_dir)
        path.write_text(json.dumps(data))
    return apply


def _directory_in_place_of(name):
    def apply(peer_dir):
        (peer_dir / name).unlink()
        (peer_dir / name).mkdir()
    return apply


def _head_on_trie_root(headers, peer_dir):
    roots = json.loads((peer_dir / "trie_roots.json").read_text())
    for bid_hex, header in headers.items():
        header["stable_head"] = roots[bid_hex]  # a record in the store that is not a submit


def _head_on_garbage_trie(peer_dir):
    """Each head gains a child submit whose trie root names a stored record
    that is not a trie node."""
    store = MemoryStore()
    with open_log(str(peer_dir / "store.log")) as fh:
        for _, _, _, data, _ in read_log(fh):
            store.put(data)
    garbage = store.put(b"\xff garbage")
    headers = json.loads((peer_dir / "headers.json").read_text())
    for header in headers.values():
        head = ContentId.from_hex(header["stable_head"])
        child = Submit(head, "bad trie", garbage, SubmitTrace(), get_submit(store, head).timestamp)
        header["stable_head"] = store.put_object(child).hex
    with open_log(str(peer_dir / "store.log"), "w") as fh:
        write_log(fh, store)
    (peer_dir / "headers.json").write_text(json.dumps(headers))
    (peer_dir / "trie_roots.json").write_text(json.dumps({bid: garbage.hex for bid in headers}))


@pytest.mark.parametrize("edit, line", [
    (lambda d: (d / "headers.json").write_text("{not json"), "p1: headers.json is not a JSON object"),
    (lambda d: (d / "headers.json").write_text("[]"), "p1: headers.json is not a JSON object"),
    (lambda d: (d / "trie_roots.json").write_text("\xff"), "p1: trie_roots.json is not a JSON object"),
    (lambda d: (d / "trie_roots.json").write_text('"roots"'), "p1: trie_roots.json is not a JSON object"),
    (_edit_json("headers.json", lambda h, _: [e.pop("stable_head") for e in h.values()]),
     "header unreadable: stable_head: missing"),
    (_edit_json("headers.json", lambda h, _: [e.update(stable_head="zz" * 33) for e in h.values()]),
     "header unreadable: stable_head: non-hexadecimal number found in fromhex() arg at position 0"),
    (_edit_json("headers.json", lambda h, _: [e.update(stable_head="00") for e in h.values()]),
     "header unreadable: stable_head: content id hex must be 66 chars"),
    (_edit_json("headers.json", lambda h, _: [e.update(branch_token=5) for e in h.values()]),
     "header unreadable: branch_token: 'int' object is not iterable"),
    (_edit_json("headers.json", lambda h, _: [e.update(surplus=1) for e in h.values()]),
     "header unreadable: unknown field 'surplus'"),
    (_edit_json("headers.json", lambda h, _: [e["branch_config"]["acceptance_rule"].pop("kind") for e in h.values()]),
     "header unreadable: branch_config: acceptance_rule: kind: missing"),
    (_edit_json("headers.json", lambda h, _: [e["timestamp"].update(tick=-1) for e in h.values()]),
     "header unreadable: timestamp: tick must be a non-negative integer"),
    (_edit_json("headers.json", lambda h, _: [e.update(sprout_selection=[5]) for e in h.values()]),
     "header unreadable: sprout_selection: must be an object"),
    (_edit_json("headers.json", lambda h, _: [e["branch_config"].update(min_reviewers=-1) for e in h.values()]),
     "header unreadable: branch_config: min_reviewers must be a non-negative integer"),
    (_edit_json("headers.json", _head_on_trie_root), "fails: ['history-integrity']"),
    (_head_on_garbage_trie, "trie unreadable: truncated salted leaf record"),
    (_directory_in_place_of("store.log"), "p1: store.log unreadable: "),
    (_directory_in_place_of("headers.json"), "p1: headers.json unreadable: "),
    (_directory_in_place_of("trie_roots.json"), "p1: trie_roots.json unreadable: "),
], ids=["headers-not-json", "headers-list", "roots-not-utf8", "roots-string", "header-missing-key",
        "header-bad-hex", "header-short-id", "header-wrong-type", "header-unknown-key",
        "header-rule-without-kind", "header-negative-tick", "header-entry-not-object", "header-bad-config",
        "head-not-a-submit", "trie-root-garbage",
        "log-is-a-directory", "headers-is-a-directory", "roots-is-a-directory"])
def test_cli_verify_reports_bad_dump_file_in_one_line(tmp_path, capsys, edit, line):
    dump_dir = _dump_minimal(tmp_path, capsys)
    edit(dump_dir / "p1")
    assert cli_main(["verify", str(dump_dir)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1 and line in problems[0]


def _fig5a_probe(kind):
    with open(scenario_path("fig5a.json")) as fh:
        data = json.load(fh)
    if kind == "merge-without-pr":
        data["steps"] = data["steps"][:11]
        del data["steps"][10]["pr"]
    else:  # carol pushes to twigA before its gossip reaches her peer
        data["steps"] = data["steps"][:3] + [
            {"op": "submit", "branch": "twigA", "author": "carol", "payload": "early"}]
    return data


@pytest.mark.parametrize("kind, line", [
    ("merge-without-pr", "step 10: merge rejected: merging into a proper branch requires a pull request"),
    ("submit-before-gossip", "step 3: submit rejected: peer p3 lacks branch 'twigA'"),
])
def test_cli_step_the_engine_refuses_exits_2_naming_the_step(tmp_path, capsys, kind, line):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(_fig5a_probe(kind)))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"scenario error: {line}"]


def test_dump_and_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "minimal.json"
    path.write_text(MINIMAL)
    dump_dir = tmp_path / "dump"
    assert cli_main(["run", str(path), "--dump", str(dump_dir)]) == 0
    capsys.readouterr()
    assert cli_main(["verify", str(dump_dir)]) == 0
    capsys.readouterr()
    # dumped headers reload identically
    with open(dump_dir / "p1" / "headers.json") as fh:
        headers = json.load(fh)
    scenario = parse_scenario(MINIMAL)
    runner = Runner(scenario)
    runner.run()
    live = runner.world.peers["p1"].state.branches
    assert {bid.hex for bid in live} == set(headers)
    for bid, branch in live.items():
        assert branch.header_json() == headers[bid.hex]


def test_verify_catches_corruption(tmp_path, capsys):
    path = tmp_path / "minimal.json"
    path.write_text(MINIMAL)
    dump_dir = tmp_path / "dump"
    assert cli_main(["run", str(path), "--dump", str(dump_dir)]) == 0
    capsys.readouterr()
    log_path = dump_dir / "p1" / "store.log"
    lines = log_path.read_text().splitlines()
    first_id, first_bytes = lines[0].split(" ", 1)
    flipped = format(int(first_bytes[:2], 16) ^ 1, "02x") + first_bytes[2:]
    lines[0] = f"{first_id} {flipped}"
    log_path.write_text("\n".join(lines) + "\n")
    assert cli_main(["verify", str(dump_dir)]) == 1
    capsys.readouterr()


def test_fresh_world_dump_is_minimal(tmp_path):
    scenario = parse_scenario(json.dumps({"sim": {"peers": ["p1"]}, "actors": [], "steps": []}))
    runner = Runner(scenario)
    runner.run()
    dump_state(runner.world, str(tmp_path / "fresh"))
    with open(tmp_path / "fresh" / "p1" / "headers.json") as fh:
        assert json.load(fh) == {}
    assert (tmp_path / "fresh" / "p1" / "store.log").read_text() == ""


def test_rerun_reproduces_transcript_hash():
    with open(scenario_path("fig5a.json")) as fh:
        text = fh.read()
    first = run(parse_scenario(text))
    second = run(parse_scenario(text))
    assert first.transcript_hash == second.transcript_hash
    assert first.ok and second.ok


def test_golden_transcripts_frozen():
    """Shipped scenarios reproduce the frozen transcript hashes exactly.
    Regenerate deliberately with scripts/freeze_golden.py after reviewing
    any behavior change."""
    golden_path = os.path.join(os.path.dirname(__file__), "golden", "transcripts.json")
    with open(golden_path) as fh:
        golden = json.load(fh)
    for name, expected in sorted(golden.items()):
        with open(scenario_path(f"{name}.json")) as fh:
            report = run(parse_scenario(fh.read()))
        assert report.ok
        assert report.transcript_hash == expected, f"{name} transcript drifted"


def test_golden_states_frozen():
    """Shipped scenarios end in the frozen final states: headers, records,
    decision log and assertions.  A change that only reorders events moves
    the transcript hashes but must leave these digests alone."""
    with open(os.path.join(os.path.dirname(__file__), "golden", "states.json")) as fh:
        golden = json.load(fh)
    assert sorted(golden) == ["fig5a", "fig5b"]
    for name, expected in sorted(golden.items()):
        with open(scenario_path(f"{name}.json")) as fh:
            runner = Runner(parse_scenario(fh.read()))
        report = runner.run()
        assert report.ok
        assert state_digest(runner.world, report.assertions) == expected, f"{name} final state drifted"


def test_seed_sweep_changes_hash_not_outcomes():
    import dataclasses

    with open(scenario_path("fig5a.json")) as fh:
        text = fh.read()
    hashes = set()
    for seed in (5, 6, 7):
        scenario = parse_scenario(text)
        scenario.sim = dataclasses.replace(scenario.sim, rng_seed=seed)
        report = run(scenario)
        assert report.ok, f"seed {seed}: {report.assertions}"
        hashes.add(report.transcript_hash)
    assert len(hashes) == 3


def test_merge_dump_diff_is_exactly_the_bucket_delta(tmp_path):
    """Dumps before and after a merge differ in the core trie by the belt delta."""
    base = {
        "sim": {"seed": 2, "latency": {"fixed": 1}, "peers": ["p1", "p2"]},
        "actors": [{"name": "ann", "peer": "p1"}, {"name": "ben", "peer": "p2"}],
        "steps": [
            {"op": "create_branch", "name": "core", "creator": "ann", "type": "twig",
             "config": {"stale_after_merge": False}},
            {"op": "submit", "branch": "core", "author": "ann", "payload": "core content"},
            {"op": "advance_ticks", "ticks": 2},
            {"op": "create_branch", "name": "belt", "creator": "ben", "type": "twig",
             "parent": "core"},
            {"op": "submit", "branch": "belt", "author": "ben", "payload": "belt content"},
            {"op": "advance_ticks", "ticks": 2},
        ],
    }
    with_merge = json.loads(json.dumps(base))
    with_merge["steps"] += [
        {"op": "merge", "core": "core", "belt": "belt", "author": "ann",
         "approvals": ["ann"]},
        {"op": "advance_ticks", "ticks": 2},
    ]

    def core_buckets(scenario_dict, dump_dir):
        runner = Runner(parse_scenario(json.dumps(scenario_dict)))
        runner.run()
        dump_state(runner.world, str(dump_dir))
        core_id = runner.branches["core"][0]
        belt_id = runner.branches["belt"][0]
        from lakat.store import MemoryStore
        from lakat.branch import branch_header_from_json, get_submit
        from lakat import trie as trie_mod

        store = MemoryStore()
        with open(dump_dir / "p1" / "store.log") as fh:
            for line in fh:
                _, hex_bytes = line.strip().split(" ", 1)
                store.put(bytes.fromhex(hex_bytes))
        with open(dump_dir / "p1" / "headers.json") as fh:
            headers = json.load(fh)
        def buckets(bid):
            branch = branch_header_from_json(headers[bid.hex])
            head = get_submit(store, branch.stable_head)
            return trie_mod.bucket_ids(trie_mod.Trie(head.trie_root, store))
        return buckets(core_id), buckets(belt_id)

    before_core, belt_set = core_buckets(base, tmp_path / "before")
    after_core, _ = core_buckets(with_merge, tmp_path / "after")
    assert after_core - before_core == belt_set - before_core
    assert after_core == before_core | belt_set
