"""Scenario parsing and execution: a JSON script drives the simulator.

Directives run on the acting peer's state, gossip flows between steps as
the script advances ticks, and `expect` directives assert on the resulting
world in-run.  Reports are byte-stable for a fixed scenario and seed.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field, fields, replace

from .codec import NULL_ID, CodecError, ContentId, LakatError
from .identity import KeyIdentity, make_contribution_proof
from .branch import (
    Branch,
    BranchConfig,
    BranchError,
    IntegrityError,
    PROPER,
    TWIG,
    Veto,
    Vote,
    branch_header_from_json,
    get_submit,
    submit_id,
    verify_branch,
)
from .lignify import lignify, register_veto, cast_vote, wrap_merge_in_sprout
from .ops import create_genesis_branch, create_rooted_branch, execute_merge, plan_merge
from .review import PullRequest, commit_review, create_pull_request, submit_review, twig_push
from .sim import SimConfig, World, route_request
from .state import ProtocolState, build_content_submit
from .store import MemoryStore, MissingRecord, open_log, read_log, write_log
from . import trie as trie_mod

# op -> {field: kind}; a field marked "?" may be left out.  A kind is a noun
# of NOUNS (a name declared by an earlier field; a "branch" may also name a
# sprout), "new <noun>" (declares the name), a kind of VALUES or CHOICES,
# "config" (an object whose keys are BranchConfig fields), or "<kind> list".
DIRECTIVES = {
    "create_branch": {"creator": "actor", "type": "branch type", "parent?": "branch", "config?": "config",
                      "token?": "hex", "name": "new branch"},
    "submit": {"branch": "branch", "author": "actor", "payload": "text", "message?": "text"},
    "pull_request": {"issuing": "branch", "requesting": "branch", "target": "branch", "author": "actor",
                     "name": "new pull request"},
    "commit_review": {"pr": "pull request", "reviewer": "actor"},
    "review": {"pr": "pull request", "reviewer": "actor", "verdict": "text", "text?": "text"},
    "merge": {"core": "branch", "belt": "branch", "author": "actor", "pr?": "pull request",
              "root_at?": "branch", "approvals?": "actor list", "as?": "new sprout"},
    "veto": {"core": "branch", "sprout": "sprout", "by": "actor"},
    "vote": {"core": "branch", "sprout": "sprout", "by": "actor"},
    "advance_ticks": {"ticks": "count"},
    "expect": {"that": "expectation"},
}
EXPECTATIONS = {  # expect kind -> the further fields it reads, as in DIRECTIVES
    "stable_head": {"branch": "branch", "equals_sprout_head": "sprout"},
    "branch_rooted": {"branch": "branch", "parent": "branch", "branch_type?": "text"},
    "headers_converged": {"branch": "branch"},
    "contributor": {"branch": "branch", "actor": "actor", "kind?": "contribution kind", "present?": "bool"},
    "bucket_count": {"branch": "branch", "equals": "count"},
    "branch_verifies": {"branch": "branch"},
    "quiescent": {},
}
SIM = {"seed?": "count", "peers?": "new peer list"}  # latency is read apart; schedule entries are SCHEDULE
SCHEDULE = {"tick": "count", "peer": "peer", "action": "schedule action"}
ACTOR = {"name": "new actor", "peer": "peer"}
NOUNS = ("peer", "actor", "branch", "pull request", "sprout")
VALUES = {  # kind -> (test, what a value must be); counts stay far inside the codec's 64-bit ticks
    "text": (lambda value: isinstance(value, str), "a string"),
    "bool": (lambda value: type(value) is bool, "true or false"),
    "count": (lambda value: type(value) is int and 0 <= value < 2**32, "a non-negative integer below 2**32"),
    "hex": (lambda value: isinstance(value, str) and re.fullmatch("(?:[0-9a-fA-F]{2})*", value), "hex"),
}
CHOICES = {
    "directive": tuple(DIRECTIVES),
    "expectation": tuple(EXPECTATIONS),
    "branch type": (TWIG, PROPER),
    "contribution kind": ("content", "review", "token", "storage"),
    "schedule action": ("join", "leave"),
}
CONFIG_FIELDS = {f.name for f in fields(BranchConfig)}
QUIESCENCE_TICKS = 100_000  # a run whose events reach past this many ticks is NonQuiescent


class ScenarioError(Exception):
    """Malformed scenario: unknown directive, undeclared name, bad field."""


@dataclass
class Scenario:
    sim: SimConfig
    peers: list
    actors: list  # (name, peer)
    steps: list


@dataclass
class RunReport:
    transcript_hash: str = ""
    headers: dict = field(default_factory=dict)
    decision_log: list = field(default_factory=list)
    assertions: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry["ok"] for entry in self.assertions)

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def parse_scenario(text: str) -> Scenario:
    """Check structure, field kinds and name discipline before anything runs."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    names = {noun: set() for noun in NOUNS}
    sim_spec = data.get("sim", {})
    _check_fields("sim", "sim", sim_spec, SIM, names)
    latency_spec = sim_spec.get("latency", {"fixed": 1})
    try:
        if "fixed" in latency_spec:
            latency = ("fixed", int(latency_spec["fixed"]))
        else:
            low, high = (int(bound) for bound in latency_spec["uniform"])
            latency = ("uniform", low, high)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ScenarioError("latency must be {'fixed': k} or {'uniform': [a, b]}") from None
    if latency[0] == "uniform" and low > high:
        raise ScenarioError(f"latency uniform [{low}, {high}] needs a <= b")
    schedule, actors, steps = sim_spec.get("schedule", []), data.get("actors", []), data.get("steps", [])
    for key, entries in (("schedule", schedule), ("actors", actors), ("steps", steps)):
        if not isinstance(entries, list):
            raise ScenarioError(f"{key} must be a list")
    for label, spec, entries in (("schedule", SCHEDULE, schedule), ("actor", ACTOR, actors)):
        for index, entry in enumerate(entries):
            _check_fields(f"{label} {index}", label, entry, spec, names)
    sim = SimConfig(sim_spec.get("seed", 0), latency, tuple((e["tick"], e["peer"], e["action"]) for e in schedule))
    for index, step in enumerate(steps):
        _check_fields(f"step {index}", "step", step, {"op": "directive"}, names)
        what = f"directive {step['op']!r}"
        _check_fields(f"step {index}", what, step, DIRECTIVES[step["op"]], names)
        if step["op"] == "expect":
            _check_fields(f"step {index}", what, step, EXPECTATIONS[step["that"]], names)
    actors = [(entry["name"], entry["peer"]) for entry in actors]
    return Scenario(sim, list(sim_spec.get("peers", [])), actors, steps)


def _check_fields(where: str, what: str, entry, spec: dict, names: dict):
    """Check that entry is an object holding each field of spec ({field:
    kind}) that is not marked optional, each field present of its kind."""
    if not isinstance(entry, dict):
        raise ScenarioError(f"{where}: must be an object")
    for field_name, kind in spec.items():
        key = field_name.removesuffix("?")
        if key in entry:
            _check_field(where, key, entry[key], kind, names)
        elif key == field_name:
            raise ScenarioError(f"{where}: {what} is missing field {key!r}")


def _check_field(where: str, key: str, value, kind: str, names: dict):
    """The one check of a field's kind; a "new <noun>" field declares its
    name in names, {noun: names declared so far}."""
    if kind.endswith(" list"):
        if not isinstance(value, list):
            raise ScenarioError(f"{where}: {key} must be a list")
        for item in value:
            _check_field(where, key, item, kind.removesuffix(" list"), names)
    elif kind in VALUES:
        test, must_be = VALUES[kind]
        if not test(value):
            raise ScenarioError(f"{where}: {key} must be {must_be}")
    elif kind == "config":
        if not isinstance(value, dict):
            raise ScenarioError(f"{where}: config must be an object")
        for name in value:
            if name not in CONFIG_FIELDS:
                raise ScenarioError(f"{where}: unknown config field {name!r}")
    elif not isinstance(value, str):
        raise ScenarioError(f"{where}: {key} must be a string")
    elif kind in CHOICES:
        if value not in CHOICES[kind]:
            raise ScenarioError(f"{where}: unknown {kind} {value!r}")
    elif kind.startswith("new "):
        noun = kind.removeprefix("new ")
        if value in names[noun]:
            raise ScenarioError(f"{where}: duplicate {noun} name {value!r}")
        names[noun].add(value)
    elif value not in names[kind] and not (kind == "branch" and value in names["sprout"]):
        raise ScenarioError(f"{where}: undeclared {kind} {value!r}")


class Runner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.world = World(scenario.sim, scenario.peers)
        self.actors: dict[str, tuple[KeyIdentity, str]] = {}
        for name, peer in scenario.actors:
            identity = KeyIdentity.from_seed(f"actor:{scenario.sim.rng_seed}:{name}".encode())
            self.actors[name] = (identity, peer)
            self.world.register_host(identity.public_key, peer)
        self.branches: dict[str, tuple[ContentId, str]] = {}  # name -> (id, home peer)
        self.prs: dict[str, PullRequest] = {}
        self.sprouts: dict[str, tuple[ContentId, ContentId]] = {}  # name -> (sprout id, merge submit)
        self.report = RunReport()

    # -- helpers -----------------------------------------------------------

    def _branch_id(self, name: str) -> ContentId:
        if name in self.branches:
            return self.branches[name][0]
        if name in self.sprouts:
            return self.sprouts[name][0]
        raise ScenarioError(f"unknown branch name {name!r}")

    def _sprout(self, name: str) -> tuple[ContentId, ContentId]:
        if name not in self.sprouts:
            raise ScenarioError(f"{name!r} names no wrapped sprout")
        return self.sprouts[name]

    def _state(self, peer_name: str):
        return self.world.peers[peer_name].state

    def _actor(self, name: str) -> tuple[KeyIdentity, str, ProtocolState]:
        """The actor's identity, the peer it acts on, and that peer's state."""
        identity, peer_name = self.actors[name]
        return identity, peer_name, self._state(peer_name)

    def _branch(self, peer_name: str, name: str) -> Branch:
        """The named branch as the peer holds it; a peer that has not yet
        received it is a scenario error, not an engine fault."""
        branch = self._state(peer_name).branches.get(self._branch_id(name))
        if branch is None:
            raise ScenarioError(f"peer {peer_name} lacks branch {name!r}")
        return branch

    def _pr(self, peer_name: str, name: str) -> PullRequest:
        """The named pull request, whose requesting branch the peer must hold."""
        pr = self.prs[name]
        if pr.requesting_branch not in self._state(peer_name).branches:
            raise ScenarioError(f"peer {peer_name} lacks the requesting branch of {name!r}")
        return pr

    def _done(self, peer_name: str, summary: str, route: tuple | None = None):
        """End a step: log the action, route its branch request, if any, to
        the branch's contributors, and flush the peer's gossip."""
        self.world.action(peer_name, summary)
        if route is not None:
            route_request(self.world, peer_name, *route)
        self.world.flush_gossip(peer_name)

    # -- directive execution -------------------------------------------------

    def run(self) -> RunReport:
        """Run every step, then drain the event queue.  A step the engine
        refuses ends the run with a ScenarioError naming the step."""
        world = self.world
        for index, step in enumerate(self.scenario.steps):
            op = step["op"]
            try:
                getattr(self, f"_op_{op}")(index, step)
            except (ScenarioError, LakatError) as exc:
                raise ScenarioError(f"step {index}: {op} rejected: {exc}") from exc
        world.run_until_quiescent(QUIESCENCE_TICKS)
        self.report.transcript_hash = world.transcript_hash()
        self.report.decision_log = list(world.decision_log)
        self.report.headers = {name: _header_map(peer.state) for name, peer in world.peers.items()}
        return self.report

    def _op_create_branch(self, index, step):
        creator, peer_name, state = self._actor(step["creator"])
        try:
            config = BranchConfig.from_json({**step.get("config", {}), "branch_type": step["type"]})
        except BranchError as exc:
            raise ScenarioError(f"config unreadable: {type(exc).__name__}: {exc}") from exc
        token = bytes.fromhex(step["token"]) if step.get("token") else None
        if step.get("parent") is None:
            branch = create_genesis_branch(state, config, creator, self.world.now(), token)
        else:
            parent = self._branch(peer_name, step["parent"])
            branch = create_rooted_branch(
                state, parent.stable_head, parent.branch_id, creator, self.world.now(), config
            )
        self.branches[step["name"]] = (branch.branch_id, peer_name)
        self._done(peer_name, f"create_branch {step['name']} {branch.branch_id.hex[:10]}",
                   (branch.branch_id, "branch_creation_broadcast", branch.branch_id.hex.encode()))

    def _op_submit(self, index, step):
        author, peer_name, state = self._actor(step["author"])
        branch = self._branch(peer_name, step["branch"])
        payload = step["payload"].encode()
        submit = build_content_submit(
            state, branch, author, step.get("message", "submit"), self.world.now(), [payload]
        )
        verdict, cid = twig_push(state, branch.branch_id, submit, author.public_key)
        if not verdict.ok:
            raise ScenarioError(verdict.code)
        state.add_proof(make_contribution_proof(author, branch.branch_id, "content", cid))
        self._done(peer_name, f"submit {step['branch']} {cid.hex[:10]}",
                   (branch.branch_id, "submit_requests", cid.hex.encode()))

    def _op_pull_request(self, index, step):
        author, peer_name, state = self._actor(step["author"])
        issuing = self._branch(peer_name, step["issuing"]).branch_id
        requesting, target = self._branch_id(step["requesting"]), self._branch_id(step["target"])
        pr, _ = create_pull_request(state, issuing, requesting, target, author, self.world.now())
        self.prs[step["name"]] = pr
        self._done(peer_name, f"pull_request {step['name']} {pr.review_container.hex[:10]}",
                   (target, "pull_requests", pr.review_container.hex.encode()))

    def _op_commit_review(self, index, step):
        reviewer, peer_name, state = self._actor(step["reviewer"])
        pr = self._pr(peer_name, step["pr"])
        # consume the routed notification if it is waiting in the channel
        state.requests_for(pr.target_branch).dequeue("pull_requests")
        verdict = commit_review(state, pr, reviewer, self.world.now())
        if not verdict.ok:
            raise ScenarioError(verdict.code)
        self._done(peer_name, f"commit_review {step['pr']} by {step['reviewer']}")

    def _op_review(self, index, step):
        reviewer, peer_name, state = self._actor(step["reviewer"])
        pr = self._pr(peer_name, step["pr"])
        text = step.get("text", "").encode()
        verdict, _ = submit_review(state, pr, reviewer, step["verdict"], text, self.world.now())
        if not verdict.ok:
            raise ScenarioError(verdict.code)
        self._done(peer_name, f"review {step['pr']} {step['verdict']} by {step['reviewer']}")

    def _op_merge(self, index, step):
        author, peer_name, state = self._actor(step["author"])
        core = self._branch(peer_name, step["core"])
        belt = self._branch(peer_name, step["belt"])
        pr = self._pr(peer_name, step["pr"]) if step.get("pr") else None
        root_at = self._branch(peer_name, step["root_at"]).branch_id if step.get("root_at") else core.branch_id
        approvals = None
        if step.get("approvals"):
            approvals = {self.actors[name][0].public_key for name in step["approvals"]}
        plan = plan_merge(state, core.branch_id, belt.branch_id, pr, root_at)
        merge_submit = execute_merge(state, plan, author, self.world.now(), approvals)
        cid = submit_id(merge_submit)
        summary = f"merge {step['belt']} into {step['core']} submit {cid.hex[:10]}"
        if core.branch_type == PROPER:
            wrap = wrap_merge_in_sprout(
                state, cid, author.public_key, belt.branch_id, root_at, self.world.now()
            )
            if step.get("as"):
                self.sprouts[step["as"]] = (wrap.sprout, cid)
            lines = lignify(state, core.branch_id, cid, now=self.world.now())
            self.world.decision_log.extend(lines)
            summary += f" sprout {wrap.sprout.hex[:10]}"
        self._done(peer_name, summary, (core.branch_id, "submit_requests", cid.hex.encode()))

    def _op_veto(self, index, step):
        self._signal(step, "veto", Veto, register_veto)

    def _op_vote(self, index, step):
        self._signal(step, "vote", Vote, cast_vote)

    def _signal(self, step, op: str, kind, apply):
        """Sign a veto or vote on the sprout and apply it to the core."""
        actor, peer_name, state = self._actor(step["by"])
        unsigned = kind(self._sprout(step["sprout"])[0], actor.public_key, self.world.tick, b"")
        signed = replace(unsigned, signature=actor.sign(unsigned.message()))
        verdict = apply(state, self._branch_id(step["core"]), signed, self.world.now())
        if not verdict.ok:
            raise ScenarioError(verdict.code)
        self._done(peer_name, f"{op} {step['sprout']} by {step['by']}")

    def _op_advance_ticks(self, index, step):
        self.world.run_until(self.world.tick + step["ticks"])

    def _op_expect(self, index, step):
        that = step["that"]
        ok, detail = self._evaluate_expect(step)
        self.report.assertions.append({"step": index, "that": that, "ok": ok, "detail": detail})

    def _evaluate_expect(self, step) -> tuple[bool, str]:
        that = step["that"]
        if that == "stable_head":
            _, branch = self._home(step["branch"])
            head, expected = branch.stable_head, self._sprout(step["equals_sprout_head"])[1]
            return head == expected, f"head={head.hex[:12]} expected={expected.hex[:12]}"
        if that == "branch_rooted":
            _, branch = self._home(step["branch"])
            parent_id = self._branch_id(step["parent"])
            ok = branch.parent_branch == parent_id and branch.branch_type == step.get("branch_type", PROPER)
            return ok, f"parent={branch.parent_branch.hex[:12]} type={branch.branch_type}"
        if that == "headers_converged":
            branch_id = self._branch_id(step["branch"])
            texts = set()
            for peer in self.world.peers.values():
                if not peer.online:
                    continue
                branch = peer.state.branches.get(branch_id)
                if branch is None:
                    return False, f"{peer.name} does not know the branch"
                texts.add(branch.header_text())
            return len(texts) == 1, f"{len(texts)} distinct headers"
        if that == "contributor":
            state, branch = self._home(step["branch"])
            identity, _ = self.actors[step["actor"]]
            present = state.is_contributor(branch.branch_id, identity.public_key, step.get("kind"))
            return present == step.get("present", True), f"present={present}"
        if that == "bucket_count":
            state, branch = self._home(step["branch"])
            head = get_submit(state.store, branch.stable_head)
            count = len(trie_mod.bucket_ids(trie_mod.Trie(head.trie_root, state.store)))
            return count == step["equals"], f"count={count}"
        if that == "branch_verifies":
            state, branch = self._home(step["branch"])
            verdict = verify_branch(branch, state.store)
            return verdict.ok, f"failures={verdict.codes()}"
        return not self.world.queue, f"queued={len(self.world.queue)}"  # quiescent

    def _home(self, name: str) -> tuple[ProtocolState, Branch]:
        """The named branch on its home peer, with that peer's state.  Sprouts
        live on the peer that wrapped them; they fall back to the first peer."""
        peer_name = self.branches[name][1] if name in self.branches else next(iter(self.world.peers))
        return self._state(peer_name), self._branch(peer_name, name)


def run(scenario: Scenario) -> RunReport:
    return Runner(scenario).run()


def _header_map(state: ProtocolState) -> dict:
    """A peer's branch headers as JSON, keyed by branch id hex."""
    return {bid.hex: state.branches[bid].header_json() for bid in sorted(state.branches)}


def dump_state(world: World, path: str):
    """Write branch headers, the record log, and trie roots per peer."""
    os.makedirs(path, exist_ok=True)
    for name, peer in world.peers.items():
        peer_dir = os.path.join(path, name)
        os.makedirs(peer_dir, exist_ok=True)
        with open(os.path.join(peer_dir, "headers.json"), "w") as fh:
            json.dump(_header_map(peer.state), fh, sort_keys=True, indent=1)
        with open_log(os.path.join(peer_dir, "store.log"), "w") as fh:
            write_log(fh, peer.state.store)
        roots = {}
        for bid in sorted(peer.state.branches):
            branch = peer.state.branches[bid]
            try:
                head = get_submit(peer.state.store, branch.stable_head)
                roots[bid.hex] = head.trie_root.hex
            except (MissingRecord, IntegrityError):
                roots[bid.hex] = None
        with open(os.path.join(peer_dir, "trie_roots.json"), "w") as fh:
            json.dump(roots, fh, sort_keys=True, indent=1)


def verify_dump(path: str) -> list[str]:
    """Re-check integrity of a dumped world; returns a list of problems."""
    if not os.path.isdir(path):
        return [f"not a dump directory: {path}"]
    problems = []
    for name in sorted(os.listdir(path)):
        peer_dir = os.path.join(path, name)
        if os.path.isdir(peer_dir):
            problems.extend(f"{name}: {problem}" for problem in _verify_peer(peer_dir))
    return problems


def _verify_peer(peer_dir: str) -> list[str]:
    problems = []
    store = MemoryStore()
    try:
        with open_log(os.path.join(peer_dir, "store.log")) as fh:
            for line_no, _, cid, data, problem in read_log(fh):
                if problem is not None:
                    problems.append(f"store.log line {line_no} {problem}")
                if data is not None:
                    store.put(data, cid)
    except FileNotFoundError:
        pass  # an absent log is an empty store
    except OSError as exc:  # no records to check the headers against
        problems.append(f"store.log unreadable: {exc.strerror}")
        return problems
    headers, roots = (_json_object(peer_dir, name, problems) for name in ("headers.json", "trie_roots.json"))
    read = set()  # trie nodes loaded with their whole subtree
    for bid_hex, header in headers.items():
        label = f"branch {bid_hex[:12]}"
        try:
            branch = branch_header_from_json(header)
        except BranchError as exc:
            problems.append(f"{label} header unreadable: {exc}")
            continue
        try:
            verdict = verify_branch(branch, store)  # shared history is checked once per peer
            if not verdict.ok:
                problems.append(f"{label} fails: {verdict.codes()}")
            expected_root = roots.get(bid_hex)
            if expected_root and branch.stable_head in store.verified:  # else the verdict failed it
                head = get_submit(store, branch.stable_head)
                if head.trie_root.hex != expected_root:
                    problems.append(f"{label} trie root mismatch")
                else:
                    try:
                        _read_trie(store, head.trie_root, read)
                    except (trie_mod.TrieError, CodecError) as exc:
                        problems.append(f"{label} trie unreadable: {exc}")
        except MissingRecord as exc:
            problems.append(f"{label} misses record {exc}")
    return problems


def _read_trie(store: MemoryStore, root: ContentId, read: set):
    """Load each node under root that is not in read, depth first in nibble order as trie.items
    does.  They join read only once all have loaded, so every trie reaching a bad node meets it."""
    seen, stack = set(), [root]
    while stack:
        node_id = stack.pop()
        if node_id not in read and node_id not in (None, NULL_ID):
            seen.add(node_id)
            node = trie_mod.load_node(store, node_id)
            stack.extend(reversed(node.children) if isinstance(node, trie_mod.TrieBranch)
                         else [node.child] if isinstance(node, trie_mod.TrieExtension) else [])
    read |= seen


def _json_object(peer_dir: str, name: str, problems: list[str]) -> dict:
    """The object in a dump's JSON file: {} if the file is absent, and {}
    plus a problem line if it cannot be read or holds anything else."""
    try:
        with open(os.path.join(peer_dir, name)) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    except OSError as exc:
        problems.append(f"{name} unreadable: {exc.strerror}")
        return {}
    except ValueError:  # not JSON, or not UTF-8
        data = None
    if not isinstance(data, dict):
        problems.append(f"{name} is not a JSON object")
        return {}
    return data
