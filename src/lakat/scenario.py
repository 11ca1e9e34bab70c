"""Scenario parsing and execution: a JSON script drives the simulator.

Directives run on the acting peer's state, gossip flows between steps as
the script advances ticks, and `expect` directives assert on the resulting
world in-run.  Reports are byte-stable for a fixed scenario and seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

from .codec import CodecError, ContentId
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
from .bucket import BucketError
from .lignify import LignificationError, lignify, register_veto, cast_vote, wrap_merge_in_sprout
from .ops import BranchOpError, create_genesis_branch, create_rooted_branch, execute_merge, plan_merge
from .review import AuthorizationError, PullRequest, commit_review, create_pull_request, submit_review, twig_push
from .sim import SimConfig, World, route_request
from .state import ProtocolState, build_content_submit
from .store import MemoryStore, MissingRecord, StoreError, open_log, read_log, write_log
from . import trie as trie_mod

DIRECTIVES = (
    "create_branch",
    "submit",
    "pull_request",
    "commit_review",
    "review",
    "merge",
    "veto",
    "vote",
    "advance_ticks",
    "expect",
)
EXPECTATIONS = {  # expect kind -> the fields it reads
    "stable_head": ("branch", "equals_sprout_head"),
    "branch_rooted": ("branch", "parent"),
    "headers_converged": ("branch",),
    "contributor": ("branch", "actor"),
    "bucket_count": ("branch", "equals"),
    "branch_verifies": ("branch",),
    "quiescent": (),
}
CONFIG_FIELDS = {f.name for f in fields(BranchConfig)}
QUIESCENCE_TICKS = 100_000  # a run whose events reach past this many ticks is NonQuiescent
# what the engine raises when it refuses a step; Runner.run names the step
ENGINE_ERRORS = (BranchOpError, LignificationError, AuthorizationError, BranchError, BucketError,
                 StoreError, trie_mod.TrieError, CodecError)
# what reading a branch header or config from JSON raises when it is malformed
HEADER_ERRORS = (KeyError, TypeError, ValueError, AttributeError, CodecError)


class ScenarioError(Exception):
    """Malformed scenario: unknown directive, undeclared name, bad field."""


@dataclass
class Scenario:
    sim: SimConfig
    peers: list
    actors: list  # (name, peer)
    steps: list
    source: dict


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


def _need(step: dict, index: int, *keys):
    for key in keys:
        if key not in step:
            raise ScenarioError(f"step {index}: directive {step.get('op')!r} is missing field {key!r}")


def parse_scenario(text: str) -> Scenario:
    """Validate structure and name discipline before anything runs."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    sim_spec = data.get("sim", {})
    peers = list(sim_spec.get("peers", []))
    if len(set(peers)) != len(peers):
        raise ScenarioError("duplicate peer names")
    latency_spec = sim_spec.get("latency", {"fixed": 1})
    try:
        if "fixed" in latency_spec:
            latency = ("fixed", int(latency_spec["fixed"]))
        else:
            low, high = (int(bound) for bound in latency_spec["uniform"])
            latency = ("uniform", low, high)
    except (KeyError, TypeError, ValueError):
        raise ScenarioError("latency must be {'fixed': k} or {'uniform': [a, b]}") from None
    if latency[0] == "uniform" and low > high:
        raise ScenarioError(f"latency uniform [{low}, {high}] needs a <= b")
    schedule = tuple(
        (int(item["tick"]), item["peer"], item["action"]) for item in sim_spec.get("schedule", ())
    )
    for _, peer, action in schedule:
        if peer not in peers:
            raise ScenarioError(f"schedule references undeclared peer {peer!r}")
        if action not in ("join", "leave"):
            raise ScenarioError(f"schedule action must be join or leave, not {action!r}")
    sim = SimConfig(int(sim_spec.get("seed", 0)), latency, schedule)
    actors = []
    actor_names = set()
    actor_entries = data.get("actors", [])
    if not isinstance(actor_entries, list):
        raise ScenarioError("actors must be a list")
    for index, entry in enumerate(actor_entries):
        if not isinstance(entry, dict):
            raise ScenarioError(f"actor {index}: must be an object with name and peer")
        for key in ("name", "peer"):
            if not isinstance(entry.get(key), str):
                raise ScenarioError(f"actor {index}: {key!r} must be a string")
        name, peer = entry["name"], entry["peer"]
        if peer not in peers:
            raise ScenarioError(f"actor {name!r} assigned to undeclared peer {peer!r}")
        if name in actor_names:
            raise ScenarioError(f"duplicate actor {name!r}")
        actor_names.add(name)
        actors.append((name, peer))
    steps = data.get("steps", [])
    branch_names, pr_names, sprout_names = set(), set(), set()

    def check_actor(step, index, key="author"):
        if step[key] not in actor_names:
            raise ScenarioError(f"step {index}: undeclared actor {step[key]!r}")

    def check_branch(step, index, key):
        if step[key] not in branch_names and step[key] not in sprout_names:
            raise ScenarioError(f"step {index}: undeclared branch {step[key]!r}")

    for index, step in enumerate(steps):
        if not isinstance(step, dict):
            raise ScenarioError(f"step {index}: must be an object with an op")
        op = step.get("op")
        if op not in DIRECTIVES:
            raise ScenarioError(f"step {index}: unknown directive {op!r}")
        if op == "create_branch":
            _need(step, index, "name", "creator", "type")
            check_actor(step, index, "creator")
            if step["type"] not in (TWIG, PROPER):
                raise ScenarioError(f"step {index}: branch type must be twig or proper")
            config = step.get("config", {})
            if not isinstance(config, dict):
                raise ScenarioError(f"step {index}: config must be an object")
            for key in config:
                if key not in CONFIG_FIELDS:
                    raise ScenarioError(f"step {index}: unknown config field {key!r}")
            if step.get("parent") is not None:
                check_branch(step, index, "parent")
            if step["name"] in branch_names:
                raise ScenarioError(f"step {index}: duplicate branch name {step['name']!r}")
            branch_names.add(step["name"])
        elif op == "submit":
            _need(step, index, "branch", "author", "payload")
            check_actor(step, index)
            check_branch(step, index, "branch")
        elif op == "pull_request":
            _need(step, index, "name", "issuing", "requesting", "target", "author")
            check_actor(step, index)
            for key in ("issuing", "requesting", "target"):
                check_branch(step, index, key)
            if step["name"] in pr_names:
                raise ScenarioError(f"step {index}: duplicate pull request name {step['name']!r}")
            pr_names.add(step["name"])
        elif op == "commit_review":
            _need(step, index, "pr", "reviewer")
            check_actor(step, index, "reviewer")
            if step["pr"] not in pr_names:
                raise ScenarioError(f"step {index}: undeclared pull request {step['pr']!r}")
        elif op == "review":
            _need(step, index, "pr", "reviewer", "verdict")
            check_actor(step, index, "reviewer")
            if step["pr"] not in pr_names:
                raise ScenarioError(f"step {index}: undeclared pull request {step['pr']!r}")
        elif op == "merge":
            _need(step, index, "core", "belt", "author")
            check_actor(step, index)
            check_branch(step, index, "core")
            check_branch(step, index, "belt")
            if step.get("pr") is not None and step["pr"] not in pr_names:
                raise ScenarioError(f"step {index}: undeclared pull request {step['pr']!r}")
            if step.get("root_at") is not None:
                check_branch(step, index, "root_at")
            for approver in step.get("approvals", ()):
                if approver not in actor_names:
                    raise ScenarioError(f"step {index}: undeclared actor {approver!r}")
            if step.get("as"):
                if step["as"] in sprout_names:
                    raise ScenarioError(f"step {index}: duplicate sprout name {step['as']!r}")
                sprout_names.add(step["as"])
        elif op in ("veto", "vote"):
            _need(step, index, "core", "sprout", "by")
            check_actor(step, index, "by")
            check_branch(step, index, "core")
            if step["sprout"] not in sprout_names:
                raise ScenarioError(f"step {index}: undeclared sprout {step['sprout']!r}")
        elif op == "advance_ticks":
            _need(step, index, "ticks")
            if type(step["ticks"]) is not int or step["ticks"] < 0:
                raise ScenarioError(f"step {index}: ticks must be a non-negative integer")
        elif op == "expect":
            _need(step, index, "that")
            if not isinstance(step["that"], str) or step["that"] not in EXPECTATIONS:
                raise ScenarioError(f"step {index}: unknown expectation {step['that']!r}")
            _need(step, index, *EXPECTATIONS[step["that"]])
    return Scenario(sim, peers, actors, steps, data)


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
            except (ScenarioError, *ENGINE_ERRORS) as exc:
                raise ScenarioError(f"step {index}: {op} rejected: {exc}") from exc
        world.run_until_quiescent(QUIESCENCE_TICKS)
        self.report.transcript_hash = world.transcript_hash()
        self.report.decision_log = list(world.decision_log)
        headers = {}
        for peer_name, peer in world.peers.items():
            headers[peer_name] = {
                bid.hex: peer.state.branches[bid].header_json()
                for bid in sorted(peer.state.branches)
            }
        self.report.headers = headers
        return self.report

    def _op_create_branch(self, index, step):
        creator, peer_name, state = self._actor(step["creator"])
        overrides = dict(step.get("config", {}))
        overrides["branch_type"] = step["type"]
        base = BranchConfig().to_json()
        base.update(overrides)
        try:
            config = BranchConfig.from_json(base)
        except HEADER_ERRORS as exc:
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
        pr = self.prs[step["pr"]]
        # consume the routed notification if it is waiting in the channel
        state.requests_for(pr.target_branch).dequeue("pull_requests")
        verdict = commit_review(state, pr, reviewer, self.world.now())
        if not verdict.ok:
            raise ScenarioError(verdict.code)
        self._done(peer_name, f"commit_review {step['pr']} by {step['reviewer']}")

    def _op_review(self, index, step):
        reviewer, peer_name, state = self._actor(step["reviewer"])
        pr = self.prs[step["pr"]]
        text = step.get("text", "").encode()
        verdict, _ = submit_review(state, pr, reviewer, step["verdict"], text, self.world.now())
        if not verdict.ok:
            raise ScenarioError(verdict.code)
        self._done(peer_name, f"review {step['pr']} {step['verdict']} by {step['reviewer']}")

    def _op_merge(self, index, step):
        author, peer_name, state = self._actor(step["author"])
        core = self._branch(peer_name, step["core"])
        belt = self._branch(peer_name, step["belt"])
        pr = self.prs[step["pr"]] if step.get("pr") else None
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
            present = state.contributors(branch.branch_id).has(identity.public_key, step.get("kind"))
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


def dump_state(world: World, path: str):
    """Write branch headers, the record log, and trie roots per peer."""
    os.makedirs(path, exist_ok=True)
    for name, peer in world.peers.items():
        peer_dir = os.path.join(path, name)
        os.makedirs(peer_dir, exist_ok=True)
        headers = {
            bid.hex: peer.state.branches[bid].header_json()
            for bid in sorted(peer.state.branches)
        }
        with open(os.path.join(peer_dir, "headers.json"), "w") as fh:
            json.dump(headers, fh, sort_keys=True, indent=1)
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
    if os.path.exists(os.path.join(peer_dir, "store.log")):
        with open_log(os.path.join(peer_dir, "store.log")) as fh:
            for line_no, _, data, problem in read_log(fh):
                if problem is not None:
                    problems.append(f"store.log line {line_no} {problem}")
                if data is not None:
                    store.put(data)
    headers, roots = (_json_object(peer_dir, name, problems) for name in ("headers.json", "trie_roots.json"))
    readable = set()  # trie roots read in full
    for bid_hex, header in headers.items():
        label = f"branch {bid_hex[:12]}"
        try:
            branch = branch_header_from_json(header)
        except HEADER_ERRORS as exc:
            problems.append(f"{label} header unreadable: {type(exc).__name__}")
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
                elif head.trie_root not in readable:
                    try:
                        trie_mod.items(trie_mod.Trie(head.trie_root, store))  # must be fully readable
                    except (trie_mod.TrieError, CodecError) as exc:
                        problems.append(f"{label} trie unreadable: {exc}")
                    else:
                        readable.add(head.trie_root)
        except MissingRecord as exc:
            problems.append(f"{label} misses record {exc}")
    return problems


def _json_object(peer_dir: str, name: str, problems: list[str]) -> dict:
    """The object in a dump's JSON file: {} if the file is absent, and {}
    plus a problem line if it holds anything else."""
    if not os.path.exists(os.path.join(peer_dir, name)):
        return {}
    try:
        with open(os.path.join(peer_dir, name)) as fh:
            data = json.load(fh)
    except ValueError:  # not JSON, or not UTF-8
        data = None
    if not isinstance(data, dict):
        problems.append(f"{name} is not a JSON object")
        return {}
    return data
