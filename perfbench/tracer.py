"""Span tracer that lives in the benchmark, not in the engine.

``Tracer.install`` wraps the public functions of each traced ``lakat``
module, plus a few hot methods, and rebinds every module-level name that
refers to an original function: the defining module, every ``lakat``
module that imported it with ``from .x import f``, and the workload
modules.  Spans are recorded only inside calls measured by ``Meter.time``
once the timed phase has armed the tracer, so set-up, the fixed-work
verifications before the timed phase and the benchmark's own checks are
never traced.  Each wrapped call is one span with a parent (the enclosing
span); a layer's self time is its span time minus the time of its child
spans.  Counts are recorded at the same boundaries.  Spans are aggregated as they
close into per-name call counts and per-(parent, child) edges, which
``write`` saves as the trace file.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# The benchmark runs one thread, so its thread CPU clock is the process's
# CPU time; the process clock reads coarsely once the probe timer is armed.
clock = time.thread_time

LAYERS = ("codec", "identity", "store", "bucket", "trie", "branch", "state", "review", "ops",
          "lignify", "sim", "scenario")
METHODS = {
    "identity": {"KeyIdentity": ("sign",), "ContributionProof": ("verify",)},
    "store": {"Store": ("put_object", "get_object"), "MemoryStore": ("put", "get", "has", "ids"),
              "FileStore": ("put", "get", "has")},
    "branch": {"Branch": ("header_json", "header_text", "fingerprint")},
    "state": {"ProtocolState": ("contributors", "append_submit", "add_proof", "add_branch")},
    "sim": {"World": ("step", "run_until", "run_until_quiescent", "flush_gossip", "action", "emit")},
    "scenario": {"Runner": ("run",)},
}
WORKLOAD_MODULES = ("fuzz", "library", "contest")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.armed = False  # the traced part of the run has begun
        self.active = False  # inside a measured call of that part
        self.stack: list = []  # open spans: [name, time of closed child spans]
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.open: Counter = Counter()  # name -> spans of that name now open
        self.inclusive: dict = defaultdict(float)  # name -> time of its outermost spans
        self.self_time: dict = defaultdict(float)  # layer -> self time
        self.encode_bytes = 0
        self.payload_bytes = 0
        self.decisions = 0
        self.decode_hits = 0
        self.window = 0.0  # raw CPU seconds of the traced measured calls

    # -- window --------------------------------------------------------------

    def arm(self):
        """Trace every measured call from now on (the timed phase and the
        end of the run)."""
        self.armed = self.enabled

    @contextlib.contextmanager
    def measured(self):
        """Trace one measured call, if armed and not already inside one, and
        add its raw CPU time to the window."""
        if not self.armed or self.active:
            yield
            return
        self.active = True
        start = clock()
        try:
            yield
        finally:
            self.window += clock() - start
            self.active = False

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer, stack = self, self.stack
        calls, edges, open_, inclusive, self_time = (self.calls, self.edges, self.open,
                                                     self.inclusive, self.self_time)
        after = _AFTER.get(name)
        decode_name = "codec.canonical_decode"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] += 1
            decodes = calls[decode_name]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_[name] -= 1
                calls[name] += 1
                self_time[layer] += elapsed - frame[1]
                if not open_[name]:
                    inclusive[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(tracer, result, calls[decode_name] == decodes)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self):
        if not self.enabled:
            return
        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"lakat.{layer}"]
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    replaced[id(value)] = self._wrap(layer, f"{layer}.{attr}", value)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(layer, f"{layer}.{cls_name}.{method}", original))
        targets = [m for n, m in sys.modules.items()
                   if n == "lakat" or n.startswith("lakat.") or n in WORKLOAD_MODULES]
        for module in targets:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        c, inc, own = self.calls, self.inclusive, self.self_time
        get_objects = c["store.Store.get_object"]
        values = {
            "codec.encode_calls": (c["codec.canonical_encode"], "count"),
            "codec.encode_bytes": (self.encode_bytes, "B"),
            "codec.decode_calls": (c["codec.canonical_decode"], "count"),
            "identity.sign_calls": (c["identity.KeyIdentity.sign"], "count"),
            "identity.verify_calls": (c["identity.verify_signature"], "count"),
            "store.put_calls": (c["store.MemoryStore.put"] + c["store.FileStore.put"], "count"),
            "store.get_calls": (c["store.MemoryStore.get"] + c["store.FileStore.get"], "count"),
            "store.decode_hit_ratio": (self.decode_hits / get_objects if get_objects else 0.0, "ratio"),
            "bucket.create_calls": (c["bucket.create_atomic_bucket"] + c["bucket.create_molecular_bucket"],
                                    "count"),
            "bucket.membership_checks": (c["bucket.check_context_membership"], "count"),
            "trie.insert_calls": (c["trie.insert"], "count"),
            "trie.get_calls": (c["trie.get"], "count"),
            "trie.enumerate_calls": (c["trie.items"], "count"),
            "trie.nodes_loaded": (c["trie.load_node"], "count"),
            "branch.closure_calls": (c["branch.included_submits"], "count"),
            "branch.derive_contributors_calls": (c["branch.derive_contributors"], "count"),
            "branch.verify_calls": (c["branch.verify_branch"], "count"),
            "state.contributors_calls": (c["state.ProtocolState.contributors"], "count"),
            "state.contributors_s": (inc["state.ProtocolState.contributors"], "s"),
            "state.append_calls": (c["state.ProtocolState.append_submit"], "count"),
            "review.calls": (sum(n for name, n in c.items() if name.startswith("review.")), "count"),
            "ops.plan_merge_s": (inc["ops.plan_merge"], "s"),
            "ops.execute_merge_s": (inc["ops.execute_merge"], "s"),
            "lignify.walk_calls": (c["lignify.lignify"], "count"),
            "lignify.decisions": (self.decisions, "count"),
            "sim.gossip_payloads": (c["sim.build_gossip_payload"], "count"),
            "sim.gossip_payload_bytes": (self.payload_bytes, "B"),
            "sim.gossip_records_shipped": (self.edges[("sim.build_gossip_payload", "store.MemoryStore.get")],
                                           "count"),
            "sim.adopt_header_calls": (c["sim.adopt_header"], "count"),
            "sim.receive_gossip_s": (inc["sim.receive_gossip"], "s"),
            "scenario.dump_s": (inc["scenario.dump_state"], "s"),
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = (own[layer], "s")
        return values

    def write(self, path: str):
        graph = [{"parent": parent, "child": child, "calls": n}
                 for (parent, child), n in sorted(self.edges.items(), key=lambda kv: -kv[1])]
        data = {
            "window_s": self.window,
            "self_s": dict(self.self_time),
            "inclusive_s": dict(self.inclusive),
            "calls": dict(self.calls),
            "edges": graph,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)


def _after_encode(tracer, result, _):
    tracer.encode_bytes += len(result)


def _after_payload(tracer, result, _):
    tracer.payload_bytes += len(result)


def _after_walk(tracer, result, _):
    tracer.decisions += len(result)


def _after_get_object(tracer, _, no_decode):
    tracer.decode_hits += no_decode


_AFTER = {
    "codec.canonical_encode": _after_encode,
    "sim.build_gossip_payload": _after_payload,
    "lignify.lignify": _after_walk,
    "store.Store.get_object": _after_get_object,
}
