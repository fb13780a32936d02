"""Bounded model checking of the cluster notification protocol.

The :class:`~repro.cluster.protocol.NotificationRouter` promises
exactly-once ``on_clear`` per successor under message drop, duplication,
delay and node crash.  Its unit tests exercise chosen schedules; this
module checks the promise *exhaustively* at small scope: every
interleaving of wire deliveries, timer firings, adversarial drops /
duplicates and node crashes for a bounded scenario (2–3 nodes, 2–4
messages, a bounded fault budget) is explored, and each reached state is
checked against four safety/liveness properties:

* **SAN-P001** — ``on_clear`` fired more often than the protocol's
  release opportunities allow (a legitimate re-open — a fresh send after
  a clear — raises the allowance by one),
* **SAN-P002** — deadlock: the system quiesced (no wire traffic, no
  live timers, nothing left to send) with a successor that was notified
  but never released,
* **SAN-P003** — epoch-fencing violation: a wire message from a crashed
  sender incarnation was logically applied,
* **SAN-P004** — premature release: ``on_clear`` fired before every
  distinct logical notification for that successor had been delivered
  (the broken-dedup signature: one duplicated message counted twice).

The checker drives the **real router** — not a re-model of it — through
a fake runtime harness (deterministic engine, transfer engine that
parks messages on a wire list, recording trace).  Exploration is
breadth-first search over action sequences: each frontier entry keeps
its live state, a child is a clone of its parent plus one action, and
canonical state fingerprints prune the search.  Violations come back
with the full action trace rendered as an ASCII message sequence
diagram.

``NotificationRetryExceededError`` is a *loud* failure (the run aborts
with a diagnosis), so paths that exhaust the retransmit budget count as
aborted, not as violations.
"""

from __future__ import annotations

import itertools
import types
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.cluster.protocol import (
    ClusterStats,
    NotificationRetryExceededError,
    NotificationRouter,
    ProtocolConfig,
    _Message,
)
from repro.runtime.gcpause import CyclicGCPause
from repro.sanitizer.diagnostics import Diagnostic

#: ordering of property codes in reports
PROPERTY_CODES = ("SAN-P001", "SAN-P002", "SAN-P003", "SAN-P004")


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One bounded configuration of the protocol to explore."""

    name: str
    n_nodes: int
    #: logical notifications: (src_node, dst_node, successor uid)
    sends: tuple[tuple[int, int, int], ...]
    config: ProtocolConfig = field(default_factory=ProtocolConfig)
    #: adversary budgets
    max_drops: int = 1
    max_dups: int = 1
    max_crashes: int = 0
    #: nodes the adversary may crash (default: all)
    crashable: Optional[tuple[int, ...]] = None
    #: issue sends as explorable actions (True) or all up front (False)
    interleave_sends: bool = True
    #: exploration cap; hitting it marks the result ``truncated``
    max_states: int = 400_000

    def crash_candidates(self) -> tuple[int, ...]:
        if self.crashable is not None:
            return self.crashable
        return tuple(range(self.n_nodes))


def default_scenarios(*, small: bool = False) -> list[Scenario]:
    """The shipped verification suite.

    ``small`` keeps only the quick scenarios (used by the CLI's
    pre-flight); the full list is what CI runs.
    """
    fast = ProtocolConfig(reliable=True, max_retransmits=2)
    scenarios = [
        # one edge, lossy+duplicating wire: the core exactly-once story
        Scenario(
            name="one-edge-lossy",
            n_nodes=2,
            sends=((0, 1, 7),),
            config=fast,
            max_drops=2, max_dups=1,
        ),
        # two predecessors, one successor: counting + re-open semantics
        Scenario(
            name="two-preds-one-succ",
            n_nodes=3,
            sends=((0, 2, 9), (1, 2, 9)),
            config=fast,
            max_drops=1, max_dups=1,
        ),
    ]
    if not small:
        scenarios += [
            # sender crash mid-flight: epoch fencing + crash recovery
            Scenario(
                name="sender-crash-recovery",
                n_nodes=2,
                sends=((0, 1, 7),),
                config=fast,
                max_drops=1, max_dups=0, max_crashes=1,
                crashable=(0,),
            ),
            # the acceptance scope: 3 nodes, 3 messages, <=1 crash
            Scenario(
                name="three-node-crash",
                n_nodes=3,
                sends=((0, 2, 9), (1, 2, 9), (0, 1, 5)),
                config=ProtocolConfig(reliable=True, max_retransmits=1),
                max_drops=1, max_dups=0, max_crashes=1,
                crashable=(0,),
            ),
        ]
    return scenarios


def ablation_scenario() -> Scenario:
    """``reliable=False`` fire-and-forget: one drop deadlocks a successor."""
    return Scenario(
        name="unreliable-ablation",
        n_nodes=2,
        sends=((0, 1, 7),),
        config=ProtocolConfig(reliable=False),
        max_drops=1, max_dups=0,
    )


# ----------------------------------------------------------------------
# Fake runtime harness
# ----------------------------------------------------------------------
class _FakeEvent:
    __slots__ = ("eid", "time", "fn", "kind", "label", "cancelled", "key")

    def __init__(self, eid: int, time: float, fn: Callable[[], None],
                 kind: object, label: str) -> None:
        self.eid = eid
        self.time = time
        self.fn = fn
        self.kind = kind
        self.label = label
        self.cancelled = False
        #: what the state fingerprint records of a live event
        self.key = (str(kind), label)

    def cancel(self) -> None:
        self.cancelled = True

    def clone(self, memo: dict) -> "_FakeEvent":
        new = object.__new__(_FakeEvent)
        memo[id(self)] = new  # before the callback: it may point back here
        new.eid = self.eid
        new.time = self.time
        new.fn = _remap(self.fn, memo)
        new.kind = self.kind
        new.label = self.label
        new.cancelled = self.cancelled
        new.key = self.key
        return new


class _FakeEngine:
    """Deterministic event registry: the *adversary* decides firing order."""

    def __init__(self) -> None:
        self.now = 0.0
        self.next_id = 1
        self.events: dict[int, _FakeEvent] = {}

    def schedule(self, time: float, fn: Callable[[], None], *,
                 kind: object = None, label: str = "") -> _FakeEvent:
        ev = _FakeEvent(self.next_id, time, fn, kind, label)
        self.next_id += 1
        self.events[ev.eid] = ev
        return ev

    def clone(self, memo: dict) -> "_FakeEngine":
        """Copy holding the live events (cancelled ones can never fire)."""
        new = _FakeEngine()
        new.now = self.now
        new.next_id = self.next_id
        new.events = {
            eid: _remap(ev, memo)
            for eid, ev in self.events.items() if not ev.cancelled
        }
        return new

    def live_events(self) -> list[_FakeEvent]:
        return [e for e in self.events.values() if not e.cancelled]

    def fire(self, eid: int) -> None:
        ev = self.events.pop(eid)
        self.now = max(self.now, ev.time)
        if not ev.cancelled:
            ev.fn()


class _WireMessage:
    __slots__ = ("wid", "src_host", "dst_host", "nbytes", "label", "meta",
                 "category", "on_deliver", "dups_used")

    def __init__(self, wid: int, src_host: str, dst_host: str, nbytes: int,
                 label: str, meta: tuple, category: str,
                 on_deliver: Optional[Callable[[], None]]) -> None:
        self.wid = wid
        self.src_host = src_host
        self.dst_host = dst_host
        self.nbytes = nbytes
        self.label = label
        self.meta = meta
        self.category = category
        self.on_deliver = on_deliver
        self.dups_used = 0

    def key(self) -> tuple:
        return (self.category, self.src_host, self.dst_host, self.label,
                self.meta, self.dups_used)

    def clone(self, memo: dict) -> "_WireMessage":
        new = _WireMessage(self.wid, self.src_host, self.dst_host,
                           self.nbytes, self.label, self.meta, self.category,
                           _remap(self.on_deliver, memo))
        new.dups_used = self.dups_used
        return new


class _FakeTransferEngine:
    """Parks every message on a wire list; the adversary delivers/drops."""

    WIRE_LATENCY = 1.0

    def __init__(self, engine: _FakeEngine) -> None:
        self.engine = engine
        self.next_id = 1
        self.wire: dict[int, _WireMessage] = {}

    def send_message(self, src_host: str, dst_host: str, nbytes: int, *,
                     label: str = "", meta: tuple = (), category: str = "msg",
                     on_deliver: Optional[Callable[[], None]] = None) -> float:
        msg = _WireMessage(self.next_id, src_host, dst_host, nbytes,
                           label, tuple(meta), category, on_deliver)
        self.next_id += 1
        self.wire[msg.wid] = msg
        return self.engine.now + self.WIRE_LATENCY

    def clone(self, engine: _FakeEngine, memo: dict) -> "_FakeTransferEngine":
        new = _FakeTransferEngine(engine)
        new.next_id = self.next_id
        new.wire = {wid: m.clone(memo) for wid, m in self.wire.items()}
        return new


class _FakeTrace:
    def __init__(self) -> None:
        self.records: list[tuple[str, str]] = []

    def add(self, start: float, end: float, worker: str = "",
            category: str = "", label: str = "", meta: tuple = ()) -> None:
        self.records.append((category, label))


class _FakeRuntime:
    def __init__(self) -> None:
        self.engine = _FakeEngine()
        self.transfer_engine = _FakeTransferEngine(self.engine)
        self.trace = _FakeTrace()
        self._local_ids: dict[int, int] = {}

    def clone(self, memo: dict) -> "_FakeRuntime":
        new = _shallow(self)
        memo[id(self)] = new
        new.engine = self.engine.clone(memo)
        new.transfer_engine = self.transfer_engine.clone(new.engine, memo)
        new.trace = _FakeTrace()
        new.trace.records = list(self.trace.records)
        return new


_T = TypeVar("_T")


def _shallow(obj: _T) -> _T:
    """``copy.copy`` for a plain instance, without the reduce protocol."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__)
    return new


def _remap(obj: Any, memo: dict) -> Any:
    """``obj`` as seen from a clone of the harness.

    ``memo`` maps ``id()`` of an original object to its copy.  Router
    messages and fake events are copied on first sight, and closures
    (the router's wire and timer callbacks) are rebuilt over remapped
    captured objects; anything else is shared (immutable in practice).
    """
    new = memo.get(id(obj))
    if new is not None:
        return new
    cls = type(obj)
    if cls is types.FunctionType:
        closure = obj.__closure__
        defaults = obj.__defaults__
        if closure is None and defaults is None:
            return obj
        if closure is not None:
            closure = tuple([
                types.CellType(v) for v in _remap_each(
                    [cell.cell_contents for cell in closure], memo)
            ])
        if defaults is not None:
            defaults = tuple(_remap_each(defaults, memo))
        new = types.FunctionType(obj.__code__, obj.__globals__,
                                 obj.__name__, defaults, closure)
    elif cls is _Message:
        new = _shallow(obj)
        memo[id(obj)] = new
        if obj.timer is not None:
            new.timer = _remap(obj.timer, memo)
        return new
    elif cls is _FakeEvent:
        return obj.clone(memo)
    else:
        return obj
    memo[id(obj)] = new
    return new


_ATOMIC = frozenset((int, float, str, bool, type(None)))


def _remap_each(values: Sequence, memo: dict) -> list:
    """``[_remap(v, memo) for v in values]``, short-cutting the common
    cases (already copied, or an immutable scalar)."""
    out = []
    for old in values:
        new = memo.get(id(old))
        if new is None:
            new = old if type(old) in _ATOMIC else _remap(old, memo)
        out.append(new)
    return out


# ----------------------------------------------------------------------
# Timeline events (structured; rendered by render_msc)
# ----------------------------------------------------------------------
#: ("msg",   src_node, dst_node, text)  — an arrow in the diagram
#: ("note",  node, text)                — annotation at one lifeline
#: ("global", text)                     — full-width annotation
TimelineEvent = tuple


@dataclass
class Violation:
    code: str
    detail: str
    scenario: str
    path: tuple
    timeline: tuple
    n_nodes: int

    def render(self) -> str:
        msc = render_msc(self.timeline, self.n_nodes)
        return (
            f"{self.detail}\n"
            f"counterexample in scenario {self.scenario!r} "
            f"({len(self.path)} steps):\n{msc}"
        )


@dataclass
class ExplorationResult:
    scenario: Scenario
    states: int
    violations: list[Violation]
    aborted_paths: int
    truncated: bool

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated


#: the instance attributes of a router that :meth:`_Harness.clone`
#: knows how to copy; a router holding any other state is refused
_ROUTER_ATTRS = frozenset({
    "rt", "stats", "message_bytes", "config", "host_of_node",
    "_pending", "_cleared", "_next_seq", "_inflight", "_received",
    "_recv_floor", "_epoch", "diagnostics", "_msg_ids",
    # installed by the harness
    "on_clear", "resolve_node", "_deliver_logical", "_on_wire_delivered",
})


class _Harness:
    """One live instance of a scenario driving the real router."""

    def __init__(
        self,
        scenario: Scenario,
        router_factory: Optional[Callable[..., NotificationRouter]] = None,
    ) -> None:
        self.scenario = scenario
        self.rt = _FakeRuntime()
        self.stats = ClusterStats(n_nodes=scenario.n_nodes)
        factory = router_factory or NotificationRouter
        self.router = factory(self.rt, self.stats, config=scenario.config)
        self.hosts = {i: f"n{i}" for i in range(scenario.n_nodes)}
        self.node_of_host = {h: i for i, h in self.hosts.items()}
        self.router.host_of_node = dict(self.hosts)
        self.placement: dict[int, int] = {
            uid: dst for _, dst, uid in scenario.sends
        }

        self.sends_used = [False] * len(scenario.sends)
        self.drops_left = scenario.max_drops
        self.dups_left = scenario.max_dups
        self.crashes_left = scenario.max_crashes
        self.crashed: set[int] = set()

        self.sends_issued: dict[int, int] = {}
        self.delivered: dict[int, set] = {}
        self.clears: dict[int, int] = {}
        self.opportunities: dict[int, int] = {}

        self.timeline: list[TimelineEvent] = []
        self.violations: list[Violation] = []
        self.aborted = False

        self._install_spies()
        unknown = set(vars(self.router)) - _ROUTER_ATTRS
        if unknown:
            raise TypeError(
                f"{type(self.router).__name__} holds state the model "
                f"checker cannot clone: {sorted(unknown)}")
        if not scenario.interleave_sends:
            for k in range(len(scenario.sends)):
                self._do_send(k)

    # -- property spies -------------------------------------------------
    def _install_spies(self) -> None:
        # instance attributes shadow the router's class methods
        router = self.router
        router._deliver_logical = self._deliver_spy
        router._on_wire_delivered = self._wire_spy
        router.on_clear = self._clear_spy
        router.resolve_node = self._resolve_node

    def _resolve_node(self, uid: int) -> int:
        return self.placement.get(uid, 0)

    def _deliver_spy(self, msg) -> None:
        router = self.router
        uid = msg.succ_uid
        before = router.pending(uid)
        self.delivered.setdefault(uid, set()).add((msg.src_node, msg.seq))
        self._note(
            self.placement.get(uid, msg.dst_node),
            f"apply uid={uid} seq={msg.seq} (pending {before})",
        )
        type(router)._deliver_logical(router, msg)

    def _wire_spy(self, msg, dst_node: int) -> None:
        router = self.router
        stale = router.epoch(msg.src_node) != msg.epoch
        seen = {k: set(v) for k, v in self.delivered.items()}
        type(router)._on_wire_delivered(router, msg, dst_node)
        if stale:
            applied = any(
                v - seen.get(k, set()) for k, v in self.delivered.items()
            )
            if applied:
                self._violate(
                    "SAN-P003",
                    f"stale-epoch message applied: node {msg.src_node} "
                    f"seq {msg.seq} was sent in epoch {msg.epoch} but "
                    f"the node is now at epoch "
                    f"{router.epoch(msg.src_node)}",
                )

    def _clear_spy(self, uid: int) -> None:
        self.clears[uid] = self.clears.get(uid, 0) + 1
        self._note(
            self.placement.get(uid, 0),
            f"on_clear uid={uid} (release #{self.clears[uid]})",
        )
        if self.clears[uid] > self.opportunities.get(uid, 0):
            self._violate(
                "SAN-P001",
                f"on_clear fired {self.clears[uid]} times for "
                f"successor uid={uid} with only "
                f"{self.opportunities.get(uid, 0)} release "
                "opportunities (double release)",
            )
        issued = self.sends_issued.get(uid, 0)
        distinct = len(self.delivered.get(uid, ()))
        if distinct < issued:
            self._violate(
                "SAN-P004",
                f"on_clear fired for successor uid={uid} after only "
                f"{distinct} of {issued} distinct notifications were "
                "delivered (premature release)",
            )

    # -- cloning --------------------------------------------------------
    def clone(self) -> "_Harness":
        """An independent copy of this state, one ``apply`` away from a
        child — the same state a replay of this harness's path builds."""
        new = _shallow(self)
        r = self.router
        nr = _shallow(r)
        memo: dict = {id(self): new, id(r): nr}
        new.rt = nr.rt = self.rt.clone(memo)
        new.stats = nr.stats = _shallow(self.stats)
        new.router = nr
        nr._pending = dict(r._pending)
        nr._cleared = set(r._cleared)
        nr._next_seq = dict(r._next_seq)
        nr._inflight = {
            mid: _remap(m, memo) for mid, m in r._inflight.items()
        }
        nr._received = {k: set(v) for k, v in r._received.items()}
        nr._recv_floor = dict(r._recv_floor)
        nr._epoch = dict(r._epoch)
        nr.diagnostics = list(r.diagnostics)
        # an itertools.count cannot be read without advancing it: take
        # the next id and restart both counters there
        next_mid = next(r._msg_ids)
        r._msg_ids = itertools.count(next_mid)
        nr._msg_ids = itertools.count(next_mid)
        new._install_spies()

        new.placement = dict(self.placement)
        new.sends_used = list(self.sends_used)
        new.crashed = set(self.crashed)
        new.sends_issued = dict(self.sends_issued)
        new.delivered = {k: set(v) for k, v in self.delivered.items()}
        new.clears = dict(self.clears)
        new.opportunities = dict(self.opportunities)
        new.timeline = list(self.timeline)
        new.violations = list(self.violations)
        return new

    def dispose(self) -> None:
        """Break this state's reference cycles (router <-> spies, router
        <-> its callbacks, message <-> its timer) so that refcounting
        frees it at once; the harness is unusable afterwards."""
        for ev in self.rt.engine.events.values():
            ev.fn = None
        self.router.__dict__.clear()

    # -- timeline helpers ----------------------------------------------
    def _note(self, node: int, text: str) -> None:
        self.timeline.append(("note", node, text))

    def _violate(self, code: str, detail: str) -> None:
        self.timeline.append(("global", f"VIOLATION {code}: {detail}"))
        self.violations.append(Violation(
            code=code,
            detail=detail,
            scenario=self.scenario.name,
            path=(),
            timeline=tuple(self.timeline),
            n_nodes=self.scenario.n_nodes,
        ))

    # -- actions --------------------------------------------------------
    def enabled(self) -> list[tuple]:
        acts: list[tuple] = []
        for k, used in enumerate(self.sends_used):
            if not used:
                acts.append(("send", k))
        for wid in self.rt.transfer_engine.wire:
            acts.append(("deliver", wid))
        if self.drops_left > 0:
            for wid in self.rt.transfer_engine.wire:
                acts.append(("drop", wid))
        if self.dups_left > 0:
            for wid, msg in self.rt.transfer_engine.wire.items():
                if msg.dups_used == 0:
                    acts.append(("dup", wid))
        for ev in self.rt.engine.live_events():
            acts.append(("fire", ev.eid))
        if self.crashes_left > 0:
            for node in self.scenario.crash_candidates():
                if node not in self.crashed:
                    acts.append(("crash", node))
        return acts

    def apply(self, action: tuple) -> None:
        kind = action[0]
        try:
            if kind == "send":
                self._do_send(action[1])
            elif kind == "deliver":
                msg = self.rt.transfer_engine.wire.pop(action[1])
                self._arrow(msg, "deliver")
                if msg.on_deliver is not None:
                    msg.on_deliver()
            elif kind == "drop":
                msg = self.rt.transfer_engine.wire.pop(action[1])
                self.drops_left -= 1
                self._arrow(msg, "DROP")
            elif kind == "dup":
                msg = self.rt.transfer_engine.wire[action[1]]
                msg.dups_used = 1
                self.dups_left -= 1
                self._arrow(msg, "duplicate")
                if msg.on_deliver is not None:
                    msg.on_deliver()
            elif kind == "fire":
                ev = self.rt.engine.events[action[1]]
                self._note(self._event_node(ev), f"timer: {ev.label}")
                self.rt.engine.fire(action[1])
            elif kind == "crash":
                self._do_crash(action[1])
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown action {action!r}")
        except NotificationRetryExceededError as exc:
            self.aborted = True
            self.timeline.append(
                ("global", f"ABORT (loud): {exc}"))

    def _do_send(self, k: int) -> None:
        src, dst, uid = self.scenario.sends[k]
        self.sends_used[k] = True
        self.sends_issued[uid] = self.sends_issued.get(uid, 0) + 1
        if self.clears.get(uid, 0) >= self.opportunities.get(uid, 0):
            # a send after (or before) a clear opens a release window
            self.opportunities[uid] = self.opportunities.get(uid, 0) + 1
        self.timeline.append(
            ("msg", src, dst, f"send uid={uid}"))
        self.router.send(src, dst, uid, label=f"e{k}")

    def _do_crash(self, node: int) -> None:
        self.crashes_left -= 1
        self.crashed.add(node)
        old = self.router.epoch(node)
        # in-flight traffic TO the dead node goes down with its NIC;
        # traffic FROM it stays on the wire (epoch fencing's job)
        lost = [
            wid for wid, m in self.rt.transfer_engine.wire.items()
            if self.node_of_host.get(m.dst_host) == node
        ]
        for wid in lost:
            msg = self.rt.transfer_engine.wire.pop(wid)
            self._arrow(msg, "LOST-IN-CRASH")
        # successors homed on the dead node are evacuated
        for uid, nd in list(self.placement.items()):
            if nd == node:
                self.placement[uid] = self._next_live(node)
        self.timeline.append(
            ("global", f"node {node} crashes (epoch {old} -> {old + 1})"))
        self.router.node_down(node)

    def _next_live(self, dead: int) -> int:
        for off in range(1, self.scenario.n_nodes):
            cand = (dead + off) % self.scenario.n_nodes
            if cand not in self.crashed:
                return cand
        return dead  # pragma: no cover - all nodes dead

    def _event_node(self, ev: _FakeEvent) -> int:
        label = ev.label or ""
        for node, host in self.hosts.items():
            if host in label:
                return node
        return 0

    def _arrow(self, msg: _WireMessage, verb: str) -> None:
        src = self.node_of_host.get(msg.src_host, 0)
        dst = self.node_of_host.get(msg.dst_host, 0)
        meta = f" seq={msg.meta[1]}" if len(msg.meta) > 1 else ""
        self.timeline.append(
            ("msg", src, dst, f"{verb} {msg.category} {msg.label}{meta}"))

    # -- quiescence -----------------------------------------------------
    def check_quiescent(self) -> None:
        """Terminal-state liveness check (SAN-P002)."""
        for uid, issued in sorted(self.sends_issued.items()):
            if issued > 0 and self.clears.get(uid, 0) == 0:
                self._violate(
                    "SAN-P002",
                    f"quiescent state with successor uid={uid} never "
                    f"released: {issued} notification(s) sent, "
                    f"{self.router.pending(uid)} still pending, no wire "
                    "traffic or timers left to make progress",
                )

    # -- canonical state ------------------------------------------------
    def fingerprint(self) -> tuple:
        r = self.router
        wire = tuple(sorted(
            m.key() for m in self.rt.transfer_engine.wire.values()
        ))
        events = tuple(sorted(
            e.key for e in self.rt.engine.events.values() if not e.cancelled
        ))
        inflight = tuple(sorted(
            (m.src_node, m.seq, m.attempts, m.acked, m.abandoned,
             m.timer is not None)
            for m in r._inflight.values()
        ))
        router_state = (
            tuple(sorted(r._pending.items())),
            tuple(sorted(r._cleared)),
            tuple(sorted(r._next_seq.items())),
            tuple(sorted(r._epoch.items())),
            tuple(sorted(r._recv_floor.items())),
            tuple(sorted(
                (k, tuple(sorted(v))) for k, v in r._received.items())),
            inflight,
        )
        harness_state = (
            tuple(self.sends_used),
            self.drops_left,
            self.dups_left,
            self.crashes_left,
            tuple(sorted(self.crashed)),
            tuple(sorted(self.placement.items())),
            tuple(sorted(self.clears.items())),
            tuple(sorted(self.opportunities.items())),
            tuple(sorted(
                (k, tuple(sorted(v))) for k, v in self.delivered.items())),
        )
        return (wire, events, router_state, harness_state)


# ----------------------------------------------------------------------
# Explorer
# ----------------------------------------------------------------------
def explore(
    scenario: Scenario,
    router_factory: Optional[Callable[..., NotificationRouter]] = None,
) -> ExplorationResult:
    """Exhaustive small-scope exploration of one scenario.

    Breadth-first over action sequences with canonical-state pruning,
    so the first counterexample found per property is (close to)
    minimal.  Paths that already violated a property or aborted are not
    expanded further.  A frontier entry holds its state next to its
    path: each child is a clone of its parent plus one action, and the
    last child takes over the parent's state.
    """
    violations: dict[str, Violation] = {}
    states = 0
    aborted = 0
    truncated = False

    root = _Harness(scenario, router_factory)
    visited = {root.fingerprint()}
    frontier: deque = deque([((), root)])

    # every state is disposed once expanded (see _Harness.dispose), so
    # the search leaves no cyclic garbage for the collector to find
    with CyclicGCPause():
        while frontier:
            if states >= scenario.max_states:
                truncated = True
                break
            path, h = frontier.popleft()
            states += 1
            if h.violations:
                for v in h.violations:
                    if v.code not in violations:
                        violations[v.code] = replace(v, path=path)
                h.dispose()
                continue
            if h.aborted:
                aborted += 1
                h.dispose()
                continue
            acts = h.enabled()
            if not acts:
                h.check_quiescent()
                for v in h.violations:
                    if v.code not in violations:
                        violations[v.code] = replace(v, path=path)
                h.dispose()
                continue
            last = len(acts) - 1
            for i, action in enumerate(acts):
                child = path + (action,)
                ch = h if i == last else h.clone()
                ch.apply(action)
                fp = ch.fingerprint()
                if fp not in visited:
                    visited.add(fp)
                    frontier.append((child, ch))
                    continue
                if ch.violations:
                    # violations are not part of the fingerprint, so a
                    # violating child may collide with a state seen
                    # before; still must surface the violation
                    for v in ch.violations:
                        if v.code not in violations:
                            violations[v.code] = replace(v, path=child)
                ch.dispose()
        for _, h in frontier:  # left over when truncated
            h.dispose()

    ordered = [violations[c] for c in PROPERTY_CODES if c in violations]
    return ExplorationResult(
        scenario=scenario,
        states=states,
        violations=ordered,
        aborted_paths=aborted,
        truncated=truncated,
    )


# ----------------------------------------------------------------------
# Message sequence diagram rendering
# ----------------------------------------------------------------------
_COL_WIDTH = 30


def render_msc(timeline: Sequence[TimelineEvent], n_nodes: int) -> str:
    """Render a timeline as an ASCII message sequence diagram."""
    width = _COL_WIDTH
    centers = [i * width + width // 2 for i in range(n_nodes)]
    total = n_nodes * width

    def pillars() -> list[str]:
        row = [" "] * total
        for c in centers:
            row[c] = "|"
        return row

    lines = []
    header = [" "] * total
    for i, c in enumerate(centers):
        name = f"node{i}"
        start = max(0, c - len(name) // 2)
        header[start:start + len(name)] = name
    lines.append("".join(header).rstrip())

    step = 0
    for entry in timeline:
        kind = entry[0]
        step += 1
        prefix = f"{step:3d}. "
        if kind == "global":
            text = entry[1]
            lines.append(f"{prefix}== {text} ==")
            continue
        row = pillars()
        if kind == "msg":
            _, src, dst, text = entry
            a, b = centers[src], centers[dst]
            if a == b:
                _place(row, a + 2, f"({text})")
            else:
                lo, hi = (a, b) if a < b else (b, a)
                for x in range(lo + 1, hi):
                    row[x] = "-"
                row[b - 1 if a < b else b + 1] = ">" if a < b else "<"
                _place_centered(row, (lo + hi) // 2, f" {text} ")
        else:  # note
            _, node, text = entry
            _place(row, centers[node] + 2, text)
        lines.append(prefix + "".join(row).rstrip())
    return "\n".join(lines)


def _place(row: list[str], start: int, text: str) -> None:
    end = start + len(text)
    if end > len(row):  # annotations may run past the last lifeline
        row.extend(" " * (end - len(row)))
    for i, ch in enumerate(text):
        pos = start + i
        if pos >= 0:
            row[pos] = ch


def _place_centered(row: list[str], center: int, text: str) -> None:
    _place(row, center - len(text) // 2, text)


# ----------------------------------------------------------------------
# Diagnostic entry point
# ----------------------------------------------------------------------
def check_protocol(
    scenarios: Optional[Sequence[Scenario]] = None,
    *,
    router_factory: Optional[Callable[..., NotificationRouter]] = None,
    small: bool = False,
) -> list[Diagnostic]:
    """Run the verification suite; violations become SAN-P diagnostics."""
    if scenarios is None:
        scenarios = default_scenarios(small=small)
    out: list[Diagnostic] = []
    for scenario in scenarios:
        result = explore(scenario, router_factory)
        for v in result.violations:
            out.append(Diagnostic(
                code=v.code,
                message=v.render(),
                file=None,
                region=f"scenario:{scenario.name}",
            ))
        if result.truncated:
            out.append(Diagnostic(
                code="SAN-P002",
                message=(
                    f"scenario {scenario.name!r} exploration truncated at "
                    f"{result.states} states (max_states="
                    f"{scenario.max_states}); verification is incomplete "
                    "— shrink the scenario or raise the cap"
                ),
                region=f"scenario:{scenario.name}",
            ))
    return out
