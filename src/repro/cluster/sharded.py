"""Sharded cluster scheduling: one scheduler instance per node.

The :class:`ShardedClusterScheduler` partitions the dependence graph
across the nodes of a ``cluster_machine`` (see
:mod:`repro.cluster.partition`), runs one *inner* scheduler per node —
any registered policy; per-node versioning instances learn their own
profile tables — and turns cross-shard dependence edges into the
notification protocol of :mod:`repro.cluster.protocol`:

* at submit, each task is assigned a shard (its in-edges are already
  recorded, so the partitioner sees the full dependence context);
* when a predecessor finishes, every cross-shard successor's node gets
  one notification message, and the edge's data (RAW edges) is pushed
  toward the successor's host memory, overlapped with scheduling;
* a task that becomes ready is handed to its node's inner scheduler
  only once all its notifications are delivered — the data itself may
  still be in flight (worker start waits on input copies, so local
  dispatch overlaps remote transfers);
* idle nodes steal ready tasks from the shard with the deepest ready
  pool; a stolen task is re-costed by the thief's own scheduler (its
  profile tables, its busy estimates).

Outside a cluster machine (one node) the whole layer degenerates to a
thin pass-through around a single inner scheduler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.partition import PartitionPolicy, make_partitioner
from repro.cluster.protocol import (
    NOTIFY_BYTES,
    ClusterStats,
    NotificationRouter,
    ProtocolConfig,
)
from repro.runtime.dependences import DepKind
from repro.runtime.task import TaskInstance, TaskVersion
from repro.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.profile import VersionProfileTable
    from repro.runtime.runtime import OmpSsRuntime
    from repro.runtime.worker import Worker


class NodeRuntimeView:
    """The runtime as seen by one node's inner scheduler.

    Everything delegates to the real runtime except ``workers``, which
    is restricted to the node's own devices — an inner scheduler can
    only place work on its shard's node.  ``engine`` and ``dispatch``,
    read on every pass of the inner schedulers' pumps, are bound once
    here (the runtime never rebinds them) instead of going through
    ``__getattr__``.
    """

    def __init__(self, rt: "OmpSsRuntime", workers: "list[Worker]") -> None:
        self._rt = rt
        self.workers = workers
        self.engine = rt.engine
        self.dispatch = rt.dispatch

    def __getattr__(self, name: str) -> Any:
        return getattr(self._rt, name)


class ShardedClusterScheduler(Scheduler):
    name = "cluster"
    supports_versions = True

    def __init__(
        self,
        *,
        inner: str = "versioning",
        inner_options: Optional[dict] = None,
        partition: str = "affinity",
        partition_options: Optional[dict] = None,
        steal: bool = True,
        steal_threshold: int = 2,
        message_bytes: int = NOTIFY_BYTES,
        protocol: "Optional[ProtocolConfig | dict]" = None,
    ) -> None:
        super().__init__()
        if steal_threshold < 1:
            raise ValueError("steal_threshold must be at least 1")
        if protocol is None:
            protocol = ProtocolConfig()
        elif isinstance(protocol, dict):
            protocol = ProtocolConfig(**protocol)
        self.protocol = protocol
        self.inner_name = inner
        self.inner_options = dict(inner_options or {})
        if inner in ("versioning", "ver", "versioning-locality", "ver-loc"):
            # late binding by default: bounded reliable-phase queues keep
            # per-node pools non-empty under backlog, so steals can happen
            self.inner_options.setdefault("reliable_queue_bound", 4)
        self.partition_name = partition
        self.partition_options = dict(partition_options or {})
        self.steal = steal
        self.steal_threshold = steal_threshold
        self.message_bytes = message_bytes

        self.stats = ClusterStats()
        self.inner: list[Scheduler] = []
        self.node_workers: dict[int, "list[Worker]"] = {}
        self.node_of_worker: dict[str, int] = {}
        self.shard_of: dict[int, int] = {}
        self.partitioner: Optional[PartitionPolicy] = None
        self.router: Optional[NotificationRouter] = None
        self._buffered: dict[int, TaskInstance] = {}
        self._released: set[int] = set()
        self._stealing = False
        self._dead_nodes: set[int] = set()
        self.layout = None
        # capability caching: node -> kind bitmask of its live workers,
        # and task definition -> capable-node tuple.  Both are pure
        # functions of worker liveness, rebuilt lazily after it changes —
        # capability scans were a top frame of the 16-node profile.  The
        # kind masks are a runtime liveness cache, cleared where an
        # ``alive`` flag flips (before any requeued task reaches
        # task_ready); the capable-node tuples are cleared by the
        # liveness hooks (worker_down/up, node_down/up).
        self._alive_kinds: dict[int, int] = {}
        self._capable_cache: dict[object, tuple[int, ...]] = {}
        # per-node bound pool_size methods (see _refresh_pool_fns)
        self._pool_fns: list = []
        # sorted node ids, rebuilt alongside the pool fns: the steal
        # scan re-sorted the node map on every lifecycle hook
        self._sorted_nodes: list[int] = []
        # a steal may be possible away from the hooked node (_steal_due)
        self._steal_dirty = False

    # ------------------------------------------------------------------
    def bind(self, runtime: "OmpSsRuntime") -> None:
        from repro.schedulers.registry import create_scheduler  # avoid cycle

        super().bind(runtime)
        layout = runtime.machine.cluster_layout()
        self.layout = layout
        self.n_nodes = layout.n_nodes
        self.stats.n_nodes = self.n_nodes
        if self.n_nodes > 1:
            runtime.enable_node_topology(layout)
        self.node_workers = {n: [] for n in layout.nodes()}
        for w in runtime.workers:
            node = layout.node_of_device.get(w.device.name, 0)
            self.node_workers[node].append(w)
            self.node_of_worker[w.name] = node
        self.inner = []
        for node in layout.nodes():
            sched = create_scheduler(self.inner_name, **self.inner_options)
            sched.bind(NodeRuntimeView(runtime, self.node_workers[node]))
            self.inner.append(sched)
        self._refresh_pool_fns()
        self.partitioner = make_partitioner(
            self.partition_name, self.n_nodes, **self.partition_options
        )
        self.router = NotificationRouter(
            runtime, self.stats, message_bytes=self.message_bytes,
            config=self.protocol,
        )
        self.router.on_clear = self._notifications_cleared
        self.router.host_of_node = dict(layout.host_of_node)
        self.router.resolve_node = lambda uid: self.shard_of.get(uid, 0)
        self.stats.tasks_per_node = {n: 0 for n in layout.nodes()}
        self._alive_kinds.clear()
        runtime.liveness_caches.append(self._alive_kinds)

    # ------------------------------------------------------------------
    # Shard assignment
    # ------------------------------------------------------------------
    def _liveness_changed(self) -> None:
        """Invalidate the capable-node cache (a worker died/revived or a
        node crashed/rejoined); the next steal check must scan."""
        self._capable_cache.clear()
        self._steal_dirty = True

    def _node_alive_kinds(self, node: int) -> int:
        """Kind bitmask of the node's live workers, non-zero iff one is
        alive (cached until an ``alive`` flag flips)."""
        kinds = self._alive_kinds.get(node)
        if kinds is None:
            kinds = 0
            for w in self.node_workers[node]:
                if w.alive:
                    kinds |= w.device.kind.mask
            self._alive_kinds[node] = kinds
        return kinds

    def _capable_nodes(self, t: TaskInstance) -> tuple[int, ...]:
        """Nodes with a live worker able to run some version of ``t``.

        A node qualifies iff the union of the definition's version
        device kinds intersects the node's live-worker kinds — the same
        predicate as scanning versions × workers, computed as one
        integer AND of kind bitmasks and memoized per task definition
        until the next liveness change.
        """
        cached = self._capable_cache.get(t.definition)
        if cached is not None:
            return cached
        union = t.definition.device_kind_mask
        out = []
        for node in sorted(self.node_workers):
            if node in self._dead_nodes:
                # crash in progress: the hook runs before the node's
                # workers are torn down, so check this explicitly
                continue
            if union & self._node_alive_kinds(node):
                out.append(node)
        if not out:
            raise RuntimeError(
                f"no node of this cluster can run any version of task {t.name!r}"
            )
        cached = self._capable_cache[t.definition] = tuple(out)
        return cached

    def task_submitted(self, t: TaskInstance) -> None:
        assert self.rt is not None and self.partitioner is not None
        if self.n_nodes == 1:
            self.shard_of[t.uid] = 0
            self.stats.tasks_per_node[0] = self.stats.tasks_per_node.get(0, 0) + 1
            return
        seq = self.rt._local_ids.get(t.uid, t.uid)
        allowed = self._capable_nodes(t)
        node = self.partitioner.assign(t, seq, allowed, self.stats.tasks_per_node)
        self.shard_of[t.uid] = node
        self.stats.tasks_per_node[node] = self.stats.tasks_per_node.get(node, 0) + 1
        self.partitioner.note_assigned(t, node)
        # classify this task's in-edges; predecessors that already
        # finished will never pass through task_finished again, so their
        # cross-shard notifications are sent right now
        for edge in self.rt.graph.in_edges(t.uid):
            pred_node = self.shard_of.get(edge.src)
            if pred_node is None or pred_node == node:
                self.stats.local_edges += 1
                continue
            self.stats.cross_edges += 1
            if edge.src not in self.rt.graph._unfinished:
                self._notify_edge(edge, pred_node, node)

    # ------------------------------------------------------------------
    # Notification protocol
    # ------------------------------------------------------------------
    def _notify_edge(self, edge, pred_node: int, succ_node: int) -> None:
        assert self.rt is not None and self.router is not None and self.layout
        dst_host = self.layout.host_of_node[succ_node]
        succ = self.rt.graph.task(edge.dst)
        # run-local label: task labels embed the process-global uid,
        # which would make otherwise-identical runs produce different
        # traces (the seeded-determinism contract)
        self.router.send(pred_node, succ_node, edge.dst, succ.name)
        if edge.kind is DepKind.RAW:
            # push the produced region toward the consuming shard's host
            # overlapped with scheduling (the consumer's worker-space
            # fetch chains off this staging copy if it is still in flight)
            _, issued = self.rt.push_region(edge.region, dst_host)
            if issued:
                self.stats.pushes += 1
                self.stats.push_bytes += edge.region.nbytes

    def _notifications_cleared(self, uid: int) -> None:
        t = self._buffered.pop(uid, None)
        if t is not None:
            self._release(t, self._live_node_for(t, self.shard_of[t.uid]))

    # ------------------------------------------------------------------
    # Runtime hooks
    # ------------------------------------------------------------------
    def task_ready(self, t: TaskInstance) -> None:
        node = self.shard_of.get(t.uid)
        if node is None:  # pragma: no cover - defensive
            node = 0
            self.shard_of[t.uid] = node
        if self.router is not None and self.router.pending(t.uid) > 0:
            self._buffered[t.uid] = t
            return
        self._release(t, self._live_node_for(t, node))

    def _live_node_for(self, t: TaskInstance, node: int) -> int:
        """The shard's node — unless it lost every worker since the
        assignment, in which case the task is re-homed to the least
        loaded capable node.  Covers the window where a dying worker's
        requeued tasks arrive at ``task_ready`` before the runtime
        invokes the ``worker_down`` hook that evacuates the node, and
        buffered tasks whose node died while their notifications were
        still in flight."""
        if self.n_nodes == 1 or self._node_alive_kinds(node):
            return node
        return self._rehome(t, node)

    def _rehome(self, t: TaskInstance, src: int) -> int:
        """Move ``t``'s shard from ``src`` to the least loaded capable
        node (the first, so lowest id, on ties) and return that node."""
        dst = min(self._capable_nodes(t), key=self.stats.tasks_per_node.__getitem__)
        self._move_shard(t, src, dst)
        self.stats.evacuated_tasks += 1
        return dst

    def _release(self, t: TaskInstance, node: int) -> None:
        assert self.rt is not None
        first = t.uid not in self._released
        self._released.add(t.uid)
        if self.n_nodes > 1:
            if first:
                # the SAN-T010 anchor: every release must be justified
                # by a delivered notification per pending cross edge,
                # and must happen at most once per task
                now = self.rt.engine.now
                self.rt.trace.add(
                    now, now,
                    worker=f"node:{node}",
                    category="release",
                    label=t.name,
                    meta=(self.rt._local_ids.get(t.uid, t.uid),),
                )
            self._stage_reads(t, node)
        self.inner[node].task_ready(t)
        if self._steal_due(node, released=True):
            self._maybe_steal()

    def _stage_reads(self, t: TaskInstance, node: int) -> None:
        """Pull read regions with no same-node copy toward the node host.

        RAW pushes already cover producer-consumer data; this covers
        read-only inputs (no dependence edge, so nothing pushed them).
        """
        assert self.rt is not None and self.layout is not None
        host = self.layout.host_of_node[node]
        rt = self.rt
        directory = rt.directory
        stats = self.stats
        for region in t.reads():
            if directory.valid_on_node(region, node):
                continue
            _, issued = rt.push_region(region, host)
            if issued:
                stats.pushes += 1
                stats.push_bytes += region.nbytes

    def _node_of(self, worker: "Worker") -> int:
        return self.node_of_worker.get(worker.name, 0)

    def task_started(self, t: TaskInstance, worker: "Worker") -> None:
        # no steal scan: a start idles no worker and deepens no pool, but
        # a stale inner pump may shrink the pool and leave a thief
        node = self._node_of(worker)
        depth = self._pool_fns[node]
        before = depth()
        self.inner[node].task_started(t, worker)
        if depth() < before:
            self._steal_dirty = True

    def task_finished(self, t: TaskInstance, worker: "Worker", measured: float) -> None:
        assert self.rt is not None
        node = self._node_of(worker)
        if self.n_nodes > 1:
            # a winning speculative copy finishes on behalf of its original
            uid = t.speculative_of if t.speculative_of is not None else t.uid
            pred_node = self.shard_of.get(uid, node)
            for edge in self.rt.graph.out_edges(uid):
                succ_node = self.shard_of.get(edge.dst)
                if succ_node is not None and succ_node != pred_node:
                    self._notify_edge(edge, pred_node, succ_node)
        self.inner[node].task_finished(t, worker, measured)
        if self._steal_due(node, released=False):
            self._maybe_steal()

    def task_speculated(
        self, t: TaskInstance, worker: "Worker", version: TaskVersion
    ) -> None:
        self.inner[self._node_of(worker)].task_speculated(t, worker, version)

    def task_requeued(self, t: TaskInstance, worker: "Worker") -> None:
        # frees a worker outside its node's release and finish hooks
        self._steal_dirty = True
        self.inner[self._node_of(worker)].task_requeued(t, worker)

    def worker_down(self, worker: "Worker") -> None:
        self._liveness_changed()
        node = self._node_of(worker)
        self.inner[node].worker_down(worker)
        if (
            self.n_nodes > 1
            and node not in self._dead_nodes  # node_down already evacuated
            and not self._node_alive_kinds(node)
        ):
            self._evacuate(node)

    def worker_up(self, worker: "Worker") -> None:
        self._liveness_changed()
        self.inner[self._node_of(worker)].worker_up(worker)
        self._maybe_steal()

    def profile_table(self, worker: "Worker") -> Optional["VersionProfileTable"]:
        # each node's inner scheduler learns its own table
        return self.inner[self._node_of(worker)].profile_table(worker)

    def estimated_busy_time(self, worker: "Worker") -> Optional[float]:
        # and keeps the busy estimates of its own workers
        return self.inner[self._node_of(worker)].estimated_busy_time(worker)

    def speculation_workers(
        self, version: TaskVersion, straggler: "Worker"
    ) -> list["Worker"]:
        # a copy stays on its original's node, whose shard owns the task.
        # Placed cluster-wide, the copies of two hung originals can each
        # queue behind the other's hang and neither ever starts
        return self.inner[self._node_of(straggler)].capable_workers(version)

    # ------------------------------------------------------------------
    # Node crash / rejoin
    # ------------------------------------------------------------------
    def node_down(self, node: int) -> None:
        """A whole node crashed (called by the resilience manager's
        ``_node_down``).

        Runs *before* the node's individual workers are torn down:
        the router fences the dead node's epoch and recovers its
        in-flight notifications, the partitioner forgets affinity to
        it, the node's ready pool is evacuated, and every unfinished
        task still sharded there is repartitioned to the survivors —
        so by the time the dead workers' running/queued tasks are
        requeued, ``task_ready`` routes them to live nodes.
        """
        if node in self._dead_nodes or self.n_nodes == 1:
            return
        self._dead_nodes.add(node)
        self._liveness_changed()
        if self.router is not None:
            self.router.node_down(node)
        if self.partitioner is not None:
            self.partitioner.note_node_down(node)
        self._evacuate(node)
        self._reassign_shards(node)

    def node_up(self, node: int) -> None:
        """A crashed node rejoined: fresh inner scheduler, cold state.

        The node is eligible for new shard assignments and work
        stealing again, but its pre-crash profile tables are gone —
        the rejoined runtime learns from scratch, exactly like a
        rebooted machine.
        """
        from repro.schedulers.registry import create_scheduler  # avoid cycle

        if node not in self._dead_nodes:
            return
        self._dead_nodes.discard(node)
        self._liveness_changed()
        assert self.rt is not None
        sched = create_scheduler(self.inner_name, **self.inner_options)
        sched.bind(NodeRuntimeView(self.rt, self.node_workers[node]))
        self.inner[node] = sched
        self._refresh_pool_fns()
        self._maybe_steal()

    def _reassign_shards(self, dead: int) -> None:
        """Repartition every unfinished task sharded on a dead node."""
        assert self.rt is not None
        g = self.rt.graph
        for uid, node in list(self.shard_of.items()):
            if node != dead or uid not in g._unfinished:
                continue
            self._rehome(g.task(uid), dead)

    def _evacuate(self, dead_node: int) -> None:
        """Re-home the ready pool of a node that lost all its workers."""
        assert self.partitioner is not None
        self.stats.evacuations += 1
        while True:
            t = self.inner[dead_node].steal_ready_task(lambda task: True)
            if t is None:
                break
            self._release(t, self._rehome(t, dead_node))

    # ------------------------------------------------------------------
    # Work stealing
    # ------------------------------------------------------------------
    def _refresh_pool_fns(self) -> None:
        """Re-resolve each inner scheduler's ``pool_size`` method.

        Bound methods are cached because pool depths are read on every
        release, start and finish (the steal gate) and by every scan;
        per-call ``getattr`` on the inner scheduler was a top frame.
        When the inner scheduler's ``pool_size`` is the stock
        ``len(self._pool)`` implementation, the pool deque's own
        ``__len__`` is bound instead — a C-level call; the deque is
        created once in ``__init__`` and only ever mutated in place, so
        the binding stays valid.  A policy without a pool gets ``int``
        (which returns 0).  Must be called whenever ``self.inner``
        changes (bind, node_up).
        """
        from repro.core.versioning import VersioningScheduler  # avoid cycle

        stock = VersioningScheduler.pool_size
        fns = []
        for sched in self.inner:
            fn = getattr(sched, "pool_size", None)
            if not callable(fn):
                fns.append(int)
            elif getattr(type(sched), "pool_size", None) is stock:
                fns.append(sched._pool.__len__)
            else:
                fns.append(fn)
        self._pool_fns = fns
        self._sorted_nodes = sorted(self.node_workers)

    def _steal_due(self, node: int, released: bool) -> bool:
        """Whether a scan can find a steal after a release (``released``)
        or a finish on ``node``: only if ``node`` is now a victim (after a
        release) or a thief, or ``_steal_dirty`` is set (DESIGN §12)."""
        if self._steal_dirty:
            return True
        depth = self._pool_fns[node]()
        if depth == 0:
            return self._has_idle_worker(node)
        return released and depth >= self.steal_threshold

    def _has_idle_worker(self, node: int) -> bool:
        assert self.rt is not None
        now = self.rt.engine.now
        for w in self.node_workers[node]:
            if w.current is None and not w.queue and w.available(now):
                return True
        return False

    def _accepts(self, node: int):
        # same predicate as scanning versions × live workers: some
        # version's device kinds intersect the node's live-worker kinds
        kinds = self._node_alive_kinds(node)

        def accept(t: TaskInstance) -> bool:
            return bool(kinds & t.definition.device_kind_mask)

        return accept

    def _move_shard(self, t: TaskInstance, src: int, dst: int) -> None:
        assert self.partitioner is not None
        self.shard_of[t.uid] = dst
        self.stats.tasks_per_node[src] = self.stats.tasks_per_node.get(src, 1) - 1
        self.stats.tasks_per_node[dst] = self.stats.tasks_per_node.get(dst, 0) + 1
        self.partitioner.note_assigned(t, dst)

    def _migrate_successors(self, t: TaskInstance, src: int, dst: int) -> None:
        """Re-home the stolen task's unreleased successor closure.

        Shards are fixed at submit, so without this a stolen chain task
        leaves its successors behind: every later task of the chain
        ping-pongs between thief and victim, each hop pushing the
        written region across the network twice.  Migrating the
        not-yet-released transitive successors that still sit on the
        victim moves the *rest of the chain* with the steal, so the
        data crosses the wire once.
        """
        assert self.rt is not None
        frontier = [t.uid]
        seen = {t.uid}
        while frontier:
            uid = frontier.pop()
            for edge in self.rt.graph.out_edges(uid):
                succ = edge.dst
                if succ in seen:
                    continue
                seen.add(succ)
                if self.shard_of.get(succ) != src or succ in self._released:
                    continue
                succ_t = self.rt.graph.task(succ)
                if not self._accepts(dst)(succ_t):
                    continue
                self._move_shard(succ_t, src, dst)
                frontier.append(succ)

    def _maybe_steal(self) -> None:
        """Move ready work from the deepest pool to a starving node.

        A node steals when it has an idle worker and an empty ready
        pool; the victim is the shard with the deepest pool (at least
        ``steal_threshold`` tasks).  The stolen task re-enters through
        the thief's inner scheduler, which re-costs it with its own
        profile tables.  Reentrancy-guarded: releasing the stolen task
        can trigger dispatches that call back into this scheduler.
        """
        if not self.steal or self.n_nodes < 2 or self._stealing:
            return
        assert self.rt is not None
        self._steal_dirty = False
        self._stealing = True
        try:
            threshold = self.steal_threshold
            nodes = self._sorted_nodes
            while True:
                # one depth snapshot per round (pool sizes only change
                # when a steal succeeds, which restarts the round); the
                # victim check runs first so the common no-backlog case
                # exits after one flat scan, then the thief scan, so a
                # backlog with no starving node exits before any sort
                depths = [fn() for fn in self._pool_fns]
                if max(depths) < threshold:
                    return
                thieves = [
                    n
                    for n in nodes
                    if depths[n] == 0 and self._has_idle_worker(n)
                ]
                if not thieves:
                    return
                victims = sorted(
                    (n for n in nodes if depths[n] >= threshold),
                    key=lambda n: (-depths[n], n),
                )
                stolen = None
                for thief in thieves:
                    for victim in victims:
                        if victim == thief:
                            continue
                        t = self.inner[victim].steal_ready_task(self._accepts(thief))
                        if t is None:
                            continue
                        stolen = (t, victim, thief)
                        break
                    if stolen is not None:
                        break
                if stolen is None:
                    return
                t, victim, thief = stolen
                self._move_shard(t, victim, thief)
                self._migrate_successors(t, victim, thief)
                self.stats.steals += 1
                now = self.rt.engine.now
                self.rt.trace.add(
                    now,
                    now,
                    worker=f"node:{thief}",
                    category="steal",
                    label=t.name,
                    meta=(self.rt._local_ids.get(t.uid, t.uid), victim, thief),
                )
                self._stage_reads(t, thief)
                self.inner[thief].task_ready(t)
        finally:
            self._stealing = False

    # ------------------------------------------------------------------
    # Introspection (metrics / tests)
    # ------------------------------------------------------------------
    def shard_map(self) -> dict[int, int]:
        """Task uid -> node, after any steals."""
        return dict(self.shard_of)

    def node_utilisation(self, makespan: float) -> dict[int, float]:
        """Mean worker utilisation per node."""
        out: dict[int, float] = {}
        for node, ws in sorted(self.node_workers.items()):
            if not ws or makespan <= 0:
                out[node] = 0.0
                continue
            out[node] = sum(w.busy_time for w in ws) / (makespan * len(ws))
        return out
