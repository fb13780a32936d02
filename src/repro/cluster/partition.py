"""Graph-partitioning policies for sharded cluster scheduling.

A partitioner maps each submitted task to the node (shard) that will
schedule it.  Assignment happens online, in submission order, exactly
once per task — the sharded scheduler may later *move* a task between
shards via work stealing, but the partitioner is never consulted twice.

Three policies, mirroring the options distributed task-based runtimes
actually ship:

* ``hash`` — multiplicative hash of the submission sequence number;
  stateless, perfectly balanced in expectation, oblivious to data.
* ``block`` — contiguous blocks of ``block_size`` consecutive
  submissions per node, round-robin over nodes; preserves submission
  locality (neighbouring tasks usually share data).
* ``affinity`` — keyed on region ownership: the node that owns the most
  bytes among the task's accessed regions wins; writes claim ownership
  for the assignee, so producer-consumer chains stay on one node.
  Falls back to the least-loaded shard for ownerless tasks.

All policies are deterministic: no wall-clock, no ``hash()`` (which is
seeded per process), no iteration over unordered containers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.task import TaskInstance

#: Knuth's multiplicative constant (2^32 / phi), for the hash policy.
_HASH_MULT = 2654435761

PARTITION_POLICIES = ("hash", "block", "affinity")


class PartitionPolicy:
    """Base class: assign each submitted task to a node."""

    name = "base"

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError("a partition needs at least one node")
        self.n_nodes = n_nodes

    def assign(
        self, t: "TaskInstance", seq: int, allowed: Sequence[int], loads: Mapping[int, int]
    ) -> int:
        """Pick a node for task ``t``.

        ``seq`` is the run-local submission number (1-based), ``allowed``
        the nodes with a worker capable of running some version of ``t``
        (never empty, ascending), ``loads`` maps each node id to the
        count of tasks assigned to it so far.
        """
        raise NotImplementedError

    def note_assigned(self, t: "TaskInstance", node: int) -> None:
        """Observe the final placement (including steals)."""

    def note_node_down(self, node: int) -> None:
        """A node crashed: forget any state steering work toward it."""


class HashPartition(PartitionPolicy):
    name = "hash"

    def assign(
        self, t: "TaskInstance", seq: int, allowed: Sequence[int], loads: Mapping[int, int]
    ) -> int:
        idx = ((seq * _HASH_MULT) & 0xFFFFFFFF) % len(allowed)
        return allowed[idx]


class BlockPartition(PartitionPolicy):
    name = "block"

    def __init__(self, n_nodes: int, *, block_size: int = 8) -> None:
        super().__init__(n_nodes)
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.block_size = block_size

    def assign(
        self, t: "TaskInstance", seq: int, allowed: Sequence[int], loads: Mapping[int, int]
    ) -> int:
        idx = ((seq - 1) // self.block_size) % len(allowed)
        return allowed[idx]


class AffinityPartition(PartitionPolicy):
    """Place each task where most of its data already lives.

    Ownership is tracked per region key in assigned-bytes: a task's
    write regions become owned by its node.  The candidate scores are
    the bytes of the task's regions owned by each allowed node; the
    best-scoring node wins (ties to the lower node id), and a task
    touching no owned data goes to the least-loaded allowed shard.
    """

    name = "affinity"

    def __init__(self, n_nodes: int) -> None:
        super().__init__(n_nodes)
        self._owner: dict[Hashable, int] = {}

    def assign(
        self, t: "TaskInstance", seq: int, allowed: Sequence[int], loads: Mapping[int, int]
    ) -> int:
        # only owners of t's regions can score: O(accesses), not O(nodes)
        score: dict[int, int] = {}
        for acc in t.accesses:
            owner = self._owner.get(acc.region.key)
            if owner is not None and owner in allowed:
                score[owner] = score.get(owner, 0) + acc.region.nbytes
        best = max(score, key=lambda n: (score[n], -n), default=None)
        if best is not None and score[best] > 0:
            return best
        # allowed is ascending, so min keeps the lowest id among ties
        return min(allowed, key=loads.__getitem__)

    def note_assigned(self, t: "TaskInstance", node: int) -> None:
        for acc in t.accesses:
            if acc.writes:
                self._owner[acc.region.key] = node

    def note_node_down(self, node: int) -> None:
        # a dead node owns nothing: its data is gone (or recovering at
        # the home space), so affinity must stop steering work to it
        self._owner = {k: n for k, n in self._owner.items() if n != node}


def make_partitioner(name: str, n_nodes: int, **options) -> PartitionPolicy:
    """Instantiate a partition policy by name."""
    factories = {
        "hash": HashPartition,
        "block": BlockPartition,
        "affinity": AffinityPartition,
    }
    try:
        factory = factories[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown partition policy {name!r}; "
            f"available: {', '.join(PARTITION_POLICIES)}"
        ) from None
    return factory(n_nodes, **options)
