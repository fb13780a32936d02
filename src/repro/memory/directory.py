"""Coherence directory.

The runtime replicates data regions across memory spaces; the directory
owns that copy state.  Per region it records which spaces hold a *valid*
copy, whether the authoritative (dirty) copy lives away from the
region's home space, when the copies in flight to other spaces land, and
when a region that lost every copy to a node crash is recomputed.

Protocol (write-invalidate, matching the Nanos++ software cache):

* a region starts valid only in its home space (the host),
* a read on space S requires a valid copy in S — if missing, the
  directory emits a :class:`TransferRequest` from a chosen source,
* a write on space S makes S the *only* valid holder and marks the
  region dirty when S is not the home space,
* flushing (taskwait semantics) copies every dirty region back to its
  home space.

A copy landing is bookkeeping, not a simulation event, and every copy
lands the same way.  A copy is recorded with the sequence number the
engine reserved for its landing (:meth:`Directory.note_in_flight`) and
stays in flight until a read finds the engine past ``(lands, seq)``:
:meth:`Directory.entry`, the accessor every query and action goes
through, first moves each such copy into the valid set, in the state a
landing event would have left.  A per-entry earliest landing time keeps
that check to one comparison while nothing can have landed.  A node
crash (:meth:`Directory.invalidate_spaces`) settles what has landed,
then drops the copies still in flight toward the dead spaces: they are
lost, and never become valid, even if the node rejoins before they
would have landed.

Invariants (property-tested):

* every registered region is valid somewhere at all times, unless it is
  under crash recovery,
* a dirty region's owner space is always in the valid set,
* immediately after a write, exactly one space is valid.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.runtime.dataregion import DataRegion

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimEngine


@dataclass(frozen=True)
class TransferRequest:
    """A region copy that must be performed: ``src`` space -> ``dst`` space."""

    region: DataRegion
    src: str
    dst: str

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("transfer with identical endpoints")


@dataclass
class _Entry:
    region: DataRegion
    valid: set[str]
    dirty_owner: Optional[str]  # space holding the sole authoritative copy
    #: space -> landing time of the copy on the wire toward it; every
    #: space here has a record in ``landing`` still to land
    inflight: dict[str, float] = field(default_factory=dict)
    #: landing time of the crash recomputation (None unless every copy
    #: died with a crashed node); the empty-valid invariant is suspended
    #: until it lands
    recover_at: Optional[float] = None
    #: copies the directory settles itself: (lands, seq, space), in the
    #: order they were issued
    landing: list[tuple[float, int, str]] = field(default_factory=list)
    #: earliest ``lands`` in ``landing`` (inf when it is empty)
    land_at: float = math.inf


class Directory:
    """Tracks validity of region copies across memory spaces."""

    def __init__(self, engine: "SimEngine", home_space: str = "host") -> None:
        self.home_space = home_space
        # the clock that settles copies in flight
        self._engine = engine
        # keyed by the interned region id (DataRegion.rid); directory
        # lookups run once per task dependence clause and per transfer,
        # so int keys beat hashing structured tuples.  Anything that
        # must iterate deterministically sorts by repr(region.key) —
        # rid assignment order is process-history dependent.
        self._entries: dict[int, _Entry] = {}
        # optional cluster awareness (set_topology): when present,
        # choose_source prefers same-node copies and spreads remote
        # pulls across the hosts holding valid replicas
        self._node_of_space: Optional[Mapping[str, int]] = None
        self._host_spaces: frozenset[str] = frozenset()

    def set_topology(
        self, node_of_space: Mapping[str, int], host_spaces: "set[str] | frozenset[str]"
    ) -> None:
        """Teach the directory which node owns each space (cluster mode).

        Until this is called the directory stays node-oblivious: every
        cold read is staged from the home space (node 0), which is what
        makes the *global* scheduler's cluster runs bottleneck on node
        0's NIC.  The sharded cluster scheduler calls this to unlock
        same-node reuse and source spreading.
        """
        self._node_of_space = dict(node_of_space)
        self._host_spaces = frozenset(host_spaces)

    # ------------------------------------------------------------------
    # Registration & queries
    # ------------------------------------------------------------------
    def register(self, region: DataRegion) -> None:
        """Make the directory aware of ``region`` (idempotent).

        New regions are valid in the home space only.
        """
        self.entry(region)

    def entry(self, region: DataRegion) -> _Entry:
        """The live copy state of ``region`` (registering it) — read-only
        by contract: the staging path fetches it once per staged region
        instead of calling one accessor per field.

        Copies whose landing the engine has passed are settled first, so
        the state is current at the engine's cursor; hold the entry no
        longer than the current event.
        """
        entry = self._entries.get(region.rid)
        if entry is None:
            entry = self._entries[region.rid] = _Entry(
                region, {self.home_space}, None
            )
        elif entry.land_at <= self._engine._now:
            self._settle(entry)
        return entry

    def _settle(self, entry: _Entry, dead: "set[str] | frozenset[str]" = frozenset()) -> None:
        """Land every recorded copy the engine has passed; forget the
        copies still in flight toward a ``dead`` space.

        A landing adds its space to the valid set (dirtiness is
        unchanged) and drops the space's in-flight record, even one a
        later copy toward the same space wrote.
        """
        passed = self._engine.passed
        pending: list[tuple[float, int, str]] = []
        land_at = math.inf
        valid = entry.valid
        inflight = entry.inflight
        for rec in entry.landing:
            lands, seq, space = rec
            if passed(lands, seq):
                valid.add(space)
                inflight.pop(space, None)
            elif space in dead:
                inflight.pop(space, None)
            else:
                pending.append(rec)
                if lands < land_at:
                    land_at = lands
        entry.landing = pending
        entry.land_at = land_at

    def valid_spaces(self, region: DataRegion) -> set[str]:
        return set(self.entry(region).valid)

    def valid_on_node(self, region: DataRegion, node: int) -> bool:
        """Whether a space of cluster ``node`` holds a valid copy
        (requires :meth:`set_topology`)."""
        node_of_space = self._node_of_space
        assert node_of_space is not None, "valid_on_node needs set_topology"
        for s in self.entry(region).valid:
            if node_of_space.get(s) == node:
                return True
        return False

    def is_valid(self, region: DataRegion, space: str) -> bool:
        return space in self.entry(region).valid

    def dirty_owner(self, region: DataRegion) -> Optional[str]:
        return self.entry(region).dirty_owner

    # ------------------------------------------------------------------
    # Protocol actions
    # ------------------------------------------------------------------
    def choose_source(self, region: DataRegion, dst: str) -> str:
        """Pick the space to copy from when ``dst`` needs a valid copy.

        Deterministic: prefer the home space when it holds a valid copy
        (host-staged copies match how Nanos++ routed most traffic);
        otherwise the lexicographically first valid space.  Peer GPU
        sources are what produce the paper's *Device Tx* counter.

        With a cluster topology attached (:meth:`set_topology`) the
        preference order becomes: a valid copy on the *destination's own
        node* (its host first), then a valid copy on any node host —
        spread deterministically across holders so concurrent consumers
        don't all hammer one NIC — then the node-oblivious fallback.
        """
        entry = self.entry(region)
        if dst in entry.valid:
            raise ValueError(f"{region.label!r} is already valid in {dst!r}")
        if not entry.valid:
            raise ValueError(
                f"{region.label!r} has no valid copy anywhere "
                "(lost to a node crash and not yet recovered)"
            )
        if self._node_of_space is not None:
            dst_node = self._node_of_space.get(dst)
            same_node = sorted(
                s for s in entry.valid if self._node_of_space.get(s) == dst_node
            )
            if same_node:
                host = next((s for s in same_node if s in self._host_spaces), None)
                return host if host is not None else same_node[0]
            hosts = sorted(s for s in entry.valid if s in self._host_spaces)
            if hosts:
                idx = zlib.crc32(repr((region.key, dst)).encode()) % len(hosts)
                return hosts[idx]
        if self.home_space in entry.valid:
            return self.home_space
        return min(entry.valid)

    def reads_needed(self, region: DataRegion, space: str) -> Optional[TransferRequest]:
        """Transfer needed (if any) so ``space`` can read ``region``."""
        if space in self.entry(region).valid:
            return None
        return TransferRequest(region, self.choose_source(region, space), space)

    def note_in_flight(self, region: DataRegion, space: str, lands: float, seq: int) -> None:
        """A copy of ``region`` toward ``space`` is on the wire until ``lands``.

        ``seq`` is the place the engine reserved for the landing
        (:meth:`SimEngine.reserve_seq`): the directory lands the copy
        itself once the engine passes ``(lands, seq)``.
        """
        entry = self.entry(region)
        entry.inflight[space] = lands
        entry.landing.append((lands, seq, space))
        if lands < entry.land_at:
            entry.land_at = lands

    def note_write(self, region: DataRegion, space: str) -> None:
        """A task on ``space`` wrote ``region``: invalidate all other copies."""
        entry = self.entry(region)
        entry.valid = {space}
        entry.dirty_owner = space if space != self.home_space else None
        entry.recover_at = None  # a fresh write supersedes any recovery

    def drop_copy(self, region: DataRegion, space: str) -> None:
        """Evict the copy held by ``space`` (cache eviction of clean data).

        Dropping the last valid copy — or the dirty owner's copy — is a
        protocol violation: the caller must write back first.
        """
        entry = self.entry(region)
        if space not in entry.valid:
            raise ValueError(f"{region.label!r} holds no copy in {space!r}")
        if entry.dirty_owner == space:
            raise ValueError(
                f"cannot drop the dirty copy of {region.label!r} from {space!r}; "
                "write back to the home space first"
            )
        if entry.valid == {space}:
            raise ValueError(f"cannot drop the only valid copy of {region.label!r}")
        entry.valid.discard(space)

    def writeback_request(self, region: DataRegion) -> Optional[TransferRequest]:
        """Transfer that would clean the region (dirty owner -> home)."""
        entry = self.entry(region)
        if entry.dirty_owner is None:
            return None
        return TransferRequest(region, entry.dirty_owner, self.home_space)

    def note_writeback_done(self, region: DataRegion) -> None:
        """The dirty copy has been copied home; region is now clean."""
        entry = self.entry(region)
        if entry.dirty_owner is None:
            raise ValueError(f"{region.label!r} is not dirty")
        entry.valid.add(self.home_space)
        entry.dirty_owner = None

    def flush_requests(self) -> list[TransferRequest]:
        """All transfers a full ``taskwait`` flush needs (deterministic order)."""
        out: list[TransferRequest] = []
        for entry in sorted(self._entries.values(), key=lambda e: repr(e.region.key)):
            req = self.writeback_request(entry.region)
            if req is not None:
                out.append(req)
        return out

    # ------------------------------------------------------------------
    # Node-crash handling
    # ------------------------------------------------------------------
    def invalidate_spaces(self, spaces: "set[str]") -> list[DataRegion]:
        """Every copy held by ``spaces`` is gone (the node crashed).

        First settles every copy the engine has passed, so a copy that
        already landed in a surviving space counts before a region is
        declared lost.  Then removes the dead spaces from all valid sets
        and drops the copies in flight toward them: those copies are
        lost, and stay lost if the node rejoins before they would have
        landed.  A dirty owner that died is repaired: if the home space
        survives among the valid copies the region is simply clean
        again, otherwise a surviving valid space is promoted to owner.
        Regions left with *no* valid copy are returned, under recovery
        until :meth:`note_recomputing` gives the landing time; until
        :meth:`note_recovered` (or a superseding write),
        :meth:`check_invariants` tolerates their empty valid set.

        Deterministic: regions are visited in sorted key order.
        """
        lost: list[DataRegion] = []
        for entry in sorted(self._entries.values(), key=lambda e: repr(e.region.key)):
            if entry.landing:
                self._settle(entry, spaces)
            if not (entry.valid & spaces) and entry.dirty_owner not in spaces:
                continue
            entry.valid -= spaces
            if entry.dirty_owner in spaces:
                entry.dirty_owner = None
                if entry.valid and self.home_space not in entry.valid:
                    entry.dirty_owner = min(entry.valid)
            if not entry.valid:
                entry.recover_at = math.inf
                lost.append(entry.region)
        return lost

    def note_recomputing(self, region: DataRegion, lands: float) -> None:
        """The recomputation of the lost ``region`` lands at ``lands``."""
        self.entry(region).recover_at = lands

    def note_recovered(self, region: DataRegion, space: str) -> None:
        """A lost region's recomputation materialised a copy in ``space``."""
        entry = self.entry(region)
        entry.valid.add(space)
        entry.dirty_owner = space if space != self.home_space else None
        entry.recover_at = None

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` on any violated protocol invariant."""
        for entry in self._entries.values():
            if not entry.valid and entry.recover_at is None:
                raise AssertionError(f"{entry.region.label!r} is valid nowhere")
            if entry.dirty_owner is not None and entry.dirty_owner not in entry.valid:
                raise AssertionError(
                    f"{entry.region.label!r}: dirty owner {entry.dirty_owner!r} "
                    "lacks a valid copy"
                )
