"""Transfer engine and the paper's three transfer counters.

Every region copy crosses a link of the machine; the engine serialises
transfers per directed link (a PCIe direction is one DMA stream) and
accounts each one in the classification the paper's §V-A uses:

* **Input Tx** — host space to any device space ("the total amount of
  data transferred from the host memory space to any of the GPU
  devices.  If a piece of data is transferred to two different devices,
  both transfers are taken into account."),
* **Output Tx** — any device space to host,
* **Device Tx** — between two device spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

from repro.memory.directory import TransferRequest
from repro.resilience.recovery import TransferRetryExceededError
from repro.sim.engine import EventKind, SimEngine
from repro.sim.topology import HOST_SPACE, Machine
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.recovery import ResilienceManager


class TxCategory(Enum):
    INPUT = "input_tx"    # host -> device
    OUTPUT = "output_tx"  # device -> host
    DEVICE = "device_tx"  # device -> device

    @staticmethod
    def classify(src: str, dst: str, host: str = HOST_SPACE) -> "TxCategory":
        if src == host and dst != host:
            return TxCategory.INPUT
        if src != host and dst == host:
            return TxCategory.OUTPUT
        if src != host and dst != host:
            return TxCategory.DEVICE
        raise ValueError(f"host-to-host transfer makes no sense ({src} -> {dst})")


@dataclass
class TransferStats:
    """Bytes and counts per category — the data behind Figures 7/10/13."""

    bytes_by_category: dict[TxCategory, int] = field(
        default_factory=lambda: {c: 0 for c in TxCategory}
    )
    count_by_category: dict[TxCategory, int] = field(
        default_factory=lambda: {c: 0 for c in TxCategory}
    )

    def record(self, src: str, dst: str, nbytes: int, host: str = HOST_SPACE) -> None:
        # classify() inlined — record runs once per transfer hop
        if src == host:
            if dst == host:
                raise ValueError(
                    f"host-to-host transfer makes no sense ({src} -> {dst})"
                )
            cat = TxCategory.INPUT
        elif dst == host:
            cat = TxCategory.OUTPUT
        else:
            cat = TxCategory.DEVICE
        self.bytes_by_category[cat] += nbytes
        self.count_by_category[cat] += 1

    @property
    def input_tx(self) -> int:
        return self.bytes_by_category[TxCategory.INPUT]

    @property
    def output_tx(self) -> int:
        return self.bytes_by_category[TxCategory.OUTPUT]

    @property
    def device_tx(self) -> int:
        return self.bytes_by_category[TxCategory.DEVICE]

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_category.values())

    @property
    def total_count(self) -> int:
        return sum(self.count_by_category.values())

    def as_dict(self) -> dict[str, int]:
        return {c.value: self.bytes_by_category[c] for c in TxCategory}

    def __repr__(self) -> str:
        gb = 1024**3
        return (
            f"TransferStats(input={self.input_tx / gb:.3f} GB, "
            f"output={self.output_tx / gb:.3f} GB, "
            f"device={self.device_tx / gb:.3f} GB, n={self.total_count})"
        )


class TransferEngine:
    """Schedules region copies on the machine's links.

    Each directed link is a serial resource: a transfer requested while
    the link is busy queues behind the transfers already issued (FIFO,
    matching one DMA stream per PCIe direction).  A transfer schedules
    no event: :meth:`issue` returns its completion time, and the caller
    records the landing (the runtime lets the directory settle it on
    read).
    """

    def __init__(
        self,
        engine: SimEngine,
        machine: Machine,
        *,
        stats: Optional[TransferStats] = None,
        trace: Optional[Trace] = None,
        host: str = HOST_SPACE,
        resilience: Optional["ResilienceManager"] = None,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.stats = stats if stats is not None else TransferStats()
        self.trace = trace
        self.host = host
        #: fault-injection hook: consulted per attempt per hop; failed
        #: attempts are retried with deterministic exponential backoff
        self.resilience = resilience
        # per-link (or per channel-group) list of channel-free times;
        # links sharing a ``Link.group`` (a node's NIC) share one entry
        self._channel_free_at: dict[object, list[float]] = {}
        # interned trace worker names per directed link (issue() runs
        # once per hop; building the f-string each time showed up in
        # profiles)
        self._link_worker: dict[tuple[str, str], str] = {}
        #: simulated control messages (cluster notification protocol)
        self.messages_sent = 0
        self.messages_delivered = 0
        self.message_bytes = 0
        self.messages_dropped = 0   # lost in flight (fault injection)
        self.messages_lost = 0      # delivered to a dead node's NIC
        #: memory spaces whose NIC endpoint is down (crashed nodes):
        #: message deliveries into them are swallowed silently — the
        #: sender only learns via its own retransmit timeout
        self.down_spaces: set[str] = set()

    # ------------------------------------------------------------------
    def set_spaces_down(self, spaces: "set[str]") -> None:
        self.down_spaces |= spaces

    def set_spaces_up(self, spaces: "set[str]") -> None:
        self.down_spaces -= spaces

    # ------------------------------------------------------------------
    def _channel_key(self, link) -> object:
        return link.group if link.group is not None else (link.src, link.dst)

    def _hop_time(self, link, nbytes: int, start: float) -> float:
        """One hop's duration, stretched by any active link degradation.

        Without a fault plan both factors are 1.0, which leaves the
        link's ``latency + nbytes / bandwidth`` bit for bit.
        """
        resilience = self.resilience
        bw_f, lat_f = (
            (1.0, 1.0) if resilience is None
            else resilience.link_factors(link.src, link.dst, start)
        )
        return link.latency * lat_f + (nbytes / link.bandwidth) * bw_f

    def _claim(self, link, ready: float, nbytes: int) -> tuple[float, float]:
        """Book one hop of ``nbytes`` on ``link``'s earliest-free channel.

        The channel with the earliest free time wins, lowest index on
        ties (strict ``<`` scan ≡ min over (free time, index)); the hop
        starts no earlier than ``ready``.  Returns the hop's
        ``(start, end)``.
        """
        key = self._channel_key(link)
        channels = self._channel_free_at.get(key)
        if channels is None:
            channels = self._channel_free_at[key] = [0.0] * link.channels
        ch = 0
        free = channels[0]
        for i in range(1, len(channels)):
            if channels[i] < free:
                free = channels[i]
                ch = i
        start = ready if ready > free else free
        # the hop time is added in one step: float addition is not
        # associative, and traces pin this order bit for bit
        end = start + self._hop_time(link, nbytes, start)
        channels[ch] = end
        return start, end

    def issue(self, request: TransferRequest, *, earliest: Optional[float] = None) -> float:
        """Issue a transfer; returns its completion (simulated) time.

        ``earliest`` is the earliest moment the transfer may begin
        (defaults to now); the actual start also waits for the link(s).
        Endpoints without a direct link are *routed* (staged copies via
        intermediate spaces — the cluster case); each hop serialises on
        its own link and is accounted separately.  The transfer
        schedules nothing: the caller records the landing itself (the
        runtime reserves its seq from the engine and lets the directory
        settle it on read).

        With a resilience manager attached, each hop attempt may be
        failed by the fault plan; failed attempts are retried after a
        deterministic exponential backoff, bounded by the recovery
        policy's ``transfer_max_retries`` (then
        :class:`TransferRetryExceededError`).  A failed attempt still
        occupies the link for the full hop time and is accounted in the
        transfer counters — the bytes moved before the error was
        detected.
        """
        nbytes = request.region.nbytes
        now = self.engine.now
        ready = now if earliest is None else max(earliest, now)
        end = ready
        resilience = self.resilience
        stats = self.stats
        trace = self.trace
        host = self.host
        link_worker = self._link_worker
        for link in self.machine.route(request.src, request.dst):
            attempt = 1
            while True:
                start, hop_end = self._claim(link, end, nbytes)
                failed = resilience is not None and resilience.transfer_fault(
                    link.src, link.dst
                )
                stats.record(link.src, link.dst, nbytes, host)
                if trace is not None:
                    lkey = (link.src, link.dst)
                    worker = link_worker.get(lkey)
                    if worker is None:
                        worker = link_worker[lkey] = f"link:{link.src}->{link.dst}"
                    trace.add(
                        start,
                        hop_end,
                        worker=worker,
                        category="transfer" if not failed else "transfer-fault",
                        label=request.region.label,
                        meta=(nbytes,),
                    )
                if not failed:
                    end = hop_end
                    break
                assert resilience is not None
                budget = resilience.policy.transfer_max_retries
                if attempt > budget:
                    raise TransferRetryExceededError(
                        f"transfer of {request.region.label!r} over "
                        f"{link.src}->{link.dst} failed {attempt} times "
                        f"(retry budget {budget})"
                    )
                end = hop_end + resilience.transfer_retry(attempt)
                attempt += 1
        return end

    # ------------------------------------------------------------------
    def send_message(
        self,
        src: str,
        dst: str,
        nbytes: int,
        *,
        label: str = "",
        meta: tuple = (),
        category: str = "notify",
        on_deliver: Optional[Callable[[], None]] = None,
    ) -> float:
        """Send a simulated control message from ``src`` to ``dst``.

        The cluster notification protocol rides on this: the message
        occupies the same link channels as data (it shares the NIC) but
        is *not* counted in the data-transfer statistics — it shows up in
        the trace as a ``category`` record (``"notify"`` for
        notifications, ``"ack"`` for acknowledgements) on worker
        ``node:<src>-><dst>`` and in the ``messages_*`` counters.
        Returns the scheduled delivery time; ``on_deliver`` fires then.

        With a resilience manager attached, the transmission may suffer
        a :class:`~repro.resilience.faults.MessageFault`: *dropped*
        messages occupy the wire but never deliver (traced as
        ``"<category>-drop"``), *duplicated* messages deliver twice (the
        copy traced as ``"<category>-dup"``), *delayed* messages deliver
        past their wire arrival.  A delivery into a space listed in
        :attr:`down_spaces` (a crashed node's NIC) is swallowed — the
        sender only learns via its own timeout.
        """
        if nbytes < 0:
            raise ValueError("cannot send a negative-size message")
        end = self.engine.now
        for link in self.machine.route(src, dst):
            _, end = self._claim(link, end, nbytes)
        self.messages_sent += 1
        self.message_bytes += nbytes
        fault = (
            self.resilience.message_fault(src, dst, label)
            if self.resilience is not None
            else None
        )
        if fault is not None and fault.drop:
            self.messages_dropped += 1
            if self.trace is not None:
                self.trace.add(
                    self.engine.now,
                    end,
                    worker=f"node:{src}->{dst}",
                    category=f"{category}-drop",
                    label=label,
                    meta=meta,
                )
            return end
        delivered_at = end + (fault.delay if fault is not None else 0.0)
        if self.trace is not None:
            self.trace.add(
                self.engine.now,
                delivered_at,
                worker=f"node:{src}->{dst}",
                category=category,
                label=label,
                meta=meta,
            )

        def _deliver() -> None:
            if dst in self.down_spaces:
                self.messages_lost += 1
                return
            self.messages_delivered += 1
            if on_deliver is not None:
                on_deliver()

        self.engine.schedule(
            delivered_at,
            _deliver,
            kind=EventKind.NOTIFY,
            label=f"{category} {label} {src}->{dst}",
        )
        if fault is not None and fault.duplicate:
            if self.trace is not None:
                self.trace.add(
                    self.engine.now,
                    delivered_at,
                    worker=f"node:{src}->{dst}",
                    category=f"{category}-dup",
                    label=label,
                    meta=meta,
                )
            self.engine.schedule(
                delivered_at,
                _deliver,
                kind=EventKind.NOTIFY,
                label=f"{category}-dup {label} {src}->{dst}",
            )
        return delivered_at
