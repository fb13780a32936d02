"""Diagnostic model shared by every sanitizer analysis.

A :class:`Diagnostic` is one finding: a stable code (``SAN-L001``,
``SAN-R010``, ...), a severity, a human-readable message and whatever
location information the producing analysis has — a file/line for the
static lint, a task/region pair for the dynamic analyses.

The code registry below is the single source of truth for what each
code means; ``python -m repro.sanitizer --list-codes`` renders it.

This module deliberately imports nothing from the rest of the package so
runtime modules (e.g. the dependence graph's aliasing check) can create
diagnostics without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional


class Severity(Enum):
    ERROR = "error"      # soundness violation: racy DAG, broken invariant
    WARNING = "warning"  # suspicious but not provably unsound
    INFO = "info"        # advisory

    def __lt__(self, other: "Severity") -> bool:  # ERROR sorts first
        order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
        if not isinstance(other, Severity):
            return NotImplemented
        return order[self] < order[other]


#: Registry of every diagnostic code the sanitizer can emit.
CODES: dict[str, str] = {
    # -- static directive lint (SAN-Lxxx) ------------------------------
    "SAN-L001": "dependence clause names a parameter that is not in the "
                "task function's signature",
    "SAN-L002": "retired: an undeclared write to an inputs-only "
                "parameter is now reported as SAN-S001 (a waiver naming "
                "SAN-L002 suppresses nothing and is reported as SAN-L005)",
    "SAN-L003": "duplicate or conflicting clause entry (same parameter "
                "named twice, or by two different clauses)",
    "SAN-L004": "implements= version declares a clause set that disagrees "
                "with the main version (Table-I grouping would be unsound)",
    "SAN-L005": "a # san-ignore waiver suppresses nothing (stale waiver; "
                "remove it so real findings cannot hide behind it)",
    # -- static effect inference (SAN-S00x) ----------------------------
    "SAN-S001": "task body writes a parameter not declared output/inout "
                "(undeclared write inferred through subscript stores, "
                "kernel calls or aliases; WAR/WAW edges are never built)",
    "SAN-S002": "dead clause: the declared dependence can never be "
                "exercised by the task body (no read for an input, no "
                "write for an output) — the DAG is over-constrained",
    "SAN-S003": "inout clause is downgradable: the body only reads "
                "(declare input) or only writes (declare output) the "
                "parameter, so the clause serializes more than needed",
    "SAN-S004": "implements= versions disagree on inferred effects: one "
                "version writes a parameter another version provably "
                "does not touch (the versions are not interchangeable)",
    "SAN-S005": "task body reads a parameter declared output-only (the "
                "value read is stale/undefined before the first write)",
    # -- scheduler-contract lint (SAN-S01x) ----------------------------
    "SAN-S010": "scheduler mutates trace state (reassigns, clears or "
                "edits records); schedulers may only append via "
                "trace.add — the trace is the sanitizer's evidence",
    "SAN-S011": "scheduler pokes worker runtime state directly (alive, "
                "queue, current, busy_time, ...); state changes must go "
                "through the runtime",
    "SAN-S012": "a task_ready code path neither dispatches, pools nor "
                "delegates the ready task: the task would be silently "
                "dropped and the run would hang at taskwait",
    "SAN-S013": "process-global task uid emitted in a trace label/meta; "
                "use the run-local id (rt._local_ids) so identical runs "
                "produce identical traces (seeded-determinism contract)",
    # -- bounded protocol model checking (SAN-P00x) --------------------
    "SAN-P001": "notification protocol fired on_clear twice for one "
                "successor without an intervening send (double release)",
    "SAN-P002": "notification protocol deadlock: the system quiesced "
                "with a successor still waiting on undelivered "
                "notifications (the run would hang at taskwait)",
    "SAN-P003": "epoch fencing violated: a message from a crashed "
                "sender's dead incarnation was applied after the crash",
    "SAN-P004": "premature release: on_clear fired before every logical "
                "notification for the successor was delivered at least "
                "once (duplicate suppression is broken)",
    # -- dynamic dependence-race detection (SAN-Rxxx) ------------------
    "SAN-R001": "task body wrote a region not declared output/inout "
                "(task-level data race)",
    "SAN-R002": "task body read a region not declared input/inout "
                "(task-level data race)",
    "SAN-R003": "two distinct regions with overlapping address intervals "
                "entered the dependence graph (aliasing makes the DAG "
                "unsound)",
    "SAN-R010": "two tasks access overlapping regions, at least one "
                "writes, and no dependence path orders them (CONFIRMED "
                "race by happens-before analysis)",
    # -- trace invariant checking (SAN-Txxx) ---------------------------
    "SAN-T001": "two activity records overlap on one worker (a worker is "
                "a serial resource)",
    "SAN-T002": "a task started before one of its dependence "
                "predecessors finished",
    "SAN-T003": "an input transfer for a task completed after the "
                "consuming task had already started",
    "SAN-T004": "a dead or quarantined worker executed a task",
    "SAN-T005": "versioning-scheduler λ-count inconsistency: a size "
                "group received reliable-phase dispatches although some "
                "version has less than λ learning credit (recorded "
                "executions plus warm-start-policy-capped preloaded "
                "history)",
    "SAN-T006": "run accounting mismatch (completed-task counters, trace "
                "records and finish order disagree)",
    "SAN-T007": "a straggler detection was never acted on: no speculation "
                "launch or retry followed the straggler record",
    "SAN-T008": "a task completed more than once (a cancelled speculative "
                "loser must never also appear as a winner)",
    "SAN-T009": "a cross-shard successor started before its inter-node "
                "notification was delivered (the cluster protocol must "
                "hold it until every notification lands)",
    "SAN-T010": "cluster release-protocol violation: a task was released "
                "more than once, or on the strength of a notification "
                "that was dropped and never redelivered",
}


@dataclass(frozen=True)
class Diagnostic:
    """One sanitizer finding."""

    code: str
    message: str
    severity: Severity = Severity.ERROR
    #: static-lint location
    file: Optional[str] = None
    line: Optional[int] = None
    #: dynamic-analysis location
    task: Optional[str] = None
    region: Optional[str] = None
    worker: Optional[str] = None
    #: free-form extras (e.g. the missing clause kind for SAN-R001/2)
    meta: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def location(self) -> str:
        if self.file is not None:
            line = "?" if self.line is None else str(self.line)
            return f"{self.file}:{line}"
        parts = [p for p in (self.task, self.region, self.worker) if p]
        return " ".join(parts) if parts else "<run>"

    def render(self) -> str:
        return f"{self.location()}: {self.severity.value} {self.code}: {self.message}"

    def as_dict(self) -> dict:
        """JSON-serializable form (the ``--json`` CLI output)."""
        out: dict = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        for key in ("file", "line", "task", "region", "worker"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.meta:
            out["meta"] = list(self.meta)
        return out

    def fingerprint(self) -> tuple:
        """Stable identity for baseline matching (line numbers drift, so
        the fingerprint is (code, file, first message line))."""
        head = self.message.split("\n", 1)[0]
        return (self.code, self.file or "", head)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class SanitizerError(AssertionError):
    """Raised by strict validation when error-severity findings exist.

    Subclasses :class:`AssertionError` so existing test idioms
    (``pytest.raises(AssertionError)``) treat sanitizer failures like
    any other broken invariant.
    """

    def __init__(self, diagnostics: "list[Diagnostic]") -> None:
        self.diagnostics = diagnostics
        lines = [d.render() for d in diagnostics]
        super().__init__(
            f"{len(diagnostics)} sanitizer finding(s):\n" + "\n".join(lines)
        )


def errors(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    """The error-severity subset of ``diags``."""
    return [d for d in diags if d.severity is Severity.ERROR]


def raise_if_errors(diags: Iterable[Diagnostic]) -> None:
    bad = errors(diags)
    if bad:
        raise SanitizerError(bad)


def format_diagnostics(diags: "list[Diagnostic]") -> str:
    """Render findings one per line, most severe first (stable)."""
    if not diags:
        return "no findings"
    ordered = sorted(diags, key=lambda d: (d.severity, d.code, d.location()))
    return "\n".join(d.render() for d in ordered)
