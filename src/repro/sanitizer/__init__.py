"""Task-graph sanitizer: correctness tooling for the OmpSs reproduction.

Six analyses, one diagnostic model:

* **Static directive lint** (:mod:`repro.sanitizer.lint`, SAN-L*) —
  AST inspection of ``@task``/``@target`` declarations: clause names
  missing from the signature, duplicate clause entries,
  ``implements=`` clause-set mismatches.
* **Effect inference** (:mod:`repro.sanitizer.static.effects`,
  SAN-S001..S005) — per-parameter read/write footprints inferred from
  task bodies (including calls and aliases) diffed against the declared
  clauses: undeclared writes (a store into an inputs-only parameter
  included), dead clauses, downgradable inouts, ``implements=`` effect
  disagreements, stale reads of outputs.
* **Scheduler-contract lint** (:mod:`repro.sanitizer.static.contracts`,
  SAN-S010..S013) — scheduler/cluster code mutating the trace or worker
  state it does not own, ``task_ready`` paths that can silently drop a
  task, raw ``uid`` leaking into labels/metadata.
* **Protocol model checking** (:mod:`repro.sanitizer.static.modelcheck`,
  SAN-P001..P004) — bounded exhaustive exploration of the cluster
  notification protocol under adversarial drop/duplicate/delay/crash
  schedules, with message-sequence-chart counterexamples.
* **Dependence-race detection** (:mod:`repro.sanitizer.races`, SAN-R*)
  — actual reads/writes of executed kernel bodies diffed against the
  declared clauses, plus a happens-before check over the completed DAG.
* **Trace invariant checking** (:mod:`repro.sanitizer.invariants`,
  SAN-T*) — per-worker overlap, dependence ordering, transfer ordering,
  quarantine/death windows, λ-count consistency, run accounting.

CLI: ``python -m repro.sanitizer [paths...]`` runs the one static pass
(directive lint, effect inference and contract lint) over a source
tree; ``--protocol`` adds the model-checking suite.
``RunResult.validate()`` covers the dynamic analyses (``static=True``
adds the effect pre-flight over the run's task definitions).  Findings carry stable codes (see
:data:`repro.sanitizer.CODES`); a static finding can be waived with a
``# san-ignore: SAN-xxxx`` comment on the flagged line (stale waivers
are themselves reported as SAN-L005).
"""

from repro.sanitizer.diagnostics import (
    CODES,
    Diagnostic,
    SanitizerError,
    Severity,
    errors,
    format_diagnostics,
    raise_if_errors,
)
from repro.sanitizer.invariants import check_run, check_trace, validate_run
from repro.sanitizer.races import (
    AccessRecorder,
    check_happens_before,
    declared_vs_actual,
)
from repro.sanitizer.waivers import (
    Waiver,
    apply_waivers,
    scan_waivers,
    unused_waiver_diagnostics,
)

__all__ = [
    "CODES",
    "Diagnostic",
    "SanitizerError",
    "Severity",
    "errors",
    "format_diagnostics",
    "raise_if_errors",
    "check_run",
    "check_trace",
    "validate_run",
    "AccessRecorder",
    "check_happens_before",
    "declared_vs_actual",
    "Waiver",
    "apply_waivers",
    "scan_waivers",
    "unused_waiver_diagnostics",
]
