"""The static analysis layer: effects, contracts, protocol model checking.

Three source-level analyses share one driver:

* :mod:`repro.sanitizer.static.effects` — AST effect inference of task
  bodies diffed against their declared clauses (SAN-S001..S005),
* :mod:`repro.sanitizer.static.contracts` — scheduler/cluster contract
  lint (SAN-S010..S013),
* :mod:`repro.sanitizer.static.modelcheck` — bounded exploration of the
  cluster notification protocol (SAN-P001..P004).

:func:`check_static` is the one static pass: it runs the first two
together with the directive lint (SAN-L*) over a file set, does waiver
accounting (a ``# san-ignore`` that suppressed nothing anywhere in the
combined pass is reported as SAN-L005), and optionally appends the
protocol verification suite.

A **baseline** file records accepted findings by fingerprint so a gate
can be introduced into a tree with pre-existing findings: baselined
diagnostics are filtered out, and baseline entries that no longer match
anything are reported (as SAN-L005 warnings) so the file shrinks to
empty over time rather than fossilizing.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional, Sequence

from repro.sanitizer.diagnostics import Diagnostic, Severity
from repro.sanitizer.lint import (
    DirectiveLinter,
    _iter_py_files,
    collect_lint,
    collect_waivers,
)
from repro.sanitizer.static.contracts import (
    check_contract_files,
    check_contract_paths,
)
from repro.sanitizer.static.effects import (
    check_definitions,
    check_effect_paths,
    check_effects,
)
from repro.sanitizer.static.modelcheck import (
    Scenario,
    ablation_scenario,
    check_protocol,
    default_scenarios,
    explore,
    render_msc,
)
from repro.sanitizer.waivers import (
    apply_waivers,
    unused_waiver_diagnostics,
)

__all__ = [
    "check_static",
    "check_definitions",
    "check_effects",
    "check_effect_paths",
    "check_contract_files",
    "check_contract_paths",
    "check_protocol",
    "default_scenarios",
    "ablation_scenario",
    "explore",
    "render_msc",
    "Scenario",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
]


def check_static(
    paths: Iterable[str],
    *,
    protocol: bool = False,
    small: bool = False,
) -> list[Diagnostic]:
    """Run every static analysis over the given files/directories.

    Directive lint, effect inference and contract lint findings are
    combined, waivers applied once across all of them, and unused
    waivers reported (full accounting: every code family ran, so a
    waiver that suppressed nothing is definitely stale).  With
    ``protocol`` the model-checking suite runs too (its findings are
    not waivable — they are properties of the shipped router, not of a
    source line).
    """
    files = _iter_py_files(paths)
    diags: list[Diagnostic] = []
    waivers = []
    if files:
        linter = DirectiveLinter(files)
        diags.extend(collect_lint(linter))
        diags.extend(check_effects(linter))
        diags.extend(check_contract_files(files))
        waivers = collect_waivers(linter)
    kept = apply_waivers(diags, waivers)
    kept.extend(unused_waiver_diagnostics(waivers))
    if protocol:
        kept.extend(check_protocol(small=small))
    kept.sort(key=lambda d: (d.file or "", d.line or 0, d.code))
    return kept


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
_BASELINE_VERSION = 1


def load_baseline(path: str) -> "set[tuple]":
    """Accepted-finding fingerprints from a baseline JSON file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("version") != _BASELINE_VERSION:
        raise ValueError(
            f"{path}: not a sanitizer baseline (expected version "
            f"{_BASELINE_VERSION})"
        )
    return {tuple(entry) for entry in data.get("entries", [])}


def write_baseline(diags: Sequence[Diagnostic], path: str) -> int:
    """Write the findings' fingerprints as a baseline; returns count."""
    entries = sorted({d.fingerprint() for d in diags})
    payload = {"version": _BASELINE_VERSION, "entries": [list(e) for e in entries]}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return len(entries)


def apply_baseline(
    diags: Sequence[Diagnostic],
    baseline: "set[tuple]",
    *,
    baseline_path: Optional[str] = None,
) -> list[Diagnostic]:
    """Filter baselined findings; report entries that matched nothing.

    Stale baseline entries get a SAN-L005 warning (same code as stale
    waivers: both are suppressions that no longer suppress anything).
    """
    kept: list[Diagnostic] = []
    used: set[tuple] = set()
    for d in diags:
        fp = d.fingerprint()
        if fp in baseline:
            used.add(fp)
        else:
            kept.append(d)
    for fp in sorted(baseline - used):
        code, file, head = (tuple(fp) + ("", "", ""))[:3]
        kept.append(Diagnostic(
            code="SAN-L005",
            message=(
                f"baseline entry ({code}, {file!r}, {head!r}) matches no "
                "current finding; remove it from "
                f"{baseline_path or 'the baseline file'}"
            ),
            severity=Severity.WARNING,
            file=file or None,
        ))
    return kept
