"""Waiver comments shared by every static analysis.

A finding is waived by putting ``# san-ignore: <CODE>[, <CODE>...]`` (or
``# san-ignore: all``) on the reported line.  This module is the single
implementation of waiver parsing, application and *unused-waiver*
detection: a waiver that suppresses nothing is itself reported
(SAN-L005), so dead waivers cannot silently mask future findings on the
same line.

The static pass (``check_static``) runs every static analysis before it
judges the waivers, so each waiver is judged once against all findings.
A waiver naming a code no analysis emits any more (the retired
SAN-L002) suppresses nothing and is reported.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.sanitizer.diagnostics import Diagnostic, Severity

WAIVE_TOKEN = "san-ignore"

_WAIVE_RE = re.compile(r"#\s*san-ignore\s*:?\s*(?P<codes>[A-Za-z0-9_,\-\s]*)")
_CODE_RE = re.compile(r"SAN-[A-Z]\d{3}")


@dataclass
class Waiver:
    """One ``# san-ignore`` comment found in a source file."""

    file: str
    line: int
    #: waived codes; empty means ``all``
    codes: frozenset[str]
    raw: str = ""
    used: bool = field(default=False, compare=False)

    def covers(self, code: str) -> bool:
        return not self.codes or code in self.codes


def parse_waiver(text: str) -> "frozenset[str] | None":
    """The waived code set of one source line, or None when unwaived.

    An empty frozenset means ``all`` (waive every code on the line).
    """
    m = _WAIVE_RE.search(text)
    if m is None:
        return None
    spec = m.group("codes")
    codes = frozenset(_CODE_RE.findall(spec))
    if codes:
        return codes
    # ": all" spelling, or a bare token (kept for backward compat)
    return frozenset()


def scan_waivers(path: str, lines: Sequence[str]) -> list[Waiver]:
    """Every waiver comment in one file's source lines.

    Tokenizes rather than regex-scanning the raw lines so that prose
    *describing* the waiver syntax (docstrings, string literals) is not
    mistaken for a waiver.
    """
    out: list[Waiver] = []
    src = "".join(t if t.endswith("\n") else t + "\n" for t in lines)
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(src).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT or WAIVE_TOKEN not in tok.string:
            continue
        codes = parse_waiver(tok.string)
        if codes is not None:
            out.append(Waiver(
                file=path, line=tok.start[0], codes=codes,
                raw=tok.string.strip(),
            ))
    return out


def apply_waivers(
    diags: Iterable[Diagnostic], waivers: Sequence[Waiver]
) -> list[Diagnostic]:
    """Drop waived diagnostics, marking the waivers that fired as used."""
    index: dict[tuple[str, int], list[Waiver]] = {}
    for w in waivers:
        index.setdefault((w.file, w.line), []).append(w)
    kept: list[Diagnostic] = []
    for d in diags:
        if d.file is None or d.line is None:
            kept.append(d)
            continue
        hit = False
        for w in index.get((d.file, d.line), ()):
            if w.covers(d.code):
                w.used = True
                hit = True
        if not hit:
            kept.append(d)
    return kept


def unused_waiver_diagnostics(waivers: Sequence[Waiver]) -> list[Diagnostic]:
    """SAN-L005 findings for waivers that suppressed nothing."""
    out: list[Diagnostic] = []
    for w in waivers:
        if w.used:
            continue
        what = ", ".join(sorted(w.codes)) if w.codes else "all"
        out.append(Diagnostic(
            code="SAN-L005",
            message=(
                f"waiver for {what} suppresses nothing on this line; "
                "remove the stale # san-ignore comment"
            ),
            severity=Severity.WARNING,
            file=w.file,
            line=w.line,
        ))
    return out
