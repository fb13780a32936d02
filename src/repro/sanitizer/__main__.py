"""``python -m repro.sanitizer`` — static analysis of a source tree.

``python -m repro.sanitizer PATHS`` runs the one static pass: directive
lint (SAN-L*), AST effect inference (SAN-S00x) and scheduler-contract
lint (SAN-S01x), with the ``# san-ignore`` waivers judged once across
all three.  ``--protocol`` additionally runs the bounded protocol model
checker (SAN-P00x) over the shipped NotificationRouter (no paths
required); ``--small`` keeps it to the quick scenarios.

Exit status: 0 when no error-severity findings (warnings alone do not
fail; ``--strict`` promotes them), 1 when errors (or strict-promoted
warnings) remain, 2 on usage errors (no paths and no ``--protocol``,
or ``--small`` without ``--protocol``).  ``--json`` prints findings as a
JSON document for tooling; ``--baseline FILE`` filters findings accepted
in a previous ``--write-baseline FILE`` run.  ``--list-codes`` documents
every diagnostic the sanitizer (CLI *and* runtime analyses) can emit.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.sanitizer.diagnostics import CODES, Severity, format_diagnostics
from repro.sanitizer.static import (
    apply_baseline,
    check_static,
    load_baseline,
    write_baseline,
)


def _list_codes() -> str:
    width = max(len(c) for c in CODES)
    return "\n".join(f"{code:<{width}}  {desc}" for code, desc in sorted(CODES.items()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description="Static analysis for the OmpSs reproduction source tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyse (directories are walked for *.py)",
    )
    parser.add_argument(
        "--protocol",
        action="store_true",
        help="also model-check the cluster notification protocol "
        "(paths become optional)",
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="with --protocol: only the quick scenarios (pre-commit budget)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings too, not just errors",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print findings as a JSON document instead of text",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="filter findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write current findings to FILE as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print every diagnostic code with its meaning and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line (findings are still printed)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_codes:
        print(_list_codes())
        return 0
    if args.small and not args.protocol:
        parser.print_usage(sys.stderr)
        print("error: --small only applies with --protocol", file=sys.stderr)
        return 2
    if not args.paths and not args.protocol:
        parser.print_usage(sys.stderr)
        print(
            "error: no paths given (or use --protocol / --list-codes)",
            file=sys.stderr,
        )
        return 2

    try:
        diags = check_static(args.paths, protocol=args.protocol, small=args.small)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        n = write_baseline(diags, args.write_baseline)
        if not args.quiet:
            print(f"sanitizer: wrote {n} baseline entries to "
                  f"{args.write_baseline}")
        return 0

    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        diags = apply_baseline(diags, baseline, baseline_path=args.baseline)

    n_err = sum(1 for d in diags if d.severity is Severity.ERROR)
    n_warn = sum(1 for d in diags if d.severity is Severity.WARNING)

    if args.as_json:
        print(json.dumps(
            {
                "findings": [d.as_dict() for d in diags],
                "errors": n_err,
                "warnings": n_warn,
            },
            indent=2,
        ))
    else:
        if diags:
            print(format_diagnostics(diags))
        if not args.quiet:
            print(
                f"sanitizer: {n_err} error(s), {n_warn} warning(s)"
                if diags
                else "sanitizer: clean"
            )
    if n_err:
        return 1
    if args.strict and n_warn:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
