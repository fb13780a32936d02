"""Run the scheduler service with the benchmark's layer wrappers installed.

    python benchmarks/perf/traced_server.py --spans-out FILE -- serve --port 0 ...

Everything after ``--`` goes to ``python -m repro.service``.  When the
server exits (SIGTERM drains it), the span aggregates, the service-stage
spans and the queue wait of every admitted job are written to FILE as
JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import layers

#: Spans kept in full: the service stages and the job roots.
KEEP = frozenset({
    "root.job", "svc.parse", "svc.admit", "svc.fingerprint", "svc.build",
    "svc.cache.lookup", "svc.cache.insert", "svc.simulate", "svc.serialize",
    "sanitizer.validate_run",
})


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans-out", required=True)
    ap.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    tracer = layers.Tracer(keep_names=KEEP)
    inst = layers.install(tracer, layers.SERVICE_GROUPS)
    from repro.service.__main__ import main as service_main

    tracer.active = True
    try:
        code = service_main(serve_args)
    finally:
        tracer.active = False
        inst.restore()
    waits = [job.started_at - job.submitted_at
             for job in tracer.jobs if job.started_at is not None]
    with open(args.spans_out, "w") as fh:
        json.dump({
            "stats": tracer.stats(),
            "counts": tracer.counts,
            "spans": tracer.spans(),
            "queue_waits": waits,
            "missing": inst.missing,
        }, fh, default=str)
    return code


if __name__ == "__main__":
    sys.exit(main())
