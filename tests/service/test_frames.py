"""Byte identity of everything the service writes about a result.

A result is encoded once, into canonical text, and that text is spliced
into the journal line, the snapshot and every reply frame.  These tests
pin the bytes:

* the journal and snapshot files a fixed insert sequence produces equal
  ``fixtures/cache_files.json``, written by the encoder that dumped each
  record whole (``json.dumps(..., sort_keys=True)``);
* over TCP, every reply frame (a cold submission, a hit, a hit replayed
  from the journal after a kill, a hit loaded from the snapshot after a
  clean restart, an error) is ``json.dumps(response, sort_keys=True)``
  of the response it decodes to, plus a newline.

Regenerate the fixture only after an intentional format change::

    PYTHONPATH=src python -m tests.service.test_frames --write
"""

from __future__ import annotations

import argparse
import json
import socket
from pathlib import Path
from typing import Optional

from repro.service.cache import CacheKey, ResultCache
from repro.service.server import ServiceConfig, ServiceHarness

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "cache_files.json"


def _key(n: int, seed: int = 0) -> CacheKey:
    return CacheKey(f"gfp:{n:016x}", "mfp:0123", '{"scheduler":"versioning"}', seed,
                    '{"prefetch":false}' if n % 2 else "{}")


#: (key, payload, meta) inserted in order: unsorted and nested keys,
#: floats that need every digit, non-ASCII text, non-finite floats,
#: big integers, empty containers
ENTRIES = [
    (_key(1), {
        "makespan": 0.1,
        "trace": {"schema": "t/1", "records": [[0.0, 1e-9, "w:gpu0", "task", "t#1", [1]]]},
        "z": None, "a": True, "tasks_completed": 3,
    }, {"app": "matmul", "tenant": "t0"}),
    (_key(2), {
        "ünïcode": "héllo ☃ \U0001f600", "nested": {
            "b": [1, 2.5, -0.0, 1e300, 5e-324], "a": {"y": 1, "x": 2}},
        "inf": float("inf"), "ninf": float("-inf"),
    }, {"app": "cholesky", "tenant": "ténant"}),
    (_key(3, seed=7), {}, {}),
    (_key(4), {"list": [], "big": 2**70, "neg": -3, "f": 0.30000000000000004,
               "s": "quote\" backslash\\ tab\t nl\n"}, {"app": "pbpi"}),
]
#: inserted after the snapshot is reloaded: a fresh journal
LATE_ENTRY = (_key(5, seed=3), {"after": "reload", "v": [0.1, 0.2]}, {"tenant": "t1"})


def write_cache_files(root: Path) -> dict[str, str]:
    """Run the fixed insert sequence; return every file it wrote, as text."""
    path = root / "cache.json"
    cache = ResultCache(path)
    for key, payload, meta in ENTRIES:
        cache.insert(key, payload, meta=meta)
    for key in (_key(1), _key(2), _key(1), _key(9)):
        cache.lookup(key)
    cache.close()
    journal = cache.journal_path.read_text()
    cache.save()
    snapshot = path.read_text()
    reloaded = ResultCache(path)
    key, payload, meta = LATE_ENTRY
    reloaded.insert(key, payload, meta=meta)
    reloaded.close()
    late_journal = reloaded.journal_path.read_text()
    reloaded.save()
    return {
        "journal": journal,
        "snapshot": snapshot,
        "late_journal": late_journal,
        "late_snapshot": path.read_text(),
    }


def test_journal_and_snapshot_bytes_match_fixture(tmp_path):
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        want = json.load(fh)
    assert write_cache_files(tmp_path) == want


def test_replayed_and_loaded_entries_equal_inserted(tmp_path):
    write_cache_files(tmp_path)
    loaded = ResultCache(tmp_path / "cache.json")
    for key, payload, _meta in [*ENTRIES, LATE_ENTRY]:
        got = loaded.lookup(key)
        assert type(got) is dict and got == payload
        assert json.dumps(got, sort_keys=True) == json.dumps(payload, sort_keys=True)
        assert loaded.lookup(key, encoded=True).text == json.dumps(payload, sort_keys=True)
    # the journal alone (a kill before any snapshot) restores the same
    journal_only = tmp_path / "killed"
    journal_only.mkdir()
    cache = ResultCache(journal_only / "cache.json")
    for key, payload, meta in ENTRIES:
        cache.insert(key, payload, meta=meta)
    cache.close()
    replayed = ResultCache(journal_only / "cache.json")
    assert replayed.stats.journal_replayed == len(ENTRIES)
    for key, payload, _meta in ENTRIES:
        assert replayed.lookup(key) == payload


# ----------------------------------------------------------------------
# Reply frames over TCP
# ----------------------------------------------------------------------
SPEC = {
    "app": "matmul",
    "app_args": {"n_tiles": 2, "variant": "hyb"},
    "machine_args": {"n_smp": 2, "n_gpus": 1},
    "seed": 5,
}


class _Wire:
    """One raw NDJSON connection: frames in, frames out, bytes kept."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(tuple(address), timeout=60)
        self.reader = self.sock.makefile("rb")

    def ask(self, request: dict) -> bytes:
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        return self.reader.readline()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _canonical(frame: bytes) -> dict:
    """The frame's response, after checking the frame is its canonical text."""
    assert frame.endswith(b"\n")
    response = json.loads(frame)
    assert frame == json.dumps(response, sort_keys=True).encode() + b"\n"
    return response


def _serve(cache_path: Path) -> ServiceHarness:
    return ServiceHarness(ServiceConfig(workers=1, cache_path=str(cache_path)),
                          tcp=True).start()


def test_reply_frames_are_canonical_across_restarts(tmp_path):
    cache_path = tmp_path / "cache.json"
    harness = _serve(cache_path)
    wire = _Wire(harness.address)
    try:
        cold = _canonical(wire.ask({"op": "submit", "id": "cold", "spec": SPEC}))
        hit = _canonical(wire.ask({"op": "submit", "id": "hit", "spec": SPEC}))
        error = _canonical(wire.ask({"op": "submit", "id": "bad",
                                     "spec": {"app": "no-such-app"}}))
        inproc = harness.request({"op": "submit", "id": "local", "spec": SPEC})
    finally:
        wire.close()
    harness.kill()  # no snapshot: the restart replays the journal
    assert (cold["ok"], cold["cached"], hit["ok"], hit["cached"]) == (True, False, True, True)
    assert error["ok"] is False and error["error"]["code"] == "bad-spec"
    result_text = json.dumps(cold["result"], sort_keys=True)
    assert json.dumps(hit["result"], sort_keys=True) == result_text
    # the in-process transport hands out a plain dict equal to the wire's
    assert type(inproc["result"]) is dict and inproc["result"] == cold["result"]
    assert not cache_path.exists() and Path(str(cache_path) + ".journal").exists()

    for restart in ("journal", "snapshot"):
        harness = _serve(cache_path)
        wire = _Wire(harness.address)
        try:
            replayed = _canonical(wire.ask({"op": "submit", "id": restart, "spec": SPEC}))
        finally:
            wire.close()
            harness.stop()  # clean: the next restart loads the snapshot
        assert replayed["cached"] is True, restart
        assert json.dumps(replayed["result"], sort_keys=True) == result_text
        assert cache_path.exists()


def main(argv: Optional[list[str]] = None) -> int:
    import tempfile

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"rewrite {FIXTURE_PATH.name} from this tree")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        files = write_cache_files(Path(tmp))
    for name, text in files.items():
        print(f"{name}: {len(text)} chars")
    if args.write:
        FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
        with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
            json.dump(files, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

