"""The service's result cache.

Simulated runs are deterministic given ``(graph, machine, scheduler,
seed)``, so the service never simulates the same submission twice: the
first run's serialized :class:`~repro.runtime.runtime.RunResult` is
parked under a :class:`CacheKey` and repeated submissions are answered
from memory, byte-identical to the original.

A result is encoded once.  :meth:`ResultCache.insert` turns the payload
into its canonical text, ``json.dumps(payload, sort_keys=True)``, and
the entry keeps only that text (about 2.3x smaller than the dict).  The
journal line, the snapshot and every reply frame splice the same text
in, so their bytes are what dumping each whole record would give.  The
server looks results up as :class:`EncodedResult` (``encoded=True``), so
a hit over TCP is answered without decoding or encoding the payload;
every other lookup decodes the text into a plain dict.

The key's terms:

* ``graph_fp`` — the canonical graph fingerprint
  (:func:`repro.runtime.fingerprint.graph_fingerprint`),
* ``machine_fp`` — the machine-calibration digest
  (:func:`repro.sim.calibrate.machine_fingerprint`); re-calibrating a
  device changes it, so stale results fall out of reach automatically
  and :meth:`ResultCache.invalidate_machine` reclaims their entries,
* ``scheduler_key`` — policy name + options + shared-pool flag,
* ``seed`` — the submission's noise seed (deliberately *not* part of
  the machine fingerprint, mirroring the profile store's rationale),
* ``config_key`` — canonical JSON of the spec's runtime-config
  overrides (prefetch, overlap, ...); they change simulation results,
  so an overlap on/off ablation must occupy two entries, not one.

Persistence is crash-safe in two layers:

* **snapshots** — the full store written atomically (temp file +
  ``os.replace``) by :meth:`ResultCache.save`, following ``repro.store``
  conventions;
* an **append-only journal** (``<path>.journal``, NDJSON) recording
  every insert between snapshots.  On startup the snapshot is loaded
  and the journal replayed on top, so killing the server mid-write
  loses at most the entry being appended — never the store.  ``save``
  truncates the journal it just folded in.

A corrupted or truncated snapshot (or journal with an alien schema) is
quarantined to ``<file>.corrupt`` with a warning and the cache starts
cold — persistence failures degrade, they never kill the server.  All
public methods are thread-safe — simulator workers call them from
worker threads.
"""

from __future__ import annotations

import io
import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

log = logging.getLogger(__name__)

CACHE_SCHEMA = "repro.result-cache/2"  # v2: cache keys grew a config term

PathLike = Union[str, Path]

#: Called with ``"journal"`` or ``"snapshot"`` before each persistence
#: write; returning True makes the write fail with OSError.  Wired to
#: :meth:`repro.service.chaos.ServiceFaultInjector.persist_fault`.
PersistFaultHook = Callable[[str], bool]


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cacheable submission."""

    graph_fp: str
    machine_fp: str
    scheduler_key: str
    seed: int
    config_key: str = "{}"

    def encode(self) -> str:
        """Stable string form used in the persistence payload."""
        return json.dumps(
            [
                self.graph_fp,
                self.machine_fp,
                self.scheduler_key,
                self.seed,
                self.config_key,
            ],
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def decode(cls, encoded: str) -> "CacheKey":
        graph_fp, machine_fp, scheduler_key, seed, config_key = json.loads(encoded)
        return cls(graph_fp, machine_fp, scheduler_key, int(seed), config_key)


@dataclass
class ResultCacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidated: int = 0
    journal_appends: int = 0
    journal_replayed: int = 0
    persist_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
            "journal_appends": self.journal_appends,
            "journal_replayed": self.journal_replayed,
            "persist_errors": self.persist_errors,
            "hit_rate": self.hit_rate,
        }


def _canonical_text(payload: Any) -> str:
    """The canonical text of a result payload."""
    return json.dumps(payload, sort_keys=True)


class EncodedResult:
    """A result payload held as its canonical text.

    ``text`` is what every transport and file splices in; ``payload``
    decodes it once, on first access, unless the payload it was encoded
    from was handed in.
    """

    __slots__ = ("text", "_payload")

    def __init__(self, text: str, payload: Optional[dict] = None) -> None:
        self.text = text
        self._payload = payload

    @property
    def payload(self) -> dict:
        """The decoded payload (a plain dict)."""
        if self._payload is None:
            self._payload = json.loads(self.text)
        return self._payload

    def __repr__(self) -> str:
        return f"EncodedResult({len(self.text)} chars)"


@dataclass
class _Entry:
    text: str
    hits: int = 0
    meta: dict = field(default_factory=dict)

    def record(self, head: str) -> Iterator[str]:
        """Pieces of the entry's persisted record with keys in sorted
        order, ``{<head>, "meta": ..., "result": <text>}``: ``head`` is
        ``"hits": n`` in the snapshot and ``"key": ...`` in the journal."""
        yield f'{{{head}, "meta": {json.dumps(self.meta, sort_keys=True)}, "result": '
        yield self.text
        yield "}"


class ResultCache:
    """Thread-safe LRU map from :class:`CacheKey` to result payloads."""

    def __init__(
        self,
        path: Optional[PathLike] = None,
        *,
        max_entries: Optional[int] = 1024,
        journal: bool = True,
        persist_fault: Optional[PersistFaultHook] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.path = Path(path) if path is not None else None
        self.journal_path = (
            self.path.with_name(self.path.name + ".journal")
            if self.path is not None and journal
            else None
        )
        self.max_entries = max_entries
        self.stats = ResultCacheStats()
        self._persist_fault = persist_fault
        self._journal_fh: Optional[io.TextIOWrapper] = None
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        if self.path is not None:
            self._load()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self, key: CacheKey, *, encoded: bool = False
    ) -> Union[dict, EncodedResult, None]:
        """The cached result for ``key``, or None (counted).

        A hit is a plain dict decoded from the entry's text, or with
        ``encoded=True`` the :class:`EncodedResult` over the text itself,
        which the server splices into reply frames undecoded.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            entry.hits += 1
            self.stats.hits += 1
            self._entries.move_to_end(key)
            text = entry.text
        return EncodedResult(text) if encoded else json.loads(text)

    def insert(
        self, key: CacheKey, payload: dict, *, meta: Optional[dict] = None
    ) -> EncodedResult:
        """Encode and park one result payload; evicts the LRU entry when full.

        The payload is encoded here, once, outside the lock; the returned
        :class:`EncodedResult` carries that text and the payload itself.
        With a journal configured the entry is also appended to it
        (flushed), so a kill before the next snapshot cannot lose it.
        A failed append degrades to warning + counter — the in-memory
        entry is unaffected.
        """
        text = _canonical_text(payload)
        entry = _Entry(text=text, meta=dict(meta or {}))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.insertions += 1
            while self.max_entries is not None and len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._append_journal(key, entry)
        return EncodedResult(text, payload)

    def invalidate_machine(self, machine_fp: str) -> int:
        """Drop every entry recorded under ``machine_fp``.

        New submissions on a re-calibrated machine already miss (the
        fingerprint is part of the key); this reclaims the dead weight.
        """
        with self._lock:
            stale = [k for k in self._entries if k.machine_fp == machine_fp]
            for k in stale:
                del self._entries[k]
            self.stats.invalidated += len(stale)
            return len(stale)

    # ------------------------------------------------------------------
    # Persistence: atomic snapshots + an append-only journal between them
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, reason: str) -> None:
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            log.warning("cache file %s is %s and could not be quarantined", path, reason)
            return
        log.warning(
            "cache file %s is %s; quarantined to %s and starting cold", path, reason, target
        )

    def _load(self) -> None:
        self._load_snapshot()
        self._replay_journal()

    def _load_snapshot(self) -> None:
        assert self.path is not None
        if not self.path.exists():
            return
        try:
            payload = json.loads(self.path.read_text())
        except OSError:
            return  # unreadable cache = cold cache, never a dead server
        except json.JSONDecodeError:
            self._quarantine(self.path, "corrupt (not valid JSON)")
            return
        if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA:
            self._quarantine(self.path, f"not a {CACHE_SCHEMA} payload")
            return
        entries = payload.get("entries", {})
        if not isinstance(entries, dict):
            self._quarantine(self.path, "malformed (entries is not an object)")
            return
        for encoded, record in entries.items():
            try:
                key = CacheKey.decode(encoded)
                self._entries[key] = _Entry(
                    text=_canonical_text(record["result"]),
                    hits=int(record.get("hits", 0)),
                    meta=dict(record.get("meta", {})),
                )
            except (KeyError, TypeError, ValueError):
                continue  # skip the one bad entry, keep the rest

    def _replay_journal(self) -> None:
        """Fold journal appends (since the last snapshot) into memory.

        A truncated or corrupt line ends the replay — that is the entry
        that was mid-write when the server died, and nothing after it
        can be trusted to be in order.
        """
        if self.journal_path is None or not self.journal_path.exists():
            return
        try:
            text = self.journal_path.read_text()
        except OSError:
            return
        replayed = 0
        for lineno, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                log.warning(
                    "cache journal %s: stopping replay at corrupt/truncated line %d "
                    "(%d entries recovered)",
                    self.journal_path, lineno + 1, replayed,
                )
                break
            if lineno == 0:
                if not isinstance(record, dict) or record.get("schema") != CACHE_SCHEMA:
                    self._quarantine(self.journal_path, f"not a {CACHE_SCHEMA} journal")
                    return
                continue
            try:
                key = CacheKey.decode(record["key"])
                self._entries[key] = _Entry(
                    text=_canonical_text(record["result"]),
                    hits=int(record.get("hits", 0)),
                    meta=dict(record.get("meta", {})),
                )
                self._entries.move_to_end(key)
                replayed += 1
            except (KeyError, TypeError, ValueError):
                continue  # one bad record, keep replaying
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self.stats.journal_replayed = replayed

    def _append_journal(self, key: CacheKey, entry: _Entry) -> None:
        """Append one insert to the journal (caller holds the lock)."""
        if self.journal_path is None:
            return
        try:
            if self._persist_fault is not None and self._persist_fault("journal"):
                raise OSError("injected journal write failure")
            if self._journal_fh is None or self._journal_fh.closed:
                self.journal_path.parent.mkdir(parents=True, exist_ok=True)
                fresh = (
                    not self.journal_path.exists()
                    or self.journal_path.stat().st_size == 0
                )
                self._journal_fh = open(self.journal_path, "a")
                if fresh:
                    self._journal_fh.write(
                        json.dumps({"schema": CACHE_SCHEMA}, sort_keys=True) + "\n"
                    )
            head = f'"key": {json.dumps(key.encode())}'
            self._journal_fh.write("".join(entry.record(head)) + "\n")
            self._journal_fh.flush()
            self.stats.journal_appends += 1
        except OSError as exc:
            self.stats.persist_errors += 1
            log.warning("cache journal append failed (entry stays in memory): %s", exc)
            # the handle may be mid-line; reopen on the next append
            if self._journal_fh is not None:
                try:
                    self._journal_fh.close()
                except OSError:
                    pass
                self._journal_fh = None

    def save(self) -> Optional[Path]:
        """Atomically snapshot the cache, then truncate the journal.

        No-op without a path.  A failed snapshot degrades to warning +
        counter and *keeps* the journal — nothing persisted is lost.
        """
        if self.path is None:
            return None
        with self._lock:
            try:
                if self._persist_fault is not None and self._persist_fault("snapshot"):
                    raise OSError("injected snapshot write failure")
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "w") as fh:
                        self._write_snapshot(fh)
                    os.replace(tmp, self.path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except OSError as exc:
                self.stats.persist_errors += 1
                log.warning("cache snapshot failed (journal kept): %s", exc)
                return None
            # the snapshot holds everything; the journal is now redundant
            if self._journal_fh is not None:
                try:
                    self._journal_fh.close()
                except OSError:
                    pass
                self._journal_fh = None
            if self.journal_path is not None and self.journal_path.exists():
                try:
                    os.unlink(self.journal_path)
                except OSError:
                    pass
        return self.path

    def _write_snapshot(self, fh: io.TextIOBase) -> None:
        """``json.dump({"entries": ..., "schema": ...}, fh, sort_keys=True)``
        of the whole store, streamed with each result's text spliced in
        (caller holds the lock)."""
        fh.write('{"entries": {')
        records = sorted(
            ((key.encode(), e) for key, e in self._entries.items()), key=lambda r: r[0]
        )
        for i, (encoded, entry) in enumerate(records):
            fh.write(f"{', ' if i else ''}{json.dumps(encoded)}: ")
            fh.writelines(entry.record(f'"hits": {entry.hits}'))
        fh.write(f'}}, "schema": {json.dumps(CACHE_SCHEMA)}}}')

    def close(self) -> None:
        """Release the journal handle (entries stay journaled on disk)."""
        with self._lock:
            if self._journal_fh is not None:
                try:
                    self._journal_fh.close()
                except OSError:
                    pass
                self._journal_fh = None


__all__ = [
    "CACHE_SCHEMA",
    "CacheKey",
    "EncodedResult",
    "ResultCache",
    "ResultCacheStats",
]
