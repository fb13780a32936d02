"""The durable profile store.

:class:`ProfileStore` wraps one on-disk store file and provides the
run-lifecycle operations the runtime integration uses:

* :meth:`hints` — decayed warm-start snapshot for a new scheduler,
* :meth:`begin_run` — open a run against the store: load the current
  generation, invalidate it if the device-calibration fingerprint
  changed, and age every entry by one run,
* :meth:`checkpoint` / :meth:`commit` — durably snapshot a (possibly
  still running) scheduler's learning tables, atomically and with
  rotation, merging the aged pre-run baseline back in unless the run
  was warm-started from this same store (in which case the live table
  *is* the continuation of the baseline and merging would double-count),
* :meth:`absorb` — the batch form used by ``repro.reproduce``: fold the
  final tables of one or more completed runs into the store in a single
  aging step.

Concurrency: every generation write happens under an advisory
``fcntl.flock`` on a ``<name>.lock`` sidecar (POSIX only — a no-op where
:mod:`fcntl` is unavailable), polled non-blocking until ``lock_timeout``
and then failing loudly with :class:`StoreLockTimeoutError`.  While the
lock is held, a write first folds in whatever another process committed
since this run read its baseline, so concurrent runs sharing one store
lose neither side's learning.

Everything raises :class:`repro.store.format.StoreError` subclasses with
precise messages; a corrupt store is never silently overwritten (the
previous generation survives as ``<name>.bak``).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from repro.store.format import (
    PathLike,
    StoreError,
    empty_payload,
    migrate_legacy,
    read_payload,
    validate_payload,
    write_payload,
)
from repro.store.merge import DEFAULT_DECAY, age_payload, merge_payloads, to_hints

try:  # pragma: no cover - exercised implicitly on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.profile import VersionProfileTable


class StoreLockTimeoutError(StoreError):
    """Could not acquire the store's advisory lock within the timeout."""


class ProfileStore:
    """One durable, mergeable profile database backed by a JSON file."""

    def __init__(
        self,
        path: PathLike,
        *,
        decay: float = DEFAULT_DECAY,
        lock_timeout: float = 10.0,
    ) -> None:
        self.path = Path(path)
        self.decay = decay
        if lock_timeout < 0:
            raise StoreError(f"lock_timeout must be non-negative, got {lock_timeout}")
        self.lock_timeout = lock_timeout
        self._lock_poll = 0.02
        # aged baseline of the run opened by begin_run (None outside one)
        self._base: Optional[dict] = None
        self._checkpoints_this_run = 0
        # raw on-disk text last seen by this process; a mismatch under
        # the lock means another process wrote a generation concurrently
        self._seen_text: Optional[str] = None

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    @property
    def lock_path(self) -> Path:
        """The advisory-lock sidecar guarding generation writes."""
        return self.path.with_name(self.path.name + ".lock")

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store's advisory lock (no-op where flock is absent).

        Non-blocking acquisition polled every ``_lock_poll`` seconds so a
        crashed-while-holding writer (flock dies with its process) never
        wedges us, but a *live* contender surfaces as
        :class:`StoreLockTimeoutError` after ``lock_timeout`` seconds.
        """
        if fcntl is None:
            yield
            return
        self.lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            deadline = time.monotonic() + self.lock_timeout
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise StoreLockTimeoutError(
                            f"could not lock profile store {self.path} within "
                            f"{self.lock_timeout:g}s (held by another process?)"
                        ) from None
                    time.sleep(self._lock_poll)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _read_text(self) -> Optional[str]:
        try:
            return self.path.read_text()
        except OSError:
            return None

    def _merge_concurrent(self, payload: dict) -> dict:
        """Under the lock: fold in generations another process committed
        since this process last read or wrote the store.

        This run's metadata and fingerprint win (counters stay
        monotonic via per-counter max); profile entries merge by the
        usual #Exec-weighted rule so neither side's learning is lost.
        """
        current_text = self._read_text()
        if current_text is None or current_text == self._seen_text:
            return payload
        try:
            current = read_payload(self.path)
        except StoreError:
            return payload  # concurrent writer left garbage: ours wins
        merged = merge_payloads(
            [current, payload], decay=self.decay, check_fingerprints=False
        )
        meta = dict(payload.get("meta", {}))
        cur_meta = current.get("meta", {})
        for counter in ("runs", "checkpoints", "invalidations"):
            meta[counter] = max(
                int(meta.get(counter) or 0), int(cur_meta.get(counter) or 0)
            )
        merged["meta"] = meta
        merged["fingerprint"] = payload.get("fingerprint")
        return merged

    def _write_generation(self, payload: dict) -> dict:
        """Serialize one generation write: lock, merge concurrent, write."""
        with self._locked():
            payload = self._merge_concurrent(payload)
            write_payload(self.path, payload)
        self._seen_text = self._read_text()
        return payload

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> dict:
        """The validated current payload (legacy files are migrated)."""
        return read_payload(self.path)

    def load_or_empty(self, *, fingerprint: Optional[str] = None) -> dict:
        if self.exists():
            return self.load()
        return empty_payload(fingerprint=fingerprint)

    def hints(self, *, decay: Optional[float] = None) -> Optional[dict]:
        """Warm-start snapshot for ``VersioningScheduler(hints=...)``,
        with staleness decay applied; ``None`` when the store does not
        exist or holds no usable entries."""
        if not self.exists():
            return None
        snapshot = to_hints(self.load(), decay=self.decay if decay is None else decay)
        return snapshot if snapshot["tasks"] else None

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def begin_run(self, *, fingerprint: Optional[str] = None) -> dict:
        """Open a run: load, fingerprint-check, and age the baseline.

        A fingerprint mismatch *invalidates* the store — learned times
        from different device calibrations are not comparable — keeping
        the metadata (and bumping ``meta.invalidations``) but dropping
        every profile entry.  The aged baseline is cached for the run's
        checkpoints.  Idempotent per run: call once before checkpointing.
        """
        base = self.load_or_empty(fingerprint=fingerprint)
        if (
            fingerprint is not None
            and base.get("fingerprint") is not None
            and base["fingerprint"] != fingerprint
        ):
            invalidated = empty_payload(
                fingerprint=fingerprint,
                grouping=str(base.get("grouping", "exact")),
                estimator=str(base.get("estimator", "mean")),
            )
            invalidated["meta"] = dict(base["meta"])
            invalidated["meta"]["invalidations"] = (
                base["meta"].get("invalidations", 0) + 1
            )
            base = invalidated
        elif fingerprint is not None:
            base["fingerprint"] = fingerprint
        self._base = age_payload(base, by=1)
        self._checkpoints_this_run = 0
        self._seen_text = self._read_text()
        return self._base

    def checkpoint(
        self,
        table: "VersionProfileTable",
        *,
        sim_time: float = 0.0,
        merge_base: bool = True,
        run_complete: bool = False,
    ) -> dict:
        """Durably snapshot ``table`` mid-run (atomic write + rotation).

        ``merge_base`` folds the aged pre-run baseline back in; pass
        ``False`` when the scheduler was warm-started from this store,
        whose counts the live table then already contains.
        """
        if self._base is None:
            self.begin_run()
        assert self._base is not None
        live = migrate_legacy(table.to_dict(), fingerprint=self._base.get("fingerprint"))
        if merge_base:
            payload = merge_payloads([self._base, live], decay=self.decay)
        else:
            payload = live
            payload["fingerprint"] = self._base.get("fingerprint")
        self._checkpoints_this_run += 1
        meta = dict(self._base.get("meta", {}))
        meta["runs"] = meta.get("runs", 0) + (1 if run_complete else 0)
        meta["checkpoints"] = meta.get("checkpoints", 0) + self._checkpoints_this_run
        meta["last_checkpoint"] = {
            "sim_time": float(sim_time),
            "run_complete": bool(run_complete),
        }
        payload["meta"] = meta
        payload = self._write_generation(payload)
        if run_complete:
            self._base = None
            self._checkpoints_this_run = 0
        return payload

    def commit(
        self,
        table: "VersionProfileTable",
        *,
        sim_time: float = 0.0,
        merge_base: bool = True,
    ) -> dict:
        """Final snapshot of a completed run (closes the run)."""
        return self.checkpoint(
            table, sim_time=sim_time, merge_base=merge_base, run_complete=True
        )

    def absorb(
        self,
        tables: "Union[VersionProfileTable, Iterable[VersionProfileTable]]",
        *,
        fingerprint: Optional[str] = None,
        sim_time: float = 0.0,
        merge_base: bool = True,
    ) -> Optional[dict]:
        """Fold the final tables of completed run(s) into the store as a
        single aging step (used by the ``--profile-store`` CLI flag).

        Pass ``merge_base=False`` when the runs were warm-started from
        this store: their tables already contain its history, so merging
        the baseline again would double-weight it.
        """
        from repro.core.profile import VersionProfileTable

        if isinstance(tables, VersionProfileTable):
            tables = [tables]
        snapshots = [
            migrate_legacy(t.to_dict(), fingerprint=fingerprint) for t in tables
        ]
        snapshots = [s for s in snapshots if s["tasks"]]
        if not snapshots:
            return None
        self.begin_run(fingerprint=fingerprint)
        assert self._base is not None
        combined = merge_payloads(snapshots, decay=self.decay)
        if merge_base:
            payload = merge_payloads([self._base, combined], decay=self.decay)
        else:
            payload = combined
            payload["fingerprint"] = self._base.get("fingerprint")
        meta = dict(self._base.get("meta", {}))
        meta["runs"] = meta.get("runs", 0) + 1
        meta["checkpoints"] = meta.get("checkpoints", 0) + 1
        meta["last_checkpoint"] = {"sim_time": float(sim_time), "run_complete": True}
        payload["meta"] = meta
        payload = self._write_generation(payload)
        self._base = None
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProfileStore({str(self.path)!r}, decay={self.decay})"


def warm_start_options(
    store: ProfileStore, *, policy: str = "trust", decay: Optional[float] = None
) -> dict:
    """Scheduler kwargs that warm-start a ``VersioningScheduler`` from
    ``store`` under the given policy (``trust``/``probation``/``cold``)."""
    opts: dict = {"warm_start": policy}
    if policy != "cold":
        hints = store.hints(decay=decay)
        if hints is not None:
            opts["hints"] = hints
    return opts


__all__ = [
    "ProfileStore",
    "StoreLockTimeoutError",
    "warm_start_options",
    "validate_payload",
]
