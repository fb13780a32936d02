"""Pausing Python's cyclic garbage collector for the length of a run.

A simulation run and a model-checker search free what they are done
with by reference counting alone: nothing they drop while they run is
cyclic garbage (``tests/runtime/test_gc_pause.py`` pins this for the
runtime).  Left running, the collector still fires every few hundred
allocations and rescans the live, growing object graph of the run, for
nothing found (DESIGN.md §17 has the numbers).
"""

from __future__ import annotations

import gc
from typing import Any


class CyclicGCPause:
    """Context manager: disable the cyclic collector, then restore the
    state it found.

    Only an entry that found the collector enabled re-enables it on
    exit.  A caller that had disabled the collector keeps it disabled,
    and a run that finds it already paused — an overlapping run on
    another thread, since the collector is process-wide — neither pauses
    nor resumes it, so one pause lasts at most as long as the run that
    took it.
    """

    __slots__ = ("_paused",)

    def __init__(self) -> None:
        self._paused = False

    def __enter__(self) -> "CyclicGCPause":
        self._paused = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._paused:
            self._paused = False
            gc.enable()
