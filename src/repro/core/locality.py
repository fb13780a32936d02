"""Locality-aware versioning scheduler (future work, §VII).

"Firstly, the amount of data transfers is not optimal because data
locality is not taken into account.  We are going to provide the
versioning scheduler with data locality information in order to further
improve the performance of applications."

This variant implements that extension: in the reliable-information
phase, the earliest-executor estimate for a (version, worker) pair is
augmented with the *estimated transfer time* of the input bytes missing
from the worker's memory space, priced at the machine's link rates.
Workers that already hold the data therefore win ties — and can win
outright when the transfer cost exceeds the compute-time difference.

The learning phase is unchanged (there is no timing information to
weigh against locality yet).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.versioning import VersioningScheduler
from repro.runtime.task import TaskInstance, TaskVersion

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


class LocalityVersioningScheduler(VersioningScheduler):
    name = "versioning-locality"

    def _placement_penalty(
        self, t: TaskInstance, version: TaskVersion, worker: "Worker"
    ) -> float:
        assert self.rt is not None
        space = worker.space
        penalty = 0.0
        directory = self.rt.directory
        for region in t.reads():
            if directory.is_valid(region, space):
                continue
            src = directory.choose_source(region, space)
            try:
                penalty += self.rt.machine.path_transfer_time(src, space, region.nbytes)
            except KeyError:
                # unreachable pair: the dispatch itself would fail later;
                # make the pair maximally unattractive instead
                penalty += float("inf")
        return penalty
