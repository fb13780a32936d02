"""The cluster path's gates are exact: forcing them open changes no byte.

Tier-1 slice of :mod:`tests.cluster.gate_sweep`: a 6-tile matmul on the
4-node cluster under both partitions, every fault preset and reliable
queues bounded at one (pools back up) or four (the cluster default),
run once as shipped and once with the steal gate forced open and the
runnable-version cache forced cold.  Result and trace digests must be
equal.  A gate that misses a steal (a requeue not marked dirty: the
block/slow-copy/bound-1 case) or a cache that outlives an ``alive``
flip (dropped in the ``worker_down`` hook, after the dying worker's
tasks were re-placed: the block/requeue-backlog/bound-4 case) fails
here.
"""

from __future__ import annotations

import pytest

from tests.cluster.gate_sweep import PRESETS, compare


@pytest.mark.parametrize("queue_bound", [1, 4])
@pytest.mark.parametrize("partition", ["affinity", "block"])
@pytest.mark.parametrize("preset", PRESETS)
def test_gated_run_matches_forced_open(preset, partition, queue_bound):
    same, scans, open_scans = compare(preset, partition=partition, queue_bound=queue_bound)
    assert same, f"{preset}/{partition}/{queue_bound}: gated run differs from the forced-open one"
    # the forced-open run scans after every release and finish
    assert scans < open_scans
