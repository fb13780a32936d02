"""Unit tests for the graph-partitioning policies."""

import pytest

from repro.cluster.partition import (
    PARTITION_POLICIES,
    AffinityPartition,
    BlockPartition,
    HashPartition,
    make_partitioner,
)


class _Region:
    def __init__(self, key, nbytes):
        self.key = key
        self.nbytes = nbytes


class _Access:
    def __init__(self, key, nbytes, *, writes=False, reads=True):
        self.region = _Region(key, nbytes)
        self.writes = writes
        self.reads = reads


class _Task:
    """Just enough of a TaskInstance for the partitioners."""

    def __init__(self, *accesses):
        self.accesses = list(accesses)


def test_registry_names_round_trip():
    for name in PARTITION_POLICIES:
        p = make_partitioner(name, 4)
        assert p.name == name
        assert p.n_nodes == 4


def test_unknown_policy_raises():
    with pytest.raises(ValueError, match="unknown partition policy"):
        make_partitioner("zigzag", 2)


def test_zero_nodes_raises():
    with pytest.raises(ValueError):
        HashPartition(0)


def test_block_size_must_be_positive():
    with pytest.raises(ValueError):
        BlockPartition(2, block_size=0)


class TestHashPartition:
    def test_stays_within_allowed(self):
        p = HashPartition(4)
        allowed = [1, 3]
        for seq in range(1, 200):
            assert p.assign(_Task(), seq, allowed, [0, 0, 0, 0]) in allowed

    def test_deterministic(self):
        a = HashPartition(4)
        b = HashPartition(4)
        allowed = [0, 1, 2, 3]
        picks_a = [a.assign(_Task(), s, allowed, [0] * 4) for s in range(1, 100)]
        picks_b = [b.assign(_Task(), s, allowed, [0] * 4) for s in range(1, 100)]
        assert picks_a == picks_b

    def test_roughly_balanced(self):
        p = HashPartition(4)
        allowed = [0, 1, 2, 3]
        counts = {n: 0 for n in allowed}
        for seq in range(1, 401):
            counts[p.assign(_Task(), seq, allowed, [0] * 4)] += 1
        # multiplicative hashing over 400 seqs: no node starves or hogs
        assert min(counts.values()) > 50
        assert max(counts.values()) < 150


class TestBlockPartition:
    def test_contiguous_blocks_round_robin(self):
        p = BlockPartition(3, block_size=4)
        allowed = [0, 1, 2]
        picks = [p.assign(_Task(), s, allowed, [0] * 3) for s in range(1, 25)]
        # seq is 1-based: four per node, wrapping around the allowed list
        assert picks == [0] * 4 + [1] * 4 + [2] * 4 + [0] * 4 + [1] * 4 + [2] * 4

    def test_respects_allowed_subset(self):
        p = BlockPartition(4, block_size=2)
        allowed = [1, 3]
        picks = [p.assign(_Task(), s, allowed, [0] * 4) for s in range(1, 9)]
        assert picks == [1, 1, 3, 3, 1, 1, 3, 3]


class TestAffinityPartition:
    def test_write_claims_ownership_and_attracts_readers(self):
        p = AffinityPartition(2)
        producer = _Task(_Access("x", 100, writes=True))
        node = p.assign(producer, 1, [0, 1], [0, 0])
        p.note_assigned(producer, node)
        consumer = _Task(_Access("x", 100))
        assert p.assign(consumer, 2, [0, 1], [1, 0]) == node

    def test_largest_owned_bytes_wins(self):
        p = AffinityPartition(2)
        p.note_assigned(_Task(_Access("big", 1000, writes=True)), 1)
        p.note_assigned(_Task(_Access("small", 10, writes=True)), 0)
        t = _Task(_Access("big", 1000), _Access("small", 10))
        assert p.assign(t, 3, [0, 1], [0, 0]) == 1

    def test_ownerless_task_goes_to_least_loaded(self):
        p = AffinityPartition(3)
        t = _Task(_Access("fresh", 64))
        assert p.assign(t, 1, [0, 1, 2], [5, 2, 9]) == 1

    def test_load_tie_breaks_to_lower_node(self):
        p = AffinityPartition(3)
        assert p.assign(_Task(), 1, [0, 1, 2], [3, 3, 3]) == 0

    def test_owner_outside_allowed_is_ignored(self):
        p = AffinityPartition(3)
        p.note_assigned(_Task(_Access("x", 100, writes=True)), 2)
        # node 2 owns "x" but cannot run this task: fall back to load
        assert p.assign(_Task(_Access("x", 100)), 2, [0, 1], [4, 1]) == 1


def _brute_force_assign(owner, t, allowed, loads):
    """The affinity rule scored over every allowed node."""
    score = {n: 0 for n in allowed}
    for acc in t.accesses:
        n = owner.get(acc.region.key)
        if n in score:
            score[n] += acc.region.nbytes
    best = max(allowed, key=lambda n: (score[n], -n))
    if score[best] > 0:
        return best
    return min(allowed, key=lambda n: (loads[n], n))


class TestAffinityOracle:
    """Owner-only scoring agrees with scoring every allowed node."""

    def test_matches_brute_force_on_random_placements(self):
        import random

        rng = random.Random(1234)
        ties = 0
        for _ in range(5000):
            n_nodes = rng.randint(1, 8)
            p = AffinityPartition(n_nodes)
            owner = {}
            for key in range(rng.randint(0, 8)):
                node = rng.randrange(n_nodes)
                # zero-byte and equal-size regions make score ties common
                p.note_assigned(_Task(_Access(key, 64, writes=True)), node)
                owner[key] = node
            allowed = sorted(rng.sample(range(n_nodes), rng.randint(1, n_nodes)))
            loads = [rng.randint(0, 3) for _ in range(n_nodes)]
            t = _Task(*(
                _Access(rng.randrange(10), rng.choice((0, 64, 64, 128)))
                for _ in range(rng.randint(0, 5))
            ))
            expected = _brute_force_assign(owner, t, allowed, loads)
            scores = {}
            for acc in t.accesses:
                if owner.get(acc.region.key) in allowed:
                    n = owner[acc.region.key]
                    scores[n] = scores.get(n, 0) + acc.region.nbytes
            top = max(scores.values(), default=0)
            ties += top > 0 and sum(v == top for v in scores.values()) > 1
            assert p.assign(t, 1, allowed, loads) == expected
            assert p.assign(t, 1, allowed, dict(enumerate(loads))) == expected
        # the sample must exercise the tie-break it checks
        assert ties > 100

    def test_score_tie_goes_to_lower_id(self):
        p = AffinityPartition(4)
        p.note_assigned(_Task(_Access("a", 64, writes=True)), 3)
        p.note_assigned(_Task(_Access("b", 64, writes=True)), 1)
        t = _Task(_Access("a", 64), _Access("b", 64))
        assert p.assign(t, 1, [0, 1, 2, 3], [0, 0, 0, 0]) == 1

    def test_zero_byte_ownership_falls_back_to_load(self):
        p = AffinityPartition(3)
        p.note_assigned(_Task(_Access("empty", 0, writes=True)), 2)
        assert p.assign(_Task(_Access("empty", 0)), 1, [0, 1, 2], [2, 1, 1]) == 1
