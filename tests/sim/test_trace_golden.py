"""Golden-trace equivalence suite (the tentpole's non-negotiable gate).

Every case in :mod:`sim.golden_cases` — app × scheduler × machine ×
seed, with and without fault plans, with and without speculation — must
reproduce the committed SHA-256 digests of its serialized
:class:`RunResult` and :class:`Trace` **byte for byte** on the pure-Python
event core.  The fixtures were generated from the pre-optimization tree,
so a pass proves the flattened hot path did not change observable
behavior vs the seed commit.

Regenerate fixtures only after an intentional semantic change::

    PYTHONPATH=src python -m pytest tests/sim/test_trace_golden.py --update-golden
"""

from __future__ import annotations

import pytest

from .golden_cases import (
    CASES,
    CASES_BY_ID,
    compute_all,
    digest_result,
    fired_counters,
    load_fixture,
    run_case,
    write_fixture,
)

CASE_IDS = list(CASES_BY_ID)
FIRING_IDS = [c.id for c in CASES if c.fires]


@pytest.fixture(scope="session")
def golden(request):
    """The committed digests (regenerated under ``--update-golden``)."""
    if request.config.getoption("--update-golden"):
        payload = compute_all()
        write_fixture(payload)
        return payload
    return load_fixture()


@pytest.fixture(scope="session")
def pure_digests():
    return compute_all()


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASE_IDS)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_pure_backend_matches_golden(case_id, golden, pure_digests):
    assert pure_digests[case_id] == golden[case_id]


def test_armed_wall_deadline_does_not_perturb_traces(golden):
    """A generous armed deadline must not change a single trace byte.

    The deadline check consumes no simulated time and no RNG draws; the
    digest must equal the fixture recorded with the deadline disarmed.
    """
    case = CASES[0]
    result, events = run_case(case, wall_deadline=600.0)
    assert digest_result(result, events) == golden[case.id]


@pytest.mark.parametrize("case_id", FIRING_IDS)
def test_fault_plan_fires_named_counters(case_id):
    """Each recovery case still drives every counter it names above 0."""
    case = CASES_BY_ID[case_id]
    result, _ = run_case(case)
    counters = fired_counters(result)
    silent = [name for name in case.fires if counters[name] <= 0]
    assert not silent, f"{case_id} no longer fires {silent}"
