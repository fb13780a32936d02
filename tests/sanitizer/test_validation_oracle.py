"""``validate_run`` reports exactly the pinned diagnostics, in order.

The corpus and the way to regenerate its fixture are described in
:mod:`tests.sanitizer.validation_corpus`.  Each case compares every
field of every diagnostic (code, severity, message, task, region,
worker, meta) and the order they are reported in, so a shared-index or
chain-check shortcut that drops, adds or reorders one finding fails.
"""

from __future__ import annotations

import pytest

from tests.sanitizer.validation_corpus import cases, load_fixture

EXPECTED = load_fixture()
CASES = cases()


def test_corpus_covers_the_fixture():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("case_id", sorted(EXPECTED))
def test_diagnostics_equal_oracle(case_id):
    assert CASES[case_id]() == EXPECTED[case_id]
