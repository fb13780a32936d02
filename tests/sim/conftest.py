"""Fixtures for the simulator test suite: the golden-fixture switch."""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/sim/fixtures/golden_traces.json instead of "
        "asserting against it (use only after an intentional semantic "
        "change)",
    )
