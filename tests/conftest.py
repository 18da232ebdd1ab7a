"""Shared fixtures plus the acceptance-checklist terminal summary."""

import pytest

from atiyah4 import catalog
from atiyah4.symmetry import spread


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def named():
    return catalog.named_polynomials()


@pytest.fixture(scope="session")
def t6_columns():
    return [(alpha, spread(vector)) for alpha, vector in catalog.enumerate_T(6)]
