"""Shared fixtures plus the acceptance-checklist terminal summary."""

import pytest

from atiyah4 import catalog
from atiyah4.polyring import VAR_NAMES
from atiyah4.symmetry import GROUP_ORDER, average_of_totals, permute_tuple

#: The two labelled points each distance joins, written out by name.
PAIR_OF = {"a": "AD", "b": "BD", "c": "CD", "x": "AB", "y": "BC", "z": "AC"}


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
    return [(alpha, average_of_totals(vector)) for alpha, vector in catalog.enumerate_T(6)]


@pytest.fixture(scope="session")
def relabelling_row():
    """The row index of a relabelling, given as the old labels in new order.

    ``relabelling_row("ACBD")`` is the row whose ``permute_tuple`` takes the
    distances of the points (A, B, C, D) to those of (A, C, B, D).  It is
    found from the named pairs of ``PAIR_OF``, whatever order the rows are in.
    """
    name_of = {frozenset(pair): name for name, pair in PAIR_OF.items()}
    row_of_names = {permute_tuple(VAR_NAMES, i): i for i in range(GROUP_ORDER)}

    def row(order: str) -> int:
        old = dict(zip("ABCD", order))
        names = tuple(name_of[frozenset(old[p] for p in PAIR_OF[v])] for v in VAR_NAMES)
        return row_of_names[names]

    return row
