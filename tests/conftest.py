"""Shared fixtures and the acceptance-criteria report.

Acceptance tests register a one-line verdict per criterion; the lines are
printed in a dedicated section of the terminal summary so the pass/fail
status of every criterion is visible even when output capture is on.
"""

from pathlib import Path

import numpy as np
import pytest

_criterion_lines: list[str] = []
_TESTS_DIR = Path(__file__).parent


#: A third-party warning raised in Hypothesis' report hook; as an error it
#: turns a failing property test into an INTERNALERROR that hides its example.
_IGNORED_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(config, items):
    """Turn every warning of a test under this directory into an error,
    except the one third-party warning above.

    Prepended, so a test's own filterwarnings mark still takes precedence;
    the ignore comes after the error, so it overrides it.
    """
    for item in items:
        if _TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(_IGNORED_WARNING), append=False)
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


@pytest.fixture
def criterion_report():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
