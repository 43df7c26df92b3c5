"""The acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines, or ``nclp selftest`` for the same suite from the command line."""

import pytest

from nclp import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion()
    tag = "PASS" if result.passed else "FAIL"
    print(f"[{tag}] criterion {result.criterion} ({result.name}): {result.details}")
    assert result.passed, result.details


@pytest.mark.parametrize(
    "criterion",
    (acceptance.criterion_1_norm_suite, acceptance.criterion_7_mpc_exact_identities),
    ids=lambda fn: fn.__name__,
)
def test_timed_criteria_report_the_same_result_twice(criterion):
    # their runtime gates stay, but the time itself is not reported
    assert criterion() == criterion()
