"""The acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines, or ``nclp selftest`` for the same suite from the command line."""

import dataclasses
import math

import pytest

from nclp import acceptance, mpc


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


def _rows_changed(monkeypatch, name, value, at=None):
    """Make ``mpc.run_experiment`` return its own rows with the row ``name``
    set to ``value``, or dropped where ``value`` is None; only at the (N, t)
    pair ``at`` when one is given."""
    run = mpc.run_experiment

    def changed(descriptor, *args, **kwargs):
        result = run(descriptor, *args, **kwargs)
        if at is not None and (descriptor["N"], descriptor["t"]) != at:
            return result
        rows = [
            dataclasses.replace(row, value=value) if row.defect_name == name else row
            for row in result.rows
            if value is not None or row.defect_name != name
        ]
        return dataclasses.replace(result, rows=tuple(rows))

    monkeypatch.setattr(mpc, "run_experiment", changed)


@pytest.mark.parametrize(
    "criterion, name, value, at, reason",
    [
        pytest.param(7, "intertwining_defect", math.nan, None, "intertwining_defect N=1 t=1: nan", id="7-nan-intertwining"),
        pytest.param(7, "filtration_defect", 1e-300, None, "filtration_defect N=1 t=1: 1.00e-300", id="7-tiny-filtration"),
        pytest.param(7, "semigroup_defect", None, (2, 1), "semigroup_defect N=2 t=1: row missing", id="7-missing-semigroup"),
        pytest.param(8, "stochasticity_positivity_defect", math.nan, None, "stochasticity_positivity_defect N=3 t=1: nan", id="8-nan-positivity"),
        pytest.param(8, "multiplicativity_lower_bound", math.nan, None, "oracle bound is not positive", id="8-nan-bound"),
        pytest.param(8, "implementable", None, None, "logistic step was reported implementable", id="8-missing-verdict"),
    ],
)
def test_the_mpc_criteria_fail_on_a_bad_or_missing_row(monkeypatch, criterion, name, value, at, reason):
    # criteria 7 and 8 read the rows of the shipped driver, and a NaN or a
    # missing row fails them as a defect over its limit does
    _rows_changed(monkeypatch, name, value, at)
    result = acceptance.CRITERIA[criterion - 1]()
    assert not result.passed
    assert reason in result.details
