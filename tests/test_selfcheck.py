"""Sanity checks for the randomized property-suite engine."""

import pytest

from dualquat.dual import ORDER_SLACK, DualNumber, le_defect
from dualquat.dualquaternion import DualQuaternion
from dualquat.quaternion import Quaternion
from dualquat.selfcheck import (
    DEFAULT_CASES,
    DEFAULT_SEED,
    EQ_TOL,
    SuiteResult,
    _diff,
    _Recorder,
    run_all,
    suite_names,
)


def test_registry_names_are_unique_and_stable():
    names = suite_names()
    assert len(names) == len(set(names))
    assert names[0].startswith("dual_")
    assert "vec_norm2_closed_form" in names
    assert "dual_no_root_witness" in names


def test_all_suites_pass_at_reduced_case_count():
    # full-size runs belong to `dualq selfcheck`; keep the pytest budget small
    results = run_all(seed=DEFAULT_SEED, cases=300)
    assert [r.name for r in results] == list(suite_names())
    failing = [r.name for r in results if not r.passed]
    assert failing == []
    assert all(r.failures == 0 for r in results)


def test_run_is_deterministic_for_a_seed():
    a = run_all(seed=123, cases=50)
    b = run_all(seed=123, cases=50)
    assert a == b


def test_different_seeds_change_residuals():
    a = run_all(seed=1, cases=50)
    b = run_all(seed=2, cases=50)
    assert any(x.worst_residual != y.worst_residual for x, y in zip(a, b))


def test_case_count_is_validated():
    with pytest.raises(ValueError):
        run_all(seed=1, cases=0)


def test_defaults_are_pinned():
    assert DEFAULT_SEED == 2718281828
    assert DEFAULT_CASES == 10_000


# Pairs of one kind, whether they agree componentwise under ``close``, and
# their largest componentwise difference.  Each differing component is off
# by a power of two, so the difference is exact.
_Q = Quaternion(1.0, 2.0, 3.0, 4.0)
_PAIRS = [
    (2.0, 2.0 + 2**-30, True, 2**-30),
    (1.0, 1.5, False, 0.5),
    (DualNumber(1.0, 2.0), DualNumber(1.0, 2.0), True, 0.0),
    (DualNumber(1.0, 2.0), DualNumber(1.0, 2.0 + 2**-20), False, 2**-20),
    (_Q, Quaternion(1.0, 2.0, 3.0, 4.0 + 2**-40), True, 2**-40),
    (_Q, Quaternion(1.0, 2.5, 3.0, 4.0), False, 0.5),
    (DualQuaternion(_Q, _Q), DualQuaternion(_Q, Quaternion(1.0, 2.0, 3.0, 4.0 + 2**-40)), True, 2**-40),
    # the only disagreement is in the last infinitesimal component
    (DualQuaternion(_Q, _Q), DualQuaternion(_Q, Quaternion(1.0, 2.0, 3.0, 4.25)), False, 0.25),
]


def _recorded(kind, *args, **kwargs):
    rec = _Recorder(1)
    getattr(rec, kind)(*args, **kwargs)
    return rec.failures, rec.worst


@pytest.mark.parametrize(
    "a,b,agrees,diff",
    _PAIRS,
    ids=[f"{type(a).__name__}-{'agree' if agrees else 'differ'}" for a, _, agrees, _ in _PAIRS],
)
def test_check_kinds_record_a_verdict_and_the_largest_difference(a, b, agrees, diff):
    assert _diff(a, b) == _diff(b, a) == diff
    assert _recorded("agree", a, b) == (0 if agrees else 1, diff)
    assert _recorded("within", _diff(a, b)) == (0 if diff <= EQ_TOL else 1, diff)
    assert _recorded("within", _diff(a, b), tol=2**-30) == (0 if diff <= 2**-30 else 1, diff)
    assert _recorded("holds", _diff(a, b)) == (0 if diff == 0.0 else 1, diff)


def test_holds_records_order_defects_and_the_worst_over_a_suite():
    rec = _Recorder(3)
    rec.holds(le_defect(DualNumber(1.0, 5.0), DualNumber(2.0, 0.0)))  # the standard parts decide
    assert (rec.failures, rec.worst) == (0, 0.0)
    rec.holds(le_defect(DualNumber(1.0, 5.0), DualNumber(1.0, 4.0)))  # tied, the infinitesimal parts decide
    assert (rec.failures, rec.worst) == (1, 5.0 - 4.0 - ORDER_SLACK)
    rec.holds(le_defect(DualNumber(3.0, 0.0), DualNumber(1.0, 9.0)))
    rec.agree(DualNumber(1.0, 2.0), DualNumber(1.0, 2.0))
    rec.within(2**-41)
    assert rec.result("s") == SuiteResult("s", 3, 2, 2.0)
