"""Sanity checks for the randomized property-suite engine."""

import hashlib
import random

import pytest

from dualquat import selfcheck
from dualquat.dual import DualNumber, le_defect
from dualquat.dualquaternion import DualQuaternion
from dualquat.quaternion import Quaternion
from dualquat.selfcheck import (
    DEFAULT_CASES,
    DEFAULT_SEED,
    SuiteResult,
    _Draws,
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


# Pairs of one kind, whether they agree part by part under ``close`` at
# k = 4 against a scale of 2**25 (a bound of about 1.5e-8), and their largest
# componentwise difference.  Each differing component is off by a power of
# two, so the difference is exact.
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


def _recorded(kind, *args):
    rec = _Recorder(1)
    getattr(rec, kind)(*args)
    return rec.failures, rec.worst


def _scale(value, scale):
    """``scale`` in the shape of ``value``: a pair for a dual value."""
    return (scale, scale) if isinstance(value, (DualNumber, DualQuaternion)) else scale


@pytest.mark.parametrize(
    "a,b,agrees,diff",
    _PAIRS,
    ids=[f"{type(a).__name__}-{'agree' if agrees else 'differ'}" for a, _, agrees, _ in _PAIRS],
)
def test_check_kinds_record_a_verdict_and_the_largest_difference(a, b, agrees, diff):
    scale = _scale(a, 2.0**25)
    assert _recorded("agree", a, b, scale, 4) == _recorded("agree", b, a, scale, 4) == (0 if agrees else 1, diff)
    # At a 2**20 times smaller scale, only equal values agree; at 2**40 times larger, all do.
    assert _recorded("agree", a, b, _scale(a, 2.0**5), 4) == (0 if diff == 0.0 else 1, diff)
    assert _recorded("agree", a, b, _scale(a, 2.0**65), 4) == (0, diff)
    assert _recorded("holds", diff) == (0 if diff == 0.0 else 1, diff)


def test_agree_judges_each_part_of_a_dual_value_at_its_own_scale():
    a = DualQuaternion(_Q, _Q)
    b = DualQuaternion(_Q, Quaternion(1.0, 2.0, 3.0, 4.25))
    assert _recorded("agree", a, b, (2.0**25, 2.0**25), 4) == (1, 0.25)
    assert _recorded("agree", a, b, (2.0**25, 2.0**60), 4) == (0, 0.25)
    assert _recorded("agree", b, a, (2.0**60, 2.0**25), 4) == (1, 0.25)
    assert _recorded("agree", DualNumber(1.0, 2.0), DualNumber(1.0 + 2**-30, 2.0), (2.0**5, 2.0**60), 4) == (1, 2**-30)


def test_holds_records_order_defects_and_the_worst_over_a_suite():
    rec, scale = _Recorder(3), (1.0, 1.0)
    rec.holds(le_defect(DualNumber(1.0, 5.0), DualNumber(2.0, 0.0), scale, 4))  # the standard parts decide
    assert (rec.failures, rec.worst) == (0, 0.0)
    rec.holds(le_defect(DualNumber(1.0, 5.0), DualNumber(1.0, 4.0), scale, 4))  # tied, the infinitesimal parts decide
    assert (rec.failures, rec.worst) == (1, 5.0 - 4.0)
    rec.holds(le_defect(DualNumber(3.0, 0.0), DualNumber(1.0, 9.0), scale, 4))
    rec.agree(DualNumber(1.0, 2.0), DualNumber(1.0, 2.0), scale, 4)
    rec.agree(1.0, 1.0 + 2**-41, 2.0**20, 4)
    assert rec.result("s") == SuiteResult("s", 3, 2, 2.0)


# -- the draw object ------------------------------------------------------------

SEEDS = (1, 7, 12345, DEFAULT_SEED)


@pytest.mark.parametrize("seed", SEEDS)
def test_real_draws_are_uniform_draws(seed):
    draws, reference = _Draws(seed), random.Random(seed)
    assert [draws.real() for _ in range(10_000)] == [reference.uniform(-10.0, 10.0) for _ in range(10_000)]


# The same values built with the public constructors from a plain generator.
def _reference_quat(rng):
    return Quaternion(*(rng.uniform(-10.0, 10.0) for _ in range(4)))


def _reference_dual(rng, zero_std_rate=0.2):
    std = 0.0 if rng.random() < zero_std_rate else rng.uniform(-10.0, 10.0)
    return DualNumber(std, rng.uniform(-10.0, 10.0))


def _reference_dquat(rng, kind):
    if kind == "A":
        std = _reference_quat(rng)
        while std.is_zero:
            std = _reference_quat(rng)
        return DualQuaternion(std, _reference_quat(rng))
    if kind == "I":
        return DualQuaternion(Quaternion(), _reference_quat(rng))
    return DualQuaternion()


_GENERATORS = [
    ("quat", (), _reference_quat),
    ("dual", (), _reference_dual),
    ("dual", (0.5,), _reference_dual),
    ("dquat", ("A",), _reference_dquat),
    ("dquat", ("I",), _reference_dquat),
    ("dquat", ("Z",), _reference_dquat),
]


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_the_public_constructor_builds_draw_for_draw(seed):
    draws, reference = _Draws(seed), random.Random(seed)
    for _ in range(500):
        for name, args, build in _GENERATORS:
            got, want = getattr(draws, name)(*args), build(reference, *args)
            assert (got, repr(got)) == (want, repr(want)), (name, args)
    assert draws.getstate() == reference.getstate()


# SHA-256 of repr(run_all(seed, cases)) at the case counts that the perfbench
# selfcheck workload runs (2 per round); any change to a draw, its order or
# a check's arithmetic moves them.
_REPORT_DIGESTS = {
    (1, 1): "dd6fcfd3ca8281d60754ced9786db38507d3eee9e1a890a80122c60f26f8a9dd",
    (1, 2): "f14f41b3ee76208808f186418497140d89fa5b58b72aa5ada4fc9a64fe74d0a0",
    (1, 3): "7504ab14678de5bdc36fee6fe969143eef57c37bf727dbafdfc67a4867fb1dda",
    (7, 1): "dda77fa713d407d3237c60140005f49f7cbbe8eaf726e8bc3adb101638cc476d",
    (7, 2): "4f13604f63bc420837f7d038a232aed318de9394dcfe65e8ac38f99d9515285b",
    (7, 3): "3983525c495a3d193b56bb2d717720b8490af8321f5cc4d54283d3683f287002",
    (12345, 1): "e7cd80cc2985efe3a69d4d878920cecc0eafd9e289aac1106b5b834f39101fa1",
    (12345, 2): "832f24341ad23719a2a558f08563f80047f3f79411d8e1aa40291d765fd603a1",
    (12345, 3): "17d50f73179a97e706602de3b3e35822b97b6098227044f7955af71b577f8e86",
    (2718281828, 1): "eec0dc76edea975c7db919d20c7c024bd245bf03fb23139d61edf5a0b25ef999",
    (2718281828, 2): "130080b2a2acaad95cc0dc1509382d54a92c5b33fa17b2a7a22fd8bb3335a5b5",
    (2718281828, 3): "8b344e3a08a01f4f3f42f5c49e96469e075d408aaa91460f8c27d4524bcef4cc",
}


@pytest.mark.parametrize("seed,cases", sorted(_REPORT_DIGESTS))
def test_reports_are_pinned_at_small_case_counts(seed, cases):
    digest = hashlib.sha256(repr(run_all(seed, cases)).encode()).hexdigest()
    assert digest == _REPORT_DIGESTS[seed, cases]


def test_run_all_reads_the_suite_registry_when_called(monkeypatch):
    # perfbench's tracing replaces selfcheck._SUITES with wrapped suites.
    suites = selfcheck._SUITES
    assert isinstance(suites, tuple) and len(suites) == 41
    assert all(len(pair) == 2 and isinstance(pair[0], str) and callable(pair[1]) for pair in suites)
    calls = []

    def counted(name, suite):
        def wrapped(rng, rec):
            calls.append(name)
            suite(rng, rec)
        return wrapped

    monkeypatch.setattr(selfcheck, "_SUITES", tuple((name, counted(name, suite)) for name, suite in suites))
    results = run_all(seed=1, cases=2)
    assert calls == [name for name, _ in suites]
    assert [r.name for r in results] == calls
