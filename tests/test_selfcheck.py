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
    (1, 1): "3bd9f01cc020b05940c38b374be47b73a97d96234fa903b98a684362c85fc147",
    (1, 2): "46ea77952b35c9e242ff3a287ab7dfcce9f2cca9ec294d94e8bff8e0a29fd2f2",
    (1, 3): "4dd05070f3aa6cbfadcf050b4f15ee607b36955735f88b493980bcad0a38ce22",
    (7, 1): "dda77fa713d407d3237c60140005f49f7cbbe8eaf726e8bc3adb101638cc476d",
    (7, 2): "aa00f827103e88d58019cbbf4a52b4d18cbe6e309efcea7f8ab04f642e7c23ad",
    (7, 3): "f1cec38f10e63d28e24c407fde2e5ce4d12c60af8885c359a306ec65ba35cd17",
    (12345, 1): "a4a0f93fad47d9f6270f4e5f0ed9ac8dfd89269721f301d121b56fccec167184",
    (12345, 2): "ad00d4cfabd793bb9503229f4ece74c69e34d71ac2f024bb36fb8e261ff3a656",
    (12345, 3): "17d50f73179a97e706602de3b3e35822b97b6098227044f7955af71b577f8e86",
    (2718281828, 1): "eec0dc76edea975c7db919d20c7c024bd245bf03fb23139d61edf5a0b25ef999",
    (2718281828, 2): "c19fd9eabca6481a70cf367f68c4a67de99a020a8b5d613c34fddb81a1bba394",
    (2718281828, 3): "2d892a9fa305ec2fbbe6d5ecad548eb93247ceeedffb573e8426eeaf927d377d",
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
