"""The contract shared by the value types and the result records.

DualNumber, Quaternion and DualQuaternion are immutable values: keyword
construction with defaults, int components stored as floats, non-finite
components rejected by label, equality with hashes that agree, a fixed
``repr``, no instance ``__dict__``, and pickle and copy round trips.  The
records that carry results (UnitCheck, VectorUnitCheck, BasisCheck,
DQVector, DualInterval, NoRootReport, InputDocument, SuiteResult) share the
last four: equal records hash alike, and each has its fixed ``repr``, no
``__dict__`` and the same round trips.
"""

import copy
import math
import pickle

import pytest

from dualquat import (
    BasisCheck,
    DQVector,
    DualInterval,
    DualNumber,
    DualQuaternion,
    NonFiniteError,
    Quaternion,
    UnitCheck,
    VectorUnitCheck,
    no_root_witness,
)
from dualquat.documents import VECTOR, InputDocument, parse_document
from dualquat.selfcheck import SuiteResult

P = Quaternion(1, -2, 0.5, 0)
Q = Quaternion(0, 3, -4, 1e-300)
ONE = DualQuaternion.from_real(1.0)
ONE_TEXT = "DualQuaternion(std=Quaternion(w=1.0, x=0.0, y=0.0, z=0.0), inf=Quaternion(w=0.0, x=0.0, y=0.0, z=0.0))"

# (value, its repr, the names of its fields)
SAMPLES = [
    (DualNumber(9.0, 24.0), "DualNumber(std=9.0, inf=24.0)", ("std", "inf")),
    (P, "Quaternion(w=1.0, x=-2.0, y=0.5, z=0.0)", ("w", "x", "y", "z")),
    (
        DualQuaternion(P, Q),
        "DualQuaternion(std=Quaternion(w=1.0, x=-2.0, y=0.5, z=0.0), "
        "inf=Quaternion(w=0.0, x=3.0, y=-4.0, z=1e-300))",
        ("std", "inf"),
    ),
    (
        UnitCheck(True, 0.0, 1e-17),
        "UnitCheck(passed=True, norm_residual=0.0, mixed_residual=1e-17)",
        ("passed", "norm_residual", "mixed_residual"),
    ),
    (
        VectorUnitCheck(False, 0.5, 0.25),
        "VectorUnitCheck(passed=False, gram_residual=0.5, norm_residual=0.25)",
        ("passed", "gram_residual", "norm_residual"),
    ),
    (
        BasisCheck(True, ((0.0, 1e-16), (1e-16, 0.0))),
        "BasisCheck(passed=True, residuals=((0.0, 1e-16), (1e-16, 0.0)))",
        ("passed", "residuals"),
    ),
    (DQVector((ONE,)), f"DQVector(entries=({ONE_TEXT},))", ("entries",)),
    (
        DualInterval(DualNumber(0), DualNumber(1, 2), upper_closed=False),
        "DualInterval(lower=DualNumber(std=0.0, inf=0.0), upper=DualNumber(std=1.0, inf=2.0), "
        "lower_closed=True, upper_closed=False)",
        ("lower", "upper", "lower_closed", "upper_closed"),
    ),
    (
        no_root_witness(),
        "NoRootReport(value_at_zero=DualNumber(std=0.0, inf=-1.0), sign_at_zero=<Ordering.LESS: -1>, "
        "value_at_one=DualNumber(std=1.0, inf=-1.0), sign_at_one=<Ordering.GREATER: 1>, "
        "interval=DualInterval(lower=DualNumber(std=0.0, inf=0.0), upper=DualNumber(std=1.0, inf=0.0), "
        "lower_closed=True, upper_closed=True), root_exists=False)",
        ("value_at_zero", "sign_at_zero", "value_at_one", "sign_at_one", "interval", "root_exists"),
    ),
    (
        InputDocument(VECTOR, DQVector((ONE,))),
        f"InputDocument(kind='vector', payload=DQVector(entries=({ONE_TEXT},)))",
        ("kind", "payload"),
    ),
    (
        SuiteResult("dual_triangle", 10, 0, 2.5e-16),
        "SuiteResult(name='dual_triangle', cases=10, failures=0, worst_residual=2.5e-16)",
        ("name", "cases", "failures", "worst_residual"),
    ),
]
SAMPLE_IDS = [type(value).__name__ for value, _, _ in SAMPLES]


def floats_of(value):
    """Every float a value stores, in field order."""
    if isinstance(value, DualQuaternion):
        return value.std.components() + value.inf.components()
    if isinstance(value, Quaternion):
        return value.components()
    return (value.std, value.inf)


@pytest.mark.parametrize("value,text,_", SAMPLES, ids=SAMPLE_IDS)
def test_repr(value, text, _):
    assert repr(value) == text


def test_repr_of_defaults():
    assert repr(DualNumber()) == "DualNumber(std=0.0, inf=0.0)"
    assert repr(Quaternion()) == "Quaternion(w=0.0, x=0.0, y=0.0, z=0.0)"
    assert repr(DualQuaternion()) == (
        "DualQuaternion(std=Quaternion(w=0.0, x=0.0, y=0.0, z=0.0), "
        "inf=Quaternion(w=0.0, x=0.0, y=0.0, z=0.0))"
    )


def test_keyword_construction():
    assert DualNumber(std=1, inf=2) == DualNumber(1.0, 2.0)
    assert DualNumber(inf=2) == DualNumber(0.0, 2.0)
    assert Quaternion(w=1) == Quaternion(1.0, 0.0, 0.0, 0.0)
    assert Quaternion(z=4, x=2) == Quaternion(0.0, 2.0, 0.0, 4.0)
    assert DualQuaternion(inf=Q) == DualQuaternion(Quaternion(), Q)
    assert DualQuaternion(std=P, inf=Q) == DualQuaternion(P, Q)


def test_int_components_become_floats():
    for value in (DualNumber(3, -4), Quaternion(1, 2, 3, 4), DualQuaternion(Quaternion(1, 2), Quaternion(0, 0, 3))):
        assert all(type(c) is float for c in floats_of(value))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "build,label",
    [
        (lambda v: DualNumber(v, 1.0), "standard part"),
        (lambda v: DualNumber(1.0, inf=v), "infinitesimal part"),
        (lambda v: Quaternion(v), "w component"),
        (lambda v: Quaternion(x=v), "x component"),
        (lambda v: Quaternion(0, 0, v), "y component"),
        (lambda v: Quaternion(z=v), "z component"),
        (lambda v: DualQuaternion.from_real(v), "w component"),
        (lambda v: DualQuaternion.from_dual(DualNumber(1.0, v)), "infinitesimal part"),
    ],
    ids=["dual-std", "dual-inf", "quat-w", "quat-x", "quat-y", "quat-z", "dq-real", "dq-dual"],
)
def test_nonfinite_components_are_rejected_by_label(build, label, bad):
    with pytest.raises(NonFiniteError, match=f"^{label} must be finite"):
        build(bad)


@pytest.mark.parametrize(
    "std,inf,label",
    [
        (1.0, 2.0, "standard part"),
        (Quaternion(), DualNumber(1.0), "infinitesimal part"),
        (DualQuaternion(), Quaternion(), "standard part"),
        (None, Quaternion(), "standard part"),
    ],
    ids=["floats", "dual-inf", "nested", "none"],
)
def test_dual_quaternion_parts_must_be_quaternions(std, inf, label):
    with pytest.raises(TypeError, match=f"^{label} must be a Quaternion"):
        DualQuaternion(std, inf)


def test_equal_values_hash_alike():
    pairs = [
        (DualNumber(2.0), 2.0),
        (DualNumber(2), 2),
        (DualNumber(-0.0, -0.0), DualNumber()),
        (DualNumber(-0.0), 0.0),
        (DualNumber(1, 2), DualNumber(1.0, 2.0)),
        (Quaternion(-0.0, 1, -0.0, 2), Quaternion(0.0, 1.0, 0.0, 2.0)),
        (Quaternion(1, 2, 3, 4), Quaternion(1.0, 2.0, 3.0, 4.0)),
        (DualQuaternion(Quaternion(-0.0), P), DualQuaternion(Quaternion(), P)),
        (DualQuaternion(P, Q), DualQuaternion(Quaternion(*P.components()), Quaternion(*Q.components()))),
        (UnitCheck(True, 0, 1e-17), UnitCheck(True, 0.0, 1e-17)),
        (VectorUnitCheck(False, 0.5, -0.0), VectorUnitCheck(False, 0.5, 0.0)),
        (BasisCheck(True, ((0.0,),)), BasisCheck(True, ((-0.0,),))),
        (DQVector([ONE]), DQVector((DualQuaternion.from_real(1),))),
        (DualInterval(DualNumber(0), DualNumber(1)), DualInterval(DualNumber(-0.0), DualNumber(1.0), True, True)),
        (no_root_witness(), no_root_witness()),
        (InputDocument(VECTOR, DQVector((ONE,))), parse_document("vec[ dq{ std: 1, inf: 0 } ]")),
        (SuiteResult("s", 10, 0, 0.0), SuiteResult("s", 10, 0, -0.0)),
    ]
    for left, right in pairs:
        assert left == right and right == left
        assert hash(left) == hash(right)
    assert hash(DualNumber(2.0)) == hash(2.0)
    assert all(math.copysign(1.0, c) == 1.0 for c in floats_of(DualQuaternion(Quaternion(-0.0, -0.0), Quaternion(-0.0))))


def test_unequal_values_and_foreign_operands():
    assert DualNumber(1, 2) != DualNumber(1, 3)
    assert Quaternion(1, 2, 3, 4) != Quaternion(1, 2, 3, 5)
    assert DualQuaternion(P, Q) != DualQuaternion(Q, P)
    # Quaternions and dual quaternions equal only their own type.
    assert Quaternion(2) != 2.0 and Quaternion(2) != DualNumber(2.0)
    assert DualQuaternion.from_real(2.0) != Quaternion(2) and DualQuaternion.from_real(2.0) != 2.0
    assert DualNumber(2.0) != Quaternion(2) and DualNumber(2.0) != "2.0"
    # So do records, even with the same fields.
    assert UnitCheck(True, 0.0, 0.0) != VectorUnitCheck(True, 0.0, 0.0)
    assert SuiteResult("s", 10, 0, 0.0) != SuiteResult("s", 10, 1, 0.0)


@pytest.mark.parametrize("value,_,fields", SAMPLES, ids=SAMPLE_IDS)
def test_fields_cannot_be_assigned_or_deleted(value, _, fields):
    before = repr(value)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("value,_,fields", SAMPLES, ids=SAMPLE_IDS)
def test_no_instance_dict(value, _, fields):
    assert not hasattr(value, "__dict__")
    assert type(value).__slots__ == fields


@pytest.mark.parametrize("value,_,__", SAMPLES, ids=SAMPLE_IDS)
@pytest.mark.parametrize(
    "clone",
    [
        lambda v: pickle.loads(pickle.dumps(v)),
        lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(value, _, __, clone):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)
