"""Value semantics of the library's record classes.

Each record is an immutable value: equal when its class and fields are
equal, hashable by those fields, copied and pickled by rebuilding, and
printed in the ``Name(field=value, ...)`` form.
"""

import copy
import inspect
import pickle

import pytest

from npcc import (
    SS,
    CertifiedFamily,
    ClutchReport,
    ConditionUReport,
    MonodromyDatum,
    MoonenFamily,
    MoonenRow,
    MuOrdProductCheck,
    Orbit,
    OrbitDecomposition,
    Signature,
    base_case,
    clutch_report,
    condition_u,
    decompose,
    moonen_families,
    mu_ord_product_check,
    signature,
)

G1 = MonodromyDatum(4, (1, 1, 2))
G2 = MonodromyDatum(8, (4, 2, 5, 5))

# Constructor parameters in order, with their defaults; these are also
# the fields that equality, hashing and repr read.
REQUIRED = inspect.Parameter.empty
FIELDS = {
    MonodromyDatum: {"m": REQUIRED, "a": REQUIRED, "generalized": False},
    Signature: {"m": REQUIRED, "values": REQUIRED},
    Orbit: {"m": REQUIRED, "members": REQUIRED},
    OrbitDecomposition: dict.fromkeys(("m", "p_class", "orbits"), REQUIRED),
    ClutchReport: {
        **dict.fromkeys("gamma1 gamma2 m3 d1 d2 r1 r2 r0 epsilon gamma3 f3 g3".split(), REQUIRED),
        "admissible": True,
        **dict.fromkeys(("p_class", "balanced", "compatible", "defects")),
    },
    MuOrdProductCheck: dict.fromkeys(("lhs", "rhs", "equal", "balanced"), REQUIRED),
    ConditionUReport: dict.fromkeys(("genus", "dim_mg", "codim_ag", "holds"), REQUIRED),
    CertifiedFamily: {
        **dict.fromkeys(("datum", "p_class", "claimed_np", "mu_ordinary_claim"), REQUIRED),
        "steps": (),
        "assumptions": (),
        "payload_codim": None,
    },
    MoonenRow: dict.fromkeys(("classes", "polygons", "large_p"), REQUIRED),
    MoonenFamily: dict.fromkeys(("label", "m", "a", "f", "rows"), REQUIRED),
}


def _stepless_family():
    # a family's steps are read-only mappings, which neither hash nor
    # pickle; the record semantics are checked on a family without steps
    fam = base_case(MonodromyDatum(7, (1, 1, 5)), 2)
    return CertifiedFamily(fam.datum, 9, fam.claimed_np, True, [], ["an assumption"], 0)


def _examples():
    fam = moonen_families()[0]
    return {
        MonodromyDatum: MonodromyDatum(5, (1, 1, 3)),
        Signature: signature(MonodromyDatum(5, (1, 1, 3))),
        Orbit: Orbit(12, (5, 1)),
        OrbitDecomposition: decompose(5, 4),
        ClutchReport: clutch_report(G1, G2, 7),
        MuOrdProductCheck: mu_ord_product_check(G1, G2, 7),
        ConditionUReport: condition_u(SS),
        CertifiedFamily: _stepless_family(),
        MoonenRow: fam.rows[0],
        MoonenFamily: fam,
    }


def _values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def _rebuilt(record, cls=None):
    return (cls or type(record))(*_values(record))


CLASSES = list(FIELDS)


def test_every_record_class_is_covered():
    assert set(_examples()) == set(FIELDS) and len(FIELDS) == 10


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_constructor_takes_the_fields_in_order_with_their_defaults(cls):
    params = inspect.signature(cls).parameters
    assert {name: p.default for name, p in params.items()} == FIELDS[cls]
    assert list(params) == list(FIELDS[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_copies_hash_equal(cls):
    record = _examples()[cls]
    twin = _rebuilt(record)
    assert twin is not record
    assert twin == record and not (twin != record)
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_record_equals_no_tuple_and_no_other_class(cls):
    examples = _examples()
    record = examples[cls]
    assert record != _values(record)
    assert _values(record) != record
    for other_cls, other in examples.items():
        if other_cls is not cls:
            assert record != other and other != record

    class Sub(cls):
        __slots__ = ()

    assert _rebuilt(record, Sub) != record
    assert record != _rebuilt(record, Sub)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_record_is_immutable(cls):
    record = _examples()[cls]
    before = repr(record)
    for name in (*FIELDS[cls], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_and_pickle_give_an_equal_record(cls):
    record = _examples()[cls]
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)


def test_a_family_with_steps_copies_shallowly():
    fam = base_case(MonodromyDatum(7, (1, 1, 5)), 2)
    twin = copy.copy(fam)
    assert twin == fam and twin.steps == fam.steps


REPRS = {
    MonodromyDatum: "MonodromyDatum(m=5, a=(1, 1, 3), generalized=False)",
    Signature: "Signature(m=5, values=(1, 1, 0, 0))",
    Orbit: "Orbit(m=12, members=(1, 5))",
    OrbitDecomposition: (
        "OrbitDecomposition(m=5, p_class=4, orbits=(Orbit(m=5, members=(1, 4)),"
        " Orbit(m=5, members=(2, 3))))"
    ),
    ClutchReport: (
        "ClutchReport(gamma1=MonodromyDatum(m=4, a=(1, 1, 2), generalized=False),"
        " gamma2=MonodromyDatum(m=8, a=(4, 2, 5, 5), generalized=False), m3=8, d1=2,"
        " d2=1, r1=2, r2=4, r0=2, epsilon=2,"
        " gamma3=MonodromyDatum(m=8, a=(2, 2, 2, 5, 5), generalized=False),"
        " f3=Signature(m=8, values=(2, 2, 0, 0, 3, 1, 1)), g3=9, admissible=True,"
        " p_class=7, balanced=True, compatible=False,"
        " defects=((Orbit(m=8, members=(1, 7)), 0), (Orbit(m=8, members=(2, 6)), 2),"
        " (Orbit(m=8, members=(3, 5)), 0), (Orbit(m=8, members=(4,)), 0)))"
    ),
    MuOrdProductCheck: (
        "MuOrdProductCheck(lhs=NewtonPolygon([(Fraction(0, 1), 4), (Fraction(1, 2), 10),"
        " (Fraction(1, 1), 4)]), rhs=NewtonPolygon([(Fraction(0, 1), 4),"
        " (Fraction(1, 2), 10), (Fraction(1, 1), 4)]), equal=True, balanced=True)"
    ),
    ConditionUReport: "ConditionUReport(genus=1, dim_mg=1, codim_ag=1, holds=False)",
    CertifiedFamily: (
        "CertifiedFamily(datum=MonodromyDatum(m=7, a=(1, 1, 5), generalized=False),"
        " p_class=2, claimed_np=NewtonPolygon([(Fraction(1, 3), 3), (Fraction(2, 3), 3)]),"
        " mu_ordinary_claim=True, steps=(), assumptions=('an assumption',),"
        " payload_codim=0)"
    ),
    MoonenRow: (
        "MoonenRow(classes=(1,), polygons=(NewtonPolygon([(Fraction(0, 1), 1),"
        " (Fraction(1, 1), 1)]), NewtonPolygon([(Fraction(1, 2), 2)])),"
        " large_p=(False, False))"
    ),
    MoonenFamily: (
        "MoonenFamily(label='M[1]', m=2, a=(1, 1, 1, 1), f=(1,), rows=(MoonenRow("
        "classes=(1,), polygons=(NewtonPolygon([(Fraction(0, 1), 1), (Fraction(1, 1), 1)]),"
        " NewtonPolygon([(Fraction(1, 2), 2)])), large_p=(False, False)),))"
    ),
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_each_field(cls):
    assert repr(_examples()[cls]) == REPRS[cls]


def test_a_family_with_steps_prints_them():
    fam = base_case(MonodromyDatum(7, (1, 1, 5)), 2)
    assert repr(fam).startswith(
        "CertifiedFamily(datum=MonodromyDatum(m=7, a=(1, 1, 5), generalized=False), p_class=2,"
    )
    assert "steps=(mappingproxy({'op': 'base_case', 'datum': MonodromyDatum(" in repr(fam)
