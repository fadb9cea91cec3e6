"""Value records: equality, hash, repr and immutability of every record type,
the checks their constructors make, and what importing ringcode loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ringcode.dominance import (
    CharacteristicObstruction,
    DominanceVerdict,
    EquivalenceStep,
    FactorSelection,
    FieldCriterion,
    FieldViolation,
    ModReductionStep,
    Obligation,
    PartitionRing,
    Relation,
    SubfieldStep,
    _FIELD,
    _Factor,
)
from ringcode.network import Edge, Message, Network, Receiver, ScalarLinearCode, TransferVector
from ringcode.partitions import Partition
from ringcode.rings import (
    DualNumbers,
    GaloisField,
    IntegersMod,
    PrimeField,
    Product,
    RingElement,
    _Spec,
    arithmetic,
    element,
    is_prime,
    mod_reduction,
    subring_inclusion,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> (build, field names, repr as @dataclass wrote it); each build()
# makes a new record equal to the one before
FROZEN = {
    "PrimeField": (lambda: PrimeField(5), ("p",), "PrimeField(p=5)"),
    "GaloisField": (
        lambda: GaloisField(2, 3),
        ("p", "k", "modulus"),
        "GaloisField(p=2, k=3, modulus=(1, 0, 1, 1))",
    ),
    "IntegersMod": (lambda: IntegersMod(77), ("n",), "IntegersMod(n=77)"),
    "DualNumbers": (lambda: DualNumbers(3), ("p",), "DualNumbers(p=3)"),
    "Product": (
        lambda: Product([PrimeField(2), IntegersMod(9)]),
        ("factors",),
        "Product(factors=(PrimeField(p=2), IntegersMod(n=9)))",
    ),
    "RingElement": (
        lambda: RingElement(GaloisField(2, 3), (1, 0, 1)),
        ("ring", "payload"),
        "RingElement(ring=GaloisField(p=2, k=3, modulus=(1, 0, 1, 1)), payload=(1, 0, 1))",
    ),
    "Edge": (lambda: Edge("e", "s", "t"), ("id", "tail", "head"), "Edge(id='e', tail='s', head='t')"),
    "Message": (lambda: Message("x", "s"), ("id", "source"), "Message(id='x', source='s')"),
    "Receiver": (lambda: Receiver("t", ("x",)), ("node", "demands"), "Receiver(node='t', demands=('x',))"),
    "Network": (
        lambda: Network(("s", "t"), (Edge("e", "s", "t"),), (Message("x", "s"),), (Receiver("t", ("x",)),)),
        ("nodes", "edges", "messages", "receivers"),
        "Network(nodes=('s', 't'), edges=(Edge(id='e', tail='s', head='t'),), "
        "messages=(Message(id='x', source='s'),), receivers=(Receiver(node='t', demands=('x',)),))",
    ),
    "Partition": (lambda: Partition((1, 3, 2)), ("parts",), "Partition(parts=(3, 2, 1))"),
    "PartitionRing": (
        lambda: PartitionRing(((3, Partition((1,))), (2, Partition((2, 1))))),
        ("assignment",),
        "PartitionRing(assignment=((2, Partition(parts=(2, 1))), (3, Partition(parts=(1,)))))",
    ),
    "FieldCriterion": (
        lambda: FieldCriterion(((2, 2, 1),)),
        ("assignments",),
        "FieldCriterion(assignments=((2, 2, 1),))",
    ),
    "FieldViolation": (
        lambda: FieldViolation(3, 2, (1, 3)),
        ("prime", "exponent", "available"),
        "FieldViolation(prime=3, exponent=2, available=(1, 3))",
    ),
    "ModReductionStep": (
        lambda: ModReductionStep(9, 3),
        ("source_modulus", "target_modulus"),
        "ModReductionStep(source_modulus=9, target_modulus=3)",
    ),
    "SubfieldStep": (
        lambda: SubfieldStep(2, 1, 4),
        ("p", "source_degree", "target_degree"),
        "SubfieldStep(p=2, source_degree=1, target_degree=4)",
    ),
    "FactorSelection": (
        lambda: FactorSelection(0, "GF(2)"),
        ("index", "factor"),
        "FactorSelection(index=0, factor='GF(2)')",
    ),
    "EquivalenceStep": (
        lambda: EquivalenceStep("crt-split", "Z(6) is isomorphic to Z(2)xZ(3)"),
        ("rule", "detail"),
        "EquivalenceStep(rule='crt-split', detail='Z(6) is isomorphic to Z(2)xZ(3)')",
    ),
    "CharacteristicObstruction": (
        lambda: CharacteristicObstruction(4, 4, 3),
        ("witness_modulus", "left_char", "right_char"),
        "CharacteristicObstruction(witness_modulus=4, left_char=4, right_char=3)",
    ),
    "Obligation": (lambda: Obligation("open"), ("description",), "Obligation(description='open')"),
    "DominanceVerdict": (
        lambda: DominanceVerdict(Relation.DOMINATES, (ModReductionStep(9, 3),)),
        ("relation", "certificate"),
        "DominanceVerdict(relation=<Relation.DOMINATES: 'dominates'>, "
        "certificate=(ModReductionStep(source_modulus=9, target_modulus=3),))",
    ),
    "_Factor": (lambda: _Factor(_FIELD, 2, 3), ("kind", "p", "k"), "_Factor(kind='field', p=2, k=3)"),
}


def _code():
    one = RingElement(PrimeField(2), 1)
    return ScalarLinearCode(PrimeField(2), {"e": (one,)}, {("t", "x"): (one,)})


MUTABLE = {
    "ScalarLinearCode": (
        _code,
        ("ring", "edge_coeffs", "decoders"),
        "ScalarLinearCode(ring=PrimeField(p=2), edge_coeffs={'e': (RingElement(ring=PrimeField(p=2), "
        "payload=1),)}, decoders={('t', 'x'): (RingElement(ring=PrimeField(p=2), payload=1),)})",
    ),
    "TransferVector": (
        lambda: TransferVector({"x": RingElement(PrimeField(2), 1)}),
        ("coefficients",),
        "TransferVector(coefficients={'x': RingElement(ring=PrimeField(p=2), payload=1)})",
    ),
}
RECORDS = {**FROZEN, **MUTABLE}


def _fields(record, names):
    return tuple(getattr(record, n) for n in names)


class TestRecordParity:
    """Every record type behaves as the @dataclass it replaced: the same
    equality, hash, repr, immutability, copy and pickle."""

    @pytest.mark.parametrize("name", RECORDS)
    def test_equal_fields_make_equal_records_with_the_dataclass_repr(self, name):
        build, names, text = RECORDS[name]
        a, b = build(), build()
        assert a is not b and a == b and not a != b
        assert repr(a) == text

    @pytest.mark.parametrize("name", FROZEN)
    def test_hash_is_the_hash_of_the_field_tuple(self, name):
        build, names, _ = FROZEN[name]
        a, b = build(), build()
        assert hash(a) == hash(b) == hash(_fields(a, names))
        assert {a: name}[b] == name

    @pytest.mark.parametrize("name", RECORDS)
    def test_never_equal_to_another_type_with_the_same_fields(self, name):
        build, names, _ = RECORDS[name]
        a = build()
        values = _fields(a, names)
        assert a != values and values != a
        assert not a == values

    @pytest.mark.parametrize(
        "a, b",
        [
            (PrimeField(5), IntegersMod(5)),
            (PrimeField(3), DualNumbers(3)),
            (ModReductionStep(9, 3), (9, 3)),
            (Message("a", "b"), EquivalenceStep("a", "b")),
            (Obligation("x"), TransferVector("x")),
            (Partition((2, 1)), FieldCriterion((2, 1))),
        ],
        ids=["GF(5)-Z(5)", "GF(3)-D(3)", "step-tuple", "Message-EquivalenceStep", "Obligation-TransferVector",
             "Partition-FieldCriterion"],
    )
    def test_equality_is_type_strict(self, a, b):
        assert a != b and b != a

    @pytest.mark.parametrize("name", FROZEN)
    def test_frozen_kinds_refuse_assignment_and_deletion(self, name):
        build, names, _ = FROZEN[name]
        a = build()
        for field in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, field, None)
            with pytest.raises(AttributeError):
                delattr(a, field)
        assert a == build()

    @pytest.mark.parametrize("name", FROZEN)
    def test_copy_and_pickle_keep_the_value(self, name):
        a = FROZEN[name][0]()
        for spec in (a, getattr(a, "ring", None)):
            if isinstance(spec, _Spec):
                arithmetic(spec)  # a kept record is not part of the value
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and hash(b) == hash(a) and repr(b) == repr(a)

    @pytest.mark.parametrize("name", MUTABLE)
    def test_codes_are_mutable_and_unhashable(self, name):
        build, names, _ = MUTABLE[name]
        a = build()
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, names[0], None)
        assert getattr(a, names[0]) is None and a != build()

    def test_homs_compare_by_identity(self):
        a, b = mod_reduction(IntegersMod(12), IntegersMod(4)), mod_reduction(IntegersMod(12), IntegersMod(4))
        assert a == a and a != b and hash(a) == object.__hash__(a)
        assert repr(a) == (
            "RingHom(kind='mod_reduction', source=IntegersMod(n=12), target=IntegersMod(n=4), "
            "index=None, table=None)"
        )
        inclusion = subring_inclusion(PrimeField(2), GaloisField(2, 2))
        assert repr(inclusion).endswith("index=None, table=mappingproxy({0: (0, 0), 1: (1, 0)}))")
        with pytest.raises(AttributeError):
            a.kind = "crt"
        with pytest.raises(AttributeError):
            del a.table


class TestRecordConstructors:
    """Constructors refuse a bool, a float or any other non-int field, and a
    product factor that is not a ring, with ValueError when built; so does
    rings.element for a residue or coefficient of such a type."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PrimeField(5.0),
            lambda: IntegersMod(4.0),
            lambda: DualNumbers(3.0),
            lambda: GaloisField(2, 3.0),
            lambda: GaloisField(2.0, 3),
            lambda: Partition((True, 2)),
            lambda: Product((5,)),
            lambda: Product((PrimeField(2), "GF(3)")),
            lambda: element(IntegersMod(5000), True),
            lambda: element(GaloisField(2, 13), (0.5,) + (0,) * 12),
            lambda: element(GaloisField(2, 2), (0.5, 0)),
            lambda: element(DualNumbers(3), (1, True)),
            lambda: element(Product((PrimeField(2), IntegersMod(4))), (True, 3)),
        ],
        ids=[
            "PrimeField(5.0)",
            "IntegersMod(4.0)",
            "DualNumbers(3.0)",
            "GaloisField(2, 3.0)",
            "GaloisField(2.0, 3)",
            "Partition((True, 2))",
            "Product((5,))",
            "Product((GF(2), 'GF(3)'))",
            "element(Z(5000), True)",
            "element(GF(2^13), 0.5 + ...)",
            "element(GF(4), 0.5)",
            "element(D(3), 1 + True x)",
            "element(GF(2)xZ(4), (True, 3))",
        ],
    )
    def test_refuses(self, build):
        with pytest.raises(ValueError):
            build()

    def test_is_prime_is_false_off_int(self):
        assert is_prime(5) and not is_prime(5.0) and not is_prime(True)


def test_import_guard_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only ringcode's own imports count
    code = "import sys, ringcode, ringcode.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
