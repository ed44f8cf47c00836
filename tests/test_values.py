"""Value semantics of the package's eight immutable value classes: equality
and hash over the fields, the repr, immutability, defaults, normalisation
and validation."""

import copy
import pickle

import pytest

from ebs.config import Budget
from ebs.constants import ConstResult
from ebs.errors import SpecError
from ebs.semigroup import CyclicSpec, GroupSpec, ProductSpec
from ebs.sequences import Seq
from ebs.structure import IntSeq, StructClass

# class name -> (an object, the same fields built another way with keyword
# arguments, an object with other fields, the repr of the first)
CASES = {
    "Budget": (
        lambda: Budget(),
        lambda: Budget(node_budget=10**8, time_budget_s=60.0, state_cap=10**7, threads=1),
        lambda: Budget(threads=2),
        "Budget(node_budget=100000000, time_budget_s=60.0, state_cap=10000000, threads=1)",
    ),
    "ConstResult": (
        lambda: ConstResult("lhat", 3, 2, 4, "R", "formula"),
        lambda: ConstResult(quantity="lhat", value=3, lower=2, upper=4, rule="R",
                            method="formula", nodes=0, elapsed_ms=0, flags=()),
        lambda: ConstResult("lhat", 3, 2, 4, "R", "formula", flags=("f",)),
        "ConstResult(quantity='lhat', value=3, lower=2, upper=4, rule='R', "
        "method='formula', nodes=0, elapsed_ms=0, flags=())",
    ),
    "CyclicSpec": (
        lambda: CyclicSpec(3, 2),
        lambda: CyclicSpec(k=3, n=2),
        lambda: CyclicSpec(2, 3),
        "CyclicSpec(k=3, n=2)",
    ),
    "ProductSpec": (
        lambda: ProductSpec((CyclicSpec(3, 2), CyclicSpec(1, 4))),
        lambda: ProductSpec(coords=[CyclicSpec(3, 2), CyclicSpec(1, 4)]),
        lambda: ProductSpec((CyclicSpec(1, 4), CyclicSpec(3, 2))),
        "ProductSpec(coords=(CyclicSpec(k=3, n=2), CyclicSpec(k=1, n=4)))",
    ),
    "GroupSpec": (
        lambda: GroupSpec((2, 6)),
        lambda: GroupSpec(periods=[2, 6]),
        lambda: GroupSpec((6, 2)),
        "GroupSpec(periods=(2, 6))",
    ),
    "Seq": (
        lambda: Seq(((2, 1), (1, 3))),
        lambda: Seq(terms=[(1, 3), [2, 1]]),
        lambda: Seq(((2, 1), (1, 3), (1, 3))),
        "Seq(terms=((1, 3), (2, 1)))",
    ),
    "IntSeq": (
        lambda: IntSeq((3, 1, 2)),
        lambda: IntSeq(entries=[1, 2, 3]),
        lambda: IntSeq((1, 2, 4)),
        "IntSeq(entries=(1, 2, 3))",
    ),
    "StructClass": (
        lambda: StructClass("BEHAVING_I", 2, IntSeq((1, 1)), True),
        lambda: StructClass(tag="BEHAVING_I", c=2, h=IntSeq((1, 1)), threshold_met=True),
        lambda: StructClass("BEHAVING_I", 2, IntSeq((1, 1))),
        "StructClass(tag='BEHAVING_I', c=2, h=IntSeq(entries=(1, 1)), threshold_met=True)",
    ),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
class TestValueClass:
    def test_equal_fields_equal_and_hash_equal(self, name):
        make, same, other, _ = CASES[name]
        a, b, c = make(), same(), other()
        assert type(a).__name__ == name and type(b) is type(a) is type(c)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != c and not a == c
        assert len({a, b, c}) == 2

    def test_different_classes_never_equal(self, name):
        a = CASES[name][0]()
        for other_name in NAMES:
            if other_name != name:
                b = CASES[other_name][0]()
                assert a != b and b != a
        assert a != repr(a) and a != None  # noqa: E711

    def test_repr(self, name):
        make, same, _, text = CASES[name]
        assert repr(make()) == repr(same()) == text

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        a = CASES[name][0]()
        before = repr(a)
        field = before.split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.no_such_field = 1
        assert repr(a) == before

    def test_copy_and_pickle_round_trip(self, name):
        a = CASES[name][0]()
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is type(a) and b == a and repr(b) == repr(a)


def test_never_equal_to_the_bare_fields():
    assert CyclicSpec(3, 2) != (3, 2)
    assert GroupSpec((2, 6)) != (2, 6) and GroupSpec((2, 6)) != ((2, 6),)
    assert IntSeq((1, 2)) != (1, 2) and Seq.of(1) != ((1,),)
    assert Seq.of(1, 2) != IntSeq((1, 2))


class TestDefaults:
    def test_budget(self):
        b = Budget()
        assert (b.node_budget, b.time_budget_s, b.state_cap, b.threads) == (
            10**8, 60.0, 10**7, 1)

    def test_const_result(self):
        r = ConstResult("davenport", None, 1, 9, None, "brute")
        assert (r.nodes, r.elapsed_ms, r.flags) == (0, 0, ())

    def test_struct_class(self):
        s = StructClass("NONE")
        assert (s.c, s.h, s.threshold_met) == (None, None, False)
        assert s.to_dict() == {"tag": "NONE", "c": None, "H": None, "threshold_met": False}

    def test_budget_takes_any_limits(self):
        # method "both" hands the brute half the time the formula half
        # left, which may be spent: that is a budget exit inside the
        # search, not an invalid Budget
        assert Budget(time_budget_s=-0.5).time_budget_s == -0.5


class TestNormalisation:
    def test_product_spec_coords_become_a_tuple(self):
        coords = [CyclicSpec(1, 2), CyclicSpec(3, 1)]
        s = ProductSpec(coords)
        assert s.coords == tuple(coords) and type(s.coords) is tuple
        assert ProductSpec(iter(coords)) == s

    def test_group_spec_periods_become_a_tuple(self):
        g = GroupSpec([3, 2])
        assert g.periods == (3, 2) and type(g.periods) is tuple

    def test_seq_is_sorted_and_terms_are_tuples(self):
        t = Seq([[2, 1], (1, 3), 3])
        assert t.terms == ((1, 3), (2, 1), (3,))
        assert Seq.of(3, 1, 2).terms == ((1,), (2,), (3,))
        assert Seq(()).is_empty and len(Seq(())) == 0

    def test_int_seq_is_sorted(self):
        h = IntSeq([3, 1, 2, 1])
        assert h.entries == (1, 1, 2, 3) and type(h.entries) is tuple
        assert IntSeq.of(2, 1) == IntSeq((1, 2))


class TestValidation:
    @pytest.mark.parametrize("make, message", [
        (lambda: CyclicSpec(0, 1), "index must be a positive integer, got 0"),
        (lambda: CyclicSpec(1.5, 1), "index must be a positive integer, got 1.5"),
        (lambda: CyclicSpec(1, 0), "period must be a positive integer, got 0"),
        (lambda: CyclicSpec(1, "2"), "period must be a positive integer, got '2'"),
        (lambda: ProductSpec(()), "a product spec needs at least one coordinate"),
        (lambda: ProductSpec((1,)), "coordinate is not a CyclicSpec: 1"),
        (lambda: GroupSpec(()), "a group spec needs at least one modulus"),
        (lambda: GroupSpec((2, 0)), "modulus must be a positive integer, got 0"),
        (lambda: IntSeq((1, 0)), "entries must be positive integers, got 0"),
        (lambda: IntSeq((1, 2.0)), "entries must be positive integers, got 2.0"),
        (lambda: ConstResult("x", 1, 1, 1, None, "m"), "unknown quantity 'x'"),
    ], ids=["k", "k-float", "n", "n-str", "coords-empty", "coords-type", "periods-empty",
            "periods", "entries", "entries-float", "quantity"])
    def test_spec_error_message(self, make, message):
        with pytest.raises(SpecError) as info:
            make()
        assert str(info.value) == message

    def test_const_result_value_outside_interval(self):
        with pytest.raises(RuntimeError) as info:
            ConstResult("l", 5, 1, 4, None, "brute")
        assert type(info.value) is RuntimeError
        assert str(info.value) == "internal error: value 5 outside [1, 4] for l"
        assert ConstResult("l", None, 5, 4, None, "brute").value is None
