import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from ebs import sequences, structure
from ebs.config import Budget
from ebs.constants import BRUTE
from ebs.errors import BudgetExceeded, PreconditionError, SpecError
from ebs.semigroup import CyclicSpec
from ebs.sequences import ReachEngine, Seq
from ebs.structure import (
    BEHAVING_I,
    N1_SPLIT_IV,
    N1_TWOS_V,
    N2_SPECIAL_III,
    NONE,
    THM61,
    TWO_POWER_II,
    IntSeq,
    StructClass,
    behaving_bound_classify,
    classify_free_sequence,
    classify_threshold,
    has_structure,
    is_behaving,
    l_const,
    lhat,
    savchev_chen,
    structure_gap_report,
    subset_sums,
)


class TestIntSeq:
    def test_sorted_and_validated(self):
        assert IntSeq.of(3, 1, 2).entries == (1, 2, 3)
        with pytest.raises(SpecError):
            IntSeq.of(0)
        with pytest.raises(SpecError):
            IntSeq.of(-2)

    def test_total(self):
        assert IntSeq.of(1, 1, 2).total == 4


class TestSubsetSums:
    def test_frozen(self):
        assert subset_sums(IntSeq.of(1, 1, 2)) == frozenset({1, 2, 3, 4})
        assert subset_sums(IntSeq.of(2, 2)) == frozenset({2, 4})

    @given(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_matches_oracle(self, ints):
        assert subset_sums(IntSeq(tuple(ints))) == oracle.naive_subset_sums(ints)

    def test_bound(self):
        # a total past the bound is an input the operations do not take,
        # not a spent budget: no search ran
        for op in (subset_sums, is_behaving):
            with pytest.raises(PreconditionError, match="over bound 1000000"):
                op(IntSeq.of(10**7))


class TestBehaving:
    @pytest.mark.parametrize("ints,expected", [
        ((1,), True),
        ((2,), False),
        ((1, 2), True),
        ((1, 1, 2), True),
        ((2, 2), False),
        ((1, 1, 4), False),
        ((1, 2, 3), True),
    ])
    def test_frozen(self, ints, expected):
        assert is_behaving(IntSeq(ints)) is expected

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            is_behaving(IntSeq(()))

    @pytest.mark.parametrize("ints,cls", [
        ((1, 2), "behaving"),
        ((2, 2), "eq_twos"),
        ((2, 2, 2), "eq_twos"),
        ((1, 1, 4), "eq_split"),
        ((1, 3), "eq_split"),
        ((3, 3), "strict"),
        ((2, 3), "strict"),
    ])
    def test_bound_classify_frozen(self, ints, cls):
        assert behaving_bound_classify(IntSeq(ints)) == cls

    def test_small_exhaustive_bound_law(self):
        for length in range(1, 5):
            for ints in itertools.combinations_with_replacement(range(1, 9), length):
                h = IntSeq(ints)
                behaving = oracle.naive_is_behaving(ints)
                assert is_behaving(h) == behaving
                if not behaving:
                    assert sum(ints) >= 2 * length
                    cls = behaving_bound_classify(h)
                    if sum(ints) == 2 * length:
                        assert cls in ("eq_twos", "eq_split")
                    else:
                        assert cls == "strict"


class TestSavchevChen:
    def test_frozen_examples(self):
        assert savchev_chen(5, (3, 3, 3)) == (3, IntSeq.of(1, 1, 1))
        assert savchev_chen(7, (2, 2, 2, 2)) == (2, IntSeq.of(1, 1, 1, 1))
        assert savchev_chen(5, (1, 3)) == (3, IntSeq.of(1, 2))
        assert savchev_chen(7, (1, 3)) is None
        assert savchev_chen(7, Seq.of(3, 3, 3)) == (3, IntSeq.of(1, 1, 1))

    def test_modulus_validation(self):
        with pytest.raises(PreconditionError):
            savchev_chen(1, (1,))

    def test_empty_input(self):
        assert savchev_chen(5, ()) is None

    def test_rank_two_group_sequence_rejected(self):
        with pytest.raises(SpecError, match="expected a rank-one group sequence"):
            savchev_chen(7, Seq.of((1, 2), (3, 4)))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_totality_on_guaranteed_lengths(self, n):
        for length in range(n // 2 + 1, n):
            for t in oracle.enumerate_zsf(n, length):
                got = savchev_chen(n, t)
                assert got is not None, (n, t)
                c, h = got
                assert h.total <= n - 1 and is_behaving(h)
                assert sorted((c * v) % n for v in h) == sorted(v % n for v in t)

    @given(st.integers(2, 12), st.lists(st.integers(0, 30), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_any_success_is_valid(self, n, vals):
        got = savchev_chen(n, vals)
        if got is not None:
            c, h = got
            import math
            assert math.gcd(c, n) == 1
            assert h.total <= n - 1 and is_behaving(h)
            assert sorted((c * v) % n for v in h) == sorted(v % n for v in vals)


class TestClassify:
    @pytest.mark.parametrize("k,n,ind,tag", [
        (5, 1, (2, 2), N1_TWOS_V),
        (5, 1, (1, 3), N1_SPLIT_IV),
        (7, 3, (2, 2, 2, 2, 2), TWO_POWER_II),
        (6, 2, (2, 2, 5), N2_SPECIAL_III),
        (7, 4, (1, 1, 1, 1, 1, 1, 1), BEHAVING_I),
        (3, 5, (1, 1, 1), BEHAVING_I),
    ])
    def test_frozen_tags(self, k, n, ind, tag):
        res = classify_free_sequence(CyclicSpec(k, n), Seq.of(*ind))
        assert res.tag == tag

    def test_overlap_at_k3(self):
        res = classify_free_sequence(CyclicSpec(3, 1), Seq.of(2))
        assert res.tag == N1_SPLIT_IV  # the two odd shapes coincide here

    def test_witness_reconstructs(self):
        res = classify_free_sequence(CyclicSpec(3, 5), Seq.of(1, 1, 1))
        assert res.c is not None and res.h is not None
        assert sorted((res.c * v) % 5 for v in res.h) == [1, 1, 1]

    def test_threshold_met_flag(self):
        res = classify_free_sequence(CyclicSpec(7, 3), Seq.of(2, 2, 2, 2, 2))
        assert res.threshold_met is False
        res2 = classify_free_sequence(CyclicSpec(7, 4), Seq.of(1, 1, 1, 1, 1, 1, 1))
        assert res2.threshold_met is True  # 7 >= 12/2

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="threshold"):
            classify_free_sequence(CyclicSpec(9, 1), Seq.of(1, 2))
        with pytest.raises(PreconditionError, match="free"):
            classify_free_sequence(CyclicSpec(5, 1), Seq.of(2, 3))
        with pytest.raises(SpecError, match="one cyclic semigroup"):
            classify_free_sequence(CyclicSpec(3, 2), Seq(((1, 1),)))
        with pytest.raises(SpecError, match=r"outside \[1, 4\]"):
            classify_free_sequence(CyclicSpec(3, 2), Seq.of(9))

    def test_serialization(self):
        d = classify_free_sequence(CyclicSpec(5, 1), Seq.of(2, 2)).to_dict()
        assert d == {"tag": N1_TWOS_V, "c": 1, "H": [2, 2], "threshold_met": False}

    def test_classify_threshold_values(self):
        assert classify_threshold(CyclicSpec(5, 1)) == 2
        assert classify_threshold(CyclicSpec(7, 3)) == 5
        assert classify_threshold(CyclicSpec(4, 7)) == 4


class TestHasStructure:
    def test_free_mode_frozen(self):
        c = CyclicSpec(3, 2)
        assert has_structure(c, Seq.of(1, 1, 1), "free") is True
        assert has_structure(c, Seq.of(3), "free") is False

    def test_minimal_mode_frozen(self):
        c = CyclicSpec(3, 2)
        assert has_structure(c, Seq.of(1, 1, 1, 1), "minimal") is True
        c2 = CyclicSpec(2, 4)
        assert has_structure(c2, Seq.of(2, 2), "minimal") is True
        c3 = CyclicSpec(3, 1)
        assert has_structure(c3, Seq.of(3), "minimal") is False

    def test_free_mode_savchev_route(self):
        c = CyclicSpec(2, 7)
        assert has_structure(c, Seq.of(2, 2, 2), "free") is True
        assert has_structure(c, Seq.of(1, 3), "free") is False

    def test_preconditions(self):
        c = CyclicSpec(3, 2)
        with pytest.raises(PreconditionError):
            has_structure(c, Seq.of(4), "free")  # the idempotent is not free
        with pytest.raises(PreconditionError):
            has_structure(c, Seq.of(1), "minimal")
        with pytest.raises(SpecError):
            has_structure(c, Seq.of(1), "loose")
        with pytest.raises(PreconditionError):
            has_structure(c, Seq(()), "free")
        with pytest.raises(SpecError, match="one cyclic semigroup"):
            has_structure(c, Seq(((1, 1),)), "free")
        with pytest.raises(SpecError, match=r"outside \[1, 4\]"):
            has_structure(c, Seq.of(9), "free")


LHAT_TABLE = [
    # (k, n, formula value or None, lower, upper, brute)
    (1, 1, 0, 0, 0, 0),
    (2, 1, 1, 1, 1, 1),
    (5, 1, 3, 3, 3, 3),
    (3, 2, 3, 3, 3, 3),
    (5, 2, 4, 4, 4, 4),
    (4, 3, None, 4, 4, 4),
    (7, 3, 6, 6, 6, 6),
    (1, 4, 2, 2, 2, 2),
    (1, 6, 4, 4, 4, 4),
]

L_TABLE = [
    (1, 1, 1, 1, 1, 1),
    (2, 1, 2, 2, 2, 2),
    (5, 1, 4, 4, 4, 4),
    (3, 2, None, 2, 3, 3),
    (5, 2, None, 3, 4, 4),
    (4, 3, None, 4, 5, 4),
    (7, 3, 7, 7, 7, 7),
    (1, 6, 5, 5, 5, 5),
    (1, 8, 6, 6, 6, 6),
]


BRUTE_PINS = [
    # (k, n, lhat brute, l brute, nodes of each search): values and node
    # counts stay fixed whatever the search uses underneath
    (16, 7, 14, 15, 104258),
    (1, 16, 9, 10, 31554),
    (9, 4, 7, 7, 2319),
    (15, 6, 10, 10, 37983),
]


# the structure_check grid: C(1;n) for n <= 16, and C(k;n) for n <= 7 < k <= 16
GRID_C1N = {
    # brute lhat and l of C(1;n) for n = 1, ..., 16
    "lhat": (0, 1, 1, 2, 1, 4, 3, 5, 5, 6, 6, 7, 7, 8, 8, 9),
    "l": (1, 1, 1, 1, 1, 5, 1, 6, 6, 7, 7, 8, 8, 9, 9, 10),
}
GRID_ROWS = {
    # n: brute lhat and l of C(k;n) for k = n+1, ..., 16
    1: ((1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8),
        (2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9)),
    2: ((3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9),
        (3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9)),
    3: ((4, 4, 4, 6, 6, 6, 7, 7, 7, 9, 9, 9, 10),
        (4, 4, 4, 7, 7, 7, 7, 7, 7, 10, 10, 10, 10)),
    4: ((5, 5, 5, 5, 7, 7, 7, 7, 9, 9, 9, 9),
        (5, 5, 5, 5, 7, 7, 7, 7, 9, 9, 9, 9)),
    5: ((6, 6, 6, 6, 6, 10, 10, 10, 10, 10, 11),
        (6, 6, 6, 6, 6, 11, 11, 11, 11, 11, 11)),
    6: ((7, 7, 7, 7, 7, 7, 10, 10, 10, 10),
        (7, 7, 7, 7, 7, 7, 10, 10, 10, 10)),
    7: ((8, 8, 8, 8, 8, 8, 8, 14, 14),
        (8, 8, 8, 8, 8, 8, 8, 15, 15)),
}
GRID_NODES = 873990  # summed over the grid, for each of the two searches
GRID_SPECS = [(1, n) for n in range(1, 17)] + [
    (k, n) for n in GRID_ROWS for k in range(n + 1, 17)]

# small C(k;n) in both regimes, each checked against the definition-level
# oracle in a fraction of a second
L_ORACLE_SPECS = [
    (1, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 5), (1, 6), (4, 6), (1, 7),
    (2, 7), (1, 8), (4, 8), (1, 9), (1, 10),
    (2, 1), (5, 1), (8, 1), (3, 2), (5, 2), (9, 2), (4, 3), (5, 3), (7, 3),
    (8, 3), (5, 4), (6, 4), (6, 5), (7, 5), (7, 6),
]


def side_by_side(kind, scratch, calls):
    """A watch kind that runs kind's watch and the from-scratch one of
    _oracles side by side, asserts that they answer each report alike,
    logs the reports' stacks in calls, and reads off both values."""
    def watch(c, alphabet):
        on_free, value = kind(c, alphabet)
        on_scratch, scratch_value = scratch(c.k, c.n, alphabet)

        def both(stack):
            calls.append(tuple(stack))
            got = on_free(stack)
            assert got == on_scratch(stack), (c, calls[-1])
            return got

        return both, lambda: (value(), scratch_value())
    return watch


class TestLhatAndL:
    @pytest.mark.parametrize("k,n,value,lower,upper,brute", LHAT_TABLE)
    def test_lhat_frozen(self, k, n, value, lower, upper, brute):
        c = CyclicSpec(k, n)
        f = lhat(c, "formula")
        assert (f.value, f.lower, f.upper, f.rule) == (value, lower, upper, THM61)
        b = lhat(c, "brute")
        assert (b.value, b.rule) == (brute, BRUTE)

    @pytest.mark.parametrize("k,n,value,lower,upper,brute", L_TABLE)
    def test_l_frozen(self, k, n, value, lower, upper, brute):
        c = CyclicSpec(k, n)
        f = l_const(c, "formula")
        assert (f.value, f.lower, f.upper, f.rule) == (value, lower, upper, THM61)
        b = l_const(c, "brute")
        assert (b.value, b.rule) == (brute, BRUTE)

    @pytest.mark.parametrize("k,n,lhat_value,l_value,nodes", BRUTE_PINS)
    def test_brute_values_and_nodes_pinned(self, k, n, lhat_value, l_value, nodes):
        lh, l = lhat(CyclicSpec(k, n), "brute"), l_const(CyclicSpec(k, n), "brute")
        assert (lh.value, lh.nodes, l.value, l.nodes) == (lhat_value, nodes, l_value, nodes)

    # (k, n, on_free calls of lhat, of l): C(16;7) has 13,671 free nodes
    # and C(1;16) 7,235; the rest lie within the depth the watch has given
    # up, and are counted from the records or skipped as leaves
    WATCH_CALLS = [(16, 7, 1239, 1388), (1, 16, 2281, 2281)]

    @pytest.mark.parametrize("k,n,lhat_calls,l_calls", WATCH_CALLS)
    def test_watch_sees_only_the_nodes_it_needs(self, monkeypatch, k, n, lhat_calls, l_calls):
        calls = []

        def counting(kind):
            def watch(c, alphabet):
                on_free, value = kind(c, alphabet)

                def counted(stack):
                    calls.append(len(stack))
                    return on_free(stack)

                return counted, value
            return watch

        for name in ("_lhat_watch", "_l_watch"):
            monkeypatch.setattr(structure, name, counting(getattr(structure, name)))
        for const, want in ((lhat, lhat_calls), (l_const, l_calls)):
            calls.clear()
            const(CyclicSpec(k, n), "brute")
            assert len(calls) == want, const.__name__

    def test_structure_grid_pinned(self):
        want = {(1, n): (GRID_C1N["lhat"][n - 1], GRID_C1N["l"][n - 1]) for n in range(1, 17)}
        for n, (lhats, ls) in GRID_ROWS.items():
            want.update({(k, n): pair for k, pair in zip(range(n + 1, 17), zip(lhats, ls))})
        assert list(want) == GRID_SPECS and len(want) == 100
        got, nodes = {}, {"lhat": 0, "l": 0}
        for (k, n) in want:
            lh, l = lhat(CyclicSpec(k, n), "brute"), l_const(CyclicSpec(k, n), "brute")
            got[(k, n)] = (lh.value, l.value)
            nodes["lhat"] += lh.nodes
            nodes["l"] += l.nodes
        assert got == want
        assert nodes == {"lhat": GRID_NODES, "l": GRID_NODES}

    @pytest.mark.parametrize("entries", [0, sequences.SEARCH_MEMO_ENTRIES])
    def test_watches_match_recomputing_ones(self, monkeypatch, entries):
        # The watches keep the structure states of a stack's prefixes from
        # report to report, which holds only in the walker's reporting
        # order.  Beside watches that test every stack from scratch, on the
        # structure_check grid and C(15;6), with and without the memo, every
        # on_free answer and every value agrees.
        monkeypatch.setattr(sequences, "SEARCH_MEMO_ENTRIES", entries)
        pairs = {"lhat": (structure._lhat_watch, oracle.recomputing_lhat_watch),
                 "l": (structure._l_watch, oracle.recomputing_l_watch)}
        calls = {"lhat": [], "l": []}
        for k, n in GRID_SPECS + [(15, 6)]:
            for name, (kind, scratch) in pairs.items():
                ((got, want),), _ = structure._brute_walk(
                    CyclicSpec(k, n), Budget(), (side_by_side(kind, scratch, calls[name]),))
                assert got == want, (k, n, name)
        assert len(calls["lhat"]) > 20000 and len(calls["l"]) > 20000

    @pytest.mark.parametrize("k,n", [(16, 7), (15, 6), (9, 4), (5, 2)])
    def test_watches_on_every_first_term(self, k, n):
        # A one-term stack needs only the root's state, so fresh watches
        # answer each alike, the walk's order aside.  Among them are stacks
        # whose minimal completions run up to the largest index value,
        # which the walk reports only when they are too short to change
        # its answer.
        c = CyclicSpec(k, n)
        alphabet = [v for v in range(1, c.size + 1) if v != c.cap]
        for kind, scratch in ((structure._lhat_watch, oracle.recomputing_lhat_watch),
                              (structure._l_watch, oracle.recomputing_l_watch)):
            for i in range(len(alphabet)):
                got = kind(c, alphabet)[0]([i])
                assert got == scratch(k, n, alphabet)[0]([i]), (kind.__name__, alphabet[i])

    @pytest.mark.parametrize("k,n", L_ORACLE_SPECS)
    def test_l_brute_matches_naive(self, k, n):
        assert l_const(CyclicSpec(k, n), "brute").value == oracle.naive_l(k, n)

    @pytest.mark.parametrize("k,n", [(k, n) for k, n in L_ORACLE_SPECS if k > n])
    def test_lhat_brute_matches_naive_above_period(self, k, n):
        assert lhat(CyclicSpec(k, n), "brute").value == oracle.naive_lhat(k, n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lhat_brute_matches_naive_below_period(self, n):
        want = oracle.naive_lhat_small_k(n)
        for k in sorted({1, (n + 1) // 2, n}):
            assert lhat(CyclicSpec(k, n), "brute").value == want

    def test_published_table_gap_is_flagged(self):
        # the closed form disagrees with exhaustive search at n = 5 and 7
        for n, v, nodes in ((5, 1, 58), (7, 3, 275)):
            r = lhat(CyclicSpec(1, n), "both")
            assert (r.value, r.lower, r.upper, r.rule, r.nodes, r.flags) == (
                v, v, v, BRUTE, nodes, ("formula-brute-mismatch",))

    def test_both_agreeing_keeps_formula_rule(self):
        r = lhat(CyclicSpec(5, 1), "both")
        assert r.value == 3 and r.rule == THM61 and not r.flags

    def test_both_interval_case(self):
        # the table gives only an interval, and keeps its rule
        r = l_const(CyclicSpec(3, 2), "both")
        assert (r.value, r.lower, r.upper, r.rule, r.nodes, r.flags) == (
            3, 2, 3, THM61, 18, ())

    def test_brute_is_k_independent_below_period(self):
        assert lhat(CyclicSpec(2, 6), "brute").value == lhat(CyclicSpec(6, 6), "brute").value
        assert l_const(CyclicSpec(3, 8), "brute").value == l_const(CyclicSpec(8, 8), "brute").value

    def test_l_at_most_lhat_plus_one(self):
        for n in range(1, 5):
            for k in range(n + 1, 9 - n):
                c = CyclicSpec(k, n)
                assert l_const(c, "brute").value <= lhat(c, "brute").value + 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            lhat(CyclicSpec(14, 1), "brute", Budget(node_budget=50))

    @pytest.mark.parametrize("const", [lhat, l_const])
    def test_state_cap_checked_before_build(self, monkeypatch, const):
        def build(cls, *args):
            raise AssertionError("engine built for an over-cap search")

        monkeypatch.setattr(ReachEngine, "_build", classmethod(build))
        with pytest.raises(BudgetExceeded, match="state count 2000 over cap 10"):
            const(CyclicSpec(2000, 1), "brute", Budget(time_budget_s=0.5, state_cap=10))

    def test_unknown_method(self):
        with pytest.raises(SpecError):
            lhat(CyclicSpec(3, 2), "table")


class TestGapReport:
    def test_lhat_report(self):
        report = structure_gap_report("lhat", 5, 2)
        assert report["summary"] == {"rows": 7, "anomalies": 0, "skipped": 0}
        for row in report["rows"]:
            assert row["lower"] <= row["brute"] <= row["upper"]

    def test_l_report_includes_relation(self):
        report = structure_gap_report("l", 4, 2)
        assert report["summary"]["anomalies"] == 0
        assert all(r["le_lhat_plus_1"] for r in report["rows"])

    def test_unknown_quantity(self):
        with pytest.raises(SpecError):
            structure_gap_report("length", 3, 2)

    def test_budget_rows_marked_skipped(self):
        report = structure_gap_report("lhat", 9, 1, Budget(node_budget=30))
        assert report["summary"]["skipped"] >= 1

    @pytest.fixture
    def walks(self, monkeypatch):
        """The search_free calls of the structure module, counted; a walk
        whose number is listed in `fail` raises a budget error instead."""
        real = structure.search_free
        calls = []
        fail = set()

        def counted(*args, **kwargs):
            calls.append(args)
            if len(calls) in fail:
                raise BudgetExceeded("time budget 1s exhausted")
            return real(*args, **kwargs)

        monkeypatch.setattr(structure, "search_free", counted)
        return calls, fail

    @pytest.mark.parametrize("quantity", ["lhat", "l"])
    def test_one_walk_per_row(self, walks, quantity):
        calls, _ = walks
        report = structure_gap_report(quantity, 8, 3)
        assert len(calls) == report["summary"]["rows"] == 18
        # the rows are those of separate brute searches
        fn = lhat if quantity == "lhat" else l_const
        for row in report["rows"]:
            k, n = map(int, row["spec"][2:-1].split(";"))
            c = CyclicSpec(k, n)
            assert row["brute"] == fn(c, "brute").value
            if quantity == "l":
                assert row["lhat_brute"] == lhat(c, "brute").value
                assert row["le_lhat_plus_1"] == (row["brute"] <= row["lhat_brute"] + 1)

    def test_budget_error_skips_only_its_row(self, walks):
        calls, fail = walks
        fail.add(2)
        report = structure_gap_report("l", 5, 1)
        assert [("skipped" in r) for r in report["rows"]] == [False, True, False, False]
        assert report["summary"]["skipped"] == 1
        assert len(calls) == 4


class TestStructClassType:
    def test_defaults(self):
        sc = StructClass(NONE)
        assert sc.to_dict() == {"tag": NONE, "c": None, "H": None,
                                "threshold_met": False}
