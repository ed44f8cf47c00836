import itertools
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from ebs import constants, sequences, structure
from ebs.config import Budget
from ebs.constants import (
    BRUTE,
    COR31_DIV,
    COR31_PPOW,
    COR31_R1,
    THM31_BOUNDS,
    THM31_III,
    THM31_III_REFUTED,
    THM31_II_EQ,
    THM32_REDUCE,
    THM41_II,
    THM_D_PGROUP,
    THM_D_RANK2,
    ConstResult,
    _davenport_brute,
    build_axis_witness,
    build_lift_witness,
    build_uniform_witness,
    d_star,
    davenport,
    eb_bounds,
    eb_bruteforce,
    eb_exact,
    erdos_burgess,
    explore_conjecture,
    invariant_factors,
    reduce_spec,
)
from ebs.errors import BudgetExceeded, SpecError
from ebs.semigroup import CyclicSpec, GroupSpec, ProductSpec, format_spec, parse_spec
from ebs.sequences import ReachEngine, is_idempotent_sum_free, is_zero_sum_free
from ebs.structure import l_const, lhat
from test_acceptance import rank2_grid


def slow_build(monkeypatch):
    """Make every engine build take 0.2 s longer."""
    build = ReachEngine._build.__func__

    def slow(cls, *args):
        time.sleep(0.2)
        return build(cls, *args)

    monkeypatch.setattr(ReachEngine, "_build", classmethod(slow))


class TestInvariantFactors:
    @pytest.mark.parametrize("periods,expected", [
        ((1,), ()),
        ((1, 1), ()),
        ((5,), (5,)),
        ((2, 2), (2, 2)),
        ((2, 4), (2, 4)),
        ((4, 6), (2, 12)),
        ((2, 3), (6,)),
        ((2, 2, 3), (2, 6)),
        ((6, 10, 15), (30, 30)),
        ((2, 1, 3), (6,)),
    ])
    def test_frozen(self, periods, expected):
        assert invariant_factors(GroupSpec(periods)) == expected

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_chain_and_order(self, periods):
        import math
        g = GroupSpec(tuple(periods))
        fs = invariant_factors(g)
        assert all(b % a == 0 for a, b in zip(fs, fs[1:]))
        assert math.prod(fs) == g.order

    @given(st.lists(st.integers(1, 36), min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_matches_primary_decomposition(self, periods):
        # the chain test above cannot tell (2, 2) from (4)
        assert (invariant_factors(GroupSpec(tuple(periods)))
                == oracle.naive_invariant_factors(periods))

    def test_d_star(self):
        assert d_star(GroupSpec((2, 4))) == 4
        assert d_star(GroupSpec((1,))) == 0
        assert d_star(GroupSpec((2, 3))) == 5  # via invariant factor 6


class TestDavenport:
    @pytest.mark.parametrize("periods,value,rule", [
        ((1,), 1, THM_D_RANK2),
        ((6,), 6, THM_D_RANK2),
        ((2, 4), 5, THM_D_RANK2),
        ((3, 3), 5, THM_D_RANK2),
        ((2, 2, 2), 4, THM_D_PGROUP),
        ((2, 2, 4), 6, THM_D_PGROUP),
        ((2, 3), 6, THM_D_RANK2),
    ])
    def test_formula_frozen(self, periods, value, rule):
        r = davenport(GroupSpec(periods), "formula")
        assert (r.value, r.rule) == (value, rule)

    def test_formula_inexact_interval(self):
        r = davenport(GroupSpec((2, 2, 6)), "formula")
        assert r.value is None
        assert "davenport-inexact" in r.flags
        assert r.lower <= 8 <= r.upper

    @pytest.mark.parametrize("periods", [(2,), (5,), (2, 2), (2, 4), (3, 3), (2, 2, 2)])
    def test_brute_matches_oracle_and_formula(self, periods):
        g = GroupSpec(periods)
        r = davenport(g, "brute")
        assert r.value == oracle.naive_davenport(periods)
        assert r.value == davenport(g, "formula").value
        assert r.rule == BRUTE

    def test_brute_resolves_rank3_non_p_group(self):
        r = davenport(GroupSpec((2, 2, 6)), "brute")
        assert r.value == 8

    def test_both_cross_checks(self):
        # for Z2+Z2+Z6 the formula gives only an interval, which the brute
        # value replaces
        for periods, row in (((2, 6), (7, 7, 7, THM_D_RANK2, 2422, ())),
                             ((2, 2, 6), (8, 8, 8, BRUTE, 249408, ()))):
            r = davenport(GroupSpec(periods), "both")
            assert r.method == "both"
            assert (r.value, r.lower, r.upper, r.rule, r.nodes, r.flags) == row

    def test_witness_is_extremal_zero_sum_free(self):
        g = GroupSpec((2, 4))
        value, witness, _nodes = _davenport_brute(g, Budget())
        assert value == 5
        assert len(witness) == 4
        assert is_zero_sum_free(g, witness)

    @pytest.mark.parametrize("periods", [(2, 4), (3, 3)])
    def test_search_matches_naive_dfs(self, periods):
        value, witness, nodes = _davenport_brute(GroupSpec(periods), Budget())
        assert (value, nodes, witness.terms) == oracle.naive_davenport_search(periods)

    @pytest.mark.parametrize("periods", [(2, 2, 2), (2, 6)])
    def test_brute_matches_naive_search(self, periods):
        g = GroupSpec(periods)
        value, nodes, witness = oracle.naive_davenport_search(periods)
        r = davenport(g, "brute")
        assert (r.value, r.nodes) == (value, nodes)
        assert _davenport_brute(g, Budget())[1].terms == witness

    def test_z3_cubed_witness_pinned(self):
        value, witness, nodes = _davenport_brute(GroupSpec((3, 3, 3)), Budget())
        assert (value, nodes) == (7, 729892)
        assert witness.terms == ((0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0),
                                 (1, 0, 0), (1, 0, 0))

    def test_z3_cubed_witness_pinned_without_records(self, monkeypatch):
        # with no memo room the witness walk reads no record, and finds the
        # same witness
        monkeypatch.setattr(sequences, "SEARCH_MEMO_ENTRIES", 0)
        self.test_z3_cubed_witness_pinned()

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceeded):
            davenport(GroupSpec((7, 7)), "brute", Budget(node_budget=10))

    def test_z6_cubed_passes_the_node_budget_first(self):
        # The memo counts recorded subtrees whole, so the exact count of Z6^3
        # passes the default node budget long before the time budget runs
        # out, and the formula path falls back to its interval at once.
        t0 = time.monotonic()
        with pytest.raises(BudgetExceeded, match="node budget") as info:
            davenport(GroupSpec((6, 6, 6)), "brute")
        assert info.value.nodes == 10**8 + 1
        r = eb_exact(parse_spec("C(1;6)xC(1;6)xC(1;6)"))
        assert (r.rule, r.lower, r.upper) == (THM31_BOUNDS, 16, 27)
        assert "davenport-inexact" in r.flags
        assert time.monotonic() - t0 < 10

    def test_unknown_method(self):
        with pytest.raises(SpecError):
            davenport(GroupSpec((2,)), "guess")


class TestBoundsAndReduce:
    def test_eb_bounds_frozen(self):
        assert eb_bounds(parse_spec("C(7;4)"))[:2] == (8, 8)
        assert eb_bounds(parse_spec("C(4;3)xC(1;2)"))[:2] == (7, 9)
        assert eb_bounds(parse_spec("C(7;2)xC(1;5)"))[:2] == (13, 16)

    def test_reduce_identity_without_nilpotent(self):
        s = parse_spec("C(3;2)xC(1;4)")
        assert reduce_spec(s) is s

    def test_reduce_value_branch(self):
        assert reduce_spec(parse_spec("C(9;1)xC(1;2)")) == 10
        assert reduce_spec(parse_spec("C(2;1)xC(1;3)")) == 4
        assert reduce_spec(parse_spec("C(2;1)xC(3;1)xC(1;5)")) == 7
        assert reduce_spec(parse_spec("C(9;1)xC(1;2)xC(1;2)xC(1;6)")) == 16

    def test_reduce_spec_branch(self):
        s2 = reduce_spec(parse_spec("C(2;1)xC(7;2)"))
        assert isinstance(s2, ProductSpec)
        assert s2 == parse_spec("C(2;1)xC(7;2)")
        s3 = reduce_spec(parse_spec("C(2;1)xC(3;1)xC(7;2)"))
        assert s3 == parse_spec("C(3;1)xC(7;2)")

    def test_reduce_value_branch_over_budget(self):
        # D(Z_2 x Z_2 x Z_6) has no exact formula, so the value branch
        # resolves it by search, which a one-node budget cannot finish.
        # The error carries the failed search's progress.
        s = parse_spec("C(9;1)xC(1;2)xC(1;2)xC(1;6)")
        with pytest.raises(BudgetExceeded, match="Davenport constant not exactly resolvable"):
            reduce_spec(s, Budget(node_budget=1))
        with pytest.raises(BudgetExceeded) as info:
            reduce_spec(s, Budget(node_budget=50))
        assert info.value.nodes > 50


RULE_TABLE = [
    ("C(3;2)", 4, COR31_R1),
    ("C(5;1)", 5, COR31_R1),
    ("C(1;7)", 7, COR31_R1),
    ("C(9;1)xC(1;2)", 10, THM32_REDUCE),
    ("C(2;1)xC(3;1)xC(1;5)", 7, THM32_REDUCE),
    ("C(3;2)xC(1;4)", 7, COR31_DIV),
    ("C(2;1)xC(7;2)", 8, COR31_DIV),
    ("C(1;2)xC(1;2)xC(1;2)", 4, COR31_PPOW),
    ("C(11;2)xC(1;5)", 20, THM41_II),
    ("C(1;2)xC(1;2)xC(1;6)", 8, THM31_II_EQ),
    ("C(1;2)xC(1;3)", 6, THM41_II),
    ("C(1;2)xC(1;3)xC(1;5)", 30, THM31_III),
    ("C(1;3)xC(3;2)", 7, THM31_III_REFUTED),
    # two period-1 coordinates: the rules run on the reduced spec
    ("C(2;1)xC(3;1)xC(7;2)", 8, COR31_DIV),
    ("C(2;1)xC(3;1)xC(2;2)xC(9;2)", 11, COR31_PPOW),
    ("C(2;1)xC(3;1)xC(9;2)xC(1;6)", 15, THM31_II_EQ),
    ("C(2;1)xC(3;1)xC(1;3)xC(7;2)", 12, THM31_III),
    ("C(2;1)xC(3;1)xC(2;2)xC(5;3)", 8, THM31_III_REFUTED),
]


class TestEbExact:
    @pytest.mark.parametrize("label,value,rule", RULE_TABLE)
    def test_rule_table(self, label, value, rule):
        r = eb_exact(parse_spec(label))
        assert (r.value, r.rule) == (value, rule)

    def test_refuted_interval(self):
        r = eb_exact(parse_spec("C(1;2)xC(4;3)"))
        assert r.value is None
        assert (r.lower, r.upper) == (7, 8)
        assert r.rule == THM31_III_REFUTED
        assert "formula-refuted" in r.flags

    def test_bounds_fallback(self):
        r = eb_exact(parse_spec("C(5;4)xC(1;6)"))
        assert r.rule == THM31_BOUNDS
        assert (r.lower, r.upper) == (14, 17)

    def test_refuted_wide_interval(self):
        r = eb_exact(parse_spec("C(7;2)xC(1;5)"))
        assert (r.value, r.lower, r.upper) == (None, 13, 15)


class TestStateCapBeforeBuild:
    """A search over more packed states than the cap raises before it
    builds its engine."""

    @pytest.fixture
    def no_build(self, monkeypatch):
        def build(cls, *args):
            raise AssertionError("engine built for an over-cap search")

        monkeypatch.setattr(ReachEngine, "_build", classmethod(build))

    def test_eb(self, no_build):
        with pytest.raises(BudgetExceeded, match="state count 9900 over cap 10") as exc:
            eb_bruteforce(parse_spec("C(100;1)xC(1;99)"), Budget(state_cap=10))
        assert exc.value.nodes == 0

    def test_davenport(self, no_build):
        with pytest.raises(BudgetExceeded, match="state count 49 over cap 48"):
            davenport(GroupSpec((7, 7)), "brute", Budget(state_cap=48))

    def test_cap_is_inclusive(self):
        # C(3;2)xC(1;4) has 4 * 4 packed states; D(Z2+Z4) has 8
        assert eb_bruteforce(parse_spec("C(3;2)xC(1;4)"), Budget(state_cap=16)).value == 7
        assert davenport(GroupSpec((2, 4)), "brute", Budget(state_cap=8)).value == 5
        with pytest.raises(BudgetExceeded, match="over cap 15"):
            eb_bruteforce(parse_spec("C(3;2)xC(1;4)"), Budget(state_cap=15))


class TestEbBruteforce:
    @pytest.mark.parametrize("label,value", [
        ("C(3;2)", 4),
        ("C(7;4)", 8),
        ("C(3;2)xC(1;4)", 7),
        ("C(1;2)xC(4;3)", 7),
        ("C(9;1)xC(1;2)", 10),
        ("C(1;2)xC(1;3)", 6),
    ])
    def test_frozen_values(self, label, value):
        r = eb_bruteforce(parse_spec(label))
        assert r.value == value
        assert r.rule == BRUTE
        assert (r.lower, r.upper) == (value, value)

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceeded):
            eb_bruteforce(parse_spec("C(30;1)xC(1;29)"), Budget(node_budget=500))

    def test_budget_is_global(self):
        # 16,465 nodes in all; the budget runs out in the last probe.  The
        # error reports where a one-node-at-a-time search raises: one node
        # over the limit, counted over every probe.
        for limit in (10000, 16000):
            with pytest.raises(BudgetExceeded) as info:
                eb_bruteforce(parse_spec("C(1;2)xC(7;3)"), Budget(node_budget=limit))
            assert info.value.nodes == limit + 1
            assert f"node budget {limit} exhausted" in str(info.value)

    @pytest.mark.parametrize("run", [
        lambda b: eb_bruteforce(parse_spec("C(1;2)xC(1;2)xC(1;10)"), b),  # 37,688,738 nodes
        lambda b: davenport(GroupSpec((3, 3, 6)), "brute", b),  # over 10^8 nodes
        lambda b: lhat(CyclicSpec(1, 40), "brute", b),  # 73,336,112 nodes
        lambda b: l_const(CyclicSpec(1, 40), "brute", b),  # 73,336,112 nodes
    ], ids=["eb", "davenport", "lhat", "l"])
    def test_time_budget_checked_during_search(self, run):
        # Each search runs for 2.3 s or more unbudgeted (2-CPU Xeon, Python
        # 3.11), at least 5x the budget: a search that counts its nodes in
        # batches must still look at the clock.
        t0 = time.monotonic()
        with pytest.raises(BudgetExceeded, match="time budget"):
            run(Budget(time_budget_s=0.3))
        assert time.monotonic() - t0 < 3

    def test_pool_tasks_share_the_deadline(self):
        # Far over budget, and the search stops at its deadline.  The
        # count-exact memo counts the default 10^8 nodes in about 0.5 s
        # here, so the node budget is raised out of the way and only the
        # deadline can end the search.
        t0 = time.monotonic()
        with pytest.raises(BudgetExceeded, match="time budget"):
            eb_bruteforce(parse_spec("C(7;2)xC(2;7)"),
                          Budget(node_budget=10**12, time_budget_s=0.5))
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("run", [
        lambda b: eb_bruteforce(parse_spec("C(3;2)xC(1;4)"), b),
        lambda b: davenport(GroupSpec((2, 4)), "brute", b),  # 242 nodes
        lambda b: lhat(CyclicSpec(7, 2), "brute", b),  # 264 nodes
        lambda b: l_const(CyclicSpec(7, 2), "brute", b),  # 264 nodes
    ], ids=["eb", "davenport", "lhat", "l"])
    def test_time_budget_covers_setup(self, monkeypatch, run):
        # the engine build takes 0.2 s of a 0.1 s budget; the last three
        # searches end below 4,096 nodes, where the meter's periodic clock
        # check comes, so only the check as the search starts sees it
        slow_build(monkeypatch)
        with pytest.raises(BudgetExceeded, match="time budget") as info:
            run(Budget(time_budget_s=0.1))
        assert info.value.nodes == 0

    def test_thread_determinism(self):
        # The last two find free sequences while probing, so their counts
        # include probes that stop at a hit.
        for label, value, nodes in [("C(3;2)xC(1;4)", 7, 8039),
                                    ("C(1;2)xC(7;3)", 12, 16465),
                                    ("C(1;3)xC(7;2)", 12, 70565)]:
            r = eb_bruteforce(parse_spec(label))
            assert (r.value, r.nodes) == (value, nodes), label

    def test_twin_node_counts_pinned(self):
        # Specs with twins (labels past a cap that share a capped state),
        # whose searches re-enter one reach set at one depth many times.
        for label, value, nodes in [("C(2;4)xC(3;4)", 7, 407332),
                                    ("C(4;2)xC(1;6)", 9, 408472),
                                    ("C(4;3)xC(2;5)", 16, 5365848),
                                    ("C(5;5)xC(1;5)", 9, 24329746)]:
            r = eb_bruteforce(parse_spec(label))
            assert (r.value, r.nodes) == (value, nodes), label

    def test_rank2_grid_nodes_pinned(self):
        # The node total of the 786 specs of the acceptance grid, so that a
        # kernel change that moves any count fails here.
        assert sum(eb_bruteforce(s).nodes for s in rank2_grid(20)) == 12385516


class TestMemoOracle:
    """Brute values of specs whose searches walk 10^5 nodes or more, against
    _oracles.memo_longest_free: a DP over reach sets that shares no code
    with ReachEngine."""

    @pytest.mark.parametrize("run, coords, value", [
        (lambda: eb_bruteforce(parse_spec("C(1;2)xC(1;2)xC(1;6)")),
         ((1, 2), (1, 2), (1, 6)), 8),
        (lambda: eb_bruteforce(parse_spec("C(2;4)xC(3;4)")), ((2, 4), (3, 4)), 7),
        (lambda: davenport(GroupSpec((2, 2, 6)), "brute"), ((1, 2), (1, 2), (1, 6)), 8),
        (lambda: eb_bruteforce(parse_spec("C(1;3)xC(1;3)xC(1;3)")),
         ((1, 3), (1, 3), (1, 3)), 7),
        (lambda: eb_bruteforce(parse_spec("C(4;2)xC(1;6)")), ((4, 2), (1, 6)), 9),
        (lambda: davenport(GroupSpec((3, 3, 3)), "brute"), ((1, 3), (1, 3), (1, 3)), 7),
    ], ids=["eb-C(1;2)^2xC(1;6)", "eb-C(2;4)xC(3;4)", "davenport-Z2+Z2+Z6",
            "eb-C(1;3)^3", "eb-C(4;2)xC(1;6)", "davenport-Z3^3"])
    def test_brute_matches_oracle(self, run, coords, value):
        assert run().value == value == 1 + oracle.memo_longest_free(coords)

    @pytest.mark.parametrize("s", rank2_grid(20)[::40], ids=format_spec)
    def test_rank_two_grid_sample_matches_oracle(self, s):
        """Every 40th spec of the acceptance grid, 20 in all."""
        coords = tuple((c.k, c.n) for c in s.coords)
        assert eb_bruteforce(s).value == 1 + oracle.memo_longest_free(coords)


class TestRankThreeGrid:
    """The 165 unordered triples C(k1;n1)xC(k2;n2)xC(k3;n3) with every k_i,
    n_i <= 3, where most branches of the rule cascade apply."""

    GRID = [ProductSpec.of(*t) for t in itertools.combinations_with_replacement(
        [(k, n) for k in range(1, 4) for n in range(1, 4)], 3)]

    def test_formula_rules(self):
        assert len(self.GRID) == 165
        assert Counter(eb_exact(s).rule for s in self.GRID) == {
            THM32_REDUCE: 94, THM31_BOUNDS: 36, COR31_PPOW: 26, THM31_III_REFUTED: 6,
            COR31_DIV: 3}

    def test_both_agrees_or_stops_on_the_budget(self):
        # a disagreement of the two halves raises an internal error, which
        # fails the test; no triple needs a Davenport fallback, so which
        # ones stop depends on node counts alone
        rules, stopped = Counter(), 0
        for s in self.GRID:
            try:
                rules[erdos_burgess(s, "both", Budget(node_budget=10**7)).rule] += 1
            except BudgetExceeded:
                stopped += 1
        assert rules == {THM32_REDUCE: 93, COR31_PPOW: 18, THM31_BOUNDS: 17, BRUTE: 7,
                         THM31_III_REFUTED: 6, COR31_DIV: 3}
        assert stopped == 21

    def test_brute_row_matches_oracle(self):
        r = erdos_burgess(parse_spec("C(1;2)xC(1;3)xC(3;2)"), "both")
        assert (r.rule, r.lower, r.upper) == (BRUTE, 8, 9)
        assert r.value == 9 == 1 + oracle.memo_longest_free(((1, 2), (1, 3), (3, 2)))


class TestDavenportOnce:
    """An inexact formula D falls back to brute force; a top-level call
    makes that fallback once, however many rules and bounds use D."""

    @pytest.fixture
    def brute_calls(self, monkeypatch):
        calls = []
        brute = constants._davenport_brute

        def counted(g, budget):
            calls.append(g)
            return brute(g, budget)

        monkeypatch.setattr(constants, "_davenport_brute", counted)
        return calls

    @pytest.mark.parametrize("label", [
        "C(1;6)xC(1;6)xC(1;6)",
        "C(1;2)xC(1;2)xC(1;6)xC(3;1)xC(2;1)",
    ])
    def test_eb_exact(self, brute_calls, label):
        r = eb_exact(parse_spec(label), Budget(node_budget=1000))
        assert "davenport-inexact" in r.flags
        assert len(brute_calls) == 1

    def test_both(self, brute_calls):
        # Z2+Z2+Z6: the formula half resolves D by search, and the brute
        # half takes its bounds from the formula, so it searches for no D
        s = parse_spec("C(1;2)xC(1;2)xC(1;6)")
        assert (eb_bruteforce(s).nodes, brute_calls) == (289695, [])
        r = erdos_burgess(s, "both")
        assert (r.value, r.nodes, len(brute_calls)) == (8, 289695, 1)


class TestCrossCheck:
    """method="both" raises when the brute value contradicts the formula."""

    def test_davenport_value_disagreement(self, monkeypatch):
        brute = constants._davenport_brute

        def off_by_one(g, budget):
            value, witness, nodes = brute(g, budget)
            return value + 1, witness, nodes

        monkeypatch.setattr(constants, "_davenport_brute", off_by_one)
        with pytest.raises(RuntimeError, match=r"formula 7 != brute 8"):
            davenport(GroupSpec((2, 6)), "both")

    def test_davenport_outside_interval(self, monkeypatch):
        # Z2+Z2+Z6: the formula gives only an interval, from 1 + d* = 8
        monkeypatch.setattr(constants, "_davenport_brute",
                            lambda g, budget: (7, None, 0))
        with pytest.raises(RuntimeError, match=r"7 outside formula bounds \[8, "):
            davenport(GroupSpec((2, 2, 6)), "both")

    def test_eb_value_disagreement(self, monkeypatch):
        monkeypatch.setattr(constants, "eb_bruteforce", lambda s, budget: ConstResult(
            "erdos_burgess", 6, 6, 6, BRUTE, "brute"))
        with pytest.raises(RuntimeError, match=r"I\(C\(3;2\)xC\(1;4\)\) formula 7 != brute 6"):
            erdos_burgess(parse_spec("C(3;2)xC(1;4)"), "both")

    def test_eb_outside_interval(self, monkeypatch):
        monkeypatch.setattr(constants, "eb_bruteforce", lambda s, budget: ConstResult(
            "erdos_burgess", 9, 9, 9, BRUTE, "brute"))
        with pytest.raises(RuntimeError, match=r"9 outside formula bounds \[7, 8\]"):
            erdos_burgess(parse_spec("C(1;2)xC(4;3)"), "both")


class TestErdosBurgess:
    def test_both_agreeing(self):
        r = erdos_burgess(parse_spec("C(3;2)"), "both")
        assert r.value == 4 and r.method == "both" and r.rule == COR31_R1

    def test_both_on_refuted_keeps_formula_bounds(self):
        r = erdos_burgess(parse_spec("C(1;2)xC(4;3)"), "both")
        assert (r.value, r.lower, r.upper, r.rule, r.nodes, r.flags) == (
            7, 7, 8, BRUTE, 1724, ("formula-refuted",))

    def test_both_runs_under_one_deadline(self, monkeypatch):
        # The formula half resolves D and the brute half builds its
        # engine, 0.2 s each: the brute half gets the 0.1 s the formula
        # half left, so the call stops on its own budget.
        resolve = constants._resolve_davenport

        def slow_resolve(g, budget):
            time.sleep(0.2)
            return resolve(g, budget)

        monkeypatch.setattr(constants, "_resolve_davenport", slow_resolve)
        slow_build(monkeypatch)
        with pytest.raises(BudgetExceeded, match=r"time budget 0\.3s exhausted") as info:
            erdos_burgess(parse_spec("C(3;2)xC(1;4)"), "both", Budget(time_budget_s=0.3))
        assert info.value.elapsed_ms >= 400

    def test_both_stamps_node_budget_errors_with_its_own_time(self, monkeypatch):
        # The formula half takes 0.3 s; the brute half runs out of nodes
        # well before the deadline, and the error counts from the call's start.
        exact = constants.eb_exact

        def slow_exact(s, budget):
            time.sleep(0.3)
            return exact(s, budget)

        monkeypatch.setattr(constants, "eb_exact", slow_exact)
        with pytest.raises(BudgetExceeded, match=r"node budget 100 exhausted") as info:
            erdos_burgess(parse_spec("C(3;2)xC(1;4)"), "both", Budget(node_budget=100))
        assert info.value.nodes == 101
        assert info.value.elapsed_ms >= 300

    def test_formula_only(self):
        r = erdos_burgess(parse_spec("C(3;2)xC(1;4)"), "formula")
        assert r.value == 7 and r.nodes == 0

    def test_unknown_method(self):
        with pytest.raises(SpecError):
            erdos_burgess(parse_spec("C(3;2)"), "oracle")

    def test_result_serialization(self):
        d = erdos_burgess(parse_spec("C(3;2)"), "formula").to_dict("C(3;2)")
        assert d["spec"] == "C(3;2)"
        assert d["quantity"] == "erdos_burgess"
        assert d["value"] == d["lower"] == d["upper"] == 4

    def test_const_result_rejects_value_outside_bounds(self):
        with pytest.raises(RuntimeError):
            ConstResult("erdos_burgess", 5, 1, 4, BRUTE, "brute")


@pytest.mark.parametrize("const,arg,module,formula", [
    (davenport, GroupSpec((2, 6)), constants, "invariant_factors"),
    (lhat, CyclicSpec(7, 2), structure, "_lhat_formula"),
    (l_const, CyclicSpec(7, 2), structure, "_l_formula"),
], ids=["davenport", "lhat", "l"])
def test_every_both_runs_under_one_deadline(monkeypatch, const, arg, module, formula):
    # As for I(S): the formula half and the engine build take 0.2 s each,
    # and the brute half gets only the 0.1 s the formula half left.
    fast = getattr(module, formula)

    def slow(*args):
        time.sleep(0.2)
        return fast(*args)

    monkeypatch.setattr(module, formula, slow)
    slow_build(monkeypatch)
    with pytest.raises(BudgetExceeded, match=r"time budget 0\.3s exhausted") as info:
        const(arg, "both", Budget(time_budget_s=0.3))
    assert info.value.elapsed_ms >= 400


class TestWitnesses:
    @pytest.mark.parametrize("label", [
        "C(3;2)", "C(7;4)", "C(3;2)xC(1;4)", "C(1;2)xC(4;3)", "C(2;1)xC(7;2)",
    ])
    def test_axis_and_lift_are_free(self, label):
        s = parse_spec(label)
        t1 = build_axis_witness(s)
        assert is_idempotent_sum_free(s, t1)
        t2 = build_lift_witness(s)
        assert is_idempotent_sum_free(s, t2)
        lower = eb_bounds(s).lower
        assert max(len(t1), len(t2)) == lower - 1

    def test_uniform_witness_cases(self):
        s = parse_spec("C(1;2)xC(1;3)")
        v = build_uniform_witness(s)
        assert v is not None
        assert is_idempotent_sum_free(s, v)
        assert len(v) == 5
        assert build_uniform_witness(parse_spec("C(1;2)xC(4;3)")) is None


class TestExplore:
    def test_small_sweep(self):
        report = explore_conjecture(2, 3, Budget())
        summary = report["summary"]
        assert summary["rows"] == 21
        assert summary["counterexamples"] == 0
        assert summary["soundness_bugs"] == 0
        assert summary["skipped"] == 0
        row = report["rows"][0]
        for key in ("spec", "bound_value", "value", "equality", "cond_i", "cond_ii"):
            assert key in row

    def test_skipped_rows(self):
        report = explore_conjecture(3, 3, Budget(node_budget=50))
        skipped = [row for row in report["rows"] if "skipped" in row]
        assert len(skipped) == report["summary"]["skipped"] == 28
        for row in skipped:
            assert set(row) == {"spec", "bound_value", "skipped"}
