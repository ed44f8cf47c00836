import functools
import gc
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from ebs import sequences
from ebs.config import Budget, SearchMeter
from ebs.constants import davenport, eb_bruteforce
from ebs.errors import BudgetExceeded, SeqFileError, SpecError
from ebs.semigroup import CyclicSpec, GroupSpec, ProductSpec, idempotent, parse_spec
from ebs.sequences import (
    GroupSeq,
    ReachEngine,
    Seq,
    _capped,
    format_seq,
    idempotent_witness,
    is_idempotent_sum,
    is_idempotent_sum_free,
    is_minimal_idempotent_sum,
    is_minimal_zero_sum,
    is_zero_sum,
    is_zero_sum_free,
    parse_seq_lines,
    psi,
    search_free,
    sigma,
    sum_profile,
)
from ebs.structure import _search_engine, l_const, lhat
from test_acceptance import rank2_grid

SWEEP_SPECS = [
    "C(2;1)", "C(1;2)", "C(3;2)", "C(2;3)", "C(4;1)", "C(1;4)",
    "C(3;2)xC(1;2)", "C(2;1)xC(1;3)", "C(2;2)xC(2;2)",
]


def coord_pairs(s: ProductSpec):
    return [(c.k, c.n) for c in s.coords]


def all_seqs(s: ProductSpec, max_len: int):
    elems = list(s.elements())
    for r in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(elems, r):
            yield Seq(combo)


def closing_term(s: ProductSpec, head) -> tuple[int, ...]:
    """The term that makes head, plus it, sum to the idempotent."""
    totals = [sum(col) for col in zip(*head)]
    return tuple((-v) % c.n or c.n if v >= c.cap else c.cap - v
                 for c, v in zip(s.coords, totals))


def check_against_oracle(s: ProductSpec, terms) -> tuple[bool, bool]:
    """Check the free and minimal verdicts on terms over s against the naive
    oracle, and the witness for validity; return the two verdicts."""
    pairs = coord_pairs(s)
    t = Seq(tuple(terms))
    free = oracle.naive_is_free(pairs, terms)
    minimal = oracle.naive_is_minimal(pairs, terms)
    assert is_idempotent_sum_free(s, t) == free, terms
    assert is_minimal_idempotent_sum(s, t) == minimal, terms
    w = idempotent_witness(s, t)
    if free:
        assert w is None, terms
    else:
        assert w is not None and Counter(w.terms) <= Counter(t.terms), (terms, w)
        assert is_idempotent_sum(s, w), (terms, w)
    return free, minimal


def seq_strategy():
    def build(draw):
        pairs = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                              min_size=1, max_size=3))
        s = ProductSpec.of(*pairs)
        terms = draw(st.lists(
            st.tuples(*(st.integers(1, c.size) for c in s.coords)),
            min_size=0, max_size=6))
        return s, Seq(tuple(terms))
    return st.composite(build)()


class TestSeqBasics:
    def test_sorted_storage(self):
        t = Seq.of((3, 1), (1, 2), (1, 1))
        assert t.terms == ((1, 1), (1, 2), (3, 1))

    def test_int_coercion(self):
        assert Seq.of(3, 1).terms == ((1,), (3,))

    def test_multiset_ops(self):
        t = Seq.of(1, 1, 2)
        assert len(t.remove_one(1)) == 2
        assert Counter(t.remove_one(1).terms)[(1,)] == 1
        assert len(t.with_term(5)) == 4
        with pytest.raises(SpecError):
            t.remove_one(7)

    def test_permutation_invariance(self):
        a = Seq.of((2, 1), (1, 3))
        b = Seq.of((1, 3), (2, 1))
        assert a == b


class TestSums:
    def test_profile_sigma_psi_frozen(self):
        s = parse_spec("C(2;3)")
        t = Seq.of(1, 1, 1)
        assert sum_profile(s, t) == (3,)
        assert sigma(s, t) == (3,)
        assert psi(s, t).terms == ((1,), (1,), (1,))
        assert is_idempotent_sum(s, t)
        assert not is_idempotent_sum(s, Seq.of(1, 1))

    def test_sigma_empty_rejected(self):
        with pytest.raises(SpecError):
            sigma(parse_spec("C(2;3)"), Seq(()))

    def test_minimal_of_empty_sequence_rejected(self):
        with pytest.raises(SpecError, match="the empty sequence has no sum"):
            is_minimal_idempotent_sum(parse_spec("C(3;2)"), Seq(()))

    def test_psi_reduces_mod_period(self):
        s = parse_spec("C(3;4)")
        assert psi(s, Seq.of(5, 6)).terms == ((1,), (2,))

    @given(seq_strategy())
    @settings(max_examples=200)
    def test_sigma_matches_oracle(self, sp):
        s, t = sp
        if t.is_empty:
            return
        assert sigma(s, t) == oracle.naive_sigma(coord_pairs(s), t.terms)


# the layouts of the walk's slices: the dense (smallest-cap) coordinate
# first or in the middle, folds of many periods above the dense cap, rank
# one, one huge coordinate beside the dense one, and no cap small enough to
# be dense
SLICE_SPECS = [
    "C(2;2)xC(7;3)xC(5;5)", "C(7;3)xC(2;2)xC(5;5)", "C(40;1)", "C(37;3)xC(9;2)",
    "C(13;5)", "C(1000000;1)xC(3;2)", "C(300;7)xC(500;1)",
]


class TestReachAgainstOracle:
    @pytest.mark.parametrize("label", SWEEP_SPECS)
    def test_exhaustive_small(self, label):
        s = parse_spec(label)
        pairs = coord_pairs(s)
        max_len = 4 if s.arity == 1 else 3
        for t in all_seqs(s, max_len):
            terms = t.terms
            assert is_idempotent_sum_free(s, t) == oracle.naive_is_free(pairs, terms)
            assert is_idempotent_sum(s, t) == oracle.naive_is_idempotent_sum(pairs, terms)
            assert is_minimal_idempotent_sum(s, t) == oracle.naive_is_minimal(pairs, terms)

    @given(seq_strategy())
    @settings(max_examples=300, deadline=None)
    def test_random_freeness(self, sp):
        s, t = sp
        pairs = coord_pairs(s)
        assert is_idempotent_sum_free(s, t) == oracle.naive_is_free(pairs, t.terms)
        if not t.is_empty:
            assert is_minimal_idempotent_sum(s, t) == oracle.naive_is_minimal(pairs, t.terms)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_minimal_and_witness_match_oracle(self, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                                   min_size=1, max_size=3))
        s = ProductSpec.of(*pairs)
        terms = data.draw(st.lists(
            st.tuples(*(st.integers(1, c.size) for c in s.coords)),
            min_size=1, max_size=5))
        # close the sequence up to an idempotent sum half the time (random
        # draws almost never are one), so that the minimal walk runs
        if data.draw(st.booleans()):
            terms.append(closing_term(s, terms))
        check_against_oracle(s, terms)

    @pytest.mark.parametrize("label", SLICE_SPECS)
    def test_slices_match_oracle(self, label):
        s = parse_spec(label)
        pairs = coord_pairs(s)
        rng = random.Random(label)
        free_seen, minimal_seen = set(), set()
        for _ in range(150):
            # small values keep some sequences free; the full range folds
            tops = [rng.choice((c.size, max(1, c.cap // 4))) for c in s.coords]
            terms = [tuple(rng.randint(1, top) for top in tops)
                     for _ in range(rng.randint(1, 7))]
            if rng.random() < 0.5:
                terms.append(closing_term(s, terms))
            free, minimal = check_against_oracle(s, terms)
            free_seen.add(free)
            minimal_seen.add(minimal)
        assert free_seen == minimal_seen == {True, False}

    @pytest.mark.parametrize("label", ["C(1000000000;1)", "C(100000000;1)xC(100000000;1)"])
    def test_huge_caps_stay_small(self, label):
        # every cap is too large to be dense, so each slice is one bit: a
        # mask as wide as the cap would take over 10 MB a term here
        s = parse_spec(label)
        rng = random.Random(label)
        free_seen = set()
        started = time.perf_counter()
        tracemalloc.start()
        try:
            for _ in range(30):
                terms = [tuple(rng.randint(1, c.size) for c in s.coords)
                         for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.5:
                    terms.append(closing_term(s, terms))
                free_seen.add(check_against_oracle(s, terms)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert time.perf_counter() - started < 5
        assert free_seen == {True, False}

    @given(seq_strategy())
    @settings(max_examples=150, deadline=None)
    def test_free_is_monotone(self, sp):
        # if t minus a term is not free, then t is not free
        s, t = sp
        for x in set(t.terms):
            if not is_idempotent_sum_free(s, t.remove_one(x)):
                assert not is_idempotent_sum_free(s, t)


class TestCappedState:
    """_capped keeps the idempotent test and commutes with addition, so the
    walk and the engine may cap every partial sum."""

    CAPS = [(cap, n) for n in range(1, 13) for cap in range(n, 13, n)]

    @pytest.mark.parametrize("cap,n", CAPS)
    def test_commutes_with_addition(self, cap, n):
        for t in range(3 * (cap + n) + 1):
            x = _capped(cap, n, t)
            assert 0 <= x <= cap
            assert (x == cap) == (t >= cap and t % n == 0), t
            for v in range(cap + n + 1):
                assert _capped(cap, n, x + v) == _capped(cap, n, t + v), (t, v)

    @pytest.mark.parametrize("label", ["C(5;3)", "C(1;4)", "C(5;3)xC(2;2)", "C(4;2)xC(1;3)"])
    def test_spec_engine_has_cap_states(self, label):
        # one bit per element: the packed width is prod(k_i + n_i - 1), at
        # least the prod(cap_i) states that the state cap bounds, and under
        # 2^r times that
        s = parse_spec(label)
        width = ReachEngine.for_spec(s).num_states
        assert width == math.prod(c.k + c.n - 1 for c in s.coords)
        assert math.prod(s.caps) <= width < 2 ** s.arity * math.prod(s.caps)

    @pytest.mark.parametrize("periods", [(5,), (2, 4), (2, 2, 3), (3, 3, 3)])
    def test_group_engine_has_order_states(self, periods):
        g = GroupSpec(periods)
        assert ReachEngine.for_group(g).num_states == g.order

    def test_totals_past_cap_share_a_state(self):
        # in C(5;3), cap 6: index 7 wraps onto 4, and both leave a residue 1.
        # They own distinct bits, and every forbidden set reached from the
        # root holds both or neither.
        engine = ReachEngine.for_spec(parse_spec("C(5;3)"))
        bit = {a: 1 << p for a, p in zip(engine.labels, engine.pos)}
        assert bit[(4,)] != bit[(7,)]
        assert len(set(bit.values())) == len(engine.labels)
        twins = bit[(4,)] | bit[(7,)]
        held = 0
        for r in range(5):
            for combo in itertools.combinations_with_replacement(range(len(engine.labels)), r):
                forbidden = engine.root
                for ai in combo:
                    forbidden = engine.step(forbidden, ai)
                    if forbidden is None:
                        break
                if forbidden is not None:
                    assert forbidden & twins in (0, twins), combo
                    held |= forbidden & twins
        assert held == twins, "no forbidden set holds the twins"


def cap_pin_seqs(label: str, seed: int):
    """A free and a minimal sequence over label: the coordinate of largest
    cap totals below it in the free one and exactly it in the minimal one,
    whose last term completes the idempotent."""
    s = parse_spec(label)
    rng = random.Random(seed)
    caps = s.caps
    i = caps.index(max(caps))
    length = min(9, caps[i] - 1)
    cuts = sorted(rng.sample(range(1, caps[i]), length))
    terms = [[rng.randint(1, c.size) for c in s.coords] for _ in range(length)]
    for term, a, b in zip(terms, [0] + cuts, cuts):
        term[i] = b - a
    head = [tuple(term) for term in terms[:-1]]
    return s, Seq(tuple(map(tuple, terms))), Seq(tuple(head) + (closing_term(s, head),))


class TestStateCap:
    """state_cap bounds the states a walk actually reaches, not the packed
    space of the spec."""

    def test_tiny_cap_raises(self):
        # ten ones over C(10;1) reach 1, 2, ..., 10; only all ten hit the idempotent
        s = parse_spec("C(10;1)")
        t = Seq.of(*[1] * 10)
        for predicate in (is_idempotent_sum_free, is_minimal_idempotent_sum, idempotent_witness):
            with pytest.raises(BudgetExceeded):
                predicate(s, t, state_cap=2)

    def test_hit_checked_before_cap(self):
        # ten ones reach 10 states, the tenth being the idempotent: a walk
        # that finds the idempotent answers before it counts the states
        s = parse_spec("C(10;1)")
        t = Seq.of(*[1] * 10)
        assert not is_idempotent_sum_free(s, t, state_cap=9)
        assert idempotent_witness(s, t, state_cap=9) == t
        assert is_minimal_idempotent_sum(s, t, state_cap=9)

    def test_reached_states_not_packed_space(self):
        # 100^3 = 1,000,000 packed states; 12 terms reach at most 2^12 - 1 = 4,095
        s = parse_spec("C(100;100)xC(100;100)xC(100;100)")
        rng = random.Random(12)
        head = [(rng.randint(1, 8), rng.randint(1, 199), rng.randint(1, 199))
                for _ in range(11)]
        totals = [sum(col) for col in zip(*head)]
        # the first coordinate totals exactly 100 = cap, so no proper
        # subsequence reaches it; the others are topped up to a multiple of 100
        last = (100 - totals[0],) + tuple(100 - v % 100 for v in totals[1:])
        minimal = Seq(tuple(head) + (last,))
        # a first-coordinate total below 100 keeps every subsequence short of cap
        free = Seq(tuple(head) + ((rng.randint(1, 8), 1, 1),))
        assert is_idempotent_sum_free(s, free, state_cap=5000)
        assert idempotent_witness(s, free, state_cap=5000) is None
        assert is_minimal_idempotent_sum(s, minimal, state_cap=5000)
        assert idempotent_witness(s, minimal, state_cap=5000) == minimal
        assert not is_idempotent_sum_free(s, minimal, state_cap=5000)

    # the largest state_cap at which each predicate raises: the capped states
    # the walk reaches, the empty sum included, less 2.  The figures were
    # taken from the walk that kept one dict entry per state, before the
    # slices, so they catch any drift in what the cap counts.
    @pytest.mark.parametrize("label,seed,free_pin,minimal_pin", [
        ("C(40;11)xC(25;13)", 1, 279, 160),
        ("C(5;2)xC(4;3)xC(3;5)xC(2;7)", 2, 58, 30),
        ("C(7;3)xC(2;2)xC(12;5)", 3, 56, 75),
    ])
    def test_largest_raising_cap_pinned(self, label, seed, free_pin, minimal_pin):
        s, free, minimal = cap_pin_seqs(label, seed)
        cases = [(p, free, free_pin) for p in (is_idempotent_sum_free, idempotent_witness)]
        cases += [(p, minimal, minimal_pin) for p in
                  (is_idempotent_sum_free, idempotent_witness, is_minimal_idempotent_sum)]
        for predicate, t, pin in cases:
            with pytest.raises(BudgetExceeded):
                predicate(s, t, state_cap=pin)
            predicate(s, t, state_cap=pin + 1)
        assert is_idempotent_sum_free(s, free) and is_minimal_idempotent_sum(s, minimal)


class TestWitness:
    @pytest.mark.parametrize("label", ["C(2;3)", "C(3;2)", "C(2;2)xC(2;2)"])
    def test_witness_contract(self, label):
        s = parse_spec(label)
        for t in all_seqs(s, 3):
            w = idempotent_witness(s, t)
            if is_idempotent_sum_free(s, t):
                assert w is None
            else:
                assert w is not None
                assert Counter(w.terms) <= Counter(t.terms)
                assert is_idempotent_sum(s, w)

    def test_witness_frozen(self):
        s = parse_spec("C(2;3)")
        w = idempotent_witness(s, Seq.of(1, 1, 1, 2))
        assert w is not None and is_idempotent_sum(s, w)


class TestGroupSide:
    def test_zero_sum_frozen(self):
        g = GroupSpec((6,))
        assert is_zero_sum(g, GroupSeq.of((1,), (2,), (3,)))
        assert is_minimal_zero_sum(g, GroupSeq.of((1,), (2,), (3,)))
        assert not is_minimal_zero_sum(g, GroupSeq.of((3,), (3,), (2,), (4,)))
        assert is_zero_sum_free(g, GroupSeq.of((1,), (1,)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_zero_sum_matches_residue_sums(self, data):
        moduli = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
        terms = data.draw(st.lists(
            st.tuples(*(st.integers(0, m - 1) for m in moduli)),
            min_size=1, max_size=6))
        # close the sequence up to a zero sum half the time
        if data.draw(st.booleans()):
            terms.append(tuple(-sum(t[i] for t in terms) % m for i, m in enumerate(moduli)))
        expected = all(sum(t[i] for t in terms) % m == 0 for i, m in enumerate(moduli))
        assert is_zero_sum(GroupSpec(moduli), GroupSeq(tuple(terms))) == expected

    @pytest.mark.parametrize("moduli", [(6,), (2, 4)])
    def test_zero_sum_of_empty_sequence_rejected(self, moduli):
        with pytest.raises(SpecError):
            is_zero_sum(GroupSpec(moduli), GroupSeq(()))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_zsf_matches_oracle(self, data):
        moduli = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
        g = GroupSpec(moduli)
        terms = data.draw(st.lists(
            st.tuples(*(st.integers(0, m - 1) for m in moduli)),
            min_size=1, max_size=5))
        t = GroupSeq(tuple(terms))
        assert is_zero_sum_free(g, t) == oracle.naive_zero_sum_free(moduli, terms)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_minimal_zero_sum_matches_oracle(self, data):
        moduli = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
        g = GroupSpec(moduli)
        terms = data.draw(st.lists(
            st.tuples(*(st.integers(0, m - 1) for m in moduli)),
            min_size=1, max_size=6))
        # close the sequence up to a zero sum half the time, so that both
        # outcomes of the minimality test are drawn
        if data.draw(st.booleans()):
            terms.append(tuple(-sum(t[i] for t in terms) % m for i, m in enumerate(moduli)))
        t = GroupSeq(tuple(terms))
        assert is_minimal_zero_sum(g, t) == oracle.naive_is_minimal_zero_sum(moduli, terms)

    def test_engine_for_group_matches_predicate(self):
        g = GroupSpec((2, 4))
        engine = ReachEngine.for_group(g)
        labels = engine.labels
        for r in range(1, 4):
            for combo in itertools.combinations_with_replacement(range(len(labels)), r):
                forbidden = engine.root
                hit = False
                for ai in combo:
                    nxt = engine.step(forbidden, ai)
                    if nxt is None:
                        hit = True
                        break
                    forbidden = nxt
                t = GroupSeq(tuple(labels[ai] for ai in combo))
                assert hit == (not is_zero_sum_free(g, t))


class TestReachEngine:
    """The bitset engine against the one-shot predicate: walking a multiset
    through step() from the forbidden set of the empty sequence (root) hits
    None exactly when the multiset is not idempotent-sum free."""

    @pytest.mark.parametrize("label", [
        "C(3;2)", "C(4;1)", "C(3;2)xC(2;1)", "C(1;2)xC(2;2)xC(1;3)", "C(5;3)xC(2;2)",
    ])
    def test_for_spec_matches_predicate(self, label):
        s = parse_spec(label)
        engine = ReachEngine.for_spec(s)
        labels = engine.labels
        assert idempotent(s) not in labels
        for r in range(1, 5):
            for combo in itertools.combinations_with_replacement(range(len(labels)), r):
                forbidden = engine.root
                hit = False
                for ai in combo:
                    nxt = engine.step(forbidden, ai)
                    if nxt is None:
                        hit = True
                        break
                    assert nxt & forbidden == forbidden and nxt.bit_length() <= engine.width
                    forbidden = nxt
                t = Seq(tuple(labels[ai] for ai in combo))
                assert hit == (not is_idempotent_sum_free(s, t)), t

    @staticmethod
    def assert_step_identity(engine, is_free):
        # for every F reached by <= 3 free elements and every b <= c that F
        # does not reject, c's bit survives in the complement of F + b
        # exactly when stepping F + b by c succeeds, and exactly when the
        # multiset is free by the one-shot predicate: so a child's live
        # labels are its parent's less its own forbidden set
        n = len(engine.labels)
        free = functools.cache(lambda combo: is_free([engine.labels[ai] for ai in combo]))
        checked = 0
        for r in range(4):
            for combo in itertools.combinations_with_replacement(range(n), r):
                F = engine.root
                for ai in combo:
                    F = engine.step(F, ai)
                    if F is None:
                        break
                if F is None:
                    continue
                live = [b for b in range(n) if not F >> engine.pos[b] & 1]
                assert live == [b for b in range(n) if free(tuple(sorted(combo + (b,))))], combo
                for j, b in enumerate(live):
                    child = engine.step(F, b)
                    for c in live[j:]:
                        survives = not child >> engine.pos[c] & 1
                        assert survives == (engine.step(child, c) is not None), (combo, b, c)
                        assert survives == free(tuple(sorted(combo + (b, c)))), (combo, b, c)
                        checked += 1
        assert checked

    @pytest.mark.parametrize("label", [
        "C(3;2)", "C(5;3)", "C(4;1)", "C(3;2)xC(2;3)", "C(4;2)xC(1;3)",
        "C(1;2)xC(2;2)xC(1;3)",
    ])
    def test_step_identity_for_spec(self, label):
        s = parse_spec(label)
        self.assert_step_identity(ReachEngine.for_spec(s),
                                  lambda terms: is_idempotent_sum_free(s, Seq(tuple(terms))))

    @pytest.mark.parametrize("periods", [(5,), (2, 4), (2, 2, 3)])
    def test_step_identity_for_group(self, periods):
        g = GroupSpec(periods)
        self.assert_step_identity(ReachEngine.for_group(g),
                                  lambda terms: is_zero_sum_free(g, GroupSeq(tuple(terms))))

    @pytest.mark.parametrize("k,n", [(1, 6), (2, 5), (4, 4), (3, 7)])
    def test_step_identity_structure_engine(self, k, n):
        # the alphabet stops at n - 1, so b + c can be the idempotent index n
        c = CyclicSpec(k, n)
        _alphabet, engine = _search_engine(c)
        s = c.as_product()
        self.assert_step_identity(engine,
                                  lambda terms: is_idempotent_sum_free(s, Seq(tuple(terms))))

    @pytest.mark.parametrize("kind", ["spec", "group", "structure"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_step_matches_elementwise_definition(self, kind, data):
        # Each element's bit is read off an engine over every element but
        # the idempotent, whose bit is the root's window; the elements own
        # the window, in increasing order.  From every F that a drawn word
        # reaches, step(F, a) is None exactly when F holds a, and otherwise
        # holds x exactly when F holds x or the capped x + a, on every
        # window bit; every F reached is the extension of its window.
        # Drawn: n = 1 coordinates, k > n (twins), groups of rank <= 3, and
        # the structure alphabets.
        if kind == "group":
            periods = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
            engine = full = ReachEngine.for_group(GroupSpec(periods))
            elements = list(GroupSpec(periods).elements())

            def plus(x, a):
                return tuple((u + v) % n for u, v, n in zip(x, a, periods))
        else:
            pairs = data.draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)),
                                       min_size=1, max_size=1 if kind == "structure" else 3))
            s = ProductSpec.of(*pairs)
            full = ReachEngine.for_spec(s)
            engine = _search_engine(s.coords[0])[1] if kind == "structure" else full
            elements = list(s.elements())

            def plus(x, a):
                return tuple(_capped(c.cap, c.n, u + v) for u, v, c in zip(x, a, s.coords))
        bit = dict(zip(full.labels, full.pos))
        (missing,) = set(elements) - set(bit)
        bit[missing] = (full.root & full.win).bit_length() - 1
        assert [bit[x] for x in elements] == sorted(bit.values())
        assert sum(1 << p for p in bit.values()) == full.win
        assert full.win.bit_count() == full.num_states == engine.num_states == len(elements)
        assert all(bit[a] == p for a, p in zip(engine.labels, engine.pos))
        n = len(engine.labels)
        word = data.draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
        F = engine.root
        assert {x for x in elements if F >> bit[x] & 1} == {missing}
        for ai in [*word, None]:
            assert F == engine.extend(F & engine.win) and F >> engine.width == 0
            held = {x for x in elements if F >> bit[x] & 1}
            for b, a in enumerate(engine.labels):
                after = engine.step(F, b)
                if a in held:
                    assert after is None, a
                else:
                    assert {x for x in elements if after >> bit[x] & 1} == held | {
                        x for x in elements if plus(x, a) in held}, a
            if ai is None or (F := engine.step(F, ai)) is None:
                break

    def test_repeated_alphabet_element_is_one_label(self):
        # each label owns one bit, so an explicit alphabet keeps one copy of
        # a repeated element; the search is that of the alphabet without it
        s = parse_spec("C(3;1)xC(1;2)")
        once = [(1, 1), (1, 2), (2, 1)]
        engine = ReachEngine.for_spec(s, once + [(1, 2)])
        assert engine.labels == tuple(once)
        runs = []
        for e in (engine, ReachEngine.for_spec(s, once)):
            meter = SearchMeter(Budget())
            runs.append((search_free(e, meter), meter.nodes))
        assert runs[0] == runs[1]

    def test_explicit_alphabet_is_sorted_once(self):
        # an alphabet given unsorted and with repeats builds the engine of
        # its sorted, distinct form
        s = parse_spec("C(3;2)xC(1;1)xC(2;3)")
        elements = list(s.elements())
        once = elements[1::2]
        given = once[::-1] + once[::3]
        random.Random(38).shuffle(given)
        assert given != once
        engines = [ReachEngine.for_spec(s, given), ReachEngine.for_spec(s, once)]
        assert engines[0].labels == tuple(once)
        shapes = {(e.labels, tuple(e.pos), e.owned, e.root, tuple(e.tail)) for e in engines}
        assert len(shapes) == 1

    def test_default_alphabet_is_sorted_non_idempotents(self):
        # the default alphabet is taken in the order s.elements() gives,
        # not sorted: that order is the sorted one, each element once
        for s in rank2_grid(20):
            expected = sorted(set(s.elements()) - {idempotent(s)})
            assert list(ReachEngine.for_spec(s).labels) == expected, s

    @pytest.mark.parametrize("label,value,nodes", [
        ("C(2;19)", 19, 180_170), ("C(1;5)xC(1;4)", 20, 154_525), ("C(4;2)", 4, 28),
    ])
    def test_one_element_factor_costs_nothing(self, label, value, nodes):
        # C(1;1) is the one-element semigroup, and S x C(1;1) = S.  Its
        # coordinate packs in a one-digit field with no extension step, as
        # Z_1 does in a group, so T with C(1;1) factors on either side
        # searches on T's layout, in T's label order, with T's value and
        # node counts
        t = parse_spec(label)
        one = CyclicSpec(1, 1)
        shapes = set()
        for coords in (t.coords, (one, *t.coords), (*t.coords, one), (one, *t.coords, one)):
            s = ProductSpec(coords)
            engine = ReachEngine.for_spec(s)
            shapes.add((engine.width, len(engine.ext), engine.win.bit_length(),
                        tuple(engine.pos), engine.off))
            r = eb_bruteforce(s, Budget())
            assert (r.value, r.nodes) == (value, nodes), s
        assert len(shapes) == 1

    def test_one_element_group_factor_costs_nothing(self):
        # the rule the semigroup side copies: Z_1 x Z_6 packs as Z_6
        engines = [ReachEngine.for_group(GroupSpec(p)) for p in ((1, 6), (6,))]
        assert len({(e.width, e.ext, e.win, tuple(e.pos), e.root, e.off)
                    for e in engines}) == 1

    def test_idempotent_label_rejected_alone(self):
        s = parse_spec("C(3;2)xC(1;3)")
        engine = ReachEngine.for_spec(s, alphabet=[idempotent(s), (1, 1)])
        ai = engine.labels.index(idempotent(s))
        assert engine.step(engine.root, ai) is None
        # (1, 1) forbids the target and the state (3, 2): 3 + 1 = 4 = cap in
        # C(3;2), 2 + 1 = 3 = cap in C(1;3).  Its digits (2, 1) pack to
        # 2 * 6 + 1 = 13 over fields of 4 + 4 = 8 and 3 + 3 = 6 bits.
        F = engine.step(engine.root, engine.labels.index((1, 1)))
        assert F & engine.win == (engine.root & engine.win) | 1 << 13
        assert F == engine.extend(engine.root | 1 << 13)


class TestSearchKernel:
    """search_free against a plain DFS that tries one element at a time, and
    its batched node counts against the budget."""

    # C(2;2)xC(3;3) has twins in both coordinates (3 acts as 1 in C(2;2); 4
    # and 5 act as 1 and 2 in C(3;3)); its last probe counts 42 failed
    # subtrees with 4 or more elements left from the memo
    @pytest.mark.parametrize("label", ["C(3;2)xC(1;4)", "C(1;2)xC(1;3)", "C(2;2)xC(2;2)",
                                       "C(3;2)xC(2;3)", "C(1;2)xC(1;2)xC(1;3)",
                                       "C(2;2)xC(3;3)", "C(4;2)xC(1;3)"])
    def test_exists_matches_naive_dfs(self, label):
        s = parse_spec(label)
        engine = ReachEngine.for_spec(s)
        value = eb_bruteforce(s).value
        for length in range(1, value + 1):
            meter = SearchMeter(Budget())
            found = search_free(engine, meter, length)
            assert (found, meter.nodes) == oracle.naive_free_search(coord_pairs(s), length)
            assert found == (length < value)

    @pytest.mark.parametrize("label", ["C(3;2)xC(2;3)", "C(4;2)xC(1;3)", "C(3;1)xC(2;2)"])
    def test_one_forbidden_set_one_subtree(self, label):
        # The subtree below a free prefix depends on its forbidden set alone,
        # not on its reach set.  Free prefixes of up to 3 elements are grouped
        # by forbidden set; from every member of a group that holds distinct
        # reach sets, a plain DFS that carries the member's own subsequence
        # sums finds what search_free finds from the group's forbidden set,
        # at one start.
        s = parse_spec(label)
        coords = coord_pairs(s)
        engine = ReachEngine.for_spec(s)
        labels = engine.labels
        groups: dict[int, dict[frozenset, tuple]] = {}  # F -> reach set -> prefix
        for r in range(1, 4):
            for prefix in itertools.combinations_with_replacement(range(len(labels)), r):
                F = engine.root
                for a in prefix:
                    F = engine.step(F, a)
                    if F is None:
                        break
                if F is None:
                    continue
                sums = oracle.naive_subsequence_sums(coords, [labels[a] for a in prefix])
                reach = frozenset(tuple(_capped(c.cap, c.n, v) for c, v in zip(s.coords, x))
                                  for x in sums)
                groups.setdefault(F, {}).setdefault(reach, prefix)
        shared = [members for members in groups.values() if len(members) > 1]
        assert shared, "no two reach sets share a forbidden set"
        for members in shared:
            prefixes = list(members.values())
            F = engine.root
            for a in prefixes[0]:
                F = engine.step(F, a)
            start = max(prefix[-1] for prefix in prefixes)
            for length in range(1, 5):
                meter = SearchMeter(Budget())
                found = search_free(engine, meter, length, F, start)
                for prefix in prefixes:
                    assert oracle.naive_extension_search(
                        coords, labels, [labels[a] for a in prefix], start, length
                    ) == (found, meter.nodes), (prefix, length)
            meter = SearchMeter(Budget())
            best = search_free(engine, meter, forbidden=F, start=start)
            for prefix in prefixes:
                assert oracle.naive_extension_search(
                    coords, labels, [labels[a] for a in prefix], start
                ) == (best, meter.nodes), prefix

    @pytest.mark.parametrize("entries", [0, 1, 1000])
    def test_memo_limit_keeps_counts(self, monkeypatch, entries):
        # The memo only saves work: with no room, with less room than any
        # record takes, or with room that runs out mid-search, every count
        # is the same.
        monkeypatch.setattr(sequences, "SEARCH_MEMO_ENTRIES", entries)
        for label, value, nodes in [("C(2;4)xC(3;4)", 7, 407332),
                                    ("C(4;2)xC(1;6)", 9, 408472),
                                    ("C(3;2)xC(1;4)", 7, 8039)]:
            r = eb_bruteforce(parse_spec(label))
            assert (r.value, r.nodes) == (value, nodes), label

    # each has twins: labels with one capped state, such as 3 and 1 in C(2;2)
    @pytest.mark.parametrize("label", ["C(2;2)xC(2;2)", "C(3;2)xC(2;3)", "C(2;2)xC(3;3)",
                                       "C(2;4)xC(3;4)"])
    def test_engine_memo_keeps_counts(self, label):
        # The existence memo lives on the engine, so a probe may meet the
        # records of earlier probes of any length, of the same length, or
        # of itself: each count is that of a fresh engine.
        s = parse_spec(label)
        value = eb_bruteforce(s).value

        def probe(engine, length):
            meter = SearchMeter(Budget())
            return search_free(engine, meter, length), meter.nodes

        fresh = {length: probe(ReachEngine.for_spec(s), length)
                 for length in range(1, value + 1)}
        for length in range(1, value):
            for order in ([length, length + 1, length + 1], [length + 1, length, length]):
                engine = ReachEngine.for_spec(s)
                for k in order:
                    assert probe(engine, k) == fresh[k], (order, k)
        engine = ReachEngine.for_spec(s)
        for k in [*range(value, 0, -1), *range(1, value + 1)]:
            assert probe(engine, k) == fresh[k], k
        assert engine.records, "the failing probe records the subtrees it walks in full"
        # each record takes its figures and its key's entries of the room
        key_cost = 1 + engine.win.bit_length() // 256
        assert sequences.SEARCH_MEMO_ENTRIES - engine.room == sum(
            key_cost + len(record) for record in engine.records.values())

    def test_record_key_cost_counts_the_window_span(self):
        # A record's key is its window, whose span here is 300 bits, for
        # 180 elements: each record takes 2 entries beside its figures.
        engine = ReachEngine.for_spec(parse_spec("C(1;3)xC(60;1)"), [(1, 1), (2, 1), (1, 2)])
        assert (engine.num_states, engine.win.bit_length()) == (180, 300)
        meter = SearchMeter(Budget())
        assert search_free(engine, meter, 61) is False
        assert meter.nodes == 21035 and engine.records
        assert sequences.SEARCH_MEMO_ENTRIES - engine.room == sum(
            2 + len(record) for record in engine.records.values())

    @pytest.mark.parametrize("label", ["C(2;2)xC(3;3)", "C(3;2)xC(2;3)", "Z2+Z2+Z6"])
    def test_failing_probe_counts_the_enumeration(self, label):
        # A probe that fails has walked its subtree in full, whatever length
        # it asked, so it counts the enumeration's nodes.  Every start of
        # one or two elements is probed at each length from its longest
        # extension + 1 to + 3, all on one engine, so a probe meets records
        # made at other depths, lengths and starts.
        engine = (ReachEngine.for_group(GroupSpec((2, 2, 6))) if label.startswith("Z")
                  else ReachEngine.for_spec(parse_spec(label)))
        n = len(engine.labels)
        checked = 0
        for prefix in [*((a,) for a in range(n)),
                       *itertools.combinations_with_replacement(range(n), 2)]:
            forbidden = engine.root
            for a in prefix:
                forbidden = engine.step(forbidden, a)
                if forbidden is None:
                    break
            if forbidden is None:
                continue
            d, nodes, _ = self.enumerated_longest(None, engine, forbidden, prefix[-1])
            for length in range(d, d + 3):  # the longest extension is d - 1
                meter = SearchMeter(Budget())
                assert search_free(engine, meter, length, forbidden, prefix[-1]) is False
                assert meter.nodes == nodes, (prefix, length)
                checked += 1
        assert checked > 3 * n

    def test_repeated_probe_takes_no_room(self):
        # A repeated probe is read off the record of its root, so it takes
        # no more of the memo's room.
        engine = ReachEngine.for_spec(parse_spec("C(2;4)xC(3;4)"))
        rooms = []
        for _ in range(3):
            meter = SearchMeter(Budget())
            assert search_free(engine, meter, 7) is False
            assert meter.nodes == 407332
            rooms.append(engine.room)
        assert rooms[0] < sequences.SEARCH_MEMO_ENTRIES
        assert rooms == [rooms[0]] * 3

    def test_one_record_per_forbidden_set(self):
        # Nodes with distinct reach sets and one forbidden set share one
        # record: the failing probe of 9 on a fresh C(4;2)xC(1;6) engine
        # leaves 880 records, against 4,516 under reach-set keys.
        engine = ReachEngine.for_spec(parse_spec("C(4;2)xC(1;6)"))
        meter = SearchMeter(Budget())
        assert search_free(engine, meter, 9) is False
        assert meter.nodes == 408472
        assert len(engine.records) <= 880

    DAVENPORT_GROUPS = [(2, 4), (3, 3), (2, 2, 2), (2, 6), (4, 4), (2, 2, 4), (2, 2, 2, 2),
                        (3, 6), (2, 2, 6), (3, 3, 3)]

    @staticmethod
    def enumerated_longest(periods, engine=None, forbidden=0, start=0):
        """(D, nodes, witness indices) by the plain enumeration: every free
        node is visited, and the witness is the first longest one met."""
        engine = engine or ReachEngine.for_group(GroupSpec(periods))
        meter = SearchMeter(Budget())
        best: list[int] = []

        def on_free(stack):
            if len(stack) > len(best):
                best[:] = stack

        search_free(engine, meter, forbidden=forbidden, start=start, on_free=on_free)
        return len(best) + 1, meter.nodes, best

    # the longest free stack with a property that a longer stack may lose
    # and regain, so nodes below the longest so far still matter
    PROPERTIES = {
        "sum-mod-3": lambda stack: sum(stack) % 3 == 0,
        "ends-equal": lambda stack: stack[0] == stack[-1],
        "odd-last-two-labels": lambda stack: stack[-1] % 2 == 1 and len(set(stack)) == 2,
    }
    SOUND_ENGINES = [(3, 3), (2, 2, 2), (2, 6), (4, 4), (3, 6), (2, 2, 6), "C(3;2)xC(1;4)",
                     "C(2;4)xC(3;4)", "C(4;2)xC(1;6)", "C(1;2)xC(1;3)xC(3;2)"]

    @staticmethod
    def engine_of(case):
        """A fresh engine of a spec label or of a group's periods."""
        return (ReachEngine.for_spec(parse_spec(case)) if isinstance(case, str)
                else ReachEngine.for_group(GroupSpec(case)))

    @classmethod
    def watched(cls, case, prop, threshold, engine=None):
        """(first longest stack with the property, nodes, on_free calls) of
        an enumeration on `engine`, else a fresh one; with threshold,
        on_free returns the longest length so far, else None."""
        engine = engine or cls.engine_of(case)
        has = cls.PROPERTIES[prop]
        best: list[int] = []
        calls = 0

        def on_free(stack):
            nonlocal calls
            calls += 1
            if len(stack) > len(best) and has(stack):
                best[:] = stack
            return len(best) if threshold else None

        meter = SearchMeter(Budget())
        assert search_free(engine, meter, on_free=on_free) is True
        return best, meter.nodes, calls

    @pytest.fixture(scope="class")
    def unwatched(self):
        return {(case, prop): self.watched(case, prop, False)
                for case in self.SOUND_ENGINES for prop in self.PROPERTIES}

    @pytest.mark.parametrize("entries", [0, 1, 1000, sequences.SEARCH_MEMO_ENTRIES])
    def test_enumeration_skips_only_what_the_watch_gives_up(self, monkeypatch, unwatched,
                                                            entries):
        # A watch that returns the depth it no longer needs has the subtrees
        # within it counted from the records, not reported: with no room,
        # with less room than any record takes, with room that runs out
        # mid-search, or with the default, it finds what it finds when it
        # returns None and sees every free node, and the count is the same.
        # Leaves within that depth are never reported, memo or not, so
        # every search reports fewer nodes (on C(1;2)xC(1;3)xC(3;2) with
        # the sum property, 766 of 24,091 at the default room).
        monkeypatch.setattr(sequences, "SEARCH_MEMO_ENTRIES", entries)
        for (case, prop), (best, nodes, calls) in unwatched.items():
            got = self.watched(case, prop, True)
            assert got[:2] == (best, nodes), (case, prop)
            assert got[2] < calls, (case, prop)

    @pytest.mark.parametrize("entries", [0, 1000, sequences.SEARCH_MEMO_ENTRIES])
    @pytest.mark.parametrize("case", [(2, 6), (3, 6), "C(3;2)xC(1;4)", "C(1;2)xC(1;3)xC(3;2)"],
                             ids=str)
    def test_modes_share_one_engine(self, monkeypatch, case, entries):
        # The thresholded watch, the longest search and the probes walk one
        # memo: run on one engine in every order, each meets records that
        # the others made (each records every subtree it walks in full), and
        # each finds and counts what it does on a fresh engine.
        monkeypatch.setattr(sequences, "SEARCH_MEMO_ENTRIES", entries)

        def watch(engine):
            return self.watched(case, "sum-mod-3", True, engine)[:2]

        def longest(engine):
            meter = SearchMeter(Budget())
            return search_free(engine, meter), meter.nodes

        def probes(engine):
            found = []
            for length in (size, size + 1):
                meter = SearchMeter(Budget())
                found.append((search_free(engine, meter, length), meter.nodes))
            return found

        size = len(longest(self.engine_of(case))[0])
        runs = {"watch": watch, "longest": longest, "probes": probes}
        fresh = {name: run(self.engine_of(case)) for name, run in runs.items()}
        assert [found for found, _ in fresh["probes"]] == [True, False]
        for order in itertools.permutations(runs):
            engine = self.engine_of(case)
            for name in order:
                assert runs[name](engine) == fresh[name], (order, name)

    @pytest.mark.parametrize("mode", [{"length": 3}, {"length": 7}, {},
                                      {"on_free": lambda stack: len(stack) - 1}],
                             ids=["hit", "failing-probe", "longest", "watch"])
    def test_search_leaves_no_cycle(self, mode):
        # The walker is a closure that refers to itself; search_free breaks
        # that cycle on its way out, so the walker and its lists are freed
        # on return, with no work left to the cycle collector.
        engine = ReachEngine.for_group(GroupSpec((2, 6)))
        meter = SearchMeter(Budget())
        gc.collect()
        gc.disable()
        try:
            search_free(engine, meter, **mode)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.fixture(scope="class")
    def enumerated(self):
        return {p: self.enumerated_longest(p) for p in self.DAVENPORT_GROUPS}

    @pytest.mark.parametrize("entries", [0, 1, 1000, sequences.SEARCH_MEMO_ENTRIES])
    def test_longest_matches_enumeration(self, monkeypatch, enumerated, entries):
        # The longest-extension search counts from the memo the recorded
        # subtrees that its watch has given up: with no room, with less
        # room than any record takes, with room that runs out mid-search,
        # or with the default, the value, node count and witness are those
        # of the unwatched enumeration.
        monkeypatch.setattr(sequences, "SEARCH_MEMO_ENTRIES", entries)
        for periods in self.DAVENPORT_GROUPS:
            engine = ReachEngine.for_group(GroupSpec(periods))
            meter = SearchMeter(Budget())
            best = search_free(engine, meter)
            assert (len(best) + 1, meter.nodes, best) == enumerated[periods], periods

    @pytest.mark.parametrize("periods", [(2, 2, 6), (3, 6)], ids=["Z2+Z2+Z6", "Z3+Z6"])
    def test_longest_from_every_two_element_start(self, periods):
        # Below the root, the longest extension of a node often runs
        # through a recorded subtree, so each depth read off a record is
        # checked here: every sequence of two elements starts a search.
        engine = ReachEngine.for_group(GroupSpec(periods))
        n = len(engine.labels)
        for a in range(n):
            for b in range(a, n):
                first = engine.step(engine.root, a)
                forbidden = None if first is None else engine.step(first, b)
                if forbidden is None:
                    continue
                meter = SearchMeter(Budget())
                best = search_free(engine, meter, forbidden=forbidden, start=b)
                assert (len(best) + 1, meter.nodes, best) == self.enumerated_longest(
                    periods, engine, forbidden, b), (a, b)

    @pytest.mark.parametrize("entries", [0, 1000])
    @pytest.mark.parametrize("periods", [(2, 2, 6), (3, 6)], ids=["Z2+Z2+Z6", "Z3+Z6"])
    def test_longest_from_every_two_element_start_short_of_room(self, monkeypatch, periods,
                                                                entries):
        # The longest watch reads the records too: with none, or with room
        # that runs out mid-search, each witness is still the enumeration's.
        monkeypatch.setattr(sequences, "SEARCH_MEMO_ENTRIES", entries)
        self.test_longest_from_every_two_element_start(periods)

    @staticmethod
    def gapped_engine(case):
        """(coords, engine) of an engine whose labels skip bit positions."""
        if case == "C(3;2)xC(2;3)-alphabet":
            s = parse_spec("C(3;2)xC(2;3)")
            return coord_pairs(s), ReachEngine.for_spec(
                s, [a for a in s.elements() if a != s.caps and sum(a) % 3])
        # k > n: the structure engine leaves out the idempotent, mid-range
        c = parse_spec(case).coords[0]
        return [(c.k, c.n)], _search_engine(c)[1]

    @pytest.mark.parametrize("case", ["C(3;2)xC(2;3)-alphabet", "C(5;3)", "C(8;3)"])
    def test_gapped_alphabet_matches_naive_search(self, case):
        # Labels own bit positions, but start, the witness and the node
        # counts are alphabet indices: on an alphabet with gaps, every start
        # from the empty sequence (start == len(labels) included), and the
        # start of every one-element prefix, is searched for its longest
        # extension and at each length from 1 to the longest + 1, on one
        # engine, against the plain DFS over the alphabet.
        coords, engine = self.gapped_engine(case)
        labels = engine.labels
        n = len(labels)
        gaps = [ai for ai in range(1, n) if engine.pos[ai] - engine.pos[ai - 1] > 1]
        assert gaps, "no start just after a gap"
        checked = 0
        for prefix in [(), *((a,) for a in range(n))]:
            forbidden = engine.root
            for a in prefix:
                forbidden = engine.step(forbidden, a)
            if forbidden is None:
                continue
            terms = [labels[a] for a in prefix]
            for start in (prefix if prefix else range(n + 1)):
                meter = SearchMeter(Budget())
                best = search_free(engine, meter, forbidden=forbidden, start=start)
                assert (best, meter.nodes) == oracle.naive_extension_search(
                    coords, labels, terms, start), (prefix, start)
                for length in range(1, len(best) + 2):
                    meter = SearchMeter(Budget())
                    found = search_free(engine, meter, length, forbidden, start)
                    assert (found, meter.nodes) == oracle.naive_extension_search(
                        coords, labels, terms, start, length), (prefix, start, length)
                    assert found == (length <= len(best))
                    checked += 1
        assert checked > n

    def test_longest_records_wide_counts(self):
        # Records hold Python ints, so a node limit of 2^31 or more counts
        # as any other.
        engine = ReachEngine.for_group(GroupSpec((2, 6)))
        meter = SearchMeter(Budget(node_budget=1 << 40))
        best = search_free(engine, meter)
        assert (len(best) + 1, meter.nodes) == (7, 2422)

    # (search, total nodes, further limits); each total is above 4097.  The
    # eb search counts its nodes 7,513 to 7,608 from a record that a node
    # with another reach set and the same forbidden set made, so a limit of
    # 7,560 falls inside that batch.  The eb-twins search counts its nodes
    # 230,178 to 266,260 as one failed subtree from the memo, so a limit of
    # 250,000 falls inside that batch, and its nodes 61,193 to 62,789 from a
    # record that a node with 4 elements left made and one with 5 left
    # reads, so a limit of 62,000 falls inside a batch across lengths; the
    # davenport-memo search counts its nodes 134,744 to 140,710 as one
    # recorded subtree, so a limit of 137,000 falls inside that one.  The
    # eb-probes search probes length 8, which ends at its 342nd node on a
    # hit with one element left, then length 9, which fails: limits of 341
    # and 342 put the node over the limit at the end of the successful
    # probe and at the start of the failing one.  The lhat and l searches
    # count a subtree from its record, without reporting it, once it lies
    # within the depth their watch has given up.  The lhat search counts
    # its nodes 22,324 to 22,891 so from a node two elements deep, and
    # 37,467 to 37,719 from one a single element deep, so limits of 22,600
    # and 37,600 fall inside those batches; the l search counts its nodes
    # 9,515 to 10,006 so from a node three elements deep, and 12,275 to
    # 12,376 from one four deep, across 12,288, where the meter also checks
    # the clock, so limits of 9,800 and 12,300 fall inside those.
    SEARCHES = [
        (lambda b: eb_bruteforce(parse_spec("C(3;2)xC(1;4)"), b), 8039, (7560,)),
        (lambda b: eb_bruteforce(parse_spec("C(1;2)xC(1;3)xC(3;2)"), b), 113479, (341, 342)),
        (lambda b: davenport(GroupSpec((3, 6)), "brute", b), 42406, ()),
        (lambda b: lhat(CyclicSpec(15, 6), "brute", b), 37983, (22600, 37600)),
        (lambda b: l_const(CyclicSpec(15, 6), "brute", b), 37983, (9800, 12300)),
        (lambda b: eb_bruteforce(parse_spec("C(2;4)xC(3;4)"), b), 407332, (250000, 62000)),
        (lambda b: davenport(GroupSpec((2, 2, 6)), "brute", b), 249408, (137000,)),
    ]

    @pytest.mark.parametrize("run,total,inner", SEARCHES,
                             ids=["eb", "eb-probes", "davenport", "lhat", "l", "eb-twins",
                                  "davenport-memo"])
    def test_budget_error_is_one_over_the_limit(self, run, total, inner):
        for limit in (1, 4095, 4096, 4097, total - 1) + inner:
            with pytest.raises(BudgetExceeded) as info:
                run(Budget(node_budget=limit))
            assert info.value.nodes == limit + 1
        assert run(Budget(node_budget=total)).nodes == total


class TestSearchMeter:
    def test_settle_returns_the_next_mark_and_reads_the_clock_across_4096(self, monkeypatch):
        reads = []
        monkeypatch.setattr(SearchMeter, "check_time", lambda self: reads.append(self.nodes))
        assert SearchMeter(Budget()).settle(0) == 4096
        meter = SearchMeter(Budget(node_budget=5000))
        assert meter.settle(4100) == 5001  # the first count over the limit
        assert reads == [4100]
        assert meter.settle(4200) == 5001 and reads == [4100]
        with pytest.raises(BudgetExceeded, match="node budget 5000 exhausted") as info:
            meter.settle(6000)
        assert info.value.nodes == meter.nodes == 5001


class TestPsiBridge:
    """For k <= n the semigroup predicates reduce to Z_n zero-sum
    predicates through the residue map."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive(self, n):
        for k in {1, n // 2 or 1, n}:
            s = ProductSpec.of((k, n))
            g = GroupSpec((n,))
            for t in all_seqs(s, 4):
                image = psi(s, t)
                assert is_idempotent_sum_free(s, t) == is_zero_sum_free(g, image)
                assert is_minimal_idempotent_sum(s, t) == is_minimal_zero_sum(g, image)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_larger(self, data):
        n = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(1, n))
        s = ProductSpec.of((k, n))
        g = GroupSpec((n,))
        terms = data.draw(st.lists(st.integers(1, k + n - 1), min_size=1, max_size=6))
        t = Seq(tuple((v,) for v in terms))
        assert is_idempotent_sum_free(s, t) == is_zero_sum_free(g, psi(s, t))


class TestSeqFiles:
    def test_parse_roundtrip(self):
        s = parse_spec("C(3;2)xC(1;4)")
        t = Seq.of((1, 2), (4, 4), (1, 2))
        assert parse_seq_lines(s, format_seq(t).splitlines()) == t

    def test_comments_and_blanks(self):
        s = parse_spec("C(2;3)")
        t = parse_seq_lines(s, ["# header", "", "1", " 2 ", ""])
        assert t.terms == ((1,), (2,))

    @pytest.mark.parametrize("lines,frag", [
        (["2;3"], "line 1"),
        (["1", "x"], "line 2"),
        (["1,2"], "line 1"),
        (["9"], "line 1"),
        (["0"], "line 1"),
    ])
    def test_errors_carry_line_numbers(self, lines, frag):
        s = parse_spec("C(2;3)")
        with pytest.raises(SeqFileError, match=frag):
            parse_seq_lines(s, lines)


class TestGroupSeqValidation:
    def test_check(self):
        from ebs.sequences import check_group_seq
        g = GroupSpec((2, 3))
        check_group_seq(g, GroupSeq.of((0, 1), (1, 2)))
        assert GroupSeq is Seq
        with pytest.raises(SpecError):
            check_group_seq(g, GroupSeq.of((2, 0),))
        with pytest.raises(SpecError):
            check_group_seq(g, GroupSeq.of((0,),))
