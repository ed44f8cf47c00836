"""Multiset sequences over a product semigroup and the idempotent-sum
predicates.

A sequence is a finite multiset of elements; no predicate here depends on
order.  The central fact: a nonempty sequence sums to the idempotent exactly
when, in every coordinate, its raw index total reaches cap_i = ceil(k_i/n_i)*n_i
and is divisible by n_i.  Past cap_i - n_i only a total's residue mod n_i
matters, so a total above cap_i wraps into [cap_i - n_i + 1, cap_i] (_capped),
and the subset-sum states of a sequence stay bounded by prod(cap_i)
regardless of sequence length.  A group runs as C(1;n_1) x ... x C(1;n_r),
residue 0 lifted to index n_i (_lift), where the idempotent is the zero sum.

The search engine, ReachEngine, packs each state into one integer and a
whole set of states into one int bitset.  The search carries a sequence's
forbidden set, the states whose addition would complete the idempotent,
not its reach set: it rejects an element with one AND against the element's
own state bit, and steps the forbidden set by a few masked shifts (one per
distinct packed displacement).  Its pair rows, built on first use, hold the
state bit of the sum of two elements, so the elements a child rejects can
be read off its parent's forbidden set.  One depth-first kernel,
search_free, runs every exhaustive search on it: the Erdos-Burgess and
Davenport searches, and the lhat/l searches of the structure module (arity
1).  It hands each node the elements its ancestors did not reject, finds a
child's survivors from the pair row of the child's element, steps a child
inline from flat per-element lists only when it has survivors to expand,
and counts the nodes of the plain one-candidate-at-a-time search by
arithmetic.  The existence searches (Erdos-Burgess) and the Davenport
search, which looks for the longest free extension, run one walker, which
returns the length of a node's longest free extension, and share one memo
per engine, one record per forbidden set: a subtree met again at a recorded
forbidden set is counted from the node counts and depths of its children,
not searched again, so the counts are those of the full search; the
Davenport witness is found by one more walk, which reads the records and
stops at the first extension of the longest length.  Sequences with
distinct reach sets may share a forbidden set, and so a record: in C(3;1),
[2] and [1, 1] reach {2} and {1, 2}, and both forbid {1, 2, 3}.  The lhat/l
searches enumerate every free node through one callback, on_free; rejected
elements stay inside the kernel.

The one-shot predicates read one walk, _walk, over the capped states of a
sequence's subsequence sums; a state steps by per-term lookup rows, one per
coordinate, holding the capped x + v of each index x.  The states are a
sparse dict of tuples, not a bitset: a dict grows with the states actually
reached (at most 2^len - 1), a bitset with the whole packed space (12 terms
over C(100;100)^3 reach at most 4,095 of its 1,000,000 states).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Sequence

from .config import DEFAULT_STATE_CAP, SEARCH_MEMO_ENTRIES, SearchMeter
from .errors import BudgetExceeded, SeqFileError, SpecError
from .semigroup import (
    CyclicSpec,
    Element,
    GroupSpec,
    ProductSpec,
    add,
    check_element,
)

# ---------------------------------------------------------------------------
# sequence containers


def _as_term(t) -> tuple[int, ...]:
    if isinstance(t, int):
        return (t,)
    return tuple(t)


@dataclass(frozen=True)
class Seq:
    """A multiset of semigroup elements or group residue vectors, sorted."""

    terms: tuple[Element, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(sorted(_as_term(t) for t in self.terms)))

    @classmethod
    def of(cls, *terms) -> "Seq":
        """Build from terms; bare ints are treated as 1-tuples."""
        return cls(tuple(_as_term(t) for t in terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def with_term(self, t) -> "Seq":
        return Seq(self.terms + (_as_term(t),))

    def remove_one(self, t) -> "Seq":
        """Drop one copy of t; error if absent."""
        t = _as_term(t)
        terms = list(self.terms)
        if t not in terms:
            raise SpecError(f"term {t} not in sequence")
        terms.remove(t)
        return Seq(tuple(terms))


GroupSeq = Seq  # the name of Seq on the group side


def check_group_seq(g: GroupSpec, t: Seq) -> None:
    for term in t:
        if len(term) != len(g.periods):
            raise SpecError(
                f"residue vector arity {len(term)} does not match group rank {len(g.periods)}"
            )
        for r, n in zip(term, g.periods):
            if not 0 <= r < n:
                raise SpecError(f"residue {r} outside [0, {n - 1}]")


# ---------------------------------------------------------------------------
# sums and projections

SumProfile = tuple[int, ...]


def sum_profile(s: ProductSpec, t: Seq) -> SumProfile:
    """Per-coordinate raw index totals over all terms (exact, uncapped)."""
    totals = [0] * s.arity
    for term in t:
        check_element(s, term)
        for i, v in enumerate(term):
            totals[i] += v
    return tuple(totals)


def sigma(s: ProductSpec, t: Seq) -> Element:
    """Sum of all terms.  Undefined for the empty sequence: the product is
    generally not a monoid."""
    if t.is_empty:
        raise SpecError("sigma of the empty sequence is undefined")
    profile = sum_profile(s, t)
    return tuple(c.canonical(v) for c, v in zip(s.coords, profile))


def psi(s: ProductSpec, t: Seq) -> Seq:
    """Term-wise reduction of canonical indices mod the coordinate periods."""
    for term in t:
        check_element(s, term)
    return Seq(tuple(tuple(v % c.n for v, c in zip(term, s.coords)) for term in t))


def is_idempotent_sum(s: ProductSpec, t: Seq) -> bool:
    """True iff the whole sequence sums to the idempotent: every coordinate
    total reaches cap_i and is divisible by n_i."""
    if t.is_empty:
        raise SpecError("the empty sequence has no sum")
    profile = sum_profile(s, t)
    return all(v >= c.cap and v % c.n == 0 for c, v in zip(s.coords, profile))


# ---------------------------------------------------------------------------
# subset-sum reachability

def _capped(cap: int, n: int, v: int) -> int:
    """The state of a coordinate total v of C(k;n), cap = ceil(k/n)*n.

    A total is idempotent when it is at least cap and divisible by n.  Past
    cap - n, the next multiple of n is already at least cap, so only the
    residue matters: totals above cap wrap into [cap - n + 1, cap], and the
    state of a sum is the state of its capped parts' sum."""
    if v <= cap:
        return v
    return cap - n + 1 + (v - cap - 1) % n


class _Row(dict):
    """The capped x + v of one coordinate for each index x the walk meets,
    filled on first use."""

    def __init__(self, cap: int, n: int, v: int):
        self.cap, self.n, self.v = cap, n, v

    def __missing__(self, x: int) -> int:
        # _capped, inline: one Python call per new entry, not two
        y = x + self.v
        if y > self.cap:
            y = self.cap - self.n + 1 + (y - self.cap - 1) % self.n
        self[x] = y
        return y


def _walk(s: ProductSpec, t: Seq, state_cap: int):
    """Walk the capped subset-sum states of t one term at a time.

    Returns (fewest, first, hit).  fewest maps each state reached, the empty
    sum (all zeros) included, to the fewest terms that reach it; first maps
    each other one to the term position and the state of its first
    appearance; hit is the position of the first term at which the
    idempotent is reachable (the walk stops after it, before it checks the
    state cap), or None."""
    target = s.caps
    fewest: dict[tuple[int, ...], int] = {(0,) * s.arity: 0}
    first: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    rows: list[dict[int, _Row]] = [{} for _ in target]  # per coordinate, by value
    for pos, term in enumerate(t.terms):
        check_element(s, term)
        step = []
        for c, by_value, v in zip(s.coords, rows, term):
            row = by_value.get(v)
            if row is None:
                row = by_value[v] = _Row(c.cap, c.n, v)
            step.append(row)
        # the states before this term, so that it is added at most once
        for p, m in list(fewest.items()):
            q = tuple(map(getitem, step, p))
            k = fewest.get(q)
            if k is None:
                fewest[q] = m + 1
                first[q] = (pos, p)
            elif m + 1 < k:
                fewest[q] = m + 1
        if target in fewest:
            return fewest, first, pos
        if len(fewest) > state_cap + 1:
            raise BudgetExceeded(f"reach state cap {state_cap} exceeded")
    return fewest, first, None


def is_idempotent_sum_free(s: ProductSpec, t: Seq, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff no nonempty subsequence sums to the idempotent.  The empty
    sequence is free by convention."""
    return _walk(s, t, state_cap)[2] is None


def is_minimal_idempotent_sum(s: ProductSpec, t: Seq, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff t is an idempotent sum and no proper nonempty subsequence is:
    the idempotent is first reachable at the last term, and needs all
    len(t) terms there."""
    if t.is_empty:
        raise SpecError("the empty sequence has no sum")
    if not is_idempotent_sum(s, t):
        return False
    fewest, _, hit = _walk(s, t, state_cap)
    return hit == len(t) - 1 and fewest[s.caps] == len(t)


def idempotent_witness(s: ProductSpec, t: Seq, state_cap: int = DEFAULT_STATE_CAP) -> Seq | None:
    """Some nonempty subsequence summing to the idempotent, or None.

    Follows the chain of first appearances back from the idempotent; they
    have strictly increasing term positions, so the chain is a valid
    subsequence.
    """
    _, first, hit = _walk(s, t, state_cap)
    if hit is None:
        return None
    picked = []
    state = s.caps
    while state in first:
        pos, state = first[state]
        picked.append(t.terms[pos])
    return Seq(tuple(picked))


# ---------------------------------------------------------------------------
# group-side predicates

def _lift(periods, residues) -> tuple[int, ...]:
    """The index of C(1;n_1) x ... x C(1;n_r) in each residue's class:
    residue 0 goes to n_i."""
    return tuple(r or n for r, n in zip(residues, periods))


def _as_semigroup(g: GroupSpec, t: Seq) -> tuple[ProductSpec, Seq]:
    """t inside C(1;n_1) x ... x C(1;n_r), residue 0 sent to index n_i.

    Every index is at least 1 and congruent to its residue, so a nonempty
    index total is idempotent (>= n_i and divisible by n_i) exactly when its
    residue total is 0: zero sums are the idempotent sums.
    """
    check_group_seq(g, t)
    s = ProductSpec(tuple(CyclicSpec(1, n) for n in g.periods))
    return s, Seq(tuple(_lift(g.periods, term) for term in t))


def is_zero_sum(g: GroupSpec, t: Seq) -> bool:
    """True iff the whole nonempty sequence sums to zero."""
    return is_idempotent_sum(*_as_semigroup(g, t))


def is_zero_sum_free(g: GroupSpec, t: Seq) -> bool:
    """True iff no nonempty subsequence sums to zero in every coordinate."""
    return is_idempotent_sum_free(*_as_semigroup(g, t))


def is_minimal_zero_sum(g: GroupSpec, t: Seq) -> bool:
    """True iff t sums to zero and no proper nonempty subsequence does: one
    fewest-terms walk, that of is_minimal_idempotent_sum."""
    return is_minimal_idempotent_sum(*_as_semigroup(g, t))


# ---------------------------------------------------------------------------
# sequence file format

def parse_seq_lines(s: ProductSpec, lines: Iterable[str]) -> Seq:
    """One term per line as comma-separated 1-based indices; blank lines and
    '#' comments ignored; repeated lines give multiplicity."""
    terms: list[Element] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            term = tuple(int(p) for p in parts)
        except ValueError:
            raise SeqFileError(line_no, f"not a comma-separated integer list: {line!r}")
        if len(term) != s.arity:
            raise SeqFileError(
                line_no, f"term has {len(term)} coordinates, spec has {s.arity}"
            )
        try:
            check_element(s, term)
        except SpecError as exc:
            raise SeqFileError(line_no, str(exc))
        terms.append(term)
    return Seq(tuple(terms))


def read_seq_file(s: ProductSpec, path) -> Seq:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_seq_lines(s, fh)


def format_seq(t: Seq) -> str:
    return "\n".join(",".join(str(v) for v in term) for term in t) + ("\n" if len(t) else "")


# ---------------------------------------------------------------------------
# packed search engine

def _digit_mask(digits, stride: int, size: int, num_states: int) -> int:
    """Bitset of the packed states whose digit in one coordinate (given by
    its stride and digit count) lies in `digits`.

    The coordinate's digits repeat with period stride * size across the
    packed space, so the mask is one period's block times a comb with a bit
    at the start of every period; the block is narrower than the period, so
    the product has no carries.
    """
    block = 0
    run = (1 << stride) - 1
    for d in digits:
        block |= run << (d * stride)
    period = stride * size
    comb = ((1 << num_states) - 1) // ((1 << period) - 1)
    return block * comb


class PairRows(dict):
    """The pair rows of a ReachEngine, each built on first use.

    Row b lists, for every alphabet position c, the single bit of the packed
    state of the sum b + c.  The sum's state is read off the digit moves of
    c's value at b's digits, so no move is recomputed; a bit is built once
    per state (bits) and shared by every row that holds it.
    """

    __slots__ = ("digits", "moves", "bits")

    def __init__(self, digits, moves):
        super().__init__()
        self.digits = digits  # per coordinate: the digit of each position
        # per coordinate: the digit moves of each position's value, times
        # the coordinate's stride
        self.moves = moves
        self.bits: dict[int, int] = {}

    def __missing__(self, b: int) -> list[int]:
        sums = None
        for digits, moves in zip(self.digits, self.moves):
            d = digits[b]
            col = [m[d] for m in moves]
            sums = col if sums is None else [x + y for x, y in zip(sums, col)]
        bits = self.bits
        for x in set(sums).difference(bits):
            bits[x] = 1 << x
        row = self[b] = [bits[x] for x in sums]
        return row


class ReachEngine:
    """Precomputed bitset translations for exhaustive free-sequence searches.

    Coordinate i of a state is a digit d in [0, cap_i), standing for the
    capped total d + 1 (see _capped); the target digit, the idempotent, is
    cap_i - 1.  A group runs as C(1;n_1) x ... x C(1;n_r), where cap_i = n_i
    and the target is the zero sum.  A state packs its digits into one
    integer by mixed-radix encoding, the last coordinate least significant,
    so the target is state num_states - 1.  A set of states is one Python
    int: bit p is set when packed state p is in it.

    The search does not carry a sequence's reach set S, the states of its
    nonempty subsequence sums, but its forbidden set F: the states x with
    p + x the target for some p in S or p the empty sum.  Appending c makes
    the target reachable exactly when c's state is in F, so F alone decides
    which elements a node rejects.  The empty sequence has F = {target}
    (root), and appending b gives F | (F - b), where F - b holds the x with
    x + b in F.  Distinct reach sets may share one F: in C(3;1) the free
    sequences [2] and [1, 1] reach {2} and {1, 2}, and both forbid {1, 2,
    3}.  In a group S -> F is one-to-one.

    Adding an alphabet element moves every digit of a coordinate by a fixed
    displacement, except where the sum wraps.  So the element's translation
    is a set of pieces, one per distinct packed displacement: the states it
    moves by that shift (the product of per-coordinate digit groups, built
    once per coordinate and digit).  A piece is kept as (mask, shift), the
    mask holding the states the piece moves onto, so that it is read
    backwards: F - b is the union of (F & mask) >> shift over the pieces
    that move up and (F & mask) << shift over those that move down (a zero
    shift only gives states already in F), and no int outgrows the packed
    space.  Flat lists indexed by alphabet position hold each element's own
    state bit (own) and its pieces, up and down.

    pairs[b][c] is the bit of the state of b + c (see PairRows).  It tells
    which elements a child rejects from its parent's F alone: if F does not
    hold c, then F | (F - b) holds c exactly when F holds b + c.

    records holds the memo that every search over the engine shares, one
    record per forbidden set of a subtree walked in full, and room the
    entries it may still take (see search_free).  A pool worker builds its
    engine once, so the tasks it runs share it too.
    """

    __slots__ = ("labels", "num_states", "root", "own", "up", "down", "pairs", "records",
                 "room")

    def __init__(self, labels, num_states, own, up, down, pairs):
        self.labels = labels  # alphabet, in search order
        self.num_states = num_states
        self.root = 1 << (num_states - 1)  # the forbidden set of the empty sequence
        self.own, self.up, self.down = own, up, down
        self.pairs = pairs
        self.records: dict[int, list[int]] = {}
        self.room = SEARCH_MEMO_ENTRIES

    @classmethod
    def _build(cls, labels, indices, coords) -> "ReachEngine":
        """Engine over `labels`, whose semigroup indices are `indices` (one
        tuple per label), with coords[i] = (cap_i, n_i).

        (Digit moves are lists, not tuples: freed tuples shorter than 20
        stay on CPython's per-size free lists, which held about 1 MB more
        after a few hundred builds.)
        """
        sizes = [cap for cap, _ in coords]
        strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
        num_states = math.prod(sizes)
        # per coordinate: the digit of each label, the stride-scaled digit
        # moves of each label's digit, and the (mask, shift) groups of each
        # digit
        digits, moves, groups = [], [], []
        for i, (stride, (cap, n)) in enumerate(zip(strides, coords)):
            label_digits = [_capped(cap, n, a[i]) - 1 for a in indices]
            by_digit, scaled = {}, {}
            for e in set(label_digits):
                # the digit that each digit d moves to by adding digit e
                to = [_capped(cap, n, d + e + 2) - 1 for d in range(cap)]
                by_shift: dict[int, list[int]] = {}
                for d, f in enumerate(to):
                    by_shift.setdefault((f - d) * stride, []).append(d)
                by_digit[e] = [(_digit_mask(ds, stride, cap, num_states), shift)
                               for shift, ds in by_shift.items()]
                scaled[e] = [f * stride for f in to]
            digits.append(label_digits)
            moves.append([scaled[e] for e in label_digits])
            groups.append(by_digit)

        up, down = [], []
        for ai in range(len(labels)):
            merged: dict[int, int] = {}
            for combo in itertools.product(*(g[ds[ai]] for g, ds in zip(groups, digits))):
                mask, shift = -1, 0
                for m, sh in combo:
                    mask &= m
                    shift += sh
                merged[shift] = merged.get(shift, 0) | mask
            # a zero shift only re-adds states already in the set; each mask
            # is shifted onto the states its piece moves onto
            up.append(tuple((m << sh, sh) for sh, m in merged.items() if sh > 0))
            down.append(tuple((m >> -sh, -sh) for sh, m in merged.items() if sh < 0))
        own = [1 << sum(ds[ai] * st for ds, st in zip(digits, strides))
               for ai in range(len(labels))]
        return cls(tuple(labels), num_states, own, up, down, PairRows(digits, moves))

    @classmethod
    def for_spec(cls, s: ProductSpec, alphabet: Sequence[Element] | None = None) -> "ReachEngine":
        if alphabet is None:
            alphabet = [a for a in s.elements() if a != s.caps]
        labels = sorted(alphabet)
        return cls._build(labels, labels, [(c.cap, c.n) for c in s.coords])

    @classmethod
    def for_group(cls, g: GroupSpec) -> "ReachEngine":
        """Engine over the nonzero residues in residue order, each run as its
        lift into C(1;n_1) x ... x C(1;n_r)."""
        zero = (0,) * len(g.periods)
        labels = [a for a in g.elements() if a != zero]
        return cls._build(labels, [_lift(g.periods, a) for a in labels],
                          [(n, n) for n in g.periods])

    def step(self, forbidden: int, ai: int) -> int | None:
        """Forbidden set after appending alphabet element ai, or None if ai
        is forbidden: it would make the target reachable."""
        if forbidden & self.own[ai]:
            return None
        out = forbidden
        for m, sh in self.up[ai]:
            out |= (forbidden & m) >> sh
        for m, sh in self.down[ai]:
            out |= (forbidden & m) << sh
        return out


# The fewest nodes a subtree of the longest-extension search must count to
# be recorded: smaller ones are cheaper to walk again than to keep.
_RECORD_NODES = 64

# A depth no free extension reaches: the longest-extension search walks
# every subtree in full.
_UNREACHED = sys.maxsize


def search_free(engine: ReachEngine, meter: SearchMeter, length: int | None = None,
                forbidden: int = 0, start: int = 0, on_free=None) -> bool | list[int]:
    """Depth-first search over the non-decreasing free extensions of a
    sequence with forbidden set `forbidden` (ReachEngine.step; 0 or
    engine.root for the empty sequence) by alphabet elements from `start`
    on.

    With a length (>= 1): does a free extension by that many elements
    exist?  It stops at the first.  With on_free: visit every free
    extension, calling on_free(stack) at each (stack: the alphabet indices
    added, reused); returns True.  With neither: the alphabet indices of the
    first longest free extension in depth-first order.

    A node hands its children only the elements it does not reject:
    forbidden sets grow along a path, so a rejected element stays rejected
    below.  A child's survivors come from its parent's forbidden set and the
    pair row of the child's element (ReachEngine.pairs), so the child's own
    forbidden set is stepped only when it has survivors to expand; a
    last-level child is never stepped.  Nodes are counted by arithmetic as
    the search that tries one element at a time counts them: a node entered
    at start costs n - start, or hit - start + 1 if it stops at a hit.  The
    count is handed to the meter when it reaches meter.next_check() and at
    the end.

    The existence and longest-extension searches run one walker: it returns
    a node's depth, the length of its longest free extension, or the length
    asked as soon as it reaches it.  A node's own attempts are counted when
    it returns, so the running count may lag, but the totals and budget
    verdicts are those above.  A probe that fails has walked its subtree in
    full, so its count is the full subtree's, whatever length was asked.

    A node's live list is exactly the elements from its start on that its
    forbidden set F does not hold, and its children's forbidden sets follow
    from F, so its subtree depends only on F and start, and the live lists
    of one F are suffixes of one list.  So a node walked in full records
    under F its children's node counts and depths, in live order, and a
    later node with the same F, whatever its reach set, whose live list is
    no longer than the record's is read off the record's last len(live)
    children: it fails at left elements exactly when the greatest of their
    depths is below left, and then costs n - start plus their counts, not
    searched again.  Otherwise it is walked, and reaches left.  Existence
    probes record every node they walk in full, the longest search only
    subtrees of _RECORD_NODES or more nodes.  The records are the engine's
    (ReachEngine.records), shared by every search over it, one per
    forbidden set (in C(3;1), [2] and [1, 1] share one): a record is
    replaced only by one with more children, and all take at most
    config.SEARCH_MEMO_ENTRIES entries.  The longest search finds its
    witness by walking again as an existence search of the longest length,
    uncounted and unmetered: it reads the records, and its first hit is the
    first longest extension in depth-first order, whose elements it
    collects on the way back up.
    Enumeration (on_free) visits every free node and keeps no memo.
    """
    own, up, down, pairs = engine.own, engine.up, engine.down, engine.pairs
    records = engine.records
    n = len(own)
    count = meter.nodes
    mark = meter.next_check()
    stack: list[int] = []
    hit: list[int] = []  # a hit's elements, deepest first
    key_cost = 1 + engine.num_states // 256  # the entries a record takes beside its figures
    least = _RECORD_NODES if length is None else 0  # the fewest nodes a record counts

    def settle():
        nonlocal mark
        meter.tick(count - meter.nodes)
        mark = meter.next_check()

    def walk(F, live, start, left):
        # the depth of a node with live elements live (not empty), or left
        # (>= 2) as soon as it reaches left
        nonlocal count, room
        if left == 2:
            for j, b in enumerate(live):
                row = pairs[b]
                # the child is a last-level node: it stops at its first survivor
                for c in live[j:]:
                    if not F & row[c]:
                        count += c + 2 - start
                        hit.extend((c, b))
                        return 2
                count += n - b  # the child rejects every element from b on
            count += n - start
            if count >= mark:
                settle()
            return 1
        known = records.get(F)
        k = len(live)
        if known is not None and 2 * k <= len(known):
            depth = max(known[-k:])
            if depth < left:  # it fails: count it from its record
                half = len(known) >> 1
                count += n - start + sum(known[half - k:half])
                if count >= mark:
                    settle()
                return depth
        entered = count
        rest = left - 1  # what a child has left
        sizes, depths = [], []  # per child, in live order
        deepest = 1  # the greatest of depths
        for j, b in enumerate(live):
            row = pairs[b]
            kids = [c for c in live[j:] if not F & row[c]]
            if not kids:  # the child rejects every element from b on
                count += n - b
                sizes.append(n - b)
                depths.append(1)
                continue
            out = F
            for m, sh in up[b]:
                out |= (F & m) >> sh
            for m, sh in down[b]:
                out |= (F & m) << sh
            if count >= mark:
                settle()
            before = count
            depth = walk(out, kids, b, rest)
            if depth == rest:
                count += b + 1 - start
                hit.append(b)
                return left
            sizes.append(count - before)
            depths.append(1 + depth)
            if depth >= deepest:
                deepest = 1 + depth
        count += n - start
        if count >= mark:
            settle()
        # a record holds its children's node counts, then their depths; it
        # replaces a shorter one (known), whose entries it gets back
        cost = key_cost + 2 * len(sizes)
        if known is not None:
            cost -= key_cost + len(known)
        if count - entered >= least and cost <= room:
            room -= cost
            sizes += depths
            records[F] = sizes
        return deepest

    def enumerate_free(F, live, start):
        nonlocal count
        count += n - start
        if count >= mark:
            settle()
        for j, b in enumerate(live):
            row = pairs[b]
            kids = [c for c in live[j:] if not F & row[c]]
            stack.append(b)
            on_free(stack)
            if kids:
                out = F
                for m, sh in up[b]:
                    out |= (F & m) >> sh
                for m, sh in down[b]:
                    out |= (F & m) << sh
                enumerate_free(out, kids, b)
            else:  # a leaf: it tries and rejects every element from b on
                count += n - b
                if count >= mark:
                    settle()
            stack.pop()

    F = forbidden | engine.root
    result = True
    live = [b for b in range(start, n) if not F & own[b]]
    room = engine.room
    try:
        if on_free is not None:
            enumerate_free(F, live, start)
        elif length == 1 or not live:
            # a last-level node stops at its first survivor, and a node with
            # no survivor tries every element from start on
            count += (live[0] + 1 if live else n) - start
            result = [] if length is None else bool(live)
        elif length is None:
            depth = walk(F, live, start, _UNREACHED)
            if depth == 1:
                result = live[:1]
            else:
                # the witness: walk again to the first extension of that
                # length, reading the records, uncounted and unmetered
                counted, mark = count, _UNREACHED
                walk(F, live, start, depth)
                count = counted
                result = hit[::-1]
        else:
            result = walk(F, live, start, length) == length
    finally:
        # The recursive closures refer to themselves, and the cycle holds
        # the engine's lists and rows; break it, so that they are freed on
        # return and not at some later cycle collection.
        walk = enumerate_free = None
        engine.room = room
    # a hit returns without a check; this one settles it
    meter.tick(count - meter.nodes)
    return result
