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

The search engine, ReachEngine, gives each element a bit, and a set of
elements is one int bitset; an element past cap_i is an alias of its capped
twin, and every set the search makes holds both or neither.  The search
carries a sequence's forbidden set, the elements whose addition would
complete the idempotent, not its reach set, and steps it by a few masked
shifts.  One depth-first walker, search_free, runs every exhaustive search
on it: the Erdos-Burgess existence probes, the Davenport search for the
longest free extension, and the lhat/l searches of the structure module
(arity 1), which report the free nodes to a callback, on_free, that returns
the depth it no longer needs.  A node's live labels are one bitset too: a
child's are its parent's from its own bit on, less its own forbidden set.
The nodes of the plain one-candidate-at-a-time search are counted by
arithmetic.  The searches over an engine share one memo, one record per
forbidden set, and every node takes one path: an existence node with one
element left stops at its first live label; any other is counted from the
record of its forbidden set, if that record shows it cannot reach the depth
still asked (or that the callback still needs), or walks its live labels in
one loop.  The counts of a recorded subtree are its children's node counts
and depths, so the counts are those of the full search.

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

def _digit_mask(digits, stride: int, comb: int) -> int:
    """Bitset of the packed elements whose digit in one coordinate (given by
    its stride) lies in `digits`.

    The coordinate's digits repeat with period stride * size across the
    packed space, so the mask is one period's block times the coordinate's
    comb, a bit at the start of every period; the block is narrower than the
    period, so the product has no carries.
    """
    block = 0
    run = (1 << stride) - 1
    for d in digits:
        block |= run << (d * stride)
    return block * comb


class ReachEngine:
    """Precomputed bitset translations for exhaustive free-sequence searches.

    One bit per element.  Coordinate i of an element of C(k_i;n_i) is a
    digit in [0, k_i + n_i - 1), the index less 1; a group packs residues,
    digit r in [0, n_i).  Mixed-radix packing, the last coordinate least
    significant, gives sorted elements increasing bit positions, and a set
    of elements is one int.  The width num_states is prod(k_i + n_i - 1),
    under 2^r * prod(cap_i), or |G|.  Label ai owns bit pos[ai] (owned: all
    of them); labels may skip positions, as an explicit alphabet does, or
    the structure engine, which leaves out the idempotent.

    The search carries a sequence's forbidden set F, not its reach set S:
    the elements x with p + x capped to the idempotent (see _capped) for
    some p in S or p the empty sum.  Appending c makes the idempotent
    reachable exactly when c is in F, so F alone decides which elements a
    node rejects.  The empty sequence has F = {idempotent} (root; bit 0,
    the zero sum, in a group), and appending b gives F | (F - b), where
    F - b holds the x with x + b in F.  An element past cap_i is an alias
    of its capped twin (7 of 4 in C(5;3)): they share a state, so every F
    holds both or neither.  Distinct reach sets may share one F: in C(3;1)
    the free sequences [2] and [1, 1] reach {2} and {1, 2}, and both forbid
    {1, 2, 3}.  In a group S -> F is one-to-one.

    Adding b moves every digit of a coordinate by a fixed displacement,
    except where the capped sum wraps.  So b's translation is a set of
    pieces, one per distinct packed displacement, each the product of
    per-coordinate digit groups read off the coordinate's table of digit
    sums.  A piece is kept as (mask, shift), the mask holding the elements
    it moves onto, so it is read backwards: F - b is the union of (F & mask)
    >> shift over the pieces that move up and (F & mask) << shift over
    those that move down (a zero shift adds nothing), and no int outgrows
    the packed space.  Equal pieces are one object.  Lists indexed by bit
    position hold the label's pieces there, up and down, and tail[p], the
    labels at or after position p (tail[num_states] = 0), from which the
    search counts its nodes.  No table of pairs is needed: a child's live
    labels are its parent's, from its own on, less the child's F.

    records holds the memo that every search over the engine shares, one
    record per forbidden set of a subtree walked in full, and room the
    entries it may still take (see search_free).
    """

    __slots__ = ("labels", "num_states", "root", "pos", "owned", "tail", "up", "down",
                 "records", "room")

    def __init__(self, labels, num_states, root, pos, owned, tail, up, down):
        self.labels = labels  # alphabet, in search order
        self.num_states = num_states
        self.root = root  # the forbidden set of the empty sequence
        self.pos, self.owned, self.tail = pos, owned, tail
        self.up, self.down = up, down
        self.records: dict[int, list[int]] = {}
        self.room = SEARCH_MEMO_ENTRIES

    @classmethod
    def _build(cls, labels, digits, coords, target) -> "ReachEngine":
        """Engine over `labels`, whose element digits are `digits` (one tuple
        per label, in increasing packed order), with coords[i] = (size_i,
        to_i): coordinate i has digits [0, size_i), and to_i[d + e] is the
        digit of the sum of digits d and e.  target: the idempotent's digits.
        """
        sizes = [size for size, _ in coords]
        strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
        width = math.prod(sizes)
        full = (1 << width) - 1
        # per coordinate: the (mask, shift) groups of each label digit; twins
        # move every digit alike, and share one list of groups
        groups = []
        for i, (stride, (size, to)) in enumerate(zip(strides, coords)):
            comb = full // ((1 << stride * size) - 1)
            by_row: dict[tuple[int, ...], list[tuple[int, int]]] = {}
            by_digit = {}
            for e in {ds[i] for ds in digits}:
                row = tuple(to[e:e + size])  # the digit each digit d moves to
                if row not in by_row:
                    by_shift: dict[int, list[int]] = {}
                    for d, f in enumerate(row):
                        by_shift.setdefault((f - d) * stride, []).append(d)
                    by_row[row] = [(_digit_mask(ds, stride, comb), shift)
                                   for shift, ds in by_shift.items()]
                by_digit[e] = by_row[row]
            groups.append(by_digit)

        pos = [sum(d * st for d, st in zip(ds, strides)) for ds in digits]
        up, down = [None] * width, [None] * width
        made = {}  # (up, down) by the groups they come from: twins share them
        pieces: dict[tuple[int, int], tuple[int, int]] = {}  # equal pieces, one object
        for p, ds in zip(pos, digits):
            parts = [g[d] for g, d in zip(groups, ds)]
            key = tuple(map(id, parts))
            both = made.get(key)
            if both is None:
                merged: dict[int, int] = {}
                for combo in itertools.product(*parts):
                    mask, shift = -1, 0
                    for m, sh in combo:
                        mask &= m
                        shift += sh
                    merged[shift] = merged.get(shift, 0) | mask
                # a zero shift only re-adds elements already in the set; each
                # mask is shifted onto the elements its piece moves onto
                ups, downs = [], []
                for sh, m in merged.items():
                    if sh > 0:
                        q = (m << sh, sh)
                        ups.append(pieces.setdefault(q, q))
                    elif sh < 0:
                        q = (m >> -sh, -sh)
                        downs.append(pieces.setdefault(q, q))
                both = made[key] = (tuple(ups), tuple(downs))
            up[p], down[p] = both
        # tail: the labels at or after each position, summed from the end;
        # owned: every label's bit, marks read as a binary numeral
        marks = [0] * (width + 1)
        for p in pos:
            marks[p] = 1
        tail = list(itertools.accumulate(reversed(marks)))[::-1]
        owned = int("".join(map(str, reversed(marks))), 2)
        root = 1 << sum(d * st for d, st in zip(target, strides))
        return cls(tuple(labels), width, root, pos, owned, tail, up, down)

    @classmethod
    def for_spec(cls, s: ProductSpec, alphabet: Sequence[Element] | None = None) -> "ReachEngine":
        caps = s.caps  # a property that builds a new tuple at each read
        if alphabet is None:
            alphabet = [a for a in s.elements() if a != caps]
        labels = sorted(set(alphabet))  # one bit per label: a repeat would share it
        # digits d and e stand for indices d + 1 and e + 1, summing to d + e + 2
        coords = [(c.size, [_capped(cap, c.n, v + 2) - 1 for v in range(2 * c.size - 1)])
                  for c, cap in zip(s.coords, caps)]
        return cls._build(labels, [tuple(v - 1 for v in a) for a in labels], coords,
                          [cap - 1 for cap in caps])

    @classmethod
    def for_group(cls, g: GroupSpec) -> "ReachEngine":
        """Engine over the nonzero residues in residue order, label ai at bit
        ai + 1 and the zero sum at bit 0."""
        zero = (0,) * len(g.periods)
        labels = [a for a in g.elements() if a != zero]
        return cls._build(labels, labels, [(n, [v % n for v in range(2 * n - 1)])
                                           for n in g.periods], zero)

    def step(self, forbidden: int, ai: int) -> int | None:
        """Forbidden set after appending alphabet element ai, or None if ai
        is forbidden: it would make the idempotent reachable."""
        p = self.pos[ai]
        if forbidden >> p & 1:
            return None
        out = forbidden
        for m, sh in self.up[p]:
            out |= (forbidden & m) >> sh
        for m, sh in self.down[p]:
            out |= (forbidden & m) << sh
        return out


# The fewest nodes a subtree of the longest-extension search must count to
# be recorded: smaller ones are cheaper to walk again than to keep.
# Recording every subtree there raised the peak RSS of the deep_search
# benchmark from 26.3 to 29.3 MB and moved its wall time by under 5%; the
# existence probes and the enumeration record every subtree they walk in
# full.
_RECORD_NODES = 64

# A depth no free extension reaches: the longest-extension search walks
# every subtree in full.
_UNREACHED = sys.maxsize


def search_free(engine: ReachEngine, meter: SearchMeter, length: int | None = None,
                forbidden: int = 0, start: int = 0, on_free=None) -> bool | list[int]:
    """Depth-first search over the non-decreasing free extensions of a
    sequence with forbidden set `forbidden` (ReachEngine.step; 0 or
    engine.root for the empty sequence) by alphabet elements from index
    `start` on.

    With a length (>= 1): does a free extension by that many elements
    exist?  It stops at the first.  With on_free: visit every free
    extension, calling on_free(stack) at each (stack: the alphabet indices
    added, reused); returns True.  With neither: the alphabet indices of the
    first longest free extension in depth-first order.

    A node's live labels are a bitset, those from its own on that its
    forbidden set does not hold, visited lowest bit first (alphabet order).
    Forbidden sets grow along a path, so child b's live labels are its
    parent's from b on less its own forbidden set.  Nodes are counted as the
    search that tries one label at a time counts them: a node entered at
    bit position p costs tail[p], or tail[p] - tail[q] + 1 if it stops at a
    hit at position q, so positions no label owns cost nothing.  The count
    is handed to the meter when it reaches meter.next_check() and at the end.

    One walker runs all three: it returns a node's depth, the length of its
    longest free extension, or left, the length still asked, as soon as it
    reaches it.  Each node takes one path: with one element left it returns
    at its first live label, the hit; any other, the root included, is read
    off its record (below) or walks its live labels.  A node's own attempts
    are counted when it returns, so the running count may lag, but the
    totals and budget verdicts are those above.  A probe that fails has
    walked its subtree in full, so its count is the full subtree's,
    whatever length was asked.  on_free makes the walker report instead of
    stop: it returns care, an int or None (0), and free nodes at depth <=
    care (stack length) can no longer change what it finds.  A node's left
    is then care - depth + 1, moved whenever care moves, so a node whose
    record shows its subtree lies within care is counted from it, neither
    walked nor reported, as a failing probe's is; any other is reported on
    entry and walked in full, with no hit and no one-element stop.  A leaf
    is reported only past care.  A walked node is reported before anything
    below it, so a reported stack's prefix, unless empty, was the last stack
    reported at its depth: a watch may keep its state per depth.

    A node's live labels follow from its forbidden set F and its start, and
    so do its children's forbidden sets, so its subtree depends only on F
    and start, and the live labels of one F, in order, are suffixes of one
    list.  So a node walked in full records under F its children's node
    counts and depths, in live order, and a later node with the same F,
    whatever its reach set, with no more live labels than the record has
    children is read off the record's last ones: it fails at left elements
    exactly when the greatest of their depths is below left, and then costs
    tail[p] plus their counts, not searched again.  Otherwise it is walked,
    and reaches left.  The longest search records only subtrees of
    _RECORD_NODES or more nodes, the others every node they walk in full.
    The records are the engine's (ReachEngine.records), shared by every
    search over it, one per forbidden set (in C(3;1), [2] and [1, 1] share
    one): a record is written once and never replaced, and all take at
    most config.SEARCH_MEMO_ENTRIES entries.  The longest search finds
    its witness by walking again as an existence search of the longest
    length, uncounted and unmetered: it reads the records, and its first
    hit is the first longest extension in depth-first order, whose elements
    it collects on the way back up.
    """
    up, down, tail = engine.up, engine.down, engine.tail
    records = engine.records
    n = len(engine.labels)  # n - tail[p] is the alphabet index of the label at p
    count = meter.nodes
    mark = meter.next_check()
    stack: list[int] = []
    hit: list[int] = []  # a hit's alphabet indices, deepest first
    key_cost = 1 + engine.num_states // 256  # the entries a record takes beside its figures
    # the fewest nodes a record counts
    least = _RECORD_NODES if length is None and on_free is None else 0

    def settle():
        nonlocal mark
        meter.tick(count - meter.nodes)
        mark = meter.next_check()

    def walk(F, live, start, left):
        # the depth of a node at bit position start with live labels live
        # (not empty), or left (>= 1) as soon as it reaches left; with
        # on_free, which it never stops for, left is care - depth + 1
        nonlocal count, room, care
        if left == 1 and on_free is None:  # the first live label is the hit
            c = (live & -live).bit_length() - 1
            count += tail[start] - tail[c] + 1
            hit.append(n - tail[c])
            return 1
        known = records.get(F)
        if known is not None:
            k = live.bit_count()
            if 2 * k <= len(known):
                depth = max(known[-k:])
                if depth < left:  # it fails: count it from its record
                    half = len(known) >> 1
                    count += tail[start] + sum(known[half - k:half])
                    if count >= mark:
                        settle()
                    return depth
        entered = count
        rest = left - 1  # what a child has left
        if stack:  # a free node below the root, reported on entry
            was = care
            care = on_free(stack) or 0
            rest += care - was
        sizes, depths = [], []  # per child, in live order
        deepest = 1  # the greatest of depths
        while live:
            low = live & -live
            b = low.bit_length() - 1
            out = F
            for m, sh in up[b]:
                out |= (F & m) >> sh
            for m, sh in down[b]:
                out |= (F & m) << sh
            kids = live ^ (live & out)
            live ^= low
            if not kids:  # the child rejects every label from b on
                if rest <= 0:  # a leaf deeper than care, reported
                    stack.append(n - tail[b])
                    was = care
                    care = on_free(stack) or 0
                    rest += care - was
                    stack.pop()
                count += tail[b]
                sizes.append(tail[b])
                depths.append(1)
                continue
            if count >= mark:
                settle()
            before = count
            if on_free is None:
                depth = walk(out, kids, b, rest)
                if depth == rest:
                    count += tail[start] - tail[b] + 1
                    hit.append(n - tail[b])
                    return left
            else:
                stack.append(n - tail[b])
                was = care
                depth = walk(out, kids, b, rest)
                rest += care - was
                stack.pop()
            sizes.append(count - before)
            depths.append(1 + depth)
            if depth >= deepest:
                deepest = 1 + depth
        count += tail[start]
        if count >= mark:
            settle()
        # a record holds its children's node counts, then their depths; a
        # forbidden set keeps its first record
        cost = key_cost + 2 * len(sizes)
        if known is None and count - entered >= least and cost <= room:
            room -= cost
            sizes += depths
            records[F] = sizes
        return deepest

    F = forbidden | engine.root
    result = True
    at = engine.pos[start] if start < n else engine.num_states  # start's bit position
    live = engine.owned >> at << at & ~F
    room = engine.room
    care = 0  # on_free's last answer; None reads as 0, the unreported root's depth
    try:
        if not live:  # the node tries every label from start on
            count += tail[at]
            if on_free is None:
                result = [] if length is None else False
        elif on_free is not None:
            walk(F, live, at, 1)  # the root's left: care - 0 + 1
        elif length is None:
            depth = walk(F, live, at, _UNREACHED)
            # the witness: walk again to the first extension of that length,
            # reading the records, uncounted and unmetered
            counted, mark = count, _UNREACHED
            walk(F, live, at, depth)
            count = counted
            result = hit[::-1]
        else:
            result = walk(F, live, at, length) == length
    finally:
        # The recursive closure refers to itself, and the cycle holds
        # the engine's lists; break it, so that they are freed on return
        # and not at some later cycle collection.
        walk = None
        engine.room = room
    # a hit returns without a check; this one settles it
    meter.tick(count - meter.nodes)
    return result
