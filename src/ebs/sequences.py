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
complete the idempotent, not its reach set.  Each coordinate's field is
padded with periodic copies of its last period, so a step is one shift,
and the padding is filled again by one masked multiply per coordinate.
One depth-first walker, search_free, runs every exhaustive search
on it: the Erdos-Burgess existence probes, the Davenport search for the
longest free extension, and the lhat/l searches of the structure module
(arity 1), which report the free nodes to a callback, on_free, that returns
the depth it no longer needs.  A node's live labels are one bitset too: a
child's are its parent's from its own bit on, less its own forbidden set.
The nodes of the plain one-candidate-at-a-time search are counted by
arithmetic and metered in batches after one clock read for the setup.  The
searches over an engine share one memo, one record per forbidden set, and
every node takes one path: an existence node with one element left stops at
its first live label; any other is counted from the record of its forbidden
set, if that record shows it cannot reach the depth still asked (or the
callback still needs), or walks its live labels in one loop.  A record holds
its children's node counts and depths, so the counts are the full search's.

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

class ReachEngine:
    """Precomputed bitset translations for exhaustive free-sequence searches.

    Coordinate i of an element of C(k_i;n_i) is a digit in [0, size_i),
    the index less 1, size_i = k_i + n_i - 1; a group packs residues, digit
    r in [0, n_i), size_i = n_i.  Each coordinate owns a field of bits,
    size_i padded by whole periods n_i to at least 2 size_i - 1 + o_i
    (o_i = 1 in a semigroup, whose digits d and e stand for indices summing
    to digit d + e + 1, and 0 in a group), and mixed-radix packing over the
    fields, the last coordinate least significant, gives sorted elements
    increasing bit positions, so a set of elements is one int.  The
    elements own the window, win: num_states = prod(size_i) bits, under
    2^r * prod(cap_i), or |G|, of a padded width.  Label ai owns bit pos[ai]
    (owned: all of them); labels may skip positions, as an explicit
    alphabet does, or the structure engine, which leaves out the idempotent.

    The search carries a sequence's forbidden set F, not its reach set S:
    the elements x with p + x capped to the idempotent (see _capped) for
    some p in S or p the empty sum.  Appending c makes the idempotent
    reachable exactly when c is in F, so F alone decides which elements a
    node rejects.  The empty sequence has F = {idempotent} (root; the zero
    sum in a group), and appending b gives F | (F - b), where F - b holds
    the x with x + b in F.  An element past cap_i is an alias of its capped
    twin (7 of 4 in C(5;3)): they share a state, so every F holds both or
    neither.  Distinct reach sets may share one F: in C(3;1) the free
    sequences [2] and [1, 1] reach {2} and {1, 2}, and both forbid
    {1, 2, 3}.  In a group S -> F is one-to-one.

    From digit size_i - n_i on, a coordinate's states repeat with period
    n_i, so F holds in each field's padding the periodic copies of the last
    n_i digits of the window: extend(W) rebuilds F from its window W = F &
    win with one masked multiply per coordinate.  Then the sum x + b of
    window elements, uncapped, lies inside the fields and in F exactly when
    its capped state does: F - b is F >> shift[p] on the window, p the bit
    of b and shift[p] the position of b's digits plus o_i each.  Lists
    indexed by bit position hold the label's shift there and tail[p], the
    labels at or after position p (0 past the window), from which the
    search counts its nodes.  No table of pairs is needed: a child's live
    labels are its parent's, from its own on, less the child's F.

    records holds the memo that every search over the engine shares, one
    record per forbidden set of a subtree walked in full, keyed by its
    window, and room the entries it may still take (see search_free).
    """

    __slots__ = ("labels", "num_states", "width", "win", "ext", "root", "pos", "owned",
                 "tail", "shift", "records", "room")

    @classmethod
    def _build(cls, labels, digits, coords, target) -> "ReachEngine":
        """Engine over `labels`, whose element digits are `digits` (one tuple
        per label, in increasing packed order), with coords[i] = (size_i,
        n_i, o_i): coordinate i has digits [0, size_i), whose states repeat
        with period n_i from digit size_i - n_i on, and the digits d and e
        sum to digit d + e + o_i before capping.  target: the idempotent's
        digits.
        """
        self = cls.__new__(cls)
        fields = [size + n * -(-(size - 1 + o) // n) for size, n, o in coords]
        strides = [math.prod(fields[i + 1:]) for i in range(len(fields))]
        self.width = width = math.prod(fields)
        self.num_states = math.prod(size for size, _, _ in coords)
        # the window and, per coordinate, the extension: shift the last n
        # digits down to digit 0, keep digits [0, n), and copy them onto
        # each period of the padding with one product (the copies are
        # disjoint, so it has no carries)
        win, ext = 1, []
        for (size, n, _), field, stride in zip(coords, fields, strides):
            win *= ((1 << size * stride) - 1) // ((1 << stride) - 1)
            keep = ((1 << width) - 1) // ((1 << field * stride) - 1) * ((1 << n * stride) - 1)
            copies = sum(1 << d * stride for d in range(size, field, n))
            if copies:
                ext.append(((size - n) * stride, keep, copies))
        self.win, self.ext = win, tuple(ext)
        self.labels = tuple(labels)  # alphabet, in search order
        self.pos = [sum(d * st for d, st in zip(ds, strides)) for ds in digits]
        span = win.bit_length()
        self.shift = [0] * span
        for p, ds in zip(self.pos, digits):
            self.shift[p] = sum((d + o) * st for d, (_, _, o), st in zip(ds, coords, strides))
        # tail: the labels at or after each position, summed from the end;
        # owned: every label's bit, marks read as a binary numeral
        marks = [0] * (span + 1)
        for p in self.pos:
            marks[p] = 1
        self.tail = list(itertools.accumulate(reversed(marks)))[::-1]
        self.owned = int("".join(map(str, reversed(marks))), 2)
        self.root = self.extend(1 << sum(d * st for d, st in zip(target, strides)))
        self.records: dict[int, list[int]] = {}
        self.room = SEARCH_MEMO_ENTRIES
        return self

    @classmethod
    def for_spec(cls, s: ProductSpec, alphabet: Sequence[Element] | None = None) -> "ReachEngine":
        caps = s.caps  # a property that builds a new tuple at each read
        if alphabet is None:
            alphabet = [a for a in s.elements() if a != caps]
        labels = sorted(set(alphabet))  # one bit per label: a repeat would share it
        return cls._build(labels, [tuple(v - 1 for v in a) for a in labels],
                          [(c.size, c.n, 1) for c in s.coords], [cap - 1 for cap in caps])

    @classmethod
    def for_group(cls, g: GroupSpec) -> "ReachEngine":
        """Engine over the nonzero residues in residue order, the zero sum
        at bit 0."""
        zero = (0,) * len(g.periods)
        labels = [a for a in g.elements() if a != zero]
        return cls._build(labels, labels, [(n, n, 0) for n in g.periods], zero)

    def extend(self, window: int) -> int:
        """The forbidden set whose window is `window`: its padding filled."""
        for drop, keep, copies in self.ext:
            window |= (window >> drop & keep) * copies
        return window

    def step(self, forbidden: int, ai: int) -> int | None:
        """Forbidden set after appending alphabet element ai, or None if ai
        is forbidden: it would make the idempotent reachable."""
        p = self.pos[ai]
        if forbidden >> p & 1:
            return None
        return self.extend((forbidden | forbidden >> self.shift[p]) & self.win)


# The fewest nodes a subtree of the longest-extension search must count to
# be recorded: smaller ones are cheaper to walk again than to keep.
# Recording every subtree there took davenport((2, 2, 10), "brute") from
# 34.1 to 43.2 MB peak RSS, slower in 3 of 3 runs, and the deep_search
# benchmark from 27.5 to 27.7 MB, 5% faster (2-CPU Xeon, Python 3.11).
# The existence probes and the enumeration record each subtree walked in full.
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
    A node carries its forbidden set's window W (ReachEngine) and, once
    past the record check below, extends it to F.  Forbidden sets grow
    along a path, so child b's live labels are its parent's from b on less
    F - b = F >> shift[b], and its window is W | (F - b) & win.  Nodes are
    counted as the search that tries one label at a time counts them: a
    node entered at bit position p costs tail[p], or tail[p] - tail[q] + 1
    if it stops at a hit at position q, so positions no label owns cost
    nothing.  It reads the clock on entry, so setup counts, and hands the
    count to meter.settle at the mark settle returned, and at the end.

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
    is then care - depth + 1 (a child's: care - len(stack)), so a node whose
    record shows its subtree lies within care is counted from it, neither
    walked nor reported, as a failing probe's is; any other is reported on
    entry and walked in full, with no hit and no one-element stop.  A leaf
    is reported only past care.  A walked node is reported before anything
    below it, so a reported stack's prefix, unless empty, was the last stack
    reported at its depth: a watch may keep its state per depth.

    A node's live labels follow from its forbidden set F and its start, and
    so do its children's forbidden sets, so its subtree depends only on F
    and start, and the live labels of one F, in order, are suffixes of one
    list.  So a node walked in full records under F's window its
    children's node counts and depths, in live order, and a later node
    with the same F, whatever its reach set, with no more live labels than
    the record has children is read off the record's last ones: it fails
    at left elements exactly when the greatest of their depths is below
    left, and then costs tail[p] plus their counts, not searched again.
    Otherwise it is walked, and reaches left.  The longest search records
    only subtrees of _RECORD_NODES or more nodes, the others every node
    they walk in full.  The records are the engine's (ReachEngine.records),
    shared by every search over it, one per forbidden set (in C(3;1), [2]
    and [1, 1] share one): a record is written once and never replaced,
    and all take at most config.SEARCH_MEMO_ENTRIES entries.  The longest
    search finds its witness by walking again as an existence search of
    the longest length, uncounted and unmetered: it reads the records, and
    its first hit is the first longest extension in depth-first order,
    whose elements it collects on the way back up.
    """
    shift, tail, win, ext = engine.shift, engine.tail, engine.win, engine.ext
    records = engine.records
    n = len(engine.labels)  # n - tail[p] is the alphabet index of the label at p
    meter.check_time()  # the caller's setup counts against the time budget
    count = meter.nodes
    mark = meter.settle(count)
    stack: list[int] = []
    hit: list[int] = []  # a hit's alphabet indices, deepest first
    key_cost = 1 + win.bit_length() // 256  # the entries a record takes beside its figures
    # the fewest nodes a record counts
    least = _RECORD_NODES if length is None and on_free is None else 0

    def walk(W, live, start, left):
        # the depth of a node with window W at bit position start with live
        # labels live (not empty), or left (>= 1) as soon as it reaches
        # left; with on_free, which it never stops for, left is
        # care - depth + 1
        nonlocal count, room, care, mark
        if left == 1 and on_free is None:  # the first live label is the hit
            c = (live & -live).bit_length() - 1
            count += tail[start] - tail[c] + 1
            hit.append(n - tail[c])
            return 1
        known = records.get(W)
        if known is not None:
            k = live.bit_count()
            if 2 * k <= len(known):
                depth = max(known[-k:])
                if depth < left:  # it fails: count it from its record
                    half = len(known) >> 1
                    count += tail[start] + sum(known[half - k:half])
                    if count >= mark:
                        mark = meter.settle(count)
                    return depth
        entered = count
        rest = left - 1  # what a child has left
        if stack:  # a free node below the root, reported on entry
            care = on_free(stack) or 0
            rest = care - len(stack)
        sizes, depths = [], []  # per child, in live order
        deepest = 1  # the greatest of depths
        F = W
        for drop, keep, copies in ext:  # ReachEngine.extend, inline
            F |= (F >> drop & keep) * copies
        while live:
            low = live & -live
            b = low.bit_length() - 1
            t = F >> shift[b]  # F - b, on the window
            kids = live & ~t
            live ^= low
            if not kids:  # the child rejects every label from b on
                if rest <= 0:  # a leaf deeper than care, reported
                    stack.append(n - tail[b])
                    care = on_free(stack) or 0
                    stack.pop()
                    rest = care - len(stack)
                count += tail[b]
                sizes.append(tail[b])
                depths.append(1)
                continue
            if count >= mark:
                mark = meter.settle(count)
            before = count
            if on_free is None:
                depth = walk(W | t & win, kids, b, rest)
                if depth == rest:
                    count += tail[start] - tail[b] + 1
                    hit.append(n - tail[b])
                    return left
            else:
                stack.append(n - tail[b])
                depth = walk(W | t & win, kids, b, rest)
                stack.pop()
                rest = care - len(stack)
            sizes.append(count - before)
            depths.append(1 + depth)
            if depth >= deepest:
                deepest = 1 + depth
        count += tail[start]
        if count >= mark:
            mark = meter.settle(count)
        # a record holds its children's node counts, then their depths; a
        # forbidden set keeps its first record
        cost = key_cost + 2 * len(sizes)
        if known is None and count - entered >= least and cost <= room:
            room -= cost
            sizes += depths
            records[W] = sizes
        return deepest

    W = (forbidden | engine.root) & win
    result = True
    at = engine.pos[start] if start < n else len(tail) - 1  # start's bit position
    live = engine.owned >> at << at & ~W
    room = engine.room
    care = 0  # on_free's last answer; None reads as 0, the unreported root's depth
    try:
        if not live:  # the node tries every label from start on
            count += tail[at]
            if on_free is None:
                result = [] if length is None else False
        elif on_free is not None:
            walk(W, live, at, 1)  # the root's left: care - 0 + 1
        elif length is None:
            depth = walk(W, live, at, _UNREACHED)
            # the witness: walk again to the first extension of that length,
            # reading the records, uncounted and unmetered
            counted, mark = count, _UNREACHED
            walk(W, live, at, depth)
            count = counted
            result = hit[::-1]
        else:
            result = walk(W, live, at, length) == length
    finally:
        # The recursive closure refers to itself, and the cycle holds
        # the engine's lists; break it, so that they are freed on return
        # and not at some later cycle collection.
        walk = None
        engine.room = room
    # a hit returns without a check; this one settles it
    meter.settle(count)
    return result
