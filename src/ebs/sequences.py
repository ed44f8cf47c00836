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
by the element's bit position plus one offset the whole engine shares,
and the padding is filled again by one masked multiply per coordinate.
One depth-first walker, search_free, runs every exhaustive search
on it in one of two modes.  The Erdos-Burgess existence probes stop at the
first free extension of a length.  The enumeration reports the free nodes
to a callback, on_free, that returns the depth it no longer needs: the
lhat/l searches of the structure module (arity 1), and the Davenport
search for the longest free extension, whose callback keeps the first
stack longer than the longest so far.  A node's live labels are one bitset
too: a child's are its parent's from its own bit on, less its own
forbidden set.  The nodes of the plain one-candidate-at-a-time search are
counted by arithmetic and metered in batches after one clock read for the
setup.  The searches over an engine share one memo, one record per
forbidden set, and every node takes one path: an existence node with one
element left stops at its first live label; any other is counted from the
record of its forbidden set, if that record shows it cannot reach the
depth still asked (or the callback still needs), or walks its live labels
in one loop.  Every subtree walked in full, in either mode, is recorded
while the memo has room.  A record holds its children's node counts and
depths, so the counts are the full search's.

The one-shot predicates read one walk, _walk, over the capped states of a
sequence's subsequence sums, held as slices (_Slices).  The coordinate of
smallest cap is dense when that cap is at most _Slices.DENSE_CAP: a slice
holds one int bitmask of its capped totals, and is keyed by the capped
totals of the other coordinates, which step by per-term lookup rows
holding the capped x + v of each index x.  A mask steps by one shift, and
the totals past the dense cap fold back onto their states by OR-ing
period-wide blocks.  When every cap is larger, no coordinate is dense:
every coordinate is in the key and each mask is the one bit 1.  The slices
are a sparse dict, not one bitset over the whole packed space: the dict
grows with the keys actually reached (at most 2^len - 1), and a mask has at
most DENSE_CAP + 1 bits, so a slice costs at most a few words more than
the one tuple per state it replaces (12 terms over C(100;100)^3 reach at
most 4,095 of its 1,000,000 states, in at most 4,095 masks of 101 bits;
C(10^9;1) walks one-bit masks, not masks of 10^9 bits).
"""

from __future__ import annotations

import math
from operator import getitem, mul
from typing import Iterable, Sequence

from .config import DEFAULT_STATE_CAP, SEARCH_MEMO_ENTRIES, SearchMeter, _Frozen
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


class Seq(_Frozen):
    """A multiset of semigroup elements or group residue vectors, sorted."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Element, ...]):
        super().__init__(tuple(sorted(_as_term(t) for t in terms)))

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


class _Slices:
    """The layout of one walk's states over s.  The dense coordinate d has
    the smallest cap (the first, if several tie), if that cap is at most
    DENSE_CAP; a slice is keyed by the capped totals of the other
    coordinates and holds one int bitmask of d's capped totals [0, cap_d].
    A key steps by the other coordinates' rows (_Row), a mask by one shift,
    folding the totals past cap_d back onto their states.  With no dense
    coordinate (d is None), every coordinate is in the key and a mask is
    the one bit of a dense total that is always 0."""

    # the widest mask: 257 bits, a few words, so a slice that holds one
    # state costs about what the tuple of one state would
    DENSE_CAP = 256

    __slots__ = ("s", "d", "cap", "n", "full", "others", "rows", "target")

    def __init__(self, s: ProductSpec):
        caps = s.caps
        self.s = s
        d = caps.index(min(caps))
        if caps[d] <= self.DENSE_CAP:
            self.d, self.cap, self.n = d, caps[d], s.coords[d].n
        else:
            self.d, self.cap, self.n = None, 0, 1
        self.full = (2 << self.cap) - 1
        self.others = [i for i in range(len(caps)) if i != self.d]
        self.rows: list[dict[int, _Row]] = [{} for _ in self.others]  # by value
        self.target = tuple(caps[i] for i in self.others)

    def holds(self, slices, key: tuple[int, ...], bit: int) -> bool:
        return slices.get(key, 0) >> bit & 1 == 1

    def holds_target(self, slices) -> bool:
        return self.holds(slices, self.target, self.cap)

    def _step(self, term) -> tuple[list[_Row], int]:
        """The rows that step a key by term, and the shift of d's total."""
        step = []
        for i, by_value in zip(self.others, self.rows):
            v = term[i]
            row = by_value.get(v)
            if row is None:
                c = self.s.coords[i]
                row = by_value[v] = _Row(c.cap, c.n, v)
            step.append(row)
        if self.d is None:
            return step, 0
        return step, _capped(self.cap, self.n, term[self.d])

    def add(self, src, into, term) -> int:
        """OR each state of the slices src, plus term, into the slices into;
        return the number of states new to into."""
        step, v = self._step(term)
        cap, n, full = self.cap, self.n, self.full
        base = cap - n + 1
        added = 0
        for key, m in src.items():
            q = tuple(map(getitem, step, key))
            m <<= v
            if m > full:
                # a total y in (cap, 2 cap] has the state base + (y - cap - 1) % n:
                # OR the n-bit blocks above cap together, halving, and place them
                hi = m >> cap + 1
                while hi >> n:
                    w = ((hi.bit_length() + n - 1) // n + 1) // 2 * n
                    hi = hi & (1 << w) - 1 | hi >> w
                m = m & full | hi << base
            old = into.get(q, 0)
            m &= ~old
            if m:
                into[q] = old | m
                added += m.bit_count()
        return added

    def source(self, src, term, key: tuple[int, ...], bit: int) -> tuple[tuple[int, ...], int]:
        """A state of the slices src that term steps onto (key, bit)."""
        step, v = self._step(term)
        for p, m in src.items():
            if tuple(map(getitem, step, p)) != key:
                continue
            while m:
                low = m & -m
                b = low.bit_length() - 1
                if _capped(self.cap, self.n, b + v) == bit:
                    return p, b
                m ^= low
        raise RuntimeError(f"internal error: no state steps onto {key}, {bit}")


def _walk(s: ProductSpec, t: Seq, state_cap: int, keep: bool = False):
    """Walk the capped subset-sum states of t one term at a time.

    Returns (layout, before, hit).  hit is the position of the first term
    at which the idempotent is reachable, or None.  With keep, before[j]
    holds the slices (see _Slices) of the states reached before term j, the
    empty sum included, up to the hit; without it, before is empty.  The
    walk stops after the hit, before it checks the state cap.  The states
    counted against state_cap are those reached, the empty sum included."""
    layout = _Slices(s)
    slices = {(0,) * len(layout.others): 1}  # the empty sum
    before = []
    reached = 1
    for pos, term in enumerate(t.terms):
        check_element(s, term)
        # the states before this term, so that it is added at most once
        prev = slices.copy()
        if keep:
            before.append(prev)
        reached += layout.add(prev, slices, term)
        if layout.holds_target(slices):
            return layout, before, pos
        if reached > state_cap + 1:
            raise BudgetExceeded(f"reach state cap {state_cap} exceeded")
    return layout, before, None


def is_idempotent_sum_free(s: ProductSpec, t: Seq, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff no nonempty subsequence sums to the idempotent.  The empty
    sequence is free by convention."""
    return _walk(s, t, state_cap)[2] is None


def is_minimal_idempotent_sum(s: ProductSpec, t: Seq, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff t is an idempotent sum and no proper nonempty subsequence is:
    the idempotent is first reachable at the last term, and is no sum of a
    proper subsequence there.

    The sums of proper subsequences of the first j + 1 terms are those of
    the first j terms (before[j]) and the proper ones of the first j, plus
    term j; the empty subsequence of one term is proper."""
    if t.is_empty:
        raise SpecError("the empty sequence has no sum")
    if not is_idempotent_sum(s, t):
        return False
    layout, before, hit = _walk(s, t, state_cap, True)
    if hit != len(t) - 1:
        return False
    proper: dict[tuple[int, ...], int] = {}
    for slices, term in zip(before, t.terms):
        stepped = slices.copy()
        layout.add(proper, stepped, term)
        proper = stepped
    return not layout.holds_target(proper)


def idempotent_witness(s: ProductSpec, t: Seq, state_cap: int = DEFAULT_STATE_CAP) -> Seq | None:
    """Some nonempty subsequence summing to the idempotent, or None.

    Walks back from the idempotent at the hit term: a state already
    reached before term j skips t_j; any other is reached by t_j from a
    state before it, which the walk back continues from, down to the empty
    sum.
    """
    layout, before, hit = _walk(s, t, state_cap, True)
    if hit is None:
        return None
    picked = []
    key, bit = layout.target, layout.cap
    for j in range(hit, -1, -1):
        if not layout.holds(before[j], key, bit):
            key, bit = layout.source(before[j], t.terms[j], key, bit)
            picked.append(t.terms[j])
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
    to digit d + e + 1, and 0 in a group; 0 for a one-element coordinate,
    whose sums all cap to its one state), and mixed-radix packing over the
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
    its capped state does: F - b is F >> (p + off) on the window, p the
    bit of b and off the bit of the digits (o_1, ..., o_r), 0 in a group,
    so that p + off is the bit of b's digits plus o_i each.  A list indexed
    by bit position holds tail[p], the labels at or after position p (0
    past the window), from which the search counts its nodes.  No table
    of pairs is needed: a child's live labels are its parent's, from its
    own on, less the child's F.

    records holds the memo that every search over the engine shares, one
    record per forbidden set of a subtree walked in full, keyed by its
    window, and room the entries it may still take (see search_free).
    """

    __slots__ = ("labels", "num_states", "width", "win", "ext", "root", "pos", "owned",
                 "tail", "off", "records", "room")

    @classmethod
    def _build(cls, labels, coords, lift, target) -> "ReachEngine":
        """Engine over `labels`, taken as they are: distinct elements in
        increasing packed order, a value in coordinate i being its digit plus
        lift.  coords[i] = (size_i, n_i, o_i): digits [0, size_i), whose
        states repeat with period n_i from digit size_i - n_i on, and digits
        d and e sum to digit d + e + o_i before capping.  target: the
        idempotent.  A label's bit is its values dotted with the strides,
        less lift times their sum."""
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
        base = lift * sum(strides)
        self.pos = pos = [sum(map(mul, a, strides)) - base for a in self.labels]
        self.off = sum(o * st for (_, _, o), st in zip(coords, strides))
        # tail: n - i labels at or after each bit up to label i's; owned: their bits
        tail, n, marks = [], len(pos), bytearray(win.bit_length() // 8 + 1)
        for i, p in enumerate(pos):
            tail += [n - i] * (p + 1 - len(tail))
            marks[p >> 3] |= 1 << (p & 7)
        self.tail = tail + [0] * (win.bit_length() + 1 - len(tail))
        self.owned = int.from_bytes(marks, "little")
        self.root = self.extend(1 << sum(map(mul, target, strides)) - base)
        self.records: dict[int, list[int]] = {}
        self.room = SEARCH_MEMO_ENTRIES
        return self

    @classmethod
    def for_spec(cls, s: ProductSpec, alphabet: Sequence[Element] | None = None) -> "ReachEngine":
        caps = s.caps  # a property that builds a new tuple at each read
        # the default alphabet comes in packed order; an explicit one is
        # sorted, one bit per label (a repeat would share it)
        labels = ([a for a in s.elements() if a != caps] if alphabet is None
                  else sorted(set(alphabet)))
        return cls._build(labels, [(c.size, c.n, int(c.size > 1)) for c in s.coords], 1, caps)

    @classmethod
    def for_group(cls, g: GroupSpec) -> "ReachEngine":
        """Engine over the nonzero residues in residue order, the zero sum
        at bit 0."""
        zero = (0,) * len(g.periods)
        labels = [a for a in g.elements() if a != zero]
        return cls._build(labels, [(n, n, 0) for n in g.periods], 0, zero)

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
        return self.extend((forbidden | forbidden >> (p + self.off)) & self.win)


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
    first longest free extension in depth-first order, which the
    enumeration finds under a watch that keeps the first stack longer than
    the longest so far and gives up the depth of that longest.

    A node's live labels are a bitset, those from its own on that its
    forbidden set does not hold, visited lowest bit first (alphabet order).
    A node carries its forbidden set's window W (ReachEngine) and, once
    past the record check below, extends it to F.  Forbidden sets grow
    along a path, so child b's live labels are its parent's from b on less
    F - b = F >> off >> b, and its window is W | (F - b) & win.  Nodes are
    counted as the search that tries one label at a time counts them: a
    node entered at bit position p costs tail[p], or tail[p] - tail[q] + 1
    if it stops at a hit at position q, so positions no label owns cost
    nothing.  It reads the clock on entry, so setup counts, and hands the
    count to meter.settle at the mark settle returned, and at the end.

    One walker runs both modes, the probe and the enumeration: it returns a
    node's depth, the length of its longest free extension, or left, the
    length still asked, as soon as it reaches it.  Each node takes one
    path: with one element left it returns at its first live label, the
    hit; any other, the root included, is read off its record (below) or
    walks its live labels.  A node's own attempts are counted when it
    returns, so the running count may lag, but the totals and budget
    verdicts are those above.  A probe that fails has walked its subtree in
    full, so its count is the full subtree's, whatever length was asked.
    on_free makes the walker report instead of stop: it returns care, an
    int or None (0), and free nodes at depth <= care (stack length) can no
    longer change what it finds.  A node's left is then care - depth + 1 (a
    child's: care - len(stack)), so a node whose record shows its subtree
    lies within care is counted from it, neither walked nor reported, as a
    failing probe's is; any other is reported on entry and walked in full,
    with no hit and no one-element stop.  A leaf is reported only past
    care.  A walked node is reported before anything below it, so a
    reported stack's prefix, unless empty, was the last stack reported at
    its depth: a watch may keep its state per depth.

    A node's live labels follow from its forbidden set F and its start, and
    so do its children's forbidden sets, so its subtree depends only on F
    and start, and the live labels of one F, in order, are suffixes of one
    list.  So every node walked in full, in either mode, records under F's
    window its children's node counts and depths, in live order, and a
    later node with the same F, whatever its reach set, with no more live
    labels than the record has children is read off the record's last ones:
    it fails at left elements exactly when the greatest of their depths is
    below left, and then costs tail[p] plus their counts, not searched
    again.  Otherwise it is walked, and reaches left.  The records are the
    engine's (ReachEngine.records), shared by every search over it, one per
    forbidden set (in C(3;1), [2] and [1, 1] share one): a record is
    written once and never replaced, and all take at most
    config.SEARCH_MEMO_ENTRIES entries.
    """
    if length is None and on_free is None:
        best: list[int] = []

        def longest(stack):
            if len(stack) > len(best):
                best[:] = stack
            return len(best)

        search_free(engine, meter, None, forbidden, start, longest)
        return best
    off, tail, win, ext = engine.off, engine.tail, engine.win, engine.ext
    records = engine.records
    n = len(engine.labels)  # n - tail[p] is the alphabet index of the label at p
    meter.check_time()  # the caller's setup counts against the time budget
    count = meter.nodes
    mark = meter.settle(count)
    stack: list[int] = []
    key_cost = 1 + win.bit_length() // 256  # the entries a record takes beside its figures

    def walk(W, live, start, left):
        # the depth of a node with window W at bit position start with live
        # labels live (not empty), or left (>= 1) as soon as it reaches
        # left; with on_free, which it never stops for, left is
        # care - depth + 1
        nonlocal count, room, care, mark
        if left == 1 and on_free is None:  # the first live label is the hit
            c = (live & -live).bit_length() - 1
            count += tail[start] - tail[c] + 1
            return 1
        known = records.get(W)
        if known is not None:
            k = live.bit_count()
            if 2 * k <= len(known):
                depth = max(known[1 - 2 * k::2])
                if depth < left:  # it fails: count it from its record
                    count += tail[start] + sum(known[-2 * k::2])
                    if count >= mark:
                        mark = meter.settle(count)
                    return depth
        rest = left - 1  # what a child has left
        if stack:  # a free node below the root, reported on entry
            care = on_free(stack) or 0
            rest = care - len(stack)
        rec = []  # per child, in live order: its node count, its depth
        deepest = 1  # the greatest of the children's depths
        F = W
        for drop, keep, copies in ext:  # ReachEngine.extend, inline
            F |= (F >> drop & keep) * copies
        F >>= off  # F - b is now F >> b
        while live:
            low = live & -live
            b = low.bit_length() - 1
            t = F >> b  # F - b, on the window
            kids = live & ~t
            live ^= low
            if not kids:  # the child rejects every label from b on
                if rest <= 0:  # a leaf deeper than care, reported
                    stack.append(n - tail[b])
                    care = on_free(stack) or 0
                    stack.pop()
                    rest = care - len(stack)
                count += tail[b]
                rec.append(tail[b])
                rec.append(1)
                continue
            if count >= mark:
                mark = meter.settle(count)
            before = count
            if on_free is None:
                depth = walk(W | t & win, kids, b, rest)
                if depth == rest:
                    count += tail[start] - tail[b] + 1
                    return left
            else:
                stack.append(n - tail[b])
                depth = walk(W | t & win, kids, b, rest)
                stack.pop()
                rest = care - len(stack)
            rec.append(count - before)
            rec.append(1 + depth)
            if depth >= deepest:
                deepest = 1 + depth
        count += tail[start]
        if count >= mark:
            mark = meter.settle(count)
        # a forbidden set keeps its first record
        cost = key_cost + len(rec)
        if known is None and cost <= room:
            room -= cost
            records[W] = rec
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
            result = on_free is not None
        elif on_free is not None:
            walk(W, live, at, 1)  # the root's left: care - 0 + 1
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
