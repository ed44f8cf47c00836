"""Behaving sequences, Savchev-Chen decomposition, classification of long
idempotent-sum free sequences over one cyclic semigroup, and the structure
thresholds lhat and l.

A free/minimal sequence over C(k;n) "has structure" when its index values
are, up to a unit multiple mod n in the k <= n regime, a behaving sequence
whose total is capped by (free mode) or exactly equal to (minimal mode) the
idempotent index.  lhat and l are the least lengths beyond which every free,
respectively minimal idempotent-sum, sequence has structure; both have
closed forms with known gaps and exhaustive brute-force counterparts.  Their
results come from config._solve, which flags a gap of the published table;
nothing here imports constants.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from functools import cache

from .config import BRUTE, SUBSET_SUM_BOUND, Budget, ConstResult, SearchMeter, _Frozen, _ms, _solve
from .errors import BudgetExceeded, PreconditionError, SpecError
from .semigroup import CyclicSpec, format_spec
from .sequences import (
    ReachEngine,
    Seq,
    is_idempotent_sum_free,
    is_minimal_idempotent_sum,
    search_free,
)

# the rule tag of the closed forms of lhat and l
THM61 = "THM61"

BEHAVING_I = "BEHAVING_I"
TWO_POWER_II = "TWO_POWER_II"
N2_SPECIAL_III = "N2_SPECIAL_III"
N1_SPLIT_IV = "N1_SPLIT_IV"
N1_TWOS_V = "N1_TWOS_V"
NONE = "NONE"


class IntSeq(_Frozen):
    """A multiset of positive integers, stored sorted."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(sorted(entries))
        for v in entries:
            if not isinstance(v, int) or v < 1:
                raise SpecError(f"entries must be positive integers, got {v!r}")
        super().__init__(entries)

    @classmethod
    def of(cls, *ints: int) -> "IntSeq":
        return cls(tuple(ints))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)


class StructClass(_Frozen):
    """Classification outcome; when present, the witness (c, h) reconstructs
    the classified index values as c*h_i."""

    __slots__ = ("tag", "c", "h", "threshold_met")

    def __init__(self, tag: str, c: int | None = None, h: IntSeq | None = None,
                 threshold_met: bool = False):
        super().__init__(tag, c, h, threshold_met)

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "c": self.c,
            "H": list(self.h.entries) if self.h is not None else None,
            "threshold_met": self.threshold_met,
        }


# ---------------------------------------------------------------------------
# behaving sequences

def _sums_mask(vals) -> int:
    """Bitmask with bit s set iff s is a subset sum (bit 0 always set)."""
    acc = 1
    for v in vals:
        acc |= acc << v
    return acc


def _check_total(h: IntSeq) -> None:
    """The subset-sum bitmask has total + 1 bits: a total past
    SUBSET_SUM_BOUND is an input the structure operations do not take."""
    if h.total > SUBSET_SUM_BOUND:
        raise PreconditionError(f"subset-sum total {h.total} over bound {SUBSET_SUM_BOUND}")


def subset_sums(h: IntSeq) -> frozenset[int]:
    """All nonempty sub-multiset sums, by bitmask dynamic programming."""
    _check_total(h)
    acc = _sums_mask(h.entries)
    return frozenset(s for s in range(1, h.total + 1) if acc >> s & 1)


def is_behaving(h: IntSeq) -> bool:
    """True iff the nonempty subset sums are exactly [1, total]."""
    if len(h) == 0:
        raise PreconditionError("behaving is undefined for the empty sequence")
    _check_total(h)
    return _sums_mask(h.entries) == (2 << h.total) - 1


def behaving_bound_classify(h: IntSeq) -> str:
    """behaving | strict | eq_split | eq_twos.

    Non-behaving sequences have total >= 2*length; equality happens exactly
    for 2^[l] and 1^[l-1]*(l+1).  Anything else below 2*length is an internal
    error.
    """
    if is_behaving(h):
        return "behaving"
    ell = len(h)
    if h.total < 2 * ell:
        raise RuntimeError(f"internal error: non-behaving {h.entries} with total < 2*length")
    if h.total > 2 * ell:
        return "strict"
    if h.entries == (2,) * ell:
        return "eq_twos"
    if h.entries == (1,) * (ell - 1) + (ell + 1,):
        return "eq_split"
    raise RuntimeError(f"internal error: equality case {h.entries} matches neither shape")


# ---------------------------------------------------------------------------
# Savchev-Chen decomposition

@cache
def _units(n: int) -> list[int]:
    if n == 1:
        return [1]
    return [c for c in range(1, n) if math.gcd(c, n) == 1]


def _rows(c: CyclicSpec, vals) -> tuple[Iterable[list[int]], int]:
    """The structure tests' rows over vals, and the most a behaving row may
    total: vals itself, up to cap - 1, for k > n; for k <= n, made as they
    are read, per unit u of Z_n ascending, the least positive residues (in
    [1, n]) of u^{-1} * vals, up to n - 1."""
    if c.k > c.n:
        return [list(vals)], c.cap - 1
    n = c.n
    invs = (pow(u, -1, n) for u in _units(n))
    return ([inv * v % n or n for v in vals] for inv in invs), n - 1


def _grow(state, i: int, limit: int) -> list:
    """A structure state, (row, total, subset-sum mask) per row totalling at
    most limit, after one more value, entry i of each row."""
    out = []
    for row, total, mask in state:
        h = row[i]
        if total + h <= limit:
            out.append((row, total + h, mask | mask << h))
    return out


def _fold(rows, limit: int, upto: int) -> list:
    """The structure state of the first upto entries of the rows, as _grow
    leaves it: a row's total only grows."""
    return [(row, total, _sums_mask(row[:upto]))
            for row in rows if (total := sum(row[:upto])) <= limit]


def _behaves(state) -> bool:
    """Free-mode structure: some row's subset sums fill [0, total]."""
    return any(mask == (2 << total) - 1 for _, total, mask in state)


def _closes(c: CyclicSpec, state, i: int, limit: int) -> bool:
    """Minimal-mode structure of the state's values and entry i: some row
    totals exactly limit + 1, and for k > n its subset sums fill [0, cap]."""
    return any(total > limit and (c.k <= c.n or mask == (2 << total) - 1)
               for _, total, mask in _grow(state, i, limit + 1))


def _residues_of(t) -> list[int]:
    if isinstance(t, Seq):
        for term in t:
            if len(term) != 1:
                raise SpecError("expected a rank-one group sequence")
        return [term[0] for term in t]
    return [int(v) for v in t]


def savchev_chen(n: int, t) -> tuple[int, IntSeq] | None:
    """Decompose t over Z_n as (c * h_i mod n) with gcd(c, n) = 1 and H
    behaving with total <= n - 1.

    Guaranteed to succeed on zero-sum free input of length >= floor(n/2) + 1;
    on other input it is best-effort and may return None.  c is searched
    ascending and h_i is forced to the least positive residue of c^{-1} t_i,
    so the witness is canonical.
    """
    if n < 2:
        raise PreconditionError(f"modulus must be >= 2, got {n}")
    residues = _residues_of(t)
    if not residues:
        return None
    rows, limit = _rows(CyclicSpec(1, n), residues)  # the rows of Z_n
    for u, row in zip(_units(n), rows):
        if _behaves(_fold([row], limit, len(row))):
            return u, IntSeq(tuple(row))
    return None


# ---------------------------------------------------------------------------
# structure predicates over C(k;n)

def _ind_values(c: CyclicSpec, t: Seq) -> list[int]:
    prod = c.as_product()
    vals = []
    for term in t:
        if len(term) != 1:
            raise SpecError("structure operations take sequences over one cyclic semigroup")
        v = term[0]
        if not 1 <= v <= c.size:
            raise SpecError(f"index {v} outside [1, {c.size}] for {format_spec(prod)}")
        vals.append(v)
    return vals


def _structured_free(c: CyclicSpec, vals) -> bool:
    """Free-mode structure: behaving index values with total <= cap - 1 when
    k > n; some unit multiple of the residues behaving with total <= n - 1
    when k <= n."""
    rows, limit = _rows(c, vals)
    return _behaves(_fold(rows, limit, len(vals)))


def _structured_minimal(c: CyclicSpec, vals) -> bool:
    """Minimal-mode structure: behaving index values with total exactly cap
    when k > n; some unit multiple of the residues whose least positive
    residues total exactly n when k <= n."""
    rows, limit = _rows(c, vals)
    return _closes(c, _fold(rows, limit, len(vals) - 1), len(vals) - 1, limit)


def has_structure(c: CyclicSpec, t: Seq, mode: str) -> bool:
    """Does a free (mode="free") or minimal idempotent-sum (mode="minimal")
    sequence admit the behaving-sequence form for its regime?"""
    if t.is_empty:
        raise PreconditionError("structure is undefined for the empty sequence")
    vals = _ind_values(c, t)
    prod = c.as_product()
    if mode == "free":
        if not is_idempotent_sum_free(prod, t):
            raise PreconditionError("free mode requires an idempotent-sum free sequence")
        return _structured_free(c, vals)
    if mode == "minimal":
        if not is_minimal_idempotent_sum(prod, t):
            raise PreconditionError("minimal mode requires a minimal idempotent-sum sequence")
        return _structured_minimal(c, vals)
    raise SpecError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# classification of long free sequences

def classify_threshold(c: CyclicSpec) -> int:
    """Least length at which classification is total: ceil((q+1)n/2 - 1) for
    k > n, floor(n/2) + 1 for k <= n."""
    if c.k > c.n:
        q = c.cap // c.n
        return ((q + 1) * c.n - 1) // 2
    return c.n // 2 + 1


def classify_free_sequence(c: CyclicSpec, t: Seq) -> StructClass:
    """Classify a long idempotent-sum free sequence over C(k;n).

    k > n: exactly one of the five shapes (behaving below cap; all twos at
    odd cap; odd head over twos at n = 2; ones plus (k+1)/2 at n = 1; all
    twos at n = 1).  k <= n: always the behaving class, witnessed by the
    Savchev-Chen decomposition of the residues.  threshold_met reports the
    stricter structure-theorem length floor((q+1)n/2) (k > n).
    """
    vals = _ind_values(c, t)
    prod = c.as_product()
    if not is_idempotent_sum_free(prod, t):
        raise PreconditionError("classification requires an idempotent-sum free sequence")
    min_len = classify_threshold(c)
    if len(t) < min_len:
        raise PreconditionError(
            f"sequence length {len(t)} below classification threshold {min_len}"
        )
    k, n = c.k, c.n
    if k <= n:
        sc = savchev_chen(n, [v % n for v in vals])
        if sc is None:
            raise RuntimeError(
                f"internal error: guaranteed decomposition missing for {vals} mod {n}"
            )
        return StructClass(BEHAVING_I, c=sc[0], h=sc[1], threshold_met=True)

    q = c.cap // c.n
    x2 = (q + 1) * n
    entries = tuple(sorted(vals))
    matches = []
    if _structured_free(c, vals):
        matches.append(BEHAVING_I)
    if n >= 3 and c.cap % 2 == 1 and entries == (2,) * (x2 // 2 - 1):
        matches.append(TWO_POWER_II)
    if (
        n == 2
        and len(entries) == q
        and entries[: q - 1] == (2,) * (q - 1)
        and entries[-1] >= 3
        and entries[-1] % 2 == 1
    ):
        matches.append(N2_SPECIAL_III)
    if n == 1 and k % 2 == 1 and k >= 3 and entries == (1,) * ((k - 3) // 2) + ((k + 1) // 2,):
        matches.append(N1_SPLIT_IV)
    if n == 1 and k % 2 == 1 and entries == (2,) * ((k - 1) // 2):
        matches.append(N1_TWOS_V)
    if len(matches) > 1:
        # the ones-plus-half and all-twos shapes coincide exactly at k = 3
        if not (set(matches) == {N1_SPLIT_IV, N1_TWOS_V} and k == 3):
            raise RuntimeError(f"internal error: overlapping classes {matches} for {entries}")
    met = len(t) >= x2 // 2
    if not matches:
        return StructClass(NONE, threshold_met=met)
    return StructClass(matches[0], c=1, h=IntSeq(entries), threshold_met=met)


# ---------------------------------------------------------------------------
# lhat and l

def _search_engine(c: CyclicSpec) -> tuple[list[int], ReachEngine]:
    """Index values enumerated by the brute searches, ascending, and their
    arity-1 engine (one bit per element, k + n - 1).

    For k <= n freeness and both structure predicates depend on residues
    only, so one representative per nonzero residue class suffices; for
    k > n magnitudes matter and every non-idempotent element is used.
    """
    if c.k <= c.n:
        alphabet = list(range(1, c.n))
    else:
        alphabet = [v for v in range(1, c.size + 1) if v != c.cap]
    return alphabet, ReachEngine.for_spec(c.as_product(), [(a,) for a in alphabet])


def _lhat_formula(c: CyclicSpec) -> tuple[int | None, int, int]:
    k, n = c.k, c.n
    if k <= n:
        if n == 1:
            return 0, 0, 0
        if n in (2, 3):
            return 1, 1, 1
        if n == 4:
            return 2, 2, 2
        v = n // 2 + 1
        return v, v, v
    q = c.cap // n
    x2 = (q + 1) * n
    if n >= 3 and c.cap % 2 == 0:
        return None, c.cap // 2 + 1, (x2 + 1) // 2 - 1
    v = x2 // 2
    return v, v, v


def _l_formula(c: CyclicSpec) -> tuple[int | None, int, int]:
    k, n = c.k, c.n
    if k <= n:
        if n == 6:
            return 5, 5, 5
        if n >= 8:
            v = n // 2 + 2
            return v, v, v
        return 1, 1, 1
    q = c.cap // n
    x2 = (q + 1) * n
    ceil_x = (x2 + 1) // 2
    if n >= 3 and c.cap % 2 == 0:
        return None, c.cap // 2 + 1, ceil_x
    if n == 2:
        return None, ceil_x - 1, ceil_x
    v = x2 // 2 + 1
    return v, v, v


def _lhat_watch(c: CyclicSpec, alphabet: list[int]):
    """The on_free callback of the lhat search, and a function that reads
    lhat off the finished walk: the max length of a free sequence without
    free-mode structure, plus one; 1 when every free sequence is
    structured, 0 for the trivial semigroup.

    states[j] is the structure state (_grow) of stack[:j], grown when first
    needed.  The walker reports a node before anything below it, so a
    report at depth d drops only earlier stacks' states, at d and deeper.

    on_free returns worst, the longest unstructured length so far: a free
    sequence no longer than that cannot raise it."""
    rows, limit = _rows(c, alphabet)
    states = [_fold(rows, limit, 0)]
    worst = 0

    def on_free(stack: list[int]) -> int:
        nonlocal worst
        d = len(stack)
        del states[d:]
        if d > worst:
            for i in stack[len(states) - 1:]:
                states.append(_grow(states[-1], i, limit))
            if not _behaves(states[d]):
                worst = d
        return worst

    return on_free, lambda: worst + 1 if worst or c.size > 1 else 0


def _l_watch(c: CyclicSpec, alphabet: list[int]):
    """The on_free callback of the l search, and a function that reads l
    off the finished walk: the max length of a minimal idempotent-sum
    sequence without minimal-mode structure, plus one; at least 1.

    A minimal sequence is a free prefix extended by one final element a at
    least as large; the idempotent singleton is the only minimal sequence
    containing the idempotent and is checked separately.  Over index
    values, with total the sum of the prefix and T = total + a:

    - Candidates by arithmetic: prefix + [a] sums to the idempotent exactly
      when T >= cap and T = 0 (mod n), so a runs from max(last term,
      cap - total) up to the largest alphabet value in steps of n.  (At the
      root no single value qualifies.)
    - Minimality by one subset-sum bitmask: the prefix is free, so a proper
      idempotent-sum subsequence must keep a and leave out a nonempty part V
      of the prefix, and T - sum(V) is idempotent iff sum(V) = 0 (mod n) and
      sum(V) <= T - cap.  So the candidate is minimal iff T - cap is below
      the least positive multiple of n among the prefix's subset sums, all
      below cap (the prefix is free): one AND with a comb finds it.  This
      also drops a = cap, the one value the alphabet skips: V = the whole
      prefix leaves the idempotent alone.
    - Structure by the prefix's structure state and a (_closes).  It keeps
      each prefix's total, subset-sum bitmask and state as _lhat_watch does.

    on_free returns worst - 1: a prefix shorter than worst makes a minimal
    sequence no longer than worst, so it cannot raise it.
    """
    cap, n = c.cap, c.n
    top = alphabet[-1] if alphabet else 0
    rows, limit = _rows(c, alphabet)
    worst = 0 if _structured_minimal(c, [cap]) else 1
    comb = sum(1 << m for m in range(n, cap, n))
    prefixes = [(0, 1, _fold(rows, limit, 0))]

    def on_free(stack: list[int]) -> int:
        nonlocal worst
        d = len(stack)
        del prefixes[d:]
        # only an idempotent sum longer than the worst so far matters
        if d < worst:
            return worst - 1
        for i in stack[len(prefixes) - 1:]:  # the last is stack[-1]
            total, reach, state = prefixes[-1]
            v = alphabet[i]
            prefixes.append((total + v, reach | reach << v, _grow(state, i, limit)))
        total, reach, state = prefixes[d]
        lo = max(v, cap - total)
        zero = reach & comb  # subset sums = 0 (mod n): T - cap must stay below the least
        hi = min(top, (zero & -zero).bit_length() - 2 + cap - total) if zero else top
        for a in range(lo + (-total - lo) % n, hi + 1, n):
            if not _closes(c, state, a - 1 - (a > cap), limit):  # a's alphabet index
                worst = d + 1
                break
        return worst - 1

    return on_free, lambda: worst + 1


def _brute_walk(c: CyclicSpec, budget: Budget, kinds) -> tuple[list[int], int]:
    """Brute values from one walk over the free sequences, one per watch
    kind (_lhat_watch, _l_watch) in the order given, and the nodes
    searched.  With several watches, on_free returns the least depth they
    return: a node matters while one of them needs it."""
    meter = SearchMeter(budget)
    meter.check_states(c.cap)
    alphabet, engine = _search_engine(c)
    watches = [kind(c, alphabet) for kind in kinds]
    if len(watches) == 1:
        on_free = watches[0][0]
    else:
        def on_free(stack: list[int]) -> int:
            return min([watch(stack) for watch, _ in watches])

    search_free(engine, meter, on_free=on_free)
    return [value() for _, value in watches], meter.nodes


def _structure_const(c: CyclicSpec, quantity: str, method: str, budget: Budget) -> ConstResult:
    table, watch = ((_lhat_formula, _lhat_watch) if quantity == "lhat"
                    else (_l_formula, _l_watch))

    def formula(budget: Budget) -> ConstResult:
        t0 = time.monotonic()
        return ConstResult(quantity, *table(c), THM61, "formula", elapsed_ms=_ms(t0))

    def brute(budget: Budget) -> ConstResult:
        t0 = time.monotonic()
        (value,), nodes = _brute_walk(c, budget, (watch,))
        return ConstResult(quantity, value, value, value, BRUTE, "brute",
                           nodes=nodes, elapsed_ms=_ms(t0))

    return _solve(quantity, method, budget, formula, brute)


def lhat(c: CyclicSpec, method: str = "formula", budget: Budget = Budget()) -> ConstResult:
    """Least length beyond which every idempotent-sum free sequence over
    C(k;n) has free-mode structure."""
    return _structure_const(c, "lhat", method, budget)


def l_const(c: CyclicSpec, method: str = "formula", budget: Budget = Budget()) -> ConstResult:
    """Least length beyond which every minimal idempotent-sum sequence over
    C(k;n) has minimal-mode structure."""
    return _structure_const(c, "l", method, budget)


# ---------------------------------------------------------------------------
# gap explorers

def _gap_rows(max_k: int, max_n: int, quantity: str, budget: Budget):
    formula = _lhat_formula if quantity == "lhat" else _l_formula
    # an l row also compares l with lhat, which the same walk finds
    kinds = (_lhat_watch,) if quantity == "lhat" else (_l_watch, _lhat_watch)
    for n in range(1, max_n + 1):
        for k in range(n + 1, max_k + 1):
            c = CyclicSpec(k, n)
            value, lower, upper = formula(c)
            row = {
                "spec": format_spec(c.as_product()),
                "formula_value": value,
                "lower": lower,
                "upper": upper,
            }
            try:
                values, _nodes = _brute_walk(c, budget, kinds)
            except BudgetExceeded as exc:
                row["skipped"] = str(exc)
                yield row
                continue
            row["brute"] = values[0]
            row["anomaly"] = not (lower <= values[0] <= upper)
            if quantity == "l":
                row["lhat_brute"] = values[1]
                row["le_lhat_plus_1"] = values[0] <= values[1] + 1
                row["anomaly"] = row["anomaly"] or not row["le_lhat_plus_1"]
            yield row


def structure_gap_report(quantity: str, max_k: int, max_n: int,
                         budget: Budget = Budget()) -> dict:
    """Brute values for k > n against the closed-form values/intervals;
    rows marked anomalous when outside them (for l, also when l > lhat + 1)."""
    if quantity not in ("lhat", "l"):
        raise SpecError(f"unknown gap quantity {quantity!r}")
    rows = list(_gap_rows(max_k, max_n, quantity, budget))
    summary = {
        "rows": len(rows),
        "anomalies": sum(1 for r in rows if r.get("anomaly")),
        "skipped": sum(1 for r in rows if "skipped" in r),
    }
    return {"rows": rows, "summary": summary}
