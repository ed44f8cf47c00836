"""Behaving sequences, Savchev-Chen decomposition, classification of long
idempotent-sum free sequences over one cyclic semigroup, and the structure
thresholds lhat and l.

A free/minimal sequence over C(k;n) "has structure" when its index values
are, up to a unit multiple mod n in the k <= n regime, a behaving sequence
whose total is capped by (free mode) or exactly equal to (minimal mode) the
idempotent index.  lhat and l are the least lengths beyond which every free,
respectively minimal idempotent-sum, sequence has structure; both have
closed forms with known gaps and exhaustive brute-force counterparts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import SUBSET_SUM_BOUND, Budget, SearchMeter
from .errors import BudgetExceeded, PreconditionError, SpecError
from .semigroup import CyclicSpec, format_spec
from .sequences import (
    GroupSeq,
    ReachEngine,
    Seq,
    is_idempotent_sum_free,
    is_minimal_idempotent_sum,
    search_free,
)

if TYPE_CHECKING:
    from .constants import ConstResult

BEHAVING_I = "BEHAVING_I"
TWO_POWER_II = "TWO_POWER_II"
N2_SPECIAL_III = "N2_SPECIAL_III"
N1_SPLIT_IV = "N1_SPLIT_IV"
N1_TWOS_V = "N1_TWOS_V"
NONE = "NONE"


@dataclass(frozen=True)
class IntSeq:
    """A multiset of positive integers, stored sorted."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(sorted(self.entries))
        for v in entries:
            if not isinstance(v, int) or v < 1:
                raise SpecError(f"entries must be positive integers, got {v!r}")
        object.__setattr__(self, "entries", entries)

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


@dataclass(frozen=True)
class StructClass:
    """Classification outcome; when present, the witness (c, h) reconstructs
    the classified index values as c*h_i."""

    tag: str
    c: int | None = None
    h: IntSeq | None = None
    threshold_met: bool = False

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


def subset_sums(h: IntSeq, bound: int = SUBSET_SUM_BOUND) -> frozenset[int]:
    """All nonempty sub-multiset sums, by bitmask dynamic programming."""
    if h.total > bound:
        raise BudgetExceeded(f"subset-sum total {h.total} over bound {bound}")
    acc = _sums_mask(h.entries)
    return frozenset(s for s in range(1, h.total + 1) if acc >> s & 1)


def is_behaving(h: IntSeq, bound: int = SUBSET_SUM_BOUND) -> bool:
    """True iff the nonempty subset sums are exactly [1, total]."""
    if len(h) == 0:
        raise PreconditionError("behaving is undefined for the empty sequence")
    if h.total > bound:
        raise BudgetExceeded(f"subset-sum total {h.total} over bound {bound}")
    return _sums_mask(h.entries) == (1 << (h.total + 1)) - 1


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

def _units(n: int) -> list[int]:
    if n == 1:
        return [1]
    return [c for c in range(1, n) if math.gcd(c, n) == 1]


def _lpr(v: int, n: int) -> int:
    """Least positive residue: representative of v mod n in [1, n]."""
    return (v % n) or n


def _residues_of(t) -> list[int]:
    if isinstance(t, GroupSeq):
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
    residues = [v % n for v in _residues_of(t)]
    if not residues:
        return None
    for c in _units(n):
        inv = pow(c, -1, n)
        hs = IntSeq(tuple(_lpr(inv * r, n) for r in residues))
        if hs.total <= n - 1 and is_behaving(hs):
            return c, hs
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
    total = sum(vals)
    if c.k > c.n:
        return total <= c.cap - 1 and _sums_mask(vals) == (1 << (total + 1)) - 1
    n = c.n
    for u in _units(n):
        inv = pow(u, -1, n) if n > 1 else 0
        hs = [_lpr(inv * v, n) for v in vals]
        ht = sum(hs)
        if ht <= n - 1 and _sums_mask(hs) == (1 << (ht + 1)) - 1:
            return True
    return False


def _structured_minimal(c: CyclicSpec, vals) -> bool:
    """Minimal-mode structure: behaving index values with total exactly cap
    when k > n; some unit multiple of the residues whose least positive
    residues total exactly n when k <= n."""
    total = sum(vals)
    if c.k > c.n:
        return total == c.cap and _sums_mask(vals) == (1 << (total + 1)) - 1
    n = c.n
    for u in _units(n):
        inv = pow(u, -1, n) if n > 1 else 0
        if sum(_lpr(inv * v, n) for v in vals) == n:
            return True
    return False


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
    total = sum(vals)
    matches = []
    if total <= c.cap - 1 and _sums_mask(vals) == (1 << (total + 1)) - 1:
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

def _free_ints(engine: ReachEngine, idxs) -> bool:
    """Is the sequence of alphabet elements idxs idempotent-sum free?"""
    states = 0
    for ai in idxs:
        states = engine.apply(states, ai)
        if states is None:
            return False
    return True


def _search_engine(c: CyclicSpec) -> tuple[list[int], ReachEngine]:
    """Index values enumerated by the brute searches, ascending, and their
    arity-1 engine (cap + n - 1 states).

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


def _lhat_brute(c: CyclicSpec, budget: Budget) -> tuple[int, int]:
    """Max length of a free sequence without free-mode structure, plus one;
    1 when every free sequence is structured, 0 for the trivial semigroup."""
    if c.k == 1 and c.n == 1:
        return 0, 0
    meter = SearchMeter(budget)
    alphabet, engine = _search_engine(c)
    worst = 0

    def on_free(stack: list[int]) -> None:
        nonlocal worst
        if len(stack) > worst and not _structured_free(c, [alphabet[i] for i in stack]):
            worst = len(stack)

    search_free(engine, meter, on_free=on_free)
    return (worst + 1 if worst else 1), meter.nodes


def _l_brute(c: CyclicSpec, budget: Budget) -> tuple[int, int]:
    """Max length of a minimal idempotent-sum sequence without minimal-mode
    structure, plus one; at least 1.

    Minimal sequences are exactly free sequences extended by one final
    element at least as large, filtered by the minimality predicate; the
    idempotent singleton is the only minimal sequence containing the
    idempotent and is checked separately.
    """
    meter = SearchMeter(budget)
    alphabet, engine = _search_engine(c)
    cap, n = c.cap, c.n
    worst = 0
    if not _structured_minimal(c, [cap]):
        worst = 1
    totals = {0: 0}  # depth -> index total of the free prefix at that depth

    def on_free(stack: list[int]) -> None:
        totals[len(stack)] = totals[len(stack) - 1] + alphabet[stack[-1]]

    def consider(candidate: list[int]) -> None:
        nonlocal worst
        for x in dict.fromkeys(candidate):
            rest = list(candidate)
            rest.remove(x)
            if not _free_ints(engine, rest):
                return
        if not _structured_minimal(c, [alphabet[i] for i in candidate]):
            worst = len(candidate)

    def on_reject(stack: list[int], rejected: list[int]) -> None:
        total = totals[len(stack)]
        for ai in rejected:
            # only an idempotent sum longer than the worst so far matters
            t = total + alphabet[ai]
            if t % n == 0 and t >= cap and len(stack) >= worst:
                consider(stack + [ai])

    search_free(engine, meter, on_free=on_free, on_reject=on_reject)
    return worst + 1, meter.nodes


def _structure_const(c: CyclicSpec, quantity: str, method: str,
                     budget: Budget | None) -> ConstResult:
    # imported here, so that the structure tools load without the constants
    # layer
    from .constants import BRUTE, THM61, ConstResult, _ms

    budget = budget or Budget()
    t0 = time.monotonic()
    formula = _lhat_formula(c) if quantity == "lhat" else _l_formula(c)
    brute_fn = _lhat_brute if quantity == "lhat" else _l_brute
    value, lower, upper = formula
    if method == "formula":
        return ConstResult(quantity, value, lower, upper, THM61, "formula",
                           elapsed_ms=_ms(t0))
    if method == "brute":
        bval, nodes = brute_fn(c, budget)
        return ConstResult(quantity, bval, bval, bval, BRUTE, "brute",
                           nodes=nodes, elapsed_ms=_ms(t0))
    if method == "both":
        bval, nodes = brute_fn(c, budget)
        agrees = (value == bval) if value is not None else (lower <= bval <= upper)
        if agrees:
            return ConstResult(quantity, bval, lower, upper, THM61, "both",
                               nodes=nodes, elapsed_ms=_ms(t0))
        # a genuine formula/brute gap is data, not an internal error
        return ConstResult(quantity, bval, bval, bval, BRUTE, "both",
                           nodes=nodes, elapsed_ms=_ms(t0),
                           flags=("formula-brute-mismatch",))
    raise SpecError(f"unknown method {method!r}")


def lhat(c: CyclicSpec, method: str = "formula", budget: Budget | None = None) -> ConstResult:
    """Least length beyond which every idempotent-sum free sequence over
    C(k;n) has free-mode structure."""
    return _structure_const(c, "lhat", method, budget)


def l_const(c: CyclicSpec, method: str = "formula", budget: Budget | None = None) -> ConstResult:
    """Least length beyond which every minimal idempotent-sum sequence over
    C(k;n) has minimal-mode structure."""
    return _structure_const(c, "l", method, budget)


# ---------------------------------------------------------------------------
# gap explorers

def _gap_rows(max_k: int, max_n: int, quantity: str, budget: Budget):
    fn = lhat if quantity == "lhat" else l_const
    for n in range(1, max_n + 1):
        for k in range(n + 1, max_k + 1):
            c = CyclicSpec(k, n)
            f = fn(c, "formula")
            row = {
                "spec": format_spec(c.as_product()),
                "formula_value": f.value,
                "lower": f.lower,
                "upper": f.upper,
            }
            try:
                b = fn(c, "brute", budget)
            except BudgetExceeded as exc:
                row["skipped"] = str(exc)
                yield row
                continue
            row["brute"] = b.value
            row["anomaly"] = not (f.lower <= b.value <= f.upper)
            if quantity == "l":
                lh = lhat(c, "brute", budget)
                row["lhat_brute"] = lh.value
                row["le_lhat_plus_1"] = b.value <= lh.value + 1
                row["anomaly"] = row["anomaly"] or not row["le_lhat_plus_1"]
            yield row


def structure_gap_report(quantity: str, max_k: int, max_n: int,
                         budget: Budget | None = None) -> dict:
    """Brute values for k > n against the closed-form values/intervals;
    rows marked anomalous when outside them (for l, also when l > lhat + 1)."""
    if quantity not in ("lhat", "l"):
        raise SpecError(f"unknown gap quantity {quantity!r}")
    budget = budget or Budget()
    rows = list(_gap_rows(max_k, max_n, quantity, budget))
    summary = {
        "rows": len(rows),
        "anomalies": sum(1 for r in rows if r.get("anomaly")),
        "skipped": sum(1 for r in rows if "skipped" in r),
    }
    return {"rows": rows, "summary": summary}
