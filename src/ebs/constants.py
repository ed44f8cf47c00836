"""Davenport and Erdos-Burgess constants: closed-form rules, bounds,
reduction, brute-force oracles, and a rank-two conjecture explorer.

Closed-form results carry a rule tag naming the case that produced them;
brute-force results carry the BRUTE tag plus search statistics.  Every value
rule needs the Davenport constant of the attached group, which is resolved
by formula where exact (rank <= 2 or p-group) and by exhaustive search
otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

from .config import Budget, SearchMeter
from .errors import BudgetExceeded, SpecError
from .semigroup import (
    CyclicSpec,
    GroupSpec,
    ProductSpec,
    format_spec,
    group_of,
)
from .sequences import GroupSeq, ReachEngine, Seq, search_free

# rule tags (fixed enumeration)
THM31_II_EQ = "THM31_II_EQ"
THM31_III = "THM31_III"
THM31_III_REFUTED = "THM31_III_REFUTED"
THM31_BOUNDS = "THM31_BOUNDS"
COR31_R1 = "COR31_R1"
COR31_DIV = "COR31_DIV"
COR31_PPOW = "COR31_PPOW"
THM41_II = "THM41_II"
THM32_REDUCE = "THM32_REDUCE"
THM_D_RANK2 = "THM_D_RANK2"
THM_D_PGROUP = "THM_D_PGROUP"
THM61 = "THM61"
D_BOUNDS = "D_BOUNDS"
BRUTE = "BRUTE"

QUANTITIES = ("davenport", "erdos_burgess", "lhat", "l")

# concurrent.futures.ProcessPoolExecutor, imported by eb_bruteforce when it
# first builds a pool: it pulls in multiprocessing, which a process that
# never searches on several threads does not need.  The pool class is read
# from this attribute, so a subclass bound here (perfbench/tracing.py binds
# one) is the pool that gets built.
ProcessPoolExecutor = None


@dataclass(frozen=True)
class ConstResult:
    """Outcome of a constant computation.

    value is None when only the [lower, upper] interval is known; upper is
    None only for a hypothetical formula with no finite bound (not produced
    by any current rule).
    """

    quantity: str
    value: int | None
    lower: int
    upper: int | None
    rule: str | None
    method: str
    nodes: int = 0
    elapsed_ms: int = 0
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise SpecError(f"unknown quantity {self.quantity!r}")
        if self.value is not None:
            if self.value < self.lower or (self.upper is not None and self.value > self.upper):
                raise RuntimeError(
                    f"internal error: value {self.value} outside "
                    f"[{self.lower}, {self.upper}] for {self.quantity}"
                )

    def to_dict(self, spec_label: str) -> dict:
        out = {
            "spec": spec_label,
            "quantity": self.quantity,
            "method": self.method,
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper if self.upper is not None else "unbounded-by-formula",
            "rule": self.rule,
            "nodes": self.nodes,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.flags:
            out["flags"] = list(self.flags)
        return out


class EbBounds(NamedTuple):
    lower: int
    upper: int
    flags: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# group invariants

def invariant_factors(g: GroupSpec) -> tuple[int, ...]:
    """Invariant factors d_1 | ... | d_r (each > 1) of prod Z_{n_i}.

    Iterated pairwise gcd/lcm normalization; empty tuple for the trivial
    group.
    """
    ds = [n for n in g.periods if n > 1]
    changed = True
    while changed:
        changed = False
        ds.sort()
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                a, b = ds[i], ds[j]
                if b % a == 0:
                    continue
                g0 = math.gcd(a, b)
                ds[i], ds[j] = g0, a * b // g0
                changed = True
    out = tuple(sorted(d for d in ds if d > 1))
    for a, b in zip(out, out[1:]):
        if b % a != 0:
            raise RuntimeError("internal error: invariant factor chain broken")
    return out


def d_star(g: GroupSpec) -> int:
    """Sum of (d_j - 1) over the invariant factors."""
    return sum(d - 1 for d in invariant_factors(g))


def _prime_power_base(m: int) -> int | None:
    """p if m = p^j for a prime p and j >= 1, else None."""
    if m < 2:
        return None
    p = None
    d = 2
    while d * d <= m:
        if m % d == 0:
            p = d
            break
        d += 1
    if p is None:
        p = m
    while m % p == 0:
        m //= p
    return p if m == 1 else None


# ---------------------------------------------------------------------------
# Davenport constant

def _davenport_brute(g: GroupSpec, budget: Budget) -> tuple[int, GroupSeq, int]:
    """Exact D(G) = 1 + max zero-sum free length by exhaustive search over
    non-decreasing multisets, plus a longest zero-sum free witness."""
    engine = ReachEngine.for_group(g)
    if engine.num_states > budget.state_cap:
        raise BudgetExceeded(f"group state count {engine.num_states} over cap")
    meter = SearchMeter(budget)
    best: list[int] = []

    def on_free(stack: list[int]) -> None:
        if len(stack) > len(best):
            best[:] = stack

    search_free(engine, meter, on_free=on_free)
    witness = GroupSeq(tuple(engine.labels[ai] for ai in best))
    return len(best) + 1, witness, meter.nodes


def davenport(g: GroupSpec, method: str = "formula", budget: Budget | None = None) -> ConstResult:
    """D(G): least length forcing a nonempty zero-sum subsequence.

    formula: exact 1 + d*(G) for rank <= 2 or p-groups, otherwise the
    [1 + d*, Meshulam] interval.  brute: exhaustive search.  both: brute,
    cross-checked against the formula; disagreement is an internal error.
    """
    budget = budget or Budget()
    t0 = time.monotonic()
    factors = invariant_factors(g)
    lower = 1 + sum(d - 1 for d in factors)
    if method == "formula":
        if len(factors) <= 2:
            return ConstResult("davenport", lower, lower, lower, THM_D_RANK2, "formula",
                               elapsed_ms=_ms(t0))
        if _prime_power_base(math.prod(factors)) is not None:
            return ConstResult("davenport", lower, lower, lower, THM_D_PGROUP, "formula",
                               elapsed_ms=_ms(t0))
        nr = factors[-1]
        order = math.prod(factors)
        upper = math.floor(nr + nr * math.log(order / nr))
        if upper < lower:
            raise RuntimeError("internal error: Meshulam bound below 1 + d*")
        return ConstResult("davenport", None, lower, upper, D_BOUNDS, "formula",
                           elapsed_ms=_ms(t0), flags=("davenport-inexact",))
    if method == "brute":
        value, _witness, nodes = _davenport_brute(g, budget)
        return ConstResult("davenport", value, value, value, BRUTE, "brute",
                           nodes=nodes, elapsed_ms=_ms(t0))
    if method == "both":
        f = davenport(g, "formula", budget)
        b = davenport(g, "brute", budget)
        if f.value is not None and f.value != b.value:
            raise RuntimeError(
                f"internal error: Davenport disagreement, formula {f.value} != brute {b.value}"
            )
        if not f.lower <= b.value <= (f.upper if f.upper is not None else b.value):
            raise RuntimeError(
                f"internal error: brute Davenport {b.value} outside formula bounds "
                f"[{f.lower}, {f.upper}]"
            )
        rule = f.rule if f.value is not None else BRUTE
        return ConstResult("davenport", b.value, b.value, b.value, rule, "both",
                           nodes=b.nodes, elapsed_ms=_ms(t0))
    raise SpecError(f"unknown method {method!r}")


def _resolve_davenport(g: GroupSpec, budget: Budget) -> ConstResult:
    """Exact D(G) if attainable: formula first, brute as fallback; on budget
    exhaustion the formula interval is returned (value absent)."""
    res = davenport(g, "formula", budget)
    if res.value is not None:
        return res
    try:
        return davenport(g, "brute", budget)
    except BudgetExceeded:
        return res


def _ms(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


# ---------------------------------------------------------------------------
# Erdos-Burgess bounds and closed-form rules

def _max_nil_term(s: ProductSpec) -> int:
    """max over coordinates of (ceil(k_i/n_i) - 1) * n_i = cap_i - n_i."""
    return max(c.cap - c.n for c in s.coords)


def eb_bounds(s: ProductSpec, budget: Budget | None = None) -> EbBounds:
    """Proven [lower, upper] interval for I(S).

    lower = max(maxterm + 1 + sum_{n_i > 1} (n_i - 1), max_i(ceil(k_i/n_i) - 1) + D),
    upper = maxterm + D.  If D itself is only known as an interval, its lower
    end feeds the lower bound and its upper end the upper bound, and the
    result is flagged davenport-inexact.
    """
    return _eb_bounds(s, _resolve_davenport(group_of(s), budget or Budget()))


def _eb_bounds(s: ProductSpec, d_res: ConstResult) -> EbBounds:
    """eb_bounds given the resolved D(G_S)."""
    maxterm = _max_nil_term(s)
    max_q1 = max(c.cap // c.n - 1 for c in s.coords)
    r1_sum = sum(c.n - 1 for c in s.coords if c.n > 1)
    lower = max(maxterm + 1 + r1_sum, max_q1 + d_res.lower)
    upper = maxterm + (d_res.upper if d_res.upper is not None else d_res.lower)
    if lower > upper:
        raise RuntimeError(f"internal error: bounds crossed, [{lower}, {upper}]")
    flags = ("davenport-inexact",) if d_res.value is None else ()
    return EbBounds(lower, upper, flags)


def _reduced_spec(s: ProductSpec) -> ProductSpec:
    """Drop all period-1 coordinates except the first one of maximal index,
    preserving coordinate order."""
    nil_positions = [i for i, c in enumerate(s.coords) if c.n == 1]
    k_max = max(s.coords[i].k for i in nil_positions)
    keep_nil = next(i for i in nil_positions if s.coords[i].k == k_max)
    coords = tuple(
        c for i, c in enumerate(s.coords) if c.n > 1 or i == keep_nil
    )
    return ProductSpec(coords)


def reduce_spec(s: ProductSpec, budget: Budget | None = None):
    """One reduction step for specs with a period-1 coordinate.

    Returns the closed-form value max{k_i - 1 : n_i = 1} + D(G_S) when that
    maximum reaches max_i (ceil(k_i/n_i) - 1) n_i, else the smaller spec that
    keeps all period > 1 coordinates plus the single largest-index period-1
    coordinate.  Identity on specs without period-1 coordinates.
    """
    budget = budget or Budget()
    nil = [c for c in s.coords if c.n == 1]
    if not nil:
        return s
    k_max = max(c.k for c in nil)
    if k_max - 1 >= _max_nil_term(s):
        d_res = _resolve_davenport(group_of(s), budget)
        if d_res.value is None:
            raise BudgetExceeded("Davenport constant not exactly resolvable within budget")
        return k_max - 1 + d_res.value
    return _reduced_spec(s)


def _thm41_condition_ii(c1: CyclicSpec, c2: CyclicSpec) -> bool:
    maxterm = max(c1.cap - c1.n, c2.cap - c2.n)
    g0 = math.gcd(c1.n, c2.n)
    for a, b in ((c1, c2), (c2, c1)):
        if a.cap - a.n == maxterm and (a.cap // a.n - 1) % (b.n // g0) == 0:
            return True
    return False


def _coprime_periods(s: ProductSpec) -> bool:
    periods = [c.n for c in s.coords]
    return all(
        math.gcd(periods[i], periods[j]) == 1
        for i in range(len(periods))
        for j in range(i + 1, len(periods))
    )


def _thm31_iii_condition(s: ProductSpec) -> bool:
    maxterm = _max_nil_term(s)
    r1 = set(s.nontrivial_positions)
    for eps, c in enumerate(s.coords):
        if c.cap - c.n != maxterm:
            continue
        if eps not in r1:
            return True
        rest = math.prod(s.coords[i].n for i in r1 if i != eps)
        if (c.cap // c.n - 1) % rest == 0:
            return True
    return False


def eb_exact(s: ProductSpec, budget: Budget | None = None) -> ConstResult:
    """Closed-form I(S) where a rule applies, else the proven interval.

    Rule order: single coordinate; period-1 reduction; rank-two divisibility;
    prime-power group order; rank-two divisibility-of-index case; the
    D = 1 + sum(n_i - 1) equality case; pairwise-coprime periods (applied in
    both directions: a failed existence condition refutes the upper-bound
    formula and caps the interval strictly below it).
    """
    return _eb_exact(s, budget or Budget(), None)


def _eb_exact(s: ProductSpec, budget: Budget, d_res: ConstResult | None) -> ConstResult:
    """eb_exact, resolving D(G_S) only when d_res is None.  D is resolved at
    most once per top-level call: the reduced spec has the same group, so the
    recursion and the bounds reuse it."""
    t0 = time.monotonic()
    coords = s.coords
    r = len(coords)
    if r == 1:
        v = coords[0].cap
        return ConstResult("erdos_burgess", v, v, v, COR31_R1, "formula", elapsed_ms=_ms(t0))

    maxterm = _max_nil_term(s)
    if d_res is None:
        d_res = _resolve_davenport(group_of(s), budget)
    d_val = d_res.value

    nil = [c for c in coords if c.n == 1]
    if nil:
        k_max = max(c.k for c in nil)
        if k_max - 1 >= maxterm and d_val is not None:
            v = k_max - 1 + d_val
            return ConstResult("erdos_burgess", v, v, v, THM32_REDUCE, "formula",
                               elapsed_ms=_ms(t0))
        s2 = _reduced_spec(s)
        if s2 != s:
            inner = _eb_exact(s2, budget, d_res)
            return ConstResult(
                inner.quantity, inner.value, inner.lower, inner.upper, inner.rule,
                "formula", elapsed_ms=_ms(t0), flags=inner.flags,
            )

    if d_val is not None:
        if r == 2:
            n1, n2 = coords[0].n, coords[1].n
            if n1 % n2 == 0 or n2 % n1 == 0:
                v = maxterm + d_val
                return ConstResult("erdos_burgess", v, v, v, COR31_DIV, "formula",
                                   elapsed_ms=_ms(t0))
        order = math.prod(c.n for c in coords)
        if order > 1 and _prime_power_base(order) is not None:
            v = maxterm + d_val
            return ConstResult("erdos_burgess", v, v, v, COR31_PPOW, "formula",
                               elapsed_ms=_ms(t0))
        if r == 2 and _thm41_condition_ii(coords[0], coords[1]):
            v = maxterm + d_val
            return ConstResult("erdos_burgess", v, v, v, THM41_II, "formula",
                               elapsed_ms=_ms(t0))
        if d_val == 1 + sum(c.n - 1 for c in coords if c.n > 1):
            v = maxterm + d_val
            return ConstResult("erdos_burgess", v, v, v, THM31_II_EQ, "formula",
                               elapsed_ms=_ms(t0))
        if _coprime_periods(s):
            if _thm31_iii_condition(s):
                v = maxterm + d_val
                return ConstResult("erdos_burgess", v, v, v, THM31_III, "formula",
                                   elapsed_ms=_ms(t0))
            bounds = _eb_bounds(s, d_res)
            hi = maxterm + d_val - 1
            pinned = bounds.lower if bounds.lower == hi else None
            return ConstResult(
                "erdos_burgess", pinned, bounds.lower, hi,
                THM31_III_REFUTED, "formula", elapsed_ms=_ms(t0),
                flags=("formula-refuted",),
            )

    bounds = _eb_bounds(s, d_res)
    pinned = bounds.lower if bounds.lower == bounds.upper else None
    return ConstResult("erdos_burgess", pinned, bounds.lower, bounds.upper, THM31_BOUNDS,
                       "formula", elapsed_ms=_ms(t0), flags=bounds.flags)


# ---------------------------------------------------------------------------
# brute force

# The search engine of a pool worker process, set once per worker by
# _init_worker so that tasks need not carry it.
_worker_engine: ReachEngine | None = None


def _init_worker(engine: ReachEngine) -> None:
    global _worker_engine
    _worker_engine = engine


def _exists_task(length: int, first_idx: int, budget: Budget):
    """Worker: does a free sequence of the given length starting with
    alphabet[first_idx] exist?  Returns (found, nodes)."""
    engine = _worker_engine
    meter = SearchMeter(budget)
    meter.tick()
    states = engine.apply(0, first_idx)
    if states is None:
        return False, meter.nodes
    found = search_free(engine, meter, length - 1, states, first_idx)
    return found, meter.nodes


def _exists_free(engine: ReachEngine, length: int, meter: SearchMeter, pool) -> bool:
    """Does a free sequence of the given length exist?

    With a pool, one task per first element; the results are read in
    alphabet order and counted up to the first hit, so the nodes counted and
    the budget verdict are those of the serial search at any thread count.
    """
    if pool is None or length == 0:
        return search_free(engine, meter, length)
    budget = meter.budget
    meter.check_time()
    # A task stops once it alone has spent what is left of the budget; the
    # serial search would have run out there too.
    left = dataclasses.replace(
        budget,
        node_budget=budget.node_budget - meter.nodes,
        time_budget_s=budget.time_budget_s - (time.monotonic() - meter.started),
    )
    futures = [pool.submit(_exists_task, length, i, left)
               for i in range(len(engine.labels))]
    try:
        for f in futures:
            try:
                hit, nodes = f.result()
            except BudgetExceeded as exc:
                # Account the task's nodes, so that the error names the
                # whole budget and reports the total.
                meter.tick(exc.nodes)
                meter.check_time()
                raise BudgetExceeded(str(exc), nodes=meter.nodes,
                                     elapsed_ms=meter.elapsed_ms()) from None
            meter.tick(nodes)
            meter.check_time()
            if hit:
                return True
        return False
    finally:
        for f in futures:
            f.cancel()


def eb_bruteforce(s: ProductSpec, budget: Budget | None = None) -> ConstResult:
    """Exact I(S) by iterative deepening from eb_bounds.lower - 1: the answer
    is the first length admitting no idempotent-sum free sequence.

    Enumerates non-decreasing sequences over the non-idempotent elements,
    carrying the capped subset-sum reach set and pruning any extension that
    realizes the idempotent profile.  Termination is guaranteed by the proven
    upper bound; exceeding it raises an internal error.  The time budget
    covers the bounds and the engine build as well as the search.
    """
    global ProcessPoolExecutor
    budget = budget or Budget()
    meter = SearchMeter(budget)
    bounds = eb_bounds(s, budget)
    engine = ReachEngine.for_spec(s)
    if engine.num_states > budget.state_cap:
        raise BudgetExceeded(f"state count {engine.num_states} over cap {budget.state_cap}",
                             elapsed_ms=meter.elapsed_ms())
    meter.check_time()
    pool = None
    try:
        if budget.threads > 1 and len(engine.labels) > 1:
            if ProcessPoolExecutor is None:
                from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=budget.threads,
                                       initializer=_init_worker, initargs=(engine,))
        longest = bounds.lower - 1
        while True:
            probe = longest + 1
            if probe > bounds.upper:
                raise RuntimeError(
                    f"internal error: free sequence of length {longest} found above "
                    f"the proven upper bound {bounds.upper} for {format_spec(s)}"
                )
            if not _exists_free(engine, probe, meter, pool):
                value = probe
                break
            longest = probe
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if not bounds.lower <= value <= bounds.upper:
        raise RuntimeError(
            f"internal error: brute value {value} outside bounds {bounds} for {format_spec(s)}"
        )
    return ConstResult("erdos_burgess", value, value, value, BRUTE, "brute",
                       nodes=meter.nodes, elapsed_ms=meter.elapsed_ms())


def erdos_burgess(s: ProductSpec, method: str = "formula",
                  budget: Budget | None = None) -> ConstResult:
    """I(S) by the requested method; both cross-checks brute against formula
    (value disagreement or interval violation is an internal error)."""
    budget = budget or Budget()
    if method == "formula":
        return eb_exact(s, budget)
    if method == "brute":
        return eb_bruteforce(s, budget)
    if method == "both":
        t0 = time.monotonic()
        f = eb_exact(s, budget)
        b = eb_bruteforce(s, budget)
        if f.value is not None and f.value != b.value:
            raise RuntimeError(
                f"internal error: I({format_spec(s)}) formula {f.value} != brute {b.value}"
            )
        if not f.lower <= b.value <= (f.upper if f.upper is not None else b.value):
            raise RuntimeError(
                f"internal error: brute I {b.value} outside formula bounds "
                f"[{f.lower}, {f.upper}] for {format_spec(s)}"
            )
        rule = f.rule if f.value is not None else BRUTE
        return ConstResult("erdos_burgess", b.value, f.lower,
                           f.upper if f.upper is not None else b.value, rule, "both",
                           nodes=b.nodes, elapsed_ms=_ms(t0), flags=f.flags)
    raise SpecError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# lower-bound witness constructions

def _axis_element(s: ProductSpec, i: int) -> tuple[int, ...]:
    """Index 1 in coordinate i, index n_j elsewhere (residue e_i in G_S)."""
    return tuple(1 if j == i else c.n for j, c in enumerate(s.coords))


def build_axis_witness(s: ProductSpec) -> Seq:
    """Free sequence of length maxterm + sum_{n_i > 1}(n_i - 1): the leading
    coordinate's axis element repeated (ceil(k/n) - 1) n times, plus each
    period > 1 axis element repeated n_i - 1 times."""
    maxterm = _max_nil_term(s)
    lead = next(i for i, c in enumerate(s.coords) if c.cap - c.n == maxterm)
    mult = [0] * s.arity
    mult[lead] += maxterm
    for i in s.nontrivial_positions:
        mult[i] += s.coords[i].n - 1
    terms = []
    for i, m in enumerate(mult):
        terms.extend([_axis_element(s, i)] * m)
    return Seq(tuple(terms))


def build_lift_witness(s: ProductSpec, budget: Budget | None = None) -> Seq:
    """Free sequence of length max_i(ceil(k_i/n_i) - 1) + D(G_S) - 1: copies
    of the all-periods element (zero residue, unsaturated) followed by a lift
    of a longest zero-sum free sequence over G_S (zero residues lift to the
    period index)."""
    budget = budget or Budget()
    _, witness, _ = _davenport_brute(group_of(s), budget)
    q1 = [c.cap // c.n - 1 for c in s.coords]
    lead = max(q1)
    mu = tuple(c.n for c in s.coords)
    terms = [mu] * lead
    for res in witness:
        terms.append(tuple(v if v >= 1 else c.n for v, c in zip(res, s.coords)))
    return Seq(tuple(terms))


def build_uniform_witness(s: ProductSpec) -> Seq | None:
    """For pairwise-coprime periods with a period > 1 coordinate attaining
    the max term and satisfying the divisibility condition: the all-ones
    element repeated maxterm + prod_{n_i > 1} n_i - 1 times.  None when that
    case does not apply."""
    if not _coprime_periods(s):
        return None
    r1 = set(s.nontrivial_positions)
    if not r1:
        return None
    maxterm = _max_nil_term(s)
    for eps in sorted(r1):
        c = s.coords[eps]
        if c.cap - c.n != maxterm:
            continue
        rest = math.prod(s.coords[i].n for i in r1 if i != eps)
        if (c.cap // c.n - 1) % rest == 0:
            big_n = math.prod(s.coords[i].n for i in r1)
            ones = (1,) * s.arity
            return Seq((ones,) * (maxterm + big_n - 1))
    return None


# ---------------------------------------------------------------------------
# conjecture explorer

def explore_conjecture(max_k: int, max_n: int, budget: Budget | None = None) -> dict:
    """Brute-force sweep of rank-two specs against the two sufficient
    conditions for I(S) = maxterm + D(G_S).

    Emits one row per unordered coordinate pair with k_i <= max_k and
    n_i <= max_n.  A row where equality holds but both conditions fail is a
    counterexample candidate for the converse conjecture; a row where a
    condition holds but equality fails is an implementation bug (sufficiency
    is proven).  Budget-exhausted instances are recorded and skipped.
    """
    budget = budget or Budget()
    singles = [(k, n) for k in range(1, max_k + 1) for n in range(1, max_n + 1)]
    rows = []
    summary = {"rows": 0, "equality": 0, "counterexamples": 0, "soundness_bugs": 0, "skipped": 0}
    for a in range(len(singles)):
        for b in range(a, len(singles)):
            (k1, n1), (k2, n2) = singles[a], singles[b]
            s = ProductSpec.of((k1, n1), (k2, n2))
            maxterm = _max_nil_term(s)
            d_val = davenport(GroupSpec((n1, n2)), "formula", budget).value
            row = {"spec": format_spec(s), "bound_value": maxterm + d_val}
            summary["rows"] += 1
            try:
                brute = eb_bruteforce(s, budget).value
            except BudgetExceeded as exc:
                row["skipped"] = str(exc)
                summary["skipped"] += 1
                rows.append(row)
                continue
            cond_i = n1 % n2 == 0 or n2 % n1 == 0
            cond_ii = _thm41_condition_ii(s.coords[0], s.coords[1])
            equality = brute == maxterm + d_val
            row.update(
                value=brute,
                equality=equality,
                cond_i=cond_i,
                cond_ii=cond_ii,
                counterexample=equality and not (cond_i or cond_ii),
                soundness_bug=(cond_i or cond_ii) and not equality,
            )
            summary["equality"] += int(equality)
            summary["counterexamples"] += int(row["counterexample"])
            summary["soundness_bugs"] += int(row["soundness_bug"])
            rows.append(row)
    return {"rows": rows, "summary": summary}
