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
from .sequences import ReachEngine, Seq, _lift, search_free

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


@dataclass(frozen=True)
class ConstResult:
    """Outcome of a constant computation.

    value is None when only the [lower, upper] interval is known.
    """

    quantity: str
    value: int | None
    lower: int
    upper: int
    rule: str | None
    method: str
    nodes: int = 0
    elapsed_ms: int = 0
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise SpecError(f"unknown quantity {self.quantity!r}")
        if self.value is not None and not self.lower <= self.value <= self.upper:
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
            "upper": self.upper,
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

    One sweep of pairwise (gcd, lcm) replacement over i < j: once entry i
    has met every later entry it divides them all, so the entries end as an
    ascending divisor chain.  Empty tuple for the trivial group.
    """
    ds = list(g.periods)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g0 = math.gcd(ds[i], ds[j])
            ds[i], ds[j] = g0, ds[i] * ds[j] // g0
    out = tuple(d for d in ds if d > 1)
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

def _davenport_brute(g: GroupSpec, budget: Budget) -> tuple[int, Seq, int]:
    """Exact D(G) = 1 + max zero-sum free length by exhaustive search over
    non-decreasing multisets, plus a longest zero-sum free witness: the
    first in search order (search_free without a length)."""
    meter = SearchMeter(budget)
    meter.check_states(g.order)
    engine = ReachEngine.for_group(g)
    best = search_free(engine, meter)
    witness = Seq(tuple(engine.labels[ai] for ai in best))
    return len(best) + 1, witness, meter.nodes


def davenport(g: GroupSpec, method: str = "formula", budget: Budget = Budget()) -> ConstResult:
    """D(G): least length forcing a nonempty zero-sum subsequence.

    formula: exact 1 + d*(G) for rank <= 2 or p-groups, otherwise the
    [1 + d*, Meshulam] interval.  brute: exhaustive search.  both: brute,
    cross-checked against the formula; disagreement is an internal error.
    """
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
        rule = _cross_check("Davenport", f, b)
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


def _cross_check(what: str, f: ConstResult, b: ConstResult) -> str:
    """The rule of a "both" result from its formula and brute results: the
    formula's rule when it pins the value, else BRUTE.  A value disagreement
    or a brute value outside the formula interval is an internal error."""
    if f.value is not None and f.value != b.value:
        raise RuntimeError(f"internal error: {what} formula {f.value} != brute {b.value}")
    if not f.lower <= b.value <= f.upper:
        raise RuntimeError(
            f"internal error: {what} brute {b.value} outside formula bounds "
            f"[{f.lower}, {f.upper}]"
        )
    return f.rule if f.value is not None else BRUTE


# ---------------------------------------------------------------------------
# Erdos-Burgess bounds and closed-form rules

def _max_nil_term(s: ProductSpec) -> int:
    """max over coordinates of (ceil(k_i/n_i) - 1) * n_i = cap_i - n_i."""
    return max(c.cap - c.n for c in s.coords)


def eb_bounds(s: ProductSpec, budget: Budget = Budget()) -> EbBounds:
    """Proven [lower, upper] interval for I(S).

    lower = max(maxterm + 1 + sum_{n_i > 1} (n_i - 1), max_i(ceil(k_i/n_i) - 1) + D),
    upper = maxterm + D.  If D itself is only known as an interval, its lower
    end feeds the lower bound and its upper end the upper bound, and the
    result is flagged davenport-inexact.
    """
    return _eb_bounds(s, _resolve_davenport(group_of(s), budget))


def _eb_bounds(s: ProductSpec, d_res: ConstResult) -> EbBounds:
    """eb_bounds given the resolved D(G_S)."""
    maxterm = _max_nil_term(s)
    max_q1 = max(c.cap // c.n - 1 for c in s.coords)
    r1_sum = sum(c.n - 1 for c in s.coords if c.n > 1)
    lower = max(maxterm + 1 + r1_sum, max_q1 + d_res.lower)
    upper = maxterm + d_res.upper
    if lower > upper:
        raise RuntimeError(f"internal error: bounds crossed, [{lower}, {upper}]")
    flags = ("davenport-inexact",) if d_res.value is None else ()
    return EbBounds(lower, upper, flags)


def _reduced_spec(s: ProductSpec) -> ProductSpec:
    """Drop all period-1 coordinates except the first one of maximal index,
    preserving coordinate order; s itself when it has none."""
    nil = [i for i, c in enumerate(s.coords) if c.n == 1]
    if not nil:
        return s
    keep = max(nil, key=lambda i: s.coords[i].k)  # the first maximal one
    return ProductSpec(tuple(c for i, c in enumerate(s.coords) if c.n > 1 or i == keep))


def _thm32_lead(s: ProductSpec) -> int | None:
    """Thm 3.2: max{k_i - 1 : n_i = 1} when S has a period-1 coordinate and
    that maximum reaches max_i (ceil(k_i/n_i) - 1) n_i, so that I(S) is it
    plus D(G_S); else None."""
    lead = max((c.k - 1 for c in s.coords if c.n == 1), default=None)
    return lead if lead is not None and lead >= _max_nil_term(s) else None


def reduce_spec(s: ProductSpec, budget: Budget = Budget()):
    """One reduction step for specs with a period-1 coordinate.

    Returns the closed-form value max{k_i - 1 : n_i = 1} + D(G_S) when that
    maximum reaches max_i (ceil(k_i/n_i) - 1) n_i, else the smaller spec that
    keeps all period > 1 coordinates plus the single largest-index period-1
    coordinate.  Identity on specs without period-1 coordinates.
    """
    lead = _thm32_lead(s)
    if lead is None:
        return _reduced_spec(s)
    d_res = _resolve_davenport(group_of(s), budget)
    if d_res.value is None:
        raise BudgetExceeded("Davenport constant not exactly resolvable within budget")
    return lead + d_res.value


def _thm41_condition_i(c1: CyclicSpec, c2: CyclicSpec) -> bool:
    """Thm 4.1 (i): one period divides the other."""
    return c1.n % c2.n == 0 or c2.n % c1.n == 0


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
    """Thm 3.1 (iii): some period > 1 coordinate eps attains the max term
    with ceil(k_eps/n_eps) - 1 divisible by prod_{i != eps} n_i.  (A period-1
    coordinate attaining it is the case of Thm 3.2.)"""
    maxterm = _max_nil_term(s)
    order = math.prod(c.n for c in s.coords)
    return any(c.n > 1 and c.cap - c.n == maxterm and (c.cap // c.n - 1) % (order // c.n) == 0
               for c in s.coords)


def _equality_rule(s: ProductSpec, d_val: int) -> str | None:
    """The first rule that gives I(S) = maxterm + D(G_S), or None:
    rank-two divisibility, prime-power group order, the rank-two
    divisibility-of-index case, the D = 1 + sum(n_i - 1) equality case,
    pairwise-coprime periods."""
    coords = s.coords
    if len(coords) == 2 and _thm41_condition_i(*coords):
        return COR31_DIV
    order = math.prod(c.n for c in coords)
    if _prime_power_base(order) is not None:
        return COR31_PPOW
    if len(coords) == 2 and _thm41_condition_ii(*coords):
        return THM41_II
    if d_val == 1 + sum(c.n - 1 for c in coords):
        return THM31_II_EQ
    if _coprime_periods(s) and _thm31_iii_condition(s):
        return THM31_III
    return None


def eb_exact(s: ProductSpec, budget: Budget = Budget()) -> ConstResult:
    """Closed-form I(S) where a rule applies, else the proven interval.

    Rule order: single coordinate; period-1 reduction; rank-two divisibility;
    prime-power group order; rank-two divisibility-of-index case; the
    D = 1 + sum(n_i - 1) equality case; pairwise-coprime periods (applied in
    both directions: a failed existence condition refutes the upper-bound
    formula and caps the interval strictly below it).

    D(G_S) is resolved once.  Where the period-1 reduction gives no value,
    the rules run on the reduced spec: it keeps every period > 1 coordinate
    and the period-1 coordinate of largest index, so it has the same group
    and the same max term.
    """
    t0 = time.monotonic()
    if len(s.coords) == 1:
        v = s.coords[0].cap
        return ConstResult("erdos_burgess", v, v, v, COR31_R1, "formula", elapsed_ms=_ms(t0))

    d_res = _resolve_davenport(group_of(s), budget)
    d_val = d_res.value
    maxterm = _max_nil_term(s)
    lead = _thm32_lead(s)
    if lead is not None and d_val is not None:
        v = lead + d_val
        return ConstResult("erdos_burgess", v, v, v, THM32_REDUCE, "formula",
                           elapsed_ms=_ms(t0))
    s = _reduced_spec(s)

    if d_val is not None:
        rule = _equality_rule(s, d_val)
        if rule is not None:
            v = maxterm + d_val
            return ConstResult("erdos_burgess", v, v, v, rule, "formula", elapsed_ms=_ms(t0))

    bounds = _eb_bounds(s, d_res)
    if d_val is not None and _coprime_periods(s):
        hi = maxterm + d_val - 1
        pinned = bounds.lower if bounds.lower == hi else None
        return ConstResult("erdos_burgess", pinned, bounds.lower, hi, THM31_III_REFUTED,
                           "formula", elapsed_ms=_ms(t0), flags=("formula-refuted",))
    pinned = bounds.lower if bounds.lower == bounds.upper else None
    return ConstResult("erdos_burgess", pinned, bounds.lower, bounds.upper, THM31_BOUNDS,
                       "formula", elapsed_ms=_ms(t0), flags=bounds.flags)


# ---------------------------------------------------------------------------
# brute force

def eb_bruteforce(s: ProductSpec, budget: Budget = Budget()) -> ConstResult:
    """Exact I(S) by iterative deepening from the proven lower bound: the
    answer is the first length admitting no idempotent-sum free sequence.

    The bounds take D(G_S) from the formula alone, and where it gives only
    an interval, its ends: 1 + d*(G_S) is always a lower bound of D, so
    the search never resolves D by a search of its own.  The probes start
    lower than eb_bounds would have them, and the node count grows, only
    where D(G_S) > 1 + d*(G_S); no group the tests or the benchmark reach
    has that.

    Enumerates non-decreasing sequences over the non-idempotent elements,
    carrying the elements whose addition would complete the idempotent
    (the forbidden set, see ReachEngine) and pruning any extension that
    realizes the idempotent profile.  Termination is guaranteed by the
    proven upper bound; exceeding it raises an internal error.  The time
    budget covers the bounds and engine build: search_free checks it first.
    """
    meter = SearchMeter(budget)
    meter.check_states(math.prod(s.caps))
    bounds = _eb_bounds(s, davenport(group_of(s), "formula", budget))
    engine = ReachEngine.for_spec(s)
    for value in range(bounds.lower, bounds.upper + 1):
        if not search_free(engine, meter, value):
            break
    else:
        raise RuntimeError(
            f"internal error: free sequence of length {bounds.upper} found above "
            f"the proven upper bound {bounds.upper} for {format_spec(s)}"
        )
    return ConstResult("erdos_burgess", value, value, value, BRUTE, "brute",
                       nodes=meter.nodes, elapsed_ms=meter.elapsed_ms())


def erdos_burgess(s: ProductSpec, method: str = "formula",
                  budget: Budget = Budget()) -> ConstResult:
    """I(S) by the requested method; both cross-checks brute against formula
    (value disagreement or interval violation is an internal error) under
    one deadline: the brute half gets the time the formula half left."""
    if method == "formula":
        return eb_exact(s, budget)
    if method == "brute":
        return eb_bruteforce(s, budget)
    if method == "both":
        meter = SearchMeter(budget)
        f = eb_exact(s, budget)
        left = budget.time_budget_s - (time.monotonic() - meter.started)
        try:
            b = eb_bruteforce(s, dataclasses.replace(budget, time_budget_s=left))
        except BudgetExceeded as exc:
            meter.nodes = exc.nodes
            meter.check_time()  # past the call's deadline: say so
            exc.elapsed_ms = meter.elapsed_ms()
            raise
        rule = _cross_check(f"I({format_spec(s)})", f, b)
        return ConstResult("erdos_burgess", b.value, f.lower, f.upper, rule, "both",
                           nodes=b.nodes, elapsed_ms=meter.elapsed_ms(), flags=f.flags)
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


def build_lift_witness(s: ProductSpec, budget: Budget = Budget()) -> Seq:
    """Free sequence of length max_i(ceil(k_i/n_i) - 1) + D(G_S) - 1: copies
    of the all-periods element (zero residue, unsaturated) followed by a lift
    of a longest zero-sum free sequence over G_S (zero residues lift to the
    period index)."""
    _, witness, _ = _davenport_brute(group_of(s), budget)
    q1 = [c.cap // c.n - 1 for c in s.coords]
    lead = max(q1)
    mu = tuple(c.n for c in s.coords)
    return Seq(tuple([mu] * lead + [_lift(mu, res) for res in witness]))


def build_uniform_witness(s: ProductSpec) -> Seq | None:
    """For pairwise-coprime periods meeting the Thm 3.1 (iii) condition: the
    all-ones element repeated maxterm + prod_{n_i > 1} n_i - 1 times.  None
    when that case does not apply."""
    if not (_coprime_periods(s) and _thm31_iii_condition(s)):
        return None
    big_n = math.prod(c.n for c in s.coords)
    return Seq(((1,) * s.arity,) * (_max_nil_term(s) + big_n - 1))


# ---------------------------------------------------------------------------
# conjecture explorer

def explore_conjecture(max_k: int, max_n: int, budget: Budget = Budget()) -> dict:
    """Brute-force sweep of rank-two specs against the two sufficient
    conditions for I(S) = maxterm + D(G_S).

    Emits one row per unordered coordinate pair with k_i <= max_k and
    n_i <= max_n.  A row where equality holds but both conditions fail is a
    counterexample candidate for the converse conjecture; a row where a
    condition holds but equality fails is an implementation bug (sufficiency
    is proven).  Budget-exhausted instances are recorded and skipped.
    """
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
            cond_i = _thm41_condition_i(*s.coords)
            cond_ii = _thm41_condition_ii(*s.coords)
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
