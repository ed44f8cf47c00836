"""The value layer: _Frozen, the base that stores every value class's
fields; ConstResult, the result of every constant (I(S), D(G), lhat, l),
and _solve, the one path that computes it by method; budget configuration;
and progress metering for exhaustive searches."""

from __future__ import annotations

import time
from operator import attrgetter

from .errors import BudgetExceeded, SpecError

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_TIME_BUDGET_S = 60.0
DEFAULT_STATE_CAP = 10**7
SUBSET_SUM_BOUND = 10**6
# The most entries held by the memo of one search engine (search_free), one
# record per forbidden set, which every search over the engine shares: the
# existence probes, the Davenport search and the lhat/l enumeration (in
# C(3;1) the free sequences [2] and [1, 1] reach {2} and {1, 2} and share
# the forbidden set {1, 2, 3}, so one record).  A record takes one entry
# per figure it holds (a subtree count, or a depth), one for itself, and
# one per 256 bits of its key's span: the key is the forbidden set's
# window, one bit per element of the engine's space, spread over the
# padded fields of ReachEngine's packing up to the last element's bit.  A
# figure of 256 or less costs 8 bytes, a list slot on a cached small int;
# a larger one about 36, the slot and an int of its own.  Every search
# records each subtree it walks in full while entries remain, so a full
# memo is one of short records: davenport((2, 2, 10), "brute") fills it
# with 121,579 records, 14,567 of their 878,420 figures over 256, in about
# 25.6 MB (sys.getsizeof of the dict, keys, lists and large ints).
SEARCH_MEMO_ENTRIES = 10**6
# the quantities a ConstResult may hold, and the rule tag of a brute value
QUANTITIES = ("davenport", "erdos_burgess", "lhat", "l")
BRUTE = "BRUTE"
# the quantities whose closed form is a published table with a known gap
TABLES = ("lhat", "l")


def _ms(t0: float) -> int:
    """Whole milliseconds since the time.monotonic() reading t0."""
    return int((time.monotonic() - t0) * 1000)


class _Frozen:
    """Value semantics for a slotted class whose fields are its __slots__,
    set once by __init__, in that order: equality and hash over the fields,
    a dataclass-style repr, no assignment, copy/pickle via __init__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)  # the field, or a tuple of them

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)


class Budget(_Frozen):
    """Resource limits for brute-force searches, fixed at construction and
    taken as given: a limit already spent (a time_budget_s of 0 or less)
    is a budget exit in the search, not a bad Budget.

    node_budget counts search-tree edges (attempted extensions); time_budget_s
    is wall clock from the start of a brute call, its setup (bounds, engine
    build) included, since every search reads the clock first; state_cap
    caps the subset-sum states: the capped states of a search engine's
    space (prod(cap_i) for I(S), |G| for D(G), cap for l-hat and l),
    checked before the engine is built.  The engine's bitsets hold one
    bit per element, under 2^r * prod(cap_i) for rank r, in fields padded
    to about twice their size per coordinate.  The one-shot
    predicates never see a Budget: they bound the states their walk reaches
    by their own state_cap argument, default DEFAULT_STATE_CAP.
    Every search runs in the calling process.  threads is read by nothing:
    it stays only because the benchmark scripts (perfbench/workloads.py and
    perfbench/run.py) still pass Budget(threads=...), and goes when they
    stop.
    """

    __slots__ = ("node_budget", "time_budget_s", "state_cap", "threads")

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET,
                 time_budget_s: float = DEFAULT_TIME_BUDGET_S,
                 state_cap: int = DEFAULT_STATE_CAP, threads: int = 1):
        super().__init__(node_budget, time_budget_s, state_cap, threads)


class ConstResult(_Frozen):
    """Outcome of a constant computation; value is None when only the
    [lower, upper] interval is known."""

    __slots__ = ("quantity", "value", "lower", "upper", "rule", "method", "nodes",
                 "elapsed_ms", "flags")

    def __init__(self, quantity: str, value: int | None, lower: int, upper: int,
                 rule: str | None, method: str, nodes: int = 0, elapsed_ms: int = 0,
                 flags: tuple[str, ...] = ()):
        if quantity not in QUANTITIES:
            raise SpecError(f"unknown quantity {quantity!r}")
        if value is not None and not lower <= value <= upper:
            raise RuntimeError(
                f"internal error: value {value} outside [{lower}, {upper}] for {quantity}"
            )
        super().__init__(quantity, value, lower, upper, rule, method, nodes, elapsed_ms,
                         flags)

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


class SearchMeter:
    """Mutable node/time counter checked periodically inside search loops.

    settle(count) takes a search's running node count: past the limit it
    raises, reporting limit + 1, and across a multiple of 4096 it reads the
    clock.  It returns the next multiple of 4096, or limit + 1 if lower.
    """

    __slots__ = ("budget", "nodes", "started", "_limit")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.nodes = 0
        # the time.monotonic() the time budget counts from
        self.started = time.monotonic()
        # Budget is frozen, so the node limit can be read once here.
        self._limit = budget.node_budget

    def settle(self, count: int) -> int:
        if count > self._limit:
            self.nodes = self._limit + 1
            raise self._exceeded(f"node budget {self._limit} exhausted")
        before, self.nodes = self.nodes, count
        if before >> 12 != count >> 12:
            self.check_time()
        return min(((count >> 12) + 1) << 12, self._limit + 1)

    def check_states(self, count: int) -> None:
        """Raise BudgetExceeded if a search over count capped states would
        pass the state cap; called before its engine is built."""
        if count > self.budget.state_cap:
            raise self._exceeded(f"state count {count} over cap {self.budget.state_cap}")

    def check_time(self) -> None:
        if time.monotonic() - self.started > self.budget.time_budget_s:
            raise self._exceeded(f"time budget {self.budget.time_budget_s}s exhausted")

    def elapsed_ms(self) -> int:
        return _ms(self.started)

    def _exceeded(self, message: str) -> BudgetExceeded:
        """The error a spent budget raises, with this search's progress."""
        return BudgetExceeded(message, nodes=self.nodes, elapsed_ms=self.elapsed_ms())


def _solve(what: str, method: str, budget: Budget, formula, brute) -> ConstResult:
    """A constant by method: formula(budget) or brute(budget), each a
    ConstResult, or both, which runs them under one deadline (the brute
    half gets the time the formula half left) and cross-checks them.

    A both result is the brute value with the formula's interval, rule and
    flags, the rule BRUTE where the formula leaves the value open, except
    in a table.  A value off the formula is an internal error naming what,
    or in a table the brute point flagged formula-brute-mismatch.  D(G)'s
    formula interval says only that D(G) is unknown: the brute point
    replaces it."""
    if method == "formula":
        return formula(budget)
    if method == "brute":
        return brute(budget)
    if method != "both":
        raise SpecError(f"unknown method {method!r}")
    meter = SearchMeter(budget)
    f = formula(budget)
    left = budget.time_budget_s - (time.monotonic() - meter.started)
    try:
        b = brute(Budget(budget.node_budget, left, budget.state_cap, budget.threads))
    except BudgetExceeded as exc:
        meter.nodes = exc.nodes
        meter.check_time()  # past the call's deadline: say so
        exc.elapsed_ms = meter.elapsed_ms()
        raise
    v = b.value
    gap = (f"formula {f.value} != brute {v}" if f.value not in (None, v)
           else None if f.lower <= v <= f.upper
           else f"brute {v} outside formula bounds [{f.lower}, {f.upper}]")
    if gap and f.quantity not in TABLES:
        raise RuntimeError(f"internal error: {what} {gap}")
    r = b if gap or f.value is None and f.quantity == "davenport" else f
    rule = r.rule if r.value is not None or r.quantity in TABLES else BRUTE
    flags = r.flags + (("formula-brute-mismatch",) if gap else ())
    return ConstResult(r.quantity, v, r.lower, r.upper, rule, "both", b.nodes,
                       meter.elapsed_ms(), flags)
