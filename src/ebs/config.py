"""Budget configuration and progress metering for exhaustive searches."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetExceeded

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
# a larger one about 36, the slot and an int of its own.
SEARCH_MEMO_ENTRIES = 10**6


@dataclass(frozen=True)
class Budget:
    """Resource limits for brute-force searches.

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

    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget_s: float = DEFAULT_TIME_BUDGET_S
    state_cap: int = DEFAULT_STATE_CAP
    threads: int = 1


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
            raise BudgetExceeded(
                f"node budget {self._limit} exhausted",
                nodes=self.nodes,
                elapsed_ms=self.elapsed_ms(),
            )
        before, self.nodes = self.nodes, count
        if before >> 12 != count >> 12:
            self.check_time()
        return min(((count >> 12) + 1) << 12, self._limit + 1)

    def check_states(self, count: int) -> None:
        """Raise BudgetExceeded if a search over count capped states would
        pass the state cap; called before its engine is built."""
        if count > self.budget.state_cap:
            raise BudgetExceeded(
                f"state count {count} over cap {self.budget.state_cap}",
                nodes=self.nodes,
                elapsed_ms=self.elapsed_ms(),
            )

    def check_time(self) -> None:
        if time.monotonic() - self.started > self.budget.time_budget_s:
            raise BudgetExceeded(
                f"time budget {self.budget.time_budget_s}s exhausted",
                nodes=self.nodes,
                elapsed_ms=self.elapsed_ms(),
            )

    def elapsed_ms(self) -> int:
        return int((time.monotonic() - self.started) * 1000)
