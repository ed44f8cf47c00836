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
# one per 256 packed bits of its key, which holds one bit per element of
# the engine's space.  A figure of 256 or less costs 8 bytes, a list slot
# on a cached small int; a larger one about 36, the slot and an int of its
# own.
SEARCH_MEMO_ENTRIES = 10**6


@dataclass(frozen=True)
class Budget:
    """Resource limits for brute-force searches.

    node_budget counts search-tree edges (attempted extensions); time_budget_s
    is wall clock from the start of a search, its setup included (pool tasks
    stop at the search's deadline, not at their own start plus the budget);
    state_cap caps the subset-sum states: the capped states of a search
    engine's space (prod(cap_i) for I(S), |G| for D(G), cap for l-hat and
    l), checked before the engine is built.  The engine's bitsets hold one
    bit per element, under 2^r * prod(cap_i) for rank r.  The one-shot
    predicates never see a Budget: they bound the states their walk reaches
    by their own state_cap argument, default DEFAULT_STATE_CAP.
    threads > 1 fans each probe of an eb brute search out to a process
    pool, one task per first element and at most one worker per task;
    Davenport and l-hat/l searches run in the calling process at any thread
    count.  The CLI, like the library, searches on one thread unless asked
    (--threads N).  The node budget is global: a task reports its count,
    also when it runs out; the caller's meter adds the counts in alphabet
    order up to the first hit and raises, as the serial search would, so
    node counts and budget verdicts are the same at every thread count.
    """

    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget_s: float = DEFAULT_TIME_BUDGET_S
    state_cap: int = DEFAULT_STATE_CAP
    threads: int = 1


class SearchMeter:
    """Mutable node/time counter checked periodically inside search loops.

    tick(k) hands over a batch of k nodes and ends as k single ticks would:
    past the limit it reports limit + 1 nodes, and across a multiple of 4096
    it checks the clock.
    """

    __slots__ = ("budget", "nodes", "started", "_limit")

    def __init__(self, budget: Budget, started: float | None = None):
        self.budget = budget
        self.nodes = 0
        # the time.monotonic() the time budget counts from: now, or the
        # start of the search that a pool task belongs to
        self.started = time.monotonic() if started is None else started
        # Budget is frozen, so the node limit can be read once here.
        self._limit = budget.node_budget

    def tick(self, count: int = 1) -> None:
        before = self.nodes
        self.nodes += count
        if self.nodes > self._limit:
            self.nodes = self._limit + 1
            raise BudgetExceeded(
                f"node budget {self._limit} exhausted",
                nodes=self.nodes,
                elapsed_ms=self.elapsed_ms(),
            )
        # Wall-clock checks are amortized: only every 4096th node looks at
        # the clock.
        if before >> 12 != self.nodes >> 12:
            self.check_time()

    def next_check(self) -> int:
        """The node count at which a batching search must next call tick:
        the next multiple of 4096, or the first count over the limit."""
        return min(((self.nodes >> 12) + 1) << 12, self._limit + 1)

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
