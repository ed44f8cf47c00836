"""Deliberately naive reference implementations for cross-checking.

Everything here enumerates index subsets directly (exponential in sequence
length) and recomputes canonical forms from the k/n definitions, sharing no
code with the package's reachability or search machinery.
"""

import itertools
import math


def canon(k: int, n: int, raw: int) -> int:
    return raw if raw <= k + n - 1 else k + (raw - k) % n


def naive_sigma(coords, terms):
    """coords: [(k, n), ...]; terms: iterable of index tuples."""
    sums = [0] * len(coords)
    for t in terms:
        for i, v in enumerate(t):
            sums[i] += v
    return tuple(canon(k, n, v) for (k, n), v in zip(coords, sums))


def idempotent_of(coords):
    return tuple(-(-k // n) * n for k, n in coords)


def nonempty_subsets(terms):
    terms = list(terms)
    for r in range(1, len(terms) + 1):
        for combo in itertools.combinations(range(len(terms)), r):
            yield [terms[i] for i in combo]


def naive_hits_idempotent(coords, terms) -> bool:
    e = idempotent_of(coords)
    return any(naive_sigma(coords, sub) == e for sub in nonempty_subsets(terms))


def naive_is_free(coords, terms) -> bool:
    return not naive_hits_idempotent(coords, terms)


def naive_is_idempotent_sum(coords, terms) -> bool:
    terms = list(terms)
    return bool(terms) and naive_sigma(coords, terms) == idempotent_of(coords)


def naive_is_minimal(coords, terms) -> bool:
    terms = list(terms)
    if not naive_is_idempotent_sum(coords, terms):
        return False
    e = idempotent_of(coords)
    return not any(
        naive_sigma(coords, sub) == e
        for sub in nonempty_subsets(terms)
        if len(sub) < len(terms)
    )


# --- groups ---------------------------------------------------------------

def naive_zero_sum_free(moduli, terms) -> bool:
    for sub in nonempty_subsets(terms):
        sums = [0] * len(moduli)
        for t in sub:
            for i, v in enumerate(t):
                sums[i] += v
        if all(v % m == 0 for v, m in zip(sums, moduli)):
            return False
    return True


def naive_is_minimal_zero_sum(moduli, terms) -> bool:
    def zero(sub):
        return all(sum(t[i] for t in sub) % m == 0 for i, m in enumerate(moduli))

    terms = list(terms)
    return bool(terms) and zero(terms) and not any(
        zero(sub) for sub in nonempty_subsets(terms) if len(sub) < len(terms))


def naive_invariant_factors(moduli) -> tuple:
    """Invariant factors of Z_{n_1} x ... x Z_{n_r} by primary
    decomposition: for each prime p, the p-parts p^e of the moduli are
    sorted largest first, and the j-th largest invariant factor is the
    product over p of the j-th largest p-part."""
    parts = {}
    for n in moduli:
        for p in range(2, n + 1):
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                parts.setdefault(p, []).append(q)
    width = max((len(qs) for qs in parts.values()), default=0)
    factors = [1] * width
    for qs in parts.values():
        for j, q in enumerate(sorted(qs, reverse=True)):
            factors[j] *= q
    return tuple(sorted(factors))


def naive_davenport(moduli) -> int:
    """1 + the longest zero-sum free length."""
    return naive_davenport_search(moduli)[0]


def naive_davenport_search(moduli):
    """(D, nodes, witness) by plain DFS over non-decreasing sequences of
    nonzero elements: one node per attempted element, and the witness is
    the first longest zero-sum free sequence met."""
    elements = [
        t for t in itertools.product(*(range(m) for m in moduli))
        if any(t)
    ]
    best = []
    nodes = 0

    def extend(seq, start):
        nonlocal best, nodes
        if len(seq) > len(best):
            best = seq
        for i in range(start, len(elements)):
            nodes += 1
            cand = seq + [elements[i]]
            if naive_zero_sum_free(moduli, cand):
                extend(cand, i)

    extend([], 0)
    return len(best) + 1, nodes, tuple(best)


def naive_free_search(coords, length):
    """(found, nodes): does a non-decreasing idempotent-sum free sequence of
    the given length exist over the non-idempotent elements (in tuple
    order)?  Plain DFS that stops at the first one, one node per attempted
    element."""
    e = idempotent_of(coords)
    elements = [t for t in itertools.product(*(range(1, k + n) for k, n in coords))
                if t != e]
    nodes = 0

    def extend(seq, start, left):
        nonlocal nodes
        if left == 0:
            return True
        for i in range(start, len(elements)):
            nodes += 1
            cand = seq + [elements[i]]
            if naive_is_free(coords, cand) and extend(cand, i, left - 1):
                return True
        return False

    return extend([], 0, length), nodes


def _units(n: int):
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1]


def _lpr(v: int, n: int) -> int:
    return (v % n) or n


def naive_l(k: int, n: int) -> int:
    """l over C(k;n): 1 + the longest minimal idempotent-sum sequence without
    minimal-mode structure (0 if none).  Walks every non-decreasing index
    sequence over [1, k + n - 1] whose proper prefixes are free; structure
    is decided from its definition: total exactly cap and behaving for
    k > n, some unit u with the least positive residues of u^-1 v totalling
    n for k <= n."""
    coords = [(k, n)]
    (cap,) = idempotent_of(coords)

    def structured(vals):
        if k > n:
            return sum(vals) == cap and naive_is_behaving(vals)
        return any(sum(_lpr(pow(u, -1, n) * v, n) for v in vals) == n for u in _units(n))

    worst = 0

    def extend(seq, start):
        nonlocal worst
        for v in range(start, k + n):
            cand = seq + [v]
            terms = [(x,) for x in cand]
            if naive_is_minimal(coords, terms):
                if not structured(cand):
                    worst = max(worst, len(cand))
            elif naive_is_free(coords, terms):
                extend(cand, v)

    extend([], 1)
    return worst + 1


def naive_lhat_small_k(n: int) -> int:
    """lhat over C(k;n) for k <= n: 1 + the longest zero-sum free sequence
    over Z_n with no unit multiple behaving with total <= n - 1 (0 if
    none), and 0 for the trivial semigroup (n = 1)."""
    if n == 1:
        return 0

    def structured(residues):
        for u in _units(n):
            hs = [_lpr(pow(u, -1, n) * r, n) for r in residues]
            if sum(hs) <= n - 1 and naive_is_behaving(hs):
                return True
        return False

    worst = 0
    length = 1
    while seqs := enumerate_zsf(n, length):
        if not all(structured(t) for t in seqs):
            worst = length
        length += 1
    return worst + 1


def enumerate_zsf(n: int, length: int):
    """All non-decreasing zero-sum free sequences over Z_n of the given
    length, as tuples of residues in [1, n-1]."""
    out = []

    def extend(seq, start, sums):
        if len(seq) == length:
            out.append(tuple(seq))
            return
        for v in range(start, n):
            fresh = {v % n} | {(p + v) % n for p in sums}
            if 0 in fresh:
                continue
            extend(seq + [v], v, sums | fresh)

    extend([], 1, set())
    return out


# --- subset sums ----------------------------------------------------------

def naive_subset_sums(ints):
    return frozenset(
        sum(v for (v,) in sub) for sub in nonempty_subsets([(v,) for v in ints])
    )


def naive_is_behaving(ints) -> bool:
    ints = list(ints)
    return bool(ints) and naive_subset_sums(ints) == frozenset(range(1, sum(ints) + 1))
