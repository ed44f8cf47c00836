"""The four workloads of the ebs benchmark.

Each workload turns a seed into a fixed set of inputs (`inputs`), and turns
those inputs into the operations of one pass (`ops`), in an order drawn from
the seed and the pass number.  An operation runs one call into the program
and checks its output, either against the pinned values in `expected.json`
or against a ground truth known by construction.

Calls go through module attributes (`C.eb_bruteforce`, `S.is_idempotent_sum_free`)
so that the traced run sees them once `tracing.Tracer.patch` has wrapped them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import ebs.cli as CLI
import ebs.constants as C
import ebs.sequences as S
import ebs.structure as ST
from ebs.config import Budget
from ebs.semigroup import CyclicSpec, GroupSpec, ProductSpec, format_spec, parse_spec

NPROC = os.cpu_count() or 1


@dataclass
class Op:
    """One closed-loop operation: `run` makes the call, `check` returns an
    error message or None.  `group` names the `cli.*` figure whose time the
    operation adds to (e.g. "budget_exit")."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    group: str = ""


@dataclass
class Workload:
    """A workload of BENCHMARK.json (which also says why it was chosen)."""

    name: str
    inputs: Callable[[int], Any]
    ops: Callable[[Any, "Context"], list[Op]]


@dataclass
class Context:
    """Per-pass state handed to a workload: its seed, the pass number, the
    pinned values, a scratch directory, and how the CLI is invoked."""

    seed: int
    pass_no: int
    pins: dict
    workdir: Path
    src: Path
    in_process_cli: bool = False
    threads: int = NPROC
    cli_exits: dict = field(default_factory=dict)


def rng_for(seed: int, *salt) -> random.Random:
    return random.Random(repr((seed,) + salt))


def result_row(r) -> list:
    return [r.value, r.lower, r.upper, r.rule, r.nodes, list(r.flags)]


def pinned(pins: dict, key: str) -> Callable[[Any], str | None]:
    want = pins[key]

    def check(r) -> str | None:
        got = result_row(r)
        return None if got == want else f"{key}: got {got}, pinned {want}"

    return check


# ---------------------------------------------------------------------------
# rank2_sweep

def rank2_grid(max_elements: int = 20) -> list[ProductSpec]:
    """All ordered rank-two specs with at most max_elements elements (the
    acceptance grid of the test suite)."""
    out = []
    for s1 in range(1, max_elements + 1):
        for s2 in range(1, max_elements // s1 + 1):
            for n1 in range(1, s1 + 1):
                for n2 in range(1, s2 + 1):
                    out.append(ProductSpec.of((s1 + 1 - n1, n1), (s2 + 1 - n2, n2)))
    return out


def _rank2_ops(specs, ctx: Context) -> list[Op]:
    budget = Budget(threads=1)
    order = list(specs)
    rng_for(ctx.seed, "rank2", ctx.pass_no).shuffle(order)
    pins = ctx.pins["rank2_sweep"]["results"]
    return [
        Op(f"eb both {format_spec(s)}",
           lambda s=s: C.erdos_burgess(s, "both", budget),
           pinned(pins, format_spec(s)))
        for s in order
    ]


# ---------------------------------------------------------------------------
# deep_search

# seven operations, so that the median latency is one sub-second search's
DEEP_EB = ("C(4;3)xC(2;5)", "C(1;3)xC(1;3)xC(1;3)", "C(2;4)xC(3;4)",
           "C(1;2)xC(1;2)xC(1;6)", "C(4;2)xC(1;6)")
DEEP_DAVENPORT = ((3, 3, 3), (2, 2, 6))


def _deep_inputs(seed: int):
    return [parse_spec(t) for t in DEEP_EB], [GroupSpec(g) for g in DEEP_DAVENPORT]


def _deep_ops(inputs, ctx: Context) -> list[Op]:
    specs, groups = inputs
    budget = Budget(threads=ctx.threads)
    pins = ctx.pins["deep_search"]["results"]
    ops = [Op(f"eb brute {format_spec(s)}",
              lambda s=s: C.eb_bruteforce(s, budget),
              pinned(pins, f"eb {format_spec(s)}"))
           for s in specs]
    ops += [Op(f"davenport brute {g.periods}",
               lambda g=g: C.davenport(g, "brute", budget),
               pinned(pins, f"davenport {','.join(map(str, g.periods))}"))
            for g in groups]
    rng_for(ctx.seed, "deep", ctx.pass_no).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# structure_check: independent ground truth for seeded sequences

# spec: sequence lengths for the free, planted, minimal and doubled-minimal
# kinds; fixed so that a pass costs about the same for every seed
SPARSE_SPECS = {"C(40;11)xC(25;13)": (36, 40, 20, 10),
                "C(5;2)xC(4;3)xC(3;5)xC(2;7)": (6, 24, 7, 5)}
CLASSIFY_GT = ((40, 11), (25, 13), (61, 4))   # k > n
CLASSIFY_LE = ((5, 29), (17, 41), (1, 53))    # k <= n
SAVCHEV_N = (37, 64, 97)
PER_KIND = 8


def _sizes(s: ProductSpec):
    return [c.k + c.n - 1 for c in s.coords]


def _is_idempotent_profile(s: ProductSpec, terms) -> bool:
    """Raw per-coordinate totals reach cap and are divisible by n."""
    totals = [sum(t[i] for t in terms) for i in range(s.arity)]
    return all(v >= c.cap and v % c.n == 0 for v, c in zip(totals, s.coords))


def _complete(s: ProductSpec, head: list, fixed: dict) -> tuple:
    """A last term making head + [term] sum to the idempotent; coordinates in
    `fixed` take the given value (the caller guarantees they already land)."""
    term = []
    for i, c in enumerate(s.coords):
        if i in fixed:
            term.append(fixed[i])
            continue
        total = sum(t[i] for t in head)
        if total >= c.cap:
            term.append((-total) % c.n or c.n)
        else:
            term.append(c.cap - total)
    return tuple(term)


def _composition(rng: random.Random, total: int, parts: int, top: int) -> list[int]:
    """`parts` positive integers, each at most `top`, summing to `total`."""
    vals = [1] * parts
    left = total - parts
    while left:
        i = rng.randrange(parts)
        if vals[i] < top:
            vals[i] += 1
            left -= 1
    return vals


def free_seq(s: ProductSpec, rng: random.Random, length: int) -> list[tuple]:
    """Free by construction: in a blocking coordinate either the raw total
    stays below cap, or every residue is one unit u with fewer than n copies,
    so no subsequence total there is a positive multiple of n at or above cap.
    The length shrinks only when no coordinate can block that many terms."""
    sizes = _sizes(s)
    options = [(i, "total") for i, c in enumerate(s.coords) if c.cap - 1 >= length]
    options += [(i, "unit") for i, c in enumerate(s.coords) if 1 < c.n and c.n - 1 >= length]
    if not options:
        i = max(range(s.arity), key=lambda j: s.coords[j].cap)
        options, length = [(i, "total")], s.coords[i].cap - 1
    i, how = rng.choice(options)
    c = s.coords[i]
    if how == "total":
        col = _composition(rng, rng.randint(length, c.cap - 1), length, sizes[i])
    else:
        u = rng.choice([v for v in range(1, c.n) if math.gcd(v, c.n) == 1])
        col = [rng.choice(range(u, sizes[i] + 1, c.n)) for _ in range(length)]
    return [tuple(col[j] if k == i else rng.randint(1, sizes[k]) for k in range(s.arity))
            for j in range(length)]


def minimal_seq(s: ProductSpec, rng: random.Random, length: int) -> list[tuple]:
    """Minimal idempotent sum by construction: one coordinate's raw values
    sum to exactly cap (so every proper subsequence falls short there) and
    the last term completes every other coordinate."""
    sizes = _sizes(s)
    fits = [i for i, c in enumerate(s.coords) if c.cap >= length]
    i = rng.choice(fits) if fits else max(range(s.arity), key=lambda j: s.coords[j].cap)
    c = s.coords[i]
    length = min(length, c.cap)
    col = _composition(rng, c.cap, length, sizes[i])
    head = [tuple(col[j] if k == i else rng.randint(1, sizes[k]) for k in range(s.arity))
            for j in range(length - 1)]
    return head + [_complete(s, head, {i: col[-1]})]


def planted_seq(s: ProductSpec, rng: random.Random, length: int) -> list[tuple]:
    """Not free: a few random terms plus a completing term sum to the
    idempotent, padded with random terms."""
    sizes = _sizes(s)
    k = rng.randint(1, 4)
    head = [tuple(rng.randint(1, z) for z in sizes) for _ in range(k)]
    planted = head + [_complete(s, head, {})]
    pad = [tuple(rng.randint(1, z) for z in sizes) for _ in range(max(0, length - len(planted)))]
    return planted + pad


def behaving_ints(rng: random.Random, length: int, max_total: int) -> list[int]:
    """Sorted positive integers whose subset sums fill [1, total], total at
    most max_total: grown by random increments that keep that property."""
    vals = [1] * length
    for _ in range(4 * length):
        j = rng.randrange(length)
        trial = sorted(vals[:j] + [vals[j] + 1] + vals[j + 1:])
        if sum(trial) <= max_total and _behaves(trial):
            vals = trial
    return vals


def _behaves(vals) -> bool:
    reach = 0
    for v in sorted(vals):
        if v > reach + 1:
            return False
        reach += v
    return True


def _check_free(expected: bool):
    def check(got):
        return None if got is expected else f"free: got {got}, expected {expected}"
    return check


def _check_witness(s: ProductSpec, terms, expect_none: bool):
    def check(w):
        if expect_none:
            return None if w is None else f"witness {w} for a free sequence"
        if w is None:
            return "no witness for a non-free sequence"
        pool = list(terms)
        for t in w:
            if t not in pool:
                return f"witness term {t} not in the sequence"
            pool.remove(t)
        if not _is_idempotent_profile(s, list(w)):
            return "witness does not sum to the idempotent"
        return None
    return check


def _check_classify(c: CyclicSpec, vals):
    n = c.n

    def check(res):
        if res.tag != ST.BEHAVING_I:
            return f"classify {format_spec(c.as_product())}: tag {res.tag}"
        h = list(res.h.entries)
        if c.k > n:
            return None if res.c == 1 and h == sorted(vals) else f"classify witness {res.c} {h}"
        ok = (math.gcd(res.c, n) == 1 and sum(h) <= n - 1 and _behaves(h)
              and sorted(res.c * x % n for x in h) == sorted(v % n for v in vals))
        return None if ok else f"classify witness {res.c} {h}"
    return check


def _check_savchev(n: int, residues):
    def check(out):
        if out is None:
            return f"savchev_chen mod {n}: no decomposition"
        c, h = out
        h = list(h.entries)
        ok = (math.gcd(c, n) == 1 and sum(h) <= n - 1 and _behaves(h)
              and sorted(c * x % n for x in h) == sorted(residues))
        return None if ok else f"savchev_chen mod {n}: bad witness {c} {h}"
    return check


def _structure_inputs(seed: int):
    rng = rng_for(seed, "structure")
    seqs = []   # (kind, spec, terms)
    for text, (free, planted, minimal, half) in SPARSE_SPECS.items():
        s = parse_spec(text)
        for _ in range(PER_KIND):
            seqs.append(("free", s, free_seq(s, rng, free)))
            seqs.append(("planted", s, planted_seq(s, rng, planted)))
            seqs.append(("minimal", s, minimal_seq(s, rng, minimal)))
            seqs.append(("double", s, minimal_seq(s, rng, half) + minimal_seq(s, rng, half)))
    long_free = []   # (CyclicSpec, index values)
    for k, n in CLASSIFY_GT:
        c = CyclicSpec(k, n)
        lo = ST.classify_threshold(c)
        for _ in range(PER_KIND):
            long_free.append((c, behaving_ints(rng, rng.randint(lo, lo + 3), c.cap - 1)))
    for k, n in CLASSIFY_LE:
        c = CyclicSpec(k, n)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for _ in range(PER_KIND):
            h = behaving_ints(rng, rng.randint(n // 2 + 1, n // 2 + 4), n - 1)
            u = rng.choice(units)
            long_free.append((c, [u * x % n for x in h]))
    zsf = []   # (n, residues)
    for n in SAVCHEV_N:
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for _ in range(PER_KIND):
            h = behaving_ints(rng, rng.randint(n // 2 + 1, n // 2 + 6), n - 1)
            u = rng.choice(units)
            zsf.append((n, sorted(u * x % n for x in h)))
    grid = [CyclicSpec(1, n) for n in range(1, 17)]
    grid += [CyclicSpec(k, n) for n in range(1, 8) for k in range(n + 1, 17)]
    return grid, seqs, long_free, zsf


def _structure_ops(inputs, ctx: Context) -> list[Op]:
    grid, seqs, long_free, zsf = inputs
    budget = Budget(threads=1)
    pins = ctx.pins["structure_check"]["results"]
    ops = []
    for c in grid:
        label = format_spec(c.as_product())
        ops.append(Op(f"lhat both {label}", lambda c=c: ST.lhat(c, "both", budget),
                      pinned(pins, f"lhat {label}")))
        ops.append(Op(f"l both {label}", lambda c=c: ST.l_const(c, "both", budget),
                      pinned(pins, f"l {label}")))
    for kind, s, terms in seqs:
        t = S.Seq(tuple(terms))
        label = f"{kind} {format_spec(s)} len {len(terms)}"
        if kind in ("free", "planted"):
            free = kind == "free"
            ops.append(Op(f"is_free {label}", lambda s=s, t=t: S.is_idempotent_sum_free(s, t),
                          _check_free(free)))
            ops.append(Op(f"witness {label}", lambda s=s, t=t: S.idempotent_witness(s, t),
                          _check_witness(s, terms, free)))
        else:
            minimal = kind == "minimal"
            ops.append(Op(f"is_minimal {label}",
                          lambda s=s, t=t: S.is_minimal_idempotent_sum(s, t),
                          _check_free(minimal)))
    for c, vals in long_free:
        t = S.Seq(tuple((v,) for v in vals))
        ops.append(Op(f"classify {format_spec(c.as_product())} len {len(vals)}",
                      lambda c=c, t=t: ST.classify_free_sequence(c, t),
                      _check_classify(c, vals)))
    for n, residues in zsf:
        ops.append(Op(f"savchev_chen Z{n} len {len(residues)}",
                      lambda n=n, r=residues: ST.savchev_chen(n, r),
                      _check_savchev(n, residues)))
    rng_for(ctx.seed, "structure", ctx.pass_no).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_session

CLI_MISS = ["const", "eb", "--spec", "C(2;4)xC(3;4)", "--method", "both", "--json"]
# name: (group, argv); outputs pinned in expected.json
CLI_PINNED = {
    "formula_fallback C(2;2)xC(1;2)xC(1;6)": ("formula_fallback", [
        "const", "eb", "--spec", "C(2;2)xC(1;2)xC(1;6)", "--method", "formula", "--json"]),
    "formula_fallback C(1;6)^3 time-budget 1": ("formula_fallback", [
        "const", "eb", "--spec", "C(1;6)xC(1;6)xC(1;6)", "--method", "formula",
        "--time-budget", "1", "--json"]),
    "budget_exit C(20;1)xC(1;19) node-budget 1000": ("budget_exit", [
        "const", "eb", "--spec", "C(20;1)xC(1;19)", "--method", "brute",
        "--node-budget", "1000"]),
    "davenport formula 2,2,6": ("", [
        "const", "davenport", "--group", "2,2,6", "--method", "formula", "--json"]),
    "lhat formula C(7;2)": ("", ["const", "lhat", "--spec", "C(7;2)", "--json"]),
    "l formula C(7;2)": ("", ["const", "l", "--spec", "C(7;2)", "--json"]),
}
CLI_SEQ_SPEC = "C(40;11)xC(25;13)"
CLI_CLASSIFY = CyclicSpec(40, 11)
CLI_SAVCHEV_N = 37


def cache_path(ctx: Context) -> Path:
    """The result cache of one pass; it starts absent, so the first call misses."""
    return ctx.workdir / f"cache-{ctx.pass_no}.json"


def run_cli(ctx: Context, argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one `ebs` invocation: a real process, or
    `ebs.cli.main` in this process for the traced run."""
    if ctx.in_process_cli:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = CLI.main(argv)
        return code, out.getvalue()
    env = dict(os.environ, PYTHONPATH=str(ctx.src))
    env.pop("EBS_CACHE", None)
    env.pop("EBS_THREADS", None)
    proc = subprocess.run([sys.executable, "-m", "ebs.cli"] + argv, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _cli_check(ctx: Context, want: dict, verify=None):
    """Exit code and pinned fields as in `want`; then `verify(parsed JSON)`."""
    def check(outcome):
        code, out = outcome
        ctx.cli_exits[code] = ctx.cli_exits.get(code, 0) + 1
        if code != want["exit"]:
            return f"exit {code}, expected {want['exit']}"
        if "result" not in want and verify is None:
            return None
        got = json.loads(out)
        for key, val in want.get("result", {}).items():
            if got.get(key) != val:
                return f"{key}: got {got.get(key)!r}, pinned {val!r}"
        return verify(got) if verify else None
    return check


def _seq_verify(s, terms, predicate, expected):
    def verify(got):
        if got["result"] is not expected or got["length"] != len(terms):
            return f"seq check {predicate}: got {got['result']}, expected {expected}"
        if predicate == "free" and not expected:
            return _check_witness(s, terms, False)([tuple(w) for w in got["witness"]])
        return None
    return verify


def _cli_inputs(seed: int):
    rng = rng_for(seed, "cli")
    s = parse_spec(CLI_SEQ_SPEC)
    seqs = {"free": free_seq(s, rng, 16), "planted": planted_seq(s, rng, 16),
            "minimal": minimal_seq(s, rng, 10)}
    pairs = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
    spec_text = " x ".join(f"C( {k} ;{n})" for k, n in pairs)
    behaving = behaving_ints(rng, 8, 30)
    c = CLI_CLASSIFY
    long_free = behaving_ints(rng, ST.classify_threshold(c), c.cap - 1)
    n = CLI_SAVCHEV_N
    u = rng.choice([v for v in range(2, n) if math.gcd(v, n) == 1])
    zsf = sorted(u * x % n for x in behaving_ints(rng, n // 2 + 2, n - 1))
    return s, seqs, spec_text, behaving, long_free, zsf


def _cli_ops(inputs, ctx: Context) -> list[Op]:
    s, seqs, spec_text, behaving, long_free, zsf = inputs
    pins = ctx.pins["cli_session"]["results"]

    def op(name, argv, want, verify=None, group=""):
        return Op(name, lambda: run_cli(ctx, argv), _cli_check(ctx, want, verify), group)

    def write(name, terms):
        path = ctx.workdir / f"{name}-{ctx.pass_no}.txt"
        path.write_text("".join(",".join(map(str, t)) + "\n" for t in terms))
        return str(path)

    cache = cache_path(ctx)
    if cache.exists():
        cache.unlink()
    miss = CLI_MISS + ["--cache", str(cache)]
    ok = {"exit": 0}
    units = [[op("cache_miss", miss, pins["cache_miss"]),
              op("cache_hit", miss, pins["cache_miss"], group="cache_hit")]]
    units += [[op(name, argv, pins[name], group=group)]
              for name, (group, argv) in CLI_PINNED.items()]
    for kind, terms in seqs.items():
        predicate = "minimal" if kind == "minimal" else "free"
        argv = ["seq", "check", "--spec", CLI_SEQ_SPEC, "--file", write(kind, terms),
                "--predicate", predicate, "--json"]
        units.append([op(f"seq check {kind}", argv, ok,
                         _seq_verify(s, terms, predicate, kind != "planted"))])
    spec = parse_spec(spec_text)
    parsed = {"exit": 0, "result": {
        "spec": format_spec(spec),
        "elements": math.prod(c.k + c.n - 1 for c in spec.coords),
        "idempotent": [-(-c.k // c.n) * c.n for c in spec.coords]}}
    units.append([op("spec parse", ["spec", "parse", "--spec", spec_text, "--json"], parsed)])
    units.append([Op("spec format", lambda: run_cli(ctx, ["spec", "format", "--spec", spec_text]),
                     lambda out: (_cli_check(ctx, ok)(out)
                                  or (None if out[1].strip() == format_spec(spec)
                                      else f"spec format printed {out[1]!r}")))])
    ints = ",".join(map(str, behaving))
    units.append([op("struct behaving", ["struct", "behaving", "--ints", ints, "--json"],
                     {"exit": 0, "result": {"behaving": True, "class": "behaving"}})])
    c = CLI_CLASSIFY
    argv = ["struct", "classify", "--spec", format_spec(c.as_product()),
            "--file", write("classify", [(v,) for v in long_free]), "--json"]
    units.append([op("struct classify", argv, {"exit": 0, "result": {
        "tag": ST.BEHAVING_I, "c": 1, "H": sorted(long_free)}})])
    n = CLI_SAVCHEV_N
    argv = ["struct", "savchev-chen", "--group", str(n), "--ints", ",".join(map(str, zsf)),
            "--json"]
    units.append([op("struct savchev-chen", argv, ok,
                     lambda got: _check_savchev(n, zsf)(
                         (got["c"], ST.IntSeq(tuple(got["H"]))) if "c" in got else None))])
    rng_for(ctx.seed, "cli", ctx.pass_no).shuffle(units)
    return [o for unit in units for o in unit]


WORKLOADS = {
    w.name: w for w in (
        Workload("rank2_sweep", lambda seed: rank2_grid(20), _rank2_ops),
        Workload("deep_search", _deep_inputs, _deep_ops),
        Workload("structure_check", _structure_inputs, _structure_ops),
        Workload("cli_session", _cli_inputs, _cli_ops),
    )
}
