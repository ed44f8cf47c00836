"""Command-line front end.

Subcommands mirror the library: spec parsing, constants (with an optional
JSON result cache), sequence predicates, structure tools, and batch
explorers.  Exit codes: 0 success, 1 usage or input error, 2 budget
exhausted, 3 an explore report with soundness bugs or anomalies.

Only config, errors and semigroup are imported up front; each handler
imports the library layers it runs, so that a short command such as
--version, spec parse or a cache hit starts without the search code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import __version__
from .config import DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET_S, Budget
from .errors import BudgetExceeded, PreconditionError, SeqFileError, SpecError
from .semigroup import GroupSpec, element_count, format_spec, idempotent, parse_spec


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the budget code owns 2
    here, so usage problems are rerouted through the normal error path."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _budget(args) -> Budget:
    """The one Budget of a run, from its budget options."""
    if args.node_budget < 1 or args.time_budget < 1:
        raise SpecError("budgets must be positive")
    return Budget(node_budget=args.node_budget, time_budget_s=float(args.time_budget))


def _parse_ints(text: str,
                what: str = "expected a comma-separated integer list") -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise SpecError(f"{what}, got {text!r}")


def _parse_group(text: str) -> GroupSpec:
    return GroupSpec(_parse_ints(text, "group must be a comma-separated modulus list"))


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _result_lines(d: dict) -> list[str]:
    order = ("spec", "quantity", "method", "value", "lower", "upper", "rule",
             "nodes", "elapsed_ms", "flags", "invariant_factors")
    lines = [f"{key}: {d[key]}" for key in order if key in d]
    lines += [f"{key}: {d[key]}" for key in sorted(d) if key not in order]
    return lines


# ---------------------------------------------------------------------------
# result cache

def _cache_read(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return data if isinstance(data, dict) else {}
    except FileNotFoundError:
        return {}
    except (OSError, ValueError):
        print(f"warning: ignoring unreadable cache {path}", file=sys.stderr)
        return {}


def _cache_write(path: str, store: dict) -> None:
    """Replace the cache file in one step, so that a reader never sees a
    half-written store: write a temp file beside it, then rename it over."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _cached(args, label: str, quantity: str, method: str, compute) -> dict:
    """The result of compute(), through the --cache file when one is given.

    The key ignores the budget, so a result flagged davenport-inexact (the
    Davenport constant left as an interval, which a larger budget may
    resolve) is returned but never stored.  An entry of another version, or
    without a result dict, is a miss: it is recomputed and overwritten.
    """
    if not args.cache:
        return compute()
    store = _cache_read(args.cache)
    key = f"{label}|{quantity}|{method}"
    entry = store.get(key)
    if (isinstance(entry, dict) and entry.get("version") == __version__
            and isinstance(entry.get("result"), dict)):
        return entry["result"]
    result = compute()
    if "davenport-inexact" in result.get("flags", ()):
        return result
    store[key] = {"version": __version__, "result": result}
    try:
        _cache_write(args.cache, store)
    except OSError as exc:
        # the result is still good; only reuse is lost
        print(f"warning: could not write cache {args.cache}: {exc.strerror or exc}",
              file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_spec(args) -> int:
    s = parse_spec(args.spec)
    label = format_spec(s)
    if args.action == "format":
        print(label)
        return 0
    payload = {
        "spec": label,
        "arity": s.arity,
        "elements": element_count(s),
        "idempotent": list(idempotent(s)),
    }
    _emit(args, payload, _result_lines(payload))
    return 0


def _single_cyclic(text: str):
    s = parse_spec(text)
    if s.arity != 1:
        raise SpecError("this quantity is defined for a single C(k;n) factor")
    return s.coords[0]


def _cmd_const(args) -> int:
    budget = _budget(args)
    quantity = args.quantity
    if quantity == "davenport":
        g = _parse_group(args.group)
        label = "Z(" + ",".join(map(str, g.periods)) + ")"

        def compute() -> dict:
            from .constants import davenport, invariant_factors

            d = davenport(g, args.method, budget).to_dict(label)
            d["invariant_factors"] = list(invariant_factors(g))
            return d

    elif quantity == "eb":
        s = parse_spec(args.spec)
        label = format_spec(s)

        def compute() -> dict:
            from .constants import erdos_burgess

            return erdos_burgess(s, args.method, budget).to_dict(label)

    else:
        c = _single_cyclic(args.spec)
        label = format_spec(c.as_product())

        def compute() -> dict:
            from .structure import l_const, lhat

            fn = lhat if quantity == "lhat" else l_const
            return fn(c, args.method, budget).to_dict(label)

    d = _cached(args, label, quantity, args.method, compute)
    _emit(args, d, _result_lines(d))
    return 0


def _cmd_seq(args) -> int:
    from .sequences import (
        format_seq,
        idempotent_witness,
        is_idempotent_sum,
        is_minimal_idempotent_sum,
        read_seq_file,
    )

    s = parse_spec(args.spec)
    t = read_seq_file(s, args.file)
    predicate = args.predicate
    if predicate == "free":
        # one walk gives both the verdict and the witness printed with it
        witness = idempotent_witness(s, t)
        verdict = witness is None
    elif predicate == "idempotent":
        verdict = is_idempotent_sum(s, t)
    else:
        verdict = is_minimal_idempotent_sum(s, t)
    payload = {
        "spec": format_spec(s),
        "predicate": predicate,
        "length": len(t),
        "result": verdict,
    }
    lines = [f"{k}: {payload[k]}" for k in ("spec", "predicate", "length")]
    lines.append(f"result: {'true' if verdict else 'false'}")
    if predicate == "free" and not verdict:
        payload["witness"] = [list(term) for term in witness]
        lines.append("witness:")
        lines.extend(format_seq(witness).splitlines())
    _emit(args, payload, lines)
    return 0


def _cmd_struct(args) -> int:
    from .sequences import read_seq_file
    from .structure import (
        IntSeq,
        behaving_bound_classify,
        classify_free_sequence,
        is_behaving,
        savchev_chen,
    )

    if args.action == "behaving":
        h = IntSeq(_parse_ints(args.ints))
        payload = {
            "ints": list(h.entries),
            "behaving": is_behaving(h),
            "class": behaving_bound_classify(h),
        }
        _emit(args, payload, [f"ints: {','.join(map(str, h.entries))}",
                              f"behaving: {str(payload['behaving']).lower()}",
                              f"class: {payload['class']}"])
        return 0
    if args.action == "classify":
        c = _single_cyclic(args.spec)
        t = read_seq_file(c.as_product(), args.file)
        res = classify_free_sequence(c, t)
        payload = {"spec": format_spec(c.as_product()), **res.to_dict()}
        lines = [f"spec: {payload['spec']}", f"tag: {payload['tag']}",
                 f"c: {payload['c']}",
                 f"H: {','.join(map(str, payload['H'])) if payload['H'] else None}",
                 f"threshold_met: {str(payload['threshold_met']).lower()}"]
        _emit(args, payload, lines)
        return 0
    # savchev-chen
    g = _parse_group(args.group)
    if len(g.periods) != 1:
        raise SpecError("savchev-chen takes a single modulus")
    n = g.periods[0]
    out = savchev_chen(n, _parse_ints(args.ints))
    if out is None:
        payload = {"modulus": n, "result": None}
        _emit(args, payload, [f"modulus: {n}", "result: none"])
        return 0
    c, h = out
    payload = {"modulus": n, "c": c, "H": list(h.entries)}
    _emit(args, payload, [f"modulus: {n}", f"c: {c}",
                          f"H: {','.join(map(str, h.entries))}"])
    return 0


def _cmd_explore(args) -> int:
    budget = _budget(args)
    if args.max_k < 1 or args.max_n < 1:
        raise SpecError("--max-k and --max-n must be positive")
    # opened before the search, so that a bad path costs no search time
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.kind == "conjecture41":
            from .constants import explore_conjecture

            report = explore_conjecture(args.max_k, args.max_n, budget)
        else:
            from .structure import structure_gap_report

            quantity = "lhat" if args.kind == "lhat-gap" else "l"
            report = structure_gap_report(quantity, args.max_k, args.max_n, budget)
        fh.write("".join(json.dumps(row, sort_keys=True) + "\n" for row in report["rows"]))
    summary = report["summary"]
    print("summary: " + " ".join(f"{k}={summary[k]}" for k in sorted(summary)))
    return 3 if summary.get("soundness_bugs") or summary.get("anomalies") else 0


# ---------------------------------------------------------------------------
# parser wiring

def _add_options(p: argparse.ArgumentParser, json_flag: bool = True, budget: bool = False,
                 cache: bool = False) -> None:
    if json_flag:
        p.add_argument("--json", action="store_true", help="emit one JSON object")
    if budget:
        p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                       dest="node_budget")
        p.add_argument("--time-budget", type=int, default=int(DEFAULT_TIME_BUDGET_S),
                       dest="time_budget", help="seconds")
    if cache:
        p.add_argument("--cache", default=None, help="path to a JSON result cache")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ebs", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ebs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    spec_p = sub.add_parser("spec", help="parse and normalize product specs")
    spec_sub = spec_p.add_subparsers(dest="action", required=True)
    for action in ("parse", "format"):
        ap = spec_sub.add_parser(action)
        ap.add_argument("--spec", required=True)
        _add_options(ap, json_flag=action == "parse")
        ap.set_defaults(handler=_cmd_spec, action=action)

    const_p = sub.add_parser("const", help="compute a constant")
    const_sub = const_p.add_subparsers(dest="quantity", required=True)
    for quantity in ("eb", "davenport", "lhat", "l"):
        cp = const_sub.add_parser(quantity)
        if quantity == "davenport":
            cp.add_argument("--group", required=True,
                            help="comma-separated moduli, e.g. 2,4")
        else:
            cp.add_argument("--spec", required=True)
        cp.add_argument("--method", choices=("formula", "brute", "both"),
                        default="formula")
        _add_options(cp, budget=True, cache=True)
        cp.set_defaults(handler=_cmd_const, quantity=quantity)

    seq_p = sub.add_parser("seq", help="sequence predicates")
    seq_sub = seq_p.add_subparsers(dest="action", required=True)
    sp = seq_sub.add_parser("check")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--file", required=True)
    sp.add_argument("--predicate", choices=("free", "idempotent", "minimal"),
                    required=True)
    _add_options(sp)
    sp.set_defaults(handler=_cmd_seq)

    struct_p = sub.add_parser("struct", help="structure tools")
    struct_sub = struct_p.add_subparsers(dest="action", required=True)
    bp = struct_sub.add_parser("behaving")
    bp.add_argument("--ints", required=True)
    _add_options(bp)
    bp.set_defaults(handler=_cmd_struct, action="behaving")
    clp = struct_sub.add_parser("classify")
    clp.add_argument("--spec", required=True)
    clp.add_argument("--file", required=True)
    _add_options(clp)
    clp.set_defaults(handler=_cmd_struct, action="classify")
    scp = struct_sub.add_parser("savchev-chen")
    scp.add_argument("--group", required=True, help="single modulus n")
    scp.add_argument("--ints", required=True)
    _add_options(scp)
    scp.set_defaults(handler=_cmd_struct, action="savchev-chen")

    explore_p = sub.add_parser("explore", help="batch reports")
    explore_sub = explore_p.add_subparsers(dest="kind", required=True)
    for kind in ("conjecture41", "lhat-gap", "l-gap"):
        ep = explore_sub.add_parser(kind)
        ep.add_argument("--max-k", type=int, required=True, dest="max_k")
        ep.add_argument("--max-n", type=int, required=True, dest="max_n")
        ep.add_argument("--out", default=None, help="JSON-lines report path")
        _add_options(ep, json_flag=False, budget=True)
        ep.set_defaults(handler=_cmd_explore, kind=kind)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (_UsageError, SpecError, SeqFileError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc} (nodes {exc.nodes}, elapsed {exc.elapsed_ms} ms)",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
