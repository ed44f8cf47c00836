"""ebs benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload rank2_sweep --seed 1 --seconds 15 --trace 0

A run is a closed loop (one caller; each operation starts when the previous
one returns).  Operations are grouped in passes; a pass is the workload's
whole verified batch.  With --trace 0 the run starts passes until --seconds
have gone by, so it ends within one pass after that, and reports the
end-to-end metrics.  With
--trace 1 it makes a warm-up pass, an untraced pass and a traced pass (plus,
on deep_search, a serial pass for the scaling efficiency) and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json.  Every
operation's output is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed, metrics.
`--pin` recomputes perfbench/expected.json from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 7
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
MAX = 100.0


def _load_program():
    """Import ebs from this checkout's src/ and nowhere else."""
    if not (SRC / "ebs" / "__init__.py").is_file():
        sys.exit(f"error: no ebs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import ebs
    if Path(ebs.__file__).resolve().parent != (SRC / "ebs").resolve():
        sys.exit(f"error: imported ebs from {ebs.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# passes

class Pass:
    """One pass: raw per-operation latencies and the pass wall (operations
    plus their checks), and the same scaled to the reference speed when the
    pass was calibrated."""

    def __init__(self):
        self.wall = 0.0
        self.latencies: list[float] = []
        self.scaled_wall = 0.0
        self.scaled_latencies: list[float] = []
        self.groups: dict[str, float] = {}
        self.failures: list[str] = []
        self.results: dict[str, list] = {}

    def digest(self) -> str:
        """Order-independent digest of the library results (values, rules,
        node counts) of the pass."""
        blob = json.dumps(sorted(self.results.items()))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_pass(ops, tracer=None, cal=None, between=None) -> Pass:
    p = Pass()
    segments = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if between is not None:
            between()
        k = cal.before_op() if cal is not None else -1
        t = time.perf_counter()
        try:
            out = op.run()
            dt = time.perf_counter() - t
            err = op.check(out)
            if hasattr(out, "rule") and hasattr(out, "nodes"):
                p.results[op.name] = [out.value, out.lower, out.upper, out.rule, out.nodes,
                                      list(out.flags)]
        except Exception as exc:  # an operation that raises counts as failed
            dt = time.perf_counter() - t
            err = f"{type(exc).__name__}: {exc}"
        segments.append((dt, time.perf_counter() - t, k))
        if op.group:
            p.groups[op.group] = p.groups.get(op.group, 0.0) + dt
        if err:
            p.failures.append(f"{op.name}: {err}")
    p.latencies = [dt for dt, _, _ in segments]
    p.wall = sum(seg for _, seg, _ in segments)
    if cal is not None:
        cal.read()
        p.scaled_latencies = [dt * cal.factor(k) for dt, _, k in segments]
        p.scaled_wall = sum(seg * cal.factor(k) for _, seg, k in segments)
    return p


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(ops_per_pass: int) -> float:
    """Highest candidate percentile with at least 10 samples beyond it in one
    pass (fixed per workload, so it does not flip with the pass count).  A
    workload with too few operations for that reports its slowest one."""
    for p in TAIL_CANDIDATES:
        if ops_per_pass * (1 - p / 100) >= 10:
            return p
    return MAX


# ---------------------------------------------------------------------------
# environment figures

def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


class SetupSampler:
    """Wall times of fresh processes that import ebs and build the inputs
    (for cli_session: `ebs --version`).  A measured run takes them one at a
    time between operations, spread over the run, so that their median does
    not depend on how busy the machine was in one particular second."""

    def __init__(self, workload: str, seed: int, span_s: float = 0.0):
        if workload == "cli_session":
            self.argv = [sys.executable, "-m", "ebs.cli", "--version"]
        else:
            self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                         "--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.interval = span_s / SETUP_REPEATS
        self.times: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(self.argv, env=self.env, check=True, stdout=subprocess.DEVNULL)
        self._last = time.perf_counter()
        self.times.append(self._last - t)

    def between_ops(self) -> None:
        if len(self.times) < SETUP_REPEATS and time.perf_counter() - self._last >= self.interval:
            self.sample()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return self.times


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "ebs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# runs

def measured_run(wl, inputs, seed, seconds, pins, workdir, cal, setup):
    from workloads import Context
    passes = []
    start = time.perf_counter()
    while True:
        ctx = Context(seed, len(passes), pins, workdir, SRC)
        passes.append(run_pass(wl.ops(inputs, ctx), cal=cal, between=setup.between_ops))
        if time.perf_counter() - start >= seconds:
            return passes


def traced_run(wl, inputs, seed, pins, workdir):
    from tracing import Tracer, layer_metrics
    from workloads import Context, cache_path
    in_proc = wl.name == "cli_session"
    # the first pass of a process runs slower, so neither compared pass is it
    passes = [run_pass(wl.ops(inputs, Context(seed, n, pins, workdir, SRC,
                                              in_process_cli=in_proc)))
              for n in (0, 1)]
    plain = passes[1]
    tracer = Tracer()
    ctx = Context(seed, 2, pins, workdir, SRC, in_process_cli=in_proc)
    ops = wl.ops(inputs, ctx)
    tracer.patch()
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.restore()
    passes.append(traced)
    m = layer_metrics(tracer, traced.wall)
    m["trace.untraced_wall_s"] = plain.wall
    m["trace.overhead_s"] = traced.wall - plain.wall
    m["constants.pool.scaling_efficiency"] = 0.0
    if wl.name == "deep_search":
        serial = run_pass(wl.ops(inputs, Context(seed, 3, pins, workdir, SRC, threads=1)))
        passes.append(serial)
        m["constants.pool.scaling_efficiency"] = serial.wall / (ctx.threads * plain.wall)
    cli = {"process_start_ms": 0.0, "cache_bytes": 0, "cache_hit_ms": 0.0,
           "budget_exit_s": 0.0, "formula_fallback_s": 0.0}
    if in_proc:
        cli["process_start_ms"] = 1000 * statistics.median(SetupSampler(wl.name, seed).finish())
        cache = cache_path(ctx)
        cli["cache_bytes"] = cache.stat().st_size if cache.exists() else 0
        cli["cache_hit_ms"] = 1000 * traced.groups.get("cache_hit", 0.0)
        cli["budget_exit_s"] = traced.groups.get("budget_exit", 0.0)
        cli["formula_fallback_s"] = traced.groups.get("formula_fallback", 0.0)
    for code in (0, 1, 2):
        cli[f"exit_code_{code}"] = ctx.cli_exits.get(code, 0)
    m.update({f"cli.{k}": v for k, v in cli.items()})
    return passes, m, tracer.spans


def write_pins() -> None:
    """Recompute the pinned outputs of every fixed operation."""
    import ebs.constants as C
    import ebs.structure as ST
    from ebs.config import Budget
    from ebs.semigroup import format_spec
    from workloads import (CLI_MISS, CLI_PINNED, Context, WORKLOADS, rank2_grid, result_row,
                           run_cli)
    budget = Budget(threads=1)
    rank2 = {format_spec(s): result_row(C.erdos_burgess(s, "both", budget))
             for s in rank2_grid(20)}
    if len(rank2) != len(rank2_grid(20)):
        sys.exit("error: duplicate rank-two labels")
    specs, groups = WORKLOADS["deep_search"].inputs(0)
    deep = {f"eb {format_spec(s)}": result_row(C.eb_bruteforce(s, budget)) for s in specs}
    deep.update({f"davenport {','.join(map(str, g.periods))}":
                 result_row(C.davenport(g, "brute", budget)) for g in groups})
    structure = {}
    for c in WORKLOADS["structure_check"].inputs(0)[0]:
        label = format_spec(c.as_product())
        structure[f"lhat {label}"] = result_row(ST.lhat(c, "both", budget))
        structure[f"l {label}"] = result_row(ST.l_const(c, "both", budget))
    keys = ("spec", "quantity", "method", "value", "lower", "upper", "rule", "nodes", "flags")
    cli = {}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ctx = Context(0, 0, {}, Path(tmp), SRC)
        commands = [("cache_miss", CLI_MISS)]
        commands += [(name, argv) for name, (_, argv) in CLI_PINNED.items()]
        for name, argv in commands:
            code, out = run_cli(ctx, argv)
            entry = {"exit": code}
            if code == 0:
                got = json.loads(out)
                entry["result"] = {k: got.get(k) for k in keys}
            cli[name] = entry
    pins = {
        "rank2_sweep": {"results": rank2},
        "deep_search": {"results": deep},
        "structure_check": {"results": structure},
        "cli_session": {"results": cli},
    }
    PINS.write_text(_format(pins) + "\n")
    print(f"wrote {PINS}")


def _format(obj, depth=0) -> str:
    """JSON with one line per pinned result (workload, "results", name)."""
    if isinstance(obj, dict) and depth < 3:
        pad = " " * (depth + 1)
        items = [f"{pad}{json.dumps(k)}: {_format(v, depth + 1)}" for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    return json.dumps(obj, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pin", action="store_true", help="rewrite expected.json")
    args = ap.parse_args(argv)
    _load_program()
    WORK.mkdir(exist_ok=True)
    if args.pin:
        write_pins()
        return 0
    from calibrate import REFERENCE_S, Calibration
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.inputs(args.seed)
        return 0

    spec = json.loads(SPEC.read_text())
    pins = json.loads(PINS.read_text())
    cal = Calibration()
    setup = SetupSampler(wl.name, args.seed, args.seconds)
    inputs = wl.inputs(args.seed)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            passes, metrics, spans = traced_run(wl, inputs, args.seed, pins, Path(tmp))
        else:
            passes = measured_run(wl, inputs, args.seed, args.seconds, pins, Path(tmp), cal,
                                  setup)
            spans = []
    setups = setup.finish()
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    lat = [x for p in passes for x in p.latencies]
    per_pass = len(passes[0].latencies)
    tail_p = tail_percentile(per_pass)

    def end_to_end(walls, latencies):
        return {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * percentile(latencies, tail_p),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(children=wl.name == "cli_session"),
        }

    raw = end_to_end([p.wall for p in passes], lat)
    if not args.trace:
        metrics = end_to_end([p.scaled_wall for p in passes],
                             [x for p in passes for x in p.scaled_latencies])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics not measured: {', '.join(missing)}")

    info = machine()
    print(f"workload {wl.name}: seed {args.seed}, trace {args.trace}, {len(passes)} passes, "
          f"{attempted} operations, {len(failures)} failed "
          f"(fail_rate {len(failures) / attempted:.4f})")
    tail = (f"p{tail_p:g}" if tail_p < MAX
            else "the slowest operation (no percentile has 10 samples beyond it)")
    print(f"op_tail_ms is {tail} over {len(lat)} samples ({per_pass} per pass)")
    for i, p in enumerate(passes):
        nodes = sum(r[4] for r in p.results.values())
        print(f"pass {i}: {p.wall:.3f} s, {len(p.results)} library results, digest "
              f"{p.digest()}, {nodes} nodes")
    print("raw (unscaled): " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    if cal.readings:
        print(f"speed: mean kernel time {1000 / statistics.fmean(cal.readings):.3f} ms over "
              f"{len(cal.readings)} readings, reference {1000 * REFERENCE_S:.3f} ms")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for f in failures[:20]:
        print(f"FAILED {f}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "machine": info,
              "passes": [{"wall_s": p.wall, "digest": p.digest()} for p in passes],
              "tail_percentile": tail_p,
              "samples": len(lat), "failures": failures, "metrics": metrics, "raw": raw,
              "kernel_readings": cal.readings, "spans": spans}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
