"""Paired benchmark of two commits: parent against change, in fresh copies.

    python3 tools/ab.py --parent REF [--change REF]

Both commits are extracted with `git archive REF | tar -x` into .ab-work/
(the run reads their committed files only), and each runs its own
perfbench/run.py --trace 0 for BENCHMARK.json's run_seconds, one fresh
process per run.  Every workload in BENCHMARK.json runs 10 pairs; pair i
runs both sides on seed 901 + i, the parent first in even pairs and the
change first in odd ones.  The figures are the scaled end-to-end metrics
that run.py prints on its last line, and beside them the unscaled ones its
record holds under "raw".  Before the runs, each copy runs the tier-1
suite once (PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors).  The whole result is written to
.benchmarks/BENCH_<change short sha>.json: per workload and metric the
parent's median and quartiles, the change's median and quartiles, the
pairs the change won (ties count for neither side), every run's figure,
and the medians and runs of the raw figures; per workload correct, failed
and the pass digests of each side; per side the tier-1 wall seconds,
passed and failed counts and summary line; nproc and the Python version.
One verdict line per metric compares the scaled medians with the bound in
BENCHMARK.json:
  worse  the change's median is worse than the parent's by more than the bound;
  gain   the change won at least 9 of the 10 pairs and its median is better
         by more than the parent's interquartile range;
  unresolved  the parent's interquartile range, relative to its median, is wider
         than the bound, and not every run of the change is better than every
         run of the parent;
  flat   anything else.
The exit status is 1 if any metric is worse or any run was incorrect.
Stdlib only; nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".ab-work"
OUT = ROOT / ".benchmarks"
PAIRS, SEED = 10, 901


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(ref: str) -> tuple[str, Path]:
    """A fresh copy of ref's committed files; its short sha."""
    sha = git("rev-parse", "--short", ref)
    dest = WORK / sha
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"error: git archive {ref} failed")
    return sha, dest


def run(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in copy: its last-line JSON, with the pass digests."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: {' '.join(argv)} in {copy} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((copy / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    result["digests"] = sorted({p["digest"] for p in record["passes"]})
    result["raw"] = record["raw"]
    return result


def tier1(copy: Path) -> dict:
    """One tier-1 run in copy: its wall seconds, counts and summary line."""
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    env = {**os.environ, "PYTHONPATH": "src"}
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)", summary)}
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "summary": summary}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    lower = metric["better"] == "lower"
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    # signed relative change of the medians, positive when the change is worse
    worse_by = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1) if pq[1] else 0.0
    spread = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
    if worse_by > metric["bound"]:
        verdict = "worse"
    elif 10 * won >= 9 * len(parent) and -worse_by > spread:
        verdict = "gain"
    elif spread > metric["bound"] and not (
            max(change) < min(parent) if lower else min(change) > max(parent)):
        verdict = "unresolved"
    else:
        verdict = "flat"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent_median": pq[1], "parent_quartiles": [pq[0], pq[2]],
            "change_median": cq[1], "change_quartiles": [cq[0], cq[2]],
            "relative_change": (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0,
            "pairs_won": won, "pairs": len(parent), "verdict": verdict,
            "parent_runs": parent, "change_runs": change}


def raw_figures(parent: list[float], change: list[float]) -> dict:
    return {"parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_runs": parent, "change_runs": change}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--change", default="HEAD", help="the commit measured (default HEAD)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, seeds = spec["run_seconds"], [SEED + i for i in range(PAIRS)]
    parent_sha, parent_copy = extract(args.parent)
    change_sha, change_copy = extract(args.change)
    sides = {"parent": parent_copy, "change": change_copy}
    path = OUT / f"BENCH_{change_sha}.json"
    report = {"parent": parent_sha, "change": change_sha, "nproc": os.cpu_count(),
              "python": platform.python_version(), "tier1": {}, "workloads": {}}
    for side, copy in sides.items():
        t = report["tier1"][side] = tier1(copy)
        print(f"tier-1 {side}: {t['summary']} ({t['wall_s']:.1f} s wall)", file=sys.stderr)
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(sides[side], wl, seed, seconds))
            print(f"{wl} pair {i + 1}/{PAIRS} done", file=sys.stderr)
        entry = {"pairs": PAIRS, "seconds": seconds, "seeds": seeds}
        for side, rs in runs.items():
            entry[side] = {"correct": all(r["correct"] for r in rs),
                           "failed": sum(r["failed"] for r in rs),
                           "digests": sorted({d for r in rs for d in r["digests"]})}
        ok &= entry["parent"]["correct"] and entry["change"]["correct"]
        entry["metrics"] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = summarize(metric, *([r["metrics"][name]["value"] for r in runs[side]]
                                    for side in ("parent", "change")))
            s["raw"] = raw_figures(*([r["raw"][name] for r in runs[side]]
                                     for side in ("parent", "change")))
            entry["metrics"][name] = s
            ok &= s["verdict"] != "worse"
            print(f"{wl} {name}: {s['parent_median']:.4g} [{s['parent_quartiles'][0]:.4g}, "
                  f"{s['parent_quartiles'][1]:.4g}] -> {s['change_median']:.4g} "
                  f"({100 * s['relative_change']:+.1f}%), better in {s['pairs_won']}/"
                  f"{s['pairs']}, bound {100 * s['bound']:g}%: {s['verdict']}")
        print(f"{wl} correct: parent {entry['parent']['correct']} (failed "
              f"{entry['parent']['failed']}), change {entry['change']['correct']} (failed "
              f"{entry['change']['failed']}); digests parent {entry['parent']['digests']}, "
              f"change {entry['change']['digests']}")
        report["workloads"][wl] = entry
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
