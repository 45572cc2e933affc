#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W[,W...]
           --pairs P --label L [--seed-base B]

For each workload W, runs `perfbench/run.py --workload W --trace 0` from the
root of each tree, for the `run_seconds` of CHANGE's BENCHMARK.json, P times
each, at seeds B+1..B+P (pair i runs both trees at the same seed; the tree
that goes first alternates from pair to pair).  For every run it records the
end-to-end metrics printed on run.py's last line and the minor page faults
of the run, read as the RUSAGE_CHILDREN delta around it.  It writes
BENCH_<label>.json in the current directory: per workload every run, and
per metric the median and quartiles of each tree, the change's wins over
the pairs (by the metric's `better` direction in CHANGE's BENCHMARK.json)
and the faults.  It also runs `perfbench/run.py --workload product --trace 1`
3 times per tree, alternating the trees, and records each per-layer metric's
runs with their median and quartiles, since one traced run can read far off
on a path the change leaves alone.  Each summary line prints the faults
beside the metric, since runs can fall into distinct minor-fault modes.
Standard library only; exits 1 if any run is not correct or has failures.
"""
import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")
TRACED_RUNS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True,
                   help="one workload or several, comma-separated")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--seed-base", type=int, default=2100)
    return p.parse_args(argv)


def revision(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from the root of tree: its result line and the
    minor page faults of the run and its children."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=900, check=False)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"no result from {tree} (exit {proc.returncode}):\n"
                           + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "minor_faults": faults,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def traced_once(tree: Path) -> dict:
    """The per-layer metrics of one traced product run from tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "product",
           "--trace", "1"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"no traced result from {tree} (exit "
                           f"{proc.returncode}):\n" + proc.stderr[-2000:])
    metrics = json.loads(lines[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def spread(values) -> dict:
    """Median, quartiles and interquartile range."""
    values = sorted(values)
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict, better: dict) -> dict:
    """Per metric and for the faults: each tree's spread, and for metrics
    with a direction the pairs the change wins."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        cols = {t: [r["metrics"][name] for r in runs[t]] for t in TREES}
        entry = {t: spread(cols[t]) for t in TREES}
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["better"] = better[name]
            entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(
                cols["parent"], cols["change"]))
        out[name] = entry
    out["minor_faults"] = {t: spread([r["minor_faults"] for r in runs[t]])
                           for t in TREES}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"label": args.label, "pairs": args.pairs, "seconds": seconds,
              "revisions": {t: revision(trees[t]) for t in TREES},
              "workloads": {}}
    ok = True
    for workload in args.workload.split(","):
        runs = {t: [] for t in TREES}
        for i in range(args.pairs):
            seed = args.seed_base + i + 1
            for t in (TREES if i % 2 == 0 else TREES[::-1]):
                run = run_once(trees[t], workload, seed, seconds)
                run["pair"] = i
                runs[t].append(run)
                ok = ok and run["correct"] and run["failed"] == 0
                print(f"{workload} pair {i} {t:6s} seed {seed}: "
                      f"correct={run['correct']} failed={run['failed']} "
                      f"faults={run['minor_faults']} " + " ".join(
                          f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                      flush=True)
        summary = summarize(runs, better)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        faults = summary["minor_faults"]
        for name, entry in summary.items():
            p, c = entry["parent"], entry["change"]
            wins = (f" wins {entry['change_wins']}/{args.pairs}"
                    if "change_wins" in entry else "")
            print(f"{workload} {name}: parent {p['median']:.4g} (IQR {p['iqr']:.3g})"
                  f" -> change {c['median']:.4g} (IQR {c['iqr']:.3g}){wins};"
                  f" minor faults {faults['parent']['median']:.4g}"
                  f" -> {faults['change']['median']:.4g}")
    traced_runs = {t: [] for t in TREES}
    for i in range(TRACED_RUNS):
        for t in (TREES if i % 2 == 0 else TREES[::-1]):
            traced_runs[t].append(traced_once(trees[t]))
    traced = {}
    for name in traced_runs["parent"][0]:
        cols = {t: [r[name] for r in traced_runs[t] if name in r] for t in TREES}
        traced[name] = {t: dict(spread(cols[t]), runs=cols[t]) for t in TREES if cols[t]}
        p, c = traced[name]["parent"], traced[name].get("change")
        print(f"traced {name}: parent {p['median']:.4g} (IQR {p['iqr']:.3g}) -> change "
              + (f"{c['median']:.4g} (IQR {c['iqr']:.3g})" if c else "absent"))
    report["traced"] = traced
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
