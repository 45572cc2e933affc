"""Benchmark of the rieffel library, run from the root of a source checkout.

    python3 perfbench/run.py --workload product --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10    # each workload in
                                                            # its own process

Workloads (workloads.py): `product` (CLI deformed products, N=64, k=2),
`recovery` (CLI recovery chain at N=32, k=2, with seeded rejections) and
`verify` (one full `run_suite(SuiteConfig())` pass).

--trace 0 runs the named workload and prints its end-to-end metrics.  Times
are reference-speed times: every interval is scaled by the core-speed probe
(probe.py) that runs beside the workload on the same pinned core, because
this class of shared machine changes speed by up to 1.9x within a minute.
The wall-clock figures are printed too, as wall_*.

--trace 1 runs the traced program instead, the same for every workload:
traced slices of product and recovery jobs and the layer sweep.  It prints
the per-layer metrics, in reference-speed time too.  The per-suite times of
`verify` come from the report's runtime_ms and are printed by --trace 0.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only if every oracle passed; 2 if
the tree has no src/rieffel.  Spans, the environment stamp and the full
result go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import env
import probe

SETUP_REPS = 3
PRODUCT_SLICE = 16           # traced product jobs (and as many untraced)
OUT_DIR = env.ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("product", "recovery", "verify")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(wl_cls, workdir, seed, seconds):
    """Set up SETUP_REPS times, run the timed loop once, check the outputs.
    Returns the workload and the raw perf_counter intervals, with the check
    (attempted, failed, worst error) under "check"."""
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = wl_cls(workdir, seed)
        wl.setup()
        setups.append((t0, time.perf_counter()))
    jobs, window = wl.measure(seconds)
    return wl, {"setups": setups, "jobs": jobs, "window": window, "check": wl.check()}


def summarize(wl, iv, speed):
    """End-to-end metrics (reference-speed) and the wall-clock extras."""
    attempted, failed, worst = iv["check"]
    ref_ms = sorted(1e3 * speed.scaled(a, b) for a, b in iv["jobs"])
    wall_ms = sorted(1e3 * (b - a) for a, b in iv["jobs"])
    setup_ref = [speed.scaled(a, b) for a, b in iv["setups"]]
    setup_wall = [b - a for a, b in iv["setups"]]
    imp = iv["import"]
    n = len(ref_ms)
    metrics = {
        "jobs_per_s": _metric(n / speed.scaled(*iv["window"]), "1/s"),
        "job_p50_ms": _metric(statistics.median(ref_ms), "ms"),
        "setup_s": _metric(speed.scaled(*imp) + statistics.median(setup_ref), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"jobs": n, "failed_ratio": failed / max(attempted, 1),
             "worst_rel_error": worst,
             "wall_jobs_per_s": n / (iv["window"][1] - iv["window"][0]),
             "wall_job_p50_ms": statistics.median(wall_ms),
             "wall_setup_s": (imp[1] - imp[0]) + statistics.median(setup_wall),
             "probe_ms_median": 1e3 * speed.median_probe_s(),
             "probe_readings": len(speed.probe_s)}
    if n >= 100:
        extra["job_p90_ms"] = statistics.quantiles(ref_ms, n=10)[-1]
    if wl.name == "verify":
        extra.update(_verify_breakdown(wl, speed.scaled, iv["jobs"][0]))
    return metrics, attempted, failed, extra


def traced(workdir, seed, scale):
    """The traced program: product and recovery slices and the sweep;
    scale(start, end) converts intervals to seconds.  Returns (metrics,
    attempted, failed, extra, tracer)."""
    import sweep
    from spans import Tracer
    from workloads import Product, Recovery

    tr = Tracer()
    m, extra = {}, {}
    attempted = failed = 0

    prod = Product(workdir, seed)
    prod.setup()
    prod.records = []
    plain = []
    for i in range(PRODUCT_SLICE):
        t0 = time.perf_counter()
        prod.cli_job(i)()
        plain.append((t0, time.perf_counter()))
    pjobs = set()
    for i in range(PRODUCT_SLICE, 2 * PRODUCT_SLICE):
        tr.job = f"product.{i}"
        pjobs.add(tr.job)
        prod.traced_job(i, tr)()
    a, f, _ = prod.check()
    attempted, failed = attempted + a, failed + f
    for layer, (own, calls) in tr.by_layer(pjobs, scale).items():
        m[f"product.{layer}.self_s"] = own
        m[f"product.{layer}.calls"] = calls
    # traced jobs against as many untraced CLI jobs of the same kind
    m["trace.overhead_pct"] = 100.0 * (
        statistics.median(tr.durations("cli.product", scale=scale))
        / statistics.median(scale(a, b) for a, b in plain) - 1.0)

    rec = Recovery(workdir, seed)
    rec.setup()
    rec.records = []
    rjobs, accepted, quad_calls = set(), set(), []
    for i in range(Recovery.BLOCK):
        tr.job = f"recovery.{i}"
        rjobs.add(tr.job)
        calls = rec.job(i, tr)()
        if rec.plan[i] is None:
            accepted.add(tr.job)
            quad_calls.append(calls)
    tr.job = None
    a, f, _ = rec.check()
    attempted, failed = attempted + a, failed + f
    for layer, (own, calls) in tr.by_layer(rjobs, scale).items():
        if layer != "job":
            m[f"recovery.{layer}.self_s"] = own
            m[f"recovery.{layer}.calls"] = calls
    m["recovery.gamma_quadrature.calls_per_job"] = statistics.mean(quad_calls)
    # matrices whose spectral norm an accepted job takes: the N^4 residual
    # grid plus the CLI's two N^2 sup norms (computed from shapes)
    n2 = Recovery.POINTS ** 2
    m["recovery.cnorm_matrices_per_job.computed"] = float(n2 * n2 + 2 * n2)
    chain = ("symbolic_calculus.b_transform", "symbolic_calculus.gamma_reconstruct",
             "symbolic_calculus.recover_translation_symbol")
    slices = {
        "gamma_reconstruct_ms": 1e3 * statistics.median(
            tr.durations(chain[1], accepted, scale)),
        "recover_translation_symbol_ms": 1e3 * statistics.median(
            tr.durations(chain[2], accepted, scale)),
        "recovery_chain_ms": 1e3 * statistics.median(
            [sum(sum(tr.durations(s, {j}, scale)) for s in chain) for j in accepted]),
    }
    m.update(sweep.run(slices, workdir, seed, scale))
    extra["roadmap_rows"] = sweep.baseline_rows(m)
    extra["spans"] = len(tr.spans)
    metrics = {k: _metric(v, _unit(k)) for k, v in m.items()}
    return metrics, attempted, failed, extra, tr


def _verify_breakdown(ver, scale, interval) -> dict:
    """pass_s, verify.suites.<suite>.s and the ROADMAP rows for the first
    pass, which ran over the perf_counter interval given."""
    import sweep
    checks = ver.check_seconds(scale, interval[0])
    suites = {}
    for check_id, sec in checks.items():
        suite = check_id.split(".", 1)[0]
        suites[suite] = suites.get(suite, 0.0) + sec
    return {"pass_s": scale(*interval), "verify.suites.s": suites,
            "verify_roadmap_rows": sweep.verify_rows(checks)}


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".self_s", ".s")):
        return "s"
    for key, unit in ((".ms", "ms"), (".share.", "ratio"), ("_pct", "%"),
                      (".ns_per_matrix.", "ns"), (".MBps", "MB/s"),
                      (".gflops.", "GFLOP/s"), (".computed_mflop.", "MFLOP"),
                      (".computed_mbyte.", "MB")):
        if key in name:
            return unit
    return "count"


def _print_rows(title, rows):
    print(title)
    print(f"  {'row':58s} {'measured':>12s} {'baseline':>12s} {'ratio':>7s}")
    for name, got, base, ratio in rows:
        print(f"  {name:58s} {got:12.4g} {base:12.4g} {ratio:7.3f}")


def run_one(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    core = probe.pin_core()
    speed = probe.SpeedProbe()
    try:
        t0 = time.perf_counter()
        env.load_rieffel()
        from workloads import WORKLOADS
        imported = (t0, time.perf_counter())
        if args.trace:
            metrics, attempted, failed, extra, tr = traced(
                str(workdir), args.seed, speed.scaled)
            tr.dump(OUT_DIR / f"spans-{tag}.json")
        else:
            wl, iv = end_to_end(WORKLOADS[args.workload], str(workdir), args.seed,
                                args.seconds)
            iv["import"] = imported
    except env.TreeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics, attempted, failed, extra = summarize(wl, iv, speed)
    stamp = env.stamp()
    stamp["pinned_core"] = core

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump({"args": vars(args), "environment": stamp, "result": result,
                   "extra": extra}, fh, indent=1)

    print(f"environment: {json.dumps(stamp, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / max(attempted, 1):.3g})")
    for k, v in metrics.items():
        print(f"  {k:58s} {v['value']:14.6g} {v['unit']}")
    for k, v in extra.items():
        if k.endswith("rows"):
            _print_rows(f"{k} (measured beside ROADMAP.md):", v)
        elif isinstance(v, dict):
            print(f"  {k}: " + ", ".join(f"{a}={b:.4g}" for a, b in v.items()))
        else:
            print(f"  {k:58s} {v:14.6g}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    worst = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                              check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print("summary:")
    for name, res in summary.items():
        if res is None:
            print(f"  {name}: no result")
            continue
        vals = "" if args.trace else ", ".join(
            f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"  {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {vals}")
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    env.pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
