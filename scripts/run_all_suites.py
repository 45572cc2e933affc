#!/usr/bin/env python3
"""Run every verification suite and write JSON/CSV reports.

Usage: python scripts/run_all_suites.py [--out-dir reports] [--seed 2024]
                                        [--points 64] [--theta THETA]
"""
import argparse
import pathlib
import sys

from rieffel.suites import SuiteConfig, run_suite


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--points", type=int, default=64)
    ap.add_argument("--theta", type=float, default=None,
                    help="default from SkewForm.standard")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = SuiteConfig(suite="all", points=args.points, theta=args.theta,
                      seed=args.seed)
    report = run_suite(cfg)
    for c in report.checks:
        flag = "PASS" if c.passed else "FAIL"
        print(f"{flag}  {c.check_id}: residual {c.residual:.3e} "
              f"tolerance {c.tolerance:.1e} ({c.runtime_ms:.0f} ms)")
    (out / "report.json").write_text(report.to_json())
    (out / "report.csv").write_text(report.to_csv())
    n_ok = sum(c.passed for c in report.checks)
    print(f"{n_ok}/{len(report.checks)} checks passed; reports in {out}/")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
