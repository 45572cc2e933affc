"""Command line interface: batch verification, grid I/O, and the recovery
pipeline on stored module functions.

Subcommands:

  verify <suite>   run a named verification suite (or "all"); writes a JSON
                   report, exit 0 iff every check passes
  product          deformed product of two MGF1 grid files
  apply            apply the left-action operator of a stored F to a stored u
  recover          run the symbol-recovery chain on the translation symbol
                   built from a stored F and report the residual
  info             package and grid-file information

Exit codes: 0 success / all checks pass, 1 check or recovery failure,
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .deformation import SkewForm, deformed_product
from .errors import MGFFormatError
from .mgf import read_mgf, write_mgf
from .quantization import TranslationSymbol
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from .symbolic_calculus import (GammaKernel, b_transform, gamma_reconstruct,
                                recover)

CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(SuiteConfig))


class UsageError(Exception):
    pass


def _parse_grid(text):
    try:
        n, npts, half = text.split(",")
        return int(n), int(npts), float(half)
    except ValueError as exc:
        raise UsageError(f"--grid expects n,N,L (got {text!r})") from exc


def _load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(doc) - set(CONFIG_FIELDS)
    if unknown:
        raise UsageError(f"unknown config fields: {sorted(unknown)}")
    return doc


def _join_negative_values(argv):
    """argparse takes "-1e-3" after an option for another option (it reads
    only "-1"- and "-0.001"-style strings as negative numbers), so a
    negative number after a long option is joined to it: "--tol -1e-3"
    becomes "--tol=-1e-3"."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and arg.startswith("-") and _is_number(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@functools.cache  # once per process: parse_args keeps no state
def _build_parser():
    p = argparse.ArgumentParser(prog="rieffel",
                                description="deformed-product operator calculus")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--theta", type=float,
                        help="deformation parameter (default 0.5; 0 on n=1 grids)")
        sp.add_argument("--out", help="output path")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=SUITE_NAMES + ("all",))
    sp.add_argument("--config", help="JSON file with SuiteConfig fields")
    sp.add_argument("--grid", help="grid as n,N,L")
    sp.add_argument("--seed", type=int, help="random seed")
    sp.add_argument("--csv", help="also write a flat CSV of check results")
    sp.add_argument("--algebra-dim", type=int, help="coefficient matrix size k")
    common(sp)

    sp = sub.add_parser("product", help="deformed product of two MGF1 files")
    sp.add_argument("left")
    sp.add_argument("right")
    common(sp)

    sp = sub.add_parser("apply", help="apply the left action of F to u")
    sp.add_argument("left", metavar="symbol_file", help="MGF1 file holding F")
    sp.add_argument("right", metavar="input_file", help="MGF1 file holding u")
    common(sp)

    sp = sub.add_parser("recover", help="recover F from its translation symbol")
    sp.add_argument("symbol_file", help="MGF1 file holding the generating F")
    sp.add_argument("--tol", type=float, default=1e-5,
                    help="relative acceptance tolerance")
    common(sp)

    sp = sub.add_parser("info", help="package or grid-file information")
    sp.add_argument("path", nargs="?", help="optional MGF1 file to inspect")
    return p


def _cmd_verify(args):
    fields = _load_config(args.config) if args.config else {}
    fields.update((k, v) for k, v in vars(args).items()
                  if k in CONFIG_FIELDS and v is not None)
    if args.grid:
        fields["n"], fields["points"], fields["half_width"] = _parse_grid(args.grid)
    try:
        cfg = SuiteConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    report = run_suite(cfg)
    for c in report.checks:
        flag = "PASS" if c.passed else "FAIL"
        print(f"{flag}  {c.check_id}: residual {c.residual:.3e} "
              f"tolerance {c.tolerance:.1e}")
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks)")
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(report.to_json())
    if cfg.csv:
        with open(cfg.csv, "w") as fh:
            fh.write(report.to_csv())
    return 0 if report.passed else 1


def _cmd_product(args):
    """product and apply: L_F u = F x_J u is the deformed product."""
    if not args.out:
        raise UsageError(f"{args.command} requires --out")
    f = read_mgf(args.left)
    g = read_mgf(args.right)
    J = SkewForm.standard(args.theta, f.grid.n)
    write_mgf(args.out, deformed_product(f, g, J))
    what = "product grid" if args.command == "product" else "operator output"
    print(f"wrote {what} to {args.out}")
    return 0


def _cmd_recover(args):
    if not 0 <= args.tol < float("inf"):
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")
    F = read_mgf(args.symbol_file)
    J = SkewForm.standard(args.theta, F.grid.n)
    a = gamma_reconstruct(b_transform(TranslationSymbol(F, J)), GammaKernel())
    rec, residual = recover(a, J, F.grid)
    scale = max(F.sup_norm(), 1e-300)
    err = (rec - F).sup_norm() / scale
    print(f"recovery sup error {err:.3e}, operator residual "
          f"{residual / scale:.3e}, tolerance {args.tol:.1e}")
    if args.out:
        write_mgf(args.out, rec)
    return 0 if err <= args.tol and residual / scale <= args.tol else 1


def _cmd_info(args):
    if args.path:
        f = read_mgf(args.path)
        g = f.grid
        print(f"MGF1 grid: n={g.n} N={g.points} L={g.half_width} "
              f"k={f.algebra_dim} sup={f.sup_norm():.6e}")
        return 0
    from importlib.metadata import version
    try:
        ver = version("rieffel")
    except Exception:
        ver = "unknown"
    print(f"rieffel {ver}")
    print(f"suites: {', '.join(SUITE_NAMES)} (or 'all')")
    d = SuiteConfig()
    print(f"defaults: n={d.n} N={d.points} L={d.half_width} k={d.algebra_dim} "
          f"theta={d.skew().theta} seed={d.seed}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_help()
        return 2
    handlers = {"verify": _cmd_verify, "product": _cmd_product,
                "apply": _cmd_product, "recover": _cmd_recover,
                "info": _cmd_info}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MGFFormatError as exc:
        print(f"grid file error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
