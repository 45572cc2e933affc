#!/usr/bin/env python3
"""Compare two `rieffel verify ... --out` reports check by check.

Usage: python scripts/payload_diff.py OLD.json NEW.json

Prints every check whose residual, tolerance or passed flag differs (and
every check found in only one report), with full float precision, then the
number of checks in both reports whose residual moved and of those that
flip between pass and fail.  Exits 1 if any check flips, 0 otherwise.
Standard library only.
"""
import json
import sys

FIELDS = ("residual", "tolerance", "passed")


def load_checks(path):
    with open(path) as fh:
        return {c["id"]: c for c in json.load(fh)["checks"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (load_checks(p) for p in argv)
    moved = flips = 0
    for cid in sorted(old.keys() | new.keys()):
        if cid not in new or cid not in old:
            print(f"{cid}: only in {'OLD' if cid in old else 'NEW'}")
            continue
        changed = [f for f in FIELDS if old[cid][f] != new[cid][f]]
        if changed:
            print(f"{cid}: " + "; ".join(
                f"{f} {old[cid][f]!r} -> {new[cid][f]!r}" for f in changed))
        moved += "residual" in changed
        flips += "passed" in changed
    print(f"{moved} residual(s) moved, {flips} pass/fail flip(s)")
    return 1 if flips else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
