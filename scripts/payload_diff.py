#!/usr/bin/env python3
"""Compare two `rieffel verify ... --out` reports check by check.

Usage: python scripts/payload_diff.py OLD.json NEW.json

Prints every field of the canonical payload that differs: each environment
entry, then each check whose anchor, residual, tolerance or passed flag
differs (and every check found in only one report), with full float
precision.  Then it prints the number of checks in both reports whose
residual moved and of those that flip between pass and fail.  Exits 1 if any
check flips, 0 otherwise.  Standard library only.
"""
import json
import sys

FIELDS = ("anchor", "residual", "tolerance", "passed")


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc["environment"], {c["id"]: c for c in doc["checks"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (old_env, old), (new_env, new) = (load(p) for p in argv)
    for key in sorted(old_env.keys() | new_env.keys()):
        if old_env.get(key) != new_env.get(key):
            print(f"environment {key}: {old_env.get(key)!r} -> {new_env.get(key)!r}")
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
