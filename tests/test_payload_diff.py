"""scripts/payload_diff.py, which compares two `rieffel verify --out`
reports check by check, run as a script on small hand-written reports."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "payload_diff.py"


def report(path, checks):
    path.write_text(json.dumps({"suite": "all", "checks": [
        {"id": cid, "residual": r, "tolerance": 1e-10, "passed": r <= 1e-10}
        for cid, r in checks.items()]}))
    return str(path)


def run(tmp_path, old, new):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), report(tmp_path / "old.json", old),
         report(tmp_path / "new.json", new)], capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_moved_residual_is_counted_without_failing(tmp_path):
    old = {"a.one": 6.871e-14, "a.two": 0.0, "b.three": 1e-12}
    status, lines = run(tmp_path, old, {**old, "a.one": 6.867e-14})
    assert status == 0
    assert lines == ["a.one: residual 6.871e-14 -> 6.867e-14",
                     "1 residual(s) moved, 0 pass/fail flip(s)"]


def test_flip_is_counted_and_fails(tmp_path):
    old = {"a.one": 6.871e-14, "a.two": 0.0, "b.three": 1e-12}
    status, lines = run(tmp_path, old, {**old, "a.two": 1e-9, "b.four": 0.0})
    assert status == 1
    assert lines == ["a.two: residual 0.0 -> 1e-09; passed True -> False",
                     "b.four: only in NEW",
                     "1 residual(s) moved, 1 pass/fail flip(s)"]


def test_identical_reports(tmp_path):
    old = {"a.one": 6.871e-14}
    assert run(tmp_path, old, old) == (0, ["0 residual(s) moved, 0 pass/fail flip(s)"])
