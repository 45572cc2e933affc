"""scripts/payload_diff.py, which compares two `rieffel verify --out`
reports check by check, run as a script on small hand-written reports."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "payload_diff.py"
ENVIRONMENT = {"n": 2, "points": 64, "algebra_dim": 2, "seed": 2024}


def report(path, checks, anchors={}, environment=ENVIRONMENT):
    records = [{"id": cid, "anchor": anchors.get(cid, cid), "residual": r,
                "tolerance": 1e-10, "passed": r <= 1e-10}
               for cid, r in checks.items()]
    path.write_text(json.dumps({"suite": "all", "environment": environment,
                                "checks": records}))
    return str(path)


def run(tmp_path, old, new, **new_fields):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), report(tmp_path / "old.json", old),
         report(tmp_path / "new.json", new, **new_fields)],
        capture_output=True, text=True)
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


def test_edited_anchor_is_printed_without_failing(tmp_path):
    old = {"a.one": 6.871e-14, "a.two": 0.0}
    status, lines = run(tmp_path, old, old, anchors={"a.two": "<f,f> >= 0"})
    assert status == 0
    assert lines == ["a.two: anchor 'a.two' -> '<f,f> >= 0'",
                     "0 residual(s) moved, 0 pass/fail flip(s)"]


def test_environment_difference_is_printed_without_failing(tmp_path):
    old = {"a.one": 6.871e-14}
    env = {**ENVIRONMENT, "algebra_dim": 3, "theta": 0.0}
    status, lines = run(tmp_path, old, old, environment=env)
    assert status == 0
    assert lines == ["environment algebra_dim: 2 -> 3",
                     "environment theta: None -> 0.0",
                     "0 residual(s) moved, 0 pass/fail flip(s)"]
