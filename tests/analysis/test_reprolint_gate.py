"""The reprolint CI gate, driven the way CI drives it.

The acceptance criterion is behavioral -- the gate must *demonstrably fail*
(exit 1) on an injected violation, pass once the finding is baselined or
pragma'd, and report stale baseline entries without failing.  Subprocess tests assert the exact exit
codes CI sees; the final test is the repo-wide gate itself.
"""

import json
import subprocess
import sys
from pathlib import Path

from tools.reprolint import baseline
from tools.reprolint.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_BASELINE = REPO_ROOT / "tools" / "reprolint" / "baseline.json"

VIOLATION = "CACHE = {}\n"
PRAGMA_FIXED = "CACHE = {}  # reprolint: disable=mutable-global\n"


def run_reprolint(*args):
    completed = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    return completed.returncode, completed.stdout, completed.stderr


def test_injected_violation_fails_the_gate(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    code, out, _err = run_reprolint(bad, "--no-baseline")
    assert code == 1
    assert "mutable-global" in out
    assert "1 new finding" in out


def test_pragma_suppression_passes_the_gate(tmp_path):
    fixed = tmp_path / "fixed.py"
    fixed.write_text(PRAGMA_FIXED)
    code, out, _err = run_reprolint(fixed, "--no-baseline")
    assert code == 0
    assert "clean" in out


def test_write_baseline_then_pass(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    accepted = tmp_path / "accepted.json"

    code, _out, _err = run_reprolint(bad, "--write-baseline", "--baseline", accepted)
    assert code == 0
    assert len(json.loads(accepted.read_text())["entries"]) == 1

    code, out, _err = run_reprolint(bad, "--baseline", accepted)
    assert code == 0
    assert "1 baseline-suppressed" in out


def test_fixed_finding_reports_stale_baseline_without_failing(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    accepted = tmp_path / "accepted.json"
    run_reprolint(bad, "--write-baseline", "--baseline", accepted)

    bad.write_text("CACHE = {'a': 1}\n")  # constant table: finding gone
    code, out, err = run_reprolint(bad, "--baseline", accepted)
    assert code == 0
    assert "1 stale" in out
    assert "stale baseline entry" in err


def test_json_report_artifact(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    report_path = tmp_path / "findings.json"
    code, _out, _err = run_reprolint(bad, "--no-baseline", "--json", report_path)
    assert code == 1
    report = json.loads(report_path.read_text())
    assert set(report) == {"findings", "new", "baseline_suppressed", "stale_baseline", "parse_errors"}
    assert report["new"] == report["findings"]
    (entry,) = report["new"]
    assert entry["rule"] == "mutable-global"
    assert entry["line"] == 1


def test_unparsable_file_is_reported_not_fatal(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    code, _out, err = run_reprolint(bad, "--no-baseline")
    assert code == 0  # parse errors alone do not fail the gate (ruff owns syntax)
    assert "cannot parse" in err


def test_repo_is_clean_against_committed_baseline():
    """The gate CI enforces: src/repro + tools has no findings beyond baseline."""
    findings, errors = lint_paths(
        [REPO_ROOT / "src" / "repro", REPO_ROOT / "tools"], REPO_ROOT
    )
    assert errors == []
    known = baseline.load(COMMITTED_BASELINE)
    new = [f.render() for f in findings if f.key() not in known]
    assert new == []
    stale = known - {f.key() for f in findings}
    assert stale == set()
