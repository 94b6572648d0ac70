"""``crosscheck_ratio.py`` run end to end once, on this checkout against itself.

The script compares two checkouts by hand and nothing else in the suite calls it, so this
smoke test keeps its child processes and its JSON report working.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_crosscheck_ratio_runs_one_pair_on_this_checkout():
    # one pair at dims 2 with integer r: each run checks the 17 cases with no mismatch, and
    # the report has every key a comparison reads
    done = subprocess.run([sys.executable, str(REPO / "tests" / "crosscheck_ratio.py"),
                           str(REPO), str(REPO), "--dims", "2", "--pairs", "1"],
                          capture_output=True, text=True, check=True, timeout=60)
    report = json.loads(done.stdout)
    assert set(report) == {"dims", "fractional", "pairs", "runs", "parent_median_s",
                           "change_median_s", "median_ratio"}
    assert report["dims"] == {"parent": 2, "change": 2}
    assert report["fractional"] is False and report["pairs"] == 1
    for side in ("parent", "change"):
        [run] = report["runs"][side]
        assert set(run) == {"s", "cases", "mismatches", "maxrss_mb"}
        assert run["cases"] == 17 and run["mismatches"] == 0 and run["s"] > 0
    assert report["median_ratio"] > 0
