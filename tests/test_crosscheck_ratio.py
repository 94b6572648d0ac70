"""``crosscheck_ratio.py`` run end to end, on this checkout against itself.

The script compares two checkouts by hand and nothing else in the suite calls it, so these
smoke tests keep its child processes and its JSON report working.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def ratio(*args):
    """The finished run of crosscheck_ratio.py on this checkout against itself."""
    return subprocess.run([sys.executable, str(REPO / "tests" / "crosscheck_ratio.py"),
                           str(REPO), str(REPO), *args],
                          capture_output=True, text=True, timeout=60)


def check_one_pair_at_dims_2(*args):
    # one pair at dims 2 with integer r: each run checks the 17 cases with no mismatch, and
    # the report has every key a comparison reads
    done = ratio("--dims", "2", "--pairs", "1", *args)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert set(report) == {"dims", "fractional", "pairs", "repeat", "runs", "parent_median_s",
                           "change_median_s", "median_ratio"}
    assert report["dims"] == {"parent": 2, "change": 2}
    assert report["fractional"] is False and report["pairs"] == 1
    for side in ("parent", "change"):
        [run] = report["runs"][side]
        assert set(run) == {"s", "cases", "mismatches", "maxrss_mb"}
        assert run["cases"] == 17 and run["mismatches"] == 0 and run["s"] > 0
    assert report["median_ratio"] > 0
    return report


def test_crosscheck_ratio_runs_one_pair_on_this_checkout():
    assert check_one_pair_at_dims_2()["repeat"] == 0  # one timed call per run


def test_crosscheck_ratio_repeat_times_the_median_of_k_calls():
    # with --repeat 2 each run makes an untimed call, then reports the median of two
    assert check_one_pair_at_dims_2("--repeat", "2")["repeat"] == 2
    done = ratio("--dims", "2", "--repeat", "-1")
    assert done.returncode == 2 and "--repeat must be >= 0" in done.stderr
