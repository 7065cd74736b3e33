import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_protocol_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_protocol.py")],
        capture_output=True, text=True, env=child_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "final image 40x40" in proc.stdout, proc.stdout


def test_selectivity_study_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "selectivity_study.py"), "--steps", "0.1,0.32"],
        capture_output=True, text=True, env=child_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "true combination" in proc.stdout, proc.stdout


def test_detection_matrix_smoke(tmp_path):
    script = str(SCRIPTS / "detection_matrix.py")

    def run(*args):
        return subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                              env=child_env(), timeout=600)

    out = tmp_path / "a.json"
    proc = run("--only", "12-2x2-40,sharp-12-2x2", "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "found 1/1" in proc.stdout and "misses: none" in proc.stdout, proc.stdout
    assert "negative controls: 0/1 accepted" in proc.stdout, proc.stdout
    searches = json.loads(out.read_text())["searches"]
    assert searches["sharp-12-2x2"]["combination"] is None
    assert searches["12-2x2-40"]["found"] and len(searches["12-2x2-40"]["kernel"]) == 2

    proc = run("--compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 searches, 0 combinations differ" in proc.stdout, proc.stdout
    assert "largest kernel difference: 0.00e+00" in proc.stdout, proc.stdout
    # another combination, and a kernel moved by 1e-6, in the second file
    changed = tmp_path / "b.json"
    searches["sharp-12-2x2"]["combination"] = [0]
    searches["12-2x2-40"]["kernel"][0][0] += 1e-6
    changed.write_text(json.dumps({"searches": searches}))
    proc = run("--compare", str(out), str(changed))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 combinations differ: sharp-12-2x2" in proc.stdout, proc.stdout
    assert "largest kernel difference: 1.00e-06" in proc.stdout, proc.stdout


def bench_record(workload, pair, side, op_s, rss, trace=0, failed=0, correct=True):
    metrics = {"op_s.p50": {"value": op_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": workload, "pair": pair, "order": 1, "side": side, "trace": trace,
            "result": {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}}


def test_bench_pairs_summary():
    summarize = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["summarize"]
    runs = []
    for pair, (parent, change) in enumerate([(0.30, 0.10), (0.32, 0.11), (0.31, 0.31),
                                             (0.33, 0.12), (0.34, 0.40)], start=1):
        runs.append(bench_record("fallback", pair, "parent", parent, 41.0))
        runs.append(bench_record("fallback", pair, "change", change, 41.0 + pair / 10))
    runs.append(bench_record("fallback", None, "parent", 0.9, 41.0, trace=1))
    runs.append(bench_record("large", 1, "parent", 1.0, 44.0, failed=1))
    runs.append(bench_record("large", 1, "change", 0.5, 43.0, correct=False))
    summary = summarize(runs, {"op_s.p50": "lower", "peak_rss_mb": "lower",
                               "kernels_per_s": "higher"},
                        {"op_s.p50": 0.25, "peak_rss_mb": 0.001, "kernels_per_s": 0.25})

    op = summary["fallback"]["op_s.p50"]
    assert summary["fallback"]["pairs"] == 5
    assert op["parent"] == {"median": 0.32, "q1": 0.31, "q3": 0.33}
    assert op["change"]["median"] == 0.12
    assert op["change"]["q1"] == pytest.approx(0.11) and op["change"]["q3"] == 0.31
    # the tie in pair 3 counts for neither side
    assert op["change_wins"] == "3/5"
    assert op["median_change_rel"] == pytest.approx(0.12 / 0.32 - 1)
    # 3 of 5 wins is short of 9 in 10, though the medians differ by 0.20
    # against the parent's interquartile range of 0.02
    assert op["claim_met"] is False
    assert op["within_bound"] is True
    rss = summary["fallback"]["peak_rss_mb"]
    assert rss["change_wins"] == "0/5" and rss["claim_met"] is False
    # the change's median, 41.3 MB, is worse than the parent's 41.0 MB by
    # more than 0.001 of it; the parent's spread is 0, narrower than that
    assert rss["within_bound"] is False
    # a metric no run reports is left out
    assert "kernels_per_s" not in summary["fallback"]
    assert summary["fallback"]["failed_share"] == {"parent": [0.0], "change": [0.0]}
    assert summary["fallback"]["all_correct"] is True

    large = summary["large"]["op_s.p50"]
    assert large["change_wins"] == "1/1"
    assert large["claim_met"] is True and large["within_bound"] is True
    assert summary["large"]["failed_share"] == {"parent": [0.25], "change": [0.0]}
    assert summary["large"]["all_correct"] is False


def test_bench_pairs_verdicts():
    # ten pairs: the change wins nine, and how far its median moves decides
    # the claim; how wide the parent spreads decides whether the bound holds
    summarize = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["summarize"]

    def verdict(parent, change, bound=0.05, sense="lower"):
        runs = []
        for pair, (p, c) in enumerate(zip(parent, change), start=1):
            runs.append(bench_record("large", pair, "parent", p, 40.0))
            runs.append(bench_record("large", pair, "change", c, 40.0))
        entry = summarize(runs, {"op_s.p50": sense}, {"op_s.p50": bound})["large"]["op_s.p50"]
        return entry["change_wins"], entry["claim_met"], entry["within_bound"]

    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    # parent median 1.045, interquartile range 1.0675 - 1.0225 = 0.045
    faster = [p - 0.10 for p in parent[:9]] + [1.10]
    assert verdict(parent, faster) == ("9/10", True, True)
    # nine wins by 0.02 each leave the medians 0.02 apart, inside the range
    close = [p - 0.02 for p in parent[:9]] + [1.10]
    assert verdict(parent, close) == ("9/10", False, True)
    # eight wins are not enough however far the median moves
    eight = [p - 0.10 for p in parent[:8]] + [1.10, 1.10]
    assert verdict(parent, eight)[:2] == ("8/10", False)
    # 10% slower is outside a 5% bound and inside a 25% one
    slower = [p * 1.10 for p in parent]
    assert verdict(parent, slower) == ("0/10", False, False)
    assert verdict(parent, slower, bound=0.25)[2] is True
    # a parent that spreads by more than the bound cannot show it held,
    # unless every run of the change reads better than every parent run
    assert verdict(parent, parent, bound=0.01)[2] == "unresolved"
    assert verdict(parent, [p - 0.02 for p in parent], bound=0.01)[2] == "unresolved"
    assert verdict(parent, [p - 0.10 for p in parent], bound=0.01)[2] is True
    # for a higher-is-better metric the same numbers read the other way
    assert verdict(parent, slower, bound=0.25, sense="higher") == ("10/10", True, True)

