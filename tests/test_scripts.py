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
                               "kernels_per_s": "higher"})

    op = summary["fallback"]["op_s.p50"]
    assert summary["fallback"]["pairs"] == 5
    assert op["parent"] == {"median": 0.32, "q1": 0.31, "q3": 0.33}
    assert op["change"]["median"] == 0.12
    assert op["change"]["q1"] == pytest.approx(0.11) and op["change"]["q3"] == 0.31
    # the tie in pair 3 counts for neither side
    assert op["change_wins"] == "3/5"
    assert op["median_change_rel"] == pytest.approx(0.12 / 0.32 - 1)
    assert summary["fallback"]["peak_rss_mb"]["change_wins"] == "0/5"
    # a metric no run reports is left out
    assert "kernels_per_s" not in summary["fallback"]
    assert summary["fallback"]["failed_share"] == {"parent": [0.0], "change": [0.0]}
    assert summary["fallback"]["all_correct"] is True

    assert summary["large"]["op_s.p50"]["change_wins"] == "1/1"
    assert summary["large"]["failed_share"] == {"parent": [0.25], "change": [0.0]}
    assert summary["large"]["all_correct"] is False
