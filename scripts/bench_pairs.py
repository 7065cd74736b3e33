#!/usr/bin/env python3
"""Compare two checkouts on the zerosheet benchmark in alternating pairs.

Runs ``zsbench/run.py`` from a parent checkout and from a changed checkout,
N pairs per workload, the parent first in odd pairs and the change first in
even ones, then one traced run per side.  Writes every run and a summary to
one JSON file: per end-to-end metric, each side's median and quartiles, the
number of pairs the change won (ties count for neither), the relative
change of the median, and whether the change met a claimed gain and stayed
within the metric's bound (see :func:`summarize`).  Each side runs its own
``zsbench/`` unchanged.

Usage, from any directory:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --runs fallback=10,protocol=3,large=3 --out BENCH_N.json \\
        --note "what the change does"

Make both checkouts with ``git worktree`` or ``git archive``, not ``cp -r``:
a copy carries its source's ``__pycache__``, and where
``PYTHONDONTWRITEBYTECODE=1`` is set, every fresh interpreter finds those
files stale, compiles the sources again and cannot replace them, which
adds about 20 ms to that side's ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PROTOCOL = ("alternating pairs: the parent runs first in odd pairs, the change first in "
            "even pairs; each side runs from its own checkout with its own zsbench/ files; "
            "one traced run per side after all pairs")


def parse_runs(text: str) -> list[tuple[str, int]]:
    """``fallback=10,protocol=3`` -> [("fallback", 10), ("protocol", 3)]."""
    runs = []
    for item in text.split(","):
        name, _, count = item.partition("=")
        if not name or not count.isdigit() or int(count) < 1:
            raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, got {item!r}")
        runs.append((name, int(count)))
    return runs


def run_bench(checkout: Path, workload: str, trace: int) -> dict | None:
    """One benchmark run at the benchmark's own seed and run length; its
    result object, or None when it printed none."""
    argv = [sys.executable, "zsbench/run.py", "--workload", workload, "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench_pairs: {checkout} {workload} exited {proc.returncode} without a "
              f"result:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per workload and end-to-end metric: both sides' median and quartiles,
    pairs won by the change, the median's relative change, and two verdicts:

    - ``claim_met``: the change won at least 9 of 10 pairs and its median is
      better than the parent's by more than the parent's interquartile range;
    - ``within_bound``: the change's median is worse than the parent's by at
      most the metric's relative bound.  When the parent's interquartile
      range, relative to its median, is wider than the bound, that cannot
      be told: it is ``"unresolved"``, unless every run of the change reads
      better than every run of the parent.

    ``runs`` holds records with ``workload``, ``pair``, ``side``, ``trace``
    and ``result`` (the benchmark's JSON line, or None); ``better`` maps a
    metric to ``"lower"`` or ``"higher"`` and ``bounds`` to its relative
    bound.  Traced runs are left out.
    """
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        timed = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        pairs: dict[int, dict] = {}
        for r in timed:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for p in pairs.values()
                    if p.get("parent") is not None and p.get("change") is not None]
        entry: dict = {"pairs": len(complete)}
        for name, sense in better.items():
            measured = [p for p in complete
                        if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
            if not measured:
                continue
            values = {side: [p[side]["metrics"][name]["value"] for p in measured]
                      for side in ("parent", "change")}
            sign = 1.0 if sense == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            parent, change = _spread(values["parent"]), _spread(values["change"])
            iqr = parent["q3"] - parent["q1"]
            gain = sign * (parent["median"] - change["median"])
            entry[name] = {
                "unit": measured[0]["parent"]["metrics"][name]["unit"],
                "better": sense,
                "parent": parent,
                "change": change,
                "change_wins": f"{wins}/{len(measured)}",
                "median_change_rel": change["median"] / parent["median"] - 1.0,
                "claim_met": 10 * wins >= 9 * len(measured) and gain > iqr,
            }
            if name in bounds:
                bound = bounds[name] * abs(parent["median"])
                if iqr <= bound:
                    entry[name]["within_bound"] = -gain <= bound
                else:
                    apart = max(sign * c for c in values["change"]) < min(
                        sign * p for p in values["parent"])
                    entry[name]["within_bound"] = True if apart else "unresolved"
        results = {side: [r["result"] for r in timed if r["side"] == side]
                   for side in ("parent", "change")}
        entry["failed_share"] = {
            side: sorted({res["failed"] / res["attempted"] for res in found if res})
            for side, found in results.items()
        }
        entry["all_correct"] = all(res is not None and res["correct"]
                                   for found in results.values() for res in found)
        summary[workload] = entry
    return summary


def traced(runs: list[dict]) -> dict:
    """Per workload and side, the per-layer metrics of its traced run."""
    out: dict[str, dict] = {}
    for r in runs:
        if r["trace"] == 1 and r["result"] is not None:
            out.setdefault(r["workload"], {})[r["side"]] = {
                name: m["value"] for name, m in r["result"]["metrics"].items()}
    return out


def _commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--runs", type=parse_runs, required=True, metavar="W=N,...",
                    help="pairs per workload, in the order they run")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--note", default="", help="what the change does, for the record")
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    runs: list[dict] = []
    for workload, count in args.runs:
        for pair in range(1, count + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for position, side in enumerate(order, start=1):
                result = run_bench(sides[side], workload, 0)
                runs.append({"workload": workload, "pair": pair, "order": position,
                             "side": side, "trace": 0, "result": result})
                print(f"bench_pairs: {workload} pair {pair} {side} done", file=sys.stderr)
        for side in ("parent", "change"):
            result = run_bench(sides[side], workload, 1)
            runs.append({"workload": workload, "pair": None, "order": None,
                         "side": side, "trace": 1, "result": result})

    doc = {
        "change": args.note,
        "parent_commit": _commit(sides["parent"]),
        "command": ("python3 zsbench/run.py --workload W --trace 0 (end-to-end) and "
                    "--trace 1 (per layer), at the benchmark's default seed and run length"),
        "machine": (f"{os.cpu_count()}-core {platform.machine()}, Python "
                    f"{platform.python_version()}"),
        "protocol": PROTOCOL,
        "summary": summarize(runs, better, bounds),
        "traced_per_operation": traced(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
