"""Alternating A/B pairs of one benchmark workload in two checkouts.

    python tests/ab_pairs.py --parent DIR --change DIR --workload NAME \\
        --seed N --seconds S --pairs K

Pair i runs ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0`` in both checkouts, the parent first when i is even and the
change first when i is odd, and reads each run's last line of standard
output as its JSON result. The script stops at the first run that exits
non-zero or reports ``correct: false``, naming the side and the pair, and
exits 1. Otherwise it prints one row for every ``end_to_end`` metric of the
change's ``BENCHMARK.json``: both medians, the relative change of the
median, the interquartile range of the parent's runs, the pairs the
change won by the metric's ``better`` (a tie counts for neither side) and,
last, the metric's ``verdict`` under its ``bound``. Below them come the
same rows, with no verdict, for the raw ``wall_s`` and ``reference_s``,
read from each run's printed report lines (``report_values``): a
normalised gain that the raw wall time does not show comes from the
reference kernel, not from the change. Last come each side's
failed/attempted run counts. ``pair_stats`` holds the statistics and
``verdict`` the rule. This is a script, not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def pair_stats(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs: the medians of both sides, the relative
    change of the median, the parent's interquartile range (linear
    interpolation) and the number of pairs in which the change is strictly
    better, where ``better`` is ``"lower"`` or ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    q1, q3 = np.percentile(parent, [25, 75])
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "relative": (c_med - p_med) / p_med if p_med else float("nan"),
        "parent_iqr": float(q3 - q1),
        "wins": int(sum(sign * (c - p) > 0 for p, c in zip(parent, change))),
    }


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The rule one end-to-end metric is judged by, from paired runs, with
    ``bound`` the worst relative move of the median it allows. The first
    that holds of:

    * ``unresolved``: the parent's interquartile range exceeds ``bound``
      times its median, unless every change run beats every parent run;
    * ``outside bound``: the change's median is worse than the parent's by
      more than ``bound``, relative to the parent's;
    * ``gain``: the change won at least nine tenths of the pairs and its
      median is better by more than the parent's interquartile range;
    * ``within bound``: anything else."""
    stats = pair_stats(parent, change, better)
    sign = 1.0 if better == "higher" else -1.0
    p_med = stats["parent_median"]
    gained = sign * (stats["change_median"] - p_med)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if stats["parent_iqr"] > bound * abs(p_med) and not beats_all:
        return "unresolved"
    if -gained > bound * abs(p_med):
        return "outside bound"
    if 10 * stats["wins"] >= 9 * len(parent) and gained > stats["parent_iqr"]:
        return "gain"
    return "within bound"


# raw report values printed beside the end-to-end metrics, lower is better
RAW = ("wall_s", "reference_s")


def report_values(lines: list[str], names=RAW) -> dict[str, float]:
    """The value of each metric in ``names`` from a benchmark run's printed
    report, whose metric lines read ``  <name>  <value>  <unit>  <note>``.
    Raises ``ValueError`` naming a metric the report lacks."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and parts[0] in names and parts[0] not in found:
            found[parts[0]] = float(parts[1])
    missing = [name for name in names if name not in found]
    if missing:
        raise ValueError(f"report has no line for {', '.join(missing)}")
    return found


def run_bench(checkout: str, args) -> tuple[int, dict | None, str]:
    """One untraced benchmark run in ``checkout``: its exit code, its JSON
    result (None when it printed none; else with the ``report_values`` of
    its report lines under ``"raw"``) and the tail of its stderr."""
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
        if result is not None:
            result["raw"] = report_values(lines[:-1])
    except (json.JSONDecodeError, ValueError):
        result = None
    return proc.returncode, result, proc.stderr[-400:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            code, result, err = run_bench(sides[side], args)
            if code != 0 or result is None or not result.get("correct"):
                why = (f"exited {code}" if code else
                       "printed no result" if result is None else
                       "reported correct: false")
                print(f"pair {i}: the {side} run {why}\n{err}",
                      file=sys.stderr)
                return 1
            results[side].append(result)
            wall = result["metrics"]["norm_wall_s"]["value"]
            print(f"pair {i} {side}: norm_wall_s {wall:.4f}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} "
          f"alternating pairs of {args.seconds:g} s")
    print(f"{'metric':<18}{'parent':>12}{'change':>12}{'rel':>9}"
          f"{'parent_iqr':>12}  change won  verdict")
    rows = [(m["name"], m["better"], m["bound"],
             lambda r, name=m["name"]: r["metrics"][name]["value"])
            for m in metrics]
    rows += [(f"raw {name}", "lower", None,
              lambda r, name=name: r["raw"][name]) for name in RAW]
    for name, better, bound, value in rows:
        runs = [[value(r) for r in results[side]]
                for side in ("parent", "change")]
        stats = pair_stats(*runs, better)
        won = f"{stats['wins']} of {args.pairs}"
        judged = "-" if bound is None else verdict(*runs, better, bound)
        print(f"{name:<18}{stats['parent_median']:>12.4f}"
              f"{stats['change_median']:>12.4f}{stats['relative']:>+9.2%}"
              f"{stats['parent_iqr']:>12.4f}  {won:<10}  {judged}")
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{side} failed/attempted: {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
