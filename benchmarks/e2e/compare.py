"""Compare benchmark results: parent against change, or seed against seed.

Both modes read the ``--out`` files of ``run.py`` and the bounds in the
root ``BENCHMARK.json``.

``pairs`` judges a change::

    python3 benchmarks/e2e/compare.py pairs --parent P1.json ... --change C1.json ...

The i-th parent file and the i-th change file form a pair; produce them
alternately, parent first in odd pairs and change first in even ones, with
the same benchmark code and settings.  At least ten pairs are required.
For each workload and end-to-end metric it reports each side's median and
quartiles, the fraction of pairs the change wins (ties count for neither)
and a verdict:

``unresolved``  the parent's own spread (q3 - q1 over its median) is wider
                than the bound, and the change does not beat the parent in
                every run;
``regression``  the change's median is worse than the parent's by more than
                the bound;
``gain``        the change wins at least nine pairs in ten and the medians
                differ by more than the parent's quartile distance;
``no change``   otherwise.

``spread`` checks that the benchmark is steady::

    python3 benchmarks/e2e/compare.py spread R1.json ... [--write FILE]

Given one file per seed, it reports each metric's median, quartiles and
spread against its bound, and can write that summary as JSON.

Exit status: 0, or 1 when a pair shows a regression or a spread exceeds its
bound (set-up time exempt), or 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE_FOR_GAIN = 0.9
#: Set-up time varies with the file cache; its spread is reported, not gated.
SPREAD_EXEMPT = ("setup_s",)


def load_metrics() -> list[dict]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def load_runs(paths: list[str]) -> list[dict[str, dict[str, float]]]:
    """Per file: workload -> metric -> median value."""
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        runs.append({
            result["workload"]: {
                name: metric["value"] for name, metric in result["metrics"].items()
            }
            for result in payload["workloads"]
        })
    return runs


def _worse_by(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a share of the parent (negative: better)."""
    delta = (change - parent) / parent
    return -delta if better == "higher" else delta


def _wins(parent: float, change: float, better: str) -> bool:
    return change > parent if better == "higher" else change < parent


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> dict:
    """One workload x metric verdict over paired runs."""
    p1, p_median, p3 = statistics.quantiles(parent, n=4)
    c1, c_median, c3 = statistics.quantiles(change, n=4)
    wins = sum(_wins(p, c, better) for p, c in zip(parent, change))
    win_share = wins / len(parent)
    worse_by = _worse_by(p_median, c_median, better)
    always_better = all(_wins(p, c, better) for p in parent for c in change)
    if (p3 - p1) / p_median > bound and not always_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    elif win_share >= WIN_SHARE_FOR_GAIN and abs(c_median - p_median) > p3 - p1:
        verdict = "gain"
    else:
        verdict = "no change"
    return {
        "parent": {"median": p_median, "q1": p1, "q3": p3},
        "change": {"median": c_median, "q1": c1, "q3": c3},
        "win_share": win_share,
        "worse_by": worse_by,
        "verdict": verdict,
    }


def cmd_pairs(args: argparse.Namespace) -> int:
    if len(args.parent) != len(args.change):
        print("error: give as many parent files as change files", file=sys.stderr)
        return 2
    if len(args.parent) < MIN_PAIRS:
        print(f"error: {len(args.parent)} pairs given, at least {MIN_PAIRS} needed",
              file=sys.stderr)
        return 2
    parent, change = load_runs(args.parent), load_runs(args.change)
    regressions = 0
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>5} {'worse':>7}  verdict")
    for workload in sorted(set.intersection(*(set(run) for run in parent + change))):
        for metric in load_metrics():
            name = metric["name"]
            row = judge([run[workload][name] for run in parent],
                        [run[workload][name] for run in change],
                        metric["better"], metric["bound"])
            regressions += row["verdict"] == "regression"
            p, c = row["parent"], row["change"]
            print(f"{workload:<16} {name:<12} "
                  f"{p['median']:>12.4f} [{p['q1']:.4f}, {p['q3']:.4f}] "
                  f"{c['median']:>12.4f} [{c['q1']:.4f}, {c['q3']:.4f}] "
                  f"{row['win_share']:>5.2f} {row['worse_by']:>+7.1%}  "
                  f"{row['verdict']} (bound {metric['bound']:.0%})")
    return 1 if regressions else 0


def cmd_spread(args: argparse.Namespace) -> int:
    runs = load_runs(args.results)
    if len(runs) < 2:
        print("error: the spread needs at least two result files", file=sys.stderr)
        return 2
    summary: dict[str, dict] = {}
    too_wide = 0
    for workload in sorted(set().union(*runs)):
        summary[workload] = {}
        for metric in load_metrics():
            name, bound = metric["name"], metric["bound"]
            values = [run[workload][name] for run in runs if workload in run]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            wide = share > bound and name not in SPREAD_EXEMPT
            too_wide += wide
            summary[workload][name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "n": len(values), "spread": share, "bound": bound,
            }
            print(f"{workload:<16} {name:<12} median {median:>12.4f} "
                  f"[{q1:.4f}, {q3:.4f}] n={len(values)}  spread {share:6.2%} "
                  f"of bound {bound:.0%}{'  TOO WIDE' if wide else ''}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if too_wide else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare end-to-end benchmark results.")
    commands = parser.add_subparsers(dest="command", required=True)
    pairs = commands.add_parser("pairs", help="parent against change")
    pairs.add_argument("--parent", nargs="+", required=True)
    pairs.add_argument("--change", nargs="+", required=True)
    pairs.set_defaults(run=cmd_pairs)
    seeds = commands.add_parser("spread", help="spread over runs of one commit")
    seeds.add_argument("results", nargs="+")
    seeds.add_argument("--write", default=None, help="write the summary as JSON")
    seeds.set_defaults(run=cmd_spread)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
