"""End-to-end benchmark driver: host time, set-up and memory per workload.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload <name|all> [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE]

Each workload runs in fresh child processes, one at a time, in rounds: a
cold child (set-up plus one iteration), then a warm child (set-up, then
two timed iterations).  Rounds repeat while another fits in ``--seconds``,
at least five of them.  With ``--trace 1`` one traced child follows.
Every iteration is verified.  Timings are scaled to a reference host speed
measured by a calibration loop in every child (see
``REFERENCE_CALIBRATION_S``).  The driver prints every metric by name with
its unit, and as its last line one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones).

Nothing is written except ``--out`` and ``--trace-out`` when given.  Exit
status: 0 when every output verified, 1 when the result is printed but some
output failed, 2 when no result could be produced (for example when the
checkout holds no ``src/repro``).
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 30
#: A round is one cold child and one warm child of this many iterations.
#: Rounds repeat while another fits in the budget: at least MIN_ROUNDS,
#: at most MAX_ROUNDS.
WARM_ITERATIONS_PER_ROUND = 2
MIN_ROUNDS = 5
MAX_ROUNDS = 20
#: The median time of the calibration loop (child.calibration_s) over ten
#: runs on the host the benchmark was built on.  Timing metrics are reported
#: at this host speed: each run's timings are multiplied by this over its
#: median calibration time, which cancels most of the host's drift between
#: runs.
REFERENCE_CALIBRATION_S = 0.08
#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 120.0

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("jobs_per_s", "jobs/s", "higher"),
    ("setup_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


class BenchError(RuntimeError):
    """A child failed to produce a result."""


# -- run manifest ------------------------------------------------------------

def _git_revision(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: Path) -> str:
    """Digest of every ``src/**/*.py`` path and content: the code measured."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _numpy_version() -> str | None:
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def manifest(args: argparse.Namespace) -> dict:
    return {
        "git_revision": _git_revision(ROOT),
        "source_sha256": _source_sha256(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "loadavg_before": list(os.getloadavg()),
    }


# -- children ----------------------------------------------------------------

def _child(role: str, name: str, seed: int, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, str(HERE / "child.py"), role,
               "--workload", name, "--seed", str(seed), *extra]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{role} child of {name} timed out") from error
    if done.returncode != 0:
        raise BenchError(
            f"{role} child of {name} exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- statistics and verification ---------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and the samples."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def at_reference_speed(stats: dict, factor: float) -> dict:
    """Scale a timing summary to the reference host speed; keep the raw median.

    The samples stay as measured.
    """
    return {**stats, "value": stats["value"] * factor, "q1": stats["q1"] * factor,
            "q3": stats["q3"] * factor, "raw": stats["value"]}


def load_pins() -> dict:
    with open(HERE / "pins.json", encoding="utf-8") as handle:
        return json.load(handle)


def verify(name: str, seed: int, children: list[dict]) -> dict:
    """Check every iteration of every child; count what failed.

    An iteration passes when its run conserved jobs, its digest equals the
    reference and its child counted the reference number of offered jobs.
    The reference is the pinned one for pinned seeds, else the most common
    value across the run, so that every process must agree on it.
    """
    pin = load_pins().get(name, {}).get(str(seed))
    iterations = [
        (child["offered_jobs"], outputs)
        for child in children for outputs in child["outputs"]
    ]
    if pin is not None:
        digest, offered = pin["digest"], pin["offered_jobs"]
    else:
        digest = collections.Counter(o["digest"] for _n, o in iterations).most_common(1)[0][0]
        offered = collections.Counter(n for n, _o in iterations).most_common(1)[0][0]
    failed = sum(
        1 for jobs, outputs in iterations
        if not (outputs["conserved"] and outputs["digest"] == digest and jobs == offered)
    )
    return {"attempted": len(iterations), "failed": failed, "digest": digest,
            "pinned": pin is not None, "offered_jobs": offered}


# -- one workload ------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_out: str | None) -> dict:
    started = time.perf_counter()
    cold: list[dict] = []
    warm: list[dict] = []
    round_s = 0.0
    # Rounds interleave cold and warm children over the whole budget, so a
    # slow stretch of the host touches both metrics alike instead of all
    # samples of one.
    while len(cold) < MIN_ROUNDS or (
        len(cold) < MAX_ROUNDS
        and time.perf_counter() + round_s <= started + seconds
    ):
        round_started = time.perf_counter()
        cold.append(_child("cold", name, seed))
        warm.append(_child("warm", name, seed,
                           "--iterations", str(WARM_ITERATIONS_PER_ROUND)))
        round_s = time.perf_counter() - round_started
    times = [t for child in warm for t in child["iteration_s"]]
    untraced_s = statistics.median(times)
    children = cold + warm
    traced = None
    if trace:
        extra = ["--untraced-s", repr(untraced_s)]
        if trace_out:
            extra += ["--trace-out", trace_out]
        traced = _child("traced", name, seed, *extra)
        children.append(traced)
    check = verify(name, seed, children)
    jobs = check["offered_jobs"]
    calibration = [child["calibration_s"] for child in cold + warm]
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    # jobs_per_s is the offered jobs over the median iteration time, so
    # its quartiles come from the time quartiles, swapped.
    per_iteration = summary(times)
    rate = {"value": jobs / per_iteration["value"], "q1": jobs / per_iteration["q3"],
            "q3": jobs / per_iteration["q1"], "n": per_iteration["n"],
            "samples": [jobs / t for t in times]}
    metrics = {
        "jobs_per_s": at_reference_speed(rate, 1 / scale),
        "setup_s": at_reference_speed(summary([c["setup_s"] for c in cold]), scale),
        "cold_s": at_reference_speed(summary([c["cold_s"] for c in cold]), scale),
        "peak_rss_mb": summary([child["peak_rss_mb"] for child in warm]),
    }
    for metric, unit, _better in END_TO_END:
        metrics[metric]["unit"] = unit
    return {
        "workload": name,
        "metrics": metrics,
        "iterations": {"cold": len(cold), "warm": len(times),
                       "traced": 1 if traced else 0},
        "outputs": warm[0]["outputs"][0],
        **check,
        "failed_ratio": check["failed"] / check["attempted"],
        "per_layer": traced["per_layer"] if traced else None,
        "missing_targets": traced["missing"] if traced else None,
        "calibration_s": calibration,
        "host_scale": scale,
        "wall_s": time.perf_counter() - started,
    }


# -- reporting ---------------------------------------------------------------

def print_workload(result: dict) -> None:
    out = result["outputs"]
    counts = result["iterations"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"(cold x{counts['cold']}, warm n={counts['warm']}, "
          f"traced x{counts['traced']}, {result['wall_s']:.1f} s)")
    print(f"  host speed: calibration median "
          f"{statistics.median(result['calibration_s']):.4f} s, timings x "
          f"{result['host_scale']:.4f} to the reference {REFERENCE_CALIBRATION_S} s")
    for metric, unit, better in END_TO_END:
        m = result["metrics"][metric]
        raw = f"  raw {m['raw']:.4f}" if "raw" in m else ""
        print(f"  {metric:<14} {m['value']:>12.4f} {unit:<7} "
              f"q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  n={m['n']}{raw}  "
              f"({better} is better)")
    print(f"  {'failed_ratio':<14} {result['failed_ratio']:>12.4f} fraction "
          f"({result['failed']}/{result['attempted']} iterations failed)")
    served = "-" if out["served"] is None else out["served"]
    shed = "-" if out["shed"] is None else out["shed"]
    print(f"  outputs: offered {result['offered_jobs']} jobs, served {served}, "
          f"shed {shed}, virtual p99 {out['p99_s']:.3f} s, launch energy "
          f"{out['launch_energy_j'] / 1e6:.3f} MJ")
    print(f"  digest {result['digest'][:16]}… "
          f"({'pinned' if result['pinned'] else 'agreed across processes'})")
    if result["per_layer"] is not None:
        if result["missing_targets"]:
            print(f"  missing wrap targets: {', '.join(result['missing_targets'])}")
        print(f"  {'per-layer metric':<38} {'value':>14}  unit          moves")
        for name, unit, _better, moves in spans.PER_LAYER:
            print(f"  {name:<38} {result['per_layer'][name]:>14.6g}  "
                  f"{unit:<13} {moves}")


def result_line(results: list[dict], trace: bool) -> dict:
    units = ({name: unit for name, unit, _b, _m in spans.PER_LAYER} if trace
             else {name: unit for name, unit, _b in END_TO_END})
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, unit in units.items():
            value = (result["per_layer"][name] if trace
                     else result["metrics"][name]["value"])
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def _trace_path(trace_out: str | None, name: str, several: bool) -> str | None:
    if trace_out is None or not several:
        return trace_out
    path = Path(trace_out)
    return str(path.with_name(f"{path.stem}.{name}{path.suffix}"))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end host-time benchmark of the fleet simulator.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds a traced child and reports per-layer metrics")
    parser.add_argument("--out", default=None, help="write the full result as JSON")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced child's spans as Chrome trace JSON")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    run_manifest = manifest(args)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace),
                _trace_path(args.trace_out, name, len(names) > 1),
            )
            result["seed"] = args.seed
            print_workload(result)
            results.append(result)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    run_manifest["iterations"] = {r["workload"]: r["iterations"] for r in results}
    line = result_line(results, bool(args.trace))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"manifest": run_manifest, "workloads": results,
                       "result": line}, handle, indent=2)
            handle.write("\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
