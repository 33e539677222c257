"""Alternating pairs of benchmark runs on two checkouts, summarised per end-to-end metric.

Usage:
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N [--seconds 20]

Both directories are checkouts of this repository. The tool refuses to run
(exit 2) unless their `bench/` trees and `BENCHMARK.json` are byte-identical,
so both sides are measured by the same benchmark. It then runs
`bench/run.py --workload W --seed S --seconds SECONDS` in each checkout, one
run at a time, N times a side; pair i runs the parent first when i is odd
and the change first when i is even, so a drift in host speed falls on both
sides alike. Each run's last stdout line is `bench/run.py`'s JSON summary.

It prints each pair's values, then one line per end-to-end metric of
`BENCHMARK.json`: the parent's and the change's median with their quartiles,
the change of the median, in how many pairs the change was better, whether
the change of the median exceeds the parent's interquartile range, and
whether it is worse than the metric's bound; and last the failed and
attempted op counts of each side. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under `root` (bytecode caches aside) by its relative path, with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


def differences(parent: Path, change: Path) -> list[str]:
    """The benchmark files that are not the same in both checkouts."""
    old, new = _tree(parent / "bench"), _tree(change / "bench")
    differ = [f"bench/{name}" for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]
    if (parent / "BENCHMARK.json").read_bytes() != (change / "BENCHMARK.json").read_bytes():
        differ.append("BENCHMARK.json")
    return differ


def bench_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """`bench/run.py`'s JSON summary for one run in `checkout`; RuntimeError if the run fails."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method, so two values suffice)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary_lines(metrics: dict[str, dict], runs: list[tuple[dict, dict]]) -> list[str]:
    """One line per end-to-end metric found in the runs, then the op counts."""
    lines = []
    for name in runs[0][0]["metrics"]:
        spec = metrics.get(name.rsplit(".", 1)[-1])
        if spec is None:
            continue
        old = [p["metrics"][name]["value"] for p, _ in runs]
        new = [c["metrics"][name]["value"] for _, c in runs]
        higher = spec["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(old, new))
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        rel = (nm - om) / abs(om) if om else 0.0
        worse = -rel if higher else rel
        lines.append(
            f"{name} ({spec['unit']}, {spec['better']} is better): parent {om:.6g} [{o1:.6g}, {o3:.6g}], "
            f"change {nm:.6g} [{n1:.6g}, {n3:.6g}], {100 * rel:+.2f}%, change better in {wins}/{len(runs)} pairs, "
            f"median shift {'beyond' if abs(nm - om) > o3 - o1 else 'within'} the parent's IQR, "
            f"{'WORSE than' if worse > spec['bound'] else 'within'} its {100 * spec['bound']:g}% bound"
        )
    for side, index in (("parent", 0), ("change", 1)):
        failed = sum(run[index]["failed"] for run in runs)
        attempted = sum(run[index]["attempted"] for run in runs)
        lines.append(f"{side} failed ops {failed} of {attempted} attempted")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout measured as the parent")
    parser.add_argument("change", type=Path, help="checkout measured as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    differ = differences(args.parent, args.change)
    if differ:
        print(f"error: the checkouts' benchmarks differ: {', '.join(differ)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for i in range(1, args.pairs + 1):
        order = (("parent", args.parent), ("change", args.change))
        if i % 2 == 0:
            order = order[::-1]
        try:
            result = {side: bench_run(path, args.workload, args.seed, args.seconds) for side, path in order}
        except RuntimeError as err:
            print(f"error: pair {i}: {err}", file=sys.stderr)
            return 1
        runs.append((result["parent"], result["change"]))
        values = ", ".join(
            f"{name} {result['parent']['metrics'][name]['value']:.6g}/{result['change']['metrics'][name]['value']:.6g}"
            for name in result["parent"]["metrics"]
        )
        print(f"pair {i} ({order[0][0]} first; parent/change): {values}", flush=True)
    for line in summary_lines(metrics, runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
