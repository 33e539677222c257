"""Run the benchmark over several seeds and report run-to-run spread.

    python3 bench/spread.py [--out FILE]

The committed baseline, bench/BENCH_baseline.json, is the output of
`python3 bench/spread.py --out bench/BENCH_baseline.json`.

For each workload in BENCHMARK.json, runs `bench/run.py` once per seed 1 to
10 for BENCHMARK.json's run_seconds, then prints, for every end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound, flagging spreads above a third
of it; it exits 1 if a spread is above the bound or an op failed. With --out it also makes one traced run per workload and writes
everything, with the workload rationale and the layer-to-metric map, as
JSON: that file is the baseline later changes compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']}/{result['attempted']} ops failed\n{proc.stderr}",
              file=sys.stderr)
    return result, lines[:-1]


SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "seeds": list(SEEDS), "layer_map": workloads.LAYER_MAP, "workloads": {}}
    ok = True
    for name in whys:
        runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        ok &= all(r["correct"] for r, _ in runs)
        stats = {}
        print(f"== {name}: seeds {SEEDS[0]}-{SEEDS[-1]}, {seconds} s each")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r, _ in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            stats[metric] = {"unit": runs[0][0]["metrics"][metric]["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound, "values": values}
            ok &= spread <= bound
            flag = "  <-- above bound" if spread > bound else "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"  {metric:16s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
        env = json.loads(next(line[4:] for line in runs[0][1] if line.startswith("env ")))
        entry = dict(why=whys[name], **workloads.WORKLOADS[name], env=env, end_to_end=stats,
                     failed=sum(r["failed"] for r, _ in runs))
        if args.out:
            traced, traced_lines = run_once(name, SEEDS[0], seconds, 1)
            ok &= traced["correct"]
            entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
            entry["tracing_overhead"] = next(line for line in traced_lines if line.startswith("tracing overhead"))
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
