"""ivstrata benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of mc_large, mc_small, exact_batch, scan_fine, or `all` to run
each in turn. It generates the workload's scenario files from the
seed, then runs one child process at a time (bench/worker.py), each a fresh
interpreter that imports ivstrata from `src` and calls `ivstrata.cli.main`
in-process:

* several children that only start up, for `setup_s`: the median start
  (a single start varies by a quarter or more);
* with --trace 0, one child that runs the op list for S seconds; the
  end-to-end metrics come from it: rate and CPU per item, each the median
  over its windows of about a second (see `windows`), median and tail
  latency over all its ops (see `tail`), and its peak resident memory;
* with --trace 1, one traced child over the first pass of the op list, for
  the per-layer metrics, then one child that runs that pass for S seconds
  with each op twice back to back, traced and untraced, for the tracing
  overhead (see `overhead_note`). The output digests of the traced child
  and of every pass of the second, traced or not, must match, which checks
  determinism across processes and that tracing changes no output.

Other tenants of the host slow every process on it by up to half, so every
end-to-end time is scaled to a nominal host speed measured by a fixed
reference task (hostspeed.py): each op by samples taken just before and
after it, setup_s by the samples taken around the starts. The unscaled
figures are printed too.

Every op's exit code and output are checked (workloads.py). The last line
of stdout is one JSON object: correct, attempted, failed, metrics. The BLAS
thread environment is left as it is and recorded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_item", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
SETUP_STARTS = 20  # start-up-only children per run; with the workload child's start they give setup_s
TAIL_STRETCHES = 5
WINDOW_S = 1.0  # items_per_s and cpu_ms_per_item are medians over windows of at least this much scaled op time
CHILD_TIMEOUT_S = 100


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(worker_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **worker_env,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "commit": git_commit(),
    }


def run_child(workdir: Path, mode: str) -> tuple[float, float, float, dict]:
    """Start one worker; return (seconds to ready, import numpy s, import
    ivstrata s, result dict or {} for setup-only children)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(workdir), mode],
        stdout=subprocess.PIPE, text=True, cwd=workdir,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {mode} ran past {CHILD_TIMEOUT_S} s") from err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    words = line.split()
    if code != 0 or len(words) != 3 or words[0] != "ready":
        raise BenchError(f"worker {mode} exited {code} after {line!r}")
    result = {}
    if mode != "setup":
        result = json.loads((workdir / f"result-{mode}.json").read_text())
    return ready, float(words[1]), float(words[2]), result


def sampled_child(workdir: Path, mode: str, host: list[float]) -> tuple[float, float, float, dict]:
    """run_child, with a host-speed sample just before and just after it
    appended to `host`."""
    host.append(hostspeed.sample())
    child = run_child(workdir, mode)
    host.append(hostspeed.sample())
    return child


def op_failure(op: workloads.Op, record: dict) -> str | None:
    if record["exc"]:
        return "traceback: " + record["exc"].strip().splitlines()[-1]
    if record["code"] != op.expect:
        return f"exit {record['code']}, expected {op.expect}: {record['err'].strip()[:200]}"
    err_lines = record["err"].splitlines()
    if op.expect != 0:
        if len(err_lines) != 1 or not err_lines[0].startswith("error: "):
            return f"expected one 'error:' line on stderr, got {err_lines!r}"
        return None
    if err_lines:
        return f"unexpected stderr {err_lines[:2]!r}"
    if op.check is None:
        return None
    try:
        return op.check(record["out"])
    except (ValueError, IndexError, KeyError) as err:
        return f"unparseable output ({type(err).__name__}: {err})"


def evaluate(plan: workloads.Plan, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) for one child's run."""
    first = {int(i): r for i, r in result["first"].items()}
    bad = {i: msg for i, r in first.items() if (msg := op_failure(plan.ops[i], r))}
    if not any(i < plan.prefix for i in bad):
        outputs = {i: first[i]["out"] for i in range(plan.prefix)}
        for group_check in plan.group_checks:
            for i, msg in group_check(outputs):
                bad.setdefault(i, msg)
    runs = result["runs"]
    failed = sum(runs[i] for i in bad) + len(result["mismatches"])
    messages = [f"op {i} {plan.ops[i].argv}: {msg}" for i, msg in sorted(bad.items())]
    messages += [f"op {i} {plan.ops[i].argv}: output differs between repeats" for i in result["mismatches"]]
    return sum(runs), failed, messages


def percentile(sorted_values: list[float], pct: float) -> float:
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies: list[float], pct: float, round_ops: int) -> tuple[float, int, int]:
    """Latency at the workload's tail percentile: the median of it over up to
    TAIL_STRETCHES consecutive stretches of whole rounds, so that a burst of
    host load in one stretch does not move it. Returns (seconds, stretches,
    ops beyond the percentile in the whole run)."""
    rounds = len(latencies) // round_ops
    k = max(1, min(TAIL_STRETCHES, rounds))
    size = rounds // k * round_ops
    stretches = [latencies[i * size:(i + 1) * size] for i in range(k - 1)] + [latencies[(k - 1) * size:]]
    value = statistics.median(percentile(sorted(s), pct) for s in stretches)
    return value, k, math.floor(len(latencies) * (100.0 - pct) / 100.0 + 1e-9)


def op_scales(result: dict) -> list[float]:
    """The host-speed scale of each op of the timed loop: NOMINAL_S over the
    mean of the host-speed samples taken just before and just after it."""
    samples, scales = result["samples"], []
    for (j0, before), (j1, after) in zip(samples, samples[1:]):
        scales += [2.0 * hostspeed.NOMINAL_S / (before + after)] * (j1 - j0)
    return scales


def windows(plan: workloads.Plan, result: dict, scales: list[float]) -> list[tuple[float, float]]:
    """(items per second, CPU seconds per item) of each window of the timed
    loop, scaled to nominal host speed. A window ends at the first end of a
    whole round of ops after WINDOW_S seconds of scaled op time."""
    out, lat, cpu, items = [], 0.0, 0.0, 0
    for j, (x, c, scale) in enumerate(zip(result["latencies"], result["cpus"], scales)):
        lat, cpu, items = lat + x * scale, cpu + c * scale, items + plan.ops[j % len(plan.ops)].items
        if lat >= WINDOW_S and (j + 1) % plan.round == 0 and items:
            out.append((items / lat, cpu / items))
            lat, cpu, items = 0.0, 0.0, 0
    return out or [(items / lat, cpu / items)]


def overhead_note(pairs: list[tuple[float, float]], prefix: int) -> str:
    """The tracing overhead per first pass: the summed traced minus untraced
    latencies of back-to-back op pairs, divided by the passes. It is stated
    as a number only when a one-sided sign test over the pairs (normal
    approximation) resolves it at p < 0.01; otherwise the output says it is
    within noise."""
    passes = len(pairs) / prefix
    plain_s = sum(u for u, _ in pairs) / passes
    over_s = sum(t - u for u, t in pairs) / passes
    slower = sum(t > u for u, t in pairs)
    p = statistics.NormalDist().cdf((len(pairs) - 2 * slower) / math.sqrt(len(pairs)))
    basis = (f"{len(pairs)} back-to-back op pairs over {passes:g} passes of the first {prefix} ops, "
             f"traced slower in {slower}, sign-test p={p:.2g}; untraced pass {plain_s:.4f} s")
    if p < 0.01 and over_s > 0:
        return f"tracing overhead {over_s:.4f} s per pass ({100 * over_s / plain_s:.2f}%) from {basis}"
    return f"tracing overhead within noise, from {basis}"


def prepare(name: str, seed: int, seconds: int) -> tuple[workloads.Plan, Path]:
    plan = workloads.PLANS[name](seed)
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    trace_dir = ROOT / ".bench_work" / "trace"
    trace_dir.mkdir(exist_ok=True)
    for path, text in plan.files.items():
        (workdir / path).write_text(text)
    manifest = {
        "files": sorted(plan.files),
        "ops": [{"argv": op.argv, "items": op.items} for op in plan.ops],
        "prefix": plan.prefix,
        "round": plan.round,
        "seconds": seconds,
        "spans": str(trace_dir / f"spans-{name}-{seed}.jsonl"),
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    return plan, workdir


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    """Run one workload; return correct, attempted, failed, metrics, and
    what the human-readable report needs."""
    plan, workdir = prepare(name, seed, seconds)
    try:
        host: list[float] = []  # host-speed samples around the starts
        starts = [sampled_child(workdir, "setup", host) for _ in range(SETUP_STARTS)]
        notes = []
        if traced:
            result = run_child(workdir, "traced")[3]
            overhead = run_child(workdir, "overhead")[3]
            attempted, failed, messages = evaluate(plan, result)
            digests = {result["digest"], *overhead["digests"]}
            if len(digests) != 1:
                failed = attempted
                messages.append(f"first-pass digests differ between processes or with tracing: {sorted(digests)}")
            metrics = dict(result["trace"])
            metrics["setup.import_numpy_s"] = statistics.median(s[1] for s in starts)
            metrics["setup.import_ivstrata_s"] = statistics.median(s[2] for s in starts)
            values = {m: (metrics[m], per_layer_unit(m)) for m in spantrace.metric_names()}
            notes.append(overhead_note(overhead["pairs"], plan.prefix))
        else:
            starts.append(sampled_child(workdir, "timed", host))
            result = starts[-1][3]
            attempted, failed, messages = evaluate(plan, result)
            lat = result["latencies"]
            scales = op_scales(result)
            scaled = [x * scale for x, scale in zip(lat, scales)]
            tail_s, stretches, beyond = tail(scaled, plan.tail_pct, plan.round)
            rates, cpus = zip(*windows(plan, result, scales))
            values = {
                "setup_s": statistics.median(s[0] for s in starts) * hostspeed.NOMINAL_S / statistics.median(host),
                "items_per_s": statistics.median(rates),
                "op_p50_ms": statistics.median(scaled) * 1e3,
                "op_tail_ms": tail_s * 1e3,
                "cpu_ms_per_item": statistics.median(cpus) * 1e3,
                "peak_rss_mb": result["maxrss_kb"] / 1024.0,
                "ok_ratio": (attempted - failed) / attempted,
            }
            values = {m: (values[m], unit) for m, unit in END_TO_END}
            notes.append(f"times are scaled to nominal host speed (hostspeed.py, {len(result['samples'])} samples, "
                         f"scale median {statistics.median(scales):.4g}, range {min(scales):.4g}-{max(scales):.4g}); "
                         f"setup_s is the median of {len(starts)} starts, scaled by the median of the {len(host)} samples "
                         f"around them ({statistics.median(host) * 1e3:.4g} ms); items_per_s and cpu_ms_per_item are "
                         f"medians of {len(rates)} windows; op_p50_ms is the median of all {len(lat)} ops")
            notes.append(f"unscaled: setup median {statistics.median(s[0] for s in starts):.6g} s; whole run "
                         f"{result['items'] / result['wall_s']:.6g} items/s, "
                         f"p50 {statistics.median(lat) * 1e3:.6g} ms, "
                         f"{math.fsum(result['cpus']) * 1e3 / result['items']:.6g} CPU ms/item "
                         f"({result['items']} items in {result['wall_s']:.3f} s)")
            whole_scaled = result["items"] / math.fsum(scaled)
            if whole_scaled < 0.75 * values["items_per_s"][0]:
                notes.append(f"warning: the scaled whole-run rate is {100 * (1 - whole_scaled / values['items_per_s'][0]):.0f}% "
                             "below items_per_s; the program slowed down over the run")
            notes.append(f"op_tail_ms is p{plan.tail_pct:g}, the median over {stretches} stretches of the {len(lat)} ops; "
                         f"{beyond} ops beyond it in the whole run"
                         + (" (fewer than 10: too few for a steady tail)" if beyond < 10 else ""))
            notes.append(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
        notes.append(f"digest sha256 {result['digest']} (stdout of the first {plan.prefix} ops, --precision full)")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "values": values,
            "notes": notes,
            "messages": messages,
            "env": environment(result["env"]),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="timed seconds, at least 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ivstrata" / "cli.py").is_file():
        print(f"error: no ivstrata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(workloads.PLANS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        print(f"== {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("env " + json.dumps(run["env"], sort_keys=True))
        for note in run["notes"]:
            print(note)
        for metric, (value, unit) in run["values"].items():
            print(f"{metric} {value!r} {unit}")
        for msg in run["messages"][:10]:
            print(f"FAIL {msg}", file=sys.stderr)
        prefix = f"{name}." if args.workload == "all" else ""
        summary["correct"] &= run["correct"]
        summary["attempted"] += run["attempted"]
        summary["failed"] += run["failed"]
        summary["metrics"].update(
            {prefix + m: {"value": v, "unit": u} for m, (v, u) in run["values"].items()}
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
