"""Workload child process.

Usage: python3 bench/worker.py WORKDIR MODE

Imports ivstrata from the checkout's `src`, reads WORKDIR/manifest.json and
every input file, prints one `ready` line (with its import times) and then,
by MODE:

* `setup`  - exits; the parent times start-up only;
* `timed`    - runs the ops in order, cycling, until the manifest's
  seconds have passed and at least the first pass (`prefix` ops) is done,
  taking a host-speed sample (hostspeed.py) before the first op, about every
  SAMPLE_S seconds between ops, and after the last; the samples' own time is
  left out of the timings;
* `traced`   - runs the first pass with every listed public function
  wrapped in a span (see spantrace.py);
* `overhead` - runs the first pass in repeats until the manifest's seconds
  have passed, each op twice back to back, once traced and once not, the
  order alternating from op to op (see `measure_overhead`).

Each op calls `ivstrata.cli.main(argv)` in-process with stdout and stderr
captured. Results go to WORKDIR/result-MODE.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_S = 0.05  # timed mode takes a host-speed sample after the first op that ends this long after the last one


def run_op(cli, argv: list[str]) -> tuple[object, str, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    exc = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    except Exception:  # the op failed; record it and keep the run going
        code = None
        exc = traceback.format_exc()
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), exc, elapsed


def measure_overhead(cli, ops: list[dict], prefix: int, seconds: float) -> dict:
    """(untraced, traced) latency pairs of the first-pass ops, and the output
    digests of each pass with and without tracing, which must all agree."""
    import spantrace

    tracer = spantrace.Tracer()
    pairs: list[tuple[float, float]] = []
    digests: set[str] = set()
    start = time.perf_counter()
    while True:
        digest = {False: hashlib.sha256(), True: hashlib.sha256()}
        for j in range(prefix):
            latency = {}
            for traced in (False, True) if j % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                code, out, _err, _exc, latency[traced] = run_op(cli, ops[j % len(ops)]["argv"])
                if traced:
                    tracer.uninstall()
                    tracer.spans.clear()
                digest[traced].update(f"{j}\0{code}\0{out}\0".encode())
            pairs.append((latency[False], latency[True]))
        digests.update(d.hexdigest() for d in digest.values())
        if time.perf_counter() - start >= seconds:
            return {"pairs": pairs, "digests": sorted(digests)}


def environment(numpy) -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # older numpy prints instead of returning a dict
        blas = {"name": "unknown"}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas}


def main() -> int:
    workdir, mode = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy
    t1 = time.perf_counter()
    import ivstrata.cli as cli
    t2 = time.perf_counter()
    import hostspeed
    manifest = json.loads((workdir / "manifest.json").read_text())
    for name in manifest["files"]:
        (workdir / name).read_bytes()
    print(f"ready {t1 - t0!r} {t2 - t1!r}", flush=True)
    if mode == "setup":
        return 0
    ops, prefix, seconds = manifest["ops"], manifest["prefix"], manifest["seconds"]
    if mode == "overhead":
        result = measure_overhead(cli, ops, prefix, seconds)
        (workdir / f"result-{mode}.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced":
        import spantrace

        tracer = spantrace.Tracer()
        tracer.install()

    first: dict[int, dict] = {}
    runs = [0] * len(ops)
    mismatches: list[int] = []
    latencies: list[float] = []
    cpus: list[float] = []
    samples: list[tuple[int, float]] = []  # (ops done, host-speed sample), timed mode only
    paused = 0.0  # seconds spent on host-speed samples, left out of the timings
    items = 0
    digest = hashlib.sha256()

    def host_sample(j: int) -> None:
        nonlocal paused, last_sample
        t0 = time.perf_counter()
        samples.append((j, hostspeed.sample()))
        paused += time.perf_counter() - t0
        last_sample = time.perf_counter() - start - paused

    start, last_sample = time.perf_counter(), 0.0
    if mode == "timed":
        host_sample(0)
    j = 0
    while True:
        i = j % len(ops)
        if tracer:
            tracer.op = j
        c0 = time.process_time()
        code, out, err, exc, elapsed = run_op(cli, ops[i]["argv"])
        cpus.append(time.process_time() - c0)
        latencies.append(elapsed)
        items += ops[i]["items"]
        runs[i] += 1
        if j < prefix:
            digest.update(f"{j}\0{code}\0{out}\0".encode())
        if i not in first:
            first[i] = {"code": code, "out": out, "err": err, "exc": exc}
        elif (code, out, err, exc) != tuple(first[i].values()):
            mismatches.append(i)
        j += 1
        now = time.perf_counter() - start - paused
        if mode == "timed" and now - last_sample >= SAMPLE_S:
            host_sample(j)
        if j >= prefix and (mode != "timed" or ops[i]["items"] and now >= seconds):
            break
    wall = time.perf_counter() - start - paused
    if mode == "timed" and samples[-1][0] != j:
        host_sample(j)

    result = {
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "items": items,
        "latencies": latencies,
        "cpus": cpus,
        "samples": samples,
        "runs": runs,
        "first": {str(i): r for i, r in first.items()},
        "mismatches": mismatches,
        "digest": digest.hexdigest(),
        "env": environment(numpy),
    }
    if tracer:
        result["trace"] = tracer.summary(wall, manifest["spans"])
    (workdir / f"result-{mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
