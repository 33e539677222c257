"""Output digests of every benchmark op: a byte-identity check between two checkouts.

Usage:
    python3 tools/op_digests.py SEED

For each workload of `bench/workloads.py`, builds its plan at SEED, writes
the plan's scenario files to a temporary directory and runs every op of the
plan in order, in this process, through `ivstrata.cli.main` from the
checkout's `src`, as the bench worker does (`bench/worker.py`'s `run_op`;
both bench files are imported read-only). It prints one line a workload:

    NAME OPS SHA256

where SHA256 hashes each op's index, exit code, stdout and stderr. Two
checkouts that print the same lines at a seed gave every op the same bytes.
An op that raises instead of exiting is also hashed by the last line of its
traceback, its exception's type and message. Standard library and the
package only; not collected by pytest.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import worker  # noqa: E402  (bench/, found through the path set above)
import workloads  # noqa: E402
from ivstrata import cli  # noqa: E402


def digest(plan: workloads.Plan) -> str:
    """The sha256 of every op's index, exit code, stdout and stderr, run in the current directory."""
    for path, text in plan.files.items():
        Path(path).write_text(text)
    h = hashlib.sha256()
    for j, op in enumerate(plan.ops):
        code, out, err, exc, _ = worker.run_op(cli, op.argv)
        raised = exc.splitlines()[-1] if exc else ""  # the traceback's other lines name this checkout's paths
        h.update(f"{j}\0{code}\0{out}\0{err}\0{raised}\0".encode())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].lstrip("-").isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seed = int(argv[0])
    start = os.getcwd()
    for name, make_plan in workloads.PLANS.items():
        plan = make_plan(seed)
        with tempfile.TemporaryDirectory(prefix=f"op-digests-{name}-") as tmp:
            os.chdir(tmp)
            try:
                line = f"{name} {len(plan.ops)} {digest(plan)}"
            finally:
                os.chdir(start)
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
