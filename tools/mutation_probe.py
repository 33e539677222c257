"""Seeded mutation probe: which small edits of one module do the given tests miss?

Usage:
    python3 tools/mutation_probe.py MODULE TEST_FILE [TEST_FILE ...]
        [--workers W]

MODULE is a file of `src/ivstrata` (for example `montecarlo.py`), each
TEST_FILE a path relative to the repository root. The probe copies the
repository (without `.git`) into a temporary directory per worker and never
writes to the checkout. It lists every mutation site of the module, and
for each mutant rewrites the copy's module, runs `python -m pytest -x` on
the test files in the copy and puts the module back. A mutant that no test
fails survives; every survivor is printed as
`file:line:column operator: before -> after`. The operators are a selective
set (Offutt et al., ACM TOSEM 1996):

* `arith`   - `+` and `-` swapped, `*` and `/` swapped (also in `+=` and kin);
* `compare` - a comparison flipped at its boundary (`<` and `<=`, `>` and
  `>=`), or negated (`==` and `!=`, `is` and `is not`, `in` and `not in`);
* `minmax`  - `min` and `max` swapped, as names or attributes (also numpy's
  `minimum` and `maximum`);
* `neg`     - a unary minus dropped;
* `const`   - a numeric constant changed: 0 becomes 1, any other c becomes 2c;
* `bool`    - `and` and `or` swapped.

Nothing inside an f-string (the error messages), a docstring or an
annotation is mutated. The unmutated copy must pass first, and its run time
sets the timeout of every mutant's run. Each test run gets one BLAS thread
and a memory cap, and a mutant whose run times out counts as killed.
Every run uses the same hypothesis seed, so a rerun makes the same verdicts.
Standard library only; not collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import copy as copy_module
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEMORY_CAP = 3 * 2**30  # bytes of address space a test run may take
# A mutant's test run may take this many times the unmutated run. The unmutated montecarlo.py run
# (tests/test_montecarlo.py and tests/test_golden.py) takes about 5 s on a 2-core x86 host, so a mutant
# gets about 50 s; a mutant that loops or draws far more data runs into it instead of stalling the probe.
TIMEOUT_FACTOR = 10
HYPOTHESIS_SEED = 0

_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
            ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
_MINMAX = {"min": "max", "max": "min", "minimum": "maximum", "maximum": "minimum"}
_VERDICT = {"fail": "killed", "timeout": "timed out", "pass": "SURVIVED"}


@dataclass(frozen=True)
class Mutant:
    operator: str
    before: str
    after: str
    span: tuple[int, int, int, int]  # lineno, col_offset, end_lineno, end_col_offset of the replaced node
    statement: bool  # the replacement is a whole statement, so it takes no parentheses

    @property
    def where(self) -> str:
        return f"{self.span[0]}:{self.span[1] + 1}"


def _skipped(tree: ast.Module) -> set[int]:
    """ids of the nodes no operator may touch: f-strings, docstrings and annotations, with all they hold."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            roots.append(node)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                roots.append(first)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            roots.append(node.returns)
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        if isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def _variants(node: ast.AST) -> list[tuple[str, ast.AST]]:
    """(operator, mutated copy of node) for each mutant of this one node."""
    def copy(**changes):
        new = copy_module.deepcopy(node)
        for attr, value in changes.items():
            setattr(new, attr, value)
        return new

    out = []
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _ARITH:
        out.append(("arith", copy(op=_ARITH[type(node.op)]())))
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _COMPARE:
                ops = [type(o)() for o in node.ops]
                ops[i] = _COMPARE[type(op)]()
                out.append(("compare", copy(ops=ops)))
    elif isinstance(node, ast.BoolOp):
        out.append(("bool", copy(op=ast.Or() if isinstance(node.op, ast.And) else ast.And())))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        out.append(("neg", node.operand))
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        out.append(("const", ast.Constant(1 if node.value == 0 else 2 * node.value)))
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MINMAX:
            out.append(("minmax", copy(func=ast.Name(_MINMAX[func.id], ast.Load()))))
        elif isinstance(func, ast.Attribute) and func.attr in _MINMAX:
            new = copy()
            new.func.attr = _MINMAX[func.attr]
            out.append(("minmax", new))
    return out


def mutants(source: str) -> list[Mutant]:
    """Every mutant of the source, in source order."""
    tree = ast.parse(source)
    skipped = _skipped(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped or not hasattr(node, "end_col_offset"):
            continue
        for operator, new in _variants(node):
            span = (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)
            found.append(Mutant(operator, ast.unparse(node), ast.unparse(new), span, isinstance(node, ast.stmt)))
    return sorted(found, key=lambda m: (m.span, m.operator, m.after))


def apply(source: str, mutant: Mutant) -> str:
    """The source with the mutant's node replaced by its mutated text."""
    lines = source.splitlines(keepends=True)

    def offset(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return sum(map(len, lines[:line - 1])) + len(lines[line - 1].encode()[:col].decode())

    lineno, col, end_lineno, end_col = mutant.span
    text = mutant.after if mutant.statement else f"({mutant.after})"
    return source[:offset(lineno, col)] + text + source[offset(end_lineno, end_col):]


# Runs pytest under an address-space cap, so that a mutant that asks for a huge array fails instead of
# taking the machine's memory.
_LAUNCH = f"""import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_CAP}, {MEMORY_CAP}))
import pytest
sys.exit(pytest.main(sys.argv[1:]))"""


def run_tests(copy: Path, tests: list[str], timeout: float | None = None) -> str:
    """'pass', 'fail' or 'timeout' for one pytest run in the copy."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's pyproject puts its own src first
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no mutant replays examples another one found
    cmd = [sys.executable, "-c", _LAUNCH, "-x", "-q", "-p", "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def _copy_repo(into: Path) -> Path:
    target = into / "repo"
    shutil.copytree(ROOT, target, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work", "*.egg-info"))
    return target


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a file of src/ivstrata, e.g. montecarlo.py")
    parser.add_argument("tests", nargs="+", help="test files, relative to the repository root")
    parser.add_argument("--workers", type=int, default=1, help="test runs at once (default 1)")
    args = parser.parse_args(argv)
    if not 1 <= args.workers <= (os.cpu_count() or 1):
        parser.error(f"--workers must be between 1 and {os.cpu_count() or 1}")
    rel = Path("src") / "ivstrata" / args.module
    source = (ROOT / rel).read_text(encoding="utf-8")
    found = mutants(source)
    print(f"{rel}: {len(found)} mutants against {' '.join(args.tests)}", file=sys.stderr)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copies = queue.Queue()
        for w in range(args.workers):
            copies.put(_copy_repo(Path(tmp) / str(w)))
        probe = copies.get()
        unmutated = time.perf_counter()
        if run_tests(probe, args.tests) != "pass":
            print("the unmutated tests do not pass; no mutant run", file=sys.stderr)
            return 1
        copies.put(probe)
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - unmutated)
        print(f"unmutated run passed; a mutant's run times out after {timeout:.0f} s", file=sys.stderr)

        def run(mutant: Mutant) -> str:
            copy = copies.get()
            try:
                (copy / rel).write_text(apply(source, mutant), encoding="utf-8")
                outcome = run_tests(copy, args.tests, timeout)
                print(f"{rel}:{mutant.where} {mutant.operator} {_VERDICT[outcome]}", file=sys.stderr, flush=True)
                return outcome
            finally:
                (copy / rel).write_text(source, encoding="utf-8")
                copies.put(copy)

        with concurrent.futures.ThreadPoolExecutor(args.workers) as pool:
            outcomes = list(pool.map(run, found))
    survivors = [m for m, outcome in zip(found, outcomes) if outcome == "pass"]
    for m in survivors:
        print(f"{rel}:{m.where} {m.operator}: {m.before} -> {m.after}")
    counts = ", ".join(f"{_VERDICT[k].lower()} {outcomes.count(k)}" for k in _VERDICT)
    print(f"{counts} of {len(found)} in {time.perf_counter() - start:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
