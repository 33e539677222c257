"""Golden CLI output: exact `--precision full` bytes for literal scenarios.

Every run's exit code, stdout and stderr is compared byte for byte with
`golden_expected.json`. The scenarios cover equal-means strata, constant
effects (with and without cancelling defier shares), non-uniform and
degenerate assignment, zero-probability strata and groups, and first
stages that select each clustering scenario. Argument handling is pinned
too: the `--help` text of the program and of every subcommand, the bare
usage error, and one bad value for each flag that has choices or a type.

After a deliberate output change, rewrite the expected file with
`PYTHONPATH=src python tests/test_golden.py` and review its diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from ivstrata.cli import main

EXPECTED = Path(__file__).with_name("golden_expected.json")


def _pop(strata, assignment=None):
    doc = {"strata": [{"tag": t, "prob": p, "means": m, "noise_sd": sd} for t, p, m, sd in strata]}
    if assignment is not None:
        doc["assignment"] = assignment
    return {"population": doc}


POPULATIONS = {
    "benchmark": _pop([
        ("C1C2", 0.6, [0.0, 1033.3333333333333, 500.0], 150.0),
        ("C1ID2", 0.2, [0.0, 900.0, 500.0], 150.0),
        ("ID1C2", 0.2, [0.0, 0.0, 500.0], 150.0),
    ]),
    "all_ten": _pop([
        ("C1C2", 0.1, [1.0, 7.5, -3.25], 1.0),
        ("C1ID2", 0.1, [0.5, 11.0, 2.0], 0.0),
        ("C1NT2", 0.1, [-2.0, 4.0, 9.0], 2.5),
        ("NT1NT2", 0.1, [3.0, 3.5, 4.0], 0.0),
        ("NT1C2", 0.1, [0.1, 0.2, 0.7], 0.3),
        ("OT1AT2", 0.1, [10.0, -10.0, 1.0 / 3.0], 0.0),
        ("AT1OT2", 0.1, [2.0 / 3.0, 5.0, 6.0], 1.0),
        ("AT1ND2", 0.1, [-1.5, 0.25, 8.0], 0.0),
        ("ND1AT2", 0.1, [4.0, 12.0, -6.0], 0.5),
        ("ID1C2", 0.1, [0.0, 1.1, 2.2], 0.0),
    ]),
    "equal_means": _pop([
        ("C1C2", 0.3, [1.5, 4.25, -2.0], 0.0),
        ("C1ID2", 0.15, [1.5, 4.25, -2.0], 0.0),
        ("ID1C2", 0.25, [1.5, 4.25, -2.0], 0.0),
        ("ND1AT2", 0.1, [1.5, 4.25, -2.0], 0.0),
        ("AT1ND2", 0.2, [1.5, 4.25, -2.0], 0.0),
    ]),
    "zero_effects": _pop([
        ("C1C2", 0.4, [2.0, 2.0, 2.0], 1.0),
        ("ID1C2", 0.3, [-7.0, -7.0, -7.0], 0.0),
        ("AT1ND2", 0.3, [0.5, 0.5, 0.5], 0.0),
    ]),
    "constant_effects": _pop([
        ("C1C2", 0.35, [0.0, 2.0, -1.25], 1.0),
        ("C1ID2", 0.1, [10.0, 12.0, 8.75], 1.0),
        ("ID1C2", 0.2, [-3.5, -1.5, -4.75], 1.0),
        ("ND1AT2", 0.05, [6.0, 8.0, 4.75], 1.0),
        ("AT1ND2", 0.15, [1.0, 3.0, -0.25], 1.0),
        ("NT1NT2", 0.15, [-8.0, -6.0, -9.25], 1.0),
    ]),
    "constant_effects_balanced": _pop([
        ("C1C2", 0.4, [5.0, 105.0, 55.0], 0.0),
        ("C1ID2", 0.15, [0.0, 100.0, 50.0], 0.0),
        ("ID1C2", 0.15, [-20.0, 80.0, 30.0], 0.0),
        ("ND1AT2", 0.15, [1.0, 101.0, 51.0], 0.0),
        ("AT1ND2", 0.15, [2.0, 102.0, 52.0], 0.0),
    ]),
    "nonuniform_assignment": _pop([
        ("C1C2", 0.45, [0.0, 300.0, 120.0], 25.0),
        ("C1ID2", 0.05, [10.0, 250.0, 90.0], 25.0),
        ("NT1C2", 0.2, [5.0, 210.0, 140.0], 25.0),
        ("ND1AT2", 0.1, [-5.0, 330.0, 100.0], 25.0),
        ("AT1OT2", 0.2, [0.0, 280.0, 110.0], 25.0),
    ], assignment=[0.5, 0.3, 0.2]),
    "zero_share": _pop([
        ("C1C2", 0.7, [0.0, 40.0, 25.0], 3.0),
        ("ND1AT2", 0.0, [1.0, 2.0, 3.0], 0.0),
        ("AT1OT2", 0.3, [4.0, 44.0, 29.0], 3.0),
        ("ID1C2", 0.0, [0.0, 0.0, 0.0], 0.0),
    ]),
    "control_one": _pop([
        ("C1NT2", 0.3, [50.0, 350.0, 560.0], 0.0),
        ("NT1C2", 0.3, [45.0, 340.0, 550.0], 0.0),
        ("ND1AT2", 0.2, [55.0, 330.0, 575.0], 0.0),
        ("C1ID2", 0.05, [50.0, 360.0, 540.0], 0.0),
        ("NT1NT2", 0.15, [48.0, 352.0, 551.0], 0.0),
    ]),
    "control_two": _pop([
        ("C1C2", 0.5, [0.0, 10.0, 20.0], 0.0),
        ("AT1ND2", 0.3, [1.0, 12.0, 19.0], 0.0),
        ("ID1C2", 0.1, [-1.0, 9.0, 22.0], 0.0),
        ("OT1AT2", 0.1, [0.5, 11.0, 21.0], 0.0),
    ]),
    "no_defiers": _pop([
        ("C1C2", 0.5, [0.0, 1.0, 2.0], 0.5),
        ("NT1NT2", 0.3, [0.0, 1.5, 2.5], 0.5),
        ("AT1OT2", 0.2, [0.5, 1.0, 3.0], 0.5),
    ], assignment=[0.5, 0.5, 0.0]),
    "takers_only": _pop([
        ("NT1NT2", 0.5, [1.0, 4.0, -2.0], 0.0),
        ("AT1OT2", 0.3, [3.0, 6.0, 0.0], 0.0),
        ("OT1AT2", 0.2, [-1.0, 2.0, -4.0], 0.0),
    ]),
    "both_negative": _pop([
        ("C1C2", 0.6, [0.0, 3.0, 5.0], 0.0),
        ("ND1AT2", 0.25, [0.0, 2.0, 6.0], 0.0),
        ("AT1ND2", 0.15, [0.0, 4.0, 4.0], 0.0),
    ]),
}

SPECS = {
    "anchor_spec": {
        "marginal_spec": {
            "shares": {"C1": 0.8, "ID1": 0.2, "C2": 0.8, "ID2": 0.2},
            "effects": {"C1": 1000.0, "C2": 500.0, "ID1": 500.0, "ID2": 900.0},
        }
    },
    "next_best_spec": {
        "marginal_spec": {
            "shares": {"C1": 0.6, "ND1": 0.15, "C2": 0.55, "ND2": 0.1, "ID2": 0.05},
            "effects": {"C1": 12.5, "C2": -4.0, "ID1": None, "ID2": 3.0, "ND1": [10.0, -2.0], "ND2": [11.0, 7.0]},
        }
    },
}

# Populations whose strata share one effect vector, so --constant-effects applies.
CONSTANT_EFFECTS = {"equal_means", "zero_effects", "constant_effects", "constant_effects_balanced", "takers_only"}

POPULATION_COMMANDS = [
    ["validate"],
    ["analyze"],
    ["bounds"],
    ["bounds", "--maintained", "irrelevance"],
    ["bounds", "--scan", "--step", "0.1"],
    ["bounds", "--scan", "--step", "0.001"],
    ["sweep"],
    ["cluster"],
    # Seeded draws: these pin the random stream of generate and replicate.
    ["simulate", "--n", "200", "--reps", "3", "--seed", "7"],
    ["simulate", "--target", "cluster-wald", "--n", "200", "--reps", "3", "--seed", "7"],
    ["cluster", "--n", "500", "--seed", "3"],
] + [
    ["cluster", "--scenario", scenario, "--semantics", semantics]
    for scenario in ("control-1", "control-2", "treatment")
    for semantics in ("pooled", "group-relevant")
]

SPEC_COMMANDS = [
    ["validate"],
    ["analyze"],
    ["analyze", "--regime", "next-best"],
    ["analyze", "--regime", "irrelevance"],
    ["sweep"],
    ["sweep", "--axis", "effect-gap", "--defier", "nd1", "--levels", "0,1.5"],
    # A list flag takes a value that starts with a minus sign as a separate argument.
    ["sweep", "--levels", "-100,200"],
    ["sweep", "--axis", "effect-gap", "--grid", "-100,50", "--levels", "0.1,0.2"],
]

# Argument vectors that argparse settles before any scenario file is read.
PARSER_ARGVS = [
    ["--help"],
    *([command, "--help"] for command in ("validate", "analyze", "bounds", "cluster", "simulate", "sweep")),
    [],
    ["validate", "x.json", "--precision", "bogus"],
    ["analyze", "x.json", "--regime", "bogus"],
    ["bounds", "--maintained", "bogus"],
    ["cluster", "x.json", "--scenario", "bogus"],
    ["cluster", "x.json", "--neg-neg-rule", "bogus"],
    ["cluster", "x.json", "--semantics", "bogus"],
    ["cluster", "x.json", "--sig-level", "bogus"],
    ["simulate", "x.json", "--target", "bogus"],
    ["simulate", "x.json", "--scenario", "no-clustering"],
    ["simulate", "x.json", "--n", "bogus"],
    ["sweep", "x.json", "--axis", "bogus"],
    ["sweep", "x.json", "--defier", "bogus"],
    ["sweep", "x.json", "--grid", "bogus"],
]


def _run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one CLI call; argparse exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _runs():
    for name, doc in POPULATIONS.items():
        for cmd in POPULATION_COMMANDS:
            yield name, doc, cmd
            if name in CONSTANT_EFFECTS and cmd[0] == "cluster" and "--semantics" in cmd:
                yield name, doc, cmd + ["--constant-effects"]
    for name, doc in SPECS.items():
        for cmd in SPEC_COMMANDS:
            yield name, doc, cmd


def run_all() -> dict[str, dict]:
    """Run every (scenario, command) pair; key each result by name and argv."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc, cmd in _runs():
            path = Path(tmp) / f"{name}.json"
            if not path.exists():
                path.write_text(json.dumps(doc))
            results[" ".join([name, *cmd])] = _run([cmd[0], str(path), *cmd[1:], "--precision", "full"])
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):  # argparse wraps to the terminal width
        for argv in PARSER_ARGVS:
            results[" ".join(["parser", *argv])] = _run(argv)
    return results


def test_full_precision_output_is_unchanged():
    expected = json.loads(EXPECTED.read_text())
    actual = run_all()
    assert list(actual) == list(expected)
    for key, want in expected.items():
        assert actual[key] == want, key


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(run_all(), indent=1) + "\n")
