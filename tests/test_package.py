"""The package's public surface and the README's library quick start."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ivstrata

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

PUBLIC_NAMES = [
    "AssumptionError", "BiasDecomposition", "BiasTerm", "CellTable", "ClusterDecomposition", "ClusterScenario",
    "ConfigError", "DefierBounds", "FirstStage", "IVStrataError", "InfeasibleError",
    "JointStratum", "MarginalGroup", "MarginalSpec", "NegNegRule", "ParamSummary", "Population",
    "RankError", "Regime", "ReplicationSummary", "Semantics", "StratumEntry", "SweepAxis",
    "SweepRow", "Target", "UNIFORM_ASSIGNMENT", "bias_sweep", "check_cluster_exclusion",
    "choose_clustering", "cluster_estimand_constant_effects", "cluster_estimand_formula", "cluster_wald_oracle",
    "decompose", "defier_bounds", "estimate_2sls", "estimate_cluster_wald", "feasible_set_scan",
    "first_stage_from_shares", "generate", "group_effect", "group_prob", "marginal_shares",
    "marginal_spec_from_dict", "marginalize", "population_from_dict", "replicate", "replication_seed",
    "shares_from_first_stage", "solve_moment_system",
]


def test_public_names_are_pinned():
    # Adding or removing a public name is a deliberate edit of this list.
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert ivstrata.__all__ == PUBLIC_NAMES + ["__version__"]
    assert all(hasattr(ivstrata, name) for name in ivstrata.__all__)


def test_montecarlo_names_load_on_first_access():
    # In a fresh interpreter the package loads without numpy; a montecarlo name loads it when first read.
    script = """
import sys
import ivstrata
assert not {"numpy", "statistics", "ivstrata.montecarlo"} & set(sys.modules)
assert set(ivstrata.__all__) <= set(dir(ivstrata)) and not hasattr(ivstrata, "no_such_name")
generate = ivstrata.generate
assert "numpy" in sys.modules
from ivstrata import montecarlo
assert generate is montecarlo.generate and montecarlo.Target is ivstrata.Target
names = {}
exec("from ivstrata import *", names)
assert set(ivstrata.__all__) <= set(names)
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_readme_quick_start_runs_and_holds():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = {}
    exec(block, names)
    dec1, b, est, se, summary = (names[key] for key in ("dec1", "b", "est", "se", "summary"))
    # What the block's comments claim.
    assert dec1.total == pytest.approx(1006.6667) and dec1.late == 1000.0
    assert (b.nd1, b.id1) == ((0.0, 0.3), (0.1, 0.4))
    assert names["shares"][ivstrata.MarginalGroup.ID1] == 0.1
    assert abs(est[0] - {r.param: r for r in summary.rows}["beta1"].truth) <= 5 * se[0]


def test_readme_names_the_current_stream_version():
    from ivstrata import montecarlo

    (stated,) = re.findall(r"`ivstrata\.montecarlo\.STREAM_VERSION`,\s+now\s+(\d+)", README.read_text(encoding="utf-8"))
    assert int(stated) == montecarlo.STREAM_VERSION


def test_every_name_the_benchmark_tracer_wraps_exists():
    # bench/spantrace.py wraps each LAYERS entry by name, so a renamed or deleted function makes every traced
    # benchmark run fail in Tracer.install. The file is parsed, not imported, so the test leaves bench/ untouched.
    tree = ast.parse((ROOT / "bench" / "spantrace.py").read_text(encoding="utf-8"))
    (layers,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"ivstrata.{layer}"), name, None))]
    assert layers and not missing


def test_montecarlo_makes_no_linalg_call():
    # The estimators invert each 3x3 or 2x2 count matrix in closed form by its adjugate, elementwise, so that a
    # stacked table gets the bytes it gets alone; a LAPACK call (np.linalg, or numpy.linalg imported by any name)
    # would not keep that. The module is parsed, so a reference in any function counts.
    tree = ast.parse((ROOT / "src" / "ivstrata" / "montecarlo.py").read_text(encoding="utf-8"))
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "linalg"
            or isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
            or isinstance(node, (ast.Import, ast.ImportFrom)) and any("linalg" in a.name for a in node.names)]
    assert tree.body and not uses


def test_only_draws_and_generate_seed_a_random_stream():
    # A study's stream layout (which seeds, how many streams) lives in montecarlo._draws, and stream version 1 in
    # generate: no other code of the module may build a Generator or a bit generator. Calls are grouped by the
    # top-level statement that holds them, so a method counts for its class.
    tree = ast.parse((ROOT / "src" / "ivstrata" / "montecarlo.py").read_text(encoding="utf-8"))
    seeders = {}
    for top in tree.body:
        for node in ast.walk(top):
            name = isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("Generator", "PCG64", "default_rng", "SeedSequence"):
                seeders.setdefault(getattr(top, "name", f"line {top.lineno}"), set()).add(name)
    assert seeders == {"_draws": {"Generator", "PCG64"}, "generate": {"Generator", "PCG64"}}
