"""The package's public surface and the README's library quick start."""

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
    "AssumptionError", "BiasDecomposition", "BiasTerm", "ClusterDecomposition", "ClusterScenario", "ConfigError",
    "Dataset", "DefierBounds", "EstimateSet", "ExclusionVerdict", "FirstStage", "IVStrataError", "InfeasibleError",
    "JointStratum", "MarginalGroup", "MarginalSpec", "NegNegRule", "ParamSummary", "Population",
    "RankError", "Regime", "ReplicationSummary", "Semantics", "StratumEntry", "SweepAxis",
    "SweepRow", "Target", "UNIFORM_ASSIGNMENT", "WaldEstimate", "bias_sweep", "check_cluster_exclusion",
    "choose_clustering", "cluster_estimand_constant_effects", "cluster_estimand_formula", "cluster_wald_oracle",
    "complier_late", "decompose", "defier_bounds", "estimate_2sls", "estimate_cluster_wald", "feasible_set_scan",
    "first_stage_from_shares", "generate", "group_effect", "group_prob", "marginal_shares",
    "marginal_spec_from_dict", "marginal_spec_to_dict", "marginalize", "population_from_dict",
    "population_to_dict", "potential_choice", "replicate", "replication_seed", "shares_from_first_stage",
    "solve_moment_system",
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
    dec1, b, est, summary = (names[key] for key in ("dec1", "b", "est", "summary"))
    # What the block's comments claim.
    assert dec1.total == pytest.approx(1006.6667) and dec1.late == 1000.0
    assert (b.nd1, b.id1) == ((0.0, 0.3), (0.1, 0.4))
    assert names["shares"][ivstrata.MarginalGroup.ID1] == 0.1
    assert abs(est.beta1 - summary.row("beta1").truth) <= 5 * est.se_beta1
