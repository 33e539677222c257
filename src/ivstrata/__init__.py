"""Principal-strata tools for instrumental variables with three unordered
treatment fields: exact estimands, bias decompositions, defier-share
bounds, first-stage-sign clustering, and a seeded simulation harness."""

import sys as _sys
from types import ModuleType as _ModuleType

from .exceptions import (
    AssumptionError,
    ConfigError,
    InfeasibleError,
    IVStrataError,
    RankError,
)
from .strata import (
    JointStratum,
    MarginalGroup,
    MarginalSpec,
    Population,
    StratumEntry,
    UNIFORM_ASSIGNMENT,
    group_effect,
    group_prob,
    marginal_shares,
    marginalize,
    marginal_spec_from_dict,
    population_from_dict,
)
from .estimands import (
    BiasDecomposition,
    BiasTerm,
    Regime,
    SweepAxis,
    SweepRow,
    bias_sweep,
    decompose,
    solve_moment_system,
)
from .identification import (
    FirstStage,
    defier_bounds,
    feasible_set_scan,
    first_stage_from_shares,
    shares_from_first_stage,
)
from .clustering import (
    ClusterDecomposition,
    ClusterScenario,
    NegNegRule,
    Semantics,
    check_cluster_exclusion,
    choose_clustering,
    cluster_estimand_constant_effects,
    cluster_estimand_formula,
    cluster_wald_oracle,
)

__version__ = "0.1.0"

# Served on first access (PEP 562): only code that draws samples loads montecarlo, and with it numpy.
_MONTECARLO = ("CellTable", "ParamSummary", "estimate_2sls", "estimate_cluster_wald", "generate", "replicate",
               "replication_seed")

# Every public name imported above or served lazily; the submodules themselves are not exported.
__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_MONTECARLO)
) + ["__version__"]


def __getattr__(name: str):
    if name in _MONTECARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MONTECARLO})


# Once numpy is loaded montecarlo costs little, so it loads at once, as it did before it was lazy: code that
# looks it up in sys.modules after `import ivstrata`, such as bench/spantrace.py, still finds it there.
if "numpy" in _sys.modules:
    from . import montecarlo
