"""Seeded simulation harness: draw samples from a stratum population,
estimate by two-stage least squares or a clustered Wald ratio, and compare
replication summaries against the exact estimands.

Sampling is fully deterministic given a seed. Replications derive
independent per-replication seeds by hashing "{master_seed}:{rep}", so rep
r's data do not depend on how many replications run or in what order, and
outcome noise is drawn even for zero-variance strata so the random stream
(and hence every other draw) is invariant to noise_sd.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import ClusterScenario, ScenarioKind, Semantics, cluster_wald_oracle
from .estimands import solve_moment_system
from .exceptions import ConfigError, RankError
from .identification import COEFFICIENTS, FirstStage, first_stage_from_shares
from .strata import Population, marginal_shares, marginalize


@dataclass(frozen=True, eq=False)
class Dataset:
    """One simulated sample: instrument, chosen field, outcome.

    `z` and `d` are stored as integer codes in {0, 1, 2}; float-coded input
    such as 1.0 is accepted and converted, any other value is rejected.
    """

    z: np.ndarray
    d: np.ndarray
    y: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        for name in ("z", "d", "y"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if not (self.z.shape == self.d.shape == self.y.shape) or self.z.ndim != 1:
            raise ConfigError(
                f"z, d, y must be equal-length vectors, got shapes "
                f"{self.z.shape}, {self.d.shape}, {self.y.shape}"
            )
        if self.n == 0:
            raise ConfigError("dataset is empty")
        for name, label in (("z", "instrument z"), ("d", "field d")):
            object.__setattr__(self, name, _as_codes(label, getattr(self, name)))

    @property
    def n(self) -> int:
        return self.z.shape[0]


def _as_codes(label: str, arr: np.ndarray) -> np.ndarray:
    """Integer codes of a z or d vector; ConfigError naming any value
    outside {0, 1, 2}."""
    if arr.dtype.kind not in "biuf":
        raise ConfigError(f"{label} must hold numeric codes 0, 1, 2, got dtype {arr.dtype}")
    if arr.dtype.kind in "biu" and arr.min() >= 0 and arr.max() <= 2:
        return arr.astype(np.intp, copy=False)
    bad = (arr != 0) & (arr != 1) & (arr != 2)
    if bad.any():
        values = list(dict.fromkeys(str(v) for v in sorted(arr[bad].tolist())))
        shown = ", ".join(values[:5]) + (", ..." if len(values) > 5 else "")
        raise ConfigError(f"{label} must take codes 0, 1, 2; {int(bad.sum())} rows hold {shown}")
    return arr.astype(np.intp)


# The largest sample size or replication count: numpy describes no array past
# intp-max bytes, and replicate's result tables are reps x 8 floats.
_MAX_COUNT = np.iinfo(np.intp).max // 64


def _check_count(what: str, value: int, least: int) -> None:
    if not least <= value <= _MAX_COUNT:
        raise ConfigError(f"{what} must be between {least} and {_MAX_COUNT}, got {value}")


# The version of the random stream: which sample a (population, n, seed)
# draws. Any change that draws different bytes for some seed bumps it.
STREAM_VERSION = 1


def _cdf(probs) -> np.ndarray:
    """The cdf `Generator.choice` builds: the cumsum over its last entry."""
    cdf = np.cumsum(probs, dtype=float)
    cdf /= cdf[-1]
    return cdf


def _category(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The category `Generator.choice` picks for each uniform in u: the
    count of cdf entries at or below it (searchsorted side="right"; the last
    entry, 1.0, exceeds every u). At most ten strata: the count fits a byte."""
    idx = np.zeros(u.shape, dtype=np.uint8)
    for edge in cdf[:-1]:
        idx += u >= edge
    return idx


class _Sampler:
    """A population's sampling arrays, built once and drawn from per seed.
    `trajectories` and `means` are flat, indexed by stratum * 3 + z and
    stratum * 3 + d."""

    def __init__(self, pop: Population):
        self.stratum_cdf = _cdf([e.prob for e in pop.entries])
        self.arm_cdf = _cdf(pop.assignment)
        self.trajectories = np.array([e.stratum.trajectory for e in pop.entries], dtype=np.uint8).ravel()
        self.means = np.array([e.means for e in pop.entries]).ravel()
        self.sds = np.array([e.noise_sd for e in pop.entries])

    def draw(self, n: int, seed: int) -> Dataset:
        """Three blocks of one PCG64 stream, in order: n stratum uniforms, n
        instrument uniforms, n noise normals (drawn even where noise_sd is 0)."""
        rng = np.random.Generator(np.random.PCG64(seed))
        stratum = _category(rng.random(n), self.stratum_cdf)
        z = _category(rng.random(n), self.arm_cdf)
        cell = stratum * 3
        cell += z
        d = self.trajectories[cell]
        # In place, in the order sds * noise + means: IEEE * and + commute,
        # so y has the bytes of the out-of-place sum.
        y = rng.standard_normal(n)
        y *= self.sds[stratum]
        cell -= z
        cell += d
        y += self.means[cell]
        return Dataset(z=z, d=d, y=y, seed=seed)


def generate(pop: Population, n: int, seed: int) -> Dataset:
    """Draw an i.i.d. sample of size n from the population."""
    _check_count("sample size", n, 1)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return _Sampler(pop).draw(n, seed)


@dataclass(frozen=True)
class CellTable:
    """Sufficient statistics of a Dataset over its nine (z, d) cells.

    Each array is 3x3 and indexed [z, d]: the row count, the mean of y and
    the centred sum of squares of y (both 0 for an empty cell).
    """

    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "CellTable":
        cell = ds.z * 3
        cell += ds.d
        y = np.asarray(ds.y, dtype=float)
        count = np.bincount(cell, minlength=9).astype(float)
        mean = np.bincount(cell, weights=y, minlength=9) / np.maximum(count, 1.0)
        # In place: fresh n-length temporaries cost more than the arithmetic.
        dev = mean[cell]
        np.subtract(y, dev, out=dev)
        np.square(dev, out=dev)
        m2 = np.bincount(cell, weights=dev, minlength=9)
        return cls(count=count.reshape(3, 3), mean=mean.reshape(3, 3), m2=m2.reshape(3, 3))


# The instrument and field value of each flattened cell row z * 3 + d.
_CELL_Z = (0, 0, 0, 1, 1, 1, 2, 2, 2)
_CELL_D = (0, 1, 2, 0, 1, 2, 0, 1, 2)


def _cell_rows(codes: tuple[int, ...], arms: tuple[frozenset[int], ...]) -> np.ndarray:
    """Design rows [1, code in arms[0], code in arms[1], ...], one per cell."""
    return np.array([[1.0] + [float(c in arm) for arm in arms] for c in codes])


def _iv_hc0(table: CellTable, arms: tuple[frozenset[int], ...], what: str) -> tuple[np.ndarray, np.ndarray]:
    """Just-identified IV of y on [1, d in arm, ...] instrumented by
    [1, z in arm, ...], with the HC0 sandwich, summed over the cell table.

    Instruments and regressors are constant within a (z, d) cell, so the
    cross moments and the right-hand side are count-weighted cell sums, and
    a cell's squared residuals (y - x'b)^2 sum to M2 + n (ybar - x'b)^2.
    """
    inst = _cell_rows(_CELL_Z, arms)
    regs = _cell_rows(_CELL_D, arms)
    n, ybar, m2 = table.count.ravel(), table.mean.ravel(), table.m2.ravel()
    a = inst.T @ (n[:, None] * regs)
    if np.linalg.matrix_rank(a) < a.shape[0]:
        raise RankError(f"{what}: instrument-regressor cross-moment matrix is singular")
    coef = np.linalg.solve(a, inst.T @ (n * ybar))
    sq_resid = m2 + n * (ybar - regs @ coef) ** 2
    meat = (inst * sq_resid[:, None]).T @ inst
    a_inv = np.linalg.inv(a)
    cov = a_inv @ meat @ a_inv.T
    # Exactly-fit cells can leave -1e-21 dust on the diagonal; clamp so
    # sqrt gives 0 rather than nan.
    diag = cov.diagonal().copy()
    np.fill_diagonal(cov, np.maximum(diag, 0.0))
    return coef, cov


@dataclass(frozen=True)
class EstimateSet:
    """Second-stage and first-stage estimates from one sample."""

    beta1: float
    beta2: float
    se_beta1: float
    se_beta2: float
    alphas: FirstStage
    alpha_ses: FirstStage
    n: int
    seed: Optional[int]


_FIELDS = (frozenset({1}), frozenset({2}))


def estimate_2sls(ds: Dataset) -> EstimateSet:
    """Two-stage least squares of y on the field indicators, instrumented
    by the assignment indicators, plus the saturated first stages.

    Everything is computed from the 3x3 (z, d) cell table (count, mean and
    centred M2 of y per cell). That is exact, not an approximation: every
    instrument and regressor is an indicator of z or d, so the moment
    matrices, the residual sums of squares in the HC0 sandwich and the
    first-stage cell shares are all sums over the nine cells.

    Raises
    ------
    RankError
        If an instrument or field value never occurs (the design matrix is
        collinear), or the cross-moment matrix is otherwise singular.
    """
    table = CellTable.from_dataset(ds)
    n_z = table.count.sum(axis=1)
    for name, margin in (("instrument z", n_z), ("field d", table.count.sum(axis=0))):
        missing = [v for v in range(3) if margin[v] == 0]
        if missing:
            raise RankError(f"{name} never takes value{'s' if len(missing) > 1 else ''} {missing} in this sample")
    beta, cov = _iv_hc0(table, _FIELDS, "second stage")
    # The first-stage regression is saturated, so its coefficients are
    # contrasts of the field shares m[z, j] of each instrument cell, and the
    # HC0 variance of a share is m (1 - m) / n_z; pure cells stay exactly 0.
    m = table.count / n_z[:, None]
    v = m * (1.0 - m) / n_z[:, None]
    coef = (m[0], m[1] - m[0], m[2] - m[0])
    se = (np.sqrt(v[0]), np.sqrt(v[0] + v[1]), np.sqrt(v[0] + v[2]))
    return EstimateSet(
        beta1=float(beta[1]),
        beta2=float(beta[2]),
        se_beta1=float(np.sqrt(cov[1, 1])),
        se_beta2=float(np.sqrt(cov[2, 2])),
        alphas=FirstStage(**{f"a{j}{k}": coef[k][j] for j in (1, 2) for k in range(3)}),
        alpha_ses=FirstStage(**{f"a{j}{k}": se[k][j] for j in (1, 2) for k in range(3)}),
        n=ds.n,
        seed=ds.seed,
    )


@dataclass(frozen=True)
class WaldEstimate:
    """Two-arm Wald ratio from one sample under a cluster scenario."""

    estimate: float
    se: float
    n: int
    seed: Optional[int]


def estimate_cluster_wald(ds: Dataset, scenario: ClusterScenario) -> WaldEstimate:
    """Wald ratio of the collapsed outcome on the collapsed treatment.

    Computed from the 3x3 (z, d) cell table, exactly as `estimate_2sls`:
    the collapsed instrument and treatment are indicators of z and d, so
    each cell maps to one pseudo-arm pair.
    """
    if scenario.kind not in (ScenarioKind.CONTROL, ScenarioKind.TREATMENT):
        raise ConfigError(f"scenario {scenario.label!r} defines no two-arm estimator")
    table = CellTable.from_dataset(ds)
    n1 = int(table.count[sorted(scenario.s1)].sum())
    if n1 == 0 or n1 == ds.n:
        raise RankError(f"instrument arm z~={int(n1 == 0)} is empty under scenario {scenario.label!r}")
    coef, cov = _iv_hc0(table, (scenario.s1,), f"clustered Wald ({scenario.label})")
    return WaldEstimate(estimate=float(coef[1]), se=float(np.sqrt(cov[1, 1])), n=ds.n, seed=ds.seed)


class Target(enum.Enum):
    """What `replicate` estimates and which exact values it compares to."""

    FIELD_2SLS = "field-2sls"
    CLUSTER_WALD = "cluster-wald"


@dataclass(frozen=True)
class ParamSummary:
    """Replication summary for one parameter."""

    param: str
    truth: float
    mean: float
    sd: float
    bias: float
    coverage: float


@dataclass(frozen=True)
class ReplicationSummary:
    rows: tuple[ParamSummary, ...]
    n: int
    reps: int
    master_seed: int
    target: Target

    def row(self, param: str) -> ParamSummary:
        for r in self.rows:
            if r.param == param:
                return r
        raise KeyError(param)


def replication_seed(master_seed: int, rep: int) -> int:
    """Stable 64-bit seed for one replication."""
    digest = hashlib.sha256(f"{master_seed}:{rep}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def replicate(
    pop: Population,
    n: int,
    reps: int,
    master_seed: int,
    target: Target = Target.FIELD_2SLS,
    scenario: Optional[ClusterScenario] = None,
) -> ReplicationSummary:
    """Run seeded replications and summarize against exact estimands.

    FIELD_2SLS tracks (beta1, beta2) against the moment-system solution of
    the marginalized population and the six first-stage coefficients
    against their share identities. CLUSTER_WALD tracks the two-arm ratio
    against the pooled Wald oracle. Coverage is the fraction of
    replications whose nominal 95 percent interval (1.96 standard errors)
    covers the exact value.
    """
    _check_count("replications", reps, 2)
    _check_count("sample size", n, 1)
    if target is Target.CLUSTER_WALD:
        if scenario is None:
            raise ConfigError("cluster-wald replication requires a cluster scenario")
        truths = [("wald", cluster_wald_oracle(pop, scenario, Semantics.POOLED))]
    else:
        beta1, beta2 = solve_moment_system(marginalize(pop))
        fs = first_stage_from_shares(marginal_shares(pop))
        truths = [("beta1", beta1), ("beta2", beta2), *((name, getattr(fs, name)) for name in COEFFICIENTS)]
    sampler = _Sampler(pop)
    estimates = np.empty((reps, len(truths)))
    ses = np.empty((reps, len(truths)))
    for rep in range(reps):
        seed = replication_seed(master_seed, rep)
        ds = sampler.draw(n, seed)
        try:
            if target is Target.CLUSTER_WALD:
                w = estimate_cluster_wald(ds, scenario)
                estimates[rep, 0] = w.estimate
                ses[rep, 0] = w.se
            else:
                est = estimate_2sls(ds)
                estimates[rep] = (est.beta1, est.beta2, *(getattr(est.alphas, c) for c in COEFFICIENTS))
                ses[rep] = (est.se_beta1, est.se_beta2, *(getattr(est.alpha_ses, c) for c in COEFFICIENTS))
        except RankError as err:
            raise RankError(f"replication {rep} (replication_seed {seed}): {err}") from err
    rows = []
    for j, (param, truth) in enumerate(truths):
        col = estimates[:, j]
        mean = float(np.mean(col))
        covered = np.abs(col - truth) <= 1.96 * ses[:, j]
        rows.append(
            ParamSummary(
                param=param,
                truth=float(truth),
                mean=mean,
                sd=float(np.std(col, ddof=1)),
                bias=mean - float(truth),
                coverage=float(np.mean(covered)),
            )
        )
    return ReplicationSummary(rows=tuple(rows), n=n, reps=reps, master_seed=master_seed, target=target)
