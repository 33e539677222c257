"""Seeded simulation harness: draw samples or their cell tables from a
stratum population, estimate by two-stage least squares or a clustered Wald
ratio, and compare replication summaries against the exact estimands.

Every estimator reads only a sample's (z, d) cell table, so a replication
draws that table from its (stratum, z) group summaries, exact in
distribution, never its rows. A study reads three PCG64 streams, seeded by
hashing "{master_seed}:{j}", in replication order, so replication r's table
does not depend on how many replications run or how they are blocked.
`generate` draws rows, with `Generator.choice`.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .clustering import ClusterScenario, Semantics, cluster_wald_oracle
from .estimands import solve_moment_system
from .exceptions import ConfigError, RankError
from .identification import COEFFICIENTS, FirstStage, first_stage_from_shares
from .strata import Population, Target, check_count, check_seed, marginal_shares, marginalize


@dataclass(frozen=True, eq=False)
class Dataset:
    """One sample, simulated or a user's own: instrument, chosen field, outcome.

    `z` and `d` are stored as integer codes in {0, 1, 2}; float-coded input such as 1.0 is accepted and converted,
    any other value is rejected. `y` must hold finite real numbers.
    """

    z: np.ndarray
    d: np.ndarray
    y: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        for name in ("z", "d", "y"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if not (self.z.shape == self.d.shape == self.y.shape) or self.z.ndim != 1:
            shapes = ", ".join(str(a.shape) for a in (self.z, self.d, self.y))
            raise ConfigError(f"z, d, y must be equal-length vectors, got shapes {shapes}")
        if self.n == 0:
            raise ConfigError("dataset is empty")
        for name, label in (("z", "instrument z"), ("d", "field d")):
            object.__setattr__(self, name, _as_codes(label, getattr(self, name)))
        if self.y.dtype.kind not in "biuf":
            raise ConfigError(f"outcome y must hold real numbers, got dtype {self.y.dtype}")
        bad = ~np.isfinite(self.y)
        if bad.any():
            shown = ", ".join(sorted(set(map(str, self.y[bad].tolist()))))
            raise ConfigError(f"outcome y must be finite; {int(bad.sum())} rows hold {shown}")

    @property
    def n(self) -> int:
        return self.z.shape[0]


def _as_codes(label: str, arr: np.ndarray) -> np.ndarray:
    """Integer codes of a z or d vector; ConfigError naming any value outside {0, 1, 2}."""
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


# The version of the random stream: which sample or cell table a (population, n, seed) draws. Any change that
# draws different bytes for some seed bumps it. Version 3 draws every cell table of a study from the study's three
# streams (version 2 gave each replication its own stream); `generate` draws version 1's rows, by Generator.choice.
STREAM_VERSION = 3


# Replicate draws and estimates its replications' cell tables in blocks of this many.
_BLOCK_REPS = 1024


class _Sampler:
    """A population's group tables, built once a study and indexed by the group k = stratum * 3 + z: probability,
    noise sd, outcome mean means[stratum, d] and (z, d) cell row z * 3 + d, d the field the stratum takes at z."""

    def __init__(self, pop: Population):
        self.prob = np.outer([e.prob for e in pop.entries], pop.assignment).ravel()
        self.prob /= self.prob.sum()
        d = np.array([e.stratum.trajectory for e in pop.entries], dtype=np.intp)
        self.sd = np.repeat([e.noise_sd for e in pop.entries], 3)
        self.mean = np.take_along_axis(np.array([e.means for e in pop.entries]), d, axis=1).ravel()
        self.cell = (d + np.arange(0, 9, 3)).ravel()

    def tables(self, n: int, streams: Sequence[np.random.Generator], reps: int) -> "CellTable":
        """The next `reps` cell tables of a study's three streams (see `_streams`), stacked along a leading axis.
        Each table takes K values from each stream, one per group: stream 0 the group counts, multinomial(n, prob);
        stream 1 standard normals Z; stream 2 standard gammas G of shape max(count - 1, 0) / 2. Each stream is read
        in table order, so no table depends on how a study splits its tables into calls. For Gaussian noise a group's
        mean and within-group M2 are independent (Cochran's theorem), mean + sd Z / sqrt(count) and sd^2 2G =
        sd^2 chi2(count - 1), so each table has the distribution of the table of an n-row sample."""
        count = streams[0].multinomial(n, self.prob, size=reps)
        normal = streams[1].standard_normal(count.shape)
        gamma = streams[2].standard_gamma(np.maximum(count - 1, 0) / 2)
        normal *= self.sd
        normal /= np.sqrt(np.maximum(count, 1))
        normal += self.mean
        gamma *= 2.0
        gamma *= self.sd * self.sd
        return CellTable.from_groups(self.cell, count, normal, gamma)


def _streams(seed: int) -> tuple[np.random.Generator, ...]:
    """A study's three streams, for counts, normals and gammas: stream j is seeded by replication_seed(seed, j)."""
    return tuple(np.random.Generator(np.random.PCG64(replication_seed(seed, j))) for j in range(3))


def generate(pop: Population, n: int, seed: int) -> Dataset:
    """An i.i.d. size-n sample, drawn from the seed's PCG64 stream as stream version 1 drew it: `Generator.choice`
    of n strata, then of n instrument values, then n standard normals (drawn even where noise_sd is 0)."""
    check_count("sample size", n, 1)
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    stratum = rng.choice(len(pop.entries), size=n, p=[e.prob for e in pop.entries])
    z = rng.choice(3, size=n, p=pop.assignment)
    d = np.array([e.stratum.trajectory for e in pop.entries])[stratum, z]
    means, sds = np.array([e.means for e in pop.entries]), np.array([e.noise_sd for e in pop.entries])
    return Dataset(z, d, means[stratum, d] + sds[stratum] * rng.standard_normal(n), seed)


def sample_table(pop: Population, n: int, seed: int) -> "CellTable":
    """A seeded size-n sample's cell table, drawn from its group summaries: table 0 of the study at `seed`."""
    check_count("sample size", n, 1)
    check_seed(seed)
    return _Sampler(pop).tables(n, _streams(seed), 1)[0]


@dataclass(frozen=True)
class CellTable:
    """Sufficient statistics of a sample over its nine (z, d) cells.

    Each array is indexed [..., z, d], the leading axes (if any) indexing a
    stack of samples: the row count, the mean of y and the centred sum of
    squares of y (both 0 for an empty cell).
    """

    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def from_groups(cls, cell: np.ndarray, count: np.ndarray, mean: np.ndarray, m2: np.ndarray) -> "CellTable":
        """The tables of a stack of group summaries, shaped count.shape[:-1] + (3, 3): group k of table r holds
        count[r, k] rows with mean mean[r, k] and centred sum of squares m2[r, k], all in cell row cell[k].
        A cell's mean sums each group's mean weighted by its share of the cell, so a cell of one nonempty group
        has that group's mean exactly; its M2 sums m2 + count (mean - cell mean)^2 over the groups, in k order."""
        lead = count.shape[:-1]
        bins = 9 * math.prod(lead)
        idx = (cell + np.arange(0, bins, 9).reshape(lead + (1,))).ravel()  # table r's cells are bins 9r to 9r + 8
        total = np.bincount(idx, weights=count.ravel(), minlength=bins)
        share = count / np.maximum(total, 1.0)[idx].reshape(count.shape)
        cell_mean = np.bincount(idx, weights=(share * mean).ravel(), minlength=bins)
        dev = mean - cell_mean[idx].reshape(count.shape)
        cell_m2 = np.bincount(idx, weights=(m2 + count * (dev * dev)).ravel(), minlength=bins)
        shape = lead + (3, 3)
        return cls(count=total.reshape(shape), mean=cell_mean.reshape(shape), m2=cell_m2.reshape(shape))

    def __getitem__(self, i) -> "CellTable":
        """Table i of a stack."""
        return CellTable(self.count[i], self.mean[i], self.m2[i])

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "CellTable":
        cell, y = ds.z * 3 + ds.d, np.asarray(ds.y, dtype=float)
        count = np.bincount(cell, minlength=9).astype(float)
        mean = np.bincount(cell, weights=y, minlength=9) / np.maximum(count, 1.0)
        m2 = np.bincount(cell, weights=(y - mean[cell]) ** 2, minlength=9)
        return cls(*(a.reshape(3, 3) for a in (count, mean, m2)))


def _require(fails: np.ndarray, message: Callable[[int], str]) -> None:
    """RankError(message(i)) for the first table i of a stack that `fails` (one flag a table) marks."""
    fails = np.reshape(fails, -1)
    if fails.any():
        raise RankError(message(int(fails.argmax())))


def _require_every_value(name: str, margin: np.ndarray) -> None:
    """RankError unless z or d takes each value 0, 1, 2 in every table: `margin` (..., 3) counts its values."""
    rows = np.reshape(margin, (-1, 3))

    def message(i: int) -> str:
        missing = [v for v in range(3) if rows[i, v] == 0]
        return f"{name} never takes value{'s' if len(missing) > 1 else ''} {missing} in this sample"

    _require((rows == 0).any(axis=1), message)


def _first_stage(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each table's first stage and its HC0 standard errors, (..., 6) in COEFFICIENTS order, from the counts
    alone; every instrument value must occur.

    The regression is saturated, so its coefficients are contrasts of the
    field shares m[z, j] of each instrument cell, and the HC0 variance of a
    share is m (1 - m) / n_z; pure cells stay exactly 0.
    """
    n_z = count.sum(axis=-1, keepdims=True)
    m = count / n_z
    v = m * (1.0 - m) / n_z
    m0, v0 = m[..., :1, :], v[..., :1, :]
    coef = np.concatenate((m0, m[..., 1:, :] - m0), axis=-2)
    se = np.sqrt(np.concatenate((v0, v0 + v[..., 1:, :]), axis=-2))
    # [..., z, j] holds coefficient a{j}{z}: keep fields 1 and 2, field-major.
    return tuple(x.swapaxes(-1, -2)[..., 1:, :].reshape(count.shape[:-2] + (6,)) for x in (coef, se))


def first_stage_from_cells(table: CellTable) -> tuple[FirstStage, FirstStage]:
    """The estimated first stage of one table and its HC0 standard errors,
    from its counts alone; RankError if an instrument value never occurs."""
    _require_every_value("instrument z", table.count.sum(axis=-1))
    return tuple(FirstStage(*x.tolist()) for x in _first_stage(table.count))


# The instrument and field value of each flattened cell row z * 3 + d.
_CELL_Z = (0, 0, 0, 1, 1, 1, 2, 2, 2)
_CELL_D = (0, 1, 2, 0, 1, 2, 0, 1, 2)


@functools.cache
def _cell_rows(codes: tuple[int, ...], arms: tuple[frozenset[int], ...]) -> np.ndarray:
    """Design rows [1, code in arms[0], code in arms[1], ...], one per cell;
    built once per (codes, arms) and read-only, as every caller shares it."""
    rows = np.array([[1.0] + [float(c in arm) for arm in arms] for c in codes])
    rows.flags.writeable = False
    return rows


def _iv_hc0(table: CellTable, arms: tuple[frozenset[int], ...], what: str) -> tuple[np.ndarray, np.ndarray]:
    """Just-identified IV of y on [1, d in arm, ...] instrumented by
    [1, z in arm, ...], with the HC0 sandwich, summed over each cell table:
    the coefficients and their clamped variances, each (..., 1 + len(arms)).
    RankError (see `_require`) for the first table with a singular
    cross-moment matrix.

    Instruments and regressors are constant within a (z, d) cell, so the
    cross moments and the right-hand side are count-weighted cell sums, and
    a cell's squared residuals (y - x'b)^2 sum to M2 + n (ybar - x'b)^2.
    A stack of tables runs through numpy's stacked matmul and linalg calls,
    which make the same BLAS or LAPACK call per matrix as a single table.
    """
    inst = _cell_rows(_CELL_Z, arms)
    regs = _cell_rows(_CELL_D, arms)
    n, ybar, m2 = (x.reshape(x.shape[:-2] + (9,)) for x in (table.count, table.mean, table.m2))
    a = inst.T @ (n[..., None] * regs)
    singular = np.linalg.matrix_rank(a) < a.shape[-1]
    _require(singular, lambda i: f"{what}: instrument-regressor cross-moment matrix is singular")
    coef = np.linalg.solve(a, inst.T @ (n * ybar)[..., None])
    sq_resid = m2 + n * (ybar - (regs @ coef)[..., 0]) ** 2
    meat = (inst * sq_resid[..., None]).swapaxes(-1, -2) @ inst
    a_inv = np.linalg.inv(a)
    cov = a_inv @ meat @ a_inv.swapaxes(-1, -2)
    # Exactly-fit cells can leave -1e-21 dust on the diagonal; clamp so
    # sqrt gives 0 rather than nan.
    return coef[..., 0], np.maximum(np.diagonal(cov, axis1=-2, axis2=-1), 0.0)


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
    est, se = _2sls_from_cells(CellTable.from_dataset(ds))
    return EstimateSet(
        beta1=float(est[0]),
        beta2=float(est[1]),
        se_beta1=float(se[0]),
        se_beta2=float(se[1]),
        alphas=FirstStage(*est[2:].tolist()),
        alpha_ses=FirstStage(*se[2:].tolist()),
        n=ds.n,
        seed=ds.seed,
    )


def _2sls_from_cells(table: CellTable) -> tuple[np.ndarray, np.ndarray]:
    """Each table's estimates and standard errors, (..., 8): beta1, beta2, then the first stage."""
    _require_every_value("instrument z", table.count.sum(axis=-1))
    _require_every_value("field d", table.count.sum(axis=-2))
    beta, var = _iv_hc0(table, _FIELDS, "second stage")
    alphas, alpha_ses = _first_stage(table.count)
    return np.concatenate((beta[..., 1:], alphas), axis=-1), np.concatenate((np.sqrt(var[..., 1:]), alpha_ses), axis=-1)


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
    est, se = _cluster_wald_from_cells(CellTable.from_dataset(ds), scenario)
    return WaldEstimate(estimate=float(est[0]), se=float(se[0]), n=ds.n, seed=ds.seed)


def _cluster_wald_from_cells(table: CellTable, scenario: ClusterScenario) -> tuple[np.ndarray, np.ndarray]:
    """Each table's Wald ratio and its standard error, (..., 1)."""
    s1 = scenario.require_collapse().s1
    n = np.reshape(table.count.sum(axis=(-2, -1)), -1)
    n1 = np.reshape(table.count[..., sorted(s1), :].sum(axis=(-2, -1)), -1)
    _require((n1 == 0) | (n1 == n),
             lambda i: f"instrument arm z~={int(n1[i] == 0)} is empty under scenario {scenario.label!r}")
    coef, var = _iv_hc0(table, (s1,), f"clustered Wald ({scenario.label})")
    return coef[..., 1:], np.sqrt(var[..., 1:])


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
    """Stable 64-bit seed of stream `rep` (0 counts, 1 normals, 2 gammas) of the study at `master_seed`."""
    digest = hashlib.sha256(f"{master_seed}:{rep}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def replicate(
    pop: Population,
    n: int,
    reps: int,
    master_seed: int,
    scenario: Optional[ClusterScenario] = None,
) -> ReplicationSummary:
    """Run seeded replications and summarize against exact estimands.

    The scenario decides the target. Without one (FIELD_2SLS) it tracks
    (beta1, beta2) against the moment-system solution of the marginalized
    population and the six first-stage coefficients against their share
    identities; with one (CLUSTER_WALD), the two-arm ratio against the pooled
    Wald oracle. Coverage is the fraction of replications whose nominal 95
    percent interval (1.96 standard errors) covers the exact value.

    Each replication draws its (z, d) cell table directly, never its n
    rows (see `_Sampler.tables`): the estimators read only that table, so
    the summaries have the distribution an n-row sample gives them, at a
    cost and memory that do not grow with n. Replications run in blocks of
    _BLOCK_REPS: one stacked table draw from the study's three streams and
    one estimator call per block. The streams are read in replication
    order, so the block size changes no byte. A block that raises RankError
    is estimated again one drawn table at a time, so the error names the
    first replication that fails and that replication's own failure.
    """
    check_count("replications", reps, 2)
    check_count("sample size", n, 1)
    target = Target.FIELD_2SLS if scenario is None else Target.CLUSTER_WALD
    if target is Target.CLUSTER_WALD:
        truths = [("wald", cluster_wald_oracle(pop, scenario, Semantics.POOLED))]
        estimate = functools.partial(_cluster_wald_from_cells, scenario=scenario)
    else:
        beta1, beta2 = solve_moment_system(marginalize(pop))
        fs = first_stage_from_shares(marginal_shares(pop))
        truths = [("beta1", beta1), ("beta2", beta2), *((name, getattr(fs, name)) for name in COEFFICIENTS)]
        estimate = _2sls_from_cells
    sampler, streams = _Sampler(pop), _streams(master_seed)
    estimates, ses = np.empty((2, len(truths), reps))
    for start in range(0, reps, _BLOCK_REPS):
        stop = min(start + _BLOCK_REPS, reps)
        tables = sampler.tables(n, streams, stop - start)
        try:
            est, se = estimate(tables)
        except RankError:
            for rep in range(start, stop):
                try:
                    estimate(tables[rep - start])
                except RankError as err:
                    raise RankError(f"replication {rep}: {err}") from err
            raise
        estimates[:, start:stop] = est.T
        ses[:, start:stop] = se.T
    truth = np.array([t for _, t in truths])[:, None]
    # One reduction a statistic along each parameter's contiguous row: the bytes of np.mean / np.std on its column.
    means = estimates.mean(axis=1).tolist()
    sds = estimates.std(axis=1, ddof=1).tolist()
    coverage = (np.abs(estimates - truth) <= 1.96 * ses).mean(axis=1).tolist()
    rows = tuple(ParamSummary(param=param, truth=float(t), mean=m, sd=sd, bias=m - float(t), coverage=c)
                 for (param, t), m, sd, c in zip(truths, means, sds, coverage))
    return ReplicationSummary(rows=rows, n=n, reps=reps, master_seed=master_seed, target=target)
