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


# The version of the random stream: which sample a (population, n, seed)
# draws. Any change that draws different bytes for some seed bumps it.
STREAM_VERSION = 1


def _cdf(probs) -> np.ndarray:
    """The cdf `Generator.choice` builds: the cumsum over its last entry."""
    cdf = np.cumsum(probs, dtype=float)
    cdf /= cdf[-1]
    return cdf


def _category(u: np.ndarray, v: np.ndarray, stratum_cdf: np.ndarray, arm_cdf: np.ndarray, idx: np.ndarray,
              hit: np.ndarray) -> np.ndarray:
    """3 * stratum + arm, the categories `Generator.choice` picks for the stratum uniforms u and the instrument
    uniforms v, written into the uint8 array idx (hit is a bool array it overwrites). A category is the count of
    cdf entries at or below its uniform (searchsorted side="right"; the last entry, 1.0, exceeds every uniform).
    At most ten strata: the index, below 30, fits a byte."""
    idx.fill(0)
    for edge in stratum_cdf[:-1]:
        np.greater_equal(u, edge, out=hit)
        idx += hit
    idx *= 3
    for edge in arm_cdf[:-1]:
        np.greater_equal(v, edge, out=hit)
        idx += hit
    return idx


# Replicate draws its samples in blocks of max(1, _BLOCK_ROWS // n).
_BLOCK_ROWS = 1 << 14

# The dtypes of a sampler's draw arrays, in buffer order: widest first, so every view is aligned. 26 bytes a row.
_DRAW_DTYPES = (np.intp, np.float64, np.float64, np.uint8, np.bool_)


class _Sampler:
    """A population's sampling tables, built once and drawn from per seed. Each is indexed by k = stratum * 3 + z:
    the noise sd, the outcome mean means[stratum, d] and the (z, d) cell row z * 3 + d, where d is the field the
    stratum takes at z. A block of samples is drawn one a row into five (rows, n) arrays, views of one buffer the
    sampler owns and reuses while n stays the same and the rows fit. One allocation, not five, lets the allocator
    keep its pages from one study to the next rather than hand them back to the kernel and fault them in again."""

    def __init__(self, pop: Population):
        self.stratum_cdf = _cdf([e.prob for e in pop.entries])
        self.arm_cdf = _cdf(pop.assignment)
        d = np.array([e.stratum.trajectory for e in pop.entries], dtype=np.intp)
        self.sd = np.repeat([e.noise_sd for e in pop.entries], 3)
        self.mean = np.take_along_axis(np.array([e.means for e in pop.entries]), d, axis=1).ravel()
        self.cell = (d + np.arange(0, 9, 3)).ravel()
        self._n, self._rows, self._buf = None, 0, None

    def _arrays(self, n: int, rows: int) -> list[np.ndarray]:
        """The (rows, n) draw arrays, one per _DRAW_DTYPES entry, laid end to end in the sampler's buffer."""
        if self._n != n or self._rows < rows:
            self._n, self._rows = n, rows
            self._buf = np.empty(sum(np.dtype(t).itemsize for t in _DRAW_DTYPES) * rows * n, np.uint8)
        arrays, offset = [], 0
        for dtype in _DRAW_DTYPES:
            arrays.append(np.ndarray((rows, n), dtype, buffer=self._buf, offset=offset))
            offset += arrays[-1].nbytes
        return arrays

    def _fill(self, n: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The samples of `seeds`, one a row of the sampler's reused (len(seeds), n) arrays: their cell rows, their
        outcomes, and a spare float array of that shape. Each seed draws three blocks of its own PCG64 stream, in
        order: n stratum uniforms, n instrument uniforms, n noise normals (drawn even where noise_sd is 0). The
        categories, lookups and arithmetic then run once over the whole block."""
        k, v, y, idx, hit = self._arrays(n, len(seeds))
        # The stratum uniforms live in k's bytes (both are 8 bytes wide): _category reads them all before k is written.
        u = k.view(float)
        for row, seed in enumerate(seeds):
            rng = np.random.Generator(np.random.PCG64(seed))
            rng.random(out=u[row])
            rng.random(out=v[row])
            rng.standard_normal(out=y[row])
        np.copyto(k, _category(u, v, self.stratum_cdf, self.arm_cdf, idx, hit))
        # In place, in the order sd * noise + mean: IEEE * and + commute, so y has the bytes of the out-of-place
        # sum. Every k is a table index, so mode="clip" clips nothing; it spares the buffered copy of `out` that
        # mode="raise" makes. take reads each k before writing its slot, so the cell rows may overwrite k.
        y *= np.take(self.sd, k, out=v, mode="clip")
        y += np.take(self.mean, k, out=v, mode="clip")
        return np.take(self.cell, k, out=k, mode="clip"), y, v

    def draw(self, n: int, seed: int) -> Dataset:
        """A sample in fresh arrays."""
        cell, y, _ = self._fill(n, (seed,))
        return Dataset(*np.divmod(cell[0], 3), y[0].copy(), seed)

    def table(self, n: int, seed: int) -> "CellTable":
        """The cell table of the sample `draw(n, seed)` returns."""
        return CellTable.from_cells(*(a[0] for a in self._fill(n, (seed,))))

    def tables(self, n: int, seeds: Sequence[int]) -> "CellTable":
        """The cell tables of the samples of `seeds`, stacked along a leading axis."""
        return CellTable.from_cells(*self._fill(n, seeds))


def generate(pop: Population, n: int, seed: int) -> Dataset:
    """Draw an i.i.d. sample of size n from the population."""
    check_count("sample size", n, 1)
    check_seed(seed)
    return _Sampler(pop).draw(n, seed)


def sample_table(pop: Population, n: int, seed: int) -> "CellTable":
    """The cell table of the sample `generate(pop, n, seed)` draws, without building it."""
    check_count("sample size", n, 1)
    check_seed(seed)
    return _Sampler(pop).table(n, seed)


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
    def from_cells(cls, cell: np.ndarray, y: np.ndarray, spare: np.ndarray) -> "CellTable":
        """The tables of the samples along the last axis of `cell` (intp cell indices z * 3 + d) and `y` (float
        outcomes), shaped cell.shape[:-1] + (3, 3), in arrays of their own. Overwrites `cell` and `spare`, a
        float array of y's shape. Every bin sums its rows in row order, as a table of that sample alone would."""
        lead = cell.shape[:-1]
        bins = 9 * math.prod(lead)
        if bins > 9:
            cell += np.arange(0, bins, 9).reshape(lead + (1,))  # sample r's cells are bins 9r to 9r + 8
        cell, y, spare = cell.reshape(-1), y.reshape(-1), spare.reshape(-1)
        count = np.bincount(cell, minlength=bins).astype(float)
        mean = np.bincount(cell, weights=y, minlength=bins) / np.maximum(count, 1.0)
        # In place: fresh n-length temporaries cost more than the arithmetic.
        dev = np.take(mean, cell, out=spare, mode="clip")
        np.subtract(y, dev, out=dev)
        np.square(dev, out=dev)
        m2 = np.bincount(cell, weights=dev, minlength=bins)
        shape = lead + (3, 3)
        return cls(count=count.reshape(shape), mean=mean.reshape(shape), m2=m2.reshape(shape))

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "CellTable":
        cell = ds.z * 3
        cell += ds.d
        y = np.asarray(ds.y, dtype=float)
        return cls.from_cells(cell, y, np.empty(y.shape))


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

    Replications run in blocks of max(1, _BLOCK_ROWS // n): one stacked
    draw, cell table and estimator call per block. Every replication keeps
    its own stream and the bytes it would have alone. A block that raises
    RankError is run again one replication at a time, so the error names
    the first replication that fails and that replication's own failure.
    """
    check_count("replications", reps, 2)
    check_count("sample size", n, 1)
    if target is Target.CLUSTER_WALD:
        if scenario is None:
            raise ConfigError("cluster-wald replication requires a cluster scenario")
        truths = [("wald", cluster_wald_oracle(pop, scenario, Semantics.POOLED))]
        estimate = functools.partial(_cluster_wald_from_cells, scenario=scenario)
    else:
        beta1, beta2 = solve_moment_system(marginalize(pop))
        fs = first_stage_from_shares(marginal_shares(pop))
        truths = [("beta1", beta1), ("beta2", beta2), *((name, getattr(fs, name)) for name in COEFFICIENTS)]
        estimate = _2sls_from_cells
    sampler = _Sampler(pop)
    block = max(1, _BLOCK_ROWS // n)
    estimates = np.empty((reps, len(truths)))
    ses = np.empty((reps, len(truths)))
    for start in range(0, reps, block):
        seeds = [replication_seed(master_seed, rep) for rep in range(start, min(start + block, reps))]
        try:
            est, se = estimate(sampler.tables(n, seeds))
        except RankError:
            for rep, seed in enumerate(seeds, start):
                try:
                    estimate(sampler.table(n, seed))
                except RankError as err:
                    raise RankError(f"replication {rep} (replication_seed {seed}): {err}") from err
            raise
        estimates[start : start + len(seeds)] = est
        ses[start : start + len(seeds)] = se
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
