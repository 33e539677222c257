"""Seeded simulation harness: draw samples or their cell tables from a
stratum population, estimate by two-stage least squares or a clustered Wald
ratio, and compare replication summaries against the exact estimands.

Every estimator takes only a (z, d) cell table, the one data type here:
`CellTable.from_codes` builds a sample's table from its rows, and a
replication draws its table from its (stratum, z) group summaries, exact in
distribution, never its rows; `_draws` holds a study's stream layout.
`generate` draws rows (z, d, y), with `Generator.choice`.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .clustering import ClusterScenario, cluster_wald_oracle
from .estimands import solve_moment_system
from .exceptions import ConfigError, RankError
from .identification import COEFFICIENTS, FirstStage, first_stage_from_shares
from .strata import MAX_MAGNITUDE, RANK_TOL, Population, Target, check_count, marginal_shares, marginalize


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


# The version of the random stream: which sample or cell table a (population, n, seed) draws (see `_draws`). Any
# change that draws different bytes for some seed bumps it. Version 2 gave each replication its own stream; version
# 1's rows are what `generate` still draws, by Generator.choice.
STREAM_VERSION = 3


# A study draws and estimates its replications' cell tables in blocks of this many.
_BLOCK_REPS = 1024


def _draws(pop: Population, n: int, seed: int, reps: int) -> Iterator[CellTable]:
    """The cell tables of the `reps`-replication study at `seed`, in blocks of at most _BLOCK_REPS stacked along a
    leading axis. The study reads three PCG64 streams, stream j seeded by replication_seed(seed, j). Each table
    takes K values from each, one per group k = stratum * 3 + z: stream 0 the group counts, multinomial(n, prob);
    stream 1 standard normals Z; stream 2 standard gammas G of shape max(count - 1, 0) / 2. Each stream is read in
    table order, so no table depends on the block size or on how many tables the study draws. For Gaussian noise a
    group's mean and within-group M2 are independent (Cochran's theorem), mean + sd Z / sqrt(count) and
    sd^2 2G = sd^2 chi2(count - 1), so each table has the distribution of the table of an n-row sample."""
    groups = [(e.prob * p, e.noise_sd, e.means[d], z * 3 + d)  # d: the field the stratum takes at z
              for e in pop.entries for z, (p, d) in enumerate(zip(pop.assignment, e.stratum.trajectory))]
    prob, sd, mean, cell = map(np.array, zip(*groups))
    prob /= prob.sum()
    var2 = sd * sd * 2.0  # x2 is exact, so (2 sd^2) G has the bytes of (2G) sd^2
    streams = [np.random.Generator(np.random.PCG64(replication_seed(seed, j))) for j in range(3)]
    for start in range(0, reps, _BLOCK_REPS):
        count = streams[0].multinomial(n, prob, size=min(_BLOCK_REPS, reps - start))
        normal = streams[1].standard_normal(count.shape)
        gamma = streams[2].standard_gamma(np.maximum(count - 1, 0) / 2)
        normal *= sd
        normal /= np.sqrt(np.maximum(count, 1))
        normal += mean
        gamma *= var2
        yield CellTable.from_groups(cell, count, normal, gamma)


def generate(pop: Population, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An i.i.d. size-n sample's rows (z, d, y), drawn from the seed's PCG64 stream as stream version 1 drew them:
    `Generator.choice` of n strata, then of n instrument values, then n standard normals (drawn even where noise_sd
    is 0). `CellTable.from_codes(*generate(...))` is the sample's table."""
    check_count("sample size", n, 1)
    if seed < 0:  # PCG64 takes no negative seed; the streams of `_draws` hash theirs, so any integer does there
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    stratum = rng.choice(len(pop.entries), size=n, p=[e.prob for e in pop.entries])
    z = rng.choice(3, size=n, p=pop.assignment)
    d = np.array([e.stratum.trajectory for e in pop.entries])[stratum, z]
    means, sds = np.array([e.means for e in pop.entries]), np.array([e.noise_sd for e in pop.entries])
    return z, d, means[stratum, d] + sds[stratum] * rng.standard_normal(n)


def sample_table(pop: Population, n: int, seed: int) -> "CellTable":
    """A seeded size-n sample's cell table, drawn from its group summaries: table 0 of the study at `seed`."""
    check_count("sample size", n, 1)
    return next(_draws(pop, n, seed, 1))[0]


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
    def from_codes(cls, z, d, y) -> "CellTable":
        """The table of one sample's rows, simulated or a user's own: instrument z, chosen field d, outcome y.

        z and d must hold codes in {0, 1, 2}, float codes such as 1.0 included; y finite real numbers of magnitude
        at most MAX_MAGNITUDE, so that the estimators' squares stay finite. ConfigError otherwise.
        """
        z, d, y = np.asarray(z), np.asarray(d), np.asarray(y)
        if not (z.shape == d.shape == y.shape) or z.ndim != 1:
            shapes = ", ".join(str(a.shape) for a in (z, d, y))
            raise ConfigError(f"z, d, y must be equal-length vectors, got shapes {shapes}")
        if z.size == 0:
            raise ConfigError("dataset is empty")
        cell = _as_codes("instrument z", z) * 3 + _as_codes("field d", d)
        if y.dtype.kind not in "biuf":
            raise ConfigError(f"outcome y must hold real numbers, got dtype {y.dtype}")
        y = y.astype(float, copy=False)
        too_big = f"not exceed {MAX_MAGNITUDE:g} in magnitude"
        for rule, bad in (("be finite", ~np.isfinite(y)), (too_big, np.abs(y) > MAX_MAGNITUDE)):
            if bad.any():
                shown = ", ".join(sorted(set(map(str, y[bad].tolist()))))
                raise ConfigError(f"outcome y must {rule}; {int(bad.sum())} rows hold {shown}")
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


def _first_stage(count: np.ndarray, n_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each table's first stage and its HC0 standard errors, (..., 6) in COEFFICIENTS order, from the counts and
    their instrument margin n_z (..., 3); every instrument value must occur.

    The regression is saturated, so its coefficients are contrasts of the
    field shares m[z, j] of each instrument cell, and the HC0 variance of a
    share is m (1 - m) / n_z; pure cells stay exactly 0.
    """
    n_z = n_z[..., None]
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
    n_z = table.count.sum(axis=-1)
    _require_every_value("instrument z", n_z)
    return tuple(FirstStage(*x.tolist()) for x in _first_stage(table.count, n_z))


def _total(x: np.ndarray) -> np.ndarray:
    """x (..., 2 or 3) summed over its last axis in index order, by elementwise adds."""
    return x[..., 0] + x[..., 1] if x.shape[-1] == 2 else x[..., 0] + x[..., 1] + x[..., 2]


# A 3x3 matrix m's adjugate is adj[i, j] = m[j+1, i+1] m[j+2, i+2] - m[j+1, i+2] m[j+2, i+1] (indices mod 3):
# _COFACTOR[f, i, j] is the flat index of factor f of that product pair, so one gather of m.ravel() gives all four.
_COFACTOR = np.array([[[3 * ((j + a) % 3) + (i + b) % 3 for j in range(3)] for i in range(3)]
                      for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))])
_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])  # a 2x2 matrix's cofactor (i, j) is (-1)^(i+j) m[1-i, 1-j]


def _iv_hc0(table: CellTable, arm: tuple[int, ...] | slice, n: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Just-identified IV of y on [1, d in arm 1, ...] instrumented by [1, z in arm 1, ...], with the HC0 sandwich,
    summed over each cell table: the coefficients of arms 1 to k - 1 and their variances, (..., k - 1) each. arm[v]
    is value v's arm (slice(None) when each value is its own arm), n (..., k, k) the counts by arm, n[g, h] the rows
    with z in arm g and d in arm h. RankError (see `_require`) for the first table whose n is singular to float
    precision: |det n| <= RANK_TOL ||n||_F^k.

    The cross-moment matrix is L n L' with L unimodular, so this is the sample analogue of `solve_moment_system`:
    arm h's fitted mean is mu[h], mu = n^-1 s with s[g] the sum of y over z's arm g; coefficient j is mu[j] - mu[0]
    = sum_g c[j, g] s[g], c[j, g] = n^-1[j, g] - n^-1[0, g], with variance sum_g c[j, g]^2 r[g], r[g] summing each
    cell's M2 + count (ybar - mu[arm of d])^2 over z's arm g. n^-1 is n's adjugate over its determinant; at k = 2
    coefficient 1 is the Wald ratio (N0 S1 - N1 S0) / (N0 D1 - N1 D0), Ng, Sg and Dg the rows of arm g, their sum
    of y and those with d in arm 1. The sums over g run per z value, reading c at z's arm. Only elementwise
    products and sums are used, so a table in a stack gets the bytes it gets alone.
    """
    if n.shape[-1] == 2:
        adj = n[..., ::-1, ::-1].swapaxes(-1, -2) * _SIGNS
    else:
        f = n.reshape(n.shape[:-2] + (9,))[..., _COFACTOR]
        adj = f[..., 0, :, :] * f[..., 1, :, :] - f[..., 2, :, :] * f[..., 3, :, :]
    det = _total(n[..., 0, :] * adj[..., :, 0])
    norm = np.sqrt(_total(_total(n * n)))
    _require(np.abs(det) <= RANK_TOL * norm ** n.shape[-1],
             lambda i: f"{what}: instrument-regressor cross-moment matrix is singular")
    inv = adj[..., arm] / det[..., None, None]  # n^-1[h, arm of z], (..., k, 3)
    s = _total(table.count * table.mean)[..., None, :]
    dev = table.mean - _total(inv * s)[..., None, arm]
    r = _total(table.m2 + table.count * (dev * dev))[..., None, :]
    contrast = inv[..., 1:, :] - inv[..., :1, :]
    return _total(contrast * s), _total(contrast * contrast * r)


# The order of `estimate_2sls`'s estimates and standard errors: the two second-stage effects, then the first stage.
PARAMS_2SLS = ("beta1", "beta2", *COEFFICIENTS)


def estimate_2sls(table: CellTable) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage least squares of y on the field indicators, instrumented by the assignment indicators, plus the
    saturated first stages: each table's estimates and HC0 standard errors, (..., 8) in PARAMS_2SLS order.

    The table is exact, not an approximation: every instrument and regressor is an indicator of z or d, so the
    moment matrices, the HC0 residual sums of squares and the first-stage shares are sums over the nine cells; the
    second stage inverts the 3x3 count matrix N by its adjugate (`_iv_hc0`). RankError if an instrument or field
    value never occurs (the design is collinear), or N is otherwise singular to float precision.
    """
    n_z, n_d = table.count.sum(axis=-1), table.count.sum(axis=-2)
    if not np.logical_and(n_z, n_d).all():  # a value is missing: name it, z before d
        _require_every_value("instrument z", n_z)
        _require_every_value("field d", n_d)
    beta, var = _iv_hc0(table, slice(None), table.count, "second stage")
    alphas, alpha_ses = _first_stage(table.count, n_z)
    return np.concatenate((beta, alphas), axis=-1), np.concatenate((np.sqrt(var), alpha_ses), axis=-1)


def estimate_cluster_wald(table: CellTable, scenario: ClusterScenario) -> tuple[np.ndarray, np.ndarray]:
    """Wald ratio of the collapsed outcome on the collapsed treatment: each table's estimate and HC0 standard error,
    (..., 1) each. The collapsed instrument and treatment are indicators of z and d, so each cell maps to one
    pseudo-arm pair, and the ratio is `_iv_hc0` over the 2x2 counts by arm. ConfigError for a scenario without a
    clustered estimand; RankError if an instrument arm is empty or the counts are singular.
    """
    arm = tuple(int(v in scenario.require_collapse().s1) for v in range(3))
    # hot[g, v]: value v is in arm g. n sums integer counts, exact in any order while they stay below 2^53; past
    # that a count is a rounded float, and this order of summation is part of the printed bytes.
    hot = np.equal.outer((0, 1), arm)
    n = (table.count[..., None, None, :, :] * (hot[:, None, :, None] & hot[:, None])).sum(axis=(-2, -1))
    n_arm = np.reshape(_total(n), (-1, 2))
    _require(n_arm[:, 0] * n_arm[:, 1] == 0,
             lambda i: f"instrument arm z~={int(n_arm[i, 1] == 0)} is empty under scenario {scenario.label!r}")
    coef, var = _iv_hc0(table, arm, n, f"clustered Wald ({scenario.label})")
    return coef, np.sqrt(var)


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
    rows (see `_draws`): the estimators read only that table, so the
    summaries have the distribution an n-row sample gives them, at a cost
    and memory that do not grow with n. One estimator call takes each
    drawn block, and the estimators give a stacked table the bytes it gets
    alone (`_iv_hc0`), so the block size changes no byte. A block that
    raises RankError is estimated again one table at a time, so the error
    names the first replication that fails and that replication's own failure.
    """
    check_count("replications", reps, 2)
    check_count("sample size", n, 1)
    target = Target.FIELD_2SLS if scenario is None else Target.CLUSTER_WALD
    if target is Target.CLUSTER_WALD:
        truths = [("wald", cluster_wald_oracle(pop, scenario))]
        estimate = functools.partial(estimate_cluster_wald, scenario=scenario)
    else:
        fs = first_stage_from_shares(marginal_shares(pop))
        values = (*solve_moment_system(marginalize(pop)), *(getattr(fs, name) for name in COEFFICIENTS))
        truths = list(zip(PARAMS_2SLS, values))
        estimate = estimate_2sls
    estimates, ses = np.empty((2, len(truths), reps))
    stop = 0
    for tables in _draws(pop, n, master_seed, reps):
        start, stop = stop, stop + len(tables.count)
        try:
            est, se = estimate(tables)
        except RankError:
            for rep in range(start, stop):
                try:
                    estimate(tables[rep - start])
                except RankError as err:
                    raise RankError(f"replication {rep}: {err}") from err
            raise
        estimates[:, start:stop], ses[:, start:stop] = est.T, se.T
    truth = np.array([t for _, t in truths])[:, None]
    # np.mean's and np.std(ddof=1)'s own operations (add.reduce, divide by the count, square, sqrt) along each
    # parameter's contiguous row: the bytes they give its column, without their Python wrappers.
    mean = np.add.reduce(estimates, axis=1) / reps
    dev = estimates - mean[:, None]
    sd = np.sqrt(np.add.reduce(dev * dev, axis=1) / (reps - 1))
    coverage = np.count_nonzero(np.abs(estimates - truth) <= 1.96 * ses, axis=1) / reps
    rows = tuple(ParamSummary(param=param, truth=float(t), mean=m, sd=s, bias=m - float(t), coverage=c)
                 for (param, t), m, s, c in zip(truths, mean.tolist(), sd.tolist(), coverage.tolist()))
    return ReplicationSummary(rows=rows, n=n, reps=reps, master_seed=master_seed, target=target)
