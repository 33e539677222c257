"""Shared random generators for the test suite. Everything is driven by an
explicit numpy Generator so test modules stay reproducible."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import fields
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Optional

import numpy as np

from ivstrata import (
    BiasDecomposition,
    BiasTerm,
    ClusterScenario,
    ConfigError,
    FirstStage,
    InfeasibleError,
    JointStratum,
    MarginalGroup,
    MarginalSpec,
    ParamSummary,
    Population,
    RankError,
    StratumEntry,
    SweepAxis,
    SweepRow,
    cluster_wald_oracle,
    estimate_2sls,
    estimate_cluster_wald,
    first_stage_from_shares,
    marginal_shares,
    marginalize,
    replication_seed,
    solve_moment_system,
)
from ivstrata.montecarlo import PARAMS_2SLS, CellTable
from ivstrata.strata import DEN_TOL, MAX_MAGNITUDE, SWAPPED_NAME, UNIFORM_ASSIGNMENT, as_float, reject_unknown

EFFECT_SLOTS = (
    "eff_c1", "eff_c2", "eff_id1", "eff_id2",
    "eff_nd1_1", "eff_nd1_2", "eff_nd2_1", "eff_nd2_2",
)

ALL_STRATA = tuple(JointStratum)


def wbar(spec: MarginalSpec) -> float:
    # Independent restatement of the full-regime denominator.
    return (
        spec.pC1 * spec.pC2
        + spec.pC1 * spec.pND2
        + spec.pND1 * spec.pC2
        + spec.pND1 * spec.pID2
        + spec.pID1 * spec.pND2
        - spec.pID1 * spec.pID2
    )


def swapped(spec: MarginalSpec) -> MarginalSpec:
    """`spec` with instrument (and field) labels 1 and 2 exchanged: each field takes the value of the field whose
    name has its 1s and 2s exchanged (strata.SWAPPED_NAME), as `decompose` relabels its second estimand."""
    return MarginalSpec(**{name: getattr(spec, other) for name, other in SWAPPED_NAME.items()})


def random_spec(
    rng: np.random.Generator,
    nd_free: bool = False,
    id_free: bool = False,
    defier_free: bool = False,
    den_floor: float = 0.05,
    effects: dict | None = None,
) -> MarginalSpec:
    """Admissible random MarginalSpec with |denominator| >= den_floor."""
    while True:
        shares = {}
        for k in (1, 2):
            c, idg, nd, _ = rng.dirichlet((2.0, 0.7, 0.7, 0.8))
            if nd_free or defier_free:
                nd = 0.0
            if id_free or defier_free:
                idg = 0.0
            shares[f"pC{k}"] = c
            shares[f"pID{k}"] = idg
            shares[f"pND{k}"] = nd
        if effects is None:
            slot_values = {slot: float(rng.uniform(-1000.0, 1000.0)) for slot in EFFECT_SLOTS}
        else:
            slot_values = dict(effects)
        spec = MarginalSpec(**shares, **slot_values)
        if abs(wbar(spec)) >= den_floor:
            return spec


def constant_effects_spec(rng: np.random.Generator, den_floor: float = 0.05) -> tuple[MarginalSpec, float, float]:
    """Random-share spec whose effect slots all come from one (tau1, tau2)."""
    tau1 = float(rng.uniform(-1000.0, 1000.0))
    tau2 = float(rng.uniform(-1000.0, 1000.0))
    effects = {
        "eff_c1": tau1, "eff_id2": tau1, "eff_nd1_1": tau1, "eff_nd2_1": tau1,
        "eff_c2": tau2, "eff_id1": tau2, "eff_nd1_2": tau2, "eff_nd2_2": tau2,
    }
    return random_spec(rng, den_floor=den_floor, effects=effects), tau1, tau2


def _reference_sweep_point(base: MarginalSpec, p: float, gap: float, defier: str) -> SimpleNamespace:
    """The grid point's spec fields, admitted by the sweep's rules as stated here: ConfigError for a share that is
    not finite in [0, 1], or a varied effect that is not finite with |v| <= 4e100."""
    first, kept = base.eff_c1, base.eff_c2
    if first is None or kept is None:
        raise ConfigError("the sweep needs both complier effects")
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ConfigError(f"share {p} outside [0, 1]")
    varied = first - gap if defier == "id1" else first + gap
    if not (math.isfinite(varied) and abs(varied) <= 4e100):
        raise ConfigError(f"effect {varied} outside [-4e100, 4e100]")
    if defier == "id1":
        point = {"pID1": p, "pND1": 0.0, "eff_id2": varied, "eff_id1": kept}
    else:
        point = {"pND1": p, "pID1": 0.0, "eff_nd1_1": varied, "eff_nd1_2": kept}
    return SimpleNamespace(**{**{f.name: getattr(base, f.name) for f in fields(base)}, "pC1": 1.0 - p, **point})


def _effect(spec: SimpleNamespace, slot: str) -> float:
    value = getattr(spec, slot)
    if value is None:
        raise ConfigError(f"effect slot {slot} is absent")
    return value


# The first estimand's nine bias terms, stated here rather than read from the package's table, so that a wrong row
# there fails the sweep's comparison: (label, (share, share) weight product, (slot, slot) effect difference, sign).
_REFERENCE_TERMS = (
    ("w1", ("pID1", "pID2"), ("eff_c1", "eff_id2"), +1),
    ("w2", ("pID1", "pC2"), ("eff_c2", "eff_id1"), -1),
    ("w3", ("pND1", "pC2"), ("eff_nd1_1", "eff_c1"), +1),
    ("w4", ("pND1", "pC2"), ("eff_nd1_2", "eff_c2"), -1),
    ("w5", ("pND1", "pND2"), ("eff_nd1_1", "eff_nd2_1"), +1),
    ("w6", ("pND1", "pND2"), ("eff_nd1_2", "eff_nd2_2"), -1),
    ("w7", ("pND1", "pID2"), ("eff_c1", "eff_id2"), -1),
    ("w8", ("pID1", "pND2"), ("eff_nd2_1", "eff_c1"), +1),
    ("w9", ("pID1", "pND2"), ("eff_nd2_2", "eff_id1"), -1),
)


def _reference_decompose_first(spec: SimpleNamespace) -> BiasDecomposition:
    den = wbar(spec)
    if abs(den) <= DEN_TOL:
        raise RankError(f"degenerate identification: regime denominator {den!r} is near zero")
    late = _effect(spec, "eff_c1")
    terms = []
    for label, (sa, sb), (ea, eb), base_sign in _REFERENCE_TERMS:
        product = getattr(spec, sa) * getattr(spec, sb)
        if product != 0.0:
            delta = _effect(spec, ea) - _effect(spec, eb)
        else:
            va, vb = getattr(spec, ea), getattr(spec, eb)
            delta = (va - vb) if (va is not None and vb is not None) else 0.0
        omega = product / den
        if omega < 0.0:
            terms.append(BiasTerm(label=label, weight=-omega, delta=delta, sign=-base_sign))
        else:
            terms.append(BiasTerm(label=label, weight=omega, delta=delta, sign=base_sign))
    total = late + math.fsum(t.contribution for t in terms)
    return BiasDecomposition(late=late, terms=tuple(terms), denominator=den, total=total)


def reference_sweep(
    base: MarginalSpec, axis: SweepAxis, grid: list[float], levels: list[float], defier: str = "id1"
) -> tuple[SweepRow, ...]:
    """`bias_sweep` the long way: each grid point's fields checked by the sweep's admissibility rules, stated
    literally rather than by building a MarginalSpec, then a full neither-regime decomposition into BiasTerms, of
    which a row reads only `total` and `late`. The rows the package's sweep must reproduce bit for bit, NaN rows
    included."""
    if axis is SweepAxis.DEFIER_SHARE:
        points = [(g, lv, g, lv) for g in grid for lv in levels]  # (axis, level, p, gap)
    else:
        points = [(g, lv, lv, g) for g in grid for lv in levels]
    rows = []
    for axis_value, level, p, gap in points:
        try:
            dec = _reference_decompose_first(_reference_sweep_point(base, p, gap, defier))
            rows.append(
                SweepRow(axis=axis_value, level=level, beta=dec.total, late=dec.late, bias=dec.total - dec.late)
            )
        except (ConfigError, RankError):
            nan = float("nan")
            rows.append(SweepRow(axis=axis_value, level=level, beta=nan, late=nan, bias=nan))
    return tuple(rows)


def random_population(
    rng: np.random.Generator,
    strata: tuple[JointStratum, ...] = ALL_STRATA,
    noise_sd: float = 0.0,
    alpha: float = 0.6,
    assignment: tuple[float, float, float] | None = None,
    means: dict[JointStratum, tuple[float, float, float]] | None = None,
) -> Population:
    probs = rng.dirichlet(np.full(len(strata), alpha))
    entries = []
    for s, p in zip(strata, probs):
        m = means[s] if means is not None else tuple(float(v) for v in rng.uniform(-500.0, 500.0, size=3))
        entries.append(StratumEntry(stratum=s, prob=float(p), means=m, noise_sd=noise_sd))
    kwargs = {} if assignment is None else {"assignment": assignment}
    return Population(entries=tuple(entries), **kwargs)


def grid_population(rng: np.random.Generator, step: float = 0.02, alpha: float = 0.6) -> Population:
    """Random population whose stratum probabilities are exact multiples of
    `step` (largest-remainder rounding), so implied first stages sit on the
    scan grid."""
    k = round(1.0 / step)
    raw = rng.dirichlet(np.full(len(ALL_STRATA), alpha)) * k
    counts = np.floor(raw).astype(int)
    short = k - int(counts.sum())
    for i in np.argsort(-(raw - counts))[:short]:
        counts[i] += 1
    entries = tuple(
        StratumEntry(
            stratum=s,
            prob=int(c) / k,
            means=tuple(float(v) for v in rng.uniform(-500.0, 500.0, size=3)),
        )
        for s, c in zip(ALL_STRATA, counts)
        if c > 0
    )
    return Population(entries=entries)


def _reference_floats(value, what: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list of 3 numbers")
    return tuple([as_float(v, what) for v in value])


def _reference_entry(stratum: JointStratum, prob: float, means: tuple, noise_sd: float) -> StratumEntry:
    """StratumEntry's checks in their order, then the entry with every number stored as a float."""
    if not 0.0 <= prob <= 1.0:
        raise ConfigError(f"stratum {stratum.name}: prob {prob} outside [0, 1]")
    if len(means) != 3:
        raise ConfigError(f"stratum {stratum.name}: means must have 3 entries, got {len(means)}")
    if not all(map(math.isfinite, means)):
        raise ConfigError(f"stratum {stratum.name}: non-finite mean in {means}")
    if any(abs(m) > MAX_MAGNITUDE for m in means):  # each value by itself: numpy compares an int to a float lossily
        raise ConfigError(f"stratum {stratum.name}: a mean in {means} exceeds {MAX_MAGNITUDE:g} in magnitude")
    if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ConfigError(f"stratum {stratum.name}: noise_sd {noise_sd} must be >= 0")
    if noise_sd > MAX_MAGNITUDE:
        raise ConfigError(f"stratum {stratum.name}: noise_sd {noise_sd} exceeds {MAX_MAGNITUDE:g}")
    return StratumEntry(stratum, float(prob), tuple(map(float, means)), float(noise_sd))


def reference_population_from_dict(doc: Mapping) -> Population:
    """The per-entry loader: each entry's label built, each key check and each number converted in turn. The
    oracle of `population_from_dict`'s one pass: the same Population or the same ConfigError text."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"population must be an object, got {type(doc).__name__}")
    reject_unknown(doc, ("assignment", "strata"), "population")
    if "strata" not in doc:
        raise ConfigError("population is missing the 'strata' list")
    raw = doc["strata"]
    if not isinstance(raw, (list, tuple)):
        raise ConfigError("'strata' must be a list")
    entries = []
    for i, item in enumerate(raw):
        where = f"strata[{i}]"
        if not isinstance(item, Mapping):
            raise ConfigError(f"{where} must be an object")
        reject_unknown(item, ("tag", "prob", "means", "noise_sd"), where)
        for req in ("tag", "prob", "means"):
            if req not in item:
                raise ConfigError(f"{where} is missing '{req}'")
        entries.append(_reference_entry(
            JointStratum.from_tag(item["tag"]), as_float(item["prob"], where + ".prob"),
            _reference_floats(item["means"], where + ".means"),
            as_float(item.get("noise_sd", 0.0), where + ".noise_sd"),
        ))
    return reference_population(entries, _reference_floats(doc.get("assignment", UNIFORM_ASSIGNMENT), "assignment"))


def reference_population(entries: list[StratumEntry], assignment: tuple[float, ...]) -> Population:
    """Population's six rules restated in their order (no strata, a repeated stratum, the probability sum, the
    assignment's length, its range, its sum), each with its tolerance written out, then the Population."""
    if len(entries) == 0:
        raise ConfigError("population has no strata")
    for i, e in enumerate(entries):
        if any(f.stratum is e.stratum for f in entries[:i]):
            raise ConfigError(f"stratum {e.stratum.name} appears more than once")
    total = math.fsum(e.prob for e in entries)
    if not abs(total - 1.0) <= 1e-12:
        raise ConfigError(f"stratum probabilities sum to {total!r}, expected 1 within 1e-12")
    if len(assignment) != 3:
        raise ConfigError(f"assignment must have 3 entries, got {len(assignment)}")
    for p in assignment:
        if math.isnan(p) or math.isinf(p) or p < 0.0:
            raise ConfigError(f"assignment probabilities must be >= 0, got {tuple(assignment)}")
    a_total = math.fsum(assignment)
    if not abs(a_total - 1.0) <= 1e-12:
        raise ConfigError(f"assignment probabilities sum to {a_total!r}, expected 1 within 1e-12")
    return Population(entries=tuple(entries), assignment=tuple(assignment))


def reference_tables(pop: Population, n: int, master_seed: int, reps: int) -> list[CellTable]:
    """The first `reps` cell tables of the study at `master_seed`, restated
    plainly: three Generators seeded by replication_seed(master_seed, j),
    j = 0 (counts), 1 (normals), 2 (gammas); for each table one call on each
    over the K = 3 * len(entries) groups k = 3 * stratum + z, then a Python
    loop merging the groups into their (z, d) cells in k order. The stream
    layout the package's table engine must reproduce byte for byte."""
    counts_rng, normals_rng, gammas_rng = (
        np.random.Generator(np.random.PCG64(replication_seed(master_seed, j))) for j in range(3)
    )
    groups = [(e, z) for e in pop.entries for z in range(3)]
    p = np.array([e.prob * pop.assignment[z] for e, z in groups])
    tables = []
    for _ in range(reps):
        counts = [int(c) for c in counts_rng.multinomial(n, p / p.sum())]
        normals = normals_rng.standard_normal(len(groups)).tolist()
        gammas = gammas_rng.standard_gamma([max(c - 1, 0) / 2 for c in counts]).tolist()
        cells, means, m2s = [], [], []
        for (e, z), c, x, g in zip(groups, counts, normals, gammas):
            cells.append(3 * z + e.stratum.trajectory[z])
            means.append(e.means[e.stratum.trajectory[z]] + e.noise_sd * x / math.sqrt(max(c, 1)))
            m2s.append((e.noise_sd * e.noise_sd) * (2.0 * g))
        count, mean, m2 = [0.0] * 9, [0.0] * 9, [0.0] * 9
        for cell, c in zip(cells, counts):
            count[cell] += float(c)
        for cell, c, m in zip(cells, counts, means):
            mean[cell] += (float(c) / max(count[cell], 1.0)) * m
        for cell, c, m, w in zip(cells, counts, means, m2s):
            dev = m - mean[cell]
            m2[cell] += w + float(c) * (dev * dev)
        tables.append(CellTable(*(np.array(a).reshape(3, 3) for a in (count, mean, m2))))
    return tables


def reference_replicate(
    pop: Population,
    n: int,
    reps: int,
    master_seed: int,
    scenario: Optional[ClusterScenario] = None,
) -> tuple[ParamSummary, ...]:
    """`replicate` one replication at a time: each cell table drawn by
    `reference_tables` and estimated on its own, then the same rows, one
    column at a time. A failing replication raises at once, named as
    `replicate` names it."""
    if scenario is not None:
        truths = [("wald", cluster_wald_oracle(pop, scenario))]
        estimate = partial(estimate_cluster_wald, scenario=scenario)
    else:
        fs = first_stage_from_shares(marginal_shares(pop))
        truths = [*zip(("beta1", "beta2"), solve_moment_system(marginalize(pop))),
                  *((f.name, getattr(fs, f.name)) for f in fields(FirstStage))]
        estimate = estimate_2sls
    estimates, ses = [], []
    for rep, table in enumerate(reference_tables(pop, n, master_seed, reps)):
        try:
            est, se = estimate(table)
        except RankError as err:
            raise RankError(f"replication {rep}: {err}") from err
        estimates.append(est)
        ses.append(se)
    estimates, ses = np.array(estimates), np.array(ses)
    rows = []
    for j, (param, truth) in enumerate(truths):
        col = estimates[:, j]
        mean = float(np.mean(col))
        coverage = float(np.mean(np.abs(col - truth) <= 1.96 * ses[:, j]))
        rows.append(ParamSummary(param, float(truth), mean, float(np.std(col, ddof=1)), mean - float(truth), coverage))
    return tuple(rows)


FIELD_ARMS = (frozenset({1}), frozenset({2}))


def indicator_design(codes: np.ndarray, arms: tuple[frozenset[int], ...]) -> np.ndarray:
    """n-row design [1, codes in arms[0], codes in arms[1], ...]."""
    return np.column_stack([np.ones(codes.size)] + [np.isin(codes, sorted(arm)) for arm in arms]).astype(float)


def cross_moment_cond(z: np.ndarray, d: np.ndarray, arms: tuple[frozenset[int], ...]) -> float:
    """Condition number of the IV cross-moment matrix Z'X for these arms."""
    return float(np.linalg.cond(indicator_design(z, arms).T @ indicator_design(d, arms)))


def _reference_iv_hc0(z: np.ndarray, d: np.ndarray, y: np.ndarray, arms: tuple[frozenset[int], ...],
                      what: str) -> tuple[np.ndarray, np.ndarray]:
    """Just-identified IV with the HC0 sandwich over n-row design matrices."""
    inst, regs, y = indicator_design(z, arms), indicator_design(d, arms), y.astype(float)
    a = inst.T @ regs
    if np.linalg.matrix_rank(a) < a.shape[0]:
        raise RankError(f"{what}: instrument-regressor cross-moment matrix is singular")
    coef = np.linalg.solve(a, inst.T @ y)
    resid = y - regs @ coef
    meat = (inst * resid[:, None] ** 2).T @ inst
    a_inv = np.linalg.inv(a)
    cov = a_inv @ meat @ a_inv.T
    diag = cov.diagonal().copy()
    np.fill_diagonal(cov, np.maximum(diag, 0.0))
    return coef, cov


def reference_2sls(z: np.ndarray, d: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-level restatement of `estimate_2sls`: 2SLS and HC0 on n x 3
    indicator matrices, the first stage from per-cell means of the field
    indicators, estimates and standard errors in PARAMS_2SLS order.
    Independent of the cell-table layer the package uses."""
    for name, arr in (("instrument z", z), ("field d", d)):
        missing = sorted({0, 1, 2} - set(np.unique(arr).tolist()))
        if missing:
            raise RankError(f"{name} never takes value{'s' if len(missing) > 1 else ''} {missing} in this sample")
    beta, cov = _reference_iv_hc0(z, d, y, FIELD_ARMS, "second stage")
    cells = [z == v for v in (0, 1, 2)]
    coefs, ses = {"beta1": beta[1], "beta2": beta[2]}, {"beta1": cov[1, 1] ** 0.5, "beta2": cov[2, 2] ** 0.5}
    for j in (1, 2):
        dj = (d == j).astype(float)
        m = [float(dj[c].mean()) for c in cells]
        v = [float(((dj[c] - m[i]) ** 2).sum()) / float(c.sum()) ** 2 for i, c in enumerate(cells)]
        for k, (coef, var) in enumerate(((m[0], v[0]), (m[1] - m[0], v[0] + v[1]), (m[2] - m[0], v[0] + v[2]))):
            coefs[f"a{j}{k}"] = coef
            ses[f"a{j}{k}"] = var ** 0.5
    return tuple(np.array([x[name] for name in PARAMS_2SLS]) for x in (coefs, ses))


def reference_cluster_wald(z: np.ndarray, d: np.ndarray, y: np.ndarray,
                           scenario: ClusterScenario) -> tuple[np.ndarray, np.ndarray]:
    """Row-level restatement of `estimate_cluster_wald` on n x 2 matrices: the ratio and its standard error."""
    n1 = int(np.isin(z, sorted(scenario.s1)).sum())
    if n1 == 0 or n1 == z.size:
        raise RankError(f"instrument arm z~={int(n1 == 0)} is empty under scenario {scenario.label!r}")
    coef, cov = _reference_iv_hc0(z, d, y, (scenario.s1,), f"clustered Wald ({scenario.label})")
    return coef[1:], np.sqrt(cov[1:, 1])


def _fraction_inverse(a: list[list[Fraction]]) -> Optional[list[list[Fraction]]]:
    """The inverse of a square Fraction matrix by Gauss-Jordan elimination, or None if it is singular."""
    k = len(a)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(a)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    return [row[k:] for row in rows]


def exact_iv_hc0(
    table: CellTable, arms: tuple[frozenset[int], ...]
) -> Optional[tuple[list[Fraction], list[Fraction], list[list[Fraction]]]]:
    """Textbook just-identified IV of y on x = [1, d in arms[0], ...] instrumented by z = [1, z in arms[0], ...],
    with the HC0 sandwich, in exact rationals from one float table's exact counts, means and M2s: the
    coefficients after the constant, their variances and the cross-moment matrix A, or None if A is singular.

    A = sum over cells of n z x' is inverted by Gaussian elimination, b = A^-1 sum n ybar z, and the covariance is
    A^-1 (sum over cells of (M2 + n (ybar - x'b)^2) z z') A^-T. Nothing here collapses the cells by arm or uses a
    cofactor, so it shares no algebra with the package's closed form.
    """
    def row(v: int) -> list[Fraction]:
        return [Fraction(1)] + [Fraction(int(v in arm)) for arm in arms]

    cells = [
        (row(z), row(d), *(Fraction(float(a[z, d])) for a in (table.count, table.mean, table.m2)))
        for z in range(3) for d in range(3)
    ]
    k = len(arms) + 1
    a = [[sum(n * zi[i] * x[j] for zi, x, n, _, _ in cells) for j in range(k)] for i in range(k)]
    inv = _fraction_inverse(a)
    if inv is None:
        return None
    rhs = [sum(n * ybar * zi[i] for zi, _, n, ybar, _ in cells) for i in range(k)]
    b = [sum(inv[i][j] * rhs[j] for j in range(k)) for i in range(k)]
    resid = [m2 + n * (ybar - sum(xj * bj for xj, bj in zip(x, b))) ** 2 for _, x, n, ybar, m2 in cells]
    meat = [[sum(e * zi[i] * zi[j] for (zi, *_), e in zip(cells, resid)) for j in range(k)] for i in range(k)]
    cov = [[sum(inv[i][p] * meat[p][q] * inv[j][q] for p in range(k) for q in range(k)) for j in range(k)]
           for i in range(k)]
    return b[1:], [cov[j][j] for j in range(1, k)], a


def reference_scan(fs: FirstStage, step: float = 0.05) -> dict[MarginalGroup, tuple[float, float]]:
    """Outer-product restatement of `feasible_set_scan`: for each grid value
    of the six coefficients it builds the n1 x n2 block of next-best defier
    masses and keeps the pairs for which a double-complier mass leaves every
    stratum nonnegative. O((1/step)^2) memory; use only at coarse steps."""
    if not (0.0 < step <= 0.1):
        raise ConfigError(f"scan step must be in (0, 0.1], got {step}")
    k = round(1.0 / step)
    tol = k * step / 2.0 + 1e-9  # grid units; half-step match window, boundary-inclusive

    def candidates(alpha: float) -> range:
        target = alpha * k
        return range(math.ceil(target - tol), math.floor(target + tol) + 1)

    lo = {name: math.inf for name in ("nd1", "id1", "nd2", "id2")}
    hi = {name: -math.inf for name in ("nd1", "id1", "nd2", "id2")}
    found = False
    for m10 in candidates(fs.a10):
        for m20 in candidates(fs.a20):
            for m11 in candidates(fs.a11):
                for m22 in candidates(fs.a22):
                    for m21 in candidates(fs.a21):
                        for m12 in candidates(fs.a12):
                            # Free masses: n1 = P(ND1)*k, n2 = P(ND2)*k. For a given
                            # pair, a valid double-complier mass exists iff the
                            # remaining strata stay nonnegative, which is an interval
                            # condition.
                            n1 = np.arange(max(0, -m21), m20 + 1)
                            n2 = np.arange(max(0, -m12), m10 + 1)
                            if n1.size == 0 or n2.size == 0:
                                continue
                            s = n1[:, None] + n2[None, :]
                            upper = min(m11 - m12, m22 - m21) - s
                            lower = (m10 + m20 + m11 + m22 - k) - s
                            mask = (upper >= 0) & (upper >= lower)
                            if not mask.any():
                                continue
                            found = True
                            n1_ok = n1[mask.any(axis=1)]
                            n2_ok = n2[mask.any(axis=0)]
                            for name, values in (
                                ("nd1", n1_ok),
                                ("id1", m21 + n1_ok),
                                ("nd2", n2_ok),
                                ("id2", m12 + n2_ok),
                            ):
                                lo[name] = min(lo[name], int(values.min()) / k)
                                hi[name] = max(hi[name], int(values.max()) / k)
    if not found:
        raise InfeasibleError(
            f"no stratum probability vector on the 1/{k} grid reproduces these "
            f"first-stage coefficients within {step / 2:g}"
        )
    return {MarginalGroup[name.upper()]: (lo[name], hi[name]) for name in ("nd1", "id1", "nd2", "id2")}
