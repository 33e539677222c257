"""Shared random generators for the test suite. Everything is driven by an
explicit numpy Generator so test modules stay reproducible."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import fields, replace
from functools import partial
from typing import Optional

import numpy as np

from ivstrata import (
    AssumptionError,
    BiasDecomposition,
    BiasTerm,
    ClusterScenario,
    ConfigError,
    Dataset,
    DefierBounds,
    EstimateSet,
    FirstStage,
    InfeasibleError,
    JointStratum,
    MarginalSpec,
    ParamSummary,
    Population,
    RankError,
    ReplicationSummary,
    Semantics,
    StratumEntry,
    SweepAxis,
    SweepRow,
    Target,
    WaldEstimate,
    cluster_wald_oracle,
    first_stage_from_shares,
    marginal_shares,
    marginalize,
    replication_seed,
    solve_moment_system,
)
from ivstrata.estimands import _TERMS
from ivstrata.montecarlo import CellTable, _2sls_from_cells, _cluster_wald_from_cells
from ivstrata.strata import DEN_TOL, MAX_MAGNITUDE, UNIFORM_ASSIGNMENT, as_float, reject_unknown

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


def _reference_sweep_spec(base: MarginalSpec, p: float, gap: float, defier: str) -> MarginalSpec:
    if defier == "id1":
        return replace(
            base,
            pID1=p,
            pC1=1.0 - p,
            pND1=0.0,
            eff_id2=base.effect("eff_c1") - gap,
            eff_id1=base.effect("eff_c2"),
        )
    return replace(
        base,
        pND1=p,
        pC1=1.0 - p,
        pID1=0.0,
        eff_nd1_1=base.effect("eff_c1") + gap,
        eff_nd1_2=base.effect("eff_c2"),
    )


def _reference_decompose_first(spec: MarginalSpec) -> BiasDecomposition:
    den = wbar(spec)
    if abs(den) <= DEN_TOL:
        raise RankError(f"degenerate identification: regime denominator {den!r} is near zero")
    late = spec.effect("eff_c1")
    terms = []
    for label, (sa, sb), (ea, eb), base_sign in _TERMS:
        product = getattr(spec, sa) * getattr(spec, sb)
        if product != 0.0:
            delta = spec.effect(ea) - spec.effect(eb)
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
    """`bias_sweep` the long way: each grid point's spec from
    `dataclasses.replace`, then a full neither-regime decomposition into
    BiasTerms, of which a row reads only `total` and `late`. The rows the
    package's sweep must reproduce bit for bit, NaN rows included."""
    if axis is SweepAxis.DEFIER_SHARE:
        points = [(g, lv, g, lv) for g in grid for lv in levels]  # (axis, level, p, gap)
    else:
        points = [(g, lv, lv, g) for g in grid for lv in levels]
    rows = []
    for axis_value, level, p, gap in points:
        try:
            dec = _reference_decompose_first(_reference_sweep_spec(base, p, gap, defier))
            rows.append(
                SweepRow(axis=axis_value, level=level, beta=dec.total, late=dec.late, bias=dec.total - dec.late)
            )
        except (ConfigError, AssumptionError, RankError):
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
    if max(map(abs, means)) > MAX_MAGNITUDE:
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
    assignment = _reference_floats(doc.get("assignment", UNIFORM_ASSIGNMENT), "assignment")
    return Population(entries=tuple(entries), assignment=assignment)


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
) -> ReplicationSummary:
    """`replicate` one replication at a time: each cell table drawn by
    `reference_tables` and estimated on its own, then the same summary, one
    column at a time. A failing replication raises at once, named as
    `replicate` names it."""
    target = Target.FIELD_2SLS if scenario is None else Target.CLUSTER_WALD
    if target is Target.CLUSTER_WALD:
        truths = [("wald", cluster_wald_oracle(pop, scenario, Semantics.POOLED))]
        estimate = partial(_cluster_wald_from_cells, scenario=scenario)
    else:
        fs = first_stage_from_shares(marginal_shares(pop))
        truths = [*zip(("beta1", "beta2"), solve_moment_system(marginalize(pop))),
                  *((f.name, getattr(fs, f.name)) for f in fields(FirstStage))]
        estimate = _2sls_from_cells
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
    return ReplicationSummary(rows=tuple(rows), n=n, reps=reps, master_seed=master_seed, target=target)


FIELD_ARMS = (frozenset({1}), frozenset({2}))


def indicator_design(codes: np.ndarray, arms: tuple[frozenset[int], ...]) -> np.ndarray:
    """n-row design [1, codes in arms[0], codes in arms[1], ...]."""
    return np.column_stack([np.ones(codes.size)] + [np.isin(codes, sorted(arm)) for arm in arms]).astype(float)


def cross_moment_cond(ds: Dataset, arms: tuple[frozenset[int], ...]) -> float:
    """Condition number of the IV cross-moment matrix Z'X for these arms."""
    return float(np.linalg.cond(indicator_design(ds.z, arms).T @ indicator_design(ds.d, arms)))


def _reference_iv_hc0(ds: Dataset, arms: tuple[frozenset[int], ...], what: str) -> tuple[np.ndarray, np.ndarray]:
    """Just-identified IV with the HC0 sandwich over n-row design matrices."""
    inst, regs, y = indicator_design(ds.z, arms), indicator_design(ds.d, arms), ds.y.astype(float)
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


def reference_2sls(ds: Dataset) -> EstimateSet:
    """Row-level restatement of `estimate_2sls`: 2SLS and HC0 on n x 3
    indicator matrices, the first stage from per-cell means of the field
    indicators. Independent of the cell-table layer the package uses."""
    for name, arr in (("instrument z", ds.z), ("field d", ds.d)):
        missing = sorted({0, 1, 2} - set(np.unique(arr).tolist()))
        if missing:
            raise RankError(f"{name} never takes value{'s' if len(missing) > 1 else ''} {missing} in this sample")
    beta, cov = _reference_iv_hc0(ds, FIELD_ARMS, "second stage")
    cells = [ds.z == v for v in (0, 1, 2)]
    coefs, ses = {}, {}
    for j in (1, 2):
        dj = (ds.d == j).astype(float)
        m = [float(dj[c].mean()) for c in cells]
        v = [float(((dj[c] - m[z]) ** 2).sum()) / float(c.sum()) ** 2 for z, c in enumerate(cells)]
        for k, (coef, var) in enumerate(((m[0], v[0]), (m[1] - m[0], v[0] + v[1]), (m[2] - m[0], v[0] + v[2]))):
            coefs[f"a{j}{k}"] = coef
            ses[f"a{j}{k}"] = var ** 0.5
    return EstimateSet(
        beta1=float(beta[1]),
        beta2=float(beta[2]),
        se_beta1=float(np.sqrt(cov[1, 1])),
        se_beta2=float(np.sqrt(cov[2, 2])),
        alphas=FirstStage(**coefs),
        alpha_ses=FirstStage(**ses),
        n=ds.n,
        seed=ds.seed,
    )


def reference_cluster_wald(ds: Dataset, scenario: ClusterScenario) -> WaldEstimate:
    """Row-level restatement of `estimate_cluster_wald` on n x 2 matrices."""
    n1 = int(np.isin(ds.z, sorted(scenario.s1)).sum())
    if n1 == 0 or n1 == ds.n:
        raise RankError(f"instrument arm z~={int(n1 == 0)} is empty under scenario {scenario.label!r}")
    coef, cov = _reference_iv_hc0(ds, (scenario.s1,), f"clustered Wald ({scenario.label})")
    return WaldEstimate(estimate=float(coef[1]), se=float(np.sqrt(cov[1, 1])), n=ds.n, seed=ds.seed)


def reference_scan(fs: FirstStage, step: float = 0.05) -> DefierBounds:
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
    return DefierBounds(
        nd1=(lo["nd1"], hi["nd1"]),
        id1=(lo["id1"], hi["id1"]),
        nd2=(lo["nd2"], hi["nd2"]),
        id2=(lo["id2"], hi["id2"]),
    )
