"""Shared random generators for the test suite. Everything is driven by an
explicit numpy Generator so test modules stay reproducible."""

from __future__ import annotations

import math

import numpy as np

from ivstrata import (
    ClusterScenario,
    ConfigError,
    Dataset,
    DefierBounds,
    EstimateSet,
    FirstStage,
    InfeasibleError,
    JointStratum,
    MarginalSpec,
    Population,
    RankError,
    StratumEntry,
    WaldEstimate,
)

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


def reference_generate(pop: Population, n: int, seed: int) -> Dataset:
    """`generate` drawn with `Generator.choice` and out-of-place arithmetic:
    the stream layout the package's sampler must reproduce byte for byte."""
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(len(pop.entries), size=n, p=np.array([e.prob for e in pop.entries]))
    z = rng.choice(3, size=n, p=np.array(pop.assignment))
    trajectories = np.array([e.stratum.trajectory for e in pop.entries])
    means = np.array([e.means for e in pop.entries])
    sds = np.array([e.noise_sd for e in pop.entries])
    d = trajectories[idx, z]
    y = means[idx, d] + sds[idx] * rng.standard_normal(n)
    return Dataset(z=z, d=d, y=y, seed=seed)


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
