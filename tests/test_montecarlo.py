"""Deterministic sampling, the two estimators on simulated data, and the
replication harness."""

import itertools
import re
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivstrata import montecarlo, strata
from ivstrata import (
    ClusterScenario,
    ConfigError,
    Dataset,
    FirstStage,
    JointStratum,
    Population,
    RankError,
    StratumEntry,
    Target,
    cluster_wald_oracle,
    estimate_2sls,
    estimate_cluster_wald,
    first_stage_from_shares,
    generate,
    marginal_shares,
    marginalize,
    replicate,
    replication_seed,
    solve_moment_system,
)

from support import (
    FIELD_ARMS,
    cross_moment_cond,
    random_population,
    reference_2sls,
    reference_cluster_wald,
    reference_generate,
    reference_replicate,
)

J = JointStratum


def benchmark_pop(noise_sd=0.0, assignment=(1 / 3, 1 / 3, 1 / 3)):
    return Population(entries=(
        StratumEntry(J.C1C2, 0.6, (0.0, 3100.0 / 3.0, 500.0), noise_sd=noise_sd),
        StratumEntry(J.C1ID2, 0.2, (0.0, 900.0, 500.0), noise_sd=noise_sd),
        StratumEntry(J.ID1C2, 0.2, (0.0, 0.0, 500.0), noise_sd=noise_sd),
    ), assignment=assignment)


def test_generate_is_deterministic():
    pop = benchmark_pop(noise_sd=150.0)
    a = generate(pop, 5000, seed=11)
    b = generate(pop, 5000, seed=11)
    c = generate(pop, 5000, seed=12)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.d, b.d) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    assert a.n == 5000 and a.seed == 11
    est1, est2 = estimate_2sls(a), estimate_2sls(b)
    assert est1.beta1 == est2.beta1 and est1.se_beta2 == est2.se_beta2


def test_noise_sd_does_not_shift_the_assignment_stream():
    quiet = generate(benchmark_pop(noise_sd=0.0), 2000, seed=3)
    loud = generate(benchmark_pop(noise_sd=300.0), 2000, seed=3)
    assert np.array_equal(quiet.z, loud.z)
    assert np.array_equal(quiet.d, loud.d)
    assert not np.array_equal(quiet.y, loud.y)


@st.composite
def sampling_populations(draw):
    """Populations of one to ten strata whose stratum and instrument
    probabilities come from small integer weights, so that zero-probability
    strata and instrument arms are common."""
    strata = draw(st.lists(st.sampled_from(list(J)), min_size=1, max_size=10, unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(strata), max_size=len(strata)).filter(any))
    arms = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3).filter(any))
    mean, sd = st.floats(-1e3, 1e3), st.sampled_from((0.0, 0.5, 150.0))
    return Population(
        entries=tuple(
            StratumEntry(s, w / sum(weights), (draw(mean), draw(mean), draw(mean)), noise_sd=draw(sd))
            for s, w in zip(strata, weights)
        ),
        assignment=tuple(a / sum(arms) for a in arms),
    )


def assert_same_sample(got, want):
    for name in ("z", "d", "y"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


ONE_STRATUM = Population(
    entries=(StratumEntry(J.ND1AT2, 1.0, (1.0, -2.0, 3.5), noise_sd=0.5),), assignment=(0.5, 0.0, 0.5)
)


@settings(max_examples=150, deadline=None)
@given(pop=sampling_populations(), n=st.sampled_from((1, 2, 3, 2000)), seed=st.integers(0, 2**64 - 1))
@example(pop=ONE_STRATUM, n=2000, seed=0)
@example(pop=random_population(np.random.default_rng(2), noise_sd=1.0, assignment=(0.0, 0.4, 0.6)), n=3, seed=5)
def test_generate_matches_the_choice_reference_byte_for_byte(pop, n, seed):
    # The sampler maps uniforms to categories itself; Generator.choice is the
    # oracle, so a numpy that changes how choice consumes the stream fails here.
    assert_same_sample(generate(pop, n, seed), reference_generate(pop, n, seed))


def test_category_counts_a_uniform_on_an_edge_as_searchsorted_right():
    # Random draws almost never land on a cdf edge, so pin ties directly: every stratum uniform on, just below or
    # away from an edge meets every such instrument uniform, and the index is 3 * stratum + arm.
    stratum_cdf = montecarlo._cdf([0.1, 0.0, 0.2, 0.05, 0.15, 0.0, 0.1, 0.1, 0.2, 0.1])
    arm_cdf = montecarlo._cdf([0.3, 0.0, 0.7])

    def ties(cdf):
        edges = cdf[:-1]
        return np.concatenate([edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0)]])

    u, v = (a.ravel() for a in np.meshgrid(ties(stratum_cdf), ties(arm_cdf)))
    idx, hit = np.full(u.shape, 255, dtype=np.uint8), np.empty(u.shape, dtype=bool)
    want = 3 * stratum_cdf.searchsorted(u, side="right") + arm_cdf.searchsorted(v, side="right")
    assert want.max() == 29
    assert np.array_equal(montecarlo._category(u, v, stratum_cdf, arm_cdf, idx, hit), want)


def reference_table(pop, n, seed):
    return montecarlo.CellTable.from_dataset(reference_generate(pop, n, seed))


def assert_same_table(got, want):
    for name in ("count", "mean", "m2"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@settings(max_examples=60, deadline=None)
@given(
    pop=sampling_populations(),
    sizes=st.lists(st.sampled_from((1, 3, 2000)), min_size=2, max_size=2, unique=True),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=3),
)
@example(pop=ONE_STRATUM, sizes=[2000, 3], seeds=[0, 1])
def test_sampler_tables_match_the_choice_reference_across_reused_draws(pop, sizes, seeds):
    # One sampler draws every table, so a stale value left in its reused
    # arrays by an earlier seed or size would change some table's bytes.
    sampler = montecarlo._Sampler(pop)
    for n in (*sizes, sizes[0]):
        for seed in seeds:
            assert_same_table(sampler.table(n, seed), reference_table(pop, n, seed))


def test_a_drawn_dataset_and_table_share_no_array_with_later_draws():
    sampler = montecarlo._Sampler(benchmark_pop(noise_sd=150.0))
    ds = sampler.draw(500, seed=4)
    table = sampler.table(500, seed=4)
    kept = [a.copy() for a in (ds.z, ds.d, ds.y, table.count, table.mean, table.m2)]
    for seed in (5, 6):
        sampler.table(500, seed)
    sampler.draw(500, seed=7)
    for a, b in zip((ds.z, ds.d, ds.y, table.count, table.mean, table.m2), kept):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert_same_table(table, montecarlo.CellTable.from_dataset(ds))


def test_a_sampler_draws_into_disjoint_views_of_one_buffer():
    # One allocation for the five draw arrays, 26 bytes a row, lets the allocator keep its pages from one study to
    # the next. The buffer is replaced only when n changes or the block outgrows it.
    sampler = montecarlo._Sampler(benchmark_pop(noise_sd=150.0))
    buffers = []
    for n, seeds in ((500, [1]), (300, [2]), (300, [3, 4, 5]), (300, [6, 7])):
        cell, y, spare = sampler._fill(n, seeds)
        arrays = sampler._arrays(n, len(seeds))
        buffers.append(arrays[0].base)
        assert [a.dtype for a in arrays] == [np.intp, np.float64, np.float64, np.uint8, np.bool_]
        assert all(a.shape == (len(seeds), n) and a.base is buffers[-1] for a in arrays)
        assert sum(a.nbytes for a in arrays) == 26 * len(seeds) * n
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
        for drawn, a in zip((cell, spare, y), arrays):
            assert drawn.shape == a.shape and np.shares_memory(drawn, a)
    assert len({id(b) for b in buffers[:3]}) == 3 and buffers[3] is buffers[2]


def test_sample_table_is_the_table_of_generate():
    pop = benchmark_pop(noise_sd=150.0)
    assert_same_table(montecarlo.sample_table(pop, 700, 3), montecarlo.CellTable.from_dataset(generate(pop, 700, 3)))
    with pytest.raises(ConfigError, match="sample size"):
        montecarlo.sample_table(pop, 0, 3)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        montecarlo.sample_table(pop, 10, -1)


@pytest.mark.parametrize("target", list(Target))
def test_replicate_matches_the_choice_reference(target):
    # replicate draws and estimates a block of replications at a time; the
    # reference runs them one at a time. Rep counts on either side of a block
    # edge, at a size with several replications a block and at one with one.
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    scenario = ClusterScenario.control(1) if target is Target.CLUSTER_WALD else None
    for n in (2000, montecarlo._BLOCK_ROWS + 5):
        block = max(1, montecarlo._BLOCK_ROWS // n)
        for reps in sorted({max(2, r) for r in (2, block - 1, block, block + 1, 2 * block + 3)}):
            got = replicate(pop, n=n, reps=reps, master_seed=9, target=target, scenario=scenario)
            assert got == reference_replicate(pop, n, reps, 9, target, scenario), (n, reps)


RARE_FIELDS = Population(entries=(
    StratumEntry(J.NT1NT2, 0.9, (0.0, 1.0, 2.0), noise_sd=1.0),
    StratumEntry(J.C1C2, 0.1, (0.0, 1.0, 2.0), noise_sd=1.0),
))

# Each RankError text, with a study at n=12 whose first failing replication
# (not replication 0) fails with it: population, target, scenario, master seed.
FAILING = {
    "instrument z never takes": (benchmark_pop(assignment=(0.45, 0.45, 0.1)), Target.FIELD_2SLS, None, 7),
    "field d never takes": (RARE_FIELDS, Target.FIELD_2SLS, None, 90),
    "second stage: instrument-regressor": (benchmark_pop(), Target.FIELD_2SLS, None, 1),
    "instrument arm z~=1 is empty": (
        benchmark_pop(assignment=(0.45, 0.1, 0.45)), Target.CLUSTER_WALD, ClusterScenario.CONTROL_1, 8),
    "clustered Wald (control-1): instrument-regressor": (
        RARE_FIELDS, Target.CLUSTER_WALD, ClusterScenario.CONTROL_1, 31),
}


@pytest.mark.parametrize("text", list(FAILING))
def test_replicate_names_the_first_failing_replication_anywhere_in_its_block(monkeypatch, text):
    pop, target, scenario, seed = FAILING[text]
    with pytest.raises(RankError) as want:
        reference_replicate(pop, 12, 40, seed, target, scenario)
    rep = int(re.match(rf"replication (\d+) \(replication_seed \d+\): {re.escape(text)}", str(want.value))[1])
    assert rep >= 2  # so that a block of rep replications has a first and a distinct last
    # Block sizes that make it the first, a middle and the last replication of its block.
    for block, where in ((rep, "first"), (rep + 2, "middle"), (rep + 1, "last")):
        assert where == {0: "first", block - 1: "last"}.get(rep % block, "middle")
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 12 * block)
        with pytest.raises(RankError) as got:
            replicate(pop, n=12, reps=40, master_seed=seed, target=target, scenario=scenario)
        assert str(got.value) == str(want.value), where


TABLE_BODIES = {"2sls": montecarlo._2sls_from_cells} | {
    s.label: partial(montecarlo._cluster_wald_from_cells, scenario=s)
    for s in (ClusterScenario.control(1), ClusterScenario.control(2), ClusterScenario.TREATMENT)
}


@pytest.mark.parametrize("body", list(TABLE_BODIES))
def test_a_stack_of_tables_fails_exactly_when_one_of_its_tables_fails_alone(body):
    # replicate estimates a block's stacked tables and, only when that raises, each table alone to name the
    # failure. So a stack must raise if and only if one of its tables raises alone, and a stack that passes must
    # give each table the bytes it gets alone. At n = 3 to 12 a sample often misses a value or is singular.
    estimate, rng = TABLE_BODIES[body], np.random.default_rng(18)
    mixed = passed = 0  # stacks that raise with a table that passes alone; stacks that pass
    for _ in range(300):
        strata = tuple(rng.choice(list(J), size=int(rng.integers(1, 11)), replace=False))
        sampler = montecarlo._Sampler(random_population(rng, strata=strata, noise_sd=float(rng.choice([0.0, 50.0]))))
        n, seeds = int(rng.integers(3, 13)), rng.integers(2**63, size=int(rng.integers(2, 6))).tolist()
        alone = []
        for seed in seeds:
            try:
                alone.append(estimate(sampler.table(n, seed)))
            except RankError:
                alone.append(None)
        try:
            stacked = estimate(sampler.tables(n, seeds))
        except RankError:
            assert None in alone
            mixed += any(a is not None for a in alone)
            continue
        assert None not in alone
        for got, want in zip(stacked, zip(*alone)):
            assert (got.dtype, got.tobytes()) == (want[0].dtype, np.stack(want).tobytes())
        passed += 1
    assert mixed >= 50 and passed >= 30, (mixed, passed)


@pytest.mark.parametrize("target", list(Target))
def test_replicate_peak_memory_per_row(target):
    # numpy reports its buffers to tracemalloc, so the peak is a count of
    # bytes, not a timing. The sampler's reused arrays take 26 bytes a row;
    # a fresh Dataset and cell index per replication would take over 50.
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    scenario = ClusterScenario.control(1) if target is Target.CLUSTER_WALD else None
    n = 200_000
    tracemalloc.start()
    try:
        replicate(pop, n=n, reps=3, master_seed=9, target=target, scenario=scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 40


@pytest.mark.parametrize("target", list(Target))
def test_replicate_small_n_peak_memory_per_block(target):
    # At n=2,000 a block holds several replications: the study's arrays are
    # sized by the block, at most _BLOCK_ROWS rows, not by its 25 replications.
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    scenario = ClusterScenario.control(1) if target is Target.CLUSTER_WALD else None
    tracemalloc.start()
    try:
        replicate(pop, n=2000, reps=25, master_seed=9, target=target, scenario=scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= montecarlo._BLOCK_ROWS * 40


def test_generate_validation():
    with pytest.raises(ConfigError):
        generate(benchmark_pop(), 0, seed=1)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        generate(benchmark_pop(), 10, seed=-1)
    # Sizes numpy cannot describe are refused before anything is drawn or allocated.
    for n in (10**20, 2**62):
        with pytest.raises(ConfigError, match=f"sample size must be between 1 and .*, got {n}"):
            generate(benchmark_pop(), n, seed=1)
        with pytest.raises(ConfigError, match=f"sample size .* got {n}"):
            replicate(benchmark_pop(), n=n, reps=3, master_seed=0)
        with pytest.raises(ConfigError, match=f"replications must be between 2 and .*, got {n}"):
            replicate(benchmark_pop(), n=10, reps=n, master_seed=0)


def test_dataset_rejects_codes_outside_0_1_2():
    z = np.array([0, 1, 2, 1, 0, 2])
    with pytest.raises(ConfigError, match=r"field d must take codes 0, 1, 2; 2 rows hold 3"):
        Dataset(z=z, d=np.array([0, 1, 3, 3, 0, 2]), y=np.zeros(6))
    with pytest.raises(ConfigError, match=r"instrument z .* 2 rows hold -1.0, 1.5"):
        Dataset(z=np.array([0.0, 1.0, 2.0, -1.0, 1.5, 2.0]), d=z, y=np.zeros(6))
    with pytest.raises(ConfigError, match="rows hold nan"):
        Dataset(z=z, d=np.array([0.0, 1.0, np.nan, 1.0, 0.0, 2.0]), y=np.zeros(6))
    with pytest.raises(ConfigError, match="numeric codes"):
        Dataset(z=np.array(list("012120")), d=z, y=np.zeros(6))
    with pytest.raises(ConfigError, match="equal-length vectors"):
        Dataset(z=z, d=z[:5], y=np.zeros(6))
    with pytest.raises(ConfigError, match="dataset is empty"):
        Dataset(z=z[:0], d=z[:0], y=np.zeros(0))
    # Float-coded 0/1/2 input is stored as integer codes and estimates as before.
    pop = benchmark_pop(noise_sd=150.0)
    ds = generate(pop, 3000, seed=4)
    as_float = Dataset(z=ds.z.astype(float), d=ds.d.astype(float), y=ds.y, seed=ds.seed)
    assert as_float.z.dtype.kind == as_float.d.dtype.kind == "i"
    assert np.array_equal(as_float.z, ds.z) and np.array_equal(as_float.d, ds.d)
    assert estimate_2sls(as_float) == estimate_2sls(ds)


def _numbers(est) -> dict:
    """Every float of an EstimateSet or WaldEstimate, first stages flattened."""
    out = {}
    for key, value in vars(est).items():
        if isinstance(value, FirstStage):
            out.update({f"{key}.{k}": v for k, v in vars(value).items()})
        elif isinstance(value, float):
            out[key] = value
    return out


def test_cell_table_estimators_match_the_design_matrix_reference():
    rng = np.random.default_rng(2027)
    estimators = [(estimate_2sls, reference_2sls, FIELD_ARMS, "2sls")] + [
        (partial(estimate_cluster_wald, scenario=s), partial(reference_cluster_wald, scenario=s), (s.s1,), s.label)
        for s in (ClusterScenario.control(1), ClusterScenario.control(2), ClusterScenario.TREATMENT)
    ]
    pure = Population(entries=(
        StratumEntry(J.C1C2, 0.6, (0.0, 1000.0, 500.0)),
        StratumEntry(J.NT1NT2, 0.4, (0.0, 0.0, 0.0)),
    ))
    datasets = [generate(pure, 5_000, seed=5)]
    for i in range(90):
        n = int(np.exp(rng.uniform(np.log(12), np.log(50_000))))
        if i % 3 == 0:
            # All ten strata; zero-noise strata in a third of them.
            pop = random_population(rng, noise_sd=float(rng.choice([0.0, 50.0, 300.0])))
        elif i % 3 == 1:
            # One to four strata, leaving (z, d) cells empty.
            strata = tuple(rng.choice(list(J), size=int(rng.integers(1, 5)), replace=False))
            pop = random_population(rng, strata=strata, noise_sd=float(rng.choice([0.0, 100.0])))
        else:
            datasets.append(Dataset(z=rng.integers(0, 3, n), d=rng.integers(0, 3, n), y=rng.normal(0.0, 1000.0, n)))
            continue
        datasets.append(generate(pop, n, seed=int(rng.integers(2**32))))
    checked = degenerate = weak = 0
    for ds in datasets:
        y_scale = float(np.abs(ds.y).max())
        for new, ref, arms, what in estimators:
            try:
                want = _numbers(ref(ds))
            except RankError as err:
                degenerate += 1
                with pytest.raises(RankError) as got:
                    new(ds)
                assert str(got.value) == str(err), what
                continue
            got = _numbers(new(ds))
            assert got.keys() == want.keys()
            # Both paths sum the same terms in another order, so each
            # carries rounding error of order cond(Z'X) * eps * max|y|.
            # Below `dust` a value is zero to float precision (an exactly
            # fit SE). A well-conditioned design must agree to 1e-9
            # relative; a weak first stage (cond > 1e3) only to `dust`.
            cond = cross_moment_cond(ds, arms)
            dust = 1e-12 * cond * y_scale
            for key in want:
                a, b = got[key], want[key]
                close = abs(a - b) <= 1e-9 * abs(b) or (abs(a - b) if cond > 1e3 else max(abs(a), abs(b))) <= dust
                assert close, (what, ds.n, cond, key, a, b)
            checked += 1
            weak += cond > 1e3
    assert checked > 200 and degenerate > 10 and weak > 0


def test_2sls_recovers_the_exact_estimands():
    pop = benchmark_pop(noise_sd=200.0)
    beta1, beta2 = solve_moment_system(marginalize(pop))
    truth_fs = first_stage_from_shares(marginal_shares(pop))
    est = estimate_2sls(generate(pop, 200_000, seed=20260817))
    assert abs(est.beta1 - beta1) <= 4.0 * est.se_beta1
    assert abs(est.beta2 - beta2) <= 4.0 * est.se_beta2
    for name in ("a10", "a11", "a12", "a20", "a21", "a22"):
        err = abs(getattr(est.alphas, name) - getattr(truth_fs, name))
        assert err <= 4.0 * max(getattr(est.alpha_ses, name), 1e-12), name


def test_pure_cells_estimate_exactly():
    # Noiseless data from deterministic strata pins the saturated first
    # stage: coefficients whose truth is zero come out exactly zero.
    pop = Population(entries=(
        StratumEntry(J.C1C2, 0.6, (0.0, 1000.0, 500.0)),
        StratumEntry(J.NT1NT2, 0.4, (0.0, 0.0, 0.0)),
    ))
    est = estimate_2sls(generate(pop, 20_000, seed=5))
    assert est.alphas.a10 == 0.0 and est.alpha_ses.a10 == 0.0
    assert est.alphas.a12 == 0.0 and est.alphas.a21 == 0.0


def test_missing_category_raises():
    only_never = Population(entries=(StratumEntry(J.NT1NT2, 1.0, (0.0, 0.0, 0.0)),))
    with pytest.raises(RankError, match="d never takes"):
        estimate_2sls(generate(only_never, 500, seed=2))
    skewed = Population(
        entries=(StratumEntry(J.C1C2, 1.0, (0.0, 1.0, 2.0)),),
        assignment=(0.5, 0.5, 0.0),
    )
    with pytest.raises(RankError, match="z never takes"):
        estimate_2sls(generate(skewed, 500, seed=2))


def test_cluster_wald_estimator_tracks_the_pooled_oracle():
    pop = benchmark_pop(noise_sd=100.0)
    scen = ClusterScenario.control(1)
    oracle = cluster_wald_oracle(pop, scen)
    est = estimate_cluster_wald(generate(pop, 100_000, seed=8), scen)
    assert est.se > 0.0
    assert abs(est.estimate - oracle) <= 5.0 * est.se
    empty_arm = generate(
        Population(
            entries=(StratumEntry(J.C1C2, 1.0, (0.0, 1.0, 2.0)),),
            assignment=(0.5, 0.0, 0.5),
        ),
        500,
        seed=9,
    )
    with pytest.raises(RankError, match="z~=1"):
        estimate_cluster_wald(empty_arm, scen)
    with pytest.raises(ConfigError, match="no clustered estimand"):
        estimate_cluster_wald(empty_arm, ClusterScenario.NO_CLUSTERING)


def test_replication_seed_is_frozen():
    assert replication_seed(20260817, 0) == 17130989099469649835
    assert replication_seed(20260817, 1) == 296771424683685082
    assert replication_seed(20260817, 99) == 10505866732756524537
    # Per-rep seeds are order-free: rep r never depends on the rep count.
    assert replication_seed(1, 3) == replication_seed(1, 3)
    assert replication_seed(1, 3) != replication_seed(3, 1)


def test_replicate_field_2sls_summary():
    pop = benchmark_pop(noise_sd=150.0)
    summary = replicate(pop, n=5_000, reps=20, master_seed=77)
    assert summary.n == 5_000 and summary.reps == 20 and summary.target is Target.FIELD_2SLS
    params = [r.param for r in summary.rows]
    assert params == ["beta1", "beta2", "a10", "a11", "a12", "a20", "a21", "a22"]
    beta1, beta2 = solve_moment_system(marginalize(pop))
    row = summary.row("beta1")
    assert row.truth == pytest.approx(beta1, abs=1e-9)
    assert row.bias == pytest.approx(row.mean - row.truth, abs=1e-12)
    assert 0.0 <= row.coverage <= 1.0
    assert abs(row.mean - beta1) <= 5.0 * row.sd / np.sqrt(20)
    assert summary.row("beta2").truth == pytest.approx(beta2, abs=1e-9)
    with pytest.raises(KeyError):
        summary.row("gamma")


def test_replicate_cluster_wald_summary():
    pop = benchmark_pop(noise_sd=100.0)
    scen = ClusterScenario.control(1)
    summary = replicate(pop, n=5_000, reps=10, master_seed=5, target=Target.CLUSTER_WALD, scenario=scen)
    (row,) = summary.rows
    assert row.param == "wald"
    assert row.truth == pytest.approx(cluster_wald_oracle(pop, scen), abs=1e-9)
    assert abs(row.mean - row.truth) <= 6.0 * row.sd / np.sqrt(10)


def test_replicate_validation():
    pop = benchmark_pop()
    with pytest.raises(ConfigError):
        replicate(pop, n=100, reps=1, master_seed=0)
    with pytest.raises(ConfigError, match="scenario"):
        replicate(pop, n=100, reps=5, master_seed=0, target=Target.CLUSTER_WALD)


def test_largest_count_is_numpys_intp_bound():
    # strata states the bound on sample sizes and replication counts without numpy; it is numpy's own.
    assert strata._MAX_COUNT == sys.maxsize // 64 == np.iinfo(np.intp).max // 64
