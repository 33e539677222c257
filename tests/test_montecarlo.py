"""Deterministic sampling, the two estimators on simulated data, and the
replication harness."""

import hashlib
import re
import statistics
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
    reference_replicate,
    reference_tables,
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


ONE_STRATUM = Population(
    entries=(StratumEntry(J.ND1AT2, 1.0, (1.0, -2.0, 3.5), noise_sd=0.5),), assignment=(0.5, 0.0, 0.5)
)


ZERO_PROBABILITY_STRATA = Population(entries=(
    StratumEntry(J.C1C2, 0.5, (0.1, 3100.0 / 3.0, -7.0 / 3.0), noise_sd=2.0),
    StratumEntry(J.NT1NT2, 0.0, (5.0, 6.0, 7.0), noise_sd=1.0),
    StratumEntry(J.C1ID2, 0.3, (1.0 / 3.0, 2.0 / 3.0, 0.7), noise_sd=0.0),
    StratumEntry(J.AT1OT2, 0.0, (-1.0, -2.0, -3.0), noise_sd=0.0),
    StratumEntry(J.ID1C2, 0.2, (-0.3, 1.1, 2.2), noise_sd=150.0),
))

# sha256 of each drawn (z, d, y), every array's dtype string then its bytes: the stream-1 samples, recorded from the
# hand-built row sampler that generate ran before it called Generator.choice.
STREAM_1_DIGESTS = {
    "one-stratum": (ONE_STRATUM, 2000, 0, "8aaf5e31c24fc8c3b3a19e1298246e01af82b45aba720aa5d0f975db9d480ccd"),
    "ten-strata-empty-arm-0": (
        random_population(np.random.default_rng(2), noise_sd=1.0, assignment=(0.0, 0.4, 0.6)), 3, 5,
        "75d162694faa8b952e41b8dda41d68bf5f158f02ee5cd44cabb4e319961cae4b"),
    "zero-probability-strata": (
        ZERO_PROBABILITY_STRATA, 2000, 17, "1d67b37be47d99bde571279edf68c9ac16f7e6f047a8973b5716916765319fdb"),
    "empty-arm-2": (
        benchmark_pop(noise_sd=150.0, assignment=(0.5, 0.5, 0.0)), 2000, 8,
        "eee0ab3eee3e7a2c25f0f3899c2698dd1473961a22e0b3f8205b29040bbab2db"),
    "n=1": (benchmark_pop(noise_sd=150.0), 1, 1, "270c3a6f4554a742f67d70f3bf0a973c894505306294d323da7a1a5dcb18dd1a"),
    "n=3-largest-seed": (
        benchmark_pop(noise_sd=150.0), 3, 2**64 - 1,
        "e438c47810879fda7e237acf59b25856f492382765879c5d8588dbffcaccc5d9"),
    "n=2000-noiseless": (benchmark_pop(), 2000, 11, "7feca865d9119492bcab749cd84d1d2de0beaa85e289b311e7974f1954c909fb"),
    "n=200000": (
        benchmark_pop(noise_sd=150.0), 200_000, 20260817,
        "7123a5ecf7da58d755e60b06442e4773977564e5e307fd9f8e2b150131e22402"),
    "n=200000-ten-strata": (
        random_population(np.random.default_rng(8), noise_sd=40.0), 200_000, 9,
        "cc1437d1f8c9d9c29840d5850974679ed6c399ac526be311c27aa66f7f64965a"),
}


@pytest.mark.parametrize("pop, n, seed, digest", STREAM_1_DIGESTS.values(), ids=STREAM_1_DIGESTS.keys())
def test_generate_draws_the_stream_1_bytes(pop, n, seed, digest):
    # generate maps the stream through Generator.choice, so a numpy that changes how choice reads it fails here.
    ds = generate(pop, n, seed)
    h = hashlib.sha256()
    for a in (ds.z, ds.d, ds.y):
        h.update(a.dtype.str.encode() + a.tobytes())
    assert h.hexdigest() == digest


def assert_same_table(got, want):
    for name in ("count", "mean", "m2"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# Sample sizes for the table engine: tiny, moderate, and past any size a sample of rows could take in memory.
TABLE_SIZES = (1, 3, 2000, 10**12, strata._MAX_COUNT)


@settings(max_examples=60, deadline=None)
@given(
    pop=sampling_populations(),
    sizes=st.lists(st.sampled_from(TABLE_SIZES), min_size=2, max_size=2, unique=True),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=2),
    splits=st.lists(st.integers(1, 4), min_size=1, max_size=3),
)
@example(pop=ONE_STRATUM, sizes=[2000, 3], seeds=[0, 1], splits=[1, 2])
def test_sampler_tables_match_the_reference_table(pop, sizes, seeds, splits):
    # One sampler draws a study's tables in one call and split over several calls on the same streams: every table
    # must have the reference's count, mean and M2 bytes, however the calls split the study.
    sampler = montecarlo._Sampler(pop)
    reps = sum(splits)
    for n in (*sizes, sizes[0]):
        for seed in seeds:
            want = reference_tables(pop, n, seed, reps)
            streams = montecarlo._streams(seed)
            parts = [sampler.tables(n, streams, k) for k in splits]
            whole = sampler.tables(n, montecarlo._streams(seed), reps)
            got = [whole[r] for r in range(reps)] + [part[r] for part in parts for r in range(len(part.count))]
            for r, table in enumerate(got):
                assert_same_table(table, want[r % reps])


def test_a_drawn_table_shares_no_array_with_later_draws():
    sampler, streams = montecarlo._Sampler(benchmark_pop(noise_sd=150.0)), montecarlo._streams(4)
    table = sampler.tables(500, streams, 1)[0]
    kept = [a.copy() for a in (table.count, table.mean, table.m2)]
    for reps in (1, 2):
        sampler.tables(500, streams, reps)
    for a, b in zip((table.count, table.mean, table.m2), kept):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def test_sample_table_is_the_reference_table():
    # reference_tables restates the layout of stream version 3; a change to it must bump the version.
    assert montecarlo.STREAM_VERSION == 3
    pop = benchmark_pop(noise_sd=150.0)
    for n, seed in ((700, 3), (1, 0), (10**12, 2**64 - 1), (strata._MAX_COUNT, 5)):
        assert_same_table(montecarlo.sample_table(pop, n, seed), reference_tables(pop, n, seed, 1)[0])
    with pytest.raises(ConfigError, match="sample size"):
        montecarlo.sample_table(pop, 0, 3)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        montecarlo.sample_table(pop, 10, -1)


def mixed_noise_pop(noise_sd):
    # Cell (2, 1) holds only the noiseless C1ID2 and cell (1, 2) only ID1C2; the means are not multiples of a
    # power of two, so a mean formed as sum / count would often miss them by an ulp.
    return Population(entries=(
        StratumEntry(J.C1C2, 0.5, (0.1, 3100.0 / 3.0, -7.0 / 3.0), noise_sd=noise_sd),
        StratumEntry(J.C1ID2, 0.3, (1.0 / 3.0, 2.0 / 3.0, 0.7), noise_sd=0.0),
        StratumEntry(J.ID1C2, 0.2, (-0.3, 1.1, 1e100 / 3.0), noise_sd=noise_sd),
    ))


@pytest.mark.parametrize("noise_sd", [1e-3, 150.0, strata.MAX_MAGNITUDE])
def test_table_counts_do_not_depend_on_noise_and_noiseless_cells_are_exact(noise_sd):
    # The counts are the first block of a table's stream, so every noise level draws the counts it draws without
    # noise. A cell that holds one noiseless stratum has that stratum's mean exactly and M2 exactly 0, whatever n.
    quiet, loud = mixed_noise_pop(0.0), mixed_noise_pop(noise_sd)
    moved = 0
    for n in TABLE_SIZES:
        for seed in range(20):
            base, table = montecarlo.sample_table(quiet, n, seed), montecarlo.sample_table(loud, n, seed)
            assert table.count.tobytes() == base.count.tobytes()
            moved += not np.array_equal(table.mean, base.mean)
            for t, cells in ((base, {(2, 1): 2.0 / 3.0, (1, 2): 1e100 / 3.0}), (table, {(2, 1): 2.0 / 3.0})):
                for (z, d), mu in cells.items():
                    if t.count[z, d] > 0:
                        assert (t.mean[z, d], t.m2[z, d]) == (mu, 0.0), (n, seed, z, d)
    assert moved >= 90  # the noise reaches the means of every table whose noisy cells are not all empty


@pytest.mark.parametrize("target", list(Target))
def test_replicate_matches_the_reference_table(monkeypatch, target):
    # replicate draws and estimates a block of replications at a time; the
    # reference runs them one at a time. Rep counts on either side of a block
    # edge, at the real block size and at a small one, and at sizes no
    # sample of rows could take.
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    scenario = ClusterScenario.control(1) if target is Target.CLUSTER_WALD else None
    block = montecarlo._BLOCK_REPS
    for reps in (block - 1, block + 1):
        got = replicate(pop, n=2000, reps=reps, master_seed=9, scenario=scenario)
        assert got == reference_replicate(pop, 2000, reps, 9, scenario), reps
    monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 5)
    for n in (2000, 10**12, strata._MAX_COUNT):
        for reps in (2, 4, 5, 6, 13):
            got = replicate(pop, n=n, reps=reps, master_seed=9, scenario=scenario)
            assert got == reference_replicate(pop, n, reps, 9, scenario), (n, reps)


@pytest.mark.parametrize("target", list(Target))
def test_the_block_size_changes_no_summary(monkeypatch, target):
    # The study's streams are read in replication order, so one replication a block, five and the real 1,024
    # give the same bytes, for studies shorter and longer than a block.
    pop = random_population(np.random.default_rng(3), noise_sd=25.0)
    scenario = ClusterScenario.control(2) if target is Target.CLUSTER_WALD else None
    for reps in (2, 13, 1100):
        summaries = []
        for block in (1, 5, 1024):
            monkeypatch.setattr(montecarlo, "_BLOCK_REPS", block)
            summaries.append(replicate(pop, n=500, reps=reps, master_seed=4, scenario=scenario))
        assert summaries[0] == summaries[1] == summaries[2], reps


def test_a_study_draws_the_first_tables_of_any_longer_study(monkeypatch):
    # Adding replications never changes earlier ones: a 13-replication study's tables are the first 13 of a
    # 40-replication study's, whatever blocks either draws them in.
    pop, drawn = random_population(np.random.default_rng(5), noise_sd=10.0), []
    tables = montecarlo._Sampler.tables

    def record(*args):
        drawn.append(tables(*args))
        return drawn[-1]

    monkeypatch.setattr(montecarlo._Sampler, "tables", record)

    def study(reps, block):
        drawn.clear()
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", block)
        replicate(pop, n=300, reps=reps, master_seed=11)
        return [np.concatenate([getattr(t, name) for t in drawn]) for name in ("count", "mean", "m2")]

    short = study(13, 4)
    for long in (study(40, 1024), study(40, 7)):
        for a, b in zip(short, long):
            assert a.tobytes() == b[:13].tobytes()


RARE_FIELDS = Population(entries=(
    StratumEntry(J.NT1NT2, 0.9, (0.0, 1.0, 2.0), noise_sd=1.0),
    StratumEntry(J.C1C2, 0.1, (0.0, 1.0, 2.0), noise_sd=1.0),
))

# Each RankError text, with a study at n=12 whose first failing replication
# (not replication 0) fails with it: population, scenario (None for field 2SLS), master seed.
FAILING = {
    "instrument z never takes": (benchmark_pop(assignment=(0.45, 0.45, 0.1)), None, 0),
    "field d never takes": (RARE_FIELDS, None, 15),
    "second stage: instrument-regressor": (benchmark_pop(), None, 7),
    "instrument arm z~=1 is empty": (benchmark_pop(assignment=(0.45, 0.1, 0.45)), ClusterScenario.CONTROL_1, 4),
    "clustered Wald (control-1): instrument-regressor": (RARE_FIELDS, ClusterScenario.CONTROL_1, 15),
}


@pytest.mark.parametrize("text", list(FAILING))
def test_replicate_names_the_first_failing_replication_anywhere_in_its_block(monkeypatch, text):
    pop, scenario, seed = FAILING[text]
    with pytest.raises(RankError) as want:
        reference_replicate(pop, 12, 40, seed, scenario)
    rep = int(re.match(rf"replication (\d+): {re.escape(text)}", str(want.value))[1])
    assert rep >= 2  # so that a block of rep replications has a first and a distinct last
    # Block sizes that make it the first, a middle and the last replication of its block.
    for block, where in ((rep, "first"), (rep + 2, "middle"), (rep + 1, "last")):
        assert where == {0: "first", block - 1: "last"}.get(rep % block, "middle")
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", block)
        with pytest.raises(RankError) as got:
            replicate(pop, n=12, reps=40, master_seed=seed, scenario=scenario)
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
        n, reps = int(rng.integers(3, 13)), int(rng.integers(2, 6))
        tables = sampler.tables(n, montecarlo._streams(int(rng.integers(2**63))), reps)
        alone = []
        for rep in range(reps):
            try:
                alone.append(estimate(tables[rep]))
            except RankError:
                alone.append(None)
        try:
            stacked = estimate(tables)
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
    # bytes, not a timing. replicate draws cell tables, never rows: its peak
    # is about 20 kB at this n. The bound fails any path that holds a drawn
    # sample, as `generate` alone peaks at 48 bytes a row.
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    scenario = ClusterScenario.control(1) if target is Target.CLUSTER_WALD else None
    n = 200_000
    tracemalloc.start()
    try:
        replicate(pop, n=n, reps=3, master_seed=9, scenario=scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 40


@pytest.mark.parametrize("target", list(Target))
def test_replicate_small_n_peak_memory_per_block(target):
    # At n=2,000 a block holds several replications: the study's arrays are
    # sized by the block, not by its 25 replications. The bound is the 2**14
    # rows of 40 bytes that a block took when replications drew rows.
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    scenario = ClusterScenario.control(1) if target is Target.CLUSTER_WALD else None
    tracemalloc.start()
    try:
        replicate(pop, n=2000, reps=25, master_seed=9, scenario=scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**14 * 40


def test_merging_exact_group_summaries_gives_the_table_of_the_sample():
    # Label each row of a microdata sample with its group (stratum, z), summarise every group exactly, merge the
    # summaries: the result is the sample's own cell table. Counts are exact; a mean agrees within 1e-12 of the
    # largest |y| in its cell and an M2 within 1e-12 of itself plus count * that magnitude squared, the rounding
    # of the direct two-pass sums.
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        strata_drawn = tuple(rng.choice(list(J), size=int(rng.integers(1, 11)), replace=False))
        pop = random_population(rng, strata=strata_drawn, noise_sd=float(rng.choice([0.0, 1e-3, 1.0, 150.0])))
        n = int(rng.integers(1, 5000))
        stratum = rng.choice(len(pop.entries), size=n, p=[e.prob for e in pop.entries])
        z = rng.choice(3, size=n, p=pop.assignment)
        traj = np.array([e.stratum.trajectory for e in pop.entries])
        d = traj[stratum, z]
        y = np.array([e.means for e in pop.entries])[stratum, d]
        y += np.array([e.noise_sd for e in pop.entries])[stratum] * rng.standard_normal(n)
        group, groups = 3 * stratum + z, 3 * len(pop.entries)
        count = np.bincount(group, minlength=groups)
        mean = np.bincount(group, weights=y, minlength=groups) / np.maximum(count, 1)
        m2 = np.bincount(group, weights=(y - mean[group]) ** 2, minlength=groups)
        cell = (3 * np.arange(3) + traj).ravel()  # group 3 * stratum + z lies in cell row 3 * z + d
        got = montecarlo.CellTable.from_groups(cell, count, mean, m2)
        want = montecarlo.CellTable.from_dataset(Dataset(z=z, d=d, y=y))
        assert np.array_equal(got.count, want.count)
        scale = np.zeros(9)
        np.maximum.at(scale, 3 * z + d, np.abs(y))
        scale = scale.reshape(3, 3)
        assert np.all(np.abs(got.mean - want.mean) <= 1e-12 * scale)
        assert np.all(np.abs(got.m2 - want.m2) <= 1e-12 * (want.m2 + want.count * scale**2))
        checked += 1
    assert checked == 60


# Populations for the distribution test: noisy strata, a noiseless stratum among noisy ones, noiseless strata
# only (so only the counts vary), and all ten strata.
DISTRIBUTION_POPS = {
    "benchmark": benchmark_pop(noise_sd=150.0),
    "mixed_noise": mixed_noise_pop(40.0),
    "noiseless": benchmark_pop(),
    "all_ten": random_population(np.random.default_rng(5), noise_sd=50.0),
}


def test_table_engine_matches_the_microdata_path_in_distribution():
    # For each population, 800 replications at n = 2,000 through the table engine and 800 through generate and
    # estimate_2sls / estimate_cluster_wald (control-1) give each estimate and each standard error. Per quantity
    # two z-tests, of equal means and of equal spread (Brown-Forsythe: mean absolute deviation from the median),
    # each against its Welch standard error. A quantity that is constant in both (a structurally zero
    # coefficient and its zero SE) must be the same constant. Bonferroni over all tests gives family-wise size
    # 0.01 for a correct engine; the seeds are fixed, so the outcome is too.
    reps, n = 800, 2000
    scenario = ClusterScenario.control(1)
    zs, constant = [], 0
    for pop in DISTRIBUTION_POPS.values():
        sampler = montecarlo._Sampler(pop)
        tables = sampler.tables(n, montecarlo._streams(1), reps)
        engine = np.hstack([np.hstack(montecarlo._2sls_from_cells(tables)),
                            np.hstack(montecarlo._cluster_wald_from_cells(tables, scenario))])
        rows = []
        for r in range(reps):
            ds = generate(pop, n, replication_seed(2, r))
            est, wald = estimate_2sls(ds), estimate_cluster_wald(ds, scenario)
            rows.append([est.beta1, est.beta2, *vars(est.alphas).values(),
                         est.se_beta1, est.se_beta2, *vars(est.alpha_ses).values(), wald.estimate, wald.se])
        micro = np.array(rows)
        for a, b in zip(engine.T, micro.T):
            if a.min() == a.max() and b.min() == b.max():
                assert a[0] == pytest.approx(b[0], rel=1e-12, abs=1e-12)
                constant += 1
                continue
            da, db = np.abs(a - np.median(a)), np.abs(b - np.median(b))
            for x, w in ((a, b), (da, db)):
                zs.append((x.mean() - w.mean()) / np.sqrt((x.var(ddof=1) + w.var(ddof=1)) / reps))
    zs = np.array(zs)
    crit = statistics.NormalDist().inv_cdf(1 - 0.01 / (2 * zs.size))
    assert (zs.size, constant) == (120, 12)
    assert np.abs(zs).max() <= crit, (np.abs(zs).max(), crit)


def replicate_peak(n, target):
    """The tracemalloc peak of a 25-replication study, after a first study has filled the estimators' caches."""
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    scenario = ClusterScenario.control(1) if target is Target.CLUSTER_WALD else None
    replicate(pop, n=n, reps=25, master_seed=9, scenario=scenario)
    tracemalloc.start()
    try:
        replicate(pop, n=n, reps=25, master_seed=9, scenario=scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("target", list(Target))
def test_replicate_peak_memory_does_not_grow_with_n(target):
    # A replication draws its group summaries, never its rows, so a study at n = 10**12 takes no more memory
    # than one at n = 2,000 (about 70 kB), where rows would take terabytes. The peak of two identical studies
    # differs by up to a few hundred bytes of the interpreter's own, hence the 2% allowance.
    assert replicate_peak(10**12, target) <= 1.02 * replicate_peak(2000, target)


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


def test_dataset_rejects_an_outcome_that_is_not_finite_and_real():
    z = np.array([0, 1, 2, 1, 0, 2])
    with pytest.raises(ConfigError, match=r"outcome y must be finite; 1 rows hold nan$"):
        Dataset(z=z, d=z, y=np.array([0.0, 1.0, np.nan, 2.0, 0.5, 1.0]))
    with pytest.raises(ConfigError, match=r"outcome y must be finite; 4 rows hold -inf, inf, nan$"):
        Dataset(z=z, d=z, y=np.array([np.inf, 1.0, -np.inf, np.nan, 0.5, np.inf]))
    with pytest.raises(ConfigError, match=r"outcome y must hold real numbers, got dtype <U3$"):
        Dataset(z=z, d=z, y=np.array(["0.5", "1", "2", "3", "4", "5"]))


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
    summary = replicate(pop, n=5_000, reps=10, master_seed=5, scenario=scen)
    (row,) = summary.rows
    assert row.param == "wald" and summary.target is Target.CLUSTER_WALD
    assert row.truth == pytest.approx(cluster_wald_oracle(pop, scen), abs=1e-9)
    assert abs(row.mean - row.truth) <= 6.0 * row.sd / np.sqrt(10)


def test_replicate_validation():
    pop = benchmark_pop()
    with pytest.raises(ConfigError):
        replicate(pop, n=100, reps=1, master_seed=0)
    # A scenario picks the clustered Wald target, so one without a clustered estimand is refused.
    for scenario in (ClusterScenario.NO_CLUSTERING, ClusterScenario.UNDEFINED):
        with pytest.raises(ConfigError, match=f"no clustered estimand under scenario '{scenario.label}'"):
            replicate(pop, n=100, reps=5, master_seed=0, scenario=scenario)


def test_largest_count_is_numpys_intp_bound():
    # strata states the bound on sample sizes and replication counts without numpy; it is numpy's own.
    assert strata._MAX_COUNT == sys.maxsize // 64 == np.iinfo(np.intp).max // 64
