"""Deterministic sampling, the two estimators on simulated data, and the
replication harness."""

import hashlib
import re
import statistics
import sys
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivstrata import montecarlo, strata
from ivstrata.cli import Target
from ivstrata import (
    CellTable,
    ClusterScenario,
    ConfigError,
    JointStratum,
    Population,
    RankError,
    StratumEntry,
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
    exact_iv_hc0,
    random_population,
    reference_2sls,
    reference_cluster_wald,
    reference_replicate,
    reference_tables,
)

J = JointStratum

# replicate's two targets, as the scenario picks them: field 2SLS without one, the clustered Wald ratio with one.
# Tests over both are named by the `simulate --target` choice of each.
TARGET_IDS = [str(target) for target in Target]
PARAMS = montecarlo.PARAMS_2SLS


def generated_table(pop, n, seed):
    """The cell table of the rows `generate` draws."""
    return CellTable.from_codes(*generate(pop, n, seed))


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
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert not np.array_equal(a[2], c[2])
    assert [u.shape for u in a] == [(5000,)] * 3
    est1, est2 = estimate_2sls(CellTable.from_codes(*a)), estimate_2sls(CellTable.from_codes(*b))
    assert all(np.array_equal(u, v) for u, v in zip(est1, est2))


def test_noise_sd_does_not_shift_the_assignment_stream():
    quiet = generate(benchmark_pop(noise_sd=0.0), 2000, seed=3)
    loud = generate(benchmark_pop(noise_sd=300.0), 2000, seed=3)
    assert np.array_equal(quiet[0], loud[0])
    assert np.array_equal(quiet[1], loud[1])
    assert not np.array_equal(quiet[2], loud[2])


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
    h = hashlib.sha256()
    for a in generate(pop, n, seed):
        h.update(a.dtype.str.encode() + a.tobytes())
    assert h.hexdigest() == digest


def assert_same_table(got, want):
    for name in ("count", "mean", "m2"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# Sample sizes for the table engine: tiny, moderate, and past any size a sample of rows could take in memory.
TABLE_SIZES = (1, 3, 2000, 10**12, strata._MAX_COUNT)


def drawn_tables(pop, n, seed, reps, block):
    """The tables of the `reps`-replication study at `seed`, one by one, drawn in blocks of at most `block`."""
    with mock.patch.object(montecarlo, "_BLOCK_REPS", block):
        return [tables[r] for tables in montecarlo._draws(pop, n, seed, reps) for r in range(len(tables.count))]


@settings(max_examples=60, deadline=None)
@given(
    pop=sampling_populations(),
    sizes=st.lists(st.sampled_from(TABLE_SIZES), min_size=2, max_size=2, unique=True),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=2),
    reps=st.integers(1, 12),
    blocks=st.lists(st.integers(1, 4), min_size=1, max_size=2),
)
@example(pop=ONE_STRATUM, sizes=[2000, 3], seeds=[0, 1], reps=3, blocks=[1, 2])
def test_sampler_tables_match_the_reference_table(pop, sizes, seeds, reps, blocks):
    # A study's tables, drawn in one block and in blocks of one to four: every table must have the reference's
    # count, mean and M2 bytes, whatever the block size.
    for n in sizes:
        for seed in seeds:
            want = reference_tables(pop, n, seed, reps)
            for block in (montecarlo._BLOCK_REPS, *blocks):
                got = drawn_tables(pop, n, seed, reps, block)
                assert len(got) == reps
                for table, ref in zip(got, want):
                    assert_same_table(table, ref)


def test_a_drawn_table_shares_no_array_with_later_draws(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 2)
    blocks = montecarlo._draws(benchmark_pop(noise_sd=150.0), 500, 4, 5)
    table = next(blocks)[0]
    kept = [a.copy() for a in (table.count, table.mean, table.m2)]
    assert [len(later.count) for later in blocks] == [2, 1]
    for a, b in zip((table.count, table.mean, table.m2), kept):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def test_sample_table_is_the_reference_table():
    # reference_tables restates the layout of stream version 3; a change to it must bump the version.
    assert montecarlo.STREAM_VERSION == 3
    pop = benchmark_pop(noise_sd=150.0)
    # A seed is hashed into the streams, so any integer draws a table; a negative one is table 0 of its study too.
    for n, seed in ((700, 3), (1, 0), (10**12, 2**64 - 1), (strata._MAX_COUNT, 5), (500, -3)):
        assert_same_table(montecarlo.sample_table(pop, n, seed), reference_tables(pop, n, seed, 1)[0])
    with pytest.raises(ConfigError, match="sample size"):
        montecarlo.sample_table(pop, 0, 3)


def test_cluster_wald_sums_counts_past_2_53_in_a_fixed_order():
    # Past 2^53 a count is a rounded float, so the order in which estimate_cluster_wald sums an arm pair's counts
    # is part of its bytes: summing them as hot @ count @ hot.T instead prints other digits at this seed.
    table = montecarlo.sample_table(benchmark_pop(noise_sd=150.0), strata._MAX_COUNT, 28)
    est, se = estimate_cluster_wald(table, ClusterScenario.TREATMENT)
    assert (est.tolist(), se.tolist()) == ([739.9999992599855], [1.1507770849990048e-06])


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


@pytest.mark.parametrize("scenario", [None, ClusterScenario.CONTROL_1], ids=TARGET_IDS)
def test_replicate_matches_the_reference_table(monkeypatch, scenario):
    # replicate draws and estimates a block of replications at a time; the
    # reference runs them one at a time. Rep counts on either side of a block
    # edge, at the real block size and at a small one, and at sizes no
    # sample of rows could take.
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    block = montecarlo._BLOCK_REPS
    for reps in (block - 1, block + 1):
        got = replicate(pop, n=2000, reps=reps, master_seed=9, scenario=scenario)
        assert got == reference_replicate(pop, 2000, reps, 9, scenario), reps
    monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 5)
    for n in (2000, 10**12, strata._MAX_COUNT):
        for reps in (2, 4, 5, 6, 13):
            got = replicate(pop, n=n, reps=reps, master_seed=9, scenario=scenario)
            assert got == reference_replicate(pop, n, reps, 9, scenario), (n, reps)


@pytest.mark.parametrize("scenario", [None, ClusterScenario.CONTROL_2], ids=TARGET_IDS)
def test_the_block_size_changes_no_summary(monkeypatch, scenario):
    # The study's streams are read in replication order, so one replication a block, five and the real 1,024
    # give the same bytes, for studies shorter and longer than a block.
    pop = random_population(np.random.default_rng(3), noise_sd=25.0)
    for reps in (2, 13, 1100):
        summaries = []
        for block in (1, 5, 1024):
            monkeypatch.setattr(montecarlo, "_BLOCK_REPS", block)
            summaries.append(replicate(pop, n=500, reps=reps, master_seed=4, scenario=scenario))
        assert summaries[0] == summaries[1] == summaries[2], reps


def test_a_study_seeds_its_three_streams_once(monkeypatch):
    # One seed hash for each of the three streams, however many blocks the study draws.
    seeds = []
    monkeypatch.setattr(montecarlo, "replication_seed", lambda s, j: seeds.append((s, j)) or replication_seed(s, j))
    monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 5)
    replicate(benchmark_pop(noise_sd=1.0), n=50, reps=13, master_seed=8)
    assert seeds == [(8, 0), (8, 1), (8, 2)]


def test_a_study_draws_the_first_tables_of_any_longer_study(monkeypatch):
    # Adding replications never changes earlier ones: a 13-replication study's tables are the first 13 of a
    # 40-replication study's, whatever blocks either draws them in.
    pop, drawn = random_population(np.random.default_rng(5), noise_sd=10.0), []
    draws = montecarlo._draws

    def record(*args):
        for tables in draws(*args):
            drawn.append(tables)
            yield tables

    monkeypatch.setattr(montecarlo, "_draws", record)

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
    "instrument arm z~=0 is empty": (benchmark_pop(assignment=(0.05, 0.9, 0.05)), ClusterScenario.CONTROL_1, 0),
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


TABLE_BODIES = {"2sls": estimate_2sls} | {
    s.label: partial(estimate_cluster_wald, scenario=s)
    for s in (ClusterScenario.CONTROL_1, ClusterScenario.CONTROL_2, ClusterScenario.TREATMENT)
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
        pop = random_population(rng, strata=strata, noise_sd=float(rng.choice([0.0, 50.0])))
        n, reps = int(rng.integers(3, 13)), int(rng.integers(2, 6))
        tables = next(montecarlo._draws(pop, n, int(rng.integers(2**63)), reps))
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


@pytest.mark.parametrize("scenario", [None, ClusterScenario.CONTROL_1], ids=TARGET_IDS)
def test_replicate_peak_memory_per_row(scenario):
    # numpy reports its buffers to tracemalloc, so the peak is a count of
    # bytes, not a timing. replicate draws cell tables, never rows: its peak
    # is about 20 kB at this n. The bound fails any path that holds a drawn
    # sample, as `generate` alone peaks at 48 bytes a row.
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    n = 200_000
    tracemalloc.start()
    try:
        replicate(pop, n=n, reps=3, master_seed=9, scenario=scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 40


@pytest.mark.parametrize("scenario", [None, ClusterScenario.CONTROL_1], ids=TARGET_IDS)
def test_replicate_small_n_peak_memory_per_block(scenario):
    # At n=2,000 a block holds several replications: the study's arrays are
    # sized by the block, not by its 25 replications. The bound is the 2**14
    # rows of 40 bytes that a block took when replications drew rows.
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
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
        want = CellTable.from_codes(z, d, y)
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
    scenario = ClusterScenario.CONTROL_1
    zs, constant = [], 0
    for pop in DISTRIBUTION_POPS.values():
        tables = next(montecarlo._draws(pop, n, 1, reps))  # reps < _BLOCK_REPS: one block
        engine = np.hstack([*estimate_2sls(tables), *estimate_cluster_wald(tables, scenario)])
        rows = []
        for r in range(reps):
            table = generated_table(pop, n, replication_seed(2, r))
            rows.append(np.hstack([*estimate_2sls(table), *estimate_cluster_wald(table, scenario)]))
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


def replicate_peak(n, scenario):
    """The tracemalloc peak of a 25-replication study, after a first study has filled the estimators' caches."""
    pop = random_population(np.random.default_rng(8), noise_sd=40.0)
    replicate(pop, n=n, reps=25, master_seed=9, scenario=scenario)
    tracemalloc.start()
    try:
        replicate(pop, n=n, reps=25, master_seed=9, scenario=scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scenario", [None, ClusterScenario.CONTROL_1], ids=TARGET_IDS)
def test_replicate_peak_memory_does_not_grow_with_n(scenario):
    # A replication draws its group summaries, never its rows, so a study at n = 10**12 takes no more memory
    # than one at n = 2,000 (about 70 kB), where rows would take terabytes. The peak of two identical studies
    # differs by up to a few hundred bytes of the interpreter's own, hence the 2% allowance.
    assert replicate_peak(10**12, scenario) <= 1.02 * replicate_peak(2000, scenario)


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


def test_from_codes_rejects_codes_outside_0_1_2():
    z = np.array([0, 1, 2, 1, 0, 2])
    with pytest.raises(ConfigError, match=r"field d must take codes 0, 1, 2; 2 rows hold 3"):
        CellTable.from_codes(z, np.array([0, 1, 3, 3, 0, 2]), np.zeros(6))
    with pytest.raises(ConfigError, match=r"instrument z .* 2 rows hold -1.0, 1.5"):
        CellTable.from_codes(np.array([0.0, 1.0, 2.0, -1.0, 1.5, 2.0]), z, np.zeros(6))
    with pytest.raises(ConfigError, match="rows hold nan"):
        CellTable.from_codes(z, np.array([0.0, 1.0, np.nan, 1.0, 0.0, 2.0]), np.zeros(6))
    # Integer codes below 0 and float codes between 0 and 2 that are not whole are refused too.
    with pytest.raises(ConfigError, match=r"instrument z must take codes 0, 1, 2; 1 rows hold -1$"):
        CellTable.from_codes(np.array([0, 1, 2, -1, 1, 2]), z, np.zeros(6))
    with pytest.raises(ConfigError, match=r"field d must take codes 0, 1, 2; 2 rows hold 0.5, 1.5$"):
        CellTable.from_codes(z, np.array([0.0, 0.5, 2.0, 1.5, 0.0, 2.0]), np.zeros(6))
    # The message lists at most five distinct values.
    for bad, shown in ((np.arange(3, 8), "3, 4, 5, 6, 7"), (np.arange(3, 10), "3, 4, 5, 6, 7, ...")):
        with pytest.raises(ConfigError, match=rf"{bad.size} rows hold {re.escape(shown)}$"):
            CellTable.from_codes(bad, np.zeros(bad.size, int), np.zeros(bad.size))
    with pytest.raises(ConfigError, match="numeric codes"):
        CellTable.from_codes(np.array(list("012120")), z, np.zeros(6))
    with pytest.raises(ConfigError, match="equal-length vectors"):
        CellTable.from_codes(z, z[:5], np.zeros(6))
    with pytest.raises(ConfigError, match="dataset is empty"):
        CellTable.from_codes(z[:0], z[:0], np.zeros(0))
    # Float-coded 0/1/2 input reads as integer codes: the same table, byte for byte, and the same estimates.
    pop = benchmark_pop(noise_sd=150.0)
    z, d, y = generate(pop, 3000, seed=4)
    as_float, as_int = CellTable.from_codes(z.astype(float), d.astype(float), y), CellTable.from_codes(z, d, y)
    assert_same_table(as_float, as_int)
    assert all(np.array_equal(u, v) for u, v in zip(estimate_2sls(as_float), estimate_2sls(as_int)))


def test_from_codes_rejects_an_outcome_that_is_not_finite_and_real():
    z = np.array([0, 1, 2, 1, 0, 2])
    with pytest.raises(ConfigError, match=r"outcome y must be finite; 1 rows hold nan$"):
        CellTable.from_codes(z, z, np.array([0.0, 1.0, np.nan, 2.0, 0.5, 1.0]))
    with pytest.raises(ConfigError, match=r"outcome y must be finite; 4 rows hold -inf, inf, nan$"):
        CellTable.from_codes(z, z, np.array([np.inf, 1.0, -np.inf, np.nan, 0.5, np.inf]))
    with pytest.raises(ConfigError, match=r"outcome y must hold real numbers, got dtype <U3$"):
        CellTable.from_codes(z, z, np.array(["0.5", "1", "2", "3", "4", "5"]))


def test_from_codes_rejects_an_outcome_beyond_the_magnitude_bound():
    # An outcome of 1e200 is finite, but its square in a cell's M2 overflows to inf; the bound on population means
    # bounds a sample's outcomes too. At the bound itself a sample of 100,000 rows estimates without a warning.
    z = np.array([0, 1, 2, 1, 0, 2])
    too_big = r"outcome y must not exceed 1e\+100 in magnitude; 2 rows hold -1e\+200, 1e\+101$"
    with pytest.raises(ConfigError, match=too_big):
        CellTable.from_codes(z, z, np.array([0.0, 1e101, 2.0, -1e200, 0.5, 1.0]))
    rng = np.random.default_rng(3)
    n = 100_000
    z, d = rng.integers(0, 3, n), rng.integers(0, 3, n)
    y = rng.choice([-strata.MAX_MAGNITUDE, strata.MAX_MAGNITUDE], n)
    est, se = estimate_2sls(CellTable.from_codes(z, d, y))
    assert np.isfinite(est).all() and np.isfinite(se).all() and (se[:2] > 0).all()
    wald, wald_se = estimate_cluster_wald(CellTable.from_codes(z, d, y), ClusterScenario.TREATMENT)
    assert np.isfinite(wald).all() and np.isfinite(wald_se).all()


def test_cell_table_estimators_match_the_design_matrix_reference():
    rng = np.random.default_rng(2027)
    estimators = [(estimate_2sls, reference_2sls, FIELD_ARMS, "2sls", PARAMS)] + [
        (partial(estimate_cluster_wald, scenario=s), partial(reference_cluster_wald, scenario=s), (s.s1,), s.label,
         ("wald",))
        for s in (ClusterScenario.CONTROL_1, ClusterScenario.CONTROL_2, ClusterScenario.TREATMENT)
    ]
    pure = Population(entries=(
        StratumEntry(J.C1C2, 0.6, (0.0, 1000.0, 500.0)),
        StratumEntry(J.NT1NT2, 0.4, (0.0, 0.0, 0.0)),
    ))
    samples = [generate(pure, 5_000, seed=5)]
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
            samples.append((rng.integers(0, 3, n), rng.integers(0, 3, n), rng.normal(0.0, 1000.0, n)))
            continue
        samples.append(generate(pop, n, seed=int(rng.integers(2**32))))
    checked = degenerate = weak = 0
    for z, d, y in samples:
        table, y_scale = CellTable.from_codes(z, d, y), float(np.abs(y).max())
        for new, ref, arms, what, params in estimators:
            try:
                want = np.concatenate(ref(z, d, y))
            except RankError as err:
                degenerate += 1
                with pytest.raises(RankError) as got:
                    new(table)
                assert str(got.value) == str(err), what
                continue
            got = np.concatenate(new(table))
            assert got.shape == want.shape == (2 * len(params),)
            # Both paths sum the same terms in another order, so each
            # carries rounding error of order cond(Z'X) * eps * max|y|.
            # Below `dust` a value is zero to float precision (an exactly
            # fit SE). A well-conditioned design must agree to 1e-9
            # relative; a weak first stage (cond > 1e3) only to `dust`.
            cond = cross_moment_cond(z, d, arms)
            dust = 1e-12 * cond * y_scale
            for key, a, b in zip([*params, *(f"se {p}" for p in params)], got, want):
                close = abs(a - b) <= 1e-9 * abs(b) or (abs(a - b) if cond > 1e3 else max(abs(a), abs(b))) <= dust
                assert close, (what, z.size, cond, key, a, b)
            checked += 1
            weak += cond > 1e3
    assert checked > 200 and degenerate > 10 and weak > 0


def test_2sls_recovers_the_exact_estimands():
    pop = benchmark_pop(noise_sd=200.0)
    beta1, beta2 = solve_moment_system(marginalize(pop))
    truth_fs = first_stage_from_shares(marginal_shares(pop))
    est, se = estimate_2sls(generated_table(pop, 200_000, seed=20260817))
    assert abs(est[0] - beta1) <= 4.0 * se[0]
    assert abs(est[1] - beta2) <= 4.0 * se[1]
    for j, name in enumerate(PARAMS[2:], 2):
        err = abs(est[j] - getattr(truth_fs, name))
        assert err <= 4.0 * max(se[j], 1e-12), name


def test_pure_cells_estimate_exactly():
    # Noiseless data from deterministic strata pins the saturated first
    # stage: coefficients whose truth is zero come out exactly zero.
    pop = Population(entries=(
        StratumEntry(J.C1C2, 0.6, (0.0, 1000.0, 500.0)),
        StratumEntry(J.NT1NT2, 0.4, (0.0, 0.0, 0.0)),
    ))
    est, se = estimate_2sls(generated_table(pop, 20_000, seed=5))
    a10, a12, a21 = (PARAMS.index(name) for name in ("a10", "a12", "a21"))
    assert est[a10] == 0.0 and se[a10] == 0.0
    assert est[a12] == 0.0 and est[a21] == 0.0


def test_missing_category_raises():
    only_never = Population(entries=(StratumEntry(J.NT1NT2, 1.0, (0.0, 0.0, 0.0)),))
    with pytest.raises(RankError, match="d never takes"):
        estimate_2sls(generated_table(only_never, 500, seed=2))
    skewed = Population(
        entries=(StratumEntry(J.C1C2, 1.0, (0.0, 1.0, 2.0)),),
        assignment=(0.5, 0.5, 0.0),
    )
    with pytest.raises(RankError, match="z never takes"):
        estimate_2sls(generated_table(skewed, 500, seed=2))


def test_a_table_missing_an_instrument_and_a_field_value_names_the_instrument():
    # z is checked before d: a table where z never takes 2 and d never takes 1 raises the instrument's text,
    # alone and in a stack with a well-formed table on either side.
    bad = CellTable(np.array([[4.0, 0.0, 3.0], [2.0, 0.0, 5.0], [0.0, 0.0, 0.0]]), np.ones((3, 3)), np.zeros((3, 3)))
    good = CellTable(np.array([[3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 3.0]]), np.ones((3, 3)), np.ones((3, 3)))
    estimate_2sls(good)
    want = "instrument z never takes value [2] in this sample"
    stacked = [CellTable(*(np.stack([getattr(t, k) for t in pair]) for k in ("count", "mean", "m2")))
               for pair in ((good, bad), (bad, good))]
    for table in (bad, *stacked):
        with pytest.raises(RankError) as got:
            estimate_2sls(table)
        assert str(got.value) == want


def test_a_count_matrix_singular_but_for_rounding_dust_raises():
    # Row 2 is the sum of rows 0 and 1, so the exact determinant is 0; the float adjugate leaves dust of about
    # 2e19, far below RANK_TOL ||N||_F^3 (about 8e21), and the table must be refused as singular.
    rows = [[700346781658, 296633628803, 45050865999], [18172327444, 894200084525, 1003585370534]]
    count = np.array([*rows, [a + b for a, b in zip(*rows)]], dtype=float)
    (a, b, c), (d, e, f), (g, h, i) = [[int(x) for x in row] for row in count.tolist()]
    assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == 0
    table = CellTable(count, np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(RankError, match="second stage: instrument-regressor cross-moment matrix is singular"):
        estimate_2sls(table)


def test_a_count_matrix_between_three_and_six_ulps_of_its_norm_is_estimated():
    # det N = m^2 - (m + 1)(m - 1) = 1 exactly, which is about 4.5 * 2^-52 ||N||_F^3: N is regular to float
    # precision at RANK_TOL's factor 3, and a factor of 6 would refuse it. Every product here is an exact integer,
    # so with each cell's mean equal to its d the estimates are the slopes 1 and 2 exactly.
    m = 50_000.0
    count = np.array([[m, m + 1.0, 0.0], [m - 1.0, m, 0.0], [0.0, 0.0, 1.0]])
    assert 3.0 < 1.0 / (2.0**-52 * np.sqrt((count * count).sum()) ** 3) < 6.0
    est, se = estimate_2sls(CellTable(count, np.tile([0.0, 1.0, 2.0], (3, 1)), np.zeros((3, 3))))
    assert est[:2].tolist() == [1.0, 2.0]
    assert np.isfinite(se).all()


def test_cluster_wald_estimator_tracks_the_pooled_oracle():
    pop = benchmark_pop(noise_sd=100.0)
    scen = ClusterScenario.CONTROL_1
    oracle = cluster_wald_oracle(pop, scen)
    (est,), (se,) = estimate_cluster_wald(generated_table(pop, 100_000, seed=8), scen)
    assert se > 0.0
    assert abs(est - oracle) <= 5.0 * se
    empty_arm = generated_table(
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
    params = [r.param for r in summary]
    assert params == ["beta1", "beta2", "a10", "a11", "a12", "a20", "a21", "a22"]
    beta1, beta2 = solve_moment_system(marginalize(pop))
    rows = {r.param: r for r in summary}
    row = rows["beta1"]
    assert row.truth == pytest.approx(beta1, abs=1e-9)
    assert row.bias == pytest.approx(row.mean - row.truth, abs=1e-12)
    assert 0.0 <= row.coverage <= 1.0
    assert abs(row.mean - beta1) <= 5.0 * row.sd / np.sqrt(20)
    assert rows["beta2"].truth == pytest.approx(beta2, abs=1e-9)


def test_replicate_cluster_wald_summary():
    pop = benchmark_pop(noise_sd=100.0)
    scen = ClusterScenario.CONTROL_1
    (row,) = replicate(pop, n=5_000, reps=10, master_seed=5, scenario=scen)
    assert row.param == "wald"
    assert row.truth == pytest.approx(cluster_wald_oracle(pop, scen), abs=1e-9)
    assert abs(row.mean - row.truth) <= 6.0 * row.sd / np.sqrt(10)


def test_replicate_validation():
    pop = benchmark_pop()
    with pytest.raises(ConfigError):
        replicate(pop, n=100, reps=1, master_seed=0)
    with pytest.raises(ConfigError, match="sample size"):
        replicate(pop, n=0, reps=2, master_seed=0)
    # n = 1 is a valid sample size, though no one-row sample can take every instrument value.
    with pytest.raises(RankError, match=r"^replication 0: instrument z never takes values"):
        replicate(pop, n=1, reps=2, master_seed=0)
    # A scenario picks the clustered Wald target, so one without a clustered estimand is refused.
    for scenario in (ClusterScenario.NO_CLUSTERING, ClusterScenario.UNDEFINED):
        with pytest.raises(ConfigError, match=f"no clustered estimand under scenario '{scenario.label}'"):
            replicate(pop, n=100, reps=5, master_seed=0, scenario=scenario)


def test_largest_count_is_numpys_intp_bound():
    # strata states the bound on sample sizes and replication counts without numpy; it is numpy's own.
    assert strata._MAX_COUNT == sys.maxsize // 64 == np.iinfo(np.intp).max // 64


ORACLE_ARMS = {"2sls": (FIELD_ARMS, estimate_2sls)} | {
    s.label: ((s.s1,), partial(estimate_cluster_wald, scenario=s))
    for s in (ClusterScenario.CONTROL_1, ClusterScenario.CONTROL_2, ClusterScenario.TREATMENT)
}


def oracle_tables(count: int = 200) -> list[tuple[str, montecarlo.CellTable]]:
    """Seeded drawn tables for the exact IV oracle, with n from 12 to 10^6: all ten strata at noise sd 0 to 300,
    weak first stages (few compliers among many defiers), one to four strata (often singular), and a skewed
    assignment with one mean per field, each under the field arms and every clustering's arms."""
    rng, out = np.random.default_rng(26), []
    for i in range(count):
        n = (12, 10**6)[i] if i < 2 else int(np.exp(rng.uniform(np.log(12), np.log(10**6))))
        noise_sd = float(rng.choice([0.0, 1.0, 50.0, 300.0]))
        kind = i % 4
        if kind == 0:
            pop = random_population(rng, noise_sd=noise_sd)
        elif kind == 1:
            c = float(np.exp(rng.uniform(np.log(0.001), np.log(0.05))))
            strata = (J.C1C2, J.ND1AT2, J.AT1ND2, J.NT1NT2)
            probs = (c, (1 - c) / 3, (1 - c) / 3, 1 - c - 2 * (1 - c) / 3)
            pop = Population(entries=tuple(
                StratumEntry(s, p, tuple(float(v) for v in rng.uniform(-500.0, 500.0, 3)), noise_sd=noise_sd)
                for s, p in zip(strata, probs)))
        elif kind == 2:
            strata = tuple(rng.choice(list(J), size=int(rng.integers(1, 5)), replace=False))
            pop = random_population(rng, strata=strata, noise_sd=noise_sd)
        else:
            # One mean per field, so y depends on d alone: at sd 0 the IV fits exactly.
            means = tuple(float(v) for v in rng.uniform(-500.0, 500.0, 3))
            assignment = tuple(float(v) for v in rng.dirichlet((1, 1, 1)))
            pop = random_population(rng, noise_sd=noise_sd, assignment=assignment, means=dict.fromkeys(J, means))
        out.append((list(ORACLE_ARMS)[(i // 4) % 4], montecarlo.sample_table(pop, n, int(rng.integers(2**32)))))
    return out


def test_the_closed_form_iv_matches_an_exact_rational_iv():
    # The kernel inverts each collapsed count matrix by its adjugate; the oracle solves the textbook cross-moment
    # system in exact rationals from the same float table. Both read the same inputs, so the gap is the kernel's
    # rounding alone: of order eps cond(A) max|ybar| for a coefficient, and eps cond(A) times the SE for an SE,
    # where the residual dust of an exactly fit cell adds cond(A) max|ybar| / sqrt(n).
    eps, checked, singular, noiseless, weak, exact_fit = 2.0**-52, 0, 0, 0, 0, 0
    for what, table in oracle_tables():
        arms, estimate = ORACLE_ARMS[what]
        exact = exact_iv_hc0(table, arms)
        if exact is None:
            with pytest.raises(RankError, match="singular|never takes|is empty"):
                estimate(table)
            singular += 1
            continue
        (coef, se), (b, var, a) = estimate(table), exact
        cond = float(np.linalg.cond(np.array(a, dtype=float)))
        y_max = float(np.abs(table.mean[table.count > 0]).max())
        dust = cond * y_max / float(table.count.sum()) ** 0.5
        for j, (b_j, var_j) in enumerate(zip(b, var)):
            se_j = float(var_j) ** 0.5
            assert abs(coef[j] - float(b_j)) <= 16 * eps * cond * y_max, (what, j, coef[j], float(b_j))
            assert abs(se[j] - se_j) <= 16 * eps * cond * (se_j + dust), (what, j, se[j], se_j)
            exact_fit += se_j <= 16 * eps * cond * dust
        checked += 1
        noiseless += bool(((table.m2 == 0) & (table.count > 0)).any())
        weak += cond > 1e3
    assert checked >= 180 and singular >= 5 and noiseless >= 40 and weak >= 10 and exact_fit >= 5, (
        checked, singular, noiseless, weak, exact_fit)
