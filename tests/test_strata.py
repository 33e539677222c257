"""Population model: trajectories, group membership, marginalization, JSON."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivstrata import (
    ConfigError,
    JointStratum,
    MarginalGroup,
    MarginalSpec,
    Population,
    StratumEntry,
    group_effect,
    group_prob,
    marginal_shares,
    marginalize,
    marginal_spec_from_dict,
    marginal_spec_to_dict,
    population_from_dict,
    population_to_dict,
    potential_choice,
)
from ivstrata.strata import EFFECT_BOUND, EFFECT_SLOTS, MAX_MAGNITUDE, PROB_SUM_TOL
from support import random_population

J = JointStratum
G = MarginalGroup

# Ground-truth membership of every marginal group, spelled out once.
MEMBERS = {
    "C1": {J.C1C2, J.C1ID2, J.C1NT2},
    "ID1": {J.ID1C2},
    "ND1": {J.ND1AT2},
    "AT1": {J.AT1OT2, J.AT1ND2},
    "NT1": {J.NT1NT2, J.NT1C2},
    "OT1": {J.OT1AT2},
    "C2": {J.C1C2, J.NT1C2, J.ID1C2},
    "ID2": {J.C1ID2},
    "ND2": {J.AT1ND2},
    "AT2": {J.OT1AT2, J.ND1AT2},
    "NT2": {J.C1NT2, J.NT1NT2},
    "OT2": {J.AT1OT2},
}


def test_ten_distinct_trajectories():
    trajectories = {s.trajectory for s in J}
    assert len(trajectories) == 10
    assert all(set(t) <= {0, 1, 2} for t in trajectories)


def test_trajectories_satisfy_monotonicity():
    # Assignment to k never moves anyone out of field k.
    for s in J:
        for k in (1, 2):
            if s.trajectory[0] == k:
                assert s.trajectory[k] == k, s


def test_group_membership_table():
    for name, expected in MEMBERS.items():
        assert G[name].members() == frozenset(expected), name


def test_groups_partition_strata_per_instrument():
    for k in (1, 2):
        seen = []
        for kind in ("C", "ID", "ND", "AT", "NT", "OT"):
            seen.extend(G[f"{kind}{k}"].members())
        assert sorted(s.name for s in seen) == sorted(s.name for s in J)


def test_subset_relations_between_instruments():
    assert MEMBERS["ID2"] <= MEMBERS["C1"]
    assert MEMBERS["ID1"] <= MEMBERS["C2"]
    assert MEMBERS["ND1"] <= MEMBERS["AT2"]
    assert MEMBERS["ND2"] <= MEMBERS["AT1"]
    assert MEMBERS["AT2"] == MEMBERS["OT1"] | MEMBERS["ND1"]
    assert MEMBERS["AT1"] == MEMBERS["OT2"] | MEMBERS["ND2"]


def test_potential_choice_reads_trajectory():
    assert potential_choice(J.C1C2, 0) == 0
    assert potential_choice(J.C1C2, 1) == 1
    assert potential_choice(J.C1C2, 2) == 2
    assert potential_choice(J.ND1AT2, 0) == 2
    with pytest.raises(ConfigError):
        potential_choice(J.C1C2, 3)


def test_from_tag_rejects_unknown():
    assert J.from_tag("C1NT2") is J.C1NT2
    with pytest.raises(ConfigError, match="unknown stratum tag"):
        J.from_tag("C9C9")


def test_entry_validation():
    with pytest.raises(ConfigError, match="prob"):
        StratumEntry(J.C1C2, 1.2, (0.0, 0.0, 0.0))
    with pytest.raises(ConfigError, match="means"):
        StratumEntry(J.C1C2, 0.5, (0.0, 0.0))
    with pytest.raises(ConfigError, match="noise_sd"):
        StratumEntry(J.C1C2, 0.5, (0.0, 0.0, 0.0), noise_sd=-1.0)
    big = math.nextafter(MAX_MAGNITUDE, math.inf)
    StratumEntry(J.C1C2, 0.5, (-MAX_MAGNITUDE, 0.0, MAX_MAGNITUDE), noise_sd=MAX_MAGNITUDE)
    with pytest.raises(ConfigError, match="exceeds 1e\\+100 in magnitude"):
        StratumEntry(J.C1C2, 0.5, (0.0, -big, 0.0))
    with pytest.raises(ConfigError, match="noise_sd .* exceeds 1e\\+100"):
        StratumEntry(J.C1C2, 0.5, (0.0, 0.0, 0.0), noise_sd=big)


def test_a_stratum_entry_stores_floats_and_a_tuple():
    e = StratumEntry(J.C1C2, 1, [0, 1, 2])
    assert (e.prob, e.means, e.noise_sd) == (1.0, (0.0, 1.0, 2.0), 0.0)
    assert type(e.means) is tuple and [type(v) for v in (e.prob, *e.means, e.noise_sd)] == [float] * 5
    mixed = StratumEntry(J.C1C2, True, (0.0, 1, 2.0), noise_sd=2)
    assert [type(v) for v in (mixed.prob, *mixed.means, mixed.noise_sd)] == [float] * 5
    # Means that already are a tuple of floats are stored as given.
    means = (0.5, -1.0, 2.0)
    assert StratumEntry(J.C1C2, 0.5, means, 3.0).means is means


def test_population_validation():
    e = StratumEntry(J.C1C2, 0.5, (0.0, 1.0, 2.0))
    with pytest.raises(ConfigError, match="sum"):
        Population(entries=(e,))
    with pytest.raises(ConfigError, match="more than once"):
        Population(entries=(e, StratumEntry(J.C1C2, 0.5, (0.0, 0.0, 0.0))))
    with pytest.raises(ConfigError, match="assignment"):
        Population(
            entries=(StratumEntry(J.C1C2, 1.0, (0.0, 0.0, 0.0)),),
            assignment=(0.5, 0.5, 0.5),
        )


def test_marginal_shares_sum_per_instrument():
    pop = Population(entries=(
        StratumEntry(J.C1C2, 0.25, (0.0, 0.0, 0.0)),
        StratumEntry(J.ND1AT2, 0.25, (0.0, 0.0, 0.0)),
        StratumEntry(J.NT1NT2, 0.5, (0.0, 0.0, 0.0)),
    ))
    shares = marginal_shares(pop)
    for k in (1, 2):
        total = math.fsum(shares[G[f"{kind}{k}"]] for kind in ("C", "ID", "ND", "AT", "NT", "OT"))
        assert total == pytest.approx(1.0, abs=1e-12)
    assert shares[G.ND1] == 0.25
    assert shares[G.AT2] == 0.25
    assert shares[G.AT2] == shares[G.OT1] + shares[G.ND1]  # AT2 = OT1 + ND1, disjoint


def test_group_effect_is_probability_weighted_mixture():
    # E[y2 - y0 | C2] pooling two strata: (0.6*1100 + 0.2*700) / 0.8 = 1000.
    pop = Population(entries=(
        StratumEntry(J.C1C2, 0.6, (0.0, 0.0, 1100.0)),
        StratumEntry(J.ID1C2, 0.2, (0.0, 0.0, 700.0)),
        StratumEntry(J.NT1NT2, 0.2, (0.0, 0.0, 0.0)),
    ))
    assert group_effect(pop, (G.C2,), 2, 0) == pytest.approx(1000.0, abs=1e-12)
    with pytest.raises(ConfigError, match="zero-probability"):
        group_effect(pop, (G.ND1,), 1, 0)


def test_group_prob_counts_overlap_once():
    pop = Population(entries=(
        StratumEntry(J.C1C2, 0.7, (0.0, 0.0, 0.0)),   # in both C1 and C2
        StratumEntry(J.NT1NT2, 0.3, (0.0, 0.0, 0.0)),
    ))
    assert group_prob(pop, (G.C1, G.C2)) == pytest.approx(0.7, abs=0)


BENCHMARK_POP = Population(entries=(
    StratumEntry(J.C1C2, 0.6, (0.0, 3100.0 / 3.0, 500.0)),
    StratumEntry(J.C1ID2, 0.2, (0.0, 900.0, 500.0)),
    StratumEntry(J.ID1C2, 0.2, (0.0, 0.0, 500.0)),
))


def test_marginalize_benchmark_population():
    spec = marginalize(BENCHMARK_POP)
    assert spec.pC1 == pytest.approx(0.8, abs=1e-12)
    assert spec.pID1 == pytest.approx(0.2, abs=1e-12)
    assert spec.pC2 == pytest.approx(0.8, abs=1e-12)
    assert spec.pID2 == pytest.approx(0.2, abs=1e-12)
    assert spec.pND1 == 0.0 and spec.pND2 == 0.0
    # C1 mixes C1C2 and C1ID2: 0.75*(3100/3) + 0.25*900 = 1000.
    assert spec.eff_c1 == pytest.approx(1000.0, abs=1e-9)
    assert spec.eff_c2 == pytest.approx(500.0, abs=1e-9)
    assert spec.eff_id1 == pytest.approx(500.0, abs=1e-12)
    assert spec.eff_id2 == pytest.approx(900.0, abs=1e-12)
    # Absent groups leave their effect slots unset.
    assert spec.eff_nd1_1 is None and spec.eff_nd2_2 is None


def test_marginal_spec_validation():
    with pytest.raises(ConfigError, match="exceeding 1"):
        MarginalSpec(pC1=0.9, pID1=0.2)
    with pytest.raises(ConfigError, match="outside"):
        MarginalSpec(pC1=-0.1)
    with pytest.raises(ConfigError, match="finite"):
        MarginalSpec(pC1=1.0, eff_c1=float("nan"))
    MarginalSpec(pC1=1.0, eff_c1=-EFFECT_BOUND)
    with pytest.raises(ConfigError, match="exceeds 4e\\+100 in magnitude"):
        MarginalSpec(pC1=1.0, eff_c1=math.nextafter(EFFECT_BOUND, math.inf))


def test_a_marginal_spec_stores_floats():
    # As a StratumEntry does: an int share or effect is stored as its float.
    spec = MarginalSpec(pC1=1, eff_c1=2)
    assert (spec.pC1, spec.eff_c1) == (1.0, 2.0)
    assert [type(v) for v in (spec.pC1, spec.eff_c1)] == [float, float]
    # Floats are stored as given.
    effect = 2.5
    assert MarginalSpec(pC1=1.0, eff_c1=effect).eff_c1 is effect


def test_marginalize_keeps_a_population_at_the_magnitude_bound_admissible():
    # E[y1 - y0 | C1] mixes differences of exactly 2 * MAX_MAGNITUDE, and rounding carries this mixture a unit in
    # the last place past that: the effect bound leaves room, so a population that loads always marginalizes.
    means = (-MAX_MAGNITUDE, MAX_MAGNITUDE, MAX_MAGNITUDE)
    pop = Population(entries=(StratumEntry(J.C1C2, 11 / 25, means), StratumEntry(J.NT1NT2, 14 / 25, means)))
    assert marginalize(pop).eff_c1 > 2 * MAX_MAGNITUDE


def test_marginal_spec_effect_lookup_errors_when_absent():
    spec = MarginalSpec(pC1=1.0, pC2=1.0, eff_c1=5.0)
    assert spec.effect("eff_c1") == 5.0
    with pytest.raises(ConfigError, match="required here but absent"):
        spec.effect("eff_c2")


def test_swapped_relabels_instruments():
    spec = MarginalSpec(
        pC1=0.5, pID1=0.1, pND1=0.2, pC2=0.6, pID2=0.05, pND2=0.0,
        eff_c1=1.0, eff_c2=2.0, eff_id1=3.0, eff_id2=4.0,
        eff_nd1_1=5.0, eff_nd1_2=6.0,
    )
    sw = spec.swapped()
    assert (sw.pC1, sw.pID1, sw.pND1) == (0.6, 0.05, 0.0)
    assert (sw.eff_c1, sw.eff_c2, sw.eff_id1, sw.eff_id2) == (2.0, 1.0, 4.0, 3.0)
    # Next-best slots swap both group and contrast indices.
    assert sw.eff_nd2_2 == 5.0 and sw.eff_nd2_1 == 6.0
    assert sw.eff_nd1_1 is None
    assert sw.swapped() == spec


def test_population_json_round_trip():
    pop = Population(
        entries=(
            StratumEntry(J.C1C2, 0.6, (0.0, 1.5, 2.5), noise_sd=3.0),
            StratumEntry(J.NT1NT2, 0.4, (-1.0, 0.0, 1.0)),
        ),
        assignment=(0.5, 0.25, 0.25),
    )
    assert population_from_dict(population_to_dict(pop)) == pop


def test_population_from_dict_rejects_unknown_keys():
    doc = {"strata": [{"tag": "C1C2", "prob": 1.0, "means": [0, 0, 0], "typo": 1}]}
    with pytest.raises(ConfigError, match="unknown key"):
        population_from_dict(doc)
    with pytest.raises(ConfigError, match="unknown key"):
        population_from_dict({"strata": [], "population": {}})


def test_marginal_spec_json_round_trip():
    spec = MarginalSpec(pC1=0.7, pID1=0.1, pC2=0.8, pND2=0.1,
                        eff_c1=10.0, eff_nd2_1=1.0, eff_nd2_2=2.0)
    assert marginal_spec_from_dict(marginal_spec_to_dict(spec)) == spec


def test_marginal_spec_from_dict_shapes():
    doc = {"shares": {"C1": 1.0, "C2": 1.0}, "effects": {"C1": 7.0, "ND1": [1.0, 2.0]}}
    spec = marginal_spec_from_dict(doc)
    assert spec.eff_c1 == 7.0
    assert spec.eff_nd1_1 == 1.0 and spec.eff_nd1_2 == 2.0
    with pytest.raises(ConfigError, match="unknown key"):
        marginal_spec_from_dict({"shares": {"XX": 0.5}})


@given(st.sampled_from(list(J)))
def test_membership_predicates_agree_with_table(stratum):
    for kind in ("C", "ID", "ND", "AT", "NT", "OT"):
        for inst in (1, 2):
            grp = G[f"{kind}{inst}"]
            assert grp.contains(stratum) == (stratum in MEMBERS[grp.name])


@given(st.lists(st.sampled_from(list(J)), min_size=1, max_size=10, unique=True))
def test_marginal_shares_always_sum_to_one(strata):
    probs = [1.0 / len(strata)] * len(strata)
    pop = Population(entries=tuple(
        StratumEntry(s, p, (0.0, 0.0, 0.0)) for s, p in zip(strata, probs)
    ))
    shares = marginal_shares(pop)
    for k in (1, 2):
        total = math.fsum(shares[G[f"{kind}{k}"]] for kind in ("C", "ID", "ND", "AT", "NT", "OT"))
        assert abs(total - math.fsum(probs)) <= 2 * math.ulp(1.0)
        assert abs(total - 1.0) <= PROB_SUM_TOL + 2 * math.ulp(1.0)


def test_marginal_shares_add_up_within_two_ulps_of_the_stratum_probabilities():
    # The six shares of an instrument need not add up to exactly 1, nor to the probabilities' own sum: the
    # probabilities sum to 1 only within PROB_SUM_TOL, and each share is rounded once.
    rng = np.random.default_rng(0)
    exact = 0
    for _ in range(3000):
        pop = random_population(rng)
        shares, total = marginal_shares(pop), math.fsum(e.prob for e in pop.entries)
        for k in (1, 2):
            six = math.fsum(shares[G[f"{kind}{k}"]] for kind in ("C", "ID", "ND", "AT", "NT", "OT"))
            assert abs(six - total) <= 2 * math.ulp(1.0)
            exact += six == 1.0
    assert exact < 6000  # the bound is needed: an exact identity would hold in every check


# The membership scan, one group at a time over the spelled-out MEMBERS table: the formulas the package's one-pass
# membership table must reproduce bit for bit.
def _scan(pop, groups):
    union = set().union(*(MEMBERS[g.name] for g in groups))
    return [e for e in pop.entries if e.stratum in union]


def _scan_effect(pop, groups, j, k):
    members = _scan(pop, groups)
    total = math.fsum(e.prob for e in members)
    return None if total <= 0.0 else math.fsum(e.prob * (e.means[j] - e.means[k]) for e in members) / total


def _scan_populations(rng):
    for s in J:  # single-stratum populations
        yield Population(entries=(StratumEntry(s, 1.0, (1.0, -2.5, 4.0)),))
    for _ in range(300):
        # A random subset in random order, up to two of its strata at probability zero.
        strata = [J[name] for name in rng.permutation([s.name for s in J])[:rng.integers(1, 11)]]
        zero = int(rng.integers(0, min(2, len(strata) - 1) + 1))
        probs = [0.0] * zero + [float(p) for p in rng.dirichlet(np.full(len(strata) - zero, 0.6))]
        order = rng.permutation(len(strata))
        yield Population(entries=tuple(
            StratumEntry(strata[i], probs[i], tuple(float(v) for v in rng.uniform(-500.0, 500.0, size=3)))
            for i in order
        ))


def test_membership_table_matches_a_membership_scan_bit_for_bit():
    rng = np.random.default_rng(11)
    groups = list(G)
    for pop in _scan_populations(rng):
        shares = marginal_shares(pop)
        assert [shares[g].hex() for g in G] == [math.fsum(e.prob for e in _scan(pop, (g,))).hex() for g in G]
        spec = marginalize(pop)
        assert [getattr(spec, f"p{key}").hex() for key in ("C1", "C2", "ID1", "ID2", "ND1", "ND2")] == [
            shares[G[key]].hex() for key in ("C1", "C2", "ID1", "ID2", "ND1", "ND2")]
        for slot, (group, j, k) in EFFECT_SLOTS.items():
            want = _scan_effect(pop, (group,), j, k)
            assert getattr(spec, slot) == want and (want is None or getattr(spec, slot).hex() == want.hex())
        for _ in range(6):
            picked = tuple(groups[i] for i in rng.choice(len(groups), size=rng.integers(1, 5), replace=False))
            j, k = (int(v) for v in rng.integers(0, 3, size=2))
            assert group_prob(pop, picked).hex() == math.fsum(e.prob for e in _scan(pop, picked)).hex()
            want = _scan_effect(pop, picked, j, k)
            if want is None:
                with pytest.raises(ConfigError, match="zero-probability group union"):
                    group_effect(pop, picked, j, k)
            else:
                assert group_effect(pop, picked, j, k).hex() == want.hex()
