"""Scenario selection from cross-slope signs, clustered estimand
decompositions, the exclusion check, and the pooled Wald oracle."""

import math
import struct
from statistics import NormalDist

import numpy as np
import pytest

from ivstrata import (
    AssumptionError,
    ClusterScenario,
    ConfigError,
    FirstStage,
    JointStratum,
    NegNegRule,
    Population,
    RankError,
    Semantics,
    StratumEntry,
    check_cluster_exclusion,
    choose_clustering,
    cluster_estimand_constant_effects,
    cluster_estimand_formula,
    cluster_wald_oracle,
)
from ivstrata.clustering import _std_normal_cdf
from support import random_population

rng = np.random.default_rng(20260817)

J = JointStratum


def make_pop(items, assignment=None):
    kwargs = {} if assignment is None else {"assignment": assignment}
    return Population(entries=tuple(StratumEntry(s, p, m) for s, p, m in items), **kwargs)


# Four never/always-taker strata plus one irrelevance defier on field 1;
# constant effects tau1 = 300, tau2 = 500 on base level 50.
POP_A = make_pop([
    (J.C1NT2, 0.3, (50.0, 350.0, 550.0)),
    (J.NT1C2, 0.3, (50.0, 350.0, 550.0)),
    (J.ID1C2, 0.2, (50.0, 350.0, 550.0)),
    (J.NT1NT2, 0.2, (50.0, 350.0, 550.0)),
])

# Same constant effects but equal defier shares on both fields.
POP_B = make_pop([
    (J.C1ID2, 0.2, (50.0, 350.0, 550.0)),
    (J.ID1C2, 0.2, (50.0, 350.0, 550.0)),
    (J.C1NT2, 0.04, (50.0, 350.0, 550.0)),
    (J.NT1C2, 0.4, (50.0, 350.0, 550.0)),
    (J.NT1NT2, 0.16, (50.0, 350.0, 550.0)),
])

CONTROL_1 = ClusterScenario.control(1)
TREATMENT = ClusterScenario.TREATMENT


def fs_with(a21, a12):
    return FirstStage(a10=0.1, a11=0.3, a12=a12, a20=0.1, a22=0.3, a21=a21)


@pytest.mark.parametrize("a21,a12,label", [
    (-0.1, 0.0, "control-1"),
    (-0.1, 0.1, "control-1"),
    (0.0, -0.1, "control-2"),
    (0.1, -0.1, "control-2"),
    (0.1, 0.0, "treatment"),
    (0.0, 0.1, "treatment"),
    (0.1, 0.1, "treatment"),
    (0.0, 0.0, "no-clustering"),
    (-0.1, -0.1, "undefined"),
])
def test_sign_pattern_catalogue(a21, a12, label):
    assert choose_clustering(fs_with(a21, a12)).label == label


def test_clustering_with_standard_errors():
    fs = fs_with(-0.1, 0.0)
    # |z| = 1 is insignificant at 5%, so the slope counts as zero.
    assert choose_clustering(fs, se21=0.1, se12=0.1).label == "no-clustering"
    assert choose_clustering(fs, se21=0.02, se12=0.02).label == "control-1"
    # |z| = 1.67: crosses over between the 5% and 10% levels.
    assert choose_clustering(fs, se21=0.06, sig_level=0.05).label == "no-clustering"
    assert choose_clustering(fs, se21=0.06, sig_level=0.10).label == "control-1"
    with pytest.raises(ConfigError, match="nonnegative"):
        choose_clustering(fs, se21=-1.0)
    with pytest.raises(ConfigError, match="significance"):
        choose_clustering(fs, sig_level=1.5)


def test_std_normal_cdf_is_bit_identical_to_statistics():
    # The sign tests' p-values keep every bit they had when they came from statistics.NormalDist.
    tiny = 5e-324
    edge = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 2.2250738585072014e-308 / 3, 40.0, -40.0]
    draws = np.random.default_rng(20261019)
    points = edge + draws.normal(scale=3.0, size=20_000).tolist() + draws.uniform(-40.0, 40.0, size=20_000).tolist()
    reference = NormalDist()
    for x in points:
        got, want = _std_normal_cdf(x), reference.cdf(x)
        assert (math.isnan(got) and math.isnan(want)) or struct.pack("<d", got) == struct.pack("<d", want), x


def test_both_negative_rules():
    rule = NegNegRule.LARGER_MAGNITUDE
    assert choose_clustering(fs_with(-0.3, -0.1), neg_neg_rule=rule).label == "control-1"
    assert choose_clustering(fs_with(-0.1, -0.3), neg_neg_rule=rule).label == "control-2"
    assert choose_clustering(fs_with(-0.2, -0.2), neg_neg_rule=rule).label == "control-1"
    with pytest.raises(AssumptionError) as exc:
        choose_clustering(fs_with(-0.1, -0.1), neg_neg_rule=NegNegRule.FAIL)
    assert exc.value.exit_code == 3
    assert exc.value.violations == ("a21 < 0", "a12 < 0")


def test_scenario_shapes_and_labels():
    assert CONTROL_1.s0 == frozenset({0, 2}) and CONTROL_1.s1 == frozenset({1})
    c2 = ClusterScenario.control(2)
    assert c2.s0 == frozenset({0, 1}) and c2.s1 == frozenset({2})
    assert TREATMENT.s0 == frozenset({0}) and TREATMENT.s1 == frozenset({1, 2})
    labels = ("control-1", "control-2", "treatment", "no-clustering", "undefined")
    assert [s.label for s in ClusterScenario] == list(labels)
    for label in labels:
        assert ClusterScenario.from_label(label).label == label
    for scen in ClusterScenario:
        if scen.s1 is not None:
            assert scen.s0 | scen.s1 == {0, 1, 2} and not scen.s0 & scen.s1
            assert scen.require_collapse() is scen
        else:
            assert scen.s0 is None
    with pytest.raises(ConfigError, match="unknown"):
        ClusterScenario.from_label("both")
    with pytest.raises(ConfigError):
        ClusterScenario.control(3)


def test_no_estimand_for_degenerate_scenarios():
    for scen in (ClusterScenario.NO_CLUSTERING, ClusterScenario.UNDEFINED):
        with pytest.raises(ConfigError, match="no clustered estimand"):
            cluster_estimand_formula(POP_A, scen)
        with pytest.raises(ConfigError):
            cluster_wald_oracle(POP_A, scen)


def test_control_decomposition_frozen_exhibit():
    dec = cluster_estimand_formula(POP_A, CONTROL_1)
    assert dec.pi == pytest.approx(0.8, abs=1e-15)
    by_label = {t.label: t for t in dec.a_terms}
    assert by_label["C1|ND2"].weight == pytest.approx(0.375, abs=1e-12)
    assert by_label["C1|ND2"].delta == pytest.approx(300.0, abs=1e-12)
    assert by_label["C2|ND1"].weight == pytest.approx(0.625, abs=1e-12)
    assert by_label["C2|ND1"].delta == pytest.approx(-200.0, abs=1e-12)
    (w,) = dec.bias_terms
    assert (w.label, w.sign) == ("w~1", 1)
    assert w.weight == pytest.approx(0.25, abs=1e-15)
    assert w.delta == pytest.approx(500.0, abs=1e-12)
    # The single contaminating term is a quarter of tau2, exactly.
    assert dec.bias == 125.0
    assert dec.total == pytest.approx(112.5, abs=1e-12)
    ce = cluster_estimand_constant_effects(POP_A, CONTROL_1)
    assert ce.total == pytest.approx(dec.total, abs=1e-12)
    (v,) = ce.bias_terms
    assert (v.label, v.weight, v.delta, v.sign) == ("w.1", 0.25, 500.0, 1)


def test_equal_defier_shares_cancel_the_bias():
    dec = cluster_estimand_formula(POP_B, CONTROL_1)
    assert dec.bias == 0.0
    assert dec.total == pytest.approx(-400.0 / 7.0, abs=1e-12)
    ce = cluster_estimand_constant_effects(POP_B, CONTROL_1)
    assert ce.bias_terms == ()
    assert ce.total == pytest.approx(dec.total, abs=1e-12)
    # With no effect heterogeneity the pooled Wald lands on the estimand too.
    assert cluster_wald_oracle(POP_B, CONTROL_1) == pytest.approx(dec.total, abs=1e-9)
    assert cluster_wald_oracle(POP_B, CONTROL_1, Semantics.GROUP_RELEVANT) == pytest.approx(dec.total, abs=1e-12)


def test_treatment_decomposition_frozen_exhibit():
    pop = make_pop([
        (J.C1C2, 0.6, (0.0, 3100.0 / 3.0, 500.0)),
        (J.C1ID2, 0.2, (0.0, 900.0, 500.0)),
        (J.ID1C2, 0.2, (0.0, 0.0, 500.0)),
    ])
    dec = cluster_estimand_formula(pop, TREATMENT)
    assert dec.pi == pytest.approx(1.0, abs=1e-12)
    by_label = {t.label: t for t in dec.a_terms}
    assert by_label["C1|ID2"].weight == pytest.approx(0.8, abs=1e-12)
    assert by_label["C1|ID2"].delta == pytest.approx(1000.0, abs=1e-9)
    assert by_label["C2|ID1"].delta == pytest.approx(500.0, abs=1e-12)
    assert dec.bias_terms == ()
    assert dec.total == pytest.approx(1200.0, abs=1e-9)
    # Double compliers and irrelevance defiers both overlap group unions
    # here, so the literal pooled Wald sits well away from the estimand.
    assert cluster_wald_oracle(pop, TREATMENT) == pytest.approx(740.0, abs=1e-9)


def test_heterogeneous_effects_exhibits():
    pop_x = make_pop([
        (J.C1NT2, 0.5, (0.0, 1000.0, 0.0)),
        (J.AT1ND2, 0.5, (0.0, 300.0, 700.0)),
    ])
    assert cluster_estimand_formula(pop_x, CONTROL_1).total == pytest.approx(650.0, abs=1e-12)
    assert cluster_wald_oracle(pop_x, CONTROL_1) == pytest.approx(1600.0 / 3.0, abs=1e-9)
    assert cluster_wald_oracle(pop_x, CONTROL_1, Semantics.GROUP_RELEVANT) == pytest.approx(650.0, abs=1e-12)

    pop_y = make_pop([
        (J.C1NT2, 0.5, (0.0, 1000.0, 0.0)),
        (J.ID1C2, 0.5, (0.0, 0.0, 400.0)),
    ])
    dec = cluster_estimand_formula(pop_y, CONTROL_1)
    assert dec.a_total == pytest.approx(300.0, abs=1e-12)
    assert dec.bias == pytest.approx(200.0, abs=1e-12)
    assert cluster_wald_oracle(pop_y, CONTROL_1) == pytest.approx(1200.0, abs=1e-9)
    assert cluster_wald_oracle(pop_y, CONTROL_1, Semantics.GROUP_RELEVANT) == pytest.approx(500.0, abs=1e-12)
    with pytest.raises(ConfigError, match="ID1C2"):
        cluster_estimand_constant_effects(pop_y, CONTROL_1)


def test_constant_effects_paths_agree_on_random_populations():
    scenarios = (CONTROL_1, ClusterScenario.control(2), TREATMENT)
    for _ in range(40):
        # Integer-valued means keep the per-stratum differences bitwise
        # equal, which the exactness check requires.
        tau1, tau2 = (float(v) for v in rng.integers(-500, 500, size=2))
        means = {
            s: (float(b), float(b) + tau1, float(b) + tau2)
            for s, b in zip(J, rng.integers(-100, 100, size=len(tuple(J))))
        }
        pop = random_population(rng, means=means)
        for scen in scenarios:
            full = cluster_estimand_formula(pop, scen)
            ce = cluster_estimand_constant_effects(pop, scen)
            assert ce.total == pytest.approx(full.total, abs=1e-9), scen.label


def test_exclusion_check():
    verdict = check_cluster_exclusion(POP_A, CONTROL_1)
    assert not verdict.holds and verdict.violations == ("ID1C2",)
    pop_nd = make_pop([(J.C1NT2, 0.5, (0.0, 7.0, 0.0)), (J.AT1ND2, 0.5, (0.0, 300.0, 700.0))])
    tr_verdict = check_cluster_exclusion(pop_nd, TREATMENT)
    assert not tr_verdict.holds and tr_verdict.violations == ("AT1ND2",)
    # Zero-probability suspects do not count.
    pop_zero = make_pop([(J.C1NT2, 1.0, (0.0, 7.0, 0.0)), (J.ID1C2, 0.0, (0.0, 0.0, 9.0))])
    assert check_cluster_exclusion(pop_zero, CONTROL_1).holds
    # Suspects whose relabelled outcome matches control do not count either.
    pop_eq = make_pop([(J.C1NT2, 0.5, (0.0, 7.0, 0.0)), (J.ID1C2, 0.5, (3.0, 8.0, 3.0))])
    assert check_cluster_exclusion(pop_eq, CONTROL_1).holds
    pop_tr_eq = make_pop([(J.C1NT2, 0.5, (0.0, 7.0, 0.0)), (J.AT1ND2, 0.5, (1.0, 5.0, 5.0))])
    assert check_cluster_exclusion(pop_tr_eq, TREATMENT).holds


CONTROL_1_AGREEMENT = (J.C1NT2, J.ND1AT2, J.NT1NT2, J.OT1AT2, J.AT1OT2)
CONTROL_2_AGREEMENT = (J.NT1C2, J.AT1ND2, J.NT1NT2, J.OT1AT2, J.AT1OT2)
TREATMENT_AGREEMENT = (J.C1NT2, J.NT1C2, J.NT1NT2, J.OT1AT2, J.AT1OT2)


def test_pooled_oracle_matches_formula_on_agreement_classes():
    for _ in range(60):
        assignment = tuple(rng.dirichlet((2.0, 2.0, 2.0)))
        cases = [
            (random_population(rng, strata=CONTROL_1_AGREEMENT, assignment=assignment), CONTROL_1),
            (random_population(rng, strata=CONTROL_2_AGREEMENT, assignment=assignment), ClusterScenario.control(2)),
            (random_population(rng, strata=TREATMENT_AGREEMENT), TREATMENT),
        ]
        for pop, scen in cases:
            total = cluster_estimand_formula(pop, scen).total
            tol = 1e-9 * max(1.0, abs(total))
            assert cluster_wald_oracle(pop, scen) == pytest.approx(total, abs=tol), scen.label


def test_pooled_treatment_oracle_needs_balanced_arms():
    # Pooling the treated fields mixes their outcomes with instrument-cell
    # weights; tilting z=1 against z=2 moves the pooled Wald but not the
    # estimand.
    items = [(J.C1NT2, 0.5, (0.0, 1000.0, 0.0)), (J.NT1C2, 0.5, (0.0, 0.0, 400.0))]
    tilted = make_pop(items, assignment=(0.2, 0.6, 0.2))
    assert cluster_estimand_formula(tilted, TREATMENT).total == pytest.approx(700.0, abs=1e-12)
    assert cluster_wald_oracle(tilted, TREATMENT) == pytest.approx(850.0, abs=1e-9)
    balanced = make_pop(items, assignment=(0.2, 0.4, 0.4))
    assert cluster_wald_oracle(balanced, TREATMENT) == pytest.approx(700.0, abs=1e-9)


def test_group_relevant_oracle_matches_formula_without_overlap():
    no_c1c2 = tuple(s for s in J if s is not J.C1C2)
    no_overlap_tr = tuple(s for s in J if s not in (J.C1C2, J.ID1C2, J.C1ID2))
    for _ in range(60):
        pop = random_population(rng, strata=no_c1c2)
        total = cluster_estimand_formula(pop, CONTROL_1).total
        tol = 1e-9 * max(1.0, abs(total))
        assert cluster_wald_oracle(pop, CONTROL_1, Semantics.GROUP_RELEVANT) == pytest.approx(total, abs=tol)
        pop_tr = random_population(rng, strata=no_overlap_tr)
        total_tr = cluster_estimand_formula(pop_tr, TREATMENT).total
        tol_tr = 1e-9 * max(1.0, abs(total_tr))
        assert cluster_wald_oracle(pop_tr, TREATMENT, Semantics.GROUP_RELEVANT) == pytest.approx(total_tr, abs=tol_tr)


def test_rank_errors():
    inert = make_pop([(J.NT1NT2, 0.6, (0.0, 0.0, 0.0)), (J.AT1OT2, 0.4, (1.0, 2.0, 3.0))])
    with pytest.raises(RankError) as exc:
        cluster_estimand_formula(inert, CONTROL_1)
    assert exc.value.exit_code == 4
    with pytest.raises(RankError, match="relevant-group mass"):
        cluster_wald_oracle(inert, CONTROL_1, Semantics.GROUP_RELEVANT)
    with pytest.raises(RankError, match="first stage"):
        cluster_wald_oracle(make_pop([(J.NT1NT2, 1.0, (0.0, 0.0, 0.0))]), CONTROL_1)
    starved = make_pop([(J.C1NT2, 1.0, (0.0, 1.0, 2.0))], assignment=(0.5, 0.0, 0.5))
    with pytest.raises(RankError, match="empty cell"):
        cluster_wald_oracle(starved, CONTROL_1)


def test_bias_term_contributions_fold_signs():
    dec = cluster_estimand_formula(POP_A, CONTROL_1)
    for t in dec.bias_terms:
        assert t.contribution == t.sign * t.weight * t.delta
    assert dec.total == pytest.approx(
        math.fsum([t.contribution for t in dec.a_terms] + [t.contribution for t in dec.bias_terms]),
        abs=1e-12,
    )
