"""First-stage identities, maintained-assumption inversion, defier bounds
and the grid feasibility scan, both checked against independent oracles
(a linear program and the outer-product scan in support.py)."""

import dataclasses

import numpy as np
import pytest

from ivstrata import (
    AssumptionError,
    ConfigError,
    FirstStage,
    InfeasibleError,
    JointStratum,
    MarginalGroup,
    Population,
    Regime,
    StratumEntry,
    defier_bounds,
    feasible_set_scan,
    first_stage_from_shares,
    marginal_shares,
    shares_from_first_stage,
)
from ivstrata.strata import SHARE_ATOL
from support import ALL_STRATA, grid_population, random_population, reference_scan

rng = np.random.default_rng(41)

J = JointStratum
G = MarginalGroup


def test_first_stage_share_identities():
    pop = Population(entries=(
        StratumEntry(J.C1C2, 0.3, (0.0, 0.0, 0.0)),
        StratumEntry(J.ND1AT2, 0.1, (0.0, 0.0, 0.0)),
        StratumEntry(J.ID1C2, 0.2, (0.0, 0.0, 0.0)),
        StratumEntry(J.AT1ND2, 0.15, (0.0, 0.0, 0.0)),
        StratumEntry(J.NT1NT2, 0.25, (0.0, 0.0, 0.0)),
    ))
    shares = marginal_shares(pop)
    fs = first_stage_from_shares(shares)
    assert fs.a10 == pytest.approx(0.15, abs=1e-15)          # AT1
    assert fs.a11 == pytest.approx(0.3 + 0.1, abs=1e-15)     # C1 + ND1
    assert fs.a21 == pytest.approx(0.2 - 0.1, abs=1e-15)     # ID1 - ND1
    assert fs.a20 == pytest.approx(0.1, abs=1e-15)           # AT2 = ND1AT2
    assert fs.a22 == pytest.approx(0.3 + 0.2 + 0.15, abs=1e-15)  # C2 + ND2
    assert fs.a12 == pytest.approx(0.0 - 0.15, abs=1e-15)    # ID2 - ND2
    # Implied never-taker shares round-trip through the identities.
    assert fs.nt1 == pytest.approx(shares[G.NT1], abs=1e-12)
    assert fs.nt2 == pytest.approx(shares[G.NT2], abs=1e-12)


def test_first_stage_validation():
    with pytest.raises(ConfigError, match="finite"):
        FirstStage(a10=float("inf"), a11=0, a12=0, a20=0, a21=0, a22=0)
    good = FirstStage(a10=0.1, a11=0.4, a12=0.0, a20=0.2, a21=0.1, a22=0.3)
    assert good.validate() is good
    bad = FirstStage(a10=0.5, a11=0.9, a12=0.0, a20=0.5, a21=0.2, a22=0.3)
    with pytest.raises(InfeasibleError, match=r"P\(NT1\)"):
        bad.validate()


def test_first_stage_stores_floats_and_keeps_a_float_as_it_is():
    values = {"a10": 0.1, "a11": 0.4, "a12": 0.0, "a20": 0.2, "a21": 0.1, "a22": 0.3}
    fs = FirstStage(**values)
    assert all(getattr(fs, name) is v for name, v in values.items())
    mixed = FirstStage(**dict(values, a10=1, a22=np.float64(0.3)))
    assert (type(mixed.a10), type(mixed.a22)) == (float, float) and (mixed.a10, mixed.a22) == (1.0, 0.3)
    assert mixed.a11 is values["a11"]


@pytest.mark.parametrize("coefs,listed", [
    # Each first stage breaks one bound (and a cross slope above 1 drags its never-taker share below 0 with it).
    ({"a11": 1.2, "a21": -0.3}, ["a11 = 1.2 outside [0, 1]"]),
    ({"a22": 1.2, "a12": -0.3}, ["a22 = 1.2 outside [0, 1]"]),
    ({"a21": -1.2, "a10": 0.6, "a11": 0.6}, ["a21 = -1.2 outside [-1, 1]"]),
    ({"a12": -1.2, "a20": 0.6, "a22": 0.6}, ["a12 = -1.2 outside [-1, 1]"]),
    ({"a21": 1.2}, ["a21 = 1.2 outside [-1, 1]", "implied P(NT1) = -0.2 outside [0, 1]"]),
    ({"a12": 1.2}, ["a12 = 1.2 outside [-1, 1]", "implied P(NT2) = -0.2 outside [0, 1]"]),
    ({"a21": -0.2}, ["implied P(NT1) = 1.2 outside [0, 1]"]),
    ({"a12": -0.2}, ["implied P(NT2) = 1.2 outside [0, 1]"]),
])
def test_validate_lists_every_broken_bound(coefs, listed):
    fs = FirstStage(**{**dict.fromkeys(("a10", "a11", "a12", "a20", "a21", "a22"), 0.0), **coefs})
    with pytest.raises(InfeasibleError) as exc:
        fs.validate()
    assert str(exc.value) == "first stage is not population-consistent: " + "; ".join(listed)


def test_validate_takes_exactly_share_atol_past_a_bound_as_dust():
    # a10 sits SHARE_ATOL below 0 and P(NT1) SHARE_ATOL above 1; a11 sits SHARE_ATOL above 1.
    for fs in (FirstStage(a10=-SHARE_ATOL, a11=0.0, a12=0.0, a20=0.0, a21=0.0, a22=0.0),
               FirstStage(a10=0.0, a11=1.0 + SHARE_ATOL, a12=0.0, a20=0.0, a21=-SHARE_ATOL, a22=0.0)):
        assert fs.validate() is fs


@pytest.mark.parametrize("name", ["a10", "a20"])
def test_an_intercept_above_one_is_infeasible_on_its_own(name):
    # Cross slopes of -0.25 keep both implied never-taker shares at exactly 0, so the intercept's own cap is the
    # one check this first stage fails.
    fs = FirstStage(**{**dict.fromkeys(("a10", "a11", "a20", "a22"), 0.0), name: 1.25, "a21": -0.25, "a12": -0.25})
    assert (fs.nt1, fs.nt2) == (0.0, 0.0)
    with pytest.raises(InfeasibleError) as exc:
        fs.validate()
    assert str(exc.value) == f"first stage is not population-consistent: {name} = 1.25 outside [0, 1]"


def test_a_share_above_one_refutes_and_float_dust_above_one_is_clamped():
    # shares_from_first_stage does not call validate: it refutes a share past 1 itself. The six instrument-1
    # shares sum to 1, so an intercept of 1.2 leaves negative ones too; the share above 1 is listed with them.
    fs = FirstStage(a10=1.2, a11=0.0, a12=-0.2, a20=0.0, a21=-0.2, a22=0.0)
    with pytest.raises(AssumptionError) as exc:
        shares_from_first_stage(fs, Regime.NEXT_BEST_ONLY)
    assert "P(AT1) = 1.2 outside [0, 1]" in str(exc.value)
    # A share within SHARE_ATOL past 1, or past 0, is dust: it passes and comes back clamped to exactly 1 or 0.
    dust = FirstStage(a10=0.0, a11=1.0 + 5e-10, a12=0.0, a20=0.0, a21=0.0, a22=1.0)
    shares = shares_from_first_stage(dust, Regime.NEXT_BEST_ONLY)
    assert (shares[G.C1], shares[G.NT1]) == (1.0, 0.0)
    # So is a share exactly SHARE_ATOL past 1 or past 0 (with P(ID1), and P(NT1), at the same distance).
    for a11, a21, clamped in ((1.0 + SHARE_ATOL, -SHARE_ATOL, 1.0), (-SHARE_ATOL, 0.0, 0.0)):
        edge = FirstStage(a10=0.0, a11=a11, a12=0.0, a20=0.0, a21=a21, a22=1.0)
        assert shares_from_first_stage(edge, Regime.NEXT_BEST_ONLY)[G.C1] == clamped

def test_shares_round_trip_under_correct_maintained():
    for _ in range(50):
        # ND-free truth inverts exactly under maintained next-best.
        pop = random_population(rng, strata=(J.C1C2, J.C1ID2, J.ID1C2, J.NT1NT2, J.AT1OT2, J.OT1AT2))
        truth = marginal_shares(pop)
        got = shares_from_first_stage(first_stage_from_shares(truth), Regime.NEXT_BEST_ONLY)
        for grp in G:
            assert got[grp] == pytest.approx(truth[grp], abs=1e-12), grp
        # ND-only truth inverts under maintained irrelevance.
        pop2 = random_population(rng, strata=(J.C1C2, J.ND1AT2, J.AT1ND2, J.NT1NT2))
        truth2 = marginal_shares(pop2)
        got2 = shares_from_first_stage(first_stage_from_shares(truth2), Regime.IRRELEVANCE_ONLY)
        for grp in G:
            assert got2[grp] == pytest.approx(truth2[grp], abs=1e-12), grp


def test_wrong_maintained_assumption_is_refuted():
    # Positive cross slope contradicts maintained irrelevance (it would
    # need a negative next-best share).
    fs = FirstStage(a10=0.0, a11=0.8, a12=0.2, a20=0.0, a21=0.2, a22=0.8)
    with pytest.raises(AssumptionError) as exc:
        shares_from_first_stage(fs, Regime.IRRELEVANCE_ONLY)
    assert exc.value.exit_code == 3
    assert "P(ND1) = -0.2 outside [0, 1]" in str(exc.value)
    # Negative cross slope contradicts maintained next-best.
    fs2 = FirstStage(a10=0.0, a11=0.5, a12=0.0, a20=0.3, a21=-0.2, a22=0.4)
    with pytest.raises(AssumptionError) as exc2:
        shares_from_first_stage(fs2, Regime.NEXT_BEST_ONLY)
    assert "P(ID1) = -0.2 outside [0, 1]" in str(exc2.value)


def test_no_point_identification_without_a_maintained_assumption():
    fs = FirstStage(a10=0.0, a11=0.5, a12=0.0, a20=0.3, a21=0.1, a22=0.4)
    with pytest.raises(ConfigError, match="'neither' does not point-identify") as exc:
        shares_from_first_stage(fs, Regime.NEITHER)
    assert exc.value.exit_code == 2


def test_defier_bounds_worked_example():
    fs = FirstStage(a10=0.0, a11=0.5, a12=0.0, a20=0.3, a21=0.1, a22=0.4)
    b = defier_bounds(fs)
    assert list(b.items()) == [(G.ND1, (0.0, 0.3)), (G.ID1, (0.1, 0.4)), (G.ND2, (0.0, 0.0)), (G.ID2, (0.0, 0.0))]


def test_defier_bounds_infeasible_cross_slope():
    fs = FirstStage(a10=0.1, a11=0.5, a12=0.0, a20=0.1, a21=-0.2, a22=0.3)
    with pytest.raises(InfeasibleError) as exc:
        defier_bounds(fs)
    assert exc.value.exit_code == 4
    assert str(exc.value).startswith("no feasible P(ND1): requires at least 0.2 from the cross slope")
    # Only the ND2 interval inverts here, and the error names it.
    fs2 = FirstStage(a10=0.1, a11=0.3, a12=-0.2, a20=0.1, a21=0.0, a22=0.5)
    with pytest.raises(InfeasibleError) as exc2:
        defier_bounds(fs2)
    assert str(exc2.value).startswith("no feasible P(ND2): requires at least 0.2 from the cross slope")


def test_defier_bounds_joint_cap_infeasible():
    # Each instrument alone is satisfiable (P(ND1) >= 0.2 <= a20 = 0.3), but
    # P(ND1) + P(ND2) <= min(a11 - a12, a22 - a21) = 0.15 rules it out; the
    # scan agrees that no population produces this first stage.
    fs = FirstStage(a10=0.1, a11=0.25, a12=0.1, a20=0.3, a21=-0.2, a22=0.3)
    assert fs.validate() is fs
    with pytest.raises(InfeasibleError) as exc:
        defier_bounds(fs)
    assert exc.value.exit_code == 4
    assert "ND1" in str(exc.value) and "joint cap" in str(exc.value)
    with pytest.raises(InfeasibleError):
        feasible_set_scan(fs, step=0.05)


def test_defier_bounds_tolerate_float_dust_on_the_boundary():
    # a11 - a12 evaluates to 0.03999999999999998 < 0.04 = -a21, so the ND1
    # interval inverts by rounding error only; the first stage is feasible.
    fs = FirstStage(a10=0.04, a11=0.21, a12=0.17, a20=0.21, a21=-0.04, a22=0.07)
    b = defier_bounds(fs)
    assert b == {G.ND1: (0.04, 0.04), G.ID1: (0.0, 0.0), G.ND2: (0.0, 0.0), G.ID2: (0.17, 0.17)}
    for lo, hi in b.values():
        assert lo <= hi
    # An interval inverted by exactly SHARE_ATOL is dust too: P(ND1) >= -a21 = SHARE_ATOL, P(ND1) <= a20 = 0.
    edge = FirstStage(a10=0.1, a11=0.5, a12=0.0, a20=0.0, a21=-SHARE_ATOL, a22=0.4)
    assert defier_bounds(edge)[G.ND1] == (SHARE_ATOL, SHARE_ATOL)


def test_bounds_contain_truth_randomized():
    for _ in range(200):
        pop = random_population(rng)
        shares = marginal_shares(pop)
        b = defier_bounds(first_stage_from_shares(shares))
        for grp, (lo, hi) in b.items():
            assert lo - 1e-9 <= shares[grp] <= hi + 1e-9, grp


def test_scan_matches_formula_on_worked_example():
    fs = FirstStage(a10=0.0, a11=0.5, a12=0.0, a20=0.3, a21=0.1, a22=0.4)
    # On the 1/1e5 and 1/1e7 grids the scan still attains the closed form
    # exactly; its cost does not grow with 1/step.
    for step in (0.1, 1e-5, 1e-7):
        scan = feasible_set_scan(fs, step=step)
        assert scan == defier_bounds(fs), step


def test_scan_step_validation():
    fs = FirstStage(a10=0.0, a11=0.5, a12=0.0, a20=0.3, a21=0.1, a22=0.4)
    # 1/5e-324 and 1/1e-320 overflow to inf; 3e-17 is past k = 2**53, where
    # the scan called feasible first stages infeasible.
    for bad in (0.0, -0.1, 0.2, 5e-324, 1e-320, 3e-17, 9.9e-16, float("nan")):
        with pytest.raises(ConfigError, match="step"):
            feasible_set_scan(fs, step=bad)
    # Both ends of [1e-15, 0.1] are steps.
    for step in (1e-15, 0.1):
        assert list(feasible_set_scan(fs, step=step)) == [G.ND1, G.ID1, G.ND2, G.ID2], step


def test_scan_rejects_infeasible_first_stage():
    fs = FirstStage(a10=0.1, a11=0.5, a12=0.0, a20=0.1, a21=-0.2, a22=0.3)
    with pytest.raises(InfeasibleError):
        feasible_set_scan(fs, step=0.05)


def test_scan_detects_formula_slack():
    # With strata {C1C2: 0.3, C1ID2: 0.3, OT1AT2: 0.4} the per-instrument
    # cap min(a11, a20) = 0.4 is slack: the joint cap
    # P(ND1) + P(ND2) <= min(a11 - a12, a22 - a21) = 0.3 binds, so only 0.3
    # is attainable. defier_bounds applies the joint cap and matches the scan.
    pop = Population(entries=(
        StratumEntry(J.C1C2, 0.3, (0.0, 0.0, 0.0)),
        StratumEntry(J.C1ID2, 0.3, (0.0, 0.0, 0.0)),
        StratumEntry(J.OT1AT2, 0.4, (0.0, 0.0, 0.0)),
    ))
    fs = first_stage_from_shares(marginal_shares(pop))
    formula = defier_bounds(fs)
    scan = feasible_set_scan(fs, step=0.02)
    assert min(fs.a11, fs.a20) == 0.4
    assert scan[G.ND1] == (0.0, pytest.approx(0.3, abs=1e-12))
    assert formula[G.ND1] == (0.0, 0.3)
    # The scan never claims anything outside the formula interval.
    for grp, (flo, fhi) in formula.items():
        slo, shi = scan[grp]
        assert flo - 1e-9 <= slo and shi <= fhi + 1e-9


def test_scan_contains_truth_on_grid_populations():
    for _ in range(25):
        pop = grid_population(rng, step=0.02)
        shares = marginal_shares(pop)
        fs = first_stage_from_shares(shares)
        scan = feasible_set_scan(fs, step=0.02)
        for grp, (lo, hi) in scan.items():
            assert lo - 1e-9 <= shares[grp] <= hi + 1e-9, grp


def test_scan_endpoints_sit_on_the_grid():
    fs = FirstStage(a10=0.0, a11=0.5, a12=0.0, a20=0.3, a21=0.1, a22=0.4)
    scan = feasible_set_scan(fs, step=0.05)
    for lo, hi in scan.values():
        assert round(lo * 20) == pytest.approx(lo * 20, abs=1e-9)
        assert round(hi * 20) == pytest.approx(hi * 20, abs=1e-9)


def _scan_outcome(scan, fs, step):
    try:
        return scan(fs, step=step)
    except InfeasibleError as err:
        return str(err)


def test_scan_matches_outer_product_reference():
    # The per-cell closed form against the n1 x n2 enumeration it replaced:
    # identical intervals, or the identical InfeasibleError text, on grid
    # first stages as they are and shifted by up to +-0.03 per coefficient.
    local = np.random.default_rng(47)
    outcomes = []
    for step in (0.1, 0.05, 0.03, 0.02, 0.01, 0.005):
        for _ in range(30):
            fs = first_stage_from_shares(marginal_shares(grid_population(local, step=step)))
            shifted = FirstStage(*(v + float(local.uniform(-0.03, 0.03)) for v in dataclasses.astuple(fs)))
            for case in (fs, shifted):
                expected = _scan_outcome(reference_scan, case, step)
                assert _scan_outcome(feasible_set_scan, case, step) == expected, (case, step)
                outcomes.append(expected)
    assert any(isinstance(o, str) for o in outcomes) and any(isinstance(o, dict) for o in outcomes)


def test_scan_skips_coefficients_beyond_the_grid():
    # A coefficient whose half-step window lies wholly outside [-1, 1]
    # matches no grid vector. A huge one must give the grid InfeasibleError,
    # not an OverflowError, and windows at the edge +-(1 + step/2) must give
    # the outer-product reference's outcome on every one-stratum first stage.
    huge = FirstStage(a10=1e300, a11=0.5, a12=0.0, a20=0.3, a21=0.1, a22=0.4)
    with pytest.raises(InfeasibleError, match="on the 1/10000000000 grid"):
        feasible_set_scan(huge, step=1e-10)
    bases = [
        first_stage_from_shares(marginal_shares(Population(entries=(StratumEntry(s, 1.0, (0.0, 0.0, 0.0)),))))
        for s in ALL_STRATA
    ]
    names = [f.name for f in dataclasses.fields(FirstStage)]
    outcomes = []
    for step in (0.1, 0.05, 0.02):
        # A shift of 1e-9 / k puts an edge on the window's 1e-9 grid-unit slack (exactly so on the 1/10 grid) and
        # one of 1.5e-9 / k just past it.
        k = round(1 / step)
        slack_shifts = (1e-9 / k, -1e-9 / k, 1.5e-9 / k, -1.5e-9 / k)
        for shift in (1e-12, -1e-12, 1e-9, -1e-9, 0.3 * step, -0.3 * step, *slack_shifts):
            for edge in (1.0 + step / 2 + shift, -1.0 - step / 2 + shift):
                for fs in bases:
                    for name in names:
                        case = dataclasses.replace(fs, **{name: edge})
                        expected = _scan_outcome(reference_scan, case, step)
                        assert _scan_outcome(feasible_set_scan, case, step) == expected, (case, step)
                        outcomes.append(expected)
    assert sum(isinstance(o, dict) for o in outcomes) > 100 and any(isinstance(o, str) for o in outcomes)


def _unit_columns():
    """First-stage coefficients and defier shares of each joint stratum alone;
    both are linear in the stratum probabilities."""
    coefs, defiers = [], []
    for s in ALL_STRATA:
        shares = marginal_shares(Population(entries=(StratumEntry(s, 1.0, (0.0, 0.0, 0.0)),)))
        coefs.append(dataclasses.astuple(first_stage_from_shares(shares)))
        defiers.append([shares[g] for g in (G.ND1, G.ID1, G.ND2, G.ID2)])
    return np.array(coefs).T, np.array(defiers).T


def test_defier_bounds_are_the_lp_bounds():
    # Balke-Pearl style oracle: minimise and maximise each defier share over
    # all ten stratum probabilities that reproduce the six coefficients. The
    # LP shares no algebra with defier_bounds or the scan.
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    coef_cols, defier_cols = _unit_columns()
    a_eq = np.vstack([coef_cols, np.ones(len(ALL_STRATA))])
    local = np.random.default_rng(43)
    infeasible = 0
    for i in range(50):
        fs = first_stage_from_shares(marginal_shares(random_population(local)))
        if i % 2:
            fs = FirstStage(*(v + float(local.uniform(-0.1, 0.1)) for v in dataclasses.astuple(fs)))
        b_eq = np.append(dataclasses.astuple(fs), 1.0)
        feasible = linprog(np.zeros(len(ALL_STRATA)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert feasible.status in (0, 2), feasible.message
        if feasible.status == 2:
            infeasible += 1
            with pytest.raises(InfeasibleError):
                defier_bounds(fs)
            continue
        for row, (lo, hi) in zip(defier_cols, defier_bounds(fs).values()):
            low = linprog(row, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
            high = linprog(-row, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
            assert low.status == 0 and high.status == 0
            assert lo == pytest.approx(low.fun, abs=1e-9)
            assert hi == pytest.approx(-high.fun, abs=1e-9)
    assert 0 < infeasible < 25


def test_maintained_verdict_is_the_lp_feasibility():
    # With the maintained regime's two defier strata held at 0, an LP over the ten stratum probabilities says
    # whether any population reproduces the first stage; shares_from_first_stage must refute exactly the first
    # stages it finds infeasible. The cases are populations that satisfy the regime, their six coefficients
    # perturbed. Some next-best ones have every share in [0, 1] and are refuted only because P(ID2) exceeds
    # P(C1) or P(ID1) exceeds P(C2): the C1ID2 and ID1C2 strata comply with the other instrument.
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    coef_cols, _ = _unit_columns()
    a_eq = np.vstack([coef_cols, np.ones(len(ALL_STRATA))])
    ruled_out = {Regime.NEXT_BEST_ONLY: (J.ND1AT2, J.AT1ND2), Regime.IRRELEVANCE_ONLY: (J.C1ID2, J.ID1C2)}
    local = np.random.default_rng(53)
    verdicts, containment_only = set(), 0
    for _ in range(300):
        for regime, zero in ruled_out.items():
            pop = random_population(local, tuple(s for s in ALL_STRATA if s not in zero))
            fs = first_stage_from_shares(marginal_shares(pop))
            fs = FirstStage(*(v + float(local.uniform(-0.1, 0.1)) for v in dataclasses.astuple(fs)))
            lp = linprog(np.zeros(len(ALL_STRATA)), A_eq=a_eq, b_eq=np.append(dataclasses.astuple(fs), 1.0),
                         bounds=[(0, 0) if s in zero else (0, None) for s in ALL_STRATA], method="highs")
            assert lp.status in (0, 2), lp.message
            try:
                shares_from_first_stage(fs, regime)
                refuted = False
            except AssumptionError as err:
                refuted = True
                containment_only += "outside" not in str(err)
            assert refuted == (lp.status == 2), (fs, regime)
            verdicts.add((regime, refuted))
    assert len(verdicts) == 4 and containment_only >= 5, (verdicts, containment_only)
