"""Moment-system oracle, bias decompositions, regime nesting, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ivstrata import (
    AssumptionError,
    ConfigError,
    MarginalSpec,
    RankError,
    Regime,
    SweepAxis,
    bias_sweep,
    decompose,
    solve_moment_system,
)
from support import EFFECT_SLOTS, random_spec, reference_sweep, swapped, wbar
from ivstrata.strata import DEN_TOL

rng = np.random.default_rng(20260817)

ANCHOR = MarginalSpec(
    pC1=0.8, pID1=0.2, pC2=0.8, pID2=0.2,
    eff_c1=1000.0, eff_c2=500.0, eff_id1=500.0, eff_id2=900.0,
)


def test_anchor_moment_system():
    # Cramer: b = (900, 580), det = 0.6, so beta1 = 604 / 0.6.
    beta1, beta2 = solve_moment_system(ANCHOR)
    assert beta1 == pytest.approx(3020.0 / 3.0, abs=1e-9)
    assert beta2 == pytest.approx(284.0 / 0.6, abs=1e-9)


def test_anchor_decomposition_terms():
    dec1, dec2 = decompose(ANCHOR)
    assert dec1.late == 1000.0
    assert dec1.bias == pytest.approx(20.0 / 3.0, abs=1e-9)
    by_label = {t.label: t for t in dec1.terms}
    # Only the two irrelevance-defier terms carry weight here.
    assert by_label["w1"].weight == pytest.approx(0.04 / 0.6, abs=1e-12)
    assert by_label["w1"].delta == pytest.approx(100.0, abs=0)
    assert by_label["w2"].delta == 0.0
    assert all(by_label[f"w{i}"].weight == 0.0 for i in range(3, 10))
    assert dec2.late == 500.0
    assert dec2.bias == pytest.approx(-16.0 / 0.6, abs=1e-9)


def test_next_best_only_example():
    # One next-best defier group, no irrelevance defiers:
    # beta1 = [0.8*1000 + 0.2*(1100 - 500)] / [0.8 - ... ] with the
    # restricted denominator 0.8*0.8 + 0.2*0.8 = 0.8.
    spec = MarginalSpec(
        pC1=0.8, pND1=0.2, pC2=0.8,
        eff_c1=1000.0, eff_c2=500.0, eff_nd1_1=1100.0, eff_nd1_2=500.0,
    )
    beta1, beta2 = solve_moment_system(spec)
    assert beta1 == pytest.approx(1020.0, abs=1e-9)
    assert beta2 == pytest.approx(500.0, abs=1e-9)
    dec1, _ = decompose(spec, Regime.IRRELEVANCE_ONLY)
    assert dec1.total == pytest.approx(beta1, abs=1e-9)


def test_decomposition_matches_oracle_randomized():
    for _ in range(300):
        spec = random_spec(rng)
        beta1, beta2 = solve_moment_system(spec)
        dec1, dec2 = decompose(spec)
        assert abs(dec1.total - beta1) <= 1e-9
        assert abs(dec2.total - beta2) <= 1e-9


def test_swap_symmetry_is_exact():
    for _ in range(100):
        spec = random_spec(rng)
        beta1, beta2 = solve_moment_system(spec)
        sb1, sb2 = solve_moment_system(swapped(spec))
        assert sb1 == beta2 and sb2 == beta1
        # decompose's second estimand is its first on the relabeled spec, and the other way round.
        dec1, dec2 = decompose(spec)
        assert decompose(swapped(spec)) == (dec2, dec1)


def test_weights_are_nonnegative_even_with_negative_denominator():
    # pID1 = pID2 = 0.6, pC1 = pC2 = 0.4 puts the denominator at -0.2.
    spec = MarginalSpec(
        pC1=0.4, pID1=0.6, pC2=0.4, pID2=0.6,
        eff_c1=100.0, eff_c2=50.0, eff_id1=10.0, eff_id2=20.0,
    )
    dec1, dec2 = decompose(spec)
    assert dec1.denominator == pytest.approx(-0.2, abs=1e-12)
    assert all(t.weight >= 0.0 for t in dec1.terms + dec2.terms)
    beta1, beta2 = solve_moment_system(spec)
    assert dec1.total == pytest.approx(beta1, abs=1e-9)
    assert dec2.total == pytest.approx(beta2, abs=1e-9)


def test_regime_nesting_is_bitwise():
    # The full denominator is summed so its extra addends are exact zeros
    # on restricted specs; totals then agree bitwise, not just closely.
    for _ in range(100):
        nd_free = random_spec(rng, nd_free=True)
        assert decompose(nd_free, Regime.NEXT_BEST_ONLY)[0].total == decompose(nd_free)[0].total
        id_free = random_spec(rng, id_free=True)
        assert decompose(id_free, Regime.IRRELEVANCE_ONLY)[0].total == decompose(id_free)[0].total


def test_regime_term_labels():
    # Defier-free, so every regime applies; each keeps its closed form's terms.
    spec = MarginalSpec(pC1=0.8, pC2=0.8, eff_c1=1000.0, eff_c2=500.0)
    labels = {regime: [t.label for t in decompose(spec, regime)[0].terms] for regime in Regime}
    assert labels == {
        Regime.NEXT_BEST_ONLY: ["w1", "w2"],
        Regime.IRRELEVANCE_ONLY: ["w3", "w4", "w5", "w6"],
        Regime.NEITHER: [f"w{i}" for i in range(1, 10)],
    }


def test_defier_free_reduces_to_complier_late():
    for _ in range(50):
        spec = random_spec(rng, defier_free=True)
        late1, late2 = spec.eff_c1, spec.eff_c2
        for regime in Regime:
            dec1, dec2 = decompose(spec, regime)
            assert abs(dec1.total - late1) <= 1e-12
            assert abs(dec2.total - late2) <= 1e-12


def test_regime_guards():
    nd_spec = MarginalSpec(pC1=0.7, pND1=0.3, pC2=1.0,
                           eff_c1=1.0, eff_c2=1.0, eff_nd1_1=1.0, eff_nd1_2=1.0)
    with pytest.raises(AssumptionError) as exc:
        decompose(nd_spec, Regime.NEXT_BEST_ONLY)
    assert exc.value.exit_code == 3
    id_spec = MarginalSpec(pC1=0.7, pID1=0.3, pC2=1.0,
                           eff_c1=1.0, eff_c2=1.0, eff_id1=1.0, eff_id2=1.0)
    with pytest.raises(AssumptionError):
        decompose(id_spec, Regime.IRRELEVANCE_ONLY)


def test_singular_moment_system_raises():
    # pID1 = pID2 = sqrt(pC1 pC2) makes the determinant vanish.
    spec = MarginalSpec(pC1=0.5, pID1=0.5, pC2=0.5, pID2=0.5,
                        eff_c1=1.0, eff_c2=1.0, eff_id1=1.0, eff_id2=1.0)
    with pytest.raises(RankError) as exc:
        solve_moment_system(spec)
    assert exc.value.exit_code == 4
    with pytest.raises(RankError):
        decompose(spec)


def test_a_complier_share_of_one_keeps_its_effect():
    # Every unit a complier for both instruments: the estimands are the complier effects themselves.
    assert solve_moment_system(MarginalSpec(pC1=1.0, pC2=1.0, eff_c1=3.0, eff_c2=-2.0)) == (3.0, -2.0)


def test_a_denominator_just_past_den_tol_is_identified():
    # P(C1) * P(C2) = 1.5e-10 is every routine's denominator here, and only a denominator within DEN_TOL = 1e-10 of
    # zero is singular.
    spec = MarginalSpec(pC1=1.5e-5, pC2=1e-5, eff_c1=1.0, eff_c2=2.0)
    assert solve_moment_system(spec) == (1.0, 2.0)
    assert [dec.total for dec in decompose(spec)] == [1.0, 2.0]


def test_a_denominator_of_exactly_den_tol_is_singular():
    # P(C1) * P(C2) = 1e-10 * 1.0 is DEN_TOL exactly, and a denominator within DEN_TOL of zero is singular.
    spec = MarginalSpec(pC1=1e-10, pC2=1.0, eff_c1=1.0, eff_c2=2.0)
    with pytest.raises(RankError, match="moment system is singular"):
        solve_moment_system(spec)
    with pytest.raises(RankError, match="regime denominator"):
        decompose(spec)


def test_decompose_requires_the_complier_effect():
    # Even with no compliers the reference point is the complier effect.
    spec = MarginalSpec(pC1=0.0, pND1=0.5, pC2=1.0,
                        eff_c2=1.0, eff_nd1_1=1.0, eff_nd1_2=2.0)
    with pytest.raises(ConfigError, match="required here but absent"):
        decompose(spec)


def test_decompose_takes_a_regime_or_its_value_and_names_the_choices_otherwise():
    spec = MarginalSpec(pC1=0.8, pC2=0.8, eff_c1=3.0, eff_c2=2.0)
    for regime in Regime:
        assert decompose(spec, regime.value) == decompose(spec, regime)
    with pytest.raises(ConfigError, match=r"regime must be one of \['irrelevance', 'neither', 'next-best'\]"):
        decompose(ANCHOR, "none")


def test_late_coefficient_identity():
    # The overall coefficient on the complier effect is pC1 (pC2 + pND2) / Wbar;
    # check by finite differencing the total in eff_c1.
    for _ in range(50):
        spec = random_spec(rng)
        h = 1024.0  # power of two keeps the difference quotient clean
        bumped = MarginalSpec(**{**_spec_kwargs(spec), "eff_c1": spec.eff_c1 + h})
        t0 = decompose(spec)[0].total
        t1 = decompose(bumped)[0].total
        expected = spec.pC1 * (spec.pC2 + spec.pND2) / wbar(spec)
        assert (t1 - t0) / h == pytest.approx(expected, abs=1e-9)


def _spec_kwargs(spec: MarginalSpec) -> dict:
    return {
        name: getattr(spec, name)
        for name in (
            "pC1", "pID1", "pND1", "pC2", "pID2", "pND2",
            "eff_c1", "eff_c2", "eff_id1", "eff_id2",
            "eff_nd1_1", "eff_nd1_2", "eff_nd2_1", "eff_nd2_2",
        )
    }


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.05, 0.9), st.floats(0.0, 0.45), st.floats(0.0, 0.45),
    st.floats(0.05, 0.9), st.floats(0.0, 0.45), st.floats(0.0, 0.45),
    st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
)
def test_decomposition_identity_property(c1, id1, nd1, c2, id2, nd2, e1, e2):
    assume(c1 + id1 + nd1 <= 1.0 and c2 + id2 + nd2 <= 1.0)
    spec = MarginalSpec(
        pC1=c1, pID1=id1, pND1=nd1, pC2=c2, pID2=id2, pND2=nd2,
        eff_c1=e1, eff_c2=e2, eff_id1=e2 / 2, eff_id2=e1 / 2,
        eff_nd1_1=e1 + 1, eff_nd1_2=e2 + 1, eff_nd2_1=e1 - 1, eff_nd2_2=e2 - 1,
    )
    assume(abs(wbar(spec)) >= 0.05)
    beta1, beta2 = solve_moment_system(spec)
    dec1, dec2 = decompose(spec)
    assert abs(dec1.total - beta1) <= 1e-9 * max(1.0, abs(beta1))
    assert abs(dec2.total - beta2) <= 1e-9 * max(1.0, abs(beta2))


SWEEP_BASE = ANCHOR


def test_sweep_defier_share_frozen_rows():
    rows = bias_sweep(SWEEP_BASE, SweepAxis.DEFIER_SHARE, grid=[0.0, 0.2, 0.8], levels=[100.0])
    by_axis = {r.axis: r for r in rows}
    assert by_axis[0.0].bias == 0.0
    # p = 0.2: bias = 0.2 * 0.2 * 100 / (0.8 - 0.2).
    assert by_axis[0.2].bias == pytest.approx(4.0 / 0.6, abs=1e-9)
    assert by_axis[0.2].beta == pytest.approx(1000.0 + 4.0 / 0.6, abs=1e-9)
    # p = 0.8 collapses the denominator; the row is flagged, not raised.
    assert all(math.isnan(v) for v in (by_axis[0.8].beta, by_axis[0.8].late, by_axis[0.8].bias))


def test_sweep_effect_gap_axis():
    rows = bias_sweep(SWEEP_BASE, SweepAxis.EFFECT_GAP, grid=[0.0, 50.0, 100.0], levels=[0.2])
    biases = [r.bias for r in rows]
    assert biases[0] == 0.0
    assert biases == sorted(biases)
    assert rows[-1].bias == pytest.approx(4.0 / 0.6, abs=1e-9)


def test_sweep_next_best_variant_and_validation():
    rows = bias_sweep(SWEEP_BASE, SweepAxis.DEFIER_SHARE, grid=[0.0, 0.2], levels=[100.0], defier="nd1")
    assert rows[0].bias == 0.0
    assert not any(math.isnan(r.beta) for r in rows)
    with pytest.raises(ConfigError, match="defier"):
        bias_sweep(SWEEP_BASE, SweepAxis.DEFIER_SHARE, grid=[0.1], levels=[1.0], defier="at1")


def test_sweep_takes_an_axis_or_its_value_and_names_the_choices_otherwise():
    for axis in SweepAxis:
        rows = bias_sweep(SWEEP_BASE, axis.value, grid=[0.0, 0.2], levels=[0.1, 100.0])
        assert _row_bits(rows) == _row_bits(bias_sweep(SWEEP_BASE, axis, grid=[0.0, 0.2], levels=[0.1, 100.0]))
    with pytest.raises(ConfigError, match=r"axis must be one of \['defier-share', 'effect-gap'\], got 'share'"):
        bias_sweep(SWEEP_BASE, "share", grid=[0.1], levels=[1.0])


def test_sweep_builds_no_spec_per_grid_point(monkeypatch):
    # A grid point is checked value by value: the specs built (counted through __post_init__) must not grow with it.
    built = []
    post_init = MarginalSpec.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(MarginalSpec, "__post_init__", counting_post_init)
    counts = []
    for size in (11, 1000):
        built.clear()
        grid = [0.5 * i / size for i in range(size)]
        rows = bias_sweep(SWEEP_BASE, SweepAxis.DEFIER_SHARE, grid, levels=[100.0])
        assert len(rows) == size and not math.isnan(rows[1].beta)
        counts.append(len(built))
    assert counts[0] == counts[1], counts


def _row_bits(rows) -> list[tuple[str, ...]]:
    # float.hex tells -0.0 from 0.0 and writes every NaN as "nan".
    return [tuple(float(v).hex() for v in (r.axis, r.level, r.beta, r.late, r.bias)) for r in rows]


def test_sweep_matches_the_reference_bit_for_bit():
    # Grids reach past [0, 1], onto and around each defier's denominator root (the row is NaN within DEN_TOL of
    # it) and past EFFECT_BOUND with the gap; some specs leave slots absent that some points need.
    rng = np.random.default_rng(7)
    absent_sets = ((), ("eff_c1",), ("eff_c2",), ("eff_id2",), ("eff_nd2_1", "eff_nd2_2"), ("eff_id1", "eff_nd1_1"))
    # Library callers may pass ints, bools, signed zeros and non-finite values, which the CLI never does.
    odd = [0, 1, 2, -1, True, False, -0.0, math.nan, math.inf, -math.inf]
    gaps = [0.0, 1.0, -250.0, 3e100, -3e100, 4e100, -4e100, 4.000001e100, -1e101, 1e300] + odd
    counts = {"feasible": 0, "nan": 0, "near_root": 0}
    for trial in range(24):
        absent = absent_sets[trial % len(absent_sets)]
        effects = {slot: float(rng.uniform(-1000.0, 1000.0)) for slot in EFFECT_SLOTS if slot not in absent}
        base = random_spec(rng, effects=effects)
        for defier in ("id1", "nd1"):
            # The varied spec's denominator is a + b * p; its root sits at -a / b.
            if defier == "id1":
                a, b = base.pC2 + base.pND2, -(base.pC2 + base.pID2)
            else:
                a, b = base.pC2 + base.pND2, base.pID2 - base.pND2
            shares = [-0.1, -1e-12, 0.0, 0.05, 0.3, 0.5, 0.999, 1.0, 1.0 + 1e-12, 1.2] + odd
            if b != 0.0:
                shares += [-a / b + k * DEN_TOL / abs(b) for k in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)]
                counts["near_root"] += 0.0 <= -a / b <= 1.0
            for axis, grid, levels in ((SweepAxis.DEFIER_SHARE, shares, gaps), (SweepAxis.EFFECT_GAP, gaps, shares)):
                got = bias_sweep(base, axis, grid, levels, defier=defier)
                want = reference_sweep(base, axis, grid, levels, defier=defier)
                assert _row_bits(got) == _row_bits(want), (trial, defier, axis)
                nan = sum(math.isnan(r.beta) for r in got)
                counts["nan"] += nan
                counts["feasible"] += len(got) - nan
    assert min(counts.values()) > 0, counts
