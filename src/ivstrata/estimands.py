"""Field-level IV estimands: the exact moment-system solution and its
complier-LATE-plus-bias decompositions.

The estimand of a two-stage least squares regression of y on indicators for
fields 1 and 2, instrumented by indicators for instrument states 1 and 2, is
the solution of a 2x2 population moment system in the marginal shares and
group effects. `solve_moment_system` computes that solution directly and is
the independent oracle; `decompose` reproduces it as a complier LATE plus
labeled defier-weight terms under three assumption regimes, and `bias_sweep`
tabulates the bias over share and effect-gap grids.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .exceptions import AssumptionError, ConfigError, RankError
from .strata import DEN_TOL, SWAPPED_NAME, MarginalSpec, absent_effect, as_enum, check_effect, check_share


class Regime(enum.Enum):
    """Which auxiliary assumption is maintained when decomposing an estimand or inverting a first stage.

    NEXT_BEST_ONLY assumes away next-best defiers (requires pND1=pND2=0),
    IRRELEVANCE_ONLY assumes away irrelevance defiers (pID1=pID2=0), and
    NEITHER imposes nothing beyond exclusion, independence, rank and
    monotonicity.
    """

    NEITHER = "neither"
    NEXT_BEST_ONLY = "next-best"
    IRRELEVANCE_ONLY = "irrelevance"

    __hash__ = object.__hash__  # as strata.JointStratum's


@dataclass(frozen=True)
class BiasTerm:
    """One labeled bias term: signed weight times an effect difference."""

    label: str
    weight: float  # >= 0; the denominator's sign is folded into `sign`
    delta: float
    sign: int

    @property
    def contribution(self) -> float:
        return self.sign * self.weight * self.delta


@dataclass(frozen=True)
class BiasDecomposition:
    """A complier LATE plus bias terms, summing to the IV estimand.

    total = late + sum(sign * weight * delta) holds by construction;
    `denominator` is the regime's weight denominator before taking
    absolute values.
    """

    late: float
    terms: tuple[BiasTerm, ...]
    denominator: float
    total: float

    @property
    def bias(self) -> float:
        return math.fsum(t.contribution for t in self.terms)


# The nine-term table for the first instrument's estimand. Each row:
# (label, (share, share) weight product, (slot, slot) effect difference, sign).
# The other estimand follows by swapping instrument labels (strata.SWAPPED_NAME).
_TERMS = (
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

# The defier shares each regime sets to zero.
_RULED_OUT = {Regime.IRRELEVANCE_ONLY: ("pID1", "pID2"), Regime.NEXT_BEST_ONLY: ("pND1", "pND2"), Regime.NEITHER: ()}
_REGIME_TERMS = {regime: tuple(t for t in _TERMS if set(t[1]).isdisjoint(out)) for regime, out in _RULED_OUT.items()}


def _denominator(v: Mapping[str, float]) -> float:
    # One formula for every regime: `_check_regime` makes the shares a regime
    # excludes zero, so their products add exact zeros and a nonzero value is
    # the regime's own closed form bit for bit (term order matters for that).
    return (
        v["pC1"] * v["pC2"]
        + v["pC1"] * v["pND2"]
        + v["pND1"] * v["pC2"]
        + v["pND1"] * v["pID2"]
        + v["pID1"] * v["pND2"]
        - v["pID1"] * v["pID2"]
    )


def solve_moment_system(spec: MarginalSpec) -> tuple[float, float]:
    """Exact IV estimands (beta1, beta2) from the population moment system.

    The two instrument contrasts give a 2x2 linear system: the coefficient
    matrix holds the treatment-share responses of each field indicator to
    each instrument, and the right side holds the corresponding outcome
    responses. This is closed-form algebra with no decomposition structure,
    which is what makes it an independent oracle.

    Raises
    ------
    RankError
        If the system determinant is within 1e-10 of zero (the instrument
        relevance / rank condition fails).
    ConfigError
        If an effect slot multiplied by a nonzero share is absent.
    """
    a11 = spec.pC1 + spec.pND1
    a21 = spec.pID1 - spec.pND1
    a12 = spec.pID2 - spec.pND2
    a22 = spec.pC2 + spec.pND2
    det = a11 * a22 - a21 * a12
    if abs(det) <= DEN_TOL:
        raise RankError(f"moment system is singular (determinant {det!r}); instruments do not shift choices")

    def rf(pC: float, pND: float, pID: float, c: str, nd_own: str, nd_other: str, idg: str) -> float:
        # Outcome response to one instrument contrast: compliers move 0->k,
        # next-best defiers move k'->k, irrelevance defiers move 0->k'.
        total = 0.0
        if pC != 0.0:
            total += pC * spec.effect(c)
        if pND != 0.0:
            total += pND * (spec.effect(nd_own) - spec.effect(nd_other))
        if pID != 0.0:
            total += pID * spec.effect(idg)
        return total

    b1 = rf(spec.pC1, spec.pND1, spec.pID1, "eff_c1", "eff_nd1_1", "eff_nd1_2", "eff_id1")
    b2 = rf(spec.pC2, spec.pND2, spec.pID2, "eff_c2", "eff_nd2_2", "eff_nd2_1", "eff_id2")
    beta1 = (b1 * a22 - a21 * b2) / det
    beta2 = (a11 * b2 - b1 * a12) / det
    return beta1, beta2


def _check_regime(spec: MarginalSpec, regime: Regime) -> None:
    ruled_out = _RULED_OUT[regime]
    if any(getattr(spec, name) != 0.0 for name in ruled_out):
        got = ", ".join(f"{name}={getattr(spec, name)}" for name in ruled_out)
        raise AssumptionError(f"regime {regime.value!r} requires {'='.join(ruled_out)}=0, got {got}")


def _first_terms(values: Mapping[str, float | None], regime: Regime, swapped: bool = False):
    """The first estimand's denominator, LATE and (label, omega, delta, sign) terms, each adding sign*omega*delta,
    from `values`, a spec's fields by name (its `vars`, or a sweep point's)."""
    den = _denominator(values)
    if abs(den) <= DEN_TOL:
        raise RankError(f"degenerate identification: regime denominator {den!r} is near zero")
    late = values["eff_c1"]
    if late is None:
        raise absent_effect("eff_c1", swapped)
    terms = []
    for label, (sa, sb), (ea, eb), base_sign in _REGIME_TERMS[regime]:
        product = values[sa] * values[sb]
        va, vb = values[ea], values[eb]
        if va is not None and vb is not None:
            delta = va - vb
        elif product != 0.0:
            raise absent_effect(ea if va is None else eb, swapped)
        else:  # the weight is exactly zero, so delta is immaterial: demand no effect slot for it
            delta = 0.0
        terms.append((label, product / den, delta, base_sign))
    return den, late, terms


def _decompose_first(values: Mapping[str, float | None], regime: Regime, swapped: bool = False) -> BiasDecomposition:
    den, late, raw = _first_terms(values, regime, swapped)
    # A BiasTerm's weight is >= 0: fold the denominator's sign into the term sign.
    terms = tuple(BiasTerm(lb, -w, d, -s) if w < 0.0 else BiasTerm(lb, w, d, s) for lb, w, d, s in raw)
    return BiasDecomposition(late, terms, den, total=late + math.fsum(t.contribution for t in terms))


def decompose(spec: MarginalSpec, regime: Regime | str = Regime.NEITHER) -> tuple[BiasDecomposition, BiasDecomposition]:
    """Decompose both IV estimands into complier LATE plus bias terms.

    The term list mirrors the regime's closed form exactly: 2 terms when
    next-best defiers are assumed away, 4 under irrelevance only, all 9
    otherwise (weights may be zero). The second estimand's decomposition is
    the first one evaluated on the spec's fields with labels 1 and 2 swapped.

    Raises
    ------
    ConfigError
        If `regime` is neither a Regime nor one's value.
    AssumptionError
        If the spec violates the regime's share restrictions.
    RankError
        If the regime denominator is within 1e-10 of zero.
    """
    regime = as_enum(Regime, regime, "regime")
    _check_regime(spec, regime)
    values = vars(spec)
    relabeled = {name: values[other] for name, other in SWAPPED_NAME.items()}
    return _decompose_first(values, regime), _decompose_first(relabeled, regime, swapped=True)


class SweepAxis(enum.Enum):
    DEFIER_SHARE = "defier-share"
    EFFECT_GAP = "effect-gap"


class SweepDefier(enum.Enum):
    """The defier group whose share or effect gap `bias_sweep` varies."""

    ID1 = "id1"
    ND1 = "nd1"


@dataclass(frozen=True)
class SweepRow:
    """One sweep evaluation: NaN entries flag an infeasible grid point."""

    axis: float
    level: float
    beta: float
    late: float
    bias: float


# Per varied defier: its share, the other defier's share (held at 0), the effect the gap moves away from the
# C1 effect and how, and the effect held at the C2 effect, so that only the first bias delta is nonzero.
_SWEEP_FIELDS = {
    SweepDefier.ID1: ("pID1", "pND1", "eff_id2", operator.sub, "eff_id1"),
    SweepDefier.ND1: ("pND1", "pID1", "eff_nd1_1", operator.add, "eff_nd1_2"),
}


def bias_sweep(
    base: MarginalSpec, axis: SweepAxis | str, grid: Sequence[float], levels: Sequence[float],
    defier: SweepDefier | str = SweepDefier.ID1,
) -> tuple[SweepRow, ...]:
    """Tabulate the first estimand's bias over a share/effect-gap grid.

    For DEFIER_SHARE the grid varies the defier share p (P(ID1) by default,
    P(ND1) with defier="nd1") with P(C1)=1-p, holding the instrument-2 side
    of `base` fixed; each level is an effect gap between compliers and the
    varied defier group. EFFECT_GAP transposes the roles: the grid varies
    the gap, each level is a defier share. Rows come out in grid-major
    order. A grid point whose spec would not load (so every point of a base
    without both complier effects) or whose denominator is within 1e-10 of
    zero yields a NaN-valued row rather than being dropped. An `axis` or
    `defier` outside its choices raises ConfigError.
    """
    on_shares = as_enum(SweepAxis, axis, "axis") is SweepAxis.DEFIER_SHARE
    share, other, varied, move, kept = _SWEEP_FIELDS[as_enum(SweepDefier, defier, "defier")]
    points = [(g, lv, g, lv) if on_shares else (g, lv, lv, g) for g in grid for lv in levels]  # (axis, level, p, gap)
    # No always/never takers on the varied instrument: compliers absorb the complement. A point's spec loads when
    # p and the varied effect pass their checks: 1 - p then lies in [0, 1] and the instrument-1 sum within an ulp of 1.
    values = {**vars(base), other: 0.0}
    rows = []
    for axis_value, level, p, gap in points:
        try:
            values["pC1"] = 1.0 - p
            values[share] = p
            values[varied] = effect = move(base.effect("eff_c1"), gap)
            values[kept] = base.effect("eff_c2")
            check_share(share, p)
            check_effect(varied, effect)
            _, late, terms = _first_terms(values, Regime.NEITHER)
            beta = late + math.fsum([s * omega * delta for _, omega, delta, s in terms])
            rows.append(SweepRow(axis=axis_value, level=level, beta=beta, late=late, bias=beta - late))
        except (ConfigError, RankError):
            rows.append(SweepRow(axis=axis_value, level=level, beta=math.nan, late=math.nan, bias=math.nan))
    return tuple(rows)
