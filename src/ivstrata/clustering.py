"""First-stage-sign clustering: collapse three fields into two arms, then
characterize what the resulting two-arm Wald ratio estimates.

The cross slopes of the first stage (a21 and a12) decide the collapse. A
significantly negative cross slope says instrument k pulls people *out* of
the other field, so field k is grouped with the control state; significantly
positive cross slopes say the instruments only shuffle people between the
two treated fields, which are then pooled against control. The clustered
estimand is again a weighted average of field effects plus defier
contamination, with fewer and simpler terms than the three-field
decomposition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .estimands import BiasTerm
from .exceptions import ConfigError, AssumptionError, RankError
from .identification import FirstStage
from .strata import DEN_TOL, MarginalGroup, Population, group_effect, group_prob


class ClusterScenario(enum.Enum):
    """A two-arm collapse of the three fields, one member per label.

    Each member is its label and its arm set `s1`: the original field values
    mapped to the pseudo-treatment arm, the rest of {0, 1, 2} forming the
    pseudo-control arm, or None when the scenario carries no collapse (no
    clustering needed, or the sign pattern is outside the catalogue).
    Control clustering keeps one treated field as `s1`.
    """

    CONTROL_1 = ("control-1", frozenset({1}))
    CONTROL_2 = ("control-2", frozenset({2}))
    TREATMENT = ("treatment", frozenset({1, 2}))
    NO_CLUSTERING = ("no-clustering", None)
    UNDEFINED = ("undefined", None)

    def __new__(cls, label, s1):
        member = object.__new__(cls)
        member._value_ = label
        member.s1 = s1
        return member

    def require_collapse(self) -> "ClusterScenario":
        """This scenario, if it collapses the fields into two arms; the
        clustered estimand and every two-arm estimator need one."""
        if self.s1 is None:
            raise ConfigError(
                f"no clustered estimand under scenario {self.label!r}; "
                "only control and treatment clustering define one"
            )
        return self

    @property
    def label(self) -> str:
        return self.value


class NegNegRule(enum.Enum):
    """Policy for the both-cross-slopes-negative pattern, which the
    scenario catalogue does not cover."""

    UNDEFINED = "undefined"
    LARGER_MAGNITUDE = "larger-magnitude"
    FAIL = "fail"


def _std_normal_cdf(x: float) -> float:
    """`statistics.NormalDist().cdf(x)`, bit for bit: its own formula at mean 0 and sd 1."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _sign(coef: float, se: Optional[float], sig_level: float) -> int:
    """Sign classification, exact when no standard error is supplied."""
    if se is not None and se < 0.0:
        raise ConfigError(f"standard error must be nonnegative, got {se}")
    if se is None or se == 0.0:
        return 0 if coef == 0.0 else (1 if coef > 0.0 else -1)
    p = 2.0 * (1.0 - _std_normal_cdf(abs(coef) / se))
    if p >= sig_level:
        return 0
    return 1 if coef > 0.0 else -1


DEFAULT_SIG_LEVEL = 0.05  # the sign tests' level in choose_clustering and `cluster --n`


def check_sig_level(sig_level: float) -> float:
    """`sig_level`, if it is a significance level."""
    if not (0.0 < sig_level < 1.0):
        raise ConfigError(f"significance level must be in (0, 1), got {sig_level}")
    return sig_level


def choose_clustering(
    fs: FirstStage,
    se21: Optional[float] = None,
    se12: Optional[float] = None,
    sig_level: float = DEFAULT_SIG_LEVEL,
    neg_neg_rule: NegNegRule = NegNegRule.UNDEFINED,
) -> ClusterScenario:
    """Map the signs of the cross slopes (a21, a12) to a scenario.

    Signs come from two-sided z-tests at `sig_level` when standard errors
    are given, otherwise from exact comparison with zero. The catalogue:
    a negative cross slope (other one zero or positive) selects control
    clustering of the *other* field; a zero-zero pattern means no
    clustering is needed; any remaining pattern without a negative slope
    pools the treated fields. Both-negative is delegated to `neg_neg_rule`.

    Raises
    ------
    AssumptionError
        Under NegNegRule.FAIL when both cross slopes test negative.
    """
    check_sig_level(sig_level)
    s21 = _sign(fs.a21, se21, sig_level)
    s12 = _sign(fs.a12, se12, sig_level)
    if s21 < 0 and s12 < 0:
        if neg_neg_rule is NegNegRule.FAIL:
            raise AssumptionError(
                f"both cross slopes are negative (a21={fs.a21:.6g}, a12={fs.a12:.6g}); "
                "no catalogued clustering applies"
            )
        if neg_neg_rule is NegNegRule.LARGER_MAGNITUDE:
            return ClusterScenario.CONTROL_1 if fs.a21 <= fs.a12 else ClusterScenario.CONTROL_2
        return ClusterScenario.UNDEFINED
    if s21 < 0:
        return ClusterScenario.CONTROL_1
    if s12 < 0:
        return ClusterScenario.CONTROL_2
    if s21 == 0 and s12 == 0:
        return ClusterScenario.NO_CLUSTERING
    return ClusterScenario.TREATMENT


@dataclass(frozen=True)
class ClusterDecomposition:
    """A clustered Wald estimand split into average-effect terms and bias.

    Both are `BiasTerm`s; an average-effect term has sign +1 and carries
    its effect in `delta`.
    """

    pi: float
    a_terms: tuple[BiasTerm, ...]
    bias_terms: tuple[BiasTerm, ...]

    @property
    def a_total(self) -> float:
        return math.fsum(t.contribution for t in self.a_terms)

    @property
    def bias(self) -> float:
        return math.fsum(t.contribution for t in self.bias_terms)

    @property
    def total(self) -> float:
        return self.a_total + self.bias


def _wiring(scenario: ClusterScenario):
    """Which marginal groups enter the clustered estimand, and how.

    Returns `(pi_groups, a_rows, bias_rows, constant_bias_label)`:
    the groups whose union probability pi is the clustered first stage;
    two average-effect rows and two defier bias rows, each
    `(label, groups, j, k, sign)` weighting E[y(j)-y(k)] over the union of
    `groups`; and the label of the single bias term left when effects are
    constant. Raises ConfigError for scenarios without a clustered estimand.
    """
    g = MarginalGroup
    if scenario.require_collapse() is ClusterScenario.TREATMENT:
        return (
            (g.C1, g.C2, g.ID1, g.ID2),
            (("C1|ID2", (g.C1, g.ID2), 1, 0, 1), ("C2|ID1", (g.C2, g.ID1), 2, 0, 1)),
            (("w~3", (g.ND1,), 1, 2, 1), ("w~4", (g.ND2,), 1, 2, -1)),
            "w.2",
        )
    (f,) = scenario.s1
    o = 3 - f
    return (
        (g.C1, g.C2, g.ND1, g.ND2),
        (
            (f"C{f}|ND{o}", (g[f"C{f}"], g[f"ND{o}"]), f, 0, 1),
            (f"C{o}|ND{f}", (g[f"C{o}"], g[f"ND{f}"]), f, o, 1),
        ),
        (("w~1", (g[f"ID{f}"],), o, 0, 1), ("w~2", (g[f"ID{o}"],), o, 0, -1)),
        "w.1",
    )


def _pi(pop: Population, groups: tuple[MarginalGroup, ...], scenario: ClusterScenario) -> float:
    pi = group_prob(pop, groups)
    if pi <= DEN_TOL:
        raise RankError(
            f"clustered first stage is zero under scenario {scenario.label!r}: "
            f"P({' | '.join(g.name for g in groups)}) = {pi:.6g}"
        )
    return pi


def _terms(pop: Population, pi: float, rows, effect) -> tuple[BiasTerm, ...]:
    """One term per wiring row whose groups have positive probability;
    `effect(groups, j, k)` gives its E[y(j)-y(k)]."""
    terms = []
    for label, groups, j, kk, sign in rows:
        p = group_prob(pop, groups)
        if p != 0.0:
            terms.append(BiasTerm(label=label, weight=p / pi, delta=effect(groups, j, kk), sign=sign))
    return tuple(terms)


def cluster_estimand_formula(pop: Population, scenario: ClusterScenario) -> ClusterDecomposition:
    """Exact clustered Wald estimand decomposed over marginal groups.

    Control clustering of field f (other field o): the estimand averages
    E[y(f)-y(0)] over C(f) with ND(o) and E[y(f)-y(o)] over C(o) with ND(f),
    both weighted by group share over the union probability pi, plus
    irrelevance-defier bias +P(IDf)/pi * E[y(o)-y(0) | IDf] and
    -P(IDo)/pi * E[y(o)-y(0) | IDo]. Treatment clustering mirrors with the
    roles of irrelevance and next-best defiers exchanged.
    """
    pi_groups, a_rows, bias_rows, _ = _wiring(scenario)
    pi = _pi(pop, pi_groups, scenario)
    effect = partial(group_effect, pop)
    return ClusterDecomposition(
        pi=pi, a_terms=_terms(pop, pi, a_rows, effect), bias_terms=_terms(pop, pi, bias_rows, effect)
    )


def _constant_effects(pop: Population) -> tuple[float, float]:
    """The common (E[y(1)-y(0)], E[y(2)-y(0)]) across positive-probability
    strata; levels may differ, effects may not (exact comparison)."""
    live = [e for e in pop.entries if e.prob > 0.0]
    tau1 = live[0].means[1] - live[0].means[0]
    tau2 = live[0].means[2] - live[0].means[0]
    for e in live[1:]:
        if e.means[1] - e.means[0] != tau1 or e.means[2] - e.means[0] != tau2:
            raise ConfigError(
                f"stratum {e.stratum.name} breaks constant effects: "
                f"({e.means[1] - e.means[0]:.6g}, {e.means[2] - e.means[0]:.6g}) "
                f"differs from ({tau1:.6g}, {tau2:.6g})"
            )
    return tau1, tau2


def cluster_estimand_constant_effects(pop: Population, scenario: ClusterScenario) -> ClusterDecomposition:
    """Clustered estimand when treatment effects are constant across strata.

    The contamination collapses to a single term driven by the *difference*
    of the two defier shares, so equal shares cancel the bias exactly even
    though both defier types are present.
    """
    pi_groups, a_rows, bias_rows, bias_label = _wiring(scenario)
    tau = (0.0, *_constant_effects(pop))
    pi = _pi(pop, pi_groups, scenario)
    a_terms = _terms(pop, pi, a_rows, lambda groups, j, kk: tau[j] - tau[kk])
    # Both bias rows share one contrast; only the difference of their shares survives.
    (_, plus, j, kk, _), (_, minus, _, _, _) = bias_rows
    diff = group_prob(pop, plus) - group_prob(pop, minus)
    bias_terms = ()
    if diff != 0.0:
        sign = 1 if diff > 0.0 else -1
        bias_terms = (BiasTerm(label=bias_label, weight=abs(diff) / pi, delta=tau[j] - tau[kk], sign=sign),)
    return ClusterDecomposition(pi=pi, a_terms=a_terms, bias_terms=bias_terms)


def check_cluster_exclusion(pop: Population, scenario: ClusterScenario) -> tuple[str, ...]:
    """The strata that make the collapsed instrument non-excludable, by
    name; an empty tuple means the exclusion restriction holds.

    Control clustering relabels field o observations as controls, so any
    irrelevance-defier stratum whose field-o outcome differs from its
    control outcome makes the pseudo-control arm instrument-dependent.
    Treatment clustering pools the treated fields, so any next-best-defier
    stratum with different outcomes across the two treated fields breaks
    the pooled arm. Comparisons are exact.
    """
    (_, (first,), j, kk, _), (_, (second,), _, _, _) = _wiring(scenario)[2]
    members = first.members() | second.members()
    return tuple(
        e.stratum.name for e in pop.entries if e.prob > 0.0 and e.stratum in members and e.means[j] != e.means[kk]
    )


class Semantics(enum.Enum):
    """What population the clustered Wald oracle targets."""

    POOLED = "pooled"
    GROUP_RELEVANT = "group-relevant"


def cluster_wald_oracle(pop: Population, scenario: ClusterScenario, semantics: Semantics = Semantics.POOLED) -> float:
    """Exact clustered Wald value, computed without any decomposition.

    POOLED takes the two-arm Wald ratio literally: expectations of the
    collapsed outcome and treatment indicator over the full population and
    assignment distribution, cell by instrument cell. GROUP_RELEVANT
    instead averages each stratum's own contrast over the marginal groups
    the decomposition says are relevant, which matches `cluster_estimand_formula`
    whenever no stratum is double-counted by the group union (control: no
    double compliers; treatment: additionally no irrelevance defiers).
    """
    if semantics is Semantics.POOLED:
        return _pooled_wald(pop, scenario)
    return _group_relevant_wald(pop, scenario)


def _pooled_wald(pop: Population, scenario: ClusterScenario) -> float:
    s1 = scenario.require_collapse().s1
    p_z1 = math.fsum(pop.assignment[z] for z in s1)
    p_z0 = 1.0 - p_z1
    if p_z1 <= DEN_TOL or p_z0 <= DEN_TOL:
        raise RankError(
            f"instrument arm probabilities ({p_z0:.6g}, {p_z1:.6g}) leave an empty cell "
            f"under scenario {scenario.label!r}"
        )
    ey = [0.0, 0.0]
    ed = [0.0, 0.0]
    for e in pop.entries:
        for z in range(3):
            w = e.prob * pop.assignment[z]
            if w == 0.0:
                continue
            d = e.stratum.trajectory[z]
            cell = 1 if z in s1 else 0
            ey[cell] += w * e.means[d]
            ed[cell] += w * (1.0 if d in s1 else 0.0)
    first_stage = ed[1] / p_z1 - ed[0] / p_z0
    if abs(first_stage) <= DEN_TOL:
        raise RankError(
            f"pooled first stage is {first_stage:.6g} under scenario {scenario.label!r}; "
            "the Wald ratio is undefined"
        )
    return (ey[1] / p_z1 - ey[0] / p_z0) / first_stage


def _group_relevant_wald(pop: Population, scenario: ClusterScenario) -> float:
    den_groups, a_rows, bias_rows, _ = _wiring(scenario)
    contrasts = {grp: (j, kk, sign) for _, groups, j, kk, sign in a_rows + bias_rows for grp in groups}
    num = 0.0
    for e in pop.entries:
        if e.prob == 0.0:
            continue
        for grp, (j, kk, sign) in contrasts.items():
            if e.stratum in grp.members():
                num += sign * e.prob * (e.means[j] - e.means[kk])
    den = math.fsum(group_prob(pop, (grp,)) for grp in den_groups)
    if den <= DEN_TOL:
        raise RankError(
            f"relevant-group mass is {den:.6g} under scenario {scenario.label!r}; "
            "the Wald ratio is undefined"
        )
    return num / den
