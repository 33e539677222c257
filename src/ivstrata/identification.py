"""First-stage identities, point identification under a maintained
assumption, and partial-identification bounds for defier shares.

Regressing each field indicator on the two instrument indicators gives six
coefficients. Their population values are share combinations: the intercepts
are the always-taker shares, the own-instrument slopes combine compliers and
next-best defiers, and the cross-instrument slopes are the *difference*
between irrelevance and next-best defier shares. The cross slopes therefore
bound, but do not point-identify, the defier shares; maintaining one of the
auxiliary assumptions collapses the bounds to a point and makes the sign of
the cross slope a refutation test of the other assumption.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields

from .estimands import Regime
from .exceptions import AssumptionError, ConfigError, InfeasibleError
from .strata import SHARE_ATOL, MarginalGroup


@dataclass(frozen=True)
class FirstStage:
    """The six first-stage coefficients.

    `aJZ` is the coefficient of the instrument-Z indicator in the linear
    projection of the field-J indicator (Z=0 denotes the intercept), so
    a10, a11, a12 belong to the field-1 equation and a20, a21, a22 to the
    field-2 equation.

    The constructor is deliberately permissive: estimated coefficients can
    stray outside the population inequalities. Call `validate()` before
    treating an instance as population-consistent.
    """

    a10: float
    a11: float
    a12: float
    a20: float
    a21: float
    a22: float

    def __post_init__(self):
        for name in COEFFICIENTS:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"first-stage coefficient {name}={v} is not finite")
            if type(v) is not float:  # stored as float, as StratumEntry's fields are; a float is kept as it is
                object.__setattr__(self, name, float(v))

    @property
    def nt1(self) -> float:
        """Implied never-taker share for instrument 1."""
        return 1.0 - self.a10 - self.a20 - self.a11 - self.a21

    @property
    def nt2(self) -> float:
        return 1.0 - self.a10 - self.a20 - self.a22 - self.a12

    def validate(self) -> "FirstStage":
        """Check the population inequalities; raise InfeasibleError listing
        every violated one."""
        checks = (
            ("a10", self.a10, 0.0, 1.0),
            ("a20", self.a20, 0.0, 1.0),
            ("a11", self.a11, 0.0, 1.0),
            ("a22", self.a22, 0.0, 1.0),
            ("a21", self.a21, -1.0, 1.0),
            ("a12", self.a12, -1.0, 1.0),
            ("implied P(NT1)", self.nt1, 0.0, 1.0),
            ("implied P(NT2)", self.nt2, 0.0, 1.0),
        )
        violations = [
            f"{name} = {value:.6g} outside [{lo:g}, {hi:g}]"
            for name, value, lo, hi in checks
            if value < lo - SHARE_ATOL or value > hi + SHARE_ATOL
        ]
        if violations:
            raise InfeasibleError("first stage is not population-consistent: " + "; ".join(violations))
        return self


# The coefficient names in field order: a10, a11, a12, a20, a21, a22.
COEFFICIENTS = tuple(f.name for f in fields(FirstStage))


def first_stage_from_shares(shares: Mapping[MarginalGroup, float]) -> FirstStage:
    """Population first-stage coefficients implied by marginal group shares."""
    g = MarginalGroup
    return FirstStage(
        a10=shares[g.AT1],
        a11=shares[g.C1] + shares[g.ND1],
        a12=shares[g.ID2] - shares[g.ND2],
        a20=shares[g.AT2],
        a21=shares[g.ID1] - shares[g.ND1],
        a22=shares[g.C2] + shares[g.ND2],
    )


def shares_from_first_stage(fs: FirstStage, maintained: Regime) -> dict[MarginalGroup, float]:
    """Point-identify all twelve group shares under a maintained assumption.

    Maintaining next-best sets the next-best defier shares to zero, so the
    cross slopes *are* the irrelevance defier shares; maintaining
    irrelevance sets the irrelevance shares to zero, so the cross slopes are
    the negated next-best shares. Either way every share must land in
    [0, 1], and under next-best each irrelevance defier group must fit in the
    other instrument's compliers (C1ID2 and ID1C2 comply with the other
    instrument); any share that does not refutes the maintained assumption.

    Raises
    ------
    ConfigError
        If `maintained` is Regime.NEITHER, which identifies no point.
    AssumptionError
        Listing each share inequality the data violate (the empirical test
        verdict). Exit code 3 at the CLI.
    """
    if maintained is Regime.NEXT_BEST_ONLY:
        nd1, nd2 = 0.0, 0.0
    elif maintained is Regime.IRRELEVANCE_ONLY:
        nd1, nd2 = -fs.a21, -fs.a12
    else:
        raise ConfigError(f"regime {maintained.value!r} does not point-identify the group shares")
    g = MarginalGroup
    shares = {
        g.C1: fs.a11 - nd1,
        g.ID1: fs.a21 + nd1,
        g.ND1: nd1,
        g.C2: fs.a22 - nd2,
        g.ID2: fs.a12 + nd2,
        g.ND2: nd2,
        g.AT1: fs.a10,
        g.AT2: fs.a20,
        g.NT1: fs.nt1,
        g.NT2: fs.nt2,
        g.OT1: fs.a20 - nd1,
        g.OT2: fs.a10 - nd2,
    }
    violations = [
        f"P({grp.name}) = {v:.6g} outside [0, 1]"
        for grp, v in shares.items()
        if v < -SHARE_ATOL or v > 1.0 + SHARE_ATOL
    ]
    if maintained is Regime.NEXT_BEST_ONLY:  # under irrelevance both ID shares are 0 and this is P(Ck) >= 0
        violations += [
            f"P({d.name}) = {shares[d]:.6g} exceeds P({c.name}) = {shares[c]:.6g}"
            for d, c in ((g.ID2, g.C1), (g.ID1, g.C2))
            if shares[d] > shares[c] + SHARE_ATOL
        ]
    if violations:
        raise AssumptionError(f"data refute maintained assumption {maintained.value!r}: " + "; ".join(violations))
    # Clamp float dust so downstream probability checks see clean values.
    return {grp: min(1.0, max(0.0, v)) for grp, v in shares.items()}


# The four defier groups, in the order of every bounds mapping.
_DEFIERS = (MarginalGroup.ND1, MarginalGroup.ID1, MarginalGroup.ND2, MarginalGroup.ID2)


def _polygon(a10, a11, a12, a20, a21, a22):
    """Box [l1, h1] x [l2, h2] and joint cap u of the `defier_bounds` polygon
    in any units, exact on grid integers; a lower end of 0 is int 0."""
    l1, l2 = max(0, -a21), max(0, -a12)
    u = min(a11 - a12, a22 - a21)
    return l1, min(a20, u - l2), l2, min(a10, u - l1), u


def defier_bounds(fs: FirstStage) -> dict[MarginalGroup, tuple[float, float]]:
    """Sharp bounds [lo, hi] on the defier shares from a first stage, keyed ND1, ID1, ND2, ID2.

    Given the two next-best defier shares n1 = P(ND1), n2 = P(ND2) and the
    double-complier share, the six coefficients pin the other seven joint
    strata. All ten are nonnegative for some double-complier share iff the
    implied never-taker shares are (which `FirstStage.validate` checks) and

        max(0, -a21) <= n1 <= a20,   max(0, -a12) <= n2 <= a10,
        n1 + n2 <= U = min(a11 - a12, a22 - a21)   (the joint cap).

    Projecting that set onto each axis gives the sharp intervals

        P(ND1) in [max(0, -a21), min(a20, U - max(0, -a12))]
        P(ND2) in [max(0, -a12), min(a10, U - max(0, -a21))]

    and P(IDk) = cross slope + P(NDk) translates each. Every endpoint is
    attained by some population. The per-instrument cap min(a11, a20) is
    not sharp; its own-slope term is implied, since U - max(0, -a12) <= a11.

    Raises
    ------
    InfeasibleError
        If an interval inverts by more than SHARE_ATOL: no population
        satisfying the maintained choice model can produce this first stage.
    """
    fs.validate()
    l1, h1, l2, h2, u = map(float, _polygon(fs.a10, fs.a11, fs.a12, fs.a20, fs.a21, fs.a22))
    intervals = []
    for k, cross, nd_lo, nd_hi in ((1, fs.a21, l1, h1), (2, fs.a12, l2, h2)):
        if nd_lo > nd_hi + SHARE_ATOL:
            raise InfeasibleError(
                f"no feasible P(ND{k}): requires at least {nd_lo:.6g} from the cross slope "
                f"but at most {nd_hi:.6g} from the other-field intercept and the joint cap "
                f"P(ND1) + P(ND2) <= min(a11 - a12, a22 - a21) = {u:.6g}"
            )
        nd_hi = max(nd_hi, nd_lo)  # float dust within SHARE_ATOL
        intervals += [(nd_lo, nd_hi), (cross + nd_lo, cross + nd_hi)]
    return dict(zip(_DEFIERS, intervals))


DEFAULT_SCAN_STEP = 0.05  # the grid step of feasible_set_scan and `bounds --scan`


def feasible_set_scan(fs: FirstStage, step: float = DEFAULT_SCAN_STEP) -> dict[MarginalGroup, tuple[float, float]]:
    """Attained defier-share ranges [lo, hi] from exact feasibility on a grid, keyed ND1, ID1, ND2, ID2.

    Keeps every probability vector over the ten joint strata on the 1/k
    grid, k = round(1/step), that sums to one and reproduces all six
    first-stage coefficients within step/2 (one or two grid values m per
    coefficient), and reports the min/max of each defier share over the
    kept set. For each combination of m values, all ten masses stay
    nonnegative for some double-complier mass iff the next-best defier
    masses lie in the `defier_bounds` polygon of the m values and
    u >= m10 + m20 + m11 + m22 - k. So n1 and n2 each range over an
    interval; cost and memory do not depend on `step`. The scan shares the
    polygon with `defier_bounds`, so the independent oracles are the LP
    bounds and the outer-product scan in the tests.

    Raises
    ------
    ConfigError
        If step is outside [1e-15, 0.1].
    InfeasibleError
        If the kept set is empty (the first stage is infeasible at this
        resolution).
    """
    # At k = 1e15 the product alpha * k may already be off by k * 2**-53, a
    # tenth of a grid unit; past k = 2**53 grid values are not representable.
    if not (1e-15 <= step <= 0.1):
        raise ConfigError(f"scan step must be in [1e-15, 0.1], got {step}")
    k = round(1.0 / step)
    tol = k * step / 2.0 + 1e-9  # grid units; half-step match window, boundary-inclusive

    def candidates(alpha: float) -> range:
        target = alpha * k
        # No kept cell has a value outside [-k, k]; this also keeps ceil off inf.
        if abs(target) - tol > k:
            return range(0)
        return range(math.ceil(target - tol), math.floor(target + tol) + 1)

    lo, hi = [math.inf] * 4, [-math.inf] * 4  # indexed like _DEFIERS
    grid = map(candidates, (fs.a10, fs.a11, fs.a12, fs.a20, fs.a21, fs.a22))
    for m10, m11, m12, m20, m21, m22 in itertools.product(*grid):
        l1, h1, l2, h2, u = _polygon(m10, m11, m12, m20, m21, m22)
        if u >= m10 + m20 + m11 + m22 - k and l1 <= h1 and l2 <= h2:
            for i, (first, last) in enumerate(((l1, h1), (m21 + l1, m21 + h1), (l2, h2), (m12 + l2, m12 + h2))):
                lo[i] = min(lo[i], first / k)
                hi[i] = max(hi[i], last / k)
    if lo[0] == math.inf:  # no kept cell
        raise InfeasibleError(
            f"no stratum probability vector on the 1/{k} grid reproduces these "
            f"first-stage coefficients within {step / 2:g}"
        )
    return dict(zip(_DEFIERS, zip(lo, hi)))
