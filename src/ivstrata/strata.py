"""Population model: joint behavioral strata and their marginal groups.

Setting: three mutually exclusive fields 0, 1, 2 (0 is the reference) and a
randomly assigned instrument Z in {0, 1, 2}. An individual's behavior is a
trajectory (d0, d1, d2) of potential field choices, one per instrument
state. Whoever chooses field j under some assignment chooses j when
assigned j: d_z = j implies d_j = j, z = 0 counting as assignment to field
0. For instrument k and k' the other non-reference field, that is (R1)
d0 = k implies dk = k, (R2) dk' = k implies dk = k and (R3) dk = 0 implies
d0 = 0. R1 alone admits 15 of the 27 triples; all three admit ten. Those
ten joint strata, with probabilities and per-field mean outcomes, are the
generative ground truth everything else in the package consumes, and the
defier bounds are sharp relative to this ten-type model.

Marginal behavioral groups (compliers, defiers, takers) are defined per
instrument purely by trajectory predicates, so membership never depends on
labels: for instrument k with k' the other non-reference field,

* complier        C_k : d0 = 0 and dk = k
* irrelevance defier ID_k : d0 = 0 and dk = k'   (pushed into the wrong field)
* next-best defier  ND_k : d0 = k' and dk = k    (complies, but from k', not 0)
* always taker     AT_k : d0 = k and dk = k
* never taker      NT_k : d0 = 0 and dk = 0
* other taker      OT_k : d0 = k' and dk = k'

By R3 no stratum has (d0, dk) = (k', 0): the six kinds split the ten strata.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields
from typing import Optional

from .exceptions import ConfigError

# Fields and instruments are plain ints in {0,1,2}; validated at boundaries.
Field = int
Instrument = int

# Tolerances shared by every module.
PROB_SUM_TOL = 1e-12  # probability vectors must sum to 1 this tightly; never renormalized
SHARE_ATOL = 1e-9  # slack for float dust when shares derive from arithmetic
DEN_TOL = 1e-10  # singularity threshold for determinants and estimand denominators
RANK_TOL = 3 * 2.0**-52  # a k x k count matrix N is singular to float precision when |det N| <= RANK_TOL ||N||_F^k
# The largest magnitude of a stratum mean or noise sd. An effect is a mixture of differences of two means, at most
# twice this, and rounding can carry a mixture a few units in the last place past that: MarginalSpec effects may
# reach EFFECT_BOUND. The README shows why every number computed from such inputs stays finite.
MAX_MAGNITUDE = 1e100
EFFECT_BOUND = 4 * MAX_MAGNITUDE
# The largest sample size or replication count: numpy describes no array past
# intp-max (sys.maxsize) bytes, and replicate's result tables are reps x 8 floats.
_MAX_COUNT = sys.maxsize // 64


def check_count(what: str, value: int, least: int) -> int:
    """`value`, if it lies between `least` and the largest count."""
    if not least <= value <= _MAX_COUNT:
        raise ConfigError(f"{what} must be between {least} and {_MAX_COUNT}, got {value}")
    return value


class Target(enum.Enum):
    """What `montecarlo.replicate` estimates and which exact values it compares to."""

    FIELD_2SLS = "field-2sls"
    CLUSTER_WALD = "cluster-wald"


def _check_level(value: int, what: str) -> None:
    if type(value) is not int or not 0 <= value <= 2:  # not a float or bool that compares equal to one
        raise ConfigError(f"{what} must be 0, 1 or 2, got {value!r}")


class JointStratum(enum.Enum):
    """The ten joint behavioral types, keyed by trajectory (d0, d1, d2).

    Each member's value is its trajectory: the fields chosen under Z=0, 1,
    2, so `stratum.trajectory[z]` is the field chosen under Z=z. A triple
    that breaks R1-R3 (d_z = j implies d_j = j) is unrepresentable.
    """

    C1C2 = (0, 1, 2)
    C1ID2 = (0, 1, 1)
    C1NT2 = (0, 1, 0)
    NT1NT2 = (0, 0, 0)
    NT1C2 = (0, 0, 2)
    OT1AT2 = (2, 2, 2)
    AT1OT2 = (1, 1, 1)
    AT1ND2 = (1, 1, 2)
    ND1AT2 = (2, 1, 2)
    ID1C2 = (0, 2, 2)

    __hash__ = object.__hash__  # C-level, unlike Enum's hash(self._name_); members are singletons, so eq is identity

    @property
    def trajectory(self) -> tuple[Field, Field, Field]:
        return self.value

    @classmethod
    def from_tag(cls, tag: str) -> "JointStratum":
        if isinstance(tag, str) and tag in _BY_TAG:
            return _BY_TAG[tag]
        valid = ", ".join(s.name for s in cls)
        raise ConfigError(f"unknown stratum tag {tag!r}; expected one of: {valid}")


_BY_TAG = dict(JointStratum.__members__)


class MarginalGroup(enum.Enum):
    """Per-instrument behavioral groups, decided by trajectory predicates; declared instrument by instrument, in
    the order `validate` and `bounds --maintained` print them."""

    C1 = "C1"
    ID1 = "ID1"
    ND1 = "ND1"
    AT1 = "AT1"
    NT1 = "NT1"
    OT1 = "OT1"
    C2 = "C2"
    ID2 = "ID2"
    ND2 = "ND2"
    AT2 = "AT2"
    NT2 = "NT2"
    OT2 = "OT2"

    __hash__ = object.__hash__  # as JointStratum's

    @property
    def instrument(self) -> Instrument:
        return int(self.name[-1])

    @property
    def kind(self) -> str:
        return self.name[:-1]

    def members(self) -> frozenset[JointStratum]:
        return _MEMBERS[self]


# The (d0, dk) trajectory entries each group kind requires, for instrument k
# whose other non-reference field is 3 - k.
_KIND_RULES = {
    "C": lambda k: (0, k),
    "ID": lambda k: (0, 3 - k),
    "ND": lambda k: (3 - k, k),
    "AT": lambda k: (k, k),
    "NT": lambda k: (0, 0),
    "OT": lambda k: (3 - k, 3 - k),
}

# Membership of every marginal group, decided once from the trajectories.
_MEMBERS: dict[MarginalGroup, frozenset[JointStratum]] = {
    g: frozenset(
        s for s in JointStratum
        if (s.trajectory[0], s.trajectory[g.instrument]) == _KIND_RULES[g.kind](g.instrument)
    )
    for g in MarginalGroup
}

# The constant membership matrix by rows: each stratum's positions in `_GROUPS`, one group per instrument.
_GROUPS = tuple(MarginalGroup)
_GROUPS_OF = {s: tuple(i for i, g in enumerate(_GROUPS) if s in _MEMBERS[g]) for s in JointStratum}


def _union(groups: Iterable[MarginalGroup]) -> frozenset[JointStratum]:
    return frozenset().union(*(_MEMBERS[g] for g in groups))


@dataclass(frozen=True)
class StratumEntry:
    """One population component: a stratum, its probability, its outcome model.

    Parameters
    ----------
    stratum : JointStratum
    prob : float
        Population share, in [0, 1].
    means : tuple of three floats
        Mean potential outcome when the realized field is 0, 1, 2. Outcomes
        depend on the realized field only, never on the instrument, so the
        exclusion restriction is structural.
    noise_sd : float
        Gaussian noise scale around the field mean, >= 0.
    """

    stratum: JointStratum
    prob: float
    means: tuple[float, float, float]
    noise_sd: float = 0.0

    def __post_init__(self):
        prob, means, noise_sd = self.prob, self.means, self.noise_sd
        if not 0.0 <= prob <= 1.0:
            raise ConfigError(f"stratum {self.stratum.name}: prob {prob} outside [0, 1]")
        if len(means) != 3:
            raise ConfigError(f"stratum {self.stratum.name}: means must have 3 entries, got {len(means)}")
        # One range comparison a value, which NaN and infinities fail too; only a failure tells the messages apart.
        m0, m1, m2 = means
        if not (-MAX_MAGNITUDE <= m0 <= MAX_MAGNITUDE and -MAX_MAGNITUDE <= m1 <= MAX_MAGNITUDE
                and -MAX_MAGNITUDE <= m2 <= MAX_MAGNITUDE):
            if not all(map(math.isfinite, means)):
                raise ConfigError(f"stratum {self.stratum.name}: non-finite mean in {means}")
            raise ConfigError(f"stratum {self.stratum.name}: a mean in {means} exceeds {MAX_MAGNITUDE:g} in magnitude")
        if not 0.0 <= noise_sd <= MAX_MAGNITUDE:
            if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
                raise ConfigError(f"stratum {self.stratum.name}: noise_sd {noise_sd} must be >= 0")
            raise ConfigError(f"stratum {self.stratum.name}: noise_sd {noise_sd} exceeds {MAX_MAGNITUDE:g}")
        # Each field is stored as float (means as a tuple of them); a value that already is one is left as it is.
        if not (type(means) is tuple and type(m0) is type(m1) is type(m2) is float):
            object.__setattr__(self, "means", tuple(map(float, means)))
        if type(prob) is not float:
            object.__setattr__(self, "prob", float(prob))
        if type(noise_sd) is not float:
            object.__setattr__(self, "noise_sd", float(noise_sd))


UNIFORM_ASSIGNMENT = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class Population:
    """Probability-weighted joint strata plus the instrument distribution.

    Parameters
    ----------
    entries : tuple of StratumEntry
        At most one entry per stratum; probabilities must sum to 1 within
        1e-12 (a violation is an error, never silently renormalized).
    assignment : tuple of three floats
        P(Z=0), P(Z=1), P(Z=2); defaults to the uniform distribution.
    """

    entries: tuple[StratumEntry, ...]
    assignment: tuple[float, float, float] = UNIFORM_ASSIGNMENT

    def __post_init__(self):
        # Both fields are stored as tuples (assignment of floats), by StratumEntry's rule: one already so is kept.
        if type(self.entries) is not tuple:
            object.__setattr__(self, "entries", tuple(self.entries))
        if not (type(self.assignment) is tuple and all(type(p) is float for p in self.assignment)):
            object.__setattr__(self, "assignment", tuple(float(p) for p in self.assignment))
        if not self.entries:
            raise ConfigError("population has no strata")
        if len({e.stratum for e in self.entries}) < len(self.entries):  # a repeat: name the first
            seen = set()
            for e in self.entries:
                if e.stratum in seen:
                    raise ConfigError(f"stratum {e.stratum.name} appears more than once")
                seen.add(e.stratum)
        total = math.fsum([e.prob for e in self.entries])
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ConfigError(f"stratum probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}")
        if len(self.assignment) != 3:
            raise ConfigError(f"assignment must have 3 entries, got {len(self.assignment)}")
        if not all([0.0 <= p < math.inf for p in self.assignment]):  # NaN fails too
            raise ConfigError(f"assignment probabilities must be >= 0, got {self.assignment}")
        a_total = math.fsum(self.assignment)
        if abs(a_total - 1.0) > PROB_SUM_TOL:
            raise ConfigError(f"assignment probabilities sum to {a_total!r}, expected 1 within {PROB_SUM_TOL}")


def marginal_shares(pop: Population) -> dict[MarginalGroup, float]:
    """Probability of each of the twelve marginal groups.

    P(C_k) + P(AT_k) + P(NT_k) + P(OT_k) + P(ID_k) + P(ND_k) is the stratum probabilities' sum, 1 within
    PROB_SUM_TOL. Each share is rounded once, so the six shares' fsum lies within 2 * ulp(1.0) of the probabilities'.
    """
    return _group_entries(pop)[0]


def _group_entries(pop: Population) -> tuple[dict[MarginalGroup, float], dict[MarginalGroup, list[StratumEntry]]]:
    """Each group's share and its entries, in entry order, from one pass over the membership table."""
    parts = [[] for _ in _GROUPS]
    for e in pop.entries:
        for i in _GROUPS_OF[e.stratum]:
            parts[i].append(e)
    return {g: math.fsum([e.prob for e in part]) for g, part in zip(_GROUPS, parts)}, dict(zip(_GROUPS, parts))


def group_prob(pop: Population, groups: Iterable[MarginalGroup]) -> float:
    """Probability of the union of `groups` (each stratum counted once)."""
    members = _union(groups)
    return math.fsum(e.prob for e in pop.entries if e.stratum in members)


def group_effect(pop: Population, groups: Iterable[MarginalGroup], j: Field, k: Field) -> float:
    """Mean effect E[y^j - y^k | union of groups].

    Probability-weighted mixture of per-stratum mean differences over the
    union (never a sum of per-group mixtures, which would double count
    strata belonging to several groups).

    Raises
    ------
    ConfigError
        If the union has zero probability: conditioning on an empty set has
        no value, and returning NaN would poison downstream arithmetic.
    """
    _check_level(j, "field j")
    _check_level(k, "field k")
    gs = tuple(groups)
    union = _union(gs)
    members = [e for e in pop.entries if e.stratum in union]
    total = math.fsum(e.prob for e in members)
    if total <= 0.0:
        names = ",".join(sorted(g.name for g in gs))
        raise ConfigError(f"cannot condition on zero-probability group union {{{names}}}")
    return _mixture(members, total, j, k)


def _mixture(members: list[StratumEntry], total: float, j: Field, k: Field) -> float:
    """E[y^j - y^k] over `members`, whose probabilities sum to `total` > 0."""
    return math.fsum(e.prob * (e.means[j] - e.means[k]) for e in members) / total


# JSON share keys (the six complier/defier group names) and the MarginalSpec
# fields that hold them.
_SHARE_KEYS = {"C1": "pC1", "C2": "pC2", "ID1": "pID1", "ID2": "pID2", "ND1": "pND1", "ND2": "pND2"}

# Effect slots a MarginalSpec can carry, with the (j, k) contrast and the
# group whose conditional mean each one is.
EFFECT_SLOTS = {
    "eff_c1": (MarginalGroup.C1, 1, 0),
    "eff_c2": (MarginalGroup.C2, 2, 0),
    "eff_id1": (MarginalGroup.ID1, 2, 0),
    "eff_id2": (MarginalGroup.ID2, 1, 0),
    "eff_nd1_1": (MarginalGroup.ND1, 1, 0),
    "eff_nd1_2": (MarginalGroup.ND1, 2, 0),
    "eff_nd2_1": (MarginalGroup.ND2, 1, 0),
    "eff_nd2_2": (MarginalGroup.ND2, 2, 0),
}

# The effect slots behind each JSON effect key (a group name); an ND key
# holds the pair [vs field 1, vs field 2].
_EFFECT_KEYS = {
    key: tuple(slot for slot, (group, _, _) in EFFECT_SLOTS.items() if group.name == key) for key in _SHARE_KEYS
}


# A MarginalSpec's admissibility rules, one value at a time: each raises the ConfigError that loading a spec does.
def check_share(name: str, v: float) -> None:
    if not (math.isfinite(v) and 0.0 <= v <= 1.0):
        raise ConfigError(f"share {name}={v} outside [0, 1]")


def check_effect(name: str, v: float) -> None:
    if not math.isfinite(v):
        raise ConfigError(f"effect {name}={v} is not finite")
    if abs(v) > EFFECT_BOUND:
        raise ConfigError(f"effect {name}={v} exceeds {EFFECT_BOUND:g} in magnitude")


def absent_effect(slot: str, swapped: bool = False) -> ConfigError:
    """The error for an absent effect slot, naming its group as the spec before a label swap does if `swapped`."""
    group, j, k = EFFECT_SLOTS[SWAPPED_NAME[slot] if swapped else slot]
    return ConfigError(f"effect E[y{j}-y{k} | {group.name}] is required here but absent from the spec")


@dataclass(frozen=True)
class MarginalSpec:
    """Marginal shares and conditional mean effects, the decomposition inputs.

    Shares are the six complier/defier probabilities; always/never/other
    takers enter no estimand formula and are not represented. Effects are
    E[y^j - y^0 | group] slots; a slot may be None ("absent") only while
    every term that multiplies it has zero weight.

    Parameters
    ----------
    pC1, pC2, pID1, pID2, pND1, pND2 : float
        Group shares in [0, 1] with pC1+pID1+pND1 <= 1 and the instrument-2
        analogue.
    eff_c1 : float, optional
        E[y1 - y0 | C1]; eff_c2 is E[y2 - y0 | C2].
    eff_id1 : float, optional
        E[y2 - y0 | ID1] (instrument 1 pushes its irrelevance defiers into
        field 2); eff_id2 is E[y1 - y0 | ID2].
    eff_nd1_1, eff_nd1_2 : float, optional
        E[y1 - y0 | ND1] and E[y2 - y0 | ND1]; the nd2 pair mirrors them.
    """

    pC1: float = 0.0
    pC2: float = 0.0
    pID1: float = 0.0
    pID2: float = 0.0
    pND1: float = 0.0
    pND2: float = 0.0
    eff_c1: Optional[float] = None
    eff_c2: Optional[float] = None
    eff_id1: Optional[float] = None
    eff_id2: Optional[float] = None
    eff_nd1_1: Optional[float] = None
    eff_nd1_2: Optional[float] = None
    eff_nd2_1: Optional[float] = None
    eff_nd2_2: Optional[float] = None

    def __post_init__(self):
        for name in _SHARE_KEYS.values():
            v = getattr(self, name)
            check_share(name, v)
            if type(v) is not float:  # a float is already its own float()
                object.__setattr__(self, name, float(v))
        for k, (c, i, n) in ((1, ("pC1", "pID1", "pND1")), (2, ("pC2", "pID2", "pND2"))):
            s = getattr(self, c) + getattr(self, i) + getattr(self, n)
            if s > 1.0 + SHARE_ATOL:
                raise ConfigError(f"instrument-{k} shares sum to {s}, exceeding 1")
        for name in EFFECT_SLOTS:
            v = getattr(self, name)
            if v is not None:
                check_effect(name, v)
                if type(v) is not float:
                    object.__setattr__(self, name, float(v))

    def effect(self, slot: str) -> float:
        """Value of an effect slot, or ConfigError naming the group if absent."""
        value = getattr(self, slot)
        if value is None:
            raise absent_effect(slot)
        return value


# Each MarginalSpec field's name with its 1s and 2s exchanged, in field order. Exchanging instrument (and field)
# labels 1 and 2 maps C1<->C2, ID1<->ID2, ND1<->ND2 and transposes the two next-best-defier effect contrasts: every
# field of the relabeled spec takes the value of the field whose name has its 1s and 2s exchanged.
SWAPPED_NAME = {f.name: f.name.translate(str.maketrans("12", "21")) for f in fields(MarginalSpec)}


def marginalize(pop: Population) -> MarginalSpec:
    """Collapse a joint-strata population to the shares and effects the
    estimand formulas consume. Effect slots of zero-share groups are absent.
    """
    shares, parts = _group_entries(pop)
    kwargs = {attr: shares[MarginalGroup[key]] for key, attr in _SHARE_KEYS.items()}
    for slot, (group, j, k) in EFFECT_SLOTS.items():
        if shares[group] > 0.0:
            kwargs[slot] = _mixture(parts[group], shares[group], j, k)
    return MarginalSpec(**kwargs)


# ---------------------------------------------------------------------------
# JSON loading. Documents are plain dicts; file IO lives in the CLI.

def reject_unknown(doc: Mapping, allowed: Iterable[str], what: str) -> None:
    """Raise ConfigError naming every key of `doc` outside `allowed`."""
    unknown = set(doc).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {what}: {', '.join(sorted(unknown))}")


def as_float(value, what: str) -> float:
    """A JSON number as a float; strings, nulls, lists and bools are ConfigErrors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is an integer too large for a float") from None


def as_enum(cls, value, what: str):
    """The member of enum `cls` that `value` is or names; ConfigError listing the choices otherwise."""
    try:
        return cls(value)
    except ValueError:
        choices = sorted(m.value for m in cls)
        raise ConfigError(f"{what} must be one of {choices}, got {value!r}") from None


def _as_floats(value, what: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list of 3 numbers")
    return tuple([as_float(v, what) for v in value])


_STRATUM_KEYS = frozenset(("tag", "prob", "means", "noise_sd"))
_REQUIRED_KEYS = frozenset(("tag", "prob", "means"))


def population_from_dict(doc: Mapping) -> Population:
    """Build a Population from a parsed JSON document.

    Expected shape::

        {"assignment": [p0, p1, p2],
         "strata": [{"tag": "C1C2", "prob": 0.6,
                     "means": [m0, m1, m2], "noise_sd": 1.0}, ...]}

    `assignment` may be omitted (uniform); `noise_sd` defaults to 0.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"population must be an object, got {type(doc).__name__}")
    reject_unknown(doc, ("assignment", "strata"), "population")
    if "strata" not in doc:
        raise ConfigError("population is missing the 'strata' list")
    raw = doc["strata"]
    if not isinstance(raw, (list, tuple)):
        raise ConfigError("'strata' must be a list")
    # One pass, entry by entry, in the order of the checks of a single entry: the object, its keys, its tag, prob,
    # means and noise_sd, then StratumEntry's ranges. A float is taken as it is, and a label is built only to raise
    # or to convert a value of another type.
    entries = []
    for i, item in enumerate(raw):
        if not (type(item) is dict or isinstance(item, Mapping)):  # JSON gives a dict: the ABC check is slower
            raise ConfigError(f"strata[{i}] must be an object")
        if not _STRATUM_KEYS.issuperset(item):
            reject_unknown(item, _STRATUM_KEYS, f"strata[{i}]")
        if not item.keys() >= _REQUIRED_KEYS:
            missing = next(key for key in ("tag", "prob", "means") if key not in item)
            raise ConfigError(f"strata[{i}] is missing '{missing}'")
        tag, prob, means, noise_sd = item["tag"], item["prob"], item["means"], item.get("noise_sd", 0.0)
        stratum = _BY_TAG.get(tag) if type(tag) is str else None
        if stratum is None:
            stratum = JointStratum.from_tag(tag)
        if type(prob) is not float:
            prob = as_float(prob, f"strata[{i}].prob")
        if type(means) is list and len(means) == 3 and type(means[0]) is type(means[1]) is type(means[2]) is float:
            means = tuple(means)
        else:
            means = _as_floats(means, f"strata[{i}].means")
        if type(noise_sd) is not float:
            noise_sd = as_float(noise_sd, f"strata[{i}].noise_sd")
        entries.append(StratumEntry(stratum, prob, means, noise_sd))
    assignment = _as_floats(doc.get("assignment", UNIFORM_ASSIGNMENT), "assignment")
    return Population(entries=tuple(entries), assignment=assignment)


def marginal_spec_from_dict(doc: Mapping) -> MarginalSpec:
    """Build a MarginalSpec from a parsed JSON document.

    Expected shape::

        {"shares": {"C1": 0.8, "ID1": 0.2, ...},
         "effects": {"C1": 1000, "ID1": 500, "ND1": [v1, v2], ...}}

    Absent share keys mean 0; absent effect keys mean the slot is absent.
    ND groups take a two-element list [E[y1-y0|ND], E[y2-y0|ND]].
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"marginal_spec must be an object, got {type(doc).__name__}")
    reject_unknown(doc, ("shares", "effects"), "marginal_spec")
    shares = doc.get("shares", {})
    if not isinstance(shares, Mapping):
        raise ConfigError("'shares' must be an object")
    reject_unknown(shares, _SHARE_KEYS, "shares")
    kwargs = {attr: as_float(shares.get(key, 0.0), f"shares.{key}") for key, attr in _SHARE_KEYS.items()}
    effects = doc.get("effects", {})
    if not isinstance(effects, Mapping):
        raise ConfigError("'effects' must be an object")
    reject_unknown(effects, _EFFECT_KEYS, "effects")
    for key, slots in _EFFECT_KEYS.items():
        if key not in effects:
            continue
        values = effects[key] if len(slots) == 2 else [effects[key]]
        if not isinstance(values, (list, tuple)) or len(values) != len(slots):
            raise ConfigError(f"effects.{key} must be a two-element list [vs field 1, vs field 2]")
        for slot, v in zip(slots, values):
            kwargs[slot] = None if v is None else as_float(v, f"effects.{key}")
    return MarginalSpec(**kwargs)
