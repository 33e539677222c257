"""Seeded inputs, op lists and output checks for the four benchmark workloads.

Every workload is a list of CLI invocations of `ivstrata.cli.main`. Inputs
are scenario files generated here from the workload seed alone; the program
sees only those files. Stratum probabilities sit on a 1/100 or 1/1000 grid,
so the exact values the checks compare against are known as integer counts,
independently of the program, and the feasibility scan is exact on its grid.

Each op carries the exit code its input was built to produce and a check of
its standard output. MC workloads also carry a run-level check: the Monte
Carlo means of the first pass must lie within 5 Monte Carlo standard errors
of the exact truth the program prints.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

# Which layer each workload loads and which it bypasses (why it exists is
# in BENCHMARK.json).
WORKLOADS = {
    "mc_large": {
        "loads": "montecarlo.generate and montecarlo.estimate_2sls (over 95% of the time), numpy, BLAS threads",
        "bypasses": "exact layers (strata, estimands, identification, clustering) run once per study",
    },
    "mc_small": {
        "loads": "fixed per-replication cost: replication_seed, RNG construction, Dataset checks, small algebra",
        "bypasses": "montecarlo.estimate_2sls; large-n array work is a small share",
    },
    "exact_batch": {
        "loads": "strata primitives, estimands, clustering, CLI parsing and formatting",
        "bypasses": "montecarlo entirely; the scan is coarse",
    },
    "scan_fine": {
        "loads": "identification.feasible_set_scan time and peak memory",
        "bypasses": "montecarlo, estimands, clustering",
    },
}

# Which end-to-end metric each per-layer metric should move, on which workload.
LAYER_MAP = {
    "montecarlo.estimate_2sls, montecarlo.generate": "items_per_s, cpu_ms_per_item, peak_rss_mb on mc_large",
    "montecarlo.replicate, montecarlo.replication_seed, montecarlo.estimate_cluster_wald":
        "items_per_s, op_p50_ms on mc_small",
    "strata.*, estimands.*, clustering.*, cli.*": "items_per_s, op_p50_ms, op_tail_ms on exact_batch",
    "identification.feasible_set_scan": "items_per_s, peak_rss_mb on scan_fine",
    "setup.*": "setup_s on every workload",
}

# Tag -> potential-choice trajectory (d0, d1, d2).
TRAJECTORY = {
    "C1C2": (0, 1, 2),
    "C1ID2": (0, 1, 1),
    "C1NT2": (0, 1, 0),
    "NT1NT2": (0, 0, 0),
    "NT1C2": (0, 0, 2),
    "OT1AT2": (2, 2, 2),
    "AT1OT2": (1, 1, 1),
    "AT1ND2": (1, 1, 2),
    "ND1AT2": (2, 1, 2),
    "ID1C2": (0, 2, 2),
}
GROUP_KINDS = ("C", "ID", "ND", "AT", "NT", "OT")

# Stratum sets on which the pooled Wald oracle must equal the clustered
# formula (one per scenario; treatment also needs P(z=1) = P(z=2)). They hold
# no double compliers and no irrelevance defiers, so the group-relevant
# oracle must equal it too (cluster_wald_oracle docstring).
AGREEMENT = {
    "control-1": ("C1NT2", "ND1AT2", "NT1NT2", "OT1AT2", "AT1OT2"),
    "control-2": ("NT1C2", "AT1ND2", "NT1NT2", "OT1AT2", "AT1OT2"),
    "treatment": ("C1NT2", "NT1C2", "NT1NT2", "OT1AT2", "AT1OT2"),
}

EPS = 1e-9


def in_group(tag: str, kind: str, k: int) -> bool:
    """Trajectory predicate of marginal group kind+k (restated from the paper)."""
    other = 3 - k
    t = TRAJECTORY[tag]
    d0, dk = t[0], t[k]
    return {
        "C": d0 == 0 and dk == k,
        "ID": d0 == 0 and dk == other,
        "ND": d0 == other and dk == k,
        "AT": d0 == k and dk == k,
        "NT": d0 == 0 and dk == 0,
        "OT": d0 == other and dk == other,
    }[kind]


def group_counts(counts: dict[str, int]) -> dict[str, int]:
    """Grid counts of the twelve marginal groups."""
    return {
        f"{kind}{k}": sum(c for tag, c in counts.items() if in_group(tag, kind, k))
        for kind in GROUP_KINDS
        for k in (1, 2)
    }


def composition(rng: random.Random, total: int, mins: list[int]) -> list[int]:
    """Random integers >= mins summing to total (largest-remainder rounding)."""
    spare = total - sum(mins)
    assert spare >= 0
    weights = [rng.gammavariate(1.0, 1.0) for _ in mins]
    raw = [spare * w / sum(weights) for w in weights]
    parts = [math.floor(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: parts[i] - raw[i])
    for i in order[: spare - sum(parts)]:
        parts[i] += 1
    return [m + p for m, p in zip(mins, parts)]


def population_doc(counts: dict[str, int], grid: int, assignment: list[int], means: dict, noise: dict) -> str:
    strata = [
        {"tag": tag, "prob": c / grid, "means": list(means[tag]), "noise_sd": noise.get(tag, 0.0)}
        for tag, c in counts.items()
    ]
    return json.dumps({"population": {"assignment": [a / 100 for a in assignment], "strata": strata}})


def random_means(rng: random.Random, tags, lo: float = -500.0, hi: float = 500.0) -> dict:
    return {tag: tuple(round(rng.uniform(lo, hi), 2) for _ in range(3)) for tag in tags}


def effect_means(rng: random.Random, tags) -> dict:
    """Outcome means with moderate, heterogeneous effects of fields 1 and 2."""
    means = {}
    for tag in tags:
        base = rng.uniform(-1.0, 1.0)
        means[tag] = (base, base + rng.uniform(0.5, 2.0), base + rng.uniform(0.2, 1.5))
    return means


def derived_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Op:
    argv: list[str]
    expect: int
    items: int
    check: Optional[Callable[[str], Optional[str]]] = None


@dataclass
class Plan:
    files: dict[str, str]
    ops: list[Op]
    prefix: int  # ops in the first pass: digest, MC checks and traced runs use exactly these
    tail_pct: float  # op_tail_ms percentile: fixed, so runs compare; a 20-s run has >= 10 ops beyond it
    round: int  # ops in one round of the op mix; timing windows end only at whole rounds
    group_checks: list[Callable[[dict[int, str]], list[tuple[int, str]]]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Output parsing and checks. A check returns None or a failure message.

def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line]


def check_validate(counts: dict[str, int], grid: int) -> Callable[[str], Optional[str]]:
    truth = group_counts(counts)

    def check(out: str) -> Optional[str]:
        rows = csv_rows(out)
        if rows[0] != ["status", "ok"] or rows[2] != ["strata", str(len(counts))]:
            return f"validate header {rows[:3]}"
        shares = {r[1]: float(r[2]) for r in rows if r[0] == "share"}
        for name, c in truth.items():
            if abs(shares[name] - c / grid) > 1e-12:
                return f"share {name} {shares[name]!r} != {c}/{grid}"
        for k in (1, 2):
            total = math.fsum(shares[f"{kind}{k}"] for kind in GROUP_KINDS)
            if abs(total - 1.0) > 1e-12:
                return f"instrument-{k} shares sum to {total!r}"
        return None

    return check


def check_analyze(out: str) -> Optional[str]:
    values = {r[0]: r[1] for r in csv_rows(out) if len(r) == 2}
    for k in ("1", "2"):
        beta, gap = float(values[f"beta{k}"]), float(values[f"oracle_gap{k}"])
        if not (math.isfinite(beta) and abs(gap) <= EPS * max(1.0, abs(beta))):
            return f"analyze beta{k}={beta!r} oracle_gap{k}={gap!r}"
    return None


def check_bounds(counts: dict[str, int], grid: int) -> Callable[[str], Optional[str]]:
    truth = group_counts(counts)

    def check(out: str) -> Optional[str]:
        rows = {r[0]: (float(r[1]), float(r[2])) for r in csv_rows(out)[1:]}
        for name in ("ND1", "ID1", "ND2", "ID2"):
            flo, fhi = rows[name]
            slo, shi = rows[f"{name}_scan"]
            true = truth[name] / grid
            if not (slo - EPS <= true <= shi + EPS):
                return f"scan {name} [{slo!r}, {shi!r}] misses true share {true!r}"
            if slo < flo - EPS or shi > fhi + EPS:
                return f"scan {name} [{slo!r}, {shi!r}] leaves closed form [{flo!r}, {fhi!r}]"
        return None

    return check


def expected_scenario(counts: dict[str, int]) -> str:
    """choose_clustering's catalogue on exact cross-slope signs."""
    g = group_counts(counts)
    s21 = (g["ID1"] > g["ND1"]) - (g["ID1"] < g["ND1"])
    s12 = (g["ID2"] > g["ND2"]) - (g["ID2"] < g["ND2"])
    if s21 < 0 and s12 < 0:
        return "undefined"
    if s21 < 0:
        return "control-1"
    if s12 < 0:
        return "control-2"
    if s21 == 0 and s12 == 0:
        return "no-clustering"
    return "treatment"


def check_cluster(label: str, must_match: bool) -> Callable[[str], Optional[str]]:
    """The scenario label must be `label`; where `must_match`, the oracle
    must equal the formula total."""

    def check(out: str) -> Optional[str]:
        rows = csv_rows(out)
        if rows[1][0] != label:
            return f"cluster chose {rows[1][0]!r}, expected {label!r}"
        if label not in ("control-1", "control-2", "treatment"):
            return None
        values = {r[0]: r[1] for r in rows if len(r) == 2}
        total, gap = float(values["total"]), float(values["oracle_gap"])
        if not (math.isfinite(total) and math.isfinite(gap)):
            return f"cluster total {total!r} oracle_gap {gap!r}"
        if must_match and abs(gap) > EPS * max(1.0, abs(total)):
            return f"cluster oracle_gap {gap!r} on a population where oracle and formula must agree"
        return None

    return check


def check_sweep(rows_expected: int) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        rows = csv_rows(out)
        if rows[0] != ["axis", "level", "beta", "late", "bias"] or len(rows) != rows_expected + 1:
            return f"sweep returned {len(rows) - 1} rows, expected {rows_expected}"
        return None

    return check


def parse_simulate(out: str) -> dict[str, tuple[float, float, float, float]]:
    """param -> (truth, mean, sd, coverage)."""
    rows = csv_rows(out)
    start = rows.index(["param", "truth", "mean", "sd", "bias", "coverage"])
    return {r[0]: (float(r[1]), float(r[2]), float(r[3]), float(r[5])) for r in rows[start + 1:]}


SIM_PARAMS = {
    "field-2sls": ["beta1", "beta2", "a10", "a11", "a12", "a20", "a21", "a22"],
    "cluster-wald": ["wald"],
}


def check_simulate(n: int, reps: int, seed: int, target: str, exact: dict[str, float]) -> Callable[[str], Optional[str]]:
    """Header echo, the target's parameter rows, finite summaries, and truths
    equal to `exact` where given."""

    def check(out: str) -> Optional[str]:
        rows = csv_rows(out)
        if rows[:4] != [["n", str(n)], ["reps", str(reps)], ["seed", str(seed)], ["target", target]]:
            return f"simulate header {rows[:4]}"
        summary = parse_simulate(out)
        if list(summary) != SIM_PARAMS[target]:
            return f"simulate rows {list(summary)}"
        for param, (truth, mean, sd, coverage) in summary.items():
            if not (math.isfinite(truth) and math.isfinite(mean) and math.isfinite(sd) and 0.0 <= coverage <= 1.0):
                return f"simulate {param} row {summary[param]}"
            if param in exact and abs(truth - exact[param]) > 1e-12:
                return f"simulate {param} truth {truth!r} != exact {exact[param]!r}"
        return None

    return check


def mc_consistency(groups: dict[str, list[int]], reps: int) -> Callable[[dict[int, str]], list[tuple[int, str]]]:
    """Pooled over the studies of each group (same population and target),
    every MC mean must lie within 5 MC standard errors of its truth, and the
    truth must be the same in every study."""

    def check(outputs: dict[int, str]) -> list[tuple[int, str]]:
        failures = []
        for name, idx in groups.items():
            studies = [parse_simulate(outputs[i]) for i in idx]
            for param in studies[0]:
                truths = {s[param][0] for s in studies}
                means = [s[param][1] for s in studies]
                grand = math.fsum(means) / len(means)
                within = math.fsum((reps - 1) * s[param][2] ** 2 for s in studies)
                between = reps * math.fsum((m - grand) ** 2 for m in means)
                total = len(studies) * reps
                se = math.sqrt((within + between) / (total - 1) / total)
                truth = next(iter(truths))
                if len(truths) != 1 or abs(grand - truth) > 5.0 * se:
                    msg = f"{name} {param}: mean {grand!r} truth {sorted(truths)} se {se!r}"
                    failures.extend((i, msg) for i in idx)
        return failures

    return check


# ---------------------------------------------------------------------------
# Workload plans.

def assignment_percent(rng: random.Random, floor: int) -> list[int]:
    return composition(rng, 100, [floor, floor, floor])


def plan_mc_large(seed: int) -> Plan:
    rng = random.Random(f"mc_large:{seed}")
    tags = list(TRAJECTORY)
    mins = [350 if t == "C1C2" else 10 for t in tags]
    counts = dict(zip(tags, composition(rng, 1000, mins)))
    means = effect_means(rng, tags)
    noise = {t: round(rng.uniform(1.0, 3.0), 3) for t in tags}
    files = {"pop.json": population_doc(counts, 1000, assignment_percent(rng, 25), means, noise)}
    g = group_counts(counts)
    exact = {
        "a10": g["AT1"] / 1000, "a11": (g["C1"] + g["ND1"]) / 1000, "a12": (g["ID2"] - g["ND2"]) / 1000,
        "a20": g["AT2"] / 1000, "a21": (g["ID1"] - g["ND1"]) / 1000, "a22": (g["C2"] + g["ND2"]) / 1000,
    }
    n, reps, prefix = 200_000, 2, 40
    ops = []
    for j in range(400):
        s = derived_seed("mc_large", seed, j)
        argv = ["simulate", "pop.json", "--n", str(n), "--reps", str(reps), "--seed", str(s),
                "--target", "field-2sls", "--precision", "full"]
        ops.append(Op(argv, 0, reps, check_simulate(n, reps, s, "field-2sls", exact)))
    return Plan(files, ops, prefix, 90.0, 1, [mc_consistency({"pop": list(range(prefix))}, reps)])


def plan_mc_small(seed: int) -> Plan:
    rng = random.Random(f"mc_small:{seed}")
    tags = list(TRAJECTORY)
    files = {}
    for p in range(3):
        counts = dict(zip(tags, composition(rng, 1000, [350 if t == "C1C2" else 10 for t in tags])))
        noise = {t: round(rng.uniform(0.5, 1.5), 3) for t in tags}
        files[f"pop{p}.json"] = population_doc(counts, 1000, assignment_percent(rng, 25), effect_means(rng, tags), noise)
    combos = [(p, scen) for p in range(3) for scen in ("treatment", "control-1", "control-2")]
    n, reps, per_combo = 2000, 25, 12
    ops, groups = [], {}
    for j in range(4000):
        p, scen = combos[j % len(combos)]
        s = derived_seed("mc_small", seed, j)
        argv = ["simulate", f"pop{p}.json", "--n", str(n), "--reps", str(reps), "--seed", str(s),
                "--target", "cluster-wald", "--scenario", scen, "--precision", "full"]
        ops.append(Op(argv, 0, reps, check_simulate(n, reps, s, "cluster-wald", {})))
        if j < per_combo * len(combos):
            groups.setdefault(f"pop{p}/{scen}", []).append(j)
    return Plan(files, ops, per_combo * len(combos), 95.0, len(combos), [mc_consistency(groups, reps)])


def _general_counts(rng: random.Random) -> dict[str, int]:
    """3-10 entries on the 1/100 grid with P(C1C2) >= 0.2, possibly some at 0.

    P(C1C2) >= 0.2 keeps every estimand denominator and every clustered first
    stage at least 0.04, so all six commands must succeed."""
    others = [t for t in TRAJECTORY if t != "C1C2"]
    chosen = rng.sample(others, rng.randint(2, 9))
    zero = set(rng.sample(chosen, rng.randint(0, min(2, len(chosen) - 1))))
    live = ["C1C2"] + [t for t in chosen if t not in zero]
    counts = dict(zip(live, composition(rng, 100, [20] + [1] * (len(live) - 1))))
    counts.update({t: 0 for t in zero})
    return counts


def plan_exact_batch(seed: int) -> Plan:
    rng = random.Random(f"exact_batch:{seed}")
    kinds = ["general"] * 84 + ["agreement"] * 24 + ["bad_sum"] * 4 + ["neg_neg"] * 4 + ["inert"] * 4
    rng.shuffle(kinds)
    files, ops = {}, []
    full = ["--precision", "full"]
    sweep_rows = 11 * 3
    for i, kind in enumerate(kinds):
        path = f"s{i:03d}.json"
        assignment = assignment_percent(rng, 15)
        if kind == "general":
            counts = _general_counts(rng)
            label = expected_scenario(counts)
            cmds = [
                (["validate"], 0, check_validate(counts, 100)),
                (["analyze"], 0, check_analyze),
                (["bounds", "--scan", "--step", "0.01"], 0, check_bounds(counts, 100)),
                (["cluster"], 0, check_cluster(label, False)),
                (["cluster", "--semantics", "group-relevant"], 0, check_cluster(label, False)),
                (["sweep"], 0, check_sweep(sweep_rows)),
            ]
        elif kind == "agreement":
            scen = ("control-1", "control-2", "treatment")[i % 3]
            strata = AGREEMENT[scen]
            movers = {"control-1": ("C1NT2",), "control-2": ("NT1C2",), "treatment": ("C1NT2", "NT1C2")}[scen]
            counts = dict(zip(strata, composition(rng, 100, [15 if t in movers else 0 for t in strata])))
            if scen == "treatment":
                a1 = rng.randint(20, 40)
                assignment = [100 - 2 * a1, a1, a1]
            cmds = [
                (["validate"], 0, check_validate(counts, 100)),
                (["bounds", "--scan", "--step", "0.01"], 0, check_bounds(counts, 100)),
                (["cluster", "--scenario", scen], 0, check_cluster(scen, True)),
                (["cluster", "--scenario", scen, "--semantics", "group-relevant"], 0, check_cluster(scen, True)),
            ]
        elif kind == "bad_sum":
            counts = _general_counts(rng)
            counts["C1C2"] += rng.choice((-5, 5))  # probabilities no longer sum to 1: exit 2
            cmds = [(c, 2, None) for c in (["validate"], ["analyze"], ["bounds", "--scan", "--step", "0.01"],
                                           ["cluster"], ["sweep"])]
        elif kind == "neg_neg":
            # Next-best defiers of both instruments and no irrelevance defiers:
            # both cross slopes negative, so next-best is refuted (exit 3).
            extra = rng.sample(["C1NT2", "NT1NT2", "NT1C2", "OT1AT2", "AT1OT2"], 2)
            tags = ["C1C2", "ND1AT2", "AT1ND2"] + extra
            counts = dict(zip(tags, composition(rng, 100, [20, 5, 5, 1, 1])))
            cmds = [
                (["validate"], 0, check_validate(counts, 100)),
                (["analyze", "--regime", "next-best"], 3, None),
                (["bounds", "--maintained", "next-best"], 3, None),
                (["cluster", "--neg-neg-rule", "fail"], 3, None),
                (["sweep"], 0, check_sweep(sweep_rows)),
            ]
        else:  # inert: nobody's choice responds to the instrument (exit 4)
            tags = ["NT1NT2", "AT1OT2", "OT1AT2"]
            counts = dict(zip(tags, composition(rng, 100, [1, 1, 1])))
            cmds = [
                (["validate"], 0, check_validate(counts, 100)),
                (["analyze"], 4, None),
                (["bounds", "--scan", "--step", "0.01"], 0, check_bounds(counts, 100)),
                (["cluster", "--scenario", "control-1"], 4, None),
                (["cluster", "--scenario", "treatment"], 4, None),
                (["sweep"], 2, None),  # no complier effect to scale the default levels
            ]
        noise = {t: round(rng.uniform(0.0, 2.0), 3) for t in counts}
        files[path] = population_doc(counts, 100, assignment, random_means(rng, counts), noise)
        for k, (cmd, expect, check) in enumerate(cmds):
            argv = [cmd[0], path] + cmd[1:] + full
            ops.append(Op(argv, expect, 1 if k == len(cmds) - 1 else 0, check))
    return Plan(files, ops, len(ops), 95.0, len(ops))


SCAN_STEPS = ("0.001", "0.0005", "0.00025", "0.0002", "0.0001")


def plan_scan_fine(seed: int) -> Plan:
    """Populations on the 1/1000 grid (so on every scan grid used) with both
    always-taker shares 0.22 and each irrelevance defier share at least its
    next-best one. That fixes the scanned n1 x n2 block at (0.22 k + 1)^2
    cells, so the step alone sets the working set, whatever the seed."""
    rng = random.Random(f"scan_fine:{seed}")
    files, ops = {}, []
    at1 = at2 = 220
    for p in range(24):
        nd1, nd2 = rng.randint(5, 30), rng.randint(5, 30)
        counts = {
            "ND1AT2": nd1, "OT1AT2": at2 - nd1, "AT1ND2": nd2, "AT1OT2": at1 - nd2,
            "ID1C2": nd1 + rng.randint(0, 20), "C1ID2": nd2 + rng.randint(0, 20),
        }
        rest = 1000 - sum(counts.values())
        counts.update(zip(("C1C2", "C1NT2", "NT1NT2", "NT1C2"), composition(rng, rest, [100, 0, 0, 0])))
        path = f"p{p:02d}.json"
        files[path] = population_doc(counts, 1000, assignment_percent(rng, 20), random_means(rng, counts), {})
        check = check_bounds(counts, 1000)
        for step in SCAN_STEPS:
            ops.append(Op(["bounds", path, "--scan", "--step", step, "--precision", "full"], 0, 1, check))
    return Plan(files, ops, len(ops), 95.0, len(SCAN_STEPS))


PLANS = {
    "mc_large": plan_mc_large,
    "mc_small": plan_mc_small,
    "exact_batch": plan_exact_batch,
    "scan_fine": plan_scan_fine,
}
