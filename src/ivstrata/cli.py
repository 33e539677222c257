"""Command-line interface.

Every subcommand reads a JSON scenario file (and/or explicit flags), calls
the library, and prints small CSV blocks to stdout, so results are
byte-identical to direct library calls with the same inputs and seeds.
Numbers print with 4 decimal places by default; --precision=full switches
to repr for lossless round-trips. Errors print one line to stderr and set
the exit code: 2 for configuration problems, 3 for refuted maintained
assumptions, 4 for infeasible or rank-deficient problems, 1 for any other
failure (such as running out of memory).

Scenario files hold a "population" (joint strata) or a "marginal_spec"
(shares plus effect contrasts), and optional "sweep", "simulate", and
"cluster" blocks with per-command defaults, all checked when the file
loads; command-line flags override block values.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .clustering import (
    ClusterScenario,
    NegNegRule,
    Semantics,
    check_cluster_exclusion,
    choose_clustering,
    cluster_estimand_constant_effects,
    cluster_estimand_formula,
    cluster_wald_oracle,
)
from .estimands import SWEEP_DEFIERS, Regime, SweepAxis, bias_sweep, decompose, solve_moment_system, sweep_defier
from .exceptions import ConfigError, IVStrataError
from .identification import (
    COEFFICIENTS,
    FirstStage,
    Maintained,
    defier_bounds,
    feasible_set_scan,
    first_stage_from_shares,
    shares_from_first_stage,
)
from .montecarlo import Target, estimate_2sls, generate, replicate
from .strata import (
    EFFECT_SLOTS,
    MarginalGroup,
    MarginalSpec,
    Population,
    as_float,
    marginal_shares,
    marginalize,
    marginal_spec_from_dict,
    population_from_dict,
    reject_unknown,
)

_GROUP_ORDER = ("C1", "ID1", "ND1", "AT1", "NT1", "OT1", "C2", "ID2", "ND2", "AT2", "NT2", "OT2")


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario file: the primitive plus each command's converted block values."""

    population: Optional[Population]
    spec: Optional[MarginalSpec]
    options: dict[str, dict]

    def require_population(self, command: str) -> Population:
        if self.population is None:
            raise ConfigError(f"{command} requires a scenario file with a population")
        return self.population

    def any_spec(self) -> MarginalSpec:
        if self.spec is not None:
            return self.spec
        return marginalize(self.population)


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _as_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _enum(cls, value, what: str):
    try:
        return cls(value)
    except ValueError:
        choices = sorted(m.value for m in cls)
        raise ConfigError(f"{what} must be one of {choices}, got {value!r}") from None


def _sweep_floats(value, what: str) -> list[float]:
    what = f"sweep {what}"
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a nonempty list of numbers")
    floats = [as_float(v, what) for v in value]
    if not all(map(math.isfinite, floats)):
        raise ConfigError(f"{what} must be finite numbers, got {floats}")
    return floats


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"{what} must be comma-separated numbers, got {text!r}") from err


def _values(cls) -> list[str]:
    return [m.value for m in cls]


def _scenario(value, what: str) -> ClusterScenario:
    return ClusterScenario.from_label(value)


# Each command's scenario-block options: key -> (convert, default, flag). A
# block value is converted when the file loads; the command's --key flag,
# declared by the argparse keywords in `flag`, overrides it through the same
# converter (argparse gives the flag the JSON type).
_OPTIONS = {
    "sweep": {
        "axis": (partial(_enum, SweepAxis), SweepAxis.DEFIER_SHARE, {"choices": _values(SweepAxis)}),
        "grid": (_sweep_floats, [round(0.05 * i, 10) for i in range(11)],
                 {"type": lambda text: _parse_float_list(text, "--grid"), "help": "comma-separated grid points"}),
        "levels": (_sweep_floats, None,  # None: 10, 20 and 50 percent of the C1 effect
                   {"type": lambda text: _parse_float_list(text, "--levels"), "help": "comma-separated curve levels"}),
        "defier": (lambda value, what: sweep_defier(value), "id1", {"choices": SWEEP_DEFIERS}),
    },
    "simulate": {
        "n": (_as_int, 200000, {"type": int}),
        "reps": (_as_int, 100, {"type": int}),
        "seed": (_as_int, 0, {"type": int}),
        "target": (partial(_enum, Target), Target.FIELD_2SLS, {"choices": _values(Target)}),
        "scenario": (_scenario, None, {"choices": [s.value for s in ClusterScenario if s.s1 is not None]}),
    },
    "cluster": {
        "scenario": (_scenario, None,
                     {"choices": _values(ClusterScenario), "help": "override the sign-based scenario choice"}),
        "sig_level": (as_float, 0.05, {"type": float}),
        "neg_neg_rule": (partial(_enum, NegNegRule), NegNegRule.UNDEFINED, {"choices": _values(NegNegRule)}),
        "semantics": (partial(_enum, Semantics), Semantics.POOLED, {"choices": _values(Semantics)}),
        "n": (_as_int, None,
              {"type": int, "help": "choose the scenario from an estimated first stage on a sample of this size"}),
        "seed": (_as_int, 0, {"type": int}),
        "constant_effects": (_as_bool, False,
                             {"action": "store_true", "help": "use the constant-effects decomposition"}),
    },
}


def load_scenario(path: str) -> ScenarioFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read scenario file {path}: {err}") from err
    except ValueError as err:  # bad JSON, bad UTF-8, or an integer literal past Python's digit limit
        raise ConfigError(f"scenario file {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario file {path} must hold a JSON object")
    reject_unknown(doc, ("population", "marginal_spec", *_OPTIONS), "scenario")
    has_pop = "population" in doc
    has_spec = "marginal_spec" in doc
    if has_pop == has_spec:
        raise ConfigError("scenario file must hold exactly one of 'population' or 'marginal_spec'")
    options = {}
    for command, table in _OPTIONS.items():
        block = doc.get(command, {})
        if not isinstance(block, dict):
            raise ConfigError(f"scenario block {command!r} must be a JSON object")
        reject_unknown(block, table, command)
        options[command] = {key: table[key][0](value, key) for key, value in block.items()}
    return ScenarioFile(
        population=population_from_dict(doc["population"]) if has_pop else None,
        spec=marginal_spec_from_dict(doc["marginal_spec"]) if has_spec else None,
        options=options,
    )


def _options(args: argparse.Namespace, sc: ScenarioFile) -> dict:
    """Each option of the command: its flag, else its block value, else its default."""
    block, flags = sc.options[args.command], vars(args)
    return {
        key: block.get(key, default) if flags[key] is None else convert(flags[key], key)
        for key, (convert, default, _) in _OPTIONS[args.command].items()
    }


def _fmt(x, precision: str) -> str:
    x = float(x)
    if precision == "full":
        return repr(x)
    return f"{x:.4f}"


def _print_terms(prefix: str, terms, p: str) -> None:
    """One CSV row per term: prefix, label, weight, delta, sign, contribution."""
    for t in terms:
        sign = "+" if t.sign > 0 else "-"
        print(f"{prefix},{t.label},{_fmt(t.weight, p)},{_fmt(t.delta, p)},{sign},{_fmt(t.contribution, p)}")


def _cmd_validate(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    p = args.precision
    print("status,ok")
    if sc.population is not None:
        pop = sc.population
        print("kind,population")
        print(f"strata,{len(pop.entries)}")
        print("assignment," + ";".join(_fmt(a, p) for a in pop.assignment))
        shares = marginal_shares(pop)
        for name in _GROUP_ORDER:
            print(f"share,{name},{_fmt(shares[MarginalGroup[name]], p)}")
        fs = first_stage_from_shares(shares)
        for coef in COEFFICIENTS:
            print(f"first_stage,{coef},{_fmt(getattr(fs, coef), p)}")
    else:
        spec = sc.spec
        print("kind,marginal_spec")
        for attr in ("pC1", "pID1", "pND1", "pC2", "pID2", "pND2"):
            print(f"share,{attr[1:]},{_fmt(getattr(spec, attr), p)}")
        for slot in EFFECT_SLOTS:
            value = getattr(spec, slot)
            if value is not None:
                print(f"effect,{slot},{_fmt(value, p)}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    spec = sc.any_spec()
    regime = Regime(args.regime) if args.regime else Regime.NEITHER
    dec1, dec2 = decompose(spec, regime)
    oracle1, oracle2 = solve_moment_system(spec)
    p = args.precision
    print(f"beta1,{_fmt(dec1.total, p)}")
    print(f"beta2,{_fmt(dec2.total, p)}")
    print(f"late1,{_fmt(dec1.late, p)}")
    print(f"late2,{_fmt(dec2.late, p)}")
    print(f"bias1,{_fmt(dec1.bias, p)}")
    print(f"bias2,{_fmt(dec2.bias, p)}")
    print(f"oracle_beta1,{_fmt(oracle1, p)}")
    print(f"oracle_beta2,{_fmt(oracle2, p)}")
    print(f"oracle_gap1,{_fmt(dec1.total - oracle1, p)}")
    print(f"oracle_gap2,{_fmt(dec2.total - oracle2, p)}")
    print(f"regime,{regime.value}")
    print(f"denominator,{_fmt(dec1.denominator, p)}")
    print()
    print("decomposition,term,weight,delta,sign,contribution")
    for which, dec in (("beta1", dec1), ("beta2", dec2)):
        _print_terms(which, dec.terms, p)
        print(f"{which},late,,,,{_fmt(dec.late, p)}")
        print(f"{which},total,,,,{_fmt(dec.total, p)}")
    return 0


def _first_stage_from_args(args: argparse.Namespace) -> FirstStage:
    flags = {name: getattr(args, name) for name in COEFFICIENTS}
    given = {name: v for name, v in flags.items() if v is not None}
    if given:
        missing = sorted(set(flags) - set(given))
        if missing:
            raise ConfigError(f"first-stage flags are all-or-none; missing --{', --'.join(missing)}")
        return FirstStage(**given)
    if args.config is None:
        raise ConfigError("bounds needs a scenario file with a population, or all six --a10..--a22 flags")
    sc = load_scenario(args.config)
    pop = sc.require_population("bounds (without explicit --aXY flags)")
    return first_stage_from_shares(marginal_shares(pop))


def _cmd_bounds(args: argparse.Namespace) -> int:
    fs = _first_stage_from_args(args)
    p = args.precision
    rows: list[str] = []
    if args.maintained:
        shares = shares_from_first_stage(fs, Maintained(args.maintained))
        for name in _GROUP_ORDER:
            v = _fmt(shares[MarginalGroup[name]], p)
            rows.append(f"{name},{v},{v}")
    else:
        bounds = defier_bounds(fs)
        for name, (lo, hi) in bounds.intervals().items():
            rows.append(f"{name},{_fmt(lo, p)},{_fmt(hi, p)}")
        if args.scan:
            scan = feasible_set_scan(fs, step=args.step)
            for name, (lo, hi) in scan.intervals().items():
                rows.append(f"{name}_scan,{_fmt(lo, p)},{_fmt(hi, p)}")
    print("group,lo,hi")
    for row in rows:
        print(row)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    pop = sc.require_population("cluster")
    opts = _options(args, sc)
    scenario = opts["scenario"]
    if scenario is None:
        if opts["n"] is None:
            fs, ses = first_stage_from_shares(marginal_shares(pop)), (None, None)
        else:
            est = estimate_2sls(generate(pop, opts["n"], opts["seed"]))
            fs, ses = est.alphas, (est.alpha_ses.a21, est.alpha_ses.a12)
        scenario = choose_clustering(fs, *ses, opts["sig_level"], opts["neg_neg_rule"])
    p = args.precision
    print("scenario,s0,s1")
    s0 = ";".join(str(v) for v in sorted(scenario.s0)) if scenario.s0 is not None else ""
    s1 = ";".join(str(v) for v in sorted(scenario.s1)) if scenario.s1 is not None else ""
    print(f"{scenario.label},{s0},{s1}")
    if scenario.s1 is None:  # no collapse, so no clustered estimand
        return 0
    dec = (cluster_estimand_constant_effects if opts["constant_effects"] else cluster_estimand_formula)(pop, scenario)
    verdict = check_cluster_exclusion(pop, scenario)
    oracle = cluster_wald_oracle(pop, scenario, opts["semantics"])
    print()
    print(f"pi,{_fmt(dec.pi, p)}")
    print("component,label,weight,value,sign,contribution")
    _print_terms("a", dec.a_terms, p)
    _print_terms("bias", dec.bias_terms, p)
    print(f"a_total,{_fmt(dec.a_total, p)}")
    print(f"bias_total,{_fmt(dec.bias, p)}")
    print(f"total,{_fmt(dec.total, p)}")
    print("exclusion," + ("holds" if verdict.holds else "violated:" + ";".join(verdict.violations)))
    print(f"semantics,{opts['semantics'].value}")
    print(f"oracle,{_fmt(oracle, p)}")
    print(f"oracle_gap,{_fmt(oracle - dec.total, p)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    pop = sc.require_population("simulate")
    opts = _options(args, sc)
    scenario = opts["scenario"]
    if opts["target"] is Target.CLUSTER_WALD and scenario is None:
        scenario = choose_clustering(first_stage_from_shares(marginal_shares(pop)))
    summary = replicate(pop, opts["n"], opts["reps"], opts["seed"], opts["target"], scenario)
    p = args.precision
    print(f"n,{summary.n}")
    print(f"reps,{summary.reps}")
    print(f"seed,{summary.master_seed}")
    print(f"target,{summary.target.value}")
    print()
    print("param,truth,mean,sd,bias,coverage")
    for row in summary.rows:
        print(
            f"{row.param},{_fmt(row.truth, p)},{_fmt(row.mean, p)},"
            f"{_fmt(row.sd, p)},{_fmt(row.bias, p)},{_fmt(row.coverage, p)}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    spec = sc.any_spec()
    opts = _options(args, sc)
    levels = opts["levels"]
    if levels is None:
        late = spec.effect("eff_c1")
        levels = [0.1 * late, 0.2 * late, 0.5 * late]
    rows = bias_sweep(spec, opts["axis"], opts["grid"], levels, defier=opts["defier"])
    p = args.precision
    print("axis,level,beta,late,bias")
    for row in rows:
        print(
            f"{_fmt(row.axis, p)},{_fmt(row.level, p)},{_fmt(row.beta, p)},"
            f"{_fmt(row.late, p)},{_fmt(row.bias, p)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivstrata",
        description="Principal-strata analysis of instrumental variables with three unordered fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, config_optional: bool = False) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        if config_optional:
            cmd.add_argument("config", nargs="?", default=None, help="scenario JSON file")
        else:
            cmd.add_argument("config", help="scenario JSON file")
        cmd.add_argument("--precision", choices=("4", "full"), default="4", help="output precision (default 4 dp)")
        for key, (_, _, flag) in _OPTIONS.get(name, {}).items():
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **flag)
        return cmd

    add("validate", "parse and echo a scenario file")

    analyze = add("analyze", "exact estimands and bias decomposition")
    analyze.add_argument("--regime", choices=_values(Regime), default=None)

    bounds = add("bounds", "defier-share bounds from a first stage", config_optional=True)
    for coef in COEFFICIENTS:
        bounds.add_argument(f"--{coef}", type=float, default=None, help=f"first-stage coefficient {coef}")
    bounds.add_argument("--scan", action="store_true", help="add grid feasibility-scan intervals")
    bounds.add_argument("--step", type=float, default=0.05, help="scan grid step (default 0.05)")
    bounds.add_argument("--maintained", choices=_values(Maintained), default=None,
                        help="point-identify all group shares under this assumption")

    add("cluster", "choose a clustering and decompose its estimand")
    add("simulate", "seeded replication study against exact estimands")
    add("sweep", "bias curves over defier share or effect gap")
    return parser


def _attach_list_values(argv: list[str]) -> list[str]:
    """argv with "--grid -1,2" rewritten as "--grid=-1,2": argparse takes a
    value that starts with "-" and is not a single number for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--grid", "--levels") and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    try:
        argv = _attach_list_values(sys.argv[1:] if argv is None else argv)
        args = build_parser().parse_args(argv)  # --grid and --levels raise ConfigError while parsing
        return globals()[f"_cmd_{args.command}"](args)  # by name at call time; the parser holds no handler
    except IVStrataError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except Exception as err:  # e.g. MemoryError: still one line and exit 1, not a traceback
        detail = " ".join(str(err).split())
        print(f"error: {type(err).__name__}{': ' + detail if detail else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
