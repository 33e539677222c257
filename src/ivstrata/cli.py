"""Command-line interface.

Every subcommand reads a JSON scenario file (and/or explicit flags), calls
the library, and yields rows of raw values that `main` prints as CSV as
they are produced (so an error after `cluster`'s scenario rows leaves those
rows on stdout); results are byte-identical to direct library calls with
the same inputs and seeds. Numbers print with 4 decimal places by default;
--precision=full switches to repr for lossless round-trips. Errors print
one line to stderr and set the exit code: 2 for configuration problems, 3
for refuted maintained assumptions, 4 for infeasible or rank-deficient
problems, 1 for any other failure (such as running out of memory). A
closed stdout exits 1 with no error line.

Scenario files hold a "population" (joint strata) or a "marginal_spec"
(shares plus effect contrasts), and optional "sweep", "simulate", and
"cluster" blocks with per-command defaults, all checked when the file
loads; command-line flags override block values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import cache, partial
from typing import Iterator, Optional

from .clustering import (
    ClusterScenario,
    NegNegRule,
    Semantics,
    check_cluster_exclusion,
    check_sig_level,
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
    defier_bounds,
    feasible_set_scan,
    first_stage_from_shares,
    shares_from_first_stage,
)
from .strata import (
    EFFECT_SLOTS,
    MarginalGroup,
    MarginalSpec,
    Population,
    Target,
    as_float,
    check_count,
    check_seed,
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


def _sample_size(value, what: str) -> int:
    return check_count("sample size", _as_int(value, what), 1)


# Each command's scenario-block options: key -> (convert, default, flag). A
# block value is converted, and range-checked by the library's own rule, when
# the file loads; the command's --key flag, declared by the argparse keywords
# in `flag`, overrides it through the same converter (argparse gives the flag
# the JSON type).
_OPTIONS = {
    "sweep": {
        "axis": (partial(_enum, SweepAxis), SweepAxis.DEFIER_SHARE, {"choices": _values(SweepAxis)}),
        "grid": (_sweep_floats, None,  # None: 0, 0.05, ..., 0.5, times the C1 effect on the effect-gap axis
                 {"type": lambda text: _parse_float_list(text, "--grid"), "help": "comma-separated grid points"}),
        "levels": (_sweep_floats, None,  # None: 0.1, 0.2 and 0.5, times the C1 effect on the defier-share axis
                   {"type": lambda text: _parse_float_list(text, "--levels"), "help": "comma-separated curve levels"}),
        "defier": (lambda value, what: sweep_defier(value), "id1", {"choices": SWEEP_DEFIERS}),
    },
    "simulate": {
        "n": (_sample_size, 200000, {"type": int}),
        "reps": (lambda value, what: check_count("replications", _as_int(value, what), 2), 100, {"type": int}),
        "seed": (_as_int, 0, {"type": int}),  # a master seed is hashed, so any integer will do
        "target": (partial(_enum, Target), Target.FIELD_2SLS, {"choices": _values(Target)}),
        "scenario": (lambda value, what: ClusterScenario.from_label(value).require_collapse(), None,
                     {"choices": [s.value for s in ClusterScenario if s.s1 is not None]}),
    },
    "cluster": {
        "scenario": (lambda value, what: ClusterScenario.from_label(value), None,
                     {"choices": _values(ClusterScenario), "help": "override the sign-based scenario choice"}),
        "sig_level": (lambda value, what: check_sig_level(as_float(value, what)), 0.05, {"type": float}),
        "neg_neg_rule": (partial(_enum, NegNegRule), NegNegRule.UNDEFINED, {"choices": _values(NegNegRule)}),
        "semantics": (partial(_enum, Semantics), Semantics.POOLED, {"choices": _values(Semantics)}),
        "n": (_sample_size, None,
              {"type": int, "help": "choose the scenario from an estimated first stage on a sample of this size"}),
        "seed": (lambda value, what: check_seed(_as_int(value, what)), 0, {"type": int}),
        "constant_effects": (_as_bool, False,
                             {"action": "store_true", "help": "use the constant-effects decomposition"}),
    },
}


# The cluster options that a given scenario leaves unread.
_UNREAD_WITH_SCENARIO = ("n", "seed", "sig_level", "neg_neg_rule")


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
    sc = ScenarioFile(
        population=population_from_dict(doc["population"]) if has_pop else None,
        spec=marginal_spec_from_dict(doc["marginal_spec"]) if has_spec else None,
        options=options,
    )
    # No flag unsets a block value, so these fail `cluster` whatever its flags.
    if "scenario" in options["cluster"]:
        _reject_unread(options["cluster"], _UNREAD_WITH_SCENARIO, "when a scenario is given")
    return sc


def _options(args: argparse.Namespace, sc: ScenarioFile) -> tuple[dict, set[str]]:
    """The command's options (each its flag, else its block value, else its default) and those given as either."""
    block, flags = sc.options[args.command], vars(args)
    opts = {
        key: block.get(key, default) if flags[key] is None else convert(flags[key], key)
        for key, (convert, default, _) in _OPTIONS[args.command].items()
    }
    return opts, {key for key in opts if flags[key] is not None} | block.keys()


def _reject_unread(given, keys: tuple[str, ...], why: str) -> None:
    """ConfigError naming the first of `keys` in `given`: this run would ignore it."""
    for key in keys:
        if key in given:
            raise ConfigError(f"{key} is not used {why}")


def _term_rows(prefix: str, terms) -> Iterator[tuple]:
    """One row per term: prefix, label, weight, delta, sign, contribution."""
    for t in terms:
        yield prefix, t.label, t.weight, t.delta, "+" if t.sign > 0 else "-", t.contribution


def _cmd_validate(args: argparse.Namespace) -> Iterator[tuple]:
    sc = load_scenario(args.config)
    yield "status", "ok"
    if sc.population is not None:
        pop = sc.population
        yield "kind", "population"
        yield "strata", len(pop.entries)
        yield "assignment", tuple(pop.assignment)
        shares = marginal_shares(pop)
        for name in _GROUP_ORDER:
            yield "share", name, shares[MarginalGroup[name]]
        fs = first_stage_from_shares(shares)
        for coef in COEFFICIENTS:
            yield "first_stage", coef, getattr(fs, coef)
    else:
        spec = sc.spec
        yield "kind", "marginal_spec"
        for attr in ("pC1", "pID1", "pND1", "pC2", "pID2", "pND2"):
            yield "share", attr[1:], getattr(spec, attr)
        for slot in EFFECT_SLOTS:
            value = getattr(spec, slot)
            if value is not None:
                yield "effect", slot, value


def _cmd_analyze(args: argparse.Namespace) -> Iterator[tuple]:
    sc = load_scenario(args.config)
    spec = sc.any_spec()
    regime = Regime(args.regime) if args.regime else Regime.NEITHER
    dec1, dec2 = decompose(spec, regime)
    oracle1, oracle2 = solve_moment_system(spec)
    yield "beta1", dec1.total
    yield "beta2", dec2.total
    yield "late1", dec1.late
    yield "late2", dec2.late
    yield "bias1", dec1.bias
    yield "bias2", dec2.bias
    yield "oracle_beta1", oracle1
    yield "oracle_beta2", oracle2
    yield "oracle_gap1", dec1.total - oracle1
    yield "oracle_gap2", dec2.total - oracle2
    yield "regime", regime.value
    yield "denominator", dec1.denominator
    yield ()
    yield ("decomposition", "term", "weight", "delta", "sign", "contribution")
    for which, dec in (("beta1", dec1), ("beta2", dec2)):
        yield from _term_rows(which, dec.terms)
        yield which, "late", None, None, None, dec.late
        yield which, "total", None, None, None, dec.total


def _first_stage_from_args(args: argparse.Namespace) -> FirstStage:
    flags = {name: getattr(args, name) for name in COEFFICIENTS}
    given = {name: v for name, v in flags.items() if v is not None}
    if given:
        missing = sorted(set(flags) - set(given))
        if missing:
            raise ConfigError(f"first-stage flags are all-or-none; missing --{', --'.join(missing)}")
        if args.config is not None:
            raise ConfigError("scenario file is not used with the --aXY flags")
        return FirstStage(**given)
    if args.config is None:
        raise ConfigError("bounds needs a scenario file with a population, or all six --a10..--a22 flags")
    sc = load_scenario(args.config)
    pop = sc.require_population("bounds (without explicit --aXY flags)")
    return first_stage_from_shares(marginal_shares(pop))


def _cmd_bounds(args: argparse.Namespace) -> Iterator[tuple]:
    # Every row is computed before the first is yielded, so a failed scan prints nothing.
    fs = _first_stage_from_args(args)
    if args.maintained and args.scan:
        raise ConfigError("scan is not used with --maintained")
    if args.step is not None and not args.scan:
        raise ConfigError("step is not used without --scan")
    if args.maintained:
        shares = shares_from_first_stage(fs, Regime(args.maintained))
        rows = [(name, shares[MarginalGroup[name]], shares[MarginalGroup[name]]) for name in _GROUP_ORDER]
    else:
        rows = [(name, lo, hi) for name, (lo, hi) in defier_bounds(fs).intervals().items()]
        if args.scan:
            scan = feasible_set_scan(fs, step=0.05 if args.step is None else args.step)
            rows += [(f"{name}_scan", lo, hi) for name, (lo, hi) in scan.intervals().items()]
    yield ("group", "lo", "hi")
    yield from rows


def _cmd_cluster(args: argparse.Namespace) -> Iterator[tuple]:
    sc = load_scenario(args.config)
    pop = sc.require_population("cluster")
    opts, given = _options(args, sc)
    scenario = opts["scenario"]
    if scenario is not None:
        _reject_unread(given, _UNREAD_WITH_SCENARIO, "when a scenario is given")
    elif opts["n"] is None:  # exact signs: no sample, so no seed and no sign tests
        _reject_unread(given, ("seed", "sig_level"), "without n")
        scenario = choose_clustering(first_stage_from_shares(marginal_shares(pop)), neg_neg_rule=opts["neg_neg_rule"])
    else:
        from .montecarlo import first_stage_from_cells, sample_table  # numpy loads only where a command draws

        fs, ses = first_stage_from_cells(sample_table(pop, opts["n"], opts["seed"]))
        scenario = choose_clustering(fs, ses.a21, ses.a12, opts["sig_level"], opts["neg_neg_rule"])
    yield ("scenario", "s0", "s1")
    yield scenario.label, tuple(sorted(scenario.s0 or ())), tuple(sorted(scenario.s1 or ()))
    if scenario.s1 is None:  # no collapse, so no clustered estimand
        return
    dec = (cluster_estimand_constant_effects if opts["constant_effects"] else cluster_estimand_formula)(pop, scenario)
    verdict = check_cluster_exclusion(pop, scenario)
    oracle = cluster_wald_oracle(pop, scenario, opts["semantics"])
    yield ()
    yield "pi", dec.pi
    yield ("component", "label", "weight", "value", "sign", "contribution")
    yield from _term_rows("a", dec.a_terms)
    yield from _term_rows("bias", dec.bias_terms)
    yield "a_total", dec.a_total
    yield "bias_total", dec.bias
    yield "total", dec.total
    yield "exclusion", "holds" if verdict.holds else "violated:" + ";".join(verdict.violations)
    yield "semantics", opts["semantics"].value
    yield "oracle", oracle
    yield "oracle_gap", oracle - dec.total


def _cmd_simulate(args: argparse.Namespace) -> Iterator[tuple]:
    sc = load_scenario(args.config)
    pop = sc.require_population("simulate")
    opts, given = _options(args, sc)
    scenario = opts["scenario"]
    if opts["target"] is not Target.CLUSTER_WALD:
        _reject_unread(given, ("scenario",), f"with target {opts['target'].value}")
    elif scenario is None:
        scenario = choose_clustering(first_stage_from_shares(marginal_shares(pop)))
    from .montecarlo import replicate  # numpy loads only where a command draws

    summary = replicate(pop, opts["n"], opts["reps"], opts["seed"], scenario)  # a scenario means cluster-wald
    yield "n", summary.n
    yield "reps", summary.reps
    yield "seed", summary.master_seed
    yield "target", summary.target.value
    yield ()
    yield ("param", "truth", "mean", "sd", "bias", "coverage")
    for row in summary.rows:
        yield row.param, row.truth, row.mean, row.sd, row.bias, row.coverage


def _cmd_sweep(args: argparse.Namespace) -> Iterator[tuple]:
    sc = load_scenario(args.config)
    spec = sc.any_spec()
    opts, _ = _options(args, sc)
    grid, levels = opts["grid"], opts["levels"]
    # A defier-share grid point is a share and its level an effect gap; on the effect-gap axis the two swap. Each
    # default effect gap is a multiple of the C1 effect, so a spec without one exits 2 here rather than print nan rows.
    on_gaps = opts["axis"] is SweepAxis.EFFECT_GAP
    if grid is None:
        scale = spec.effect("eff_c1") if on_gaps else 1.0
        grid = [round(0.05 * i, 10) * scale for i in range(11)]
    if levels is None:
        scale = 1.0 if on_gaps else spec.effect("eff_c1")
        levels = [0.1 * scale, 0.2 * scale, 0.5 * scale]
    rows = bias_sweep(spec, opts["axis"], grid, levels, defier=opts["defier"])
    yield ("axis", "level", "beta", "late", "bias")
    for row in rows:
        yield row.axis, row.level, row.beta, row.late, row.bias


def build_parser() -> argparse.ArgumentParser:
    """The program's argument parser, built once a process."""
    return _parsers()[0]


@cache  # one parser a process: parse_args keeps no state in it, and handlers are looked up by name
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The program's parser and each command's own parser by name (the `choices` of its subparsers action)."""
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
    bounds.add_argument("--step", type=float, default=None, help="scan grid step (default 0.05)")
    bounds.add_argument("--maintained", choices=[r.value for r in Regime if r is not Regime.NEITHER], default=None,
                        help="point-identify all group shares under this assumption")

    add("cluster", "choose a clustering and decompose its estimand")
    add("simulate", "seeded replication study against exact estimands")
    add("sweep", "bias curves over defier share or effect gap")
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv as the program's parser parses it. When argv names a command, that command's parser reads the rest
    directly, as the subparsers action would, and leftovers fail through the program's parser with its text."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no argv, -h or an unknown word: the program's parser says what is wrong
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


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


def _cell(x, precision: str) -> str:
    """One CSV cell: "" for None, a tuple's cells joined by ";", a str or
    int as it is, any other number at 4 dp or, at --precision full, as the
    repr of a float (not of an np.float64, which numpy 2 wraps in its name)."""
    if type(x) is float:  # most cells: tested first, the same text as the fallback below
        return repr(x) if precision == "full" else f"{x:.4f}"
    if x is None:
        return ""
    if isinstance(x, tuple):
        return ";".join(_cell(v, precision) for v in x)
    if isinstance(x, (str, int)):
        return str(x)
    return repr(float(x)) if precision == "full" else f"{float(x):.4f}"


def main(argv: Optional[list[str]] = None) -> int:
    try:
        argv = _attach_list_values(sys.argv[1:] if argv is None else argv)
        args = _parse(argv)  # --grid and --levels raise ConfigError while parsing
        # Looked up by name at call time (the parser holds no handler); each row prints as it comes.
        for row in globals()[f"_cmd_{args.command}"](args):
            print(",".join(_cell(x, args.precision) for x in row))
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return 0
    except BrokenPipeError:
        # The reader is gone: no error line, and stdout goes to devnull so
        # the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except IVStrataError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except Exception as err:  # e.g. MemoryError: still one line and exit 1, not a traceback
        detail = " ".join(str(err).split())
        print(f"error: {type(err).__name__}{': ' + detail if detail else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
