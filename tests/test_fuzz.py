"""Seeded fuzzing of the CLI over mutated golden inputs.

Each case takes a scenario file and a command from the golden corpus
(`tests/test_golden.py`), mutates one to three of the file's values or keys
and the command's numeric options, and runs `main`. Mutations favour the
edges: values at and just past the magnitude bounds, sample sizes up to
`_MAX_COUNT`, zero and negative counts, and values of the wrong type.
Whatever the input, a run keeps the CLI's contract:

- the exit code is 0, 2, 3 or 4;
- a failure writes exactly one `error:` line to stderr, and a success
  writes nothing there;
- every number on stdout is finite, except the `nan` rows that `sweep`
  prints for singular or inadmissible points.

A second test mutates the golden populations alone and requires the one-pass
`population_from_dict` to give what the per-entry reference loader in
`tests/support.py` gives: an equal Population or the identical ConfigError.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random

from ivstrata.cli import main
from ivstrata.exceptions import ConfigError
from ivstrata.strata import _MAX_COUNT, EFFECT_BOUND, MAX_MAGNITUDE, population_from_dict

from support import reference_population_from_dict
from test_golden import POPULATION_COMMANDS, POPULATIONS, SPEC_COMMANDS, SPECS

CASES = 500
SEED = 20261019

# What a mutation writes in a number's place: ordinary values, values at and just past each bound, and values
# of the wrong type.
NUMBERS = (0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324, MAX_MAGNITUDE, -MAX_MAGNITUDE, 1.01 * MAX_MAGNITUDE,
           EFFECT_BOUND, -EFFECT_BOUND, 1e308, -1e308)
WRONG_TYPES = (None, "1", True, [], {}, [1.0])
SIZES = (1, 2, 3, 12, 2000, 10**12, _MAX_COUNT, _MAX_COUNT + 1, 0, -1)
# Replication counts stay small: a valid count runs that many replications.
REPS = (2, 3, 5, 1, 0, -1)
SEEDS = (0, 1, 7, 2**64 - 1, 2**64, -1)
# Options a block may carry, with the values a mutation gives them.
BLOCK_OPTIONS = {
    "simulate": {"n": SIZES, "reps": REPS, "seed": SEEDS, "target": ("field-2sls", "cluster-wald", "x")},
    "cluster": {"n": SIZES, "seed": SEEDS, "scenario": ("control-1", "treatment", "no-clustering"),
                "sig_level": (0.05, 0.0, 1.0, 2.0)},
    "sweep": {"grid": ([0.0, 0.5], [MAX_MAGNITUDE], [], [0.2, 1e308]), "levels": ([0.1], [EFFECT_BOUND, 1.0])},
}


def _leaves(doc, path=()):
    """The path of every number (not bool) and list in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        yield path
        for i, value in enumerate(doc):
            yield from _leaves(value, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def _mutate_doc(rng: random.Random, doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.2:
            name = rng.choice(list(BLOCK_OPTIONS))
            option, values = rng.choice(list(BLOCK_OPTIONS[name].items()))
            doc.setdefault(name, {})[option] = rng.choice(values)
            continue
        paths = [path for path in _leaves(doc) if path]
        if not paths:
            continue
        path = rng.choice(paths)
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        if kind < 0.3 and isinstance(parent, dict):
            del parent[last]
        elif kind < 0.4:
            parent[last] = rng.choice(WRONG_TYPES)
        elif isinstance(parent[last], list):
            parent[last] = parent[last][:-1] if kind < 0.5 else parent[last] + [rng.choice(NUMBERS)]
        else:
            parent[last] = rng.choice(NUMBERS)
    return doc


def _mutate_argv(rng: random.Random, cmd: list[str]) -> list[str]:
    cmd = list(cmd)
    if cmd[0] == "simulate":
        cmd += ["--n", str(rng.choice(SIZES)), "--reps", str(rng.choice(REPS)), "--seed", str(rng.choice(SEEDS))]
    elif cmd[0] == "cluster" and "--scenario" not in cmd and rng.random() < 0.7:
        cmd += ["--n", str(rng.choice(SIZES)), "--seed", str(rng.choice(SEEDS))]
    elif "--step" in cmd:
        cmd[cmd.index("--step") + 1] = str(rng.choice((0.1, 0.05, 1e-3, 0.0, -0.1, 0.2, 5e-324)))
    return cmd


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _nonfinite(command: str, stdout: str) -> list[str]:
    cells = (cell for line in stdout.splitlines() for cell in line.replace(";", ",").split(","))
    bad = []
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            continue
        if not math.isfinite(value) and not (command == "sweep" and math.isnan(value)):
            bad.append(cell)
    return bad


def test_mutated_golden_inputs_keep_the_cli_contract(tmp_path):
    rng = random.Random(SEED)
    corpus = [(doc, cmd) for doc in POPULATIONS.values() for cmd in POPULATION_COMMANDS]
    corpus += [(doc, cmd) for doc in SPECS.values() for cmd in SPEC_COMMANDS]
    codes = {}
    for case in range(CASES):
        doc, cmd = rng.choice(corpus)
        doc = _mutate_doc(rng, doc) if rng.random() < 0.8 else doc
        argv = _mutate_argv(rng, cmd)
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run([argv[0], str(path), *argv[1:], *rng.choice(([], ["--precision", "full"]))])
        what = (case, argv, doc)
        assert code in (0, 2, 3, 4), what
        if code == 0:
            assert err == "", what
        else:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), what
        assert _nonfinite(argv[0], out) == [], what
        codes[code] = codes.get(code, 0) + 1
    # The mutations reach both sides of the contract.
    assert codes.get(0, 0) >= CASES // 5 and codes.get(2, 0) >= CASES // 5, codes


# What a loader mutation writes in a number's place: NUMBERS and WRONG_TYPES, non-finite floats, integers past a float's
# range, and in-range integers and bools, which a number field converts or refuses.
LOADER_VALUES = NUMBERS + WRONG_TYPES + (math.nan, math.inf, -math.inf, 10**400, -(10**400), 0, 1, 2, -1, False)
TAGS = ("C1C2", "ID1C2", "NT1NT2", "c1c2", "XX", "", 1, None, ["C1C2"])


def _fault(rng: random.Random, holder: dict) -> None:
    """One fault in a stratum entry or a population object: a key deleted or added, or a value replaced."""
    key = rng.choice(list(holder)) if holder and rng.random() < 0.9 else "bogus"
    kind = rng.random()
    if kind < 0.2 and key in holder:
        del holder[key]
    elif key == "tag":
        holder[key] = rng.choice(TAGS)
    elif isinstance(holder.get(key), list) and kind < 0.7:
        values = list(holder[key])
        if kind < 0.45 or not values:
            values = values[:-1] if rng.random() < 0.5 else values + [rng.choice(LOADER_VALUES)]
        else:
            values[rng.randrange(len(values))] = rng.choice(LOADER_VALUES)
        holder[key] = values
    else:
        holder[key] = rng.choice(LOADER_VALUES)


def _mutate_population(rng: random.Random, doc: dict) -> dict:
    """A population document with one to three faults, or with one fault in each of two different entries."""
    doc = copy.deepcopy(doc)
    strata = doc["strata"]
    if rng.random() < 0.3:
        for i in rng.sample(range(len(strata)), 2):
            _fault(rng, strata[i])
        return doc
    for _ in range(rng.randint(1, 3)):
        strata = doc.get("strata")
        entries = [e for e in strata if isinstance(e, dict)] if isinstance(strata, list) else []
        _fault(rng, rng.choice(entries) if entries and rng.random() < 0.85 else doc)
    return doc


def _retype(rng: random.Random, doc: dict) -> dict:
    """A population document that still loads: some whole numbers as ints, some means as tuples, some noise_sd and
    assignment keys left to their defaults."""
    doc = copy.deepcopy(doc)
    if rng.random() < 0.2:
        doc.pop("assignment", None)
    for entry in doc["strata"]:
        for key in ("prob", "noise_sd"):
            if key in entry and entry[key] == int(entry[key]) and rng.random() < 0.5:
                entry[key] = int(entry[key])
        entry["means"] = [int(m) if m == int(m) and rng.random() < 0.5 else m for m in entry["means"]]
        if rng.random() < 0.2:
            entry["means"] = tuple(entry["means"])
        if rng.random() < 0.2:
            entry.pop("noise_sd", None)
    return doc


def _load(loader, doc):
    """The loaded Population with its repr, or the ConfigError's text."""
    try:
        pop = loader(doc)
    except ConfigError as err:
        return "error", str(err)
    return pop, repr(pop)


def test_one_pass_loader_matches_the_per_entry_reference():
    """Mutated golden populations load to an equal Population, every number a float, or fail with the identical
    ConfigError text: the one-pass loader keeps the per-entry loader's checks, their order and their labels."""
    rng = random.Random(SEED)
    docs = [doc["population"] for doc in POPULATIONS.values() if len(doc["population"]["strata"]) >= 2]
    loaded, refused = 0, set()
    for case in range(3000):
        doc = rng.choice(docs)
        doc = _mutate_population(rng, doc) if rng.random() < 0.7 else _retype(rng, doc)
        got, want = _load(population_from_dict, doc), _load(reference_population_from_dict, doc)
        assert got == want, (case, doc)
        if got[0] == "error":
            refused.add(got[1])
            continue
        loaded += 1
        pop = got[0]
        assert type(pop.assignment) is tuple and all(type(p) is float for p in pop.assignment), doc
        for e in pop.entries:
            assert type(e.prob) is float and type(e.noise_sd) is float, doc
            assert type(e.means) is tuple and all(type(m) is float for m in e.means), doc
    # Both sides are reached, and the refusals name many distinct faults.
    assert loaded >= 600 and len(refused) >= 300, (loaded, len(refused))
