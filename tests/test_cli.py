"""End-to-end CLI runs through main(), checking CSV output and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ivstrata.cli as cli
import ivstrata.strata as strata
from ivstrata.cli import main

ANCHOR_SPEC = {
    "marginal_spec": {
        "shares": {"C1": 0.8, "ID1": 0.2, "C2": 0.8, "ID2": 0.2},
        "effects": {"C1": 1000.0, "C2": 500.0, "ID1": 500.0, "ID2": 900.0},
    }
}

BENCHMARK_POP = {
    "population": {
        "strata": [
            {"tag": "C1C2", "prob": 0.6, "means": [0.0, 1033.3333333333333, 500.0], "noise_sd": 150.0},
            {"tag": "C1ID2", "prob": 0.2, "means": [0.0, 900.0, 500.0], "noise_sd": 150.0},
            {"tag": "ID1C2", "prob": 0.2, "means": [0.0, 0.0, 500.0], "noise_sd": 150.0},
        ]
    }
}

CLUSTER_POP = {
    "population": {
        "strata": [
            {"tag": "C1NT2", "prob": 0.3, "means": [50.0, 350.0, 550.0]},
            {"tag": "NT1C2", "prob": 0.3, "means": [50.0, 350.0, 550.0]},
            {"tag": "ID1C2", "prob": 0.2, "means": [50.0, 350.0, 550.0]},
            {"tag": "NT1NT2", "prob": 0.2, "means": [50.0, 350.0, 550.0]},
        ]
    },
    "cluster": {"scenario": "control-1", "constant_effects": True},
}


@pytest.fixture
def write_json(tmp_path):
    def _write(doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_analyze_anchor_headline(write_json, capsys):
    code, out, err = run(capsys, ["analyze", write_json(ANCHOR_SPEC)])
    assert code == 0 and err == ""
    assert out[0] == "beta1,1006.6667"
    assert out[1] == "beta2,473.3333"
    assert "bias1,6.6667" in out
    assert "regime,neither" in out
    assert "denominator,0.6000" in out
    header_idx = out.index("decomposition,term,weight,delta,sign,contribution")
    table = out[header_idx + 1:]
    assert any(line.startswith("beta1,w1,") for line in table)
    assert "beta1,total,,,,1006.6667" in table
    assert "beta2,total,,,,473.3333" in table


def test_analyze_full_precision_is_lossless(write_json, capsys):
    code, out, _ = run(capsys, ["analyze", write_json(ANCHOR_SPEC), "--precision", "full"])
    assert code == 0
    assert out[0] == "beta1,1006.6666666666666"


def test_analyze_regime_flag(write_json, capsys):
    code, out, _ = run(capsys, ["analyze", write_json(ANCHOR_SPEC), "--regime", "next-best"])
    assert code == 0
    assert "regime,next-best" in out
    assert out[0] == "beta1,1006.6667"


def test_validate_population(write_json, capsys):
    code, out, _ = run(capsys, ["validate", write_json(BENCHMARK_POP)])
    assert code == 0
    assert out[0] == "status,ok"
    assert "kind,population" in out
    assert "strata,3" in out
    assert "share,C1,0.8000" in out
    assert "share,ID1,0.2000" in out
    assert "first_stage,a21,0.2000" in out
    assert sum(1 for line in out if line.startswith("share,")) == 12
    assert sum(1 for line in out if line.startswith("first_stage,")) == 6


def test_validate_marginal_spec(write_json, capsys):
    code, out, _ = run(capsys, ["validate", write_json(ANCHOR_SPEC)])
    assert code == 0
    assert "kind,marginal_spec" in out
    assert "share,ND1,0.0000" in out
    assert "effect,eff_c1,1000.0000" in out
    # Only the four supplied slots are echoed.
    assert sum(1 for line in out if line.startswith("effect,")) == 4


def test_config_errors_exit_2(write_json, capsys):
    bad_key = dict(ANCHOR_SPEC, extra={"x": 1})
    code, _, err = run(capsys, ["analyze", write_json(bad_key)])
    assert code == 2 and err == "error: unknown key(s) in scenario: extra\n"

    code, _, err = run(capsys, ["analyze", write_json({})])
    assert code == 2 and "exactly one" in err

    code, _, err = run(capsys, ["analyze", "/nonexistent/scenario.json"])
    assert code == 2 and "cannot read" in err

    # Python refuses integer literals past its digit limit while parsing.
    huge = write_json({})
    with open(huge, "w") as fh:
        fh.write('{"population": {"strata": [{"tag": "C1C2", "prob": 1' + "0" * 5000 + ', "means": [0, 1, 2]}]}}')
    code, out, err = run(capsys, ["validate", huge])
    assert code == 2 and out == [] and err.startswith("error: scenario file") and err.count("\n") == 1

    both = dict(ANCHOR_SPEC, **BENCHMARK_POP)
    code, _, err = run(capsys, ["analyze", write_json(both)])
    assert code == 2

    code, _, err = run(capsys, ["bounds", "--a10", "0.0"])
    assert code == 2 and "all-or-none" in err

    code, out, err = run(capsys, ["bounds"])
    assert code == 2 and out == [] and err.startswith("error: bounds needs a scenario file") and err.count("\n") == 1

    # Sizes past what numpy can describe are refused before anything is drawn or allocated.
    pop = write_json(BENCHMARK_POP)
    for argv in (["cluster", pop, "--n"], ["simulate", pop, "--n"], ["simulate", pop, "--n", "10", "--reps"]):
        for value in (str(10**20), str(2**62)):
            code, out, err = run(capsys, argv + [value])
            assert code == 2 and out == [] and err.startswith("error: ") and err.count("\n") == 1 and value in err

    # A --grid or --levels flag is checked like a block list, so it needs a number.
    for flag in ("--grid", "--levels"):
        code, out, err = run(capsys, ["sweep", write_json(ANCHOR_SPEC), flag, ","])
        assert code == 2 and out == [] and err == f"error: sweep {flag[2:]} must be a nonempty list of numbers\n"
    code, out, err = run(capsys, ["sweep", write_json(ANCHOR_SPEC), "--grid", "0.1,x"])
    assert code == 2 and out == [] and err == "error: --grid must be comma-separated numbers, got '0.1,x'\n"
    for flag, text, values in (("--grid", "nan", "[nan]"), ("--levels", "1,inf", "[1.0, inf]")):
        code, out, err = run(capsys, ["sweep", write_json(ANCHOR_SPEC), flag, text])
        assert code == 2 and out == [] and err == f"error: sweep {flag[2:]} must be finite numbers, got {values}\n"

    # 1/step overflows to inf; the scan rejects the step instead of crashing.
    scan = ["bounds", "--a10", "0.0", "--a11", "0.5", "--a12", "0.0", "--a20", "0.3",
            "--a21", "0.1", "--a22", "0.4", "--scan", "--step"]
    for step in ("5e-324", "1e-320"):
        code, out, err = run(capsys, scan + [step])
        assert code == 2 and out == [] and err.startswith("error: scan step") and err.count("\n") == 1


def _one_stratum(**fields):
    return {"population": {"strata": [dict({"tag": "C1C2", "prob": 1.0, "means": [0.0, 1.0, 2.0]}, **fields)]}}


@pytest.mark.parametrize(
    "doc",
    [
        _one_stratum(prob="1"),
        _one_stratum(prob=True),
        _one_stratum(means=5),
        _one_stratum(tag=["x"]),
        {"marginal_spec": {"shares": {"C1": "0.5"}}},
        {"population": dict(_one_stratum()["population"], assignment=[0.5, "a", 0.5])},
        _one_stratum(noise_sd=None),
        _one_stratum(prob=10**400),
        _one_stratum(means=[0.0, float("inf"), 2.0]),  # written as JSON Infinity
        {"population": {"strata": []}},
        {"population": {"strata": _one_stratum()["population"]["strata"] * 2}},
        {"population": dict(_one_stratum()["population"], assignment=[0.5, 0.5])},
        {"population": dict(_one_stratum()["population"], assignment=[1.5, -0.5, 0.0])},
        {"population": [1]},
        {"population": {"strata": {}}},
        {"population": {"strata": [1]}},
        {"population": {}},
        {"population": {"strata": [{"tag": "C1C2", "means": [0.0, 1.0, 2.0]}]}},
        {"marginal_spec": 1},
        {"marginal_spec": {"shares": [0.5]}},
        {"marginal_spec": {"effects": [1.0]}},
        {"marginal_spec": {"effects": {"ND1": 1.0}}},
        [1],
    ],
    ids=["prob-string", "prob-bool", "means-number", "tag-list", "share-string", "assignment-string", "noise-null",
         "prob-overflow", "means-infinity", "no-strata", "duplicate-stratum", "assignment-length",
         "assignment-negative", "population-list", "strata-object", "stratum-number", "strata-missing",
         "prob-missing", "spec-number", "shares-list", "effects-list", "nd1-effect-number", "file-list"],
)
def test_bad_value_types_exit_2(write_json, capsys, doc):
    code, out, err = run(capsys, ["validate", write_json(doc)])
    assert code == 2 and out == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_singular_spec_exits_4(write_json, capsys):
    singular = {
        "marginal_spec": {
            "shares": {"C1": 0.5, "ID1": 0.5, "C2": 0.5, "ID2": 0.5},
            "effects": {"C1": 10.0, "C2": 10.0, "ID1": 10.0, "ID2": 10.0},
        }
    }
    code, _, err = run(capsys, ["analyze", write_json(singular)])
    assert code == 4 and err.startswith("error:")


def test_bounds_formula_and_scan_rows(capsys):
    argv = ["bounds", "--a10", "0.0", "--a11", "0.5", "--a12", "0.0",
            "--a20", "0.3", "--a21", "0.1", "--a22", "0.4"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out[0] == "group,lo,hi"
    assert "ND1,0.0000,0.3000" in out
    assert "ID1,0.1000,0.4000" in out
    assert "ND2,0.0000,0.0000" in out
    assert not any(line.startswith("ND1_scan") for line in out)

    code, out, _ = run(capsys, argv + ["--scan", "--step", "0.1"])
    assert code == 0
    assert "ND1_scan,0.0000,0.3000" in out
    assert "ID2_scan,0.0000,0.0000" in out


def test_bounds_maintained_points_and_refutation(capsys):
    base = ["bounds", "--a10", "0.0", "--a11", "0.8", "--a12", "0.2",
            "--a20", "0.0", "--a21", "0.2", "--a22", "0.8"]
    code, out, _ = run(capsys, base + ["--maintained", "next-best"])
    assert code == 0
    assert "ID1,0.2000,0.2000" in out
    assert "C1,0.8000,0.8000" in out
    assert sum("," in line for line in out) == 13  # header plus all 12 groups

    # The positive cross slope refutes maintained irrelevance.
    code, out, err = run(capsys, base + ["--maintained", "irrelevance"])
    assert code == 3
    assert out == [] and "error:" in err


def test_bounds_infeasible_exits_4(capsys):
    code, _, err = run(capsys, ["bounds", "--a10", "0.1", "--a11", "0.5", "--a12", "0.0",
                                "--a20", "0.1", "--a21", "-0.2", "--a22", "0.3"])
    assert code == 4 and "no feasible" in err
    # Each instrument alone is satisfiable; only the joint cap rules it out.
    code, out, err = run(capsys, ["bounds", "--a10", "0.1", "--a11", "0.25", "--a12", "0.1",
                                  "--a20", "0.3", "--a21", "-0.2", "--a22", "0.3"])
    assert code == 4 and out == [] and "joint cap" in err



@pytest.mark.parametrize("extra, err", [
    (["--maintained", "next-best", "--scan", "--step", "0.001"], "scan is not used with --maintained"),
    (["--maintained", "next-best", "--step", "0.5"], "step is not used without --scan"),
    (["--step", "0.5"], "step is not used without --scan"),
    (["--a10", "0.0", "--a11", "0.5", "--a12", "0.0", "--a20", "0.3", "--a21", "0.1", "--a22", "0.4"],
     "scenario file is not used with the --aXY flags"),
], ids=["maintained-scan", "maintained-step", "step", "file-with-flags"])
def test_bounds_unread_options_exit_2(write_json, capsys, extra, err):
    code, out, stderr = run(capsys, ["bounds", write_json(BENCHMARK_POP), *extra])
    assert code == 2 and out == []
    assert stderr == f"error: {err}\n"

def test_cluster_block_and_flag_precedence(write_json, capsys):
    path = write_json(CLUSTER_POP)
    code, out, _ = run(capsys, ["cluster", path])
    assert code == 0
    assert out[0] == "scenario,s0,s1"
    assert out[1] == "control-1,0;2,1"
    assert "pi,0.8000" in out
    # The block asked for the constant-effects decomposition.
    assert any(line.startswith("bias,w.1,0.2500,500.0000,+") for line in out)
    assert "a_total,-12.5000" in out
    assert "bias_total,125.0000" in out
    assert "total,112.5000" in out
    assert "exclusion,violated:ID1C2" in out
    assert "semantics,pooled" in out
    assert "oracle,216.6667" in out

    # A scenario flag overrides the block's choice.
    code, out, _ = run(capsys, ["cluster", path, "--scenario", "treatment"])
    assert code == 0
    assert out[1] == "treatment,0,1;2"

    code, out, _ = run(capsys, ["cluster", path, "--semantics", "group-relevant"])
    assert code == 0
    assert "semantics,group-relevant" in out
    assert "oracle,112.5000" in out
    assert "oracle_gap,0.0000" in out


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_cluster_constant_effects_must_be_boolean(write_json, capsys, value):
    # "false" is a truthy string: it must not switch the decomposition on.
    doc = dict(CLUSTER_POP, cluster={"scenario": "control-1", "constant_effects": value})
    for extra in ([], ["--constant-effects"]):
        code, out, err = run(capsys, ["cluster", write_json(doc), *extra])
        assert code == 2 and out == []
        assert err == f"error: constant_effects must be true or false, got {value!r}\n"


def test_cluster_degenerate_scenario_prints_no_table(write_json, capsys):
    code, out, _ = run(capsys, ["cluster", write_json(CLUSTER_POP), "--scenario", "no-clustering"])
    assert code == 0
    assert out == ["scenario,s0,s1", "no-clustering,,"]


def test_simulate_summary_and_flag_precedence(write_json, capsys):
    doc = dict(BENCHMARK_POP, simulate={"n": 50_000, "reps": 50, "seed": 4})
    path = write_json(doc)
    code, out, _ = run(capsys, ["simulate", path, "--n", "2000", "--reps", "3"])
    assert code == 0
    assert out[0] == "n,2000"       # flag beats the block
    assert out[1] == "reps,3"
    assert out[2] == "seed,4"       # block beats the default
    assert out[3] == "target,field-2sls"
    header_idx = out.index("param,truth,mean,sd,bias,coverage")
    rows = out[header_idx + 1:]
    assert [r.split(",")[0] for r in rows] == ["beta1", "beta2", "a10", "a11", "a12", "a20", "a21", "a22"]
    truth = rows[0].split(",")[1]
    assert truth == "1006.6667"


def test_simulate_cluster_wald_target(write_json, capsys):
    code, out, _ = run(capsys, ["simulate", write_json(CLUSTER_POP), "--target", "cluster-wald",
                                "--n", "2000", "--reps", "3", "--scenario", "control-1"])
    assert code == 0
    assert "target,cluster-wald" in out
    rows = out[out.index("param,truth,mean,sd,bias,coverage") + 1:]
    assert len(rows) == 1 and rows[0].startswith("wald,216.6667,")


def test_simulate_degenerate_replication_names_the_replication(write_json, capsys):
    # At n=12 some replication draws a sample with a singular design; the
    # one error line names that replication of the study at --seed.
    code, out, err = run(capsys, ["simulate", write_json(BENCHMARK_POP), "--n", "12", "--reps", "200", "--seed", "1"])
    assert code == 4 and out == []
    assert err.splitlines() == ["error: replication 1: instrument z never takes value [1] in this sample"]


def _nonfinite_cells(lines):
    return [cell for line in lines for cell in line.replace(";", ",").split(",") if cell in ("inf", "-inf", "nan")]


def test_cluster_overflowing_mean_difference_exits_2(write_json, capsys):
    doc = {"population": {"strata": [
        {"tag": "C1C2", "prob": 0.5, "means": [-1.7e308, 1.0, 1.7e308]},
        {"tag": "C1ID2", "prob": 0.3, "means": [0.0, 1.0, 2.0]},
        {"tag": "ID1C2", "prob": 0.2, "means": [0.0, 1.0, 2.0]},
    ]}}
    code, out, err = run(capsys, ["cluster", write_json(doc)])
    assert code == 2 and _nonfinite_cells(out) == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_analyze_overflowing_effects_exits_2(write_json, capsys):
    doc = {"marginal_spec": {
        "shares": {"C1": 0.6, "ID1": 0.2, "C2": 0.6, "ID2": 0.2},
        "effects": {"C1": 1e308, "ID1": 0.0, "C2": 1.0, "ID2": -1e308},
    }}
    code, out, err = run(capsys, ["analyze", write_json(doc)])
    assert code == 2 and _nonfinite_cells(out) == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("shares, effects, missing", [
    # No C1 effect: the first estimand's own slot.
    ({"C1": 0.6, "ID1": 0.1, "ND2": 0.3, "ID2": 0.2}, {"C2": 100, "ID1": 50, "ND2": [10, 20], "ID2": 30},
     "E[y1-y0 | C1]"),
    # No C2 effect: only the second estimand needs it, and it reads the label-swapped spec's C1 slot.
    ({"C1": 0.6, "ID1": 0.1, "ND2": 0.3, "ID2": 0.2}, {"C1": 100, "ID1": 50, "ND2": [10, 20], "ID2": 30},
     "E[y2-y0 | C2]"),
    # No ID2 effect: only the second estimand's w2 term (P(ID2) * P(C1) > 0) needs it.
    ({"C1": 0.5, "C2": 0.5, "ID2": 0.2}, {"C1": 100, "C2": 40}, "E[y1-y0 | ID2]"),
    # No ND2 effects: the second estimand's w3 term (P(ND2) * P(C1) > 0) reads E[y2-y0 | ND2] first.
    ({"C1": 0.5, "C2": 0.5, "ND2": 0.2}, {"C1": 100, "C2": 40}, "E[y2-y0 | ND2]"),
])
def test_analyze_names_an_absent_effect_as_the_spec_labels_it(write_json, capsys, shares, effects, missing):
    code, out, err = run(capsys, ["analyze", write_json({"marginal_spec": {"shares": shares, "effects": effects}})])
    assert (code, out, err) == (2, [], f"error: effect {missing} is required here but absent from the spec\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_overflowing_noise_exits_2(write_json, capsys):
    doc = {"population": {"strata": [dict(s, noise_sd=1e308) for s in BENCHMARK_POP["population"]["strata"]]}}
    code, out, err = run(capsys, ["simulate", write_json(doc), "--n", "50", "--reps", "3", "--seed", "1"])
    assert code == 2 and out == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cluster_draw_with_overflowing_noise_exits_2(write_json, capsys):
    # cluster --n reads only the drawn counts, but the draw forms every group mean and M2, where sd * noise and
    # sd**2 would overflow.
    doc = {"population": {"strata": [dict(s, noise_sd=1e308) for s in CLUSTER_POP["population"]["strata"]]}}
    code, out, err = run(capsys, ["cluster", write_json(doc), "--n", "500", "--seed", "3"])
    assert code == 2 and out == []
    assert err.splitlines() == ["error: stratum C1NT2: noise_sd 1e+308 exceeds 1e+100"]


# The largest inputs admitted: means of -1e100 and 1e100 with noise sd 1e100, and effects of -4e100 and 4e100.
BOUND_POP = {"population": {"strata": [
    dict(s, means=[-1e100, 1e100, 0.0] if i % 2 else [1e100, -1e100, 1e100], noise_sd=1e100)
    for i, s in enumerate(CLUSTER_POP["population"]["strata"])
]}}
BOUND_SPEC = {"marginal_spec": {
    "shares": {"C1": 0.6, "ID1": 0.2, "C2": 0.6, "ID2": 0.2},
    "effects": {"C1": 4e100, "ID1": -4e100, "C2": -4e100, "ID2": 4e100},
}}


@pytest.mark.parametrize("doc, argv", [
    *((BOUND_POP, argv) for argv in (
        ["analyze"], ["analyze", "--regime", "next-best"], ["bounds"], ["sweep"], ["cluster"],
        ["cluster", "--n", "500", "--seed", "3"], ["simulate", "--n", "50", "--reps", "3", "--seed", "1"],
        ["simulate", "--target", "cluster-wald", "--scenario", "control-1", "--n", "50", "--reps", "3", "--seed", "1"],
    )),
    (BOUND_SPEC, ["analyze"]), (BOUND_SPEC, ["sweep"]),
])
def test_inputs_at_the_magnitude_bound_give_finite_output(write_json, capsys, doc, argv):
    code, out, err = run(capsys, [argv[0], write_json(doc), *argv[1:]])
    assert (code, err) == (0, "") and out and _nonfinite_cells(out) == []


@pytest.mark.parametrize("doc", [BENCHMARK_POP, BOUND_POP], ids=["benchmark", "bound"])
@pytest.mark.parametrize("argv", [["simulate", "--reps", "3"], ["cluster", "--seed", "3"]], ids=["simulate", "cluster"])
def test_the_largest_sample_size_runs_in_under_a_second(write_json, capsys, doc, argv):
    # A replication draws its cell table from group summaries, not rows, so n = _MAX_COUNT costs what n = 50 does:
    # a few milliseconds in process. The fastest of three runs is timed, so one GC pause or busy moment on a
    # loaded host does not decide the outcome.
    argv = [argv[0], write_json(doc), "--n", str(strata._MAX_COUNT), *argv[1:]]
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        elapsed.append(time.perf_counter() - start)
        assert (code, err) == (0, "") and out and _nonfinite_cells(out) == []
    assert min(elapsed) < 1.0, elapsed


def test_sweep_rows(write_json, capsys):
    path = write_json(ANCHOR_SPEC)
    code, out, _ = run(capsys, ["sweep", path])
    assert code == 0
    assert out[0] == "axis,level,beta,late,bias"
    assert len(out) == 1 + 11 * 3
    assert out[1] == "0.0000,100.0000,1000.0000,1000.0000,0.0000"
    assert "0.2000,100.0000,1006.6667,1000.0000,6.6667" in out
    assert "0.2000,200.0000,1013.3333,1000.0000,13.3333" in out

    code, out, _ = run(capsys, ["sweep", path, "--grid", "0.0,0.8", "--levels", "100"])
    assert code == 0
    # The 0.8 point is singular; it reports as nan rather than aborting.
    assert len(out) == 3
    assert out[2].startswith("0.8000,100.0000,nan")


def test_sweep_default_levels_follow_the_axis(write_json, capsys):
    # A defier-share curve's level is an effect gap: 10, 20 and 50 percent of the C1 effect, and its grid runs over
    # shares 0, 0.05, ..., 0.5. On the effect-gap axis the two swap: levels 0.1, 0.2 and 0.5 are defier shares, and
    # the grid runs over 0, 5, ..., 50 percent of the C1 effect.
    path = write_json(ANCHOR_SPEC)
    for axis, grid, levels in (("defier-share", "0.0000;0.0500;0.5000", "100.0000;200.0000;500.0000"),
                               ("effect-gap", "0.0000;50.0000;500.0000", "0.1000;0.2000;0.5000")):
        code, out, err = run(capsys, ["sweep", path, "--axis", axis])
        assert (code, err) == (0, "") and len(out) == 1 + 11 * 3
        assert ";".join(out[row].split(",")[0] for row in (1, 4, 31)) == grid
        assert ";".join(row.split(",")[1] for row in out[1:4]) == levels
        assert not any("nan" in row for row in out), axis
    # A given grid is read as it is on either axis.
    path = write_json(dict(ANCHOR_SPEC, sweep={"grid": [0, 100]}))
    code, out, _ = run(capsys, ["sweep", path, "--axis", "effect-gap"])
    assert code == 0 and [row.split(",")[0] for row in out[1::3]] == ["0.0000", "100.0000"]
    # Without a C1 effect neither axis has default levels.
    no_c1 = {"marginal_spec": dict(ANCHOR_SPEC["marginal_spec"], effects={"C2": 500.0, "ID1": 500.0, "ID2": 900.0})}
    for axis in ("defier-share", "effect-gap"):
        code, out, err = run(capsys, ["sweep", write_json(no_c1), "--axis", axis])
        assert (code, out, err) == (2, [], "error: effect E[y1-y0 | C1] is required here but absent from the spec\n")


def test_unexpected_exception_exits_1(write_json, capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_validate", out_of_memory)
    code, out, err = run(capsys, ["validate", write_json(ANCHOR_SPEC)])
    assert code == 1 and out == [] and err == "error: MemoryError\n"

    def broken(args):
        raise ValueError("two\nlines")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    code, out, err = run(capsys, ["validate", write_json(ANCHOR_SPEC)])
    assert code == 1 and out == [] and err == "error: ValueError: two lines\n"

    # Rows print as the handler yields them, so a later failure leaves them on stdout.
    def fails_after_one_row(args):
        yield "status", "ok"
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_validate", fails_after_one_row)
    code, out, err = run(capsys, ["validate", write_json(ANCHOR_SPEC)])
    assert code == 1 and out == ["status,ok"] and err == "error: MemoryError\n"


def test_argparse_usage_errors_raise_system_exit(write_json, capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["analyze", write_json(ANCHOR_SPEC), "--regime", "bogus"])
    capsys.readouterr()


# Cross slopes a21 = -0.03 and a12 = 0: the exact first stage selects
# control-1; a small sample cannot tell a21 from zero.
WEAK_CROSS_POP = {
    "population": {
        "strata": [
            {"tag": "C1C2", "prob": 0.97, "means": [0.0, 1.0, 2.0]},
            {"tag": "ND1AT2", "prob": 0.03, "means": [0.0, 1.0, 2.0]},
        ]
    }
}


def test_cluster_n_chooses_from_an_estimated_first_stage(write_json, capsys):
    path = write_json(WEAK_CROSS_POP)
    code, exact, _ = run(capsys, ["cluster", path])
    assert code == 0 and exact[1] == "control-1,0;2,1"

    code, out, err = run(capsys, ["cluster", path, "--n", "200", "--seed", "3"])
    assert code == 0 and err == ""
    assert out == ["scenario,s0,s1", "no-clustering,,"]

    code, out, _ = run(capsys, ["cluster", path, "--n", "20000", "--seed", "3"])
    assert code == 0 and out == exact

    # The block's n and seed do the same as the flags; a flag still wins.
    path = write_json(dict(WEAK_CROSS_POP, cluster={"n": 200, "seed": 3}))
    code, out, _ = run(capsys, ["cluster", path])
    assert code == 0 and out == ["scenario,s0,s1", "no-clustering,,"]
    code, out, _ = run(capsys, ["cluster", path, "--n", "20000"])
    assert code == 0 and out == exact

    # No one ever takes field 2, so a second stage would be singular; the
    # choice reads only the estimated first stage.
    path = write_json({"population": {"strata": [
        {"tag": "C1NT2", "prob": 0.6, "means": [0.0, 1.0, 2.0], "noise_sd": 1.0},
        {"tag": "NT1NT2", "prob": 0.4, "means": [0.0, 1.0, 2.0], "noise_sd": 1.0},
    ]}})
    for extra in ([], ["--n", "500", "--seed", "1"]):
        code, out, err = run(capsys, ["cluster", path, *extra])
        assert code == 0 and err == "" and out == ["scenario,s0,s1", "no-clustering,,"]


# Every stratum takes the same field in arms 1 and 2, so each scenario's true clustered first stage is zero.
TAKERS_ONLY_POP = {"population": {"strata": [
    {"tag": "NT1NT2", "prob": 0.5, "means": [1.0, 4.0, -2.0], "noise_sd": 0.0},
    {"tag": "AT1OT2", "prob": 0.3, "means": [3.0, 6.0, 0.0], "noise_sd": 0.0},
    {"tag": "OT1AT2", "prob": 0.2, "means": [-1.0, 2.0, -4.0], "noise_sd": 0.0},
]}}


@pytest.mark.parametrize("seed, scenario, row, union", [
    (16, "treatment", "0,1;2", "C1 | C2 | ID1 | ID2"),
    (6, "control-2", "0;1,2", "C1 | C2 | ND1 | ND2"),
], ids=["treatment", "control-2"])
def test_cluster_n_reports_a_drawn_choice_whose_clustered_first_stage_is_zero(
        write_json, capsys, seed, scenario, row, union):
    # The estimated first stage picks a clustering from sampling noise; the exact clustered first stage under that
    # choice is zero, so the run prints the choice, then exits 4 with a single error line.
    code, out, err = run(capsys, ["cluster", write_json(TAKERS_ONLY_POP), "--n", "500", "--seed", str(seed)])
    assert (code, out) == (4, ["scenario,s0,s1", f"{scenario},{row}"])
    assert err.splitlines() == [f"error: clustered first stage is zero under scenario {scenario!r}: P({union}) = 0"]


def test_simulate_cluster_wald_chooses_the_scenario(write_json, capsys):
    # Without a scenario, the exact first stage of CLUSTER_POP (a21 > 0,
    # a12 = 0) selects treatment clustering, not the cluster block's control-1.
    argv = ["simulate", write_json(CLUSTER_POP), "--target", "cluster-wald", "--n", "2000", "--reps", "3"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out[3] == "target,cluster-wald"
    assert out[-1] == "wald,440.0000,442.9738,1.7155,2.9738,1.0000"
    code, explicit, _ = run(capsys, argv + ["--scenario", "treatment"])
    assert code == 0 and explicit == out

    doc = dict(CLUSTER_POP, simulate={"target": "cluster-wald", "n": 2000, "reps": 3})
    code, from_block, _ = run(capsys, ["simulate", write_json(doc)])
    assert code == 0 and from_block == out


def test_sweep_block_grid_and_levels(write_json, capsys):
    path = write_json(dict(ANCHOR_SPEC, sweep={"grid": [0.0, 0.2], "levels": [100.0, 250]}))
    code, out, err = run(capsys, ["sweep", path])
    assert code == 0 and err == ""
    assert out == [
        "axis,level,beta,late,bias",
        "0.0000,100.0000,1000.0000,1000.0000,0.0000",
        "0.0000,250.0000,1000.0000,1000.0000,0.0000",
        "0.2000,100.0000,1006.6667,1000.0000,6.6667",
        "0.2000,250.0000,1016.6667,1000.0000,16.6667",
    ]
    # A flag replaces the block's list; the block's levels still apply.
    code, out, _ = run(capsys, ["sweep", path, "--grid", "0.1"])
    assert code == 0
    assert out[1:] == ["0.1000,100.0000,1002.8571,1000.0000,2.8571", "0.1000,250.0000,1007.1429,1000.0000,7.1429"]
    # A list that starts with a minus sign may follow its flag or be attached with "=".
    plain = run(capsys, ["sweep", path, "--grid", "0.1", "--levels", "-100,250"])
    assert plain[0] == 0 and plain[1][1] == "0.1000,-100.0000,997.1429,1000.0000,-2.8571"
    assert plain == run(capsys, ["sweep", path, "--grid", "0.1", "--levels=-100,250"])


_SCENARIO_CHOICES = "['control-1', 'control-2', 'no-clustering', 'treatment', 'undefined']"


BAD_BLOCK_VALUES = [
    ("cluster", {"scenario": "both"}, f"unknown cluster scenario 'both'; expected one of {_SCENARIO_CHOICES}"),
    ("cluster", {"sig_level": "x"}, "sig_level must be a number, got 'x'"),
    ("cluster", {"neg_neg_rule": "never"},
     "neg_neg_rule must be one of ['fail', 'larger-magnitude', 'undefined'], got 'never'"),
    ("cluster", {"semantics": 1}, "semantics must be one of ['group-relevant', 'pooled'], got 1"),
    ("cluster", {"n": 100.0}, "n must be an integer, got 100.0"),
    ("cluster", {"seed": "1"}, "seed must be an integer, got '1'"),
    ("simulate", {"n": "many"}, "n must be an integer, got 'many'"),
    ("simulate", {"reps": 2.5}, "reps must be an integer, got 2.5"),
    ("simulate", {"seed": True}, "seed must be an integer, got True"),
    ("simulate", {"target": "wald"}, "target must be one of ['cluster-wald', 'field-2sls'], got 'wald'"),
    ("simulate", {"target": "cluster-wald", "scenario": "control-3"},
     f"unknown cluster scenario 'control-3'; expected one of {_SCENARIO_CHOICES}"),
    ("sweep", {"axis": "share"}, "axis must be one of ['defier-share', 'effect-gap'], got 'share'"),
    ("sweep", {"grid": 0.5}, "sweep grid must be a nonempty list of numbers"),
    ("sweep", {"grid": []}, "sweep grid must be a nonempty list of numbers"),
    ("sweep", {"levels": [1.0, "2"]}, "sweep levels must be a number, got '2'"),
    ("sweep", {"levels": None}, "sweep levels must be a nonempty list of numbers"),
    ("sweep", {"defier": "nd2"}, "defier must be 'id1' or 'nd1', got 'nd2'"),
    # Written as JSON NaN and Infinity.
    ("sweep", {"grid": [0.1, float("nan")]}, "sweep grid must be finite numbers, got [0.1, nan]"),
    ("sweep", {"levels": [float("inf")]}, "sweep levels must be finite numbers, got [inf]"),
]


@pytest.mark.parametrize(
    "command, block, err", BAD_BLOCK_VALUES, ids=[f"{cmd}-{'-'.join(block)}" for cmd, block, _ in BAD_BLOCK_VALUES]
)
def test_bad_block_value_error_line(write_json, capsys, command, block, err):
    doc = dict(BENCHMARK_POP, **{command: block})
    code, out, stderr = run(capsys, [command, write_json(doc)])
    assert code == 2 and out == []
    assert stderr == f"error: {err}\n"


# The block values of this file are bad for the commands that read them.
BAD_BLOCKS = dict(BENCHMARK_POP, cluster={"constant_effects": "false", "sig_level": "x"}, simulate={"n": "many"})


@pytest.mark.parametrize(
    "doc, argv, err",
    [
        (BAD_BLOCKS, ["validate"], "n must be an integer, got 'many'"),
        (BAD_BLOCKS, ["analyze"], "n must be an integer, got 'many'"),
        (BAD_BLOCKS, ["bounds"], "n must be an integer, got 'many'"),
        (dict(BENCHMARK_POP, cluster={"scenario": ["x"]}), ["validate"],
         f"unknown cluster scenario ['x']; expected one of {_SCENARIO_CHOICES}"),
        (dict(BENCHMARK_POP, cluster={"scenario": ["x"]}), ["cluster"],
         f"unknown cluster scenario ['x']; expected one of {_SCENARIO_CHOICES}"),
        (dict(BENCHMARK_POP, simulate={"target": "cluster-wald", "scenario": ["x"]}), ["simulate"],
         f"unknown cluster scenario ['x']; expected one of {_SCENARIO_CHOICES}"),
        (dict(BENCHMARK_POP, simulate={"scenario": {"label": "treatment"}}), ["validate"],
         f"unknown cluster scenario {{'label': 'treatment'}}; expected one of {_SCENARIO_CHOICES}"),
        (dict(BENCHMARK_POP, simulate=[1]), ["validate"], "scenario block 'simulate' must be a JSON object"),
        (ANCHOR_SPEC, ["cluster"], "cluster requires a scenario file with a population"),
        (ANCHOR_SPEC, ["simulate"], "simulate requires a scenario file with a population"),
        (ANCHOR_SPEC, ["bounds"], "bounds (without explicit --aXY flags) requires a scenario file with a population"),
        # Range checks run at load too, with the library's own error lines.
        (dict(BENCHMARK_POP, cluster={"sig_level": 5}), ["validate"], "significance level must be in (0, 1), got 5.0"),
        (dict(BENCHMARK_POP, simulate={"reps": 1}), ["validate"],
         f"replications must be between 2 and {strata._MAX_COUNT}, got 1"),
        (dict(BENCHMARK_POP, cluster={"n": 0}), ["validate"],
         f"sample size must be between 1 and {strata._MAX_COUNT}, got 0"),
        (dict(BENCHMARK_POP, cluster={"seed": -1}), ["validate"], "seed must be nonnegative, got -1"),
        (dict(BENCHMARK_POP, simulate={"scenario": "undefined"}), ["validate"],
         "no clustered estimand under scenario 'undefined'; only control and treatment clustering define one"),
        (BENCHMARK_POP, ["cluster", "--scenario", "treatment", "--sig-level", "5"],
         "significance level must be in (0, 1), got 5.0"),
        # A cluster block's scenario leaves these unread, and no flag can unset a block value.
        *((dict(BENCHMARK_POP, cluster={"scenario": "treatment", key: value}), ["validate"],
           f"{key} is not used when a scenario is given")
          for key, value in (("n", 100), ("seed", 3), ("sig_level", 0.1), ("neg_neg_rule", "fail"))),
        (dict(BENCHMARK_POP, cluster={"scenario": "treatment", "n": 100}), ["analyze"],
         "n is not used when a scenario is given"),
    ],
    ids=["found-validate", "found-analyze", "found-bounds", "list-validate", "list-cluster", "list-simulate",
         "dict-validate", "block-list", "spec-cluster", "spec-simulate", "spec-bounds", "range-sig_level",
         "range-reps", "range-n", "range-seed", "range-scenario", "range-sig_level-flag", "unread-n-validate",
         "unread-seed-validate", "unread-sig_level-validate", "unread-neg_neg_rule-validate", "unread-n-analyze"],
)
def test_every_command_rejects_bad_block_values(write_json, capsys, doc, argv, err):
    code, out, stderr = run(capsys, [argv[0], write_json(doc), *argv[1:]])
    assert code == 2 and out == []
    assert stderr == f"error: {err}\n"


# Options a run would ignore: each case's options as a scenario block, and as flags.
UNREAD = [
    ("simulate", {"n": 2000, "reps": 2, "scenario": "control-1"}, "scenario is not used with target field-2sls"),
    *(("cluster", {"scenario": "treatment", key: value}, f"{key} is not used when a scenario is given")
      for key, value in (("n", 100), ("seed", 3), ("sig_level", 0.1), ("neg_neg_rule", "fail"))),
    *(("cluster", {key: value}, f"{key} is not used without n") for key, value in (("seed", 3), ("sig_level", 0.1))),
]


@pytest.mark.parametrize("given", ["block", "flag"])
@pytest.mark.parametrize("command, options, err", UNREAD, ids=[
    "simulate-scenario", "scenario-n", "scenario-seed", "scenario-sig_level", "scenario-neg_neg_rule",
    "exact-seed", "exact-sig_level"])
def test_unread_options_exit_2(write_json, capsys, given, command, options, err):
    if given == "block":
        argv = [command, write_json(dict(BENCHMARK_POP, **{command: options}))]
    else:
        flags = [part for key, value in options.items() for part in ("--" + key.replace("_", "-"), str(value))]
        argv = [command, write_json(BENCHMARK_POP), *flags]
    code, out, stderr = run(capsys, argv)
    assert code == 2 and out == []
    assert stderr == f"error: {err}\n"


@pytest.mark.parametrize("block, command, flags", [
    ({"simulate": {"target": "field-2sls", "scenario": "control-1"}}, "simulate",
     ["--target", "cluster-wald", "--n", "2000", "--reps", "2"]),
    ({"cluster": {"seed": 3, "sig_level": 0.1}}, "cluster", ["--n", "100"]),
], ids=["simulate-scenario", "cluster-seed"])
def test_validate_accepts_block_options_a_flag_makes_read(write_json, capsys, block, command, flags):
    path = write_json(dict(BENCHMARK_POP, **block))
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0 and out[0] == "status,ok"
    code, _, err = run(capsys, [command, path, *flags])
    assert code == 0 and err == ""


def test_negative_seed_exits_2_only_where_it_seeds_a_sample(write_json, capsys):
    code, out, err = run(capsys, ["cluster", write_json(BENCHMARK_POP), "--n", "100", "--seed", "-1"])
    assert code == 2 and out == [] and err == "error: seed must be nonnegative, got -1\n"
    # simulate hashes its master seed into per-replication seeds.
    code, out, _ = run(capsys, ["simulate", write_json(BENCHMARK_POP), "--n", "2000", "--reps", "2", "--seed", "-1"])
    assert code == 0 and out[2] == "seed,-1"


@pytest.mark.parametrize("a21, exit_code", [("0.1", 0), ("-0.1", 3)])
def test_module_entry_point_matches_main(capsys, a21, exit_code):
    argv = ["bounds", "--a10", "0", "--a11", "0.5", "--a12", "0", "--a20", "0.3", "--a21", a21, "--a22", "0.4",
            "--maintained", "next-best"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "ivstrata.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    assert main(argv) == proc.returncode == exit_code
    captured = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)



def test_closed_stdout_exits_1_without_an_error_line(write_json):
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails however fast the reader would have been.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "ivstrata.cli", "validate", write_json(BENCHMARK_POP)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")

def test_option_table_keys_are_the_command_flags():
    commands = cli._parsers()[1]
    for command, table in cli._OPTIONS.items():
        dests = {action.dest for action in commands[command]._actions} - {"help", "config", "precision"}
        assert set(table) == dests, command
    assert set(cli._OPTIONS) == {"cluster", "simulate", "sweep"}


def test_a_numpy_scalar_cell_prints_as_the_float_it_holds():
    import numpy as np  # local: the exact commands under test elsewhere in this file run without numpy

    # numpy 2's repr of an np.float64 wraps the number in its type name; a cell prints the float's own text.
    x = np.float64(0.1)
    assert (cli._cell(x, "full"), cli._cell(x, "4")) == ("0.1", "0.1000")
    assert cli._cell((x, x), "full") == "0.1;0.1" and repr(x) != "0.1"


def _in_process(capsys, argv: list[str]) -> tuple:
    """main's exit code, stdout and stderr, an argparse exit included."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A fresh interpreter that refuses to import the named top-level modules, calls main on each argv and prints the
# runs as JSON, with which of numpy, statistics and ivstrata.montecarlo it loaded.
_CHILD = """
import contextlib, io, json, sys

refused, argvs = json.loads(sys.argv[1])


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in refused:
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, Refuse())
from ivstrata.cli import main

runs = []
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append((main(argv), out.getvalue(), err.getvalue()))
print(json.dumps([runs, sorted({"numpy", "statistics", "ivstrata.montecarlo"} & set(sys.modules))]))
"""


def _child_runs(refused: list[str], argvs: list[list[str]]) -> tuple[list[tuple], list[str]]:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([refused, argvs])], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs, loaded = json.loads(proc.stdout)
    return [tuple(run) for run in runs], loaded


def test_exact_commands_run_without_numpy_or_statistics(write_json, capsys):
    pop, spec = write_json(BENCHMARK_POP, "pop.json"), write_json(ANCHOR_SPEC, "spec.json")
    argvs = [
        ["validate", pop], ["validate", spec], ["analyze", spec], ["bounds", pop],
        ["bounds", pop, "--scan", "--step", "0.01"], ["sweep", spec], ["sweep", spec, "--axis", "effect-gap"],
        ["cluster", pop], ["cluster", write_json(CLUSTER_POP, "cluster.json")],
        ["analyze", write_json(dict(ANCHOR_SPEC, extra=1), "bad.json")],
    ]
    runs, loaded = _child_runs(["numpy", "statistics"], argvs + [["simulate", pop]])
    assert loaded == []
    assert runs[:-1] == [_in_process(capsys, argv) for argv in argvs]
    # The refusal holds: the one command here that draws a sample cannot run.
    assert runs[-1] == (1, "", "error: ImportError: numpy is refused\n")


def test_drawing_commands_load_numpy_when_they_draw(write_json, capsys):
    argvs = [["simulate", write_json(BENCHMARK_POP), "--n", "2000", "--reps", "3", "--seed", "1"],
             ["cluster", write_json(WEAK_CROSS_POP, "weak.json"), "--n", "500", "--seed", "2"]]
    runs, loaded = _child_runs([], argvs)
    assert loaded == ["ivstrata.montecarlo", "numpy"]
    assert runs == [_in_process(capsys, argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in runs)


def test_cached_parser_keeps_no_state_between_calls(write_json, capsys):
    """Each call in a sequence through the one cached parser prints what a fresh process prints. (The golden
    test also runs main in-process, 353 times in one process.)"""
    pop, spec = write_json(BENCHMARK_POP, "pop.json"), write_json(ANCHOR_SPEC, "spec.json")
    sequences = [
        [["bounds", pop, "--scan", "--step", "0.001"], ["bounds", pop]],
        [["sweep", spec, "--grid", "-1,2"], ["sweep", spec]],
        [["--help"], ["validate", pop]],
        [["analyze", spec, "--regime", "bogus"], ["analyze", spec]],
        # A leftover argument, an unknown command, "--" and an abbreviated flag.
        [["validate", pop, "--bogus"], ["validate", pop, spec], ["bogus"], ["validate", pop]],
        [["bounds", "--", pop], ["validate", pop, "--prec", "full"], ["bounds", pop]],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    codes = []
    for sequence in sequences:
        for argv in sequence:
            fresh = subprocess.run([sys.executable, "-m", "ivstrata.cli", *argv], capture_output=True, text=True,
                                   env=env, timeout=60)
            assert _in_process(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(fresh.returncode)
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0, 2, 2, 2, 0, 0, 0, 0]
    assert cli.build_parser() is cli.build_parser()
