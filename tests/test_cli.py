import json
import os
import subprocess
import sys

import pytest

import carpnet.steady_state
import carpnet.validation
from carpnet.cli import main
from conftest import ROOT

TOY = ROOT / "data" / "toy"


def toy_args(*extra, out):
    return [
        "--risks", str(TOY / "risks.csv"),
        "--pairs", str(TOY / "pairs.csv"),
        "--scale", "5",
        *extra,
        "--out", str(out),
    ]


def read(path):
    return path.read_bytes()


def run_cli(argv):
    return main([str(a) for a in argv])


# --- happy paths ----------------------------------------------------------

def test_fit_writes_parameters_and_manifest(tmp_path):
    code = run_cli(["fit", *toy_args("--history", TOY / "history.csv", out=tmp_path / "f")])
    assert code == 0
    payload = json.loads((tmp_path / "f" / "fit.json").read_text())
    assert set(payload) >= {"alpha", "beta", "gamma", "loglik", "converged"}
    assert payload["converged"] is True
    manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["tool"] == "carpnet"
    assert sorted(manifest["outputs"]) == ["fit.json"]
    assert set(manifest["inputs"]) == {"risks", "pairs", "history"}
    for role in manifest["inputs"].values():
        assert len(role["sha256"]) == 64


def test_steady_state_artifacts(tmp_path):
    code = run_cli(["steady-state", *toy_args("--params", "0.4,0.3,1.2", out=tmp_path / "s")])
    assert code == 0
    rows = (tmp_path / "s" / "steady_state.csv").read_text().splitlines()
    assert rows[0] == "risk_id,p_hat"
    assert len(rows) == 7  # header + six risks
    conv = json.loads((tmp_path / "s" / "convergence.json").read_text())
    assert conv["residual"] <= 1e-12


def test_simulate_reruns_are_byte_identical(tmp_path):
    args = ["simulate", *toy_args("--params", "0.4,0.3,1.2", "--seed", "11",
                                  "--runs", "60", "--horizon", "200", out=tmp_path / "a")]
    assert run_cli(args) == 0
    args2 = [a.replace(str(tmp_path / "a"), str(tmp_path / "b")) for a in map(str, args)]
    assert run_cli(args2) == 0
    for name in ("trajectory.csv", "statistics.csv", "manifest.json"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def test_simulate_jobs_do_not_change_output(tmp_path):
    base = ["simulate", *toy_args("--params", "0.4,0.3,1.2", "--seed", "11",
                                  "--runs", "60", "--horizon", "200", out=tmp_path / "a")]
    assert run_cli(base) == 0
    multi = ["simulate", *toy_args("--params", "0.4,0.3,1.2", "--seed", "11",
                                   "--runs", "60", "--horizon", "200", "--jobs", "3",
                                   out=tmp_path / "b")]
    assert run_cli(multi) == 0
    for name in ("trajectory.csv", "statistics.csv", "manifest.json"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def test_stats_is_deterministic(tmp_path):
    assert run_cli(["stats", *toy_args(out=tmp_path / "a")]) == 0
    assert run_cli(["stats", *toy_args(out=tmp_path / "b")]) == 0
    assert read(tmp_path / "a" / "network_stats.json") == read(tmp_path / "b" / "network_stats.json")
    payload = json.loads((tmp_path / "a" / "network_stats.json").read_text())
    assert payload["node_count"] == 6 and payload["edge_count"] == 7


def test_influence_excludes_self_influence(tmp_path):
    assert run_cli(["influence", *toy_args("--params", "0.4,0.3,1.2", out=tmp_path / "i")]) == 0
    rows = (tmp_path / "i" / "influence.csv").read_text().splitlines()
    assert rows[0] == "source_id,target_id,influence"
    assert len(rows) == 1 + 6 * 5
    assert all(r.split(",")[0] != r.split(",")[1] for r in rows[1:])
    cat = (tmp_path / "i" / "category_influence.csv").read_text().splitlines()
    assert cat[0] == "source_cat,target_cat,raw,normalized,log_scaled"


def test_pipeline_chains_fit_steady_influence(tmp_path):
    code = run_cli(["pipeline", *toy_args("--history", TOY / "history.csv", out=tmp_path / "p")])
    assert code == 0
    names = {p.name for p in (tmp_path / "p").iterdir()}
    assert {"fit.json", "steady_state.csv", "influence.csv", "manifest.json"} <= names


@pytest.mark.parametrize("experiment", ["recovery", "forward", "network-effect", "sensitivity"])
def test_validate_experiments_run(tmp_path, experiment):
    code = run_cli([
        "validate", "--experiment", experiment,
        *toy_args("--history", TOY / "history.csv", "--params", "0.4,0.3,1.2",
                  "--seed", "5", "--replicates", "6", "--runs", "20", out=tmp_path / "v"),
    ])
    assert code == 0
    names = {p.name for p in (tmp_path / "v").iterdir()}
    stem = experiment.replace("-", "_")
    assert any(n.startswith(stem) and n.endswith(".json") for n in names)
    assert "manifest.json" in names


def test_validate_recovery_rerun_identical(tmp_path):
    argv = ["validate", "--experiment", "recovery",
            *toy_args("--history", TOY / "history.csv", "--params", "0.4,0.3,1.2",
                      "--seed", "5", "--replicates", "6", out=tmp_path / "a")]
    assert run_cli(argv) == 0
    argv2 = [str(a).replace(str(tmp_path / "a"), str(tmp_path / "b")) for a in argv]
    assert run_cli(argv2) == 0
    assert read(tmp_path / "a" / "recovery_replicates.csv") == read(tmp_path / "b" / "recovery_replicates.csv")


# --- config files ---------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# toy defaults\n"
        f"risks = {TOY / 'risks.csv'}\n"
        f"pairs = {TOY / 'pairs.csv'}\n"
        "params = 0.4,0.3,1.2\n"
        "scale = 5\n"
        "runs = 60\n"
        "horizon = 200\n"
    )
    assert run_cli(["simulate", "--config", cfg, "--seed", "11", "--out", tmp_path / "a"]) == 0
    direct = ["simulate", *toy_args("--params", "0.4,0.3,1.2", "--seed", "11",
                                    "--runs", "60", "--horizon", "200", out=tmp_path / "b")]
    assert run_cli(direct) == 0
    assert read(tmp_path / "a" / "trajectory.csv") == read(tmp_path / "b" / "trajectory.csv")


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"risks = {TOY / 'risks.csv'}\n"
        f"pairs = {TOY / 'pairs.csv'}\n"
        "params = 0.4,0.3,1.2\n"
        "scale = 5\n"
        "runs = 60\n"
    )
    assert run_cli(["simulate", "--config", cfg, "--seed", "11", "--runs", "10",
                    "--horizon", "50", "--out", tmp_path / "a"]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["runs"] == 10


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for command, key in ((["simulate", "--seed", "1"], "wibble"), (["fit"], "grid-points"),
                         (["steady-state"], "tol"), (["steady-state"], "max-iter"),
                         (["stats"], "year")):
        cfg.write_text(f"{key} = 3\n")
        code = run_cli([*command, "--config", cfg, "--out", tmp_path / "x"])
        assert code == 1
        assert key in capsys.readouterr().err


def test_config_value_must_respect_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = bogus\n")
    code = run_cli(["validate", "--config", cfg, "--seed", "1", "--out", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert "bogus" in err
    assert f"config file {cfg}" in err


# --- failure modes --------------------------------------------------------

def test_stochastic_commands_demand_a_seed(tmp_path, capsys):
    code = run_cli(["simulate", *toy_args("--params", "0.4,0.3,1.2", out=tmp_path / "x")])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--params", "0.4,0.3,1.2", "--runs", "2", "--horizon", "5"],
    ["validate", "--experiment", "recovery", "--params", "0.4,0.3,1.2",
     "--history", TOY / "history.csv", "--replicates", "2"],
])
def test_seed_beyond_64_bits_is_a_usage_error(tmp_path, capsys, command):
    name, *extra = command
    code = run_cli([name, *toy_args(*extra, "--seed", 2**64, out=tmp_path / "x")])
    assert code == 1
    assert "error: argument --seed" in capsys.readouterr().err
    assert run_cli([name, *toy_args(*extra, "--seed", 2**64 - 1, out=tmp_path / "y")]) == 0


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    for ghost in ("risks", "pairs", "history"):
        inputs = {"risks": TOY / "risks.csv", "pairs": TOY / "pairs.csv",
                  "history": TOY / "history.csv", ghost: tmp_path / "ghost.csv"}
        code = run_cli([
            "fit", "--risks", inputs["risks"], "--pairs", inputs["pairs"], "--scale", "5",
            "--history", inputs["history"], "--out", tmp_path / "x",
        ])
        assert code == 2, ghost
        assert f"cannot read {ghost} file" in capsys.readouterr().err


@pytest.mark.parametrize("flag, code", [
    ("--risks", 2), ("--pairs", 2), ("--history", 2), ("--config", 1), ("--params-file", 2),
])
def test_input_that_is_not_utf8_is_an_error(tmp_path, capsys, flag, code):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"caf\xe9\n")  # one byte that cannot start a UTF-8 sequence here
    files = {"--risks": TOY / "risks.csv", "--pairs": TOY / "pairs.csv", flag: bad}
    if flag == "--history":
        command, extra = "fit", ["--history", bad]
    elif flag in ("--config", "--params-file"):
        command, extra = "steady-state", [flag, bad]
    else:
        command, extra = "steady-state", ["--params", "0.4,0.3,1.2"]
    assert run_cli([command, "--risks", files["--risks"], "--pairs", files["--pairs"],
                    "--scale", "5", *extra, "--out", tmp_path / "x"]) == code
    assert capsys.readouterr().err.startswith("error: ")


def test_out_of_scale_likelihood_is_a_data_error(tmp_path):
    code = run_cli([
        "simulate", "--risks", TOY / "risks.csv", "--pairs", TOY / "pairs.csv",
        "--scale", "1.5", "--params", "0.4,0.3,1.2", "--seed", "1",
        "--out", tmp_path / "x",
    ])
    assert code == 2
    # a pinned coupling out of range is rejected before any fitting
    for beta in ("nan", "inf", "1e400", "-0.5"):
        code = run_cli(["fit", *toy_args("--history", TOY / "history.csv",
                                         f"--fix-beta={beta}", out=tmp_path / "x")])
        assert code == 2, beta
    for kappa in ("nan", "inf"):
        code = run_cli(["influence", *toy_args("--params", "0.4,0.3,1.2",
                                               f"--kappa={kappa}", out=tmp_path / "x")])
        assert code == 2, kappa


@pytest.mark.parametrize("kappa", ["0", "nan"])
@pytest.mark.parametrize("command, extra", [
    ("influence", ("--params", "0.4,0.3,1.2")),
    ("pipeline", ("--history", TOY / "history.csv")),
], ids=["influence", "pipeline"])
def test_bad_kappa_is_rejected_before_any_artifact(tmp_path, command, extra, kappa):
    out = tmp_path / "x"
    code = run_cli([command, *toy_args(*extra, f"--kappa={kappa}", out=out)])
    assert code == 2
    assert list(out.iterdir()) == []


def test_malformed_history_is_rejected_before_any_artifact(tmp_path, capsys):
    rows = (TOY / "history.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / "gap.csv"
    bad.write_text("".join(rows[:3] + rows[4:]), encoding="utf-8")  # drops 2010-03
    out = tmp_path / "x"
    assert run_cli(["fit", *toy_args("--history", bad, out=out)]) == 2
    assert "2010-04" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_non_convergence_is_a_numerical_error(tmp_path, monkeypatch):
    monkeypatch.setattr(carpnet.steady_state, "_MAX_ITER", 2)
    code = run_cli(["steady-state", *toy_args("--params", "0.4,0.3,1.2", out=tmp_path / "x")])
    assert code == 3


def test_failed_pipeline_writes_nothing(tmp_path, monkeypatch):
    # the fit succeeds; the baseline solve behind the influence runs out of budget
    monkeypatch.setattr(carpnet.steady_state, "_MAX_ITER", 2)
    out = tmp_path / "x"
    assert run_cli(["pipeline", *toy_args("--history", TOY / "history.csv", out=out)]) == 3
    assert list(out.iterdir()) == []


def test_params_and_params_file_conflict(tmp_path):
    fitfile = tmp_path / "p.json"
    fitfile.write_text('{"alpha": 0.4, "beta": 0.3, "gamma": 1.2}')
    code = run_cli(["steady-state", *toy_args("--params", "0.4,0.3,1.2",
                                              "--params-file", fitfile, out=tmp_path / "x")])
    assert code == 1


@pytest.mark.parametrize("payload", [
    '{"alpha": true, "beta": 0.3, "gamma": 1.2}',
    '{"alpha": 0.4, "beta": 0.3, "gamma": "1.2"}',
    '{"alpha": 0.4, "beta": null, "gamma": 1.2}',
    '{"alpha": 0.4, "beta": 0.3, "gamma": 1%s}' % ("0" * 400),
], ids=["bool", "string", "null", "huge-int"])
def test_params_file_values_must_be_json_numbers(tmp_path, capsys, payload):
    params_file = tmp_path / "p.json"
    params_file.write_text(payload)
    code = run_cli(["steady-state", *toy_args("--params-file", params_file, out=tmp_path / "x")])
    assert code == 2
    assert "params file must hold numeric alpha/beta/gamma" in capsys.readouterr().err
    assert not (tmp_path / "x" / "steady_state.csv").exists()


def test_malformed_params_string(tmp_path, capsys):
    code = run_cli(["simulate", *toy_args("--params", "1,2", "--seed", "1", out=tmp_path / "x")])
    assert code == 1
    # so are removed flags: the fit's grid search, the steady state's solver
    # settings and the network's snapshot label
    history = ("--history", TOY / "history.csv")
    for command, extra, flag in (("fit", history, "--grid-points"),
                                 ("pipeline", history, "--top-k"),
                                 ("steady-state", PARAMS, "--tol"),
                                 ("steady-state", PARAMS, "--max-iter"),
                                 ("stats", (), "--year")):
        code = run_cli([command, *toy_args(*extra, flag, "5", out=tmp_path / "x")])
        assert code == 1, flag
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_simulate_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    argv = ["simulate", *toy_args(*PARAMS, "--seed", "1", "--runs", "2", "--horizon", "5",
                                  out=tmp_path / "x")]
    assert run_cli([*argv, "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"jobs = {jobs}\n")
    assert run_cli([*argv, "--config", cfg]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("command, flag", [
    ("simulate", "runs"),
    ("simulate", "horizon"),
    ("validate", "replicates"),
    ("validate", "months"),
    ("validate", "runs"),
    ("validate", "jobs"),
], ids=lambda part: part)
def test_count_below_one_is_a_usage_error(tmp_path, capsys, command, flag, value):
    # rejected while parsing, before any input is read or --out is made
    extra = ("--params", "0.4,0.3,1.2", "--seed", "1")
    if command == "validate":
        extra += ("--experiment", "forward", "--history", TOY / "history.csv")
    argv = [command, *toy_args(*extra, out=tmp_path / "x")]
    assert run_cli([*argv, f"--{flag}", value]) == 1
    assert f"--{flag}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    assert run_cli([*argv, "--config", cfg]) == 1
    assert f"{flag} must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("experiment", ["recovery", "forward"])
def test_one_replicate_is_a_data_error_before_any_refit(tmp_path, monkeypatch, experiment):
    # the outlier cut discards ceil(n/3) replicates, which leaves none of one
    def refuse(*args, **kwargs):
        raise AssertionError("simulated or refit despite a single replicate")
    monkeypatch.setattr(carpnet.validation, "fit", refuse)
    monkeypatch.setattr(carpnet.validation, "run_cascades", refuse)
    code = run_cli(["validate", *toy_args(
        "--experiment", experiment, "--params", "0.4,0.3,1.2", "--history", TOY / "history.csv",
        "--seed", "1", "--replicates", "1", out=tmp_path / "x")])
    assert code == 2


def test_duplicate_checkpoints_are_a_data_error(tmp_path):
    code = run_cli(["simulate", *toy_args("--params", "0.4,0.3,1.2", "--seed", "1",
                                          "--horizon", "20", "--checkpoints", "10,10,20",
                                          out=tmp_path / "x")])
    assert code == 2


def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(["stats", *toy_args(out=taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# --- manifest round-trip --------------------------------------------------

def rebuild_argv(manifest, out):
    """Reconstruct the equivalent command line from a manifest."""
    argv = [manifest["command"]]
    for key, value in manifest["config"].items():
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if key == "params" and isinstance(value, list):
            argv += [flag, ",".join(repr(v) for v in value)]
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, str(value)]
    argv += ["--out", str(out)]
    return argv


def test_manifest_round_trip_reproduces_artifacts(tmp_path):
    first = tmp_path / "a"
    assert run_cli(["simulate", *toy_args("--params", "0.4,0.3,1.2", "--seed", "11",
                                          "--runs", "40", "--horizon", "120", out=first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    second = tmp_path / "b"
    assert run_cli(rebuild_argv(manifest, second)) == 0
    first_files = sorted(p.name for p in first.iterdir())
    assert first_files == sorted(p.name for p in second.iterdir())
    for name in first_files:
        assert read(first / name) == read(second / name), name


# --- golden manifests and artifact layouts -------------------------------
# Expected manifest fields and artifacts, one per command variant, written out
# by hand so that a dropped, renamed or retyped config key, or a dropped,
# renamed or reordered column or summary key, fails here.

HISTORY = str(TOY / "history.csv")
PARAMS = ("--params", "0.4,0.3,1.2")
PARAMS_FILE = "<params file>"  # stands for a JSON file written by the test
NETWORK = {
    "risks": str(TOY / "risks.csv"), "pairs": str(TOY / "pairs.csv"),
    "scale": 5.0, "epsilon": 0.5,
}
FIT_DEFAULTS = {"fix_beta": None}
VALIDATE_ARGS = ("--history", HISTORY, "--seed", "5", "--replicates", "6", "--runs", "20")
VALIDATE_CONFIG = {
    **NETWORK, "history": HISTORY, "seed": 5, "replicates": 6, "months": 12,
    "runs": 20, "perturbation": 0.1,
}

# Artifact layouts: file name -> a CSV's (header, row count) or a JSON's key set.
# The toy network has 6 risks and 36 months of history; there are 5 categories.
MANIFEST_KEYS = {"tool", "version", "command", "seed", "config", "inputs", "outputs"}
FIT_LAYOUT = {
    "fit.json": {"alpha", "beta", "gamma", "loglik", "converged", "boundary_flags", "iterations"},
}
STEADY_LAYOUT = {
    "steady_state.csv": (("risk_id", "p_hat"), 6),
    "convergence.json": {"residual", "iterations", "unique", "error_bound"},
}
INFLUENCE_LAYOUT = {
    "influence.csv": (("source_id", "target_id", "influence"), 6 * 5),
    "category_influence.csv": (
        ("source_cat", "target_cat", "raw", "normalized", "log_scaled"), 5 * 5),
    "influence.json": {"aggregate", "kappa", "degenerate", "error_bound",
                       "n_unbounded"},
}


def simulate_layout(n_checkpoints):
    return {
        "trajectory.csv": (("t", "risk_id", "frequency"), n_checkpoints * 6),
        "statistics.csv": (("risk_id", "freq_active", "freq_activation"), 6),
    }


def recovery_layout(replicates):
    return {
        "recovery.json": {
            "ground_truth", "params_source", "gt_fractions", "gt_vector", "activation_bound",
            "recovery_bound", "activation_bound_gt_fractions", "n_replicates", "n_failed",
            "n_retained", "n_discarded",
        },
        "recovery_replicates.csv": (
            ("replicate", "failed", "alpha", "beta", "gamma", "activation_param",
             "recovery_param", "ks", "retained"), replicates),
    }


VALIDATE_LAYOUT = {
    "recovery": recovery_layout(6),
    "forward": {
        "forward.json": {
            "ground_truth", "params_source", "months", "runs", "n_sets", "gt_freq_active",
            "gt_freq_activation", "freq_active", "freq_activation", "worst_deviation",
        },
        "forward_sets.csv": (
            ("set_index", "replicate", "freq_active", "freq_activation",
             "freq_active_deviation", "freq_activation_deviation"), 4),  # retained sets
    },
    "network-effect": {
        "network_effect.json": {
            "params_source", "runs", "m_network", "m_independent", "ratio", "network_params",
            "independent_params", "network_infinite_steps", "independent_infinite_steps",
        },
        "network_effect_series.csv": (
            ("step", "historical", "network_mean", "network_std", "independent_mean",
             "independent_std"), 35),
    },
    "sensitivity": {
        "sensitivity.json": {"params_source", "params", "perturbation"},
        "sensitivity.csv": (
            ("risk_id", "baseline_p_hat", "single_likelihood_delta", "single_history_delta",
             "all_likelihood_delta", "all_history_delta", "n_deactivated"), 6),
    },
}

# name -> (argv after the network flags, seed, config, input roles, artifact layout)
GOLDEN = {
    "fit": (
        ["fit", "--history", HISTORY], None,
        {**NETWORK, "history": HISTORY, **FIT_DEFAULTS},
        {"risks", "pairs", "history"}, FIT_LAYOUT,
    ),
    "fit-fix-beta": (
        ["fit", "--history", HISTORY, "--fix-beta", "0.3"], None,
        {**NETWORK, "history": HISTORY, **FIT_DEFAULTS, "fix_beta": 0.3},
        {"risks", "pairs", "history"}, FIT_LAYOUT,
    ),
    "simulate-params": (
        ["simulate", *PARAMS, "--seed", "11", "--runs", "20", "--horizon", "120"], 11,
        {**NETWORK, "params": [0.4, 0.3, 1.2], "history": None, "initial": "passive",
         "runs": 20, "horizon": 120, "checkpoints": [10, 100, 120], "seed": 11},
        {"risks", "pairs"}, simulate_layout(3),
    ),
    "simulate-params-file": (
        ["simulate", "--params-file", PARAMS_FILE, "--seed", "3", "--runs", "10",
         "--horizon", "50", "--checkpoints", "5,50"], 3,
        {**NETWORK, "params_file": PARAMS_FILE, "history": None, "initial": "passive",
         "runs": 10, "horizon": 50, "checkpoints": [5, 50], "seed": 3},
        {"risks", "pairs", "params_file"}, simulate_layout(2),
    ),
    "simulate-history-last": (
        ["simulate", *PARAMS, "--history", HISTORY, "--initial", "history-last",
         "--seed", "2", "--runs", "10", "--horizon", "30"], 2,
        {**NETWORK, "params": [0.4, 0.3, 1.2], "history": HISTORY,
         "initial": "history-last", "runs": 10, "horizon": 30, "checkpoints": [10, 30],
         "seed": 2},
        {"risks", "pairs", "history"}, simulate_layout(2),
    ),
    "steady-state-params": (
        ["steady-state", *PARAMS], None,
        {**NETWORK, "params": [0.4, 0.3, 1.2]},
        {"risks", "pairs"}, STEADY_LAYOUT,
    ),
    "steady-state-params-file": (
        ["steady-state", "--params-file", PARAMS_FILE], None,
        {**NETWORK, "params_file": PARAMS_FILE},
        {"risks", "pairs", "params_file"}, STEADY_LAYOUT,
    ),
    "influence": (
        ["influence", *PARAMS], None,
        {**NETWORK, "params": [0.4, 0.3, 1.2], "aggregate": "sum", "kappa": 99.0},
        {"risks", "pairs"}, INFLUENCE_LAYOUT,
    ),
    "influence-params-file-mean": (
        ["influence", "--params-file", PARAMS_FILE, "--aggregate", "mean"], None,
        {**NETWORK, "params_file": PARAMS_FILE, "aggregate": "mean", "kappa": 99.0},
        {"risks", "pairs", "params_file"}, INFLUENCE_LAYOUT,
    ),
    "stats": (
        ["stats"], None, NETWORK, {"risks", "pairs"},
        {"network_stats.json": {
            "node_count", "edge_count", "density", "average_degree", "degree_assortativity",
            "average_clustering", "connected", "n_components", "largest_component_size",
            "diameter", "average_shortest_path", "max_clique_size",
        }},
    ),
    "pipeline": (
        ["pipeline", "--history", HISTORY], None,
        {**NETWORK, "history": HISTORY, **FIT_DEFAULTS, "aggregate": "sum", "kappa": 99.0},
        {"risks", "pairs", "history"}, {**FIT_LAYOUT, **STEADY_LAYOUT, **INFLUENCE_LAYOUT},
    ),
    **{
        f"validate-{experiment}": (
            ["validate", "--experiment", experiment, *PARAMS, *VALIDATE_ARGS], 5,
            {**VALIDATE_CONFIG, "experiment": experiment, "params": [0.4, 0.3, 1.2]},
            {"risks", "pairs", "history"}, layout,
        )
        for experiment, layout in VALIDATE_LAYOUT.items()
    },
    "validate-fitted-params": (
        ["validate", "--experiment", "recovery", "--history", HISTORY, "--seed", "5",
         "--replicates", "4"], 5,
        {**VALIDATE_CONFIG, "experiment": "recovery", "replicates": 4, "runs": 100},
        {"risks", "pairs", "history"}, recovery_layout(4),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_manifest_matches_golden(tmp_path, name):
    argv, seed, config, roles, layout = GOLDEN[name]
    params_file = tmp_path / "params.json"
    params_file.write_text('{"alpha": 0.4, "beta": 0.3, "gamma": 1.2}')

    def resolve(value):
        return str(params_file) if value == PARAMS_FILE else value

    command, *extra = map(resolve, argv)
    out = tmp_path / "out"
    assert run_cli([command, *toy_args(*extra, out=out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["seed"] == seed
    assert manifest["config"] == {key: resolve(value) for key, value in config.items()}
    assert set(manifest["inputs"]) == roles

    assert manifest["outputs"] == sorted(layout)
    assert sorted(p.name for p in out.iterdir()) == sorted([*layout, "manifest.json"])
    for artifact, expected in layout.items():
        text = (out / artifact).read_text()
        if artifact.endswith(".csv"):
            header, *rows = text.splitlines()
            assert (tuple(header.split(",")), len(rows)) == expected, artifact
        else:
            assert set(json.loads(text)) == expected, artifact
    for artifact in [*layout, "manifest.json"]:
        if artifact.endswith(".json"):  # the standard library's canonical text
            text = (out / artifact).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"),
                                      ensure_ascii=False) + "\n", artifact


def test_console_script_is_wired(tmp_path):
    # the checkout's src/ first, so an uninstalled checkout runs this too
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "from carpnet.cli import entrypoint; entrypoint()", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
