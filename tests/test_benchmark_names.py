"""The benchmark in ``perfbench/`` patches carpnet's names from outside the
package; these tests fail when a rename would break it.

``perfbench/tracing.py`` wraps the functions listed in its ``SPANS`` and
``COUNTED`` tables and reads ``run_cascades``' arguments and result in a
hook; ``perfbench/worker.py`` loads the fixture in its ``setup`` step.  Both
modules are imported as they are, without carpnet-side stand-ins.
"""
import functools
import importlib
import inspect

import numpy as np
import pytest

import carpnet.cli
import carpnet.dynamics
from carpnet import ModelParams
from conftest import ROOT, make_network
from test_cli import HISTORY, toy_args


@pytest.fixture
def perfbench(monkeypatch):
    """Imports from ``perfbench/``, with it on the path the way its scripts run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module


@pytest.fixture
def tracing(perfbench):
    return perfbench("tracing")


def test_every_patched_name_resolves(tracing):
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in (*tracing.SPANS, *tracing.COUNTED)
        if not callable(getattr(tracing._owner(owner), attr, None))
    ]
    assert missing == []


def test_cascade_hook_reads_the_stream_and_the_batch(tracing):
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    args = (net, ModelParams(0.3, 0.3, 1.0), np.zeros(3, bool), 4, 9, [0])
    kwargs = {"rng_path_prefix": (2,)}
    batch = carpnet.dynamics.run_cascades(*args, **kwargs)
    bound = inspect.signature(carpnet.dynamics.run_cascades).bind(*args, **kwargs).arguments
    assert bound["master_seed"] == 9 and bound["rng_path_prefix"] == (2,)
    assert batch.final_active.shape == (1, 3)
    assert batch.run_indices == (0,) and batch.n_steps == 4

    tracer = tracing.Tracer()
    tracing.HOOKS["dynamics.run_cascades"](tracer, batch, args, kwargs)
    assert tracer.streams == [(None, 9, (2,), (0,), 4, 3)]
    assert tracer.counts["dynamics.risk_steps"] == 12


def test_blocked_cascade_is_one_traced_call(tracing, monkeypatch):
    # the hook binds run_cascades' signature and counts the risk-steps of
    # each call, so stepping the runs in blocks must not re-enter the public
    # name: that would count every risk-step twice
    monkeypatch.setattr(carpnet.dynamics, "_RUN_BLOCK", 2)
    calls = []
    inner = carpnet.dynamics.run_cascades

    @functools.wraps(inner)
    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(carpnet.dynamics, "run_cascades", counting)
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    args = (net, ModelParams(0.3, 0.3, 1.0), np.zeros(3, bool), 7, 9, range(5))
    batch = carpnet.dynamics.run_cascades_parallel(*args, jobs=1)
    assert len(calls) == 1

    tracer = tracing.Tracer()
    tracing.HOOKS["dynamics.run_cascades"](tracer, batch, args, {})
    assert tracer.counts["dynamics.risk_steps"] == 5 * 7 * 3
    assert tracer.streams == [(None, 9, (), (0, 1, 2, 3, 4), 7, 3)]


def test_traced_cli_run_records_its_cascades(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install(run_id=0)
    try:
        code = carpnet.cli.main([str(a) for a in ["simulate", *toy_args(
            "--params", "0.4,0.3,1.2", "--seed", "3", "--runs", "2", "--horizon", "20",
            out=tmp_path / "x")]])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.streams == [(0, 3, (), (0, 1), 20, 6)]
    names = {span[2] for span in tracer.spans}
    assert {"cli.main", "dynamics.run_cascades_parallel", "dynamics.run_cascades"} <= names


def test_traced_recovery_hands_the_hook_single_batches(tracing, tmp_path):
    # run_cascades returns a list for a sequence of parameter sets, which the
    # hook cannot read; the recovery and cascade workloads pass one set
    tracer = tracing.Tracer()
    tracer.install(run_id=0)
    try:
        code = carpnet.cli.main(["validate", *map(str, toy_args(
            "--experiment", "recovery", "--history", HISTORY, "--params", "0.4,0.3,1.2",
            "--seed", "5", "--replicates", "6", out=tmp_path / "x"))])
    finally:
        tracer.uninstall()
    assert code == 0
    # the toy network has 6 risks and 36 months, so each run makes 35 steps
    assert tracer.streams == [(0, 5, (0,), (0,), 35, 6), (0, 5, (1,), tuple(range(6)), 35, 6)]
    assert tracer.counts["dynamics.risk_steps"] == (1 + 6) * 35 * 6


@pytest.mark.parametrize("command", [
    ["influence", "--params", "0.4,0.3,1.2"],
    ["pipeline", "--history", HISTORY],
])
def test_traced_cli_run_records_its_solves(tracing, tmp_path, command):
    # the solve hook reads scalar fields, so only single solves may sit behind
    # the patched solve_steady_state names
    tracer = tracing.Tracer()
    tracer.install(run_id=0)
    try:
        name, *extra = command
        code = carpnet.cli.main([name, *map(str, toy_args(*extra, out=tmp_path / "x"))])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[2] for span in tracer.spans]
    assert "influence.risk_influence" in names
    assert names.count("steady_state.solve") == 1  # the baseline, solved once
    assert tracer.counts["steady_state.lower_sweeps"] > 0


def test_traced_sensitivity_makes_one_single_solve_and_no_fit(tracing, tmp_path):
    # the edited histories' refits and solves are batched, so behind the
    # patched fit and solve_steady_state names sits only the baseline solve
    tracer = tracing.Tracer()
    tracer.install(run_id=0)
    try:
        code = carpnet.cli.main(["validate", *map(str, toy_args(
            "--experiment", "sensitivity", "--history", HISTORY, "--params", "0.4,0.3,1.2",
            "--seed", "4", out=tmp_path / "x"))])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[2] for span in tracer.spans]
    assert names.count("steady_state.solve") == 1
    assert "likelihood.fit" not in names


def test_traced_non_unique_solve_warns_and_is_counted(tracing, tmp_path):
    # perfbench/worker.py counts warnings that say "not unique", and the solve
    # hook counts results whose ``unique`` is False
    tracer = tracing.Tracer()
    tracer.install(run_id=0)
    try:
        with pytest.warns(UserWarning, match="not unique"):
            code = carpnet.cli.main(["steady-state", *map(str, toy_args(
                "--params", "0,0.5,1", out=tmp_path / "x"))])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["steady_state.nonunique"] == 1


def test_every_workload_command_line_parses(perfbench):
    # the workloads run their carpnet command lines through cli.run; a
    # renamed option or a new required one fails every repetition
    workloads = perfbench("workloads")
    parser = carpnet.cli.build_parser()
    for workload in workloads.NAMES:
        for seed in range(workloads.SEED_BANK):
            args = parser.parse_args([*workloads.argv(workload, seed), "--out", "x"])
            required = carpnet.cli._COMMANDS[args.command].required
            carpnet.cli._require(args, args.command, ("out", *required))


def test_worker_setup_loads_the_fixture(perfbench, monkeypatch):
    monkeypatch.chdir(ROOT)
    worker = perfbench("worker")
    for workload in ("cascade", "pipeline"):  # without and with the history
        worker.setup(workload)


def test_recovery_seed0_meets_the_recorded_reference(perfbench, monkeypatch, tmp_path):
    # one benchmark repetition, checked by the benchmark's own gate on the
    # refits, so a change to the fit's floats shows here before it does there
    monkeypatch.chdir(ROOT)
    workloads = perfbench("workloads")
    out = tmp_path / "out"
    assert carpnet.cli.main([*workloads.argv("recovery", 0), "--out", str(out)]) == 0
    want = workloads.load_reference()[workloads.reference_key("recovery", 0)]
    assert workloads.check("recovery", workloads.observe("recovery", out), want) == []
