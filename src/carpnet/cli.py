"""Command-line interface: reproducible, manifested runs of every workflow.

Design rules, enforced here rather than per command:

* every stochastic command requires an explicit ``--seed`` (no wall-clock
  fallback), so any artifact can be regenerated exactly;
* options may come from a flat key=value config file (``--config``).
  Each line stands for one ``--key=value`` flag, placed before the
  command line's own flags: the same parser checks it and the flags
  override it.  Environment variables are never consulted;
* every command is one entry of ``_COMMANDS``: its options, required
  options and handler.  Handlers only compute; ``run`` reads the inputs
  and writes the artifacts and the manifest, so a failed command writes
  nothing;
* every run writes ``manifest.json`` recording the tool version, the
  effective semantic options, input file hashes, and output names, all
  derived from the parsed options.  The output directory and worker count
  are execution details and stay out of the manifest, so re-running a
  manifest into a fresh directory -- at any ``--jobs`` -- reproduces every
  artifact byte for byte;
* exit codes: 0 success, 1 usage/config error, 2 data validation error,
  3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .artifacts import write_csv, write_json, write_manifest
from .dynamics import (
    ModelParams,
    default_checkpoints,
    run_cascades_parallel,
    statistics_from_batch,
)
from .errors import CarpError, DataError, NumericalError, UsageError
from .graph_stats import compute_properties
from .influence import category_influence, risk_influence
from .likelihood import fit
from .risks import load_history, load_network
from .steady_state import solve_steady_state
from .validation import (
    forward_error_bounds,
    network_effect_comparison,
    recovery_experiment,
    sensitivity_suite,
)

_EXPERIMENTS = ("recovery", "forward", "network-effect", "sensitivity")

# Options that are execution details rather than semantics: kept out of the
# manifest's config so reruns into another directory, at any --jobs, match.
_EXECUTION = ("command", "config", "out", "jobs")
# Options naming input files; the manifest records each one set with its hash.
_INPUT_ROLES = ("risks", "pairs", "history", "params_file")


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through the exit-code machinery."""

    def error(self, message):
        raise UsageError(message)


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2**64), got {text}")
    return value


def _params(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("must be 'alpha,beta,gamma'")
    return tuple(float(p) for p in parts)


def _count(name: str) -> Callable[[str], int]:
    """argparse type for a count: an integer of at least 1."""
    def count(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1, got {text}")
        return value
    return count


def _checkpoints(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


# Option groups: (flag, add_argument keywords) pairs, shared between commands.
_COMMON = (
    ("--config", dict(help="flat key=value option file; flags override it")),
    ("--out", dict(help="output directory (created if missing; required)")),
)
_NETWORK = (
    ("--risks", dict(help="risk catalog CSV (id,numeric_code,name,category,likelihood)")),
    ("--pairs", dict(help="expert pair-count CSV (risk_a,risk_b,count)")),
    ("--scale", dict(type=float, help="survey scale maximum for likelihood normalization; "
                                      "omit if the likelihood column is already in (0,1)")),
    ("--epsilon", dict(type=float, default=0.5,
                       help="offset in the likelihood normalization denominator (default 0.5)")),
)
_PARAMS = (
    ("--params", dict(type=_params, help="model parameters as 'alpha,beta,gamma'")),
    ("--params-file", dict(help="JSON file with alpha/beta/gamma keys (e.g. a fit.json)")),
)
_HISTORY = ("--history", dict(help="state history CSV (long or wide form)"))
_FIX_BETA = ("--fix-beta", dict(type=float, help="pin the coupling parameter and fit the rest"))
_CATEGORIES = (
    ("--aggregate", dict(default="sum", choices=("sum", "mean"),
                         help="category aggregation (default sum)")),
    ("--kappa", dict(type=float, default=99.0, help="log display compression (default 99)")),
)
_SEED = ("--seed", dict(type=_seed, help="master RNG seed (required)"))


class _Command(NamedTuple):
    help: str
    options: tuple  # option groups, in --help order
    required: tuple[str, ...]  # dests that must be set by a flag or the config file
    handler: Callable  # (args, network, history) -> {file name: CSV columns or JSON summary}


def build_parser() -> _Parser:
    parser = _Parser(prog="carpnet", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"carpnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for group in command.options:
            for flag, kwargs in group:
                p.add_argument(flag, **kwargs)
    return parser


def _config_args(path: str) -> list[str]:
    """A flat ``key = value`` file as the ``--key=value`` flags it stands for.

    One option per line; blank lines and ``#`` comments ignored; keys are
    long option names with ``-`` or ``_``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    flags = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-")
        if key == "config":
            raise UsageError(f"{path}:{lineno}: config files cannot nest")
        flags.append(f"--{key}={value}")
    return flags


def _require(args, command: str, dests) -> None:
    for dest in dests:
        if getattr(args, dest) is None:
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"{command} requires {flag} (flag or config file)")


def _parse_params(args, network, history, *, allow_fit=False):
    """Resolve model parameters from --params, --params-file, or a fit.

    Returns (params, source) where source is recorded in the outputs.
    """
    if args.params is not None and args.params_file is not None:
        raise UsageError("give either --params or --params-file, not both")
    if args.params is not None:
        return ModelParams(*args.params), "given"
    if args.params_file is not None:
        try:
            payload = json.loads(Path(args.params_file).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read params file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"params file is not valid JSON: {exc}") from None
        try:
            values = [payload[name] for name in ("alpha", "beta", "gamma")]
            if not all(type(v) in (int, float) for v in values):  # float() takes true and "1.2"
                raise TypeError(f"got {values}")
            return ModelParams(*map(float, values)), "file"
        except (KeyError, TypeError, OverflowError) as exc:
            raise DataError(f"params file must hold numeric alpha/beta/gamma: {exc}") from None
    if allow_fit and history is not None:
        return fit(history, network).params, "fitted"
    raise UsageError("model parameters required: --params or --params-file")


def _summary(report, *names) -> dict:
    """The named fields of a report, or all of them that are not arrays."""
    fields = asdict(report)
    if names:
        return {name: fields[name] for name in names}
    return {name: v for name, v in fields.items() if not isinstance(v, np.ndarray)}


def _fit_artifacts(result) -> dict:
    return {"fit.json": {
        **asdict(result.params),
        "loglik": result.log_likelihood,
        **_summary(result, "converged", "boundary_flags", "iterations"),
    }}


def _steady_artifacts(network, steady) -> dict:
    return {
        "steady_state.csv": {"risk_id": network.ids, "p_hat": steady.p_hat},
        "convergence.json": _summary(steady),
    }


def _influence_artifacts(network, matrix, aggregate, kappa) -> dict:
    ids = np.array(matrix.ids)
    src, dst = np.nonzero(~np.eye(network.n_risks, dtype=bool))
    pairs = {"source_id": ids[src], "target_id": ids[dst], "influence": matrix.values[src, dst]}

    cats = category_influence(matrix, network, aggregate=aggregate, kappa=kappa)
    names = np.array(cats.categories)
    src, dst = np.indices(cats.raw.shape).reshape(2, -1)
    return {
        "influence.csv": pairs,
        "category_influence.csv": {
            "source_cat": names[src],
            "target_cat": names[dst],
            "raw": cats.raw[src, dst],
            "normalized": cats.normalized[src, dst],
            "log_scaled": cats.log_scaled[src, dst],
        },
        "influence.json": {**_summary(cats, "aggregate", "degenerate"), "kappa": kappa,
                           **_summary(matrix, "anomalies", "error_bound", "n_unbounded")},
    }


def _cmd_fit(args, network, history) -> dict:
    return _fit_artifacts(fit(history, network, fix_beta=args.fix_beta))


def _cmd_simulate(args, network, history) -> dict:
    if args.initial == "history-last":
        _require(args, "simulate", ("history",))
    params, _ = _parse_params(args, network, history)

    R = network.n_risks
    if args.initial == "passive":
        initial = np.zeros(R, dtype=bool)
    elif args.initial == "active":
        initial = np.ones(R, dtype=bool)
    else:
        initial = history.states[:, -1].astype(bool)

    if args.checkpoints is None:  # the manifest records the resolved times
        args.checkpoints = default_checkpoints(args.horizon)

    batch = run_cascades_parallel(
        network, params, initial, args.horizon,
        args.seed, range(args.runs), jobs=args.jobs, checkpoints=args.checkpoints,
    )
    stats = statistics_from_batch(batch)
    return {
        "trajectory.csv": {
            "t": np.repeat(batch.checkpoints, R),
            "risk_id": np.tile(network.ids, len(batch.checkpoints)),
            "frequency": batch.checkpoint_frequency.mean(axis=1).ravel(),
        },
        "statistics.csv": {
            "risk_id": network.ids,
            "freq_active": stats.freq_active,
            "freq_activation": stats.activations,
        },
    }


def _cmd_steady_state(args, network, history) -> dict:
    params, _ = _parse_params(args, network, None)
    return _steady_artifacts(network, solve_steady_state(params, network))


def _cmd_stats(args, network, history) -> dict:
    return {"network_stats.json": asdict(compute_properties(network))}


def _cmd_influence(args, network, history) -> dict:
    params, _ = _parse_params(args, network, None)
    matrix = risk_influence(network, params)
    return _influence_artifacts(network, matrix, args.aggregate, args.kappa)


def _cmd_pipeline(args, network, history) -> dict:
    result = fit(history, network, fix_beta=args.fix_beta)
    matrix = risk_influence(network, result.params)
    return {
        **_fit_artifacts(result),
        **_steady_artifacts(network, matrix.baseline),
        **_influence_artifacts(network, matrix, args.aggregate, args.kappa),
    }


def _cmd_validate(args, network, history) -> dict:
    params, source = _parse_params(args, network, history, allow_fit=True)
    if args.experiment in ("recovery", "forward"):
        report = recovery_experiment(
            network, history, params, n_replicates=args.replicates, master_seed=args.seed
        )
    if args.experiment == "recovery":
        return {
            "recovery.json": {
                **_summary(report, "ground_truth", "gt_fractions", "gt_vector", "n_failed",
                           "activation_bound", "recovery_bound", "activation_bound_gt_fractions"),
                "params_source": source,
                "n_replicates": args.replicates,
                "n_retained": len(report.retained),
                "n_discarded": len(report.discarded),
            },
            "recovery_replicates.csv": {
                "replicate": range(args.replicates),
                "failed": report.failed,
                **dict(zip(("alpha", "beta", "gamma"), report.params.T)),
                **_summary(report, "activation_param", "recovery_param", "ks"),
                "retained": np.isin(np.arange(args.replicates), report.retained),
            },
        }

    if args.experiment == "forward":
        sets = [ModelParams(*report.params[i].tolist()) for i in report.retained]
        fw = forward_error_bounds(
            network, params, sets,
            initial=history.states[:, -1].astype(bool),
            months=args.months, runs=args.runs, master_seed=args.seed,
        )
        spread = ("mean", "worst_low", "worst_high")
        return {
            "forward.json": {
                **_summary(fw, "months", "gt_freq_active", "worst_deviation"),
                "ground_truth": asdict(params),
                "params_source": source,
                "runs": args.runs,
                "n_sets": len(sets),
                "gt_freq_activation": fw.gt_activations,
                "freq_active": dict(zip(spread, fw.freq_summary)),
                "freq_activation": dict(zip(spread, fw.activation_summary)),
            },
            "forward_sets.csv": {
                "set_index": range(len(sets)),
                "replicate": report.retained,
                "freq_active": fw.set_freq_active,
                "freq_activation": fw.set_activations,
                "freq_active_deviation": fw.freq_deviation,
                "freq_activation_deviation": fw.activation_deviation,
            },
        }

    if args.experiment == "network-effect":
        report = network_effect_comparison(
            network, history, params, runs=args.runs, master_seed=args.seed
        )
        return {
            "network_effect.json": {**_summary(report), "params_source": source,
                                    "runs": args.runs},
            "network_effect_series.csv": {
                "step": range(report.historical.size),
                "historical": report.historical,
                "network_mean": report.network_mean,
                "network_std": report.network_std,
                "independent_mean": report.independent_mean,
                "independent_std": report.independent_std,
            },
        }

    report = sensitivity_suite(
        network, history, params, perturbation=args.perturbation, master_seed=args.seed
    )
    order = np.lexsort((np.arange(network.n_risks), -report.baseline_p_hat))
    table = {
        "risk_id": network.ids,
        "baseline_p_hat": report.baseline_p_hat,
        "single_likelihood_delta": report.single_likelihood,
        "single_history_delta": report.single_history,
        "all_likelihood_delta": report.all_likelihood,
        "all_history_delta": report.all_history,
        "n_deactivated": report.n_deactivated,
    }
    return {
        "sensitivity.json": {
            **_summary(report, "perturbation"),
            "params_source": source,
            "params": asdict(report.baseline_params),
        },
        "sensitivity.csv": {name: np.asarray(column)[order] for name, column in table.items()},
    }


_COMMANDS = {
    "fit": _Command(
        "maximum-likelihood parameters from a history",
        (_COMMON, _NETWORK, (_HISTORY, _FIX_BETA)),
        ("risks", "pairs", "history"),
        _cmd_fit,
    ),
    "simulate": _Command(
        "Monte Carlo cascade trajectories",
        (_COMMON, _NETWORK, _PARAMS, (
            ("--history", dict(help="history CSV (needed for --initial history-last)")),
            _SEED,
            ("--runs", dict(type=_count("runs"), default=1000, help="number of runs (default 1000)")),
            ("--horizon", dict(type=_count("horizon"), default=10000,
                               help="months to simulate (default 10000)")),
            ("--initial", dict(default="passive", choices=("passive", "active", "history-last"),
                               help="initial state (default passive)")),
            ("--checkpoints", dict(type=_checkpoints, help="comma-separated output times "
                                                           "(default: powers of 10 plus the horizon)")),
            ("--jobs", dict(type=_count("jobs"), default=1,
                            help="worker processes, at most one per CPU; any value "
                                 "produces identical output (default 1)")),
        )),
        ("risks", "pairs", "seed"),
        _cmd_simulate,
    ),
    "steady-state": _Command(
        "mean-field fixed point of the dynamics",
        (_COMMON, _NETWORK, _PARAMS),
        ("risks", "pairs"),
        _cmd_steady_state,
    ),
    "validate": _Command(
        "recovery / forward / network-effect / sensitivity experiments",
        (_COMMON, _NETWORK, _PARAMS, (
            ("--experiment", dict(choices=_EXPERIMENTS, help="which experiment to run")),
            _HISTORY,
            _SEED,
            ("--replicates", dict(type=_count("replicates"), default=125,
                                  help="recovery replicates (default 125)")),
            ("--months", dict(type=_count("months"), default=12,
                              help="forward window length (default 12)")),
            ("--runs", dict(type=_count("runs"), default=100, help="runs per ensemble (default 100)")),
            ("--perturbation", dict(type=float, default=0.1,
                                    help="sensitivity perturbation size (default 0.1)")),
            ("--jobs", dict(type=_count("jobs"), default=1,
                            help="ignored: the experiments run in one process; kept so "
                                 "that command lines passing it still run")),
        )),
        ("risks", "pairs", "history", "seed", "experiment"),
        _cmd_validate,
    ),
    "influence": _Command(
        "risk-on-risk and category influence matrices",
        (_COMMON, _NETWORK, _PARAMS, _CATEGORIES),
        ("risks", "pairs"),
        _cmd_influence,
    ),
    "stats": _Command(
        "structural statistics of the network",
        (_COMMON, _NETWORK),
        ("risks", "pairs"),
        _cmd_stats,
    ),
    "pipeline": _Command(
        "fit, steady state, and influence in one run",
        (_COMMON, _NETWORK, (_HISTORY, _FIX_BETA), _CATEGORIES),
        ("risks", "pairs", "history"),
        _cmd_pipeline,
    ),
}


def run(argv) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # The file's flags go first so that the command line's override them.
        # Those parsed cleanly on their own, so an error now is the file's.
        file_flags = _config_args(args.config)
        try:
            args = parser.parse_args([args.command, *file_flags, *argv[1:]])
        except UsageError as exc:
            raise UsageError(f"config file {args.config}: {exc}") from None

    command = _COMMANDS[args.command]
    _require(args, args.command, ("out", *command.required))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use --out {out}: {exc}") from None

    network = load_network(args.risks, args.pairs, likelihood_scale=args.scale,
                           epsilon=args.epsilon)
    history = None
    if getattr(args, "history", None) is not None:
        history = load_history(args.history, network)
    artifacts = command.handler(args, network, history)
    for name, content in artifacts.items():
        (write_csv if name.endswith(".csv") else write_json)(out / name, content)
    # The manifest's config is every option of the command but the execution
    # details; --params and --params-file appear only when set.
    config = {
        dest: value for dest, value in vars(args).items()
        if dest not in _EXECUTION
        and not (value is None and dest in ("params", "params_file"))
    }
    write_manifest(
        out,
        command=args.command,
        config=config,
        inputs={role: getattr(args, role) for role in _INPUT_ROLES
                if getattr(args, role, None) is not None},
        outputs=artifacts,
        seed=getattr(args, "seed", None),
        version=__version__,
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CarpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())
