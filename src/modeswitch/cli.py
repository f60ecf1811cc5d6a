"""Command-line front end: load a JSON config, run solve / simulate /
figure / mixing pipelines, and emit CSV artifacts plus a JSON run manifest.

Exit codes: 0 success, 1 config error, 2 numerical failure (stage named on
stderr).  All outputs are pure functions of (config, master seed); CSVs carry
no timestamps, the manifest keeps its timestamp in a single dedicated field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import datetime, timezone
from importlib import import_module
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .chains import verify_mixing_bound
from .environments import InventorySpec, RandomMdpSpec, SwitchingEnv, build_inventory, random_env
from .mdp import ModePairMdp
from .pipeline import DEFAULT_GRID_SIZE, MODE_PAIRS, SolvedEnv, solve_env

#: Monte Carlo names, module attributes that load ``simulate`` on first access
#: (PEP 562), so ``solve`` and ``mixing`` never load it.  ``_simulate_sweep``
#: looks them up through the module, so a replaced attribute is the one
#: called.  ``run_batch`` is not called here; bench/child.py times its probe
#: batch through it.  Defined above the ``__main__`` guard, since
#: ``python -m modeswitch.cli`` runs ``main`` there.
_MONTE_CARLO = ("run_batch", "run_sweep", "summarize")


def __getattr__(name: str):
    if name not in _MONTE_CARLO:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".simulate", __package__), name)


class ConfigError(ValueError):
    """The config file is malformed or inconsistent."""


class _StageError(RuntimeError):
    """A numerical or model failure inside a named stage of a command."""

    def __init__(self, stage: str, error: Exception):
        super().__init__(str(error))
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Report a failure inside the block as a :class:`_StageError` of ``name``;
    config errors and the stage errors of an inner block pass through."""
    try:
        yield
    except (ConfigError, _StageError):
        raise
    except Exception as exc:
        raise _StageError(name, exc) from exc


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    environment: dict
    grid_size: int = DEFAULT_GRID_SIZE
    rho_sweep: tuple[float, ...] | None = None
    n_episodes: int = 6000
    horizon: int | None = None
    master_seed: int = 0
    workers: int = 1
    out_dir: str = "out"
    mixing_k_max: int = 200
    write_episodes: bool = False


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}

#: Config keys whose spec field has another name; both must lie in (0, 1).
_SPEC_FIELDS = {"rho": "change_rate", "gamma": "discount"}
_CONFIG_KEY = {field: key for key, field in _SPEC_FIELDS.items()}

#: Environment kind -> the spec class whose fields are its keys.
_SPECS = {"random-mdp": RandomMdpSpec, "inventory": InventorySpec, "custom-kernels": ModePairMdp}

#: Environment kind -> {config key: whether it is required}.
_ENV_FIELDS = {
    kind: {_CONFIG_KEY.get(f.name, f.name): f.default is MISSING for f in fields(spec)}
    for kind, spec in _SPECS.items()
}
_ENV_KEYS = {kind: {"kind", *keys} for kind, keys in _ENV_FIELDS.items()}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Config field annotation -> (what a value must be, the check it must pass).
_TYPE_CHECKS = {
    int: ("an integer", _is_int),
    int | None: ("an integer or null", lambda v: v is None or _is_int(v)),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    np.ndarray: ("a list", lambda v: isinstance(v, list)),
    tuple[float, ...] | None: (
        "a list of numbers or null",
        lambda v: v is None or (isinstance(v, list) and all(map(_is_number, v))),
    ),
}


def _type_checks(cls) -> dict:
    """Config key -> its entry of ``_TYPE_CHECKS``, for each field of ``cls``
    whose annotation has one."""
    return {
        _CONFIG_KEY.get(name, name): _TYPE_CHECKS[hint]
        for name, hint in get_type_hints(cls).items()
        if hint in _TYPE_CHECKS
    }


_FIELD_CHECKS = _type_checks(ExperimentConfig)
_ENV_CHECKS = {kind: _type_checks(spec) for kind, spec in _SPECS.items()}

#: (config key, smallest allowed value, message when it is smaller).
_MINIMA = (
    ("n_episodes", 1, "no episodes requested"),
    ("grid_size", 2, "grid_size must be at least 2"),
    ("workers", 1, "workers must be at least 1"),
    ("horizon", 1, "horizon must be at least 1"),
    ("master_seed", 0, "master_seed must be non-negative"),
    ("mixing_k_max", 1, "mixing_k_max must be at least 1"),
)
#: The largest horizon: the Monte Carlo records a switch time as an int64.
_MAX_HORIZON = 2**63 - 1


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Read a JSON config, apply ``overrides`` (config key -> value) and check
    the result; any problem raises :class:`ConfigError`."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw.update(overrides)
    _reject_unknown(raw, _TOP_KEYS, "config")
    env = raw.get("environment")
    if not isinstance(env, dict) or "kind" not in env:
        raise ConfigError("config needs an 'environment' object with a 'kind'")
    kind = env["kind"]
    if not isinstance(kind, str) or kind not in _ENV_FIELDS:
        raise ConfigError(f"unknown environment kind {kind!r}")
    _reject_unknown(env, _ENV_KEYS[kind], f"environment ({kind})")
    missing = sorted(k for k, required in _ENV_FIELDS[kind].items() if required and k not in env)
    if missing:
        raise ConfigError(f"environment ({kind}) is missing keys: {', '.join(missing)}")
    for key, (what, check) in _ENV_CHECKS[kind].items():
        if key in env and not check(env[key]):
            raise ConfigError(f"environment {key} must be {what}, got {json.dumps(env[key])}")
    for key in _SPEC_FIELDS:
        if key in env and not 0.0 < env[key] < 1.0:
            raise ConfigError(f"environment {key} must lie in (0, 1), got {json.dumps(env[key])}")
    for key, (what, check) in _FIELD_CHECKS.items():
        if key in raw and not check(raw[key]):
            raise ConfigError(f"{key} must be {what}, got {json.dumps(raw[key])}")
    sweep = raw.get("rho_sweep")
    for value in sweep or ():
        if not 0.0 < value < 1.0:
            raise ConfigError(f"rho_sweep values must lie in (0, 1), got {json.dumps(value)}")
    raw["rho_sweep"] = tuple(float(value) for value in sweep) if sweep else None
    try:
        _env_spec(env)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"environment ({kind}): {exc}") from exc
    config = ExperimentConfig(**raw)
    for key, low, message in _MINIMA:
        value = getattr(config, key)
        if value is not None and value < low:
            raise ConfigError(message)
    if config.horizon is not None and config.horizon > _MAX_HORIZON:
        raise ConfigError(f"horizon must be at most 2**63 - 1, got {config.horizon}")
    return config


def _env_spec(env: dict, rho: float | None = None):
    """The spec of the environment ``env`` (for custom kernels the
    :class:`ModePairMdp` itself), at change rate ``rho`` if given.  Only the
    keys present are passed, so defaults live in the spec classes."""
    spec = {_SPEC_FIELDS.get(k, k): v for k, v in env.items() if k != "kind"}
    if rho is not None:
        spec["change_rate"] = rho
    return _SPECS[env["kind"]](**spec)


def _build_env(config: ExperimentConfig, rho: float | None = None) -> SwitchingEnv:
    kind = config.environment["kind"]
    spec = _env_spec(config.environment, rho)
    if kind == "random-mdp":
        return random_env(spec)
    if kind == "inventory":
        return build_inventory(spec)
    uniform = np.full(spec.n_states, 1.0 / spec.n_states)
    return SwitchingEnv(spec, spec.stage_cost, uniform, "custom-kernels")


def _solve(config: ExperimentConfig, command: str, rho: float | None = None) -> SolvedEnv:
    """Build the environment at ``rho`` (the config's rate if None), then
    solve it in the stage ``"{command} rho={rate}"``; a failure while building
    stays in the command's own stage."""
    env = _build_env(config, rho)
    with _stage(f"{command} rho={env.mdp.change_rate}"):
        return solve_env(env, config.grid_size)


#: Rows formatted and written at a time by :func:`_write_csv`.
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: list[str], *blocks: list) -> None:
    """Write blocks of rows under ``header``; a block is one list of
    equal-length columns, or one row of scalars.  Bool and integer columns
    are written as decimal integers, floats with 17 significant digits
    (round-trip exact).  Rows are formatted ``_CSV_BLOCK_ROWS`` at a time
    from ``tolist()`` of their slice, so no file's text is ever held whole."""
    with open(path, "w", newline="\n") as file:
        file.write(",".join(header) + "\n")
        for block in blocks:
            columns = [np.atleast_1d(column) for column in block]
            row_format = ",".join(
                "%d" if column.dtype.kind in "biu" else "%.17g" for column in columns
            ) + "\n"
            for start in range(0, columns[0].size, _CSV_BLOCK_ROWS):
                part = slice(start, start + _CSV_BLOCK_ROWS)
                rows = zip(*(column[part].tolist() for column in columns))
                file.write("".join(row_format % row for row in rows))


def _manifest(config: ExperimentConfig, out: Path, extra: dict) -> None:
    body = {
        "config": asdict(config),
        "versions": {"modeswitch": __version__, "numpy": np.__version__},
        "created_at": datetime.now(timezone.utc).isoformat(),
        **extra,
    }
    (out / "manifest.json").write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


def _solved_summary(solved: SolvedEnv) -> dict:
    return {
        "lambda": solved.weight,
        "cost_rates": asdict(solved.cost_rates),
        "residuals": {
            "value_iteration_pre": solved.vi_residual_pre,
            "value_iteration_post": solved.vi_residual_post,
            "fixed_point": solved.fp_residual,
            "fixed_point_iterations": solved.fp_iterations,
        },
    }


def cmd_solve(config: ExperimentConfig, out: Path) -> None:
    solved = _solve(config, "solve")
    n = solved.env.mdp.n_states
    states = np.arange(n)
    _write_csv(
        out / "policies.csv",
        ["state", "action_pre", "action_post"],
        [states, solved.policy_pre, solved.policy_post],
    )
    _write_csv(
        out / "values.csv",
        ["state", "value_pre", "value_post"],
        [states, solved.values_pre, solved.values_post],
    )
    modes = np.repeat(np.array(MODE_PAIRS), n, axis=0)
    _write_csv(
        out / "stationary.csv",
        ["policy_mode", "kernel_mode", "state", "probability"],
        [
            modes[:, 0],
            modes[:, 1],
            np.tile(states, len(MODE_PAIRS)),
            np.concatenate([solved.stationary[pair] for pair in MODE_PAIRS]),
        ],
    )
    _write_csv(
        out / "value_table.csv",
        ["state", "p", "value"],
        [
            np.repeat(states, solved.grid.size),
            np.tile(solved.grid.points, n),
            solved.value_table.values.T.ravel(),
        ],
    )
    _write_csv(out / "thresholds.csv", ["state", "threshold"], [states, solved.thresholds])
    _manifest(config, out, {"solve": _solved_summary(solved), "label": solved.env.label})


def _simulate_sweep(config: ExperimentConfig, command: str):
    """Solve every swept rate, each failure naming ``command`` and its rate,
    then run their Monte Carlo in one :func:`run_sweep`, a failure naming
    every rate.  Returns per rate its solve, batch, report and manifest
    entry."""
    # Loaded before the solves: compiled after them, simulate.py raised the
    # README sweep's peak RSS by about 0.4 MB.
    module = sys.modules[__name__]
    run_sweep, summarize = module.run_sweep, module.summarize
    solveds = [_solve(config, command, rho) for rho in config.rho_sweep or (None,)]
    rates = [solved.env.mdp.change_rate for solved in solveds]
    horizons = [config.horizon or math.ceil(2.0 / rate) for rate in rates]
    with _stage(f"{command} rho={','.join(map(str, rates))}"):
        batches = run_sweep(
            solveds, config.n_episodes, horizons, config.master_seed, config.workers
        )
    return [
        (
            solved,
            batch,
            summarize(batch),
            {
                "label": solved.env.label,
                "rho": solved.env.mdp.change_rate,
                "horizon": horizon,
                **_solved_summary(solved),
            },
        )
        for solved, batch, horizon in zip(solveds, batches, horizons)
    ]


#: report.csv columns after ``rho`` and ``lambda`` -> their SimReport fields.
_REPORT_COLUMNS = {
    "j_mo": "mean_cost_mo",
    "j_cd": "mean_cost_cd",
    "stderr_mo": "stderr_cost_mo",
    "stderr_cd": "stderr_cost_cd",
    "pfa": "false_alarm_rate",
    "mean_delay": "mean_delay",
    "t_stat": "welch_t",
    "t_df": "welch_df",
    "truncated_frac": "truncated_frac",
}

#: episodes.csv columns after ``rho`` and ``episode``, each an EpisodeBatch field.
_EPISODE_COLUMNS = (
    "change_point", "switch_time", "cost_cd", "cost_mo",
    "false_alarm", "delay", "objective_realized", "truncated",
)


def cmd_simulate(config: ExperimentConfig, out: Path) -> None:
    rows = []
    manifest_runs = []
    episode_blocks = []
    runs = _simulate_sweep(config, "simulate")
    # Every rate runs config.n_episodes episodes, so one index column serves
    # all; it is made after the Monte Carlo, which it would otherwise sit beside.
    episodes = np.arange(config.n_episodes) if config.write_episodes else None
    for solved, batch, report, run in runs:
        rate = solved.env.mdp.change_rate
        rows.append(
            [rate, solved.weight, *(getattr(report, name) for name in _REPORT_COLUMNS.values())]
        )
        manifest_runs.append(run)
        if config.write_episodes:
            episode_blocks.append(
                [
                    np.broadcast_to(rate, config.n_episodes),
                    episodes,
                    *(getattr(batch, name) for name in _EPISODE_COLUMNS),
                ]
            )
    _write_csv(out / "report.csv", ["rho", "lambda", *_REPORT_COLUMNS], *rows)
    if config.write_episodes:
        _write_csv(out / "episodes.csv", ["rho", "episode", *_EPISODE_COLUMNS], *episode_blocks)
    _manifest(config, out, {"simulate": manifest_runs})


def cmd_figure1(config: ExperimentConfig, out: Path) -> None:
    if not config.rho_sweep:
        raise ConfigError("figure1 needs a rho_sweep")
    threshold_blocks = []
    pfa_rows = []
    manifest_runs = []
    for rho, (solved, _, report, run) in zip(
        config.rho_sweep, _simulate_sweep(config, "figure1")
    ):
        n = solved.env.mdp.n_states
        threshold_blocks.append([np.full(n, rho), np.arange(n), solved.thresholds])
        stderr = math.sqrt(
            max(report.false_alarm_rate * (1.0 - report.false_alarm_rate), 0.0)
            / config.n_episodes
        )
        pfa_rows.append([rho, report.false_alarm_rate, stderr])
        manifest_runs.append(run)
    _write_csv(out / "thresholds.csv", ["rho", "state", "threshold"], *threshold_blocks)
    _write_csv(out / "pfa.csv", ["rho", "pfa", "stderr"], *pfa_rows)
    _manifest(config, out, {"figure1": manifest_runs})


def cmd_mixing(config: ExperimentConfig, out: Path) -> None:
    solved = _solve(config, "mixing")
    env = solved.env
    reports = {}
    with _stage(f"mixing rho={env.mdp.change_rate}"):
        for i, j in MODE_PAIRS:
            reports[i, j] = verify_mixing_bound(
                solved.chains[i, j], env.mdp.discount, config.mixing_k_max, solved.stationary[i, j]
            )
    steps = config.mixing_k_max + 1
    _write_csv(
        out / "mixing_profile.csv",
        ["policy_mode", "kernel_mode", "t", "tv"],
        *(
            [np.broadcast_to(i, steps), np.broadcast_to(j, steps), np.arange(steps),
             report.profile.tv_by_step]
            for (i, j), report in reports.items()
        ),
    )
    _write_csv(
        out / "mixing_envelope.csv",
        ["policy_mode", "kernel_mode", "envelope_b", "envelope_beta", "max_slack", "min_slack"],
        *(
            [i, j, report.profile.envelope_b, report.profile.envelope_beta,
             report.max_slack, report.min_slack]
            for (i, j), report in reports.items()
        ),
    )
    _manifest(config, out, {"mixing": {"label": env.label, **_solved_summary(solved)}})


_COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "figure1": cmd_figure1,
    "mixing": cmd_mixing,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modeswitch",
        description="Solve and evaluate change-detection controller switching.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--out", default=None, help="override out_dir")
    parser.add_argument(
        "--workers", type=int, default=None,
        help=(
            "override workers: Monte Carlo processes, forked where the OS can fork "
            "(serial elsewhere) and capped at the CPUs and episodes; outputs are "
            "byte-identical for any value"
        ),
    )
    args = parser.parse_args(argv)

    overrides = {"master_seed": args.seed, "out_dir": args.out, "workers": args.workers}
    try:
        config = load_config(
            args.config, **{key: value for key, value in overrides.items() if value is not None}
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out = Path(config.out_dir)
    try:
        with _stage("setup"):
            out.mkdir(parents=True, exist_ok=True)
        with _stage(args.command):
            _COMMANDS[args.command](config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _StageError as exc:  # numerical / model failures -> exit 2, stage named
        print(f"error in stage '{exc.stage}': {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
