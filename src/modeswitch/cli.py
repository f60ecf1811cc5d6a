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
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .chains import mixing_profile, verify_mixing_bound
from .environments import InventorySpec, RandomMdpSpec, SwitchingEnv, build_inventory, random_env
from .mdp import ModePairMdp
from .pipeline import MODE_PAIRS, SolveOptions, SolvedEnv, solve_env
from .simulate import run_batch, summarize


class ConfigError(ValueError):
    """The config file is malformed or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    environment: dict
    grid_size: int = 1000
    vi_tol: float = 1e-10
    vi_max_iter: int = 2_000_000
    fp_tol: float = 1e-9
    fp_max_iter: int = 1_000_000
    rho_sweep: tuple[float, ...] | None = None
    n_episodes: int = 6000
    horizon: int | None = None
    master_seed: int = 0
    workers: int = 1
    out_dir: str = "out"
    mixing_k_max: int = 200
    write_episodes: bool = False


_TOP_KEYS = {
    "environment",
    "grid_size",
    "vi_tol",
    "vi_max_iter",
    "fp_tol",
    "fp_max_iter",
    "rho_sweep",
    "n_episodes",
    "horizon",
    "master_seed",
    "workers",
    "out_dir",
    "mixing_k_max",
    "write_episodes",
}

_ENV_KEYS = {
    "random-mdp": {"kind", "n_states", "n_actions", "seed", "rho", "gamma"},
    "inventory": {
        "kind",
        "capacity",
        "order_cost",
        "holding_cost",
        "shortfall_cost",
        "demand_rate",
        "rho",
        "gamma",
        "demand_tail_eps",
        "order_cost_basis",
    },
    "custom-kernels": {"kind", "kernel_pre", "kernel_post", "stage_cost", "rho", "gamma"},
}


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    env = raw.get("environment")
    if not isinstance(env, dict) or "kind" not in env:
        raise ConfigError("config needs an 'environment' object with a 'kind'")
    kind = env["kind"]
    if kind not in _ENV_KEYS:
        raise ConfigError(f"unknown environment kind {kind!r}")
    _reject_unknown(env, _ENV_KEYS[kind], f"environment ({kind})")
    sweep = raw.get("rho_sweep")
    if sweep is not None:
        sweep = tuple(float(value) for value in sweep)
    config = ExperimentConfig(
        environment=env,
        **{
            key: raw[key]
            for key in _TOP_KEYS - {"environment", "rho_sweep"}
            if key in raw
        },
    )
    config = replace(config, rho_sweep=sweep)
    if config.n_episodes < 1:
        raise ConfigError("no episodes requested")
    if config.grid_size < 2:
        raise ConfigError("grid_size must be at least 2")
    if config.workers < 1:
        raise ConfigError("workers must be at least 1")
    return config


#: Config keys whose spec field has another name.
_SPEC_FIELDS = {"rho": "change_rate", "gamma": "discount"}


def _build_env(config: ExperimentConfig, rho: float | None = None) -> SwitchingEnv:
    env = config.environment
    kind = env["kind"]
    if kind in ("random-mdp", "inventory"):
        # Pass only the keys present, so defaults live in the spec classes.
        fields = {_SPEC_FIELDS.get(k, k): v for k, v in env.items() if k != "kind"}
        if rho is not None:
            fields["change_rate"] = rho
        if kind == "random-mdp":
            return random_env(RandomMdpSpec(**fields))
        return build_inventory(InventorySpec(**fields))
    kernel_pre = np.asarray(env["kernel_pre"], dtype=float)
    kernel_post = np.asarray(env["kernel_post"], dtype=float)
    stage_cost = np.asarray(env["stage_cost"], dtype=float)
    mdp = ModePairMdp(
        kernel_pre,
        kernel_post,
        stage_cost,
        env.get("gamma", 0.999),
        rho if rho is not None else env.get("rho", 0.01),
    )
    uniform = np.full(mdp.n_states, 1.0 / mdp.n_states)
    return SwitchingEnv(mdp, stage_cost, stage_cost, uniform, "custom-kernels")


def _solve_options(config: ExperimentConfig) -> SolveOptions:
    return SolveOptions(
        grid_size=config.grid_size,
        vi_tol=config.vi_tol,
        vi_max_iter=config.vi_max_iter,
        fp_tol=config.fp_tol,
        fp_max_iter=config.fp_max_iter,
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _horizon_for(config: ExperimentConfig, rho: float) -> int:
    if config.horizon is not None:
        return int(config.horizon)
    return math.ceil(2.0 / rho)


def _manifest(config: ExperimentConfig, out: Path, extra: dict) -> None:
    body = {
        "config": {
            **{
                key: getattr(config, key)
                for key in sorted(_TOP_KEYS - {"environment", "rho_sweep"})
            },
            "environment": config.environment,
            "rho_sweep": list(config.rho_sweep) if config.rho_sweep else None,
        },
        "versions": {"modeswitch": __version__, "numpy": np.__version__},
        "created_at": datetime.now(timezone.utc).isoformat(),
        **extra,
    }
    (out / "manifest.json").write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


def _solved_summary(solved: SolvedEnv) -> dict:
    return {
        "lambda": solved.weight,
        "cost_rates": {
            "post_in_pre": solved.cost_rates.post_in_pre,
            "pre_in_pre": solved.cost_rates.pre_in_pre,
            "pre_in_post": solved.cost_rates.pre_in_post,
            "post_in_post": solved.cost_rates.post_in_post,
        },
        "residuals": {
            "value_iteration_pre": solved.vi_residual_pre,
            "value_iteration_post": solved.vi_residual_post,
            "fixed_point": solved.fp_residual,
            "fixed_point_iterations": solved.fp_iterations,
        },
    }


def cmd_solve(config: ExperimentConfig, out: Path) -> None:
    env = _build_env(config)
    solved = solve_env(env, _solve_options(config))
    n = env.mdp.n_states
    _write_csv(
        out / "policies.csv",
        ["state", "action_pre", "action_post"],
        [[x, solved.policy_pre[x], solved.policy_post[x]] for x in range(n)],
    )
    _write_csv(
        out / "values.csv",
        ["state", "value_pre", "value_post"],
        [[x, solved.values_pre[x], solved.values_post[x]] for x in range(n)],
    )
    _write_csv(
        out / "stationary.csv",
        ["policy_mode", "kernel_mode", "state", "probability"],
        [
            [i, j, x, solved.stationary[i, j][x]]
            for i, j in MODE_PAIRS
            for x in range(n)
        ],
    )
    _write_csv(
        out / "value_table.csv",
        ["state", "p", "value"],
        [
            [x, solved.grid.points[k], solved.value_table.values[k, x]]
            for x in range(n)
            for k in range(solved.grid.size)
        ],
    )
    _write_csv(
        out / "thresholds.csv",
        ["state", "threshold"],
        [[x, solved.thresholds[x]] for x in range(n)],
    )
    _manifest(config, out, {"solve": _solved_summary(solved), "label": env.label})


def _simulate_one(config: ExperimentConfig, rho: float | None):
    env = _build_env(config, rho)
    solved = solve_env(env, _solve_options(config))
    horizon = _horizon_for(config, env.mdp.change_rate)
    batch = run_batch(
        solved, config.n_episodes, horizon, config.master_seed, config.workers
    )
    return env, solved, horizon, batch, summarize(batch, horizon, config.master_seed)


def cmd_simulate(config: ExperimentConfig, out: Path) -> None:
    sweep = config.rho_sweep if config.rho_sweep else (None,)
    rows = []
    manifest_runs = []
    episode_rows = []
    for rho in sweep:
        env, solved, horizon, batch, report = _simulate_one(config, rho)
        rows.append(
            [
                env.mdp.change_rate,
                solved.weight,
                report.mean_cost_mo,
                report.mean_cost_cd,
                report.stderr_cost_mo,
                report.stderr_cost_cd,
                report.false_alarm_rate,
                report.mean_delay,
                report.welch_t,
                report.welch_df,
                report.truncated_frac,
            ]
        )
        manifest_runs.append(
            {
                "label": env.label,
                "rho": env.mdp.change_rate,
                "horizon": horizon,
                **_solved_summary(solved),
            }
        )
        if config.write_episodes:
            for i in range(batch.n_episodes):
                rec = batch.record(i)
                episode_rows.append(
                    [
                        env.mdp.change_rate,
                        i,
                        rec.change_point,
                        rec.switch_time,
                        rec.cost_cd,
                        rec.cost_mo,
                        rec.false_alarm,
                        rec.delay,
                        rec.objective_realized,
                        rec.truncated,
                    ]
                )
    _write_csv(
        out / "report.csv",
        [
            "rho",
            "lambda",
            "j_mo",
            "j_cd",
            "stderr_mo",
            "stderr_cd",
            "pfa",
            "mean_delay",
            "t_stat",
            "t_df",
            "truncated_frac",
        ],
        rows,
    )
    if config.write_episodes:
        _write_csv(
            out / "episodes.csv",
            [
                "rho",
                "episode",
                "change_point",
                "switch_time",
                "cost_cd",
                "cost_mo",
                "false_alarm",
                "delay",
                "objective_realized",
                "truncated",
            ],
            episode_rows,
        )
    _manifest(config, out, {"simulate": manifest_runs})


def cmd_figure1(config: ExperimentConfig, out: Path) -> None:
    if not config.rho_sweep:
        raise ConfigError("figure1 needs a rho_sweep")
    threshold_rows = []
    pfa_rows = []
    manifest_runs = []
    for rho in config.rho_sweep:
        env, solved, horizon, _, report = _simulate_one(config, rho)
        for x in range(env.mdp.n_states):
            threshold_rows.append([rho, x, solved.thresholds[x]])
        stderr = math.sqrt(
            max(report.false_alarm_rate * (1.0 - report.false_alarm_rate), 0.0)
            / config.n_episodes
        )
        pfa_rows.append([rho, report.false_alarm_rate, stderr])
        manifest_runs.append(
            {"label": env.label, "rho": rho, "horizon": horizon, **_solved_summary(solved)}
        )
    _write_csv(out / "thresholds.csv", ["rho", "state", "threshold"], threshold_rows)
    _write_csv(out / "pfa.csv", ["rho", "pfa", "stderr"], pfa_rows)
    _manifest(config, out, {"figure1": manifest_runs})


def cmd_mixing(config: ExperimentConfig, out: Path) -> None:
    env = _build_env(config)
    solved = solve_env(env, _solve_options(config))
    profile_rows = []
    envelope_rows = []
    for i, j in MODE_PAIRS:
        chain = solved.chains[i, j]
        profile = mixing_profile(chain, config.mixing_k_max)
        report = verify_mixing_bound(chain, env.mdp.discount, config.mixing_k_max)
        for t, tv in enumerate(profile.tv_by_step):
            profile_rows.append([i, j, t, tv])
        envelope_rows.append(
            [i, j, profile.envelope_b, profile.envelope_beta, report.max_slack, report.min_slack]
        )
    _write_csv(out / "mixing_profile.csv", ["policy_mode", "kernel_mode", "t", "tv"], profile_rows)
    _write_csv(
        out / "mixing_envelope.csv",
        ["policy_mode", "kernel_mode", "envelope_b", "envelope_beta", "max_slack", "min_slack"],
        envelope_rows,
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
    parser.add_argument("--workers", type=int, default=None, help="override workers")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        if args.out is not None:
            config = replace(config, out_dir=args.out)
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError("workers must be at least 1")
            config = replace(config, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out = Path(config.out_dir)
    stage = "setup"
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = args.command
        _COMMANDS[args.command](config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical / model failures -> exit 2, stage named
        print(f"error in stage '{stage}': {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
