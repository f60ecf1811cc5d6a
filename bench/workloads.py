"""The benchmark's fixed workloads: one `modeswitch` CLI command and config each.

Every workload takes the benchmark seed as ``master_seed``; the solver outputs
(policies, weights, value tables, thresholds) do not depend on it, the Monte
Carlo outputs do.  ``full`` is the measured size; ``smoke`` is a reduced size
that exercises the same code paths in a few seconds, for the self-test.
"""

from __future__ import annotations

README_SWEEP = [0.01, 0.0078, 0.006, 0.0046, 0.0036, 0.0028]


def _random_mdp(rho: float) -> dict:
    return {"kind": "random-mdp", "n_states": 5, "n_actions": 3, "seed": 10, "rho": rho, "gamma": 0.999}


# name -> (CLI command, {scale: config without master_seed})
WORKLOADS = {
    # The README config: the paper's Table-1/Figure-1 sweep.  Loads both heavy
    # layers; the Monte Carlo runs on the serial path with short horizons.
    "random-sweep": (
        "simulate",
        {
            "full": {
                "environment": _random_mdp(0.01),
                "grid_size": 1000,
                "n_episodes": 6000,
                "horizon": None,
                "rho_sweep": README_SWEEP,
                "workers": 1,
            },
            "smoke": {
                "environment": _random_mdp(0.01),
                "grid_size": 101,
                "n_episodes": 300,
                "horizon": None,
                "rho_sweep": README_SWEEP,
                "workers": 1,
            },
        },
    ),
    # 16 states: 256 stencil terms per grid point in every operator
    # application (25 for random-sweep), no Monte Carlo, the largest CSV.
    "inventory-solve": (
        "solve",
        {
            "full": {"environment": {"kind": "inventory", "capacity": 15, "rho": 0.01}, "grid_size": 1000},
            "smoke": {"environment": {"kind": "inventory", "capacity": 15, "rho": 0.01}, "grid_size": 101},
        },
    ),
    # The longest horizon of the acceptance sweep on a coarse grid: the DP is
    # nearly bypassed and the Monte Carlo runs on the thread-pool path with
    # long per-chunk uniform buffers and the per-episode record loop.
    "mc-long": (
        "simulate",
        {
            "full": {
                "environment": _random_mdp(0.0028),
                "grid_size": 101,
                "n_episodes": 6000,
                "horizon": 5715,
                "workers": 2,
                "write_episodes": True,
            },
            "smoke": {
                "environment": _random_mdp(0.0028),
                "grid_size": 101,
                "n_episodes": 2100,
                "horizon": 300,
                "workers": 2,
                "write_episodes": True,
            },
        },
    ),
}

SCALES = ("full", "smoke")

#: Seed whose full outputs are stored under ``reference/``.
REFERENCE_SEED = 0


def command(workload: str) -> str:
    return WORKLOADS[workload][0]


def config(workload: str, scale: str, seed: int) -> dict:
    return {**WORKLOADS[workload][1][scale], "master_seed": seed}
