"""End-to-end solve for one environment: mode-optimal policies, induced-chain
stationary analysis, the false-alarm weight, and the optimal switching rule."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .detector import (
    BeliefDynamics,
    BeliefGrid,
    BeliefOperator,
    BeliefValueTable,
    extract_thresholds,
    solve_fixed_point,
    stencil_supports,
)
from .environments import SwitchingEnv
from .mdp import InducedChain, induced_chain, value_iteration
from .chains import stationary_distribution
from .regret import SwitchingCostRates, false_alarm_weight

#: (policy mode, kernel mode) pairs, 1 = pre-change, 2 = post-change.
MODE_PAIRS = ((1, 1), (2, 1), (1, 2), (2, 2))

#: Points of the uniform belief grid when a solve is given no size.
DEFAULT_GRID_SIZE = 1000


@dataclass(frozen=True)
class SolvedEnv:
    """Everything the simulators and exporters need about one environment."""

    env: SwitchingEnv
    policy_pre: np.ndarray
    policy_post: np.ndarray
    values_pre: np.ndarray
    values_post: np.ndarray
    vi_residual_pre: float
    vi_residual_post: float
    chains: dict = field(repr=False)
    stationary: dict = field(repr=False)
    cost_rates: SwitchingCostRates
    weight: float
    value_table: BeliefValueTable
    fp_iterations: int
    fp_residual: float
    thresholds: np.ndarray

    @cached_property
    def dyn(self) -> BeliefDynamics:
        """The belief filter's rows, read from the pre-change policy's chains."""
        return _filter_dynamics(self.chains, self.env.mdp.change_rate)

    @property
    def grid(self) -> BeliefGrid:
        """The belief grid, the value table's."""
        return self.value_table.grid

    def start_value(self) -> float:
        """DP-predicted detection cost from zero belief and the start-state law."""
        return float(self.env.initial_dist @ self.value_table.values[0])


def mode_pair_chains(
    env: SwitchingEnv, policy_pre: np.ndarray, policy_post: np.ndarray
) -> dict[tuple[int, int], InducedChain]:
    """The induced chain of every (policy, kernel) pair in :data:`MODE_PAIRS`."""
    policies = {1: policy_pre, 2: policy_post}
    kernels = {1: env.mdp.kernel_pre, 2: env.mdp.kernel_post}
    costs = {1: env.cost_pre, 2: env.cost_post}
    return {
        (policy_mode, kernel_mode): induced_chain(
            policies[policy_mode], kernels[kernel_mode], costs[kernel_mode]
        )
        for policy_mode, kernel_mode in MODE_PAIRS
    }


def _filter_dynamics(chains: dict, change_rate: float) -> BeliefDynamics:
    """The filter conditions on the pre-change policy's actions under both kernels."""
    return BeliefDynamics(chains[1, 1].transition, chains[1, 2].transition, change_rate)


def mode_pair_weight(
    env: SwitchingEnv, policy_pre: np.ndarray, policy_post: np.ndarray
) -> tuple[dict, dict, SwitchingCostRates, float]:
    """Induced chain and stationary law for every (policy, kernel) mode pair,
    the stationary average-cost rates they give, and the false-alarm weight.

    Returns ``(chains, stationary, rates, weight)``; the two dicts are keyed
    by the pairs in :data:`MODE_PAIRS`.
    """
    chains = mode_pair_chains(env, policy_pre, policy_post)
    stationary = {pair: stationary_distribution(chain) for pair, chain in chains.items()}
    averages = {pair: float(chains[pair].cost_vec @ stationary[pair]) for pair in MODE_PAIRS}
    rates = SwitchingCostRates(
        post_in_pre=averages[2, 1],
        pre_in_pre=averages[1, 1],
        pre_in_post=averages[1, 2],
        post_in_post=averages[2, 2],
    )
    return chains, stationary, rates, false_alarm_weight(rates, env.mdp.change_rate)


def solve_env(env: SwitchingEnv, grid_size: int = DEFAULT_GRID_SIZE) -> SolvedEnv:
    """Run the full pipeline for one environment on a ``grid_size``-point
    belief grid; the solvers stop at the tolerances and budgets of the
    ``DEFAULT_*`` constants in :mod:`.mdp` and :mod:`.detector`."""
    mdp = env.mdp
    policy_pre, values_pre, vi_residual_pre = value_iteration(
        mdp.kernel_pre, env.cost_pre, mdp.discount
    )
    policy_post, values_post, vi_residual_post = value_iteration(
        mdp.kernel_post, env.cost_post, mdp.discount
    )
    chains, stationary, rates, weight = mode_pair_weight(env, policy_pre, policy_post)

    dyn = _filter_dynamics(chains, mdp.change_rate)
    stencil_supports(dyn, grid_size)  # sizes grid and stencil before either exists
    operator = BeliefOperator(dyn, BeliefGrid.uniform(grid_size))
    table, iterations = solve_fixed_point(operator, weight)
    fp_residual = float(np.max(np.abs(operator.stepper(weight)(table.values) - table.values)))
    thresholds = extract_thresholds(table, operator, weight)

    return SolvedEnv(
        env=env,
        policy_pre=policy_pre,
        policy_post=policy_post,
        values_pre=values_pre,
        values_post=values_post,
        vi_residual_pre=vi_residual_pre,
        vi_residual_post=vi_residual_post,
        chains=chains,
        stationary=stationary,
        cost_rates=rates,
        weight=weight,
        value_table=table,
        fp_iterations=iterations,
        fp_residual=fp_residual,
        thresholds=thresholds,
    )
