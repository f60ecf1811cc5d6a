"""Shared fixtures: cached environment solves and the acceptance summary."""

from __future__ import annotations

import numpy as np
import pytest

from modeswitch import (
    BeliefDynamics,
    RandomMdpSpec,
    mode_pair_weight,
    random_env,
    solve_env,
    value_iteration,
)

# The canonical random instance used by the acceptance suite, plus the first
# ten seeds whose instances admit a defined tradeoff weight (for some seeds
# the two mode-optimal policies coincide and the weight is undefined).
CANONICAL_SEED = 10
VALID_SEEDS = (1, 2, 5, 8, 9, 10, 11, 13, 18, 19)
TABLE1_RHOS = (0.0100, 0.0078, 0.0060, 0.0046, 0.0036, 0.0028)

_SOLVE_CACHE: dict = {}
_LIGHT_CACHE: dict = {}


def solve_random_cached(seed: int, rho: float, grid_size: int = 1000):
    key = (seed, rho, grid_size)
    if key not in _SOLVE_CACHE:
        env = random_env(RandomMdpSpec(seed=seed, change_rate=rho))
        _SOLVE_CACHE[key] = solve_env(env, grid_size)
    return _SOLVE_CACHE[key]


def light_solve_cached(seed: int, rho: float):
    """Policies, weight, and belief dynamics without the grid DP."""
    key = (seed, rho)
    if key not in _LIGHT_CACHE:
        env = random_env(RandomMdpSpec(seed=seed, change_rate=rho))
        mdp = env.mdp
        policy_pre, _, _ = value_iteration(mdp.kernel_pre, env.cost_pre, mdp.discount)
        policy_post, _, _ = value_iteration(mdp.kernel_post, env.cost_post, mdp.discount)
        chains, _, _, weight = mode_pair_weight(env, policy_pre, policy_post)
        dyn = BeliefDynamics(chains[1, 1].transition, chains[1, 2].transition, mdp.change_rate)
        _LIGHT_CACHE[key] = (env, weight, dyn)
    return _LIGHT_CACHE[key]


@pytest.fixture(scope="session")
def canonical():
    return solve_random_cached(CANONICAL_SEED, 0.01)


@pytest.fixture(scope="session")
def solve_random():
    return solve_random_cached


@pytest.fixture(scope="session")
def light_solve():
    return light_solve_cached


def make_positive_dyn(seed: int, n_states: int = 3, rate: float = 0.05) -> BeliefDynamics:
    """Random strictly-positive belief dynamics for detector unit tests."""
    rng = np.random.default_rng(seed)
    pre = rng.random((n_states, n_states)) + 0.05
    pre /= pre.sum(axis=1, keepdims=True)
    post = rng.random((n_states, n_states)) + 0.05
    post /= post.sum(axis=1, keepdims=True)
    return BeliefDynamics(pre, post, rate)


# One PASS/FAIL line per acceptance criterion at the end of the run.
_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        label = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}  {name}")
