"""Tests for the MDP core: value iteration, induced chains, policy evaluation."""

import itertools
import math

import numpy as np
import pytest

from modeswitch.mdp import (
    DEFAULT_VI_TOL,
    ConvergenceError,
    InducedChain,
    ModePairMdp,
    finite_horizon_cost,
    greedy_backup,
    induced_chain,
    value_iteration,
)
from modeswitch.environments import RandomMdpSpec, gen_random_mdp


def policy_value(kernel, cost, discount, policy):
    """Exact discounted value of a fixed policy via the linear system."""
    n = kernel.shape[0]
    rows = np.arange(n)
    transition = kernel[rows, policy]
    stage = cost[rows, policy]
    return np.linalg.solve(np.eye(n) - discount * transition, stage)


class TestValueIteration:
    def test_single_state_geometric_series(self):
        policy, values, _ = value_iteration(np.ones((1, 1, 1)), np.array([[1.0]]), 0.5)
        assert policy.tolist() == [0]
        assert abs(values[0] - 2.0) < 1e-9

    def test_dominant_action(self):
        policy, values, _ = value_iteration(np.ones((1, 2, 1)), np.array([[1.0, 0.5]]), 0.9)
        assert policy.tolist() == [1]
        assert abs(values[0] - 5.0) < 1e-9

    def test_matches_policy_enumeration(self):
        kernel = np.array(
            [[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [1.0, 0.0]]]
        )
        cost = np.array([[1.0, 2.0], [0.3, 0.6]])
        discount = 0.9
        tol = DEFAULT_VI_TOL
        _, values, _ = value_iteration(kernel, cost, discount)
        candidates = [
            policy_value(kernel, cost, discount, np.array(choice))
            for choice in itertools.product(range(2), repeat=2)
        ]
        best = np.min(candidates, axis=0)
        assert np.max(np.abs(values - best)) <= tol * discount / (1 - discount) + 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_greedy_policy_evaluates_to_vi_output(self, seed):
        mdp = gen_random_mdp(RandomMdpSpec(seed=seed, change_rate=0.01, discount=0.95))
        tol = DEFAULT_VI_TOL
        policy, values, residual = value_iteration(mdp.kernel_pre, mdp.stage_cost, 0.95)
        exact = policy_value(mdp.kernel_pre, mdp.stage_cost, 0.95, policy)
        assert np.max(np.abs(exact - values)) <= tol * 0.95 / (1 - 0.95)
        # The returned residual is that of the backup that picked the policy.
        backed_up, greedy = greedy_backup(mdp.kernel_pre, mdp.stage_cost, 0.95, values)
        assert np.array_equal(greedy, policy)
        assert residual == float(np.max(np.abs(backed_up - values)))
        assert residual <= tol

    def test_iterates_nondecreasing_from_zero(self):
        mdp = gen_random_mdp(RandomMdpSpec(seed=4, change_rate=0.01, discount=0.9))
        values = np.zeros(mdp.n_states)
        for _ in range(60):
            new_values, _ = greedy_backup(mdp.kernel_pre, mdp.stage_cost, 0.9, values)
            assert np.all(new_values >= values - 1e-15)
            values = new_values

    def test_pre_policy_beats_post_policy_in_pre_mode(self, light_solve):
        # Optimality of the pre-change policy for the pre-change kernel.
        tol = DEFAULT_VI_TOL
        for seed in (1, 2, 5):
            env, _, _ = light_solve(seed, 0.01)
            mdp = env.mdp
            policy_pre, _, _ = value_iteration(mdp.kernel_pre, env.cost_pre, mdp.discount)
            policy_post, _, _ = value_iteration(mdp.kernel_post, env.cost_post, mdp.discount)
            chain_own = induced_chain(policy_pre, mdp.kernel_pre, env.cost_pre)
            chain_other = induced_chain(policy_post, mdp.kernel_pre, env.cost_pre)
            slack = 2 * tol * mdp.discount / (1 - mdp.discount)
            for state in range(mdp.n_states):
                point = np.zeros(mdp.n_states)
                point[state] = 1.0
                own = finite_horizon_cost(chain_own, point, math.inf, mdp.discount)
                other = finite_horizon_cost(chain_other, point, math.inf, mdp.discount)
                assert own <= other + slack

    def test_budget_exhaustion_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr("modeswitch.mdp.DEFAULT_VI_MAX_ITER", 1)
        kernel = np.ones((2, 1, 2)) * 0.5
        cost = np.array([[1.0], [3.0]])
        with pytest.raises(ConvergenceError) as info:
            value_iteration(kernel, cost, 0.9)
        assert info.value.residual > 0.0

    def test_rejects_bad_inputs(self):
        kernel = np.ones((1, 1, 1))
        with pytest.raises(ValueError):
            value_iteration(kernel * 0.5, np.array([[1.0]]), 0.9)


class TestModePairMdp:
    @pytest.mark.parametrize(
        ("pre", "post", "cost", "discount", "rate", "message"),
        [
            (np.ones((2, 2)), np.ones((2, 2)), np.zeros(2), 0.9, 0.1, "kernels must have shape"),
            (np.ones((2, 1, 3)), np.ones((2, 1, 3)), np.zeros((2, 1)), 0.9, 0.1, "kernels must"),
            (np.ones((1, 1, 1)), np.ones((1, 2, 1)), np.zeros((1, 1)), 0.9, 0.1, "share a shape"),
            (np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.zeros((1, 2)), 0.9, 0.1, "stage_cost must"),
            (np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.zeros((1, 1)), 1.0, 0.1, "discount must"),
            (np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.zeros((1, 1)), 0.9, 0.0, "change_rate"),
        ],
        ids=["two-axes", "not-square", "shapes-differ", "cost-shape", "discount-one", "rate-zero"],
    )
    def test_rejects_bad_models(self, pre, post, cost, discount, rate, message):
        with pytest.raises(ValueError, match=message):
            ModePairMdp(pre, post, cost, discount, rate)


class TestInducedChain:
    @pytest.mark.parametrize(
        ("transition", "cost", "message"),
        [
            (np.full((1, 2), 0.5), np.zeros(1), "transition must be square"),
            (np.eye(2), np.zeros(3), "cost_vec length must match the state count"),
            (np.eye(2), np.array([0.0, np.inf]), "cost_vec must be finite"),
        ],
        ids=["not-square", "cost-length", "cost-infinite"],
    )
    def test_rejects_bad_chains(self, transition, cost, message):
        with pytest.raises(ValueError, match=message):
            InducedChain(transition, cost)

    def test_identity_kernel_gives_identity_chain(self):
        kernel = np.stack([np.eye(3), np.eye(3)], axis=1)
        cost = np.arange(6.0).reshape(3, 2)
        chain = induced_chain(np.array([1, 0, 1]), kernel, cost)
        assert np.array_equal(chain.transition, np.eye(3))

    def test_rows_copied_from_chosen_actions(self):
        kernel = np.array(
            [[[0.7, 0.3], [0.1, 0.9]], [[0.4, 0.6], [0.0, 1.0]]]
        )
        cost = np.array([[5.0, 6.0], [7.0, 8.0]])
        chain = induced_chain(np.array([0, 1]), kernel, cost)
        assert np.array_equal(chain.transition[0], kernel[0, 0])
        assert np.array_equal(chain.transition[1], kernel[1, 1])
        assert chain.cost_vec.tolist() == [5.0, 8.0]

    def test_matches_naive_reindexing(self):
        mdp = gen_random_mdp(RandomMdpSpec(seed=11, change_rate=0.01))
        policy = np.array([2, 0, 1, 2, 1])
        chain = induced_chain(policy, mdp.kernel_pre, mdp.stage_cost)
        for state in range(5):
            for nxt in range(5):
                assert chain.transition[state, nxt] == mdp.kernel_pre[state, policy[state], nxt]
            assert chain.cost_vec[state] == mdp.stage_cost[state, policy[state]]

    def test_rejects_out_of_range_policy(self):
        kernel = np.ones((2, 1, 2)) * 0.5
        with pytest.raises(ValueError):
            induced_chain(np.array([0, 1]), kernel, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="policy length must match the state count"):
            induced_chain(np.array([0]), kernel, np.zeros((2, 1)))


class TestFiniteHorizonCost:
    def test_zero_horizon_is_zero(self):
        chain = induced_chain(np.array([0]), np.ones((1, 1, 1)), np.array([[1.0]]))
        assert finite_horizon_cost(chain, np.array([1.0]), 0, 0.9) == 0.0

    def test_infinite_horizon_geometric_series(self):
        chain = induced_chain(np.array([0]), np.ones((1, 1, 1)), np.array([[1.0]]))
        assert abs(finite_horizon_cost(chain, np.array([1.0]), math.inf, 0.9) - 10.0) < 1e-12

    def test_matches_distribution_propagation_oracle(self):
        mdp = gen_random_mdp(RandomMdpSpec(n_states=3, seed=6, change_rate=0.01))
        chain = induced_chain(np.array([0, 1, 2]), mdp.kernel_pre, mdp.stage_cost)
        start = np.array([0.2, 0.5, 0.3])
        expected = sum(
            0.9**t * float(start @ np.linalg.matrix_power(chain.transition, t) @ chain.cost_vec)
            for t in range(50)
        )
        got = finite_horizon_cost(chain, start, 50, 0.9)
        assert abs(got - expected) < 1e-10

    def test_rejects_unnormalized_distribution(self):
        chain = induced_chain(np.array([0]), np.ones((1, 1, 1)), np.array([[1.0]]))
        with pytest.raises(ValueError):
            finite_horizon_cost(chain, np.array([0.9]), 10, 0.9)

    def test_rejects_a_start_of_another_length_and_a_negative_horizon(self):
        chain = induced_chain(np.array([0]), np.ones((1, 1, 1)), np.array([[1.0]]))
        with pytest.raises(ValueError, match="initial_dist length must match the state count"):
            finite_horizon_cost(chain, np.array([0.5, 0.5]), 10, 0.9)
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            finite_horizon_cost(chain, np.array([1.0]), -1, 0.9)
