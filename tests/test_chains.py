"""Tests for stationary analysis, mixing profiles, and the cost-gap bound."""

import numpy as np
import pytest

from modeswitch.chains import (
    MixingProfile,
    ReducibleChainError,
    k_step_costs,
    mixing_profile,
    stationary_distribution,
    verify_mixing_bound,
)
from modeswitch.environments import RandomMdpSpec, gen_random_mdp
from modeswitch.mdp import InducedChain, finite_horizon_cost, induced_chain


def two_state_chain(a, b, costs=(1.0, 2.0)):
    return InducedChain(np.array([[1 - a, a], [b, 1 - b]]), np.array(costs))


def cost_to_go_gap(chain, initial_dist, discount, horizon):
    """|horizon-step cost from ``initial_dist`` - the closed-form cost at
    stationarity|."""
    factor = (1.0 - discount**horizon) / (1.0 - discount)
    stationary_cost = factor * float(chain.cost_vec @ stationary_distribution(chain))
    return abs(finite_horizon_cost(chain, initial_dist, horizon, discount) - stationary_cost)


def random_chain(seed, n=5):
    mdp = gen_random_mdp(RandomMdpSpec(n_states=n, seed=seed, change_rate=0.01))
    policy = np.arange(n) % mdp.n_actions
    return induced_chain(policy, mdp.kernel_pre, mdp.stage_cost)


class TestStationaryDistribution:
    def test_single_state(self):
        chain = InducedChain(np.array([[1.0]]), np.array([0.0]))
        assert stationary_distribution(chain).tolist() == [1.0]

    def test_two_state_closed_form(self):
        dist = stationary_distribution(two_state_chain(0.2, 0.3))
        assert np.allclose(dist, [0.6, 0.4], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_power_iteration(self, seed):
        chain = random_chain(seed)
        dist = stationary_distribution(chain)
        mu = np.full(chain.n_states, 1.0 / chain.n_states)
        for _ in range(20000):
            nxt = mu @ chain.transition
            if np.abs(nxt - mu).max() < 1e-16:
                mu = nxt
                break
            mu = nxt
        assert np.abs(dist - mu).max() < 1e-10
        assert np.abs(dist @ chain.transition - dist).sum() <= 1e-10

    def test_two_closed_classes_raise(self):
        chain = InducedChain(np.eye(2), np.zeros(2))
        with pytest.raises(ReducibleChainError):
            stationary_distribution(chain)

    def test_transient_state_is_fine(self):
        # State 1 drains into the absorbing state 0: unichain, not irreducible.
        chain = InducedChain(np.array([[1.0, 0.0], [0.5, 0.5]]), np.zeros(2))
        dist = stationary_distribution(chain)
        assert np.allclose(dist, [1.0, 0.0], atol=1e-12)

    def test_period_two_cycle_still_has_unique_distribution(self):
        chain = InducedChain(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        assert np.allclose(stationary_distribution(chain), [0.5, 0.5], atol=1e-12)


class TestMixingProfile:
    def test_single_absorbing_state(self):
        chain = InducedChain(np.array([[1.0]]), np.array([1.0]))
        profile = mixing_profile(chain, 10, np.ones(1))
        assert np.all(profile.tv_by_step == 0.0)
        assert profile.envelope_b > 0.0

    def test_one_step_mixing_with_uniform_rows(self):
        profile = mixing_profile(two_state_chain(0.5, 0.5), 10, np.full(2, 0.5))
        assert profile.tv_by_step[0] == 0.5
        assert np.all(profile.tv_by_step[1:] == 0.0)

    def test_two_state_spectral_oracle(self):
        a, b, t_max = 0.1, 0.2, 40
        chain = two_state_chain(a, b)
        profile = mixing_profile(chain, t_max, stationary_distribution(chain))
        decay = abs(1.0 - a - b)
        expected = profile.tv_by_step[0] * decay ** np.arange(t_max + 1)
        assert np.abs(profile.tv_by_step - expected).max() < 1e-12
        # Smallest feasible envelope rate given the constant cap d(0) * 1e6.
        beta_inf = decay * 10 ** (-6.0 / t_max)
        assert abs(profile.envelope_beta - beta_inf) <= 1e-6
        steps = np.arange(t_max + 1)
        assert np.all(
            profile.tv_by_step
            <= profile.envelope_b * profile.envelope_beta**steps + 1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_profile_nonincreasing(self, seed):
        chain = random_chain(seed)
        profile = mixing_profile(chain, 100, stationary_distribution(chain))
        assert np.all(np.diff(profile.tv_by_step) <= 1e-12)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            mixing_profile(two_state_chain(0.5, 0.5), 0, np.full(2, 0.5))

    def test_profile_validation_rejects_bad_envelope(self):
        with pytest.raises(ValueError):
            MixingProfile(
                np.array([0.5, 0.4]), envelope_b=0.01, envelope_beta=0.5, stationary=np.full(2, 0.5)
            )


class TestCostToGoGap:
    def test_stationary_start_has_no_gap(self):
        chain = random_chain(2)
        dist = stationary_distribution(chain)
        assert cost_to_go_gap(chain, dist, 0.95, 100) < 1e-9

    def test_zero_horizon(self):
        chain = random_chain(3)
        dist = stationary_distribution(chain)
        assert cost_to_go_gap(chain, dist, 0.95, 0) == 0.0

    def test_matches_propagation_oracle(self):
        chain = random_chain(4)
        point = np.zeros(chain.n_states)
        point[1] = 1.0
        dist = stationary_distribution(chain)
        direct = sum(
            0.95**t
            * float(point @ np.linalg.matrix_power(chain.transition, t) @ chain.cost_vec)
            for t in range(100)
        )
        stationary_part = (1 - 0.95**100) / (1 - 0.95) * float(chain.cost_vec @ dist)
        assert abs(cost_to_go_gap(chain, point, 0.95, 100) - abs(direct - stationary_part)) < 1e-9


class TestKStepCosts:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_forward_propagation(self, seed):
        # Zero terminal: the k-step cost of finite_horizon_cost from each
        # point mass; a terminal adds its discounted k-step expectation.
        chain = random_chain(seed)
        terminal = np.linspace(1.0, 3.0, chain.n_states)
        plain = k_step_costs(chain.transition, chain.cost_vec, 0.95, 40, 0.0)
        tailed = k_step_costs(chain.transition, chain.cost_vec, 0.95, 40, terminal)
        for k in (0, 1, 7, 40):
            power = np.linalg.matrix_power(chain.transition, k)
            for start in range(chain.n_states):
                point = np.eye(chain.n_states)[start]
                direct = finite_horizon_cost(chain, point, k, 0.95)
                assert plain[k, start] == pytest.approx(direct, rel=1e-12, abs=1e-15)
                expected = direct + 0.95**k * float(power[start] @ terminal)
                assert tailed[k, start] == pytest.approx(expected, rel=1e-12)


class TestVerifyMixingBound:
    def test_single_state_zero_gap(self):
        chain = InducedChain(np.array([[1.0]]), np.array([2.0]))
        point = np.array([1.0])
        assert cost_to_go_gap(chain, point, 0.9, 50) < 1e-12
        report = verify_mixing_bound(chain, 0.9, 50, point)
        assert report.min_slack >= -1e-12

    def test_two_state_analytic_chain(self):
        chain = two_state_chain(0.1, 0.2)
        dist = stationary_distribution(chain)
        report = verify_mixing_bound(chain, 0.9, 100, dist)
        assert report.min_slack >= 0.0
        assert report.max_slack >= report.min_slack
        profile = mixing_profile(chain, 100, dist)
        assert np.array_equal(report.profile.tv_by_step, profile.tv_by_step)
        assert report.profile.envelope_beta == profile.envelope_beta
        assert np.array_equal(report.profile.stationary, dist)

    def test_solves_the_stationary_law_once(self, monkeypatch):
        import modeswitch.chains as chains

        calls = []

        def counting(chain):
            calls.append(chain)
            return stationary_distribution(chain)

        monkeypatch.setattr(chains, "stationary_distribution", counting)
        chain = random_chain(1)
        verify_mixing_bound(chain, 0.9, 50, chains.stationary_distribution(chain))
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("discount", (0.9, 0.999))
    def test_random_chains_no_violations(self, seed, discount):
        chain = random_chain(seed)
        report = verify_mixing_bound(chain, discount, 200, stationary_distribution(chain))
        assert report.min_slack >= -1e-12
