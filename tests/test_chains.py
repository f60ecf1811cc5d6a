"""Tests for stationary analysis, mixing profiles, and the cost-gap bound."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import modeswitch.chains as chains_module
from modeswitch.chains import (
    MixingBoundError,
    MixingProfile,
    ReducibleChainError,
    k_step_costs,
    mixing_profile,
    stationary_distribution,
    verify_mixing_bound,
)
from modeswitch.environments import RandomMdpSpec, gen_random_mdp
from modeswitch.mdp import InducedChain, finite_horizon_cost, induced_chain, value_iteration

from conftest import VALID_SEEDS


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


def lazy_chain(rng):
    """A chain on 2-6 states whose laziness spreads mixing from one step to
    hundreds."""
    n = int(rng.integers(2, 7))
    rows = rng.random((n, n)) ** 3
    rows /= rows.sum(axis=1, keepdims=True)
    lazy = rng.uniform(0.0, 0.99)
    return InducedChain(lazy * np.eye(n) + (1.0 - lazy) * rows, rng.random(n))


def criterion_7_chains():
    """The induced chains acceptance criterion 7 checks: both mode-optimal
    policies under both kernels of each valid random instance."""
    for seed in VALID_SEEDS:
        mdp = gen_random_mdp(RandomMdpSpec(seed=seed, change_rate=0.01))
        policies = [
            value_iteration(kernel, mdp.stage_cost, mdp.discount)[0]
            for kernel in (mdp.kernel_pre, mdp.kernel_post)
        ]
        for policy in policies:
            for kernel in (mdp.kernel_pre, mdp.kernel_post):
                yield induced_chain(policy, kernel, mdp.stage_cost)


def bisection_constant(tv, beta):
    """``max_t tv[t] / beta**t`` over the positive entries, inf past e**700."""
    steps = np.flatnonzero(tv > 0.0)
    peak = float(np.max(np.log(tv[steps]) - steps * math.log(beta)))
    return math.exp(peak) if peak < 700.0 else math.inf


def bisection_envelope_rate(tv):
    """Reference: the smallest beta whose constant stays within tv[0] * 1e6,
    bracketed by bisection to 1e-7 (the fit's former search)."""
    cap = float(tv[0]) * 1e6
    lo, hi = 1e-6, 1.0 - 1e-9
    if bisection_constant(tv, lo) <= cap:
        return lo
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if bisection_constant(tv, mid) <= cap:
            hi = mid
        else:
            lo = mid
    return hi


def per_horizon_check(chain, discount, k_max, stationary, profile):
    """Reference: the cost-gap check one horizon at a time, on ``profile``.
    Returns ``(max_slack, min_slack)`` or raises :class:`MixingBoundError`."""
    cost_inf = float(np.max(np.abs(chain.cost_vec)))
    stationary_cost = float(chain.cost_vec @ stationary)
    costs = chains_module.k_step_costs(chain.transition, chain.cost_vec, discount, k_max, 0.0)
    stepwise = np.zeros(k_max + 1)
    geom = discount ** np.arange(k_max)
    stepwise[1:] = 2.0 * cost_inf * np.cumsum(geom * profile.tv_by_step[:-1])
    rate = discount * profile.envelope_beta
    ks = np.arange(k_max + 1)
    envelope = 2.0 * cost_inf * profile.envelope_b * (1.0 - rate**ks) / (1.0 - rate)
    atol = 1e-9 * max(1.0, cost_inf / (1.0 - discount))
    max_slack = -math.inf
    min_slack = math.inf
    for k in range(1, k_max + 1):
        factor = (1.0 - discount**k) / (1.0 - discount)
        gaps = np.abs(costs[k] - factor * stationary_cost)
        worst = int(np.argmax(gaps))
        if gaps[worst] > stepwise[k] + atol:
            raise MixingBoundError(
                f"stepwise cost-gap bound violated at state {worst}, horizon {k}: "
                f"gap {gaps[worst]:.6e} > bound {stepwise[k]:.6e}"
            )
        if gaps[worst] > envelope[k] + atol:
            raise MixingBoundError(
                f"envelope cost-gap bound violated at state {worst}, horizon {k}: "
                f"gap {gaps[worst]:.6e} > bound {envelope[k]:.6e}"
            )
        slack = envelope[k] - gaps
        max_slack = max(max_slack, float(slack.max()))
        min_slack = min(min_slack, float(slack.min()))
    return max_slack, min_slack


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

    def test_envelope_rate_is_the_bisection_limit(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            chain = lazy_chain(rng)
            t_max = int(rng.integers(10, 201))
            profile = mixing_profile(chain, t_max, stationary_distribution(chain))
            tv, beta = profile.tv_by_step, profile.envelope_beta
            reference = bisection_envelope_rate(tv)
            assert beta <= reference <= beta + 1e-7, (t_max, beta, reference)
            if 1e-6 < beta < 1.0 - 1e-9:
                # Smallest feasible: any lower rate breaks the cap.
                assert bisection_constant(tv, beta * (1.0 - 1e-9)) > tv[0] * 1e6

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            mixing_profile(two_state_chain(0.5, 0.5), 0, np.full(2, 0.5))

    def test_profile_validation_rejects_bad_envelope(self):
        with pytest.raises(ValueError):
            MixingProfile(
                np.array([0.5, 0.4]), envelope_b=0.01, envelope_beta=0.5
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

    @pytest.mark.parametrize("discount", (0.9, 0.999))
    @pytest.mark.parametrize("source", ("random", "criterion-7"))
    def test_array_pass_matches_per_horizon_loop(self, source, discount):
        chains = criterion_7_chains() if source == "criterion-7" else map(random_chain, range(10))
        for chain in chains:
            dist = stationary_distribution(chain)
            report = verify_mixing_bound(chain, discount, 200, dist)
            expected = per_horizon_check(chain, discount, 200, dist, report.profile)
            assert (report.max_slack, report.min_slack) == expected

    @pytest.mark.parametrize(
        "bumps",
        [{(7, 2): 100.0}, {(30, 0): 100.0, (4, 3): -100.0}, {(200, 4): 100.0}, {(1, 1): 100.0}],
        ids=["one-horizon", "earliest-horizon-first", "last-horizon", "first-horizon"],
    )
    def test_forced_violation_reports_the_per_horizon_message(self, monkeypatch, bumps):
        def bumped(*args):
            costs = k_step_costs(*args)
            for (k, state), extra in bumps.items():
                costs[k, state] += extra
            return costs

        monkeypatch.setattr(chains_module, "k_step_costs", bumped)
        chain = random_chain(3)
        dist = stationary_distribution(chain)
        profile = mixing_profile(chain, 200, dist)
        with pytest.raises(MixingBoundError) as expected:
            per_horizon_check(chain, 0.9, 200, dist, profile)
        with pytest.raises(MixingBoundError) as got:
            verify_mixing_bound(chain, 0.9, 200, dist)
        assert str(got.value) == str(expected.value)

    def test_envelope_violation_reports_the_per_horizon_message(self, monkeypatch):
        # An envelope below the profile, which MixingProfile itself rejects,
        # breaks the envelope bound and not the stepwise one.
        chain = random_chain(3)
        dist = stationary_distribution(chain)
        profile = mixing_profile(chain, 200, dist)
        shrunk = SimpleNamespace(
            tv_by_step=profile.tv_by_step,
            envelope_b=profile.envelope_b * 1e-9,
            envelope_beta=profile.envelope_beta,
        )
        monkeypatch.setattr(chains_module, "mixing_profile", lambda *args: shrunk)
        with pytest.raises(MixingBoundError, match="^envelope ") as expected:
            per_horizon_check(chain, 0.9, 200, dist, shrunk)
        with pytest.raises(MixingBoundError) as got:
            verify_mixing_bound(chain, 0.9, 200, dist)
        assert str(got.value) == str(expected.value)
