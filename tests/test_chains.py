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


def criterion_7_chains(seeds=VALID_SEEDS):
    """The induced chains acceptance criterion 7 checks: both mode-optimal
    policies under both kernels of each valid random instance, in
    ``MODE_PAIRS`` order."""
    for seed in seeds:
        mdp = gen_random_mdp(RandomMdpSpec(seed=seed, change_rate=0.01))
        policies = [
            value_iteration(kernel, mdp.stage_cost, mdp.discount)[0]
            for kernel in (mdp.kernel_pre, mdp.kernel_post)
        ]
        for policy in policies:
            for kernel in (mdp.kernel_pre, mdp.kernel_post):
                yield induced_chain(policy, kernel, mdp.stage_cost)


def lemma_envelope(chain, t_max, discount):
    """Reference: ``dbar(m)``, the largest TV distance between two rows of
    ``np.linalg.matrix_power(P, m)``, for every ``m <= t_max``, and the
    lemma's ``(b / (1 - discount*beta), b, beta)`` at each ``m`` with
    ``dbar(m) < 1``: ``beta = max(dbar(m) ** (1/m), 1e-6)``,
    ``b = beta ** (1 - m)``."""
    envelopes = []
    for m in range(1, t_max + 1):
        power = np.linalg.matrix_power(chain.transition, m)
        dbar = 0.5 * float(np.abs(power[:, None, :] - power[None, :, :]).sum(axis=2).max())
        if dbar < 1.0:
            beta = max(dbar ** (1.0 / m), 1e-6)
            with np.errstate(over="ignore"):
                b = float(np.float64(beta) ** (1 - m))
            envelopes.append((b / (1.0 - discount * beta), b, beta))
    return envelopes


def per_horizon_check(chain, discount, k_max, stationary, profile):
    """Reference: the cost-gap check one horizon at a time, on ``profile``.
    Returns ``(max_slack, min_slack)`` or raises :class:`MixingBoundError`."""
    cost_inf = float(np.max(np.abs(chain.cost_vec)))
    stationary_cost = float(chain.cost_vec @ stationary)
    costs = chains_module.k_step_costs(chain.transition, chain.cost_vec, discount, k_max)
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
        profile = mixing_profile(chain, 10, np.ones(1), 0.9)
        assert np.all(profile.tv_by_step == 0.0)
        assert profile.envelope_b > 0.0

    def test_one_step_mixing_with_uniform_rows(self):
        profile = mixing_profile(two_state_chain(0.5, 0.5), 10, np.full(2, 0.5), 0.9)
        assert profile.tv_by_step[0] == 0.5
        assert np.all(profile.tv_by_step[1:] == 0.0)

    def test_two_state_spectral_oracle(self):
        a, b, t_max = 0.1, 0.2, 40
        chain = two_state_chain(a, b)
        profile = mixing_profile(chain, t_max, stationary_distribution(chain), 0.9)
        decay = abs(1.0 - a - b)
        expected = profile.tv_by_step[0] * decay ** np.arange(t_max + 1)
        assert np.abs(profile.tv_by_step - expected).max() < 1e-12
        # dbar(m) = decay**m, so every m gives beta = decay and b =
        # decay**(1 - m); m = 1 has the smallest b, 1.
        assert profile.envelope_b == 1.0
        assert abs(profile.envelope_beta - decay) < 1e-15
        steps = np.arange(t_max + 1)
        assert np.all(profile.tv_by_step <= profile.envelope_beta**steps + 1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_profile_nonincreasing(self, seed):
        chain = random_chain(seed)
        profile = mixing_profile(chain, 100, stationary_distribution(chain), 0.9)
        assert np.all(np.diff(profile.tv_by_step) <= 1e-12)

    @pytest.mark.parametrize("source", ("random", "lazy"))
    def test_envelope_is_the_lemmas_best(self, source):
        rng = np.random.default_rng(17)
        cases = (
            [(random_chain(seed), 60, 0.999) for seed in range(10)]
            if source == "random"
            else [(lazy_chain(rng), int(rng.integers(10, 121)), 0.999) for _ in range(30)]
            + [(lazy_chain(rng), 60, 0.9) for _ in range(10)]
        )
        for chain, t_max, discount in cases:
            profile = mixing_profile(chain, t_max, stationary_distribution(chain), discount)
            b, beta = profile.envelope_b, profile.envelope_beta
            envelopes = lemma_envelope(chain, t_max, discount)
            # (b, beta) is the lemma's at some m, and no m's limit of the
            # cost-gap bound is smaller, up to the rounding of the powers.
            assert any(
                abs(b - b_m) <= 1e-9 * b_m and abs(beta - beta_m) <= 1e-9
                for _, b_m, beta_m in envelopes
            ), (t_max, b, beta)
            assert b / (1.0 - discount * beta) <= min(envelopes)[0] * (1.0 + 1e-9)
            dist = stationary_distribution(chain)
            steps = np.arange(t_max + 1)
            tv = [
                0.5 * np.abs(np.linalg.matrix_power(chain.transition, t) - dist).sum(axis=1).max()
                for t in steps
            ]
            assert np.all(tv <= b * beta**steps + 1e-12)

    def test_periodic_chain_is_not_shown_to_mix(self):
        chain = InducedChain(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="chain not shown to mix: .* m <= 50$"):
            mixing_profile(chain, 50, stationary_distribution(chain), 0.9)
        with pytest.raises(ValueError, match="chain not shown to mix"):
            verify_mixing_bound(chain, 0.9, 50, stationary_distribution(chain))

    def test_readme_envelopes_are_tight(self):
        # The README config (seed 10, rho 0.01, mixing_k_max 200): each
        # chain takes m = 1, so beta = dbar(1), below 1, and the envelope's
        # largest slack stays within a small factor of the largest cost gap.
        discount = 0.999
        for chain in criterion_7_chains(seeds=(10,)):
            dist = stationary_distribution(chain)
            report = verify_mixing_bound(chain, discount, 200, dist)
            assert report.profile.envelope_b == 1.0
            assert report.profile.envelope_beta < 0.51
            costs = k_step_costs(chain.transition, chain.cost_vec, discount, 200)
            factors = (1.0 - discount ** np.arange(201.0)) / (1.0 - discount)
            largest_gap = np.abs(costs - factors[:, None] * float(chain.cost_vec @ dist)).max()
            assert 0.0 <= report.min_slack <= report.max_slack <= 10.0 * largest_gap

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            mixing_profile(two_state_chain(0.5, 0.5), 0, np.full(2, 0.5), 0.9)

    def test_profile_validation_rejects_bad_envelope(self):
        with pytest.raises(ValueError):
            MixingProfile(
                np.array([0.5, 0.4]), envelope_b=0.01, envelope_beta=0.5
            )

    @pytest.mark.parametrize(
        ("tv", "b", "beta", "message"),
        [
            ([1.5, 0.2], 2.0, 0.5, r"lie in \[0, 1\]"),
            ([0.5, -0.1], 1.0, 0.5, r"lie in \[0, 1\]"),
            ([0.2, 0.4], 1.0, 0.5, "nonincreasing"),
            ([0.5, 0.4], 0.0, 0.5, "b > 0"),
            ([0.5, 0.4], 1.0, 0.0, "beta in"),
            ([0.5, 0.4], 1.0, 1.0, "beta in"),
        ],
        ids=["above-one", "negative", "rising", "zero-b", "zero-beta", "unit-beta"],
    )
    def test_profile_validation_rejects_bad_profiles(self, tv, b, beta, message):
        with pytest.raises(ValueError, match=message):
            MixingProfile(np.array(tv), envelope_b=b, envelope_beta=beta)


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
        # Row k is the k-step cost of finite_horizon_cost from each point mass.
        chain = random_chain(seed)
        costs = k_step_costs(chain.transition, chain.cost_vec, 0.95, 40)
        for k in (0, 1, 7, 40):
            for start in range(chain.n_states):
                point = np.eye(chain.n_states)[start]
                direct = finite_horizon_cost(chain, point, k, 0.95)
                assert costs[k, start] == pytest.approx(direct, rel=1e-12, abs=1e-15)


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
        profile = mixing_profile(chain, 100, dist, 0.9)
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
        profile = mixing_profile(chain, 200, dist, 0.9)
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
        profile = mixing_profile(chain, 200, dist, 0.9)
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
