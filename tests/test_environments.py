"""Tests for the random-MDP generator and the inventory model."""

import math
import os

import numpy as np
import pytest

from modeswitch.environments import (
    InventorySpec,
    RandomMdpSpec,
    _poisson_pmf_lumped,
    build_inventory,
    gen_random_mdp,
    random_env,
)


class TestRandomMdp:
    def test_reproducible_from_seed(self):
        first = gen_random_mdp(RandomMdpSpec(seed=42, change_rate=0.01))
        second = gen_random_mdp(RandomMdpSpec(seed=42, change_rate=0.01))
        assert np.array_equal(first.kernel_pre, second.kernel_pre)
        assert np.array_equal(first.kernel_post, second.kernel_post)
        assert np.array_equal(first.stage_cost, second.stage_cost)

    def test_rows_are_stochastic(self):
        mdp = gen_random_mdp(RandomMdpSpec(seed=7, change_rate=0.01))
        for kernel in (mdp.kernel_pre, mdp.kernel_post):
            assert np.abs(kernel.sum(axis=2) - 1.0).max() <= 1e-12

    def test_single_action_permutation_is_identity(self):
        mdp = gen_random_mdp(RandomMdpSpec(n_actions=1, seed=5, change_rate=0.01))
        assert np.array_equal(mdp.kernel_pre, mdp.kernel_post)

    def test_action_shift_relation(self):
        # Action 0's pre-change law shows up under action 1 after the change.
        mdp = gen_random_mdp(RandomMdpSpec(seed=9, change_rate=0.01))
        assert np.array_equal(mdp.kernel_post[:, 1, :], mdp.kernel_pre[:, 0, :])
        assert np.array_equal(mdp.kernel_post[:, 2, :], mdp.kernel_pre[:, 1, :])
        assert np.array_equal(mdp.kernel_post[:, 0, :], mdp.kernel_pre[:, 2, :])

    def test_env_wrapper_uniform_start(self):
        env = random_env(RandomMdpSpec(seed=1, change_rate=0.05))
        assert np.allclose(env.initial_dist, 0.2)
        assert env.cost_pre is env.cost_post


class TestPoissonPmf:
    def test_sums_to_one_after_lumping(self):
        pmf = _poisson_pmf_lumped(2.0)
        assert abs(pmf.sum() - 1.0) <= 1e-14
        assert np.all(pmf >= 0.0)

    def test_matches_direct_formula(self):
        pmf = _poisson_pmf_lumped(2.0)
        for w in range(min(8, pmf.size - 1)):
            direct = math.exp(-2.0) * 2.0**w / math.factorial(w)
            assert pmf[w] == pytest.approx(direct, rel=1e-12)


class TestBuildInventory:
    def test_vanishing_demand_keeps_empty_stock_free(self):
        spec = InventorySpec(capacity=4, demand_rate=1e-12)
        env = build_inventory(spec)
        assert env.mdp.kernel_pre[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
        assert env.cost_pre[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_uniform_demand_row_matches_enumeration(self):
        spec = InventorySpec(capacity=6, shortfall_cost=50.0)
        env = build_inventory(spec)
        n = spec.capacity + 1
        # Post-change demand is uniform on {0..capacity}; enumerate it directly.
        expected = np.zeros(n)
        for w in range(n):
            expected[max(0, spec.capacity - w)] += 1.0 / n
        assert np.allclose(env.mdp.kernel_post[spec.capacity, 0], expected, atol=1e-14)

    def test_rows_stochastic_and_capacity_respected(self):
        env = build_inventory(InventorySpec(capacity=5))
        for kernel in (env.mdp.kernel_pre, env.mdp.kernel_post):
            assert np.abs(kernel.sum(axis=2) - 1.0).max() <= 1e-12
        # No mass can land above the post-order fill level.
        for stock in range(6):
            for order in range(6):
                filled = min(stock + order, 5)
                assert env.mdp.kernel_pre[stock, order, filled + 1 :].sum() == 0.0

    def test_cost_reduces_to_stock_term(self):
        spec = InventorySpec(capacity=4, holding_cost=0.0, shortfall_cost=0.0)
        env = build_inventory(spec)
        for stock in range(5):
            for order in range(5):
                assert env.cost_pre[stock, order] == pytest.approx(float(stock))

    def test_order_basis_charges_units_ordered(self):
        spec = InventorySpec(
            capacity=4, holding_cost=0.0, shortfall_cost=0.0, order_cost_basis="order"
        )
        env = build_inventory(spec)
        for stock in range(5):
            for order in range(5):
                assert env.cost_pre[stock, order] == pytest.approx(float(order))

    def test_vanishing_demand_cost_is_stock_plus_holding(self):
        spec = InventorySpec(capacity=4, demand_rate=1e-12)
        env = build_inventory(spec)
        for stock in range(5):
            for order in range(5):
                filled = min(stock + order, 4)
                expected = 1.0 * stock + 5.0 * filled
                assert env.cost_pre[stock, order] == pytest.approx(expected, abs=1e-9)

    def test_expected_cost_matches_direct_summation(self):
        spec = InventorySpec(capacity=6, shortfall_cost=100.0)
        pmf = _poisson_pmf_lumped(spec.demand_rate)
        policy = np.array([3, 2, 2, 1, 0, 0, 0])
        stock = 2
        cost = build_inventory(spec).cost_pre[stock, policy[stock]]
        filled = min(stock + policy[stock], spec.capacity)
        direct = sum(
            q
            * (
                spec.order_cost * stock
                + spec.holding_cost * max(filled - w, 0)
                + spec.shortfall_cost * max(w - filled, 0)
            )
            for w, q in enumerate(pmf)
        )
        assert cost == pytest.approx(direct, rel=1e-12)

    def test_mode_dependent_costs_differ(self):
        env = build_inventory(InventorySpec(capacity=5))
        assert not np.allclose(env.cost_pre, env.cost_post)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InventorySpec(capacity=0)
        with pytest.raises(ValueError):
            InventorySpec(order_cost_basis="per-unit")
        with pytest.raises(ValueError):
            InventorySpec(demand_rate=0.0)
        with pytest.raises(ValueError, match="unit costs must be nonnegative"):
            InventorySpec(holding_cost=-1.0)


class TestKernelSizing:
    def test_specs_are_refused_before_their_kernels_exist(self, monkeypatch):
        # The byte count is what building the environment really holds: two
        # float64 kernels, plus one bool per entry while each is checked.
        env = random_env(RandomMdpSpec(n_states=60))
        kernels = env.mdp.kernel_pre
        needed = 2 * kernels.nbytes + kernels.size
        pages = {"SC_PHYS_PAGES": 4, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        limit = "more than the 16384 bytes of physical memory"
        with pytest.raises(ValueError) as refused:
            RandomMdpSpec(n_states=60)
        assert str(refused.value) == (
            f"kernels of 60 states x 3 actions need {needed} bytes, {limit}"
        )
        with pytest.raises(ValueError) as refused:
            InventorySpec(capacity=10)
        assert str(refused.value) == f"kernels of 11 states x 11 actions need 22627 bytes, {limit}"
        # 5 states x 3 actions need 1275 bytes.
        RandomMdpSpec()
