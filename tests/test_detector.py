"""Tests for belief filtering and the optimal-stopping solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeswitch.detector import (
    DEFAULT_FP_TOL,
    BeliefDynamics,
    BeliefGrid,
    BeliefOperator,
    BeliefValueTable,
    DivergenceError,
    ImpossibleTransitionError,
    ThresholdStructureError,
    _iterate,
    bayes_step,
    belief_update,
    evaluate_switch_rule,
    extract_thresholds,
    finite_horizon_dp,
    solve_fixed_point,
    stop_cost_table,
)
from modeswitch.environments import InventorySpec, RandomMdpSpec, build_inventory, random_env
from modeswitch.mdp import ConvergenceError
from modeswitch.pipeline import solve_env
from conftest import (
    CANONICAL_SEED,
    TABLE1_RHOS,
    VALID_SEEDS,
    make_positive_dyn,
    solve_random_cached,
)


def naive_bellman_apply(table, dyn, weight):
    """Loop-and-interp re-implementation used as an independent oracle."""
    grid = table.grid
    out = np.empty_like(table.values)
    for i, p in enumerate(grid.points):
        drifted = p + dyn.change_rate * (1.0 - p)
        for state in range(dyn.n_states):
            changed = drifted * dyn.kernel_post[state]
            mix = changed + (1.0 - drifted) * dyn.kernel_pre[state]
            acc = 0.0
            for nxt in range(dyn.n_states):
                if mix[nxt] > 0.0:
                    updated = changed[nxt] / mix[nxt]
                    acc += mix[nxt] * np.interp(updated, grid.points, table.values[:, nxt])
            out[i, state] = min(weight * (1.0 - p), p + acc)
    return out


def sparse_kernel(rng, n_states):
    """Random stochastic rows with about 40% zeros and at least one positive entry."""
    kernel = rng.random((n_states, n_states)) * (rng.random((n_states, n_states)) < 0.6)
    kernel[np.arange(n_states), rng.integers(0, n_states, n_states)] += 0.1
    return kernel / kernel.sum(axis=1, keepdims=True)


def mixed_support_dyn(rng, n_states, rate):
    """Sparse kernel pair whose rows reach different numbers of states: row 0
    reaches every state, the last row exactly one under both kernels, and the
    rows between random subsets (one-sided zeros included)."""
    pre, post = sparse_kernel(rng, n_states), sparse_kernel(rng, n_states)
    pre[0] = rng.random(n_states) + 0.05
    pre[0] /= pre[0].sum()
    pre[-1] = post[-1] = np.eye(n_states)[rng.integers(0, n_states)]
    return BeliefDynamics(pre, post, rate)


def dense_continuation(dyn, grid, values):
    """The documented stencil summed over every next state, possible or not:
    mix * ((1 - blend) * v[lower, x'] + blend * v[lower + 1, x'])."""
    points = grid.points[:, None, None]
    drifted = points + dyn.change_rate * (1.0 - points)
    changed = drifted * dyn.kernel_post[None]
    mix = changed + (1.0 - drifted) * dyn.kernel_pre[None]
    updated = np.where(mix > 0.0, changed / np.where(mix > 0.0, mix, 1.0), 1.0)
    position = updated * (grid.size - 1)
    lower = np.minimum(position.astype(np.intp), grid.size - 2)
    blend = position - lower
    nxt = np.arange(dyn.n_states)
    terms = np.concatenate(
        [mix * (1.0 - blend) * values[lower, nxt], mix * blend * values[lower + 1, nxt]], axis=2
    )
    return np.array([[math.fsum(row) for row in cell] for cell in terms])


class TestBeliefGrid:
    def test_uniform_construction(self):
        grid = BeliefGrid.uniform(11)
        assert grid.size == 11
        assert grid.points[0] == 0.0 and grid.points[-1] == 1.0
        assert grid.spacing == pytest.approx(0.1)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            BeliefGrid(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            BeliefGrid(np.array([0.0, 0.7, 1.0]))
        with pytest.raises(ValueError):
            BeliefGrid(np.array([1.0]))
        with pytest.raises(ValueError):
            BeliefGrid(np.array([0.0, np.nan, 1.0]))

    @pytest.mark.parametrize("size", [2, 3, 11, 51, 1000])
    def test_locate_matches_the_knot_search(self, size):
        grid = BeliefGrid.uniform(size)
        points = grid.points
        beliefs = np.concatenate(
            [
                points,
                np.nextafter(points[1:], 0.0),
                np.nextafter(points[:-1], 1.0),
                np.random.default_rng(size).random(200),
            ]
        )
        lower, blend = grid.locate(beliefs)
        assert lower.dtype == np.intp
        assert np.all((blend >= 0.0) & (blend <= 1.0))
        eps = np.finfo(float).eps
        rebuilt = (1.0 - blend) * points[lower] + blend * points[lower + 1]
        assert np.allclose(rebuilt, beliefs, rtol=0.0, atol=2 * eps)
        # The reference cell, except where rounding b*(size - 1) puts a belief
        # within an ulp of a knot (at size 1000, 58 knots themselves) at the
        # far end of the neighbouring cell, which interpolates the same value.
        expected = np.minimum(np.searchsorted(points, beliefs, side="right") - 1, size - 2)
        moved = lower != expected
        up = moved & (lower == expected + 1)
        down = moved & (lower == expected - 1)
        assert np.array_equal(moved, up | down)
        assert np.all(blend[up] == 0.0)
        assert np.all(blend[down] >= 1.0 - 2 * eps * (size - 1))  # an ulp of the position
        shared = points[np.maximum(lower, expected)[moved]]
        assert np.all(np.abs(beliefs[moved] - shared) <= eps)
        assert not moved[-200:].any()
        top_lower, top_blend = grid.locate(np.array([0.0, 1.0]))
        assert top_lower.tolist() == [0, size - 2] and top_blend.tolist() == [0.0, 1.0]


class TestBeliefDynamics:
    @pytest.mark.parametrize(
        ("pre", "post", "rate", "message"),
        [
            (np.full((2, 3), 0.5), np.full((2, 3), 0.5), 0.1, "kernel_pre must be square"),
            (np.full(2, 0.5), np.full(2, 0.5), 0.1, "kernel_pre must be square"),
            (np.eye(2), np.eye(3), 0.1, "kernel shapes must match"),
            (np.eye(2), np.eye(2), 0.0, r"change_rate must lie in \(0, 1\), got 0.0"),
            (np.eye(2), np.eye(2), 1.0, r"change_rate must lie in \(0, 1\), got 1.0"),
        ],
        ids=["not-square", "one-dimensional", "shapes-differ", "rate-zero", "rate-one"],
    )
    def test_rejects_bad_dynamics(self, pre, post, rate, message):
        with pytest.raises(ValueError, match=message):
            BeliefDynamics(pre, post, rate)


class TestBeliefValueTable:
    @pytest.mark.parametrize("shape", [(20, 3), (21,), (21, 3, 1)])
    def test_rejects_values_that_do_not_fit_the_grid(self, shape):
        with pytest.raises(ValueError, match=r"values must have shape \(grid size, n_states\)"):
            BeliefValueTable(BeliefGrid.uniform(21), np.zeros(shape))


class TestBeliefValueTableAt:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_column_interp_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        size, n_states = int(rng.integers(2, 60)), int(rng.integers(1, 6))
        table = BeliefValueTable(BeliefGrid.uniform(size), rng.normal(size=(size, n_states)))
        beliefs = np.concatenate([rng.random(300), table.grid.points, [0.0, 1.0]])
        got = table.at(beliefs)
        assert got.shape == (beliefs.size, n_states)
        for state in range(n_states):
            expected = np.interp(beliefs, table.grid.points, table.values[:, state])
            assert np.array_equal(got[:, state], expected)


def predictive_law(dyn, state, belief):
    """The filter's next-state law from ``state`` at ``belief``."""
    return bayes_step(belief, dyn.kernel_pre[state], dyn.kernel_post[state], dyn.change_rate)[1]


class TestBayesStep:
    def test_hand_arithmetic_on_arrays(self):
        belief = np.array([0.3, 0.3, 0.0])
        pre = np.array([0.5, 0.4, 0.5])
        post = np.array([0.25, 0.9, 0.5])
        posterior, mass = bayes_step(belief, pre, post, 0.1)
        drifted = np.array([0.37, 0.37, 0.1])
        expected_mass = drifted * post + (1.0 - drifted) * pre
        assert np.allclose(mass, expected_mass, rtol=0.0, atol=1e-15)
        assert np.allclose(posterior, drifted * post / expected_mass, rtol=0.0, atol=1e-15)
        assert posterior[0] == pytest.approx(0.2269938650306749, abs=1e-12)
        assert posterior[2] == pytest.approx(0.1, abs=1e-15)

    def test_one_sided_zeros_are_exact(self):
        posterior, mass = bayes_step(
            np.full(2, 0.5), np.array([0.0, 1.0]), np.array([0.6, 0.0]), 0.2
        )
        assert posterior.tolist() == [1.0, 0.0]
        assert np.all(mass > 0.0)

    def test_zero_predictive_mass_gives_one(self):
        # Belief 1 and a transition impossible after the change; a transition
        # impossible under both kernels.
        posterior, mass = bayes_step(
            np.array([1.0, 0.4]), np.array([0.3, 0.0]), np.array([0.0, 0.0]), 0.2
        )
        assert mass.tolist() == [0.0, 0.0]
        assert posterior.tolist() == [1.0, 1.0]

    def test_scalar_callers_read_its_entries_bit_for_bit(self):
        dyn = mixed_support_dyn(np.random.default_rng(3), 4, 0.07)
        for state in range(dyn.n_states):
            for belief in (0.0, 0.3, 0.71, 1.0):
                posterior, mass = bayes_step(
                    belief, dyn.kernel_pre[state], dyn.kernel_post[state], dyn.change_rate
                )
                drifted = belief + dyn.change_rate * (1.0 - belief)
                law = drifted * dyn.kernel_post[state] + (1.0 - drifted) * dyn.kernel_pre[state]
                assert mass.tobytes() == law.tobytes()
                for nxt in np.flatnonzero(mass > 0.0):
                    assert belief_update(dyn, state, nxt, belief) == posterior[nxt]
                    alone = bayes_step(
                        belief, dyn.kernel_pre[state, nxt], dyn.kernel_post[state, nxt],
                        dyn.change_rate,
                    )
                    assert (float(alone[0]), float(alone[1])) == (posterior[nxt], mass[nxt])


class TestBeliefUpdate:
    def test_certain_change_is_absorbing(self):
        dyn = make_positive_dyn(0)
        for state in range(3):
            for nxt in range(3):
                assert belief_update(dyn, state, nxt, 1.0) == 1.0

    def test_uninformative_transition_returns_prior_drift(self):
        pre = np.array([[0.5, 0.5], [0.5, 0.5]])
        dyn = BeliefDynamics(pre, pre.copy(), 0.3)
        assert belief_update(dyn, 0, 1, 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_direct_bayes_arithmetic(self):
        pre = np.array([[0.5, 0.5], [0.4, 0.6]])
        post = np.array([[0.25, 0.75], [0.9, 0.1]])
        dyn = BeliefDynamics(pre, post, 0.1)
        drifted = 0.3 + 0.1 * 0.7
        expected = drifted * 0.25 / (drifted * 0.25 + (1 - drifted) * 0.5)
        assert belief_update(dyn, 0, 0, 0.3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2269938650306749, abs=1e-12)

    def test_one_sided_zero_probabilities(self):
        pre = np.array([[0.0, 1.0], [1.0, 0.0]])
        post = np.array([[0.6, 0.4], [0.0, 1.0]])
        dyn = BeliefDynamics(pre, post, 0.2)
        assert belief_update(dyn, 0, 0, 0.5) == 1.0  # impossible before the change
        assert belief_update(dyn, 1, 0, 0.5) == 0.0  # impossible after the change

    def test_impossible_under_both_kernels(self):
        pre = np.array([[1.0, 0.0], [0.5, 0.5]])
        post = np.array([[1.0, 0.0], [0.5, 0.5]])
        dyn = BeliefDynamics(pre, post, 0.2)
        with pytest.raises(ImpossibleTransitionError):
            belief_update(dyn, 0, 1, 0.5)

    @given(
        p_lo=st.floats(0.0, 1.0),
        p_hi=st.floats(0.0, 1.0),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_belief(self, p_lo, p_hi, seed):
        if p_lo > p_hi:
            p_lo, p_hi = p_hi, p_lo
        dyn = make_positive_dyn(seed)
        for state in range(3):
            for nxt in range(3):
                lo = belief_update(dyn, state, nxt, p_lo)
                hi = belief_update(dyn, state, nxt, p_hi)
                assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
                assert lo <= hi + 1e-12


class TestMixtureTransition:
    def test_certain_change_gives_post_row(self):
        dyn = make_positive_dyn(1)
        assert np.allclose(predictive_law(dyn, 0, 1.0), dyn.kernel_post[0], atol=1e-15)

    def test_blend_arithmetic(self):
        dyn = make_positive_dyn(2, rate=0.2)
        expected = 0.4 * dyn.kernel_pre[1] + 0.6 * dyn.kernel_post[1]
        assert np.allclose(predictive_law(dyn, 1, 0.5), expected, atol=1e-15)

    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_expected_posterior_identity(self, p, seed):
        dyn = make_positive_dyn(seed)
        drift = p + dyn.change_rate * (1.0 - p)
        for state in range(3):
            mix = predictive_law(dyn, state, p)
            total = sum(
                mix[nxt] * belief_update(dyn, state, nxt, p) for nxt in range(3)
            )
            assert abs(total - drift) <= 1e-12


class TestBellmanApply:
    def test_one_application_to_stop_payoff_is_affine(self):
        dyn = make_positive_dyn(3, rate=0.07)
        grid = BeliefGrid.uniform(50)
        weight = 6.0
        operator = BeliefOperator(dyn, grid)
        table = stop_cost_table(grid, weight, dyn.n_states)
        cont = operator.continuation(table.values)
        expected = weight * (1.0 - dyn.change_rate) * (1.0 - grid.points)
        assert np.abs(cont - expected[:, None]).max() <= 1e-12
        applied = operator.stepper(weight)(table.values)
        target = np.minimum(
            weight * (1.0 - grid.points), grid.points + expected
        )
        assert np.abs(applied - target[:, None]).max() <= 1e-12
        assert np.all(applied[-1] == 0.0)

    def test_matches_naive_oracle(self):
        dyn = make_positive_dyn(4, rate=0.1)
        grid = BeliefGrid.uniform(11)
        operator = BeliefOperator(dyn, grid)
        table = stop_cost_table(grid, 4.0, dyn.n_states)
        for _ in range(3):
            vectorized = BeliefValueTable(grid, operator.stepper(4.0)(table.values))
            oracle = naive_bellman_apply(table, dyn, 4.0)
            assert np.abs(vectorized.values - oracle).max() <= 1e-12
            table = vectorized

    def test_apply_with_sparse_kernels(self):
        pre = np.array([[0.0, 1.0], [1.0, 0.0]])
        post = np.array([[0.5, 0.5], [0.0, 1.0]])
        dyn = BeliefDynamics(pre, post, 0.1)
        grid = BeliefGrid.uniform(21)
        table = stop_cost_table(grid, 3.0, 2)
        vectorized = BeliefOperator(dyn, grid).stepper(3.0)(table.values)
        oracle = naive_bellman_apply(table, dyn, 3.0)
        assert np.abs(vectorized - oracle).max() <= 1e-12


class TestBeliefOperator:
    @pytest.mark.parametrize("grid_size", [2, 3, 21])
    def test_apply_matches_naive_oracle_with_one_sided_zeros(self, grid_size):
        # Row 0 and 1 each hold a transition impossible only before and one
        # impossible only after the change; row 2 one impossible under both.
        pre = np.array([[0.0, 0.7, 0.3], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]])
        post = np.array([[0.4, 0.0, 0.6], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        dyn = BeliefDynamics(pre, post, 0.1)
        grid = BeliefGrid.uniform(grid_size)
        operator = BeliefOperator(dyn, grid)
        rng = np.random.default_rng(grid_size)
        values = rng.uniform(0.0, 4.0, (grid_size, 3))
        for _ in range(3):
            applied = operator.stepper(4.0)(values)
            oracle = naive_bellman_apply(BeliefValueTable(grid, values), dyn, 4.0)
            assert np.abs(applied - oracle).max() <= 1e-12
            values = applied

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 4),
        grid_size=st.integers(2, 12),
        rate=st.floats(0.001, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_apply_is_exactly_monotone(self, seed, n_states, grid_size, rate):
        rng = np.random.default_rng(seed)
        dyn = mixed_support_dyn(rng, n_states, rate)
        operator = BeliefOperator(dyn, BeliefGrid.uniform(grid_size))
        # Row 0 and the last row differ in support size: several stencil blocks.
        assert n_states == 1 or len(operator.blocks) > 1
        weight = rng.uniform(0.0, 20.0)
        low = rng.uniform(-5.0, 20.0, (grid_size, n_states))
        # Leave entries alone, raise them by one ulp, or raise them by up to 1.
        bump = rng.integers(0, 3, low.shape)
        high = np.where(bump == 1, np.nextafter(low, np.inf), low)
        high = np.where(bump == 2, low + rng.random(low.shape), high)
        step = operator.stepper(weight)
        assert np.all(step(low) <= step(high))

        # The cone [0, weight*(1-p)] maps into itself exactly: every stencil
        # weight is nonnegative and the stop payoff caps each cell.
        points = operator.grid.points
        stop = weight * (1.0 - points)[:, None]
        inside = rng.random(low.shape) * stop
        applied = step(inside)
        assert np.all(applied >= 0.0) and np.all(applied <= stop)

        for state, nxt in zip(*np.nonzero((dyn.kernel_pre > 0.0) | (dyn.kernel_post > 0.0))):
            for belief in (*points, *rng.random(3)):
                assert 0.0 <= belief_update(dyn, state, nxt, belief) <= 1.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 6),
        grid_size=st.integers(2, 30),
        rate=st.floats(0.001, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_compact_stencil_matches_the_dense_formula(self, seed, n_states, grid_size, rate):
        rng = np.random.default_rng(seed)
        dyn = mixed_support_dyn(rng, n_states, rate)
        grid = BeliefGrid.uniform(grid_size)
        values = rng.uniform(-5.0, 20.0, (grid_size, n_states))
        cont = BeliefOperator(dyn, grid).continuation(values)
        reference = dense_continuation(dyn, grid, values)
        assert np.abs(cont - reference).max() <= 1e-15 * np.abs(values).max()

    @pytest.mark.parametrize("instance", ["dense", "inventory"])
    def test_in_place_step_is_the_plain_formula_bit_for_bit(self, instance):
        if instance == "dense":
            dyn, blocks = make_positive_dyn(12, n_states=6, rate=0.02), 1
        else:
            env = build_inventory(InventorySpec(capacity=15, change_rate=0.01))
            dyn, blocks = solve_env(env, 51).dyn, 12
        operator = BeliefOperator(dyn, BeliefGrid.uniform(101))
        assert len(operator.blocks) == blocks
        rng = np.random.default_rng(3)
        weight = 40.0
        points = operator.grid.points
        stop = weight * (1.0 - points)[:, None]
        values = rng.random((101, dyn.n_states)) * stop
        step = operator.stepper(weight)
        for _ in range(3):
            expected = np.minimum(stop, points[:, None] + operator.continuation(values))
            applied = step(values)
            assert np.array_equal(applied, expected)
            values = applied

    def test_each_application_returns_a_fresh_array(self):
        operator = BeliefOperator(make_positive_dyn(4), BeliefGrid.uniform(21))
        values = stop_cost_table(operator.grid, 5.0, 3).values
        step = operator.stepper(5.0)
        first, second = step(values), step(values)
        third = operator.stepper(5.0)(values)
        results = (values, first, second, third)
        for i, a in enumerate(results):
            for b in results[i + 1:]:
                assert not np.shares_memory(a, b)
        assert np.array_equal(first, second) and np.array_equal(first, third)


class TestSolveFixedPoint:
    def test_zero_weight_stops_everywhere(self):
        dyn = make_positive_dyn(5)
        table, iterations = solve_fixed_point(BeliefOperator(dyn, BeliefGrid.uniform(31)), 0.0)
        assert np.all(table.values == 0.0)
        assert iterations == 1

    def test_rejects_a_start_on_another_grid(self):
        dyn = make_positive_dyn(5)
        operator = BeliefOperator(dyn, BeliefGrid.uniform(31))
        start = stop_cost_table(BeliefGrid.uniform(21), 1.0, dyn.n_states)
        with pytest.raises(ValueError, match="start table lives on a different grid"):
            solve_fixed_point(operator, 1.0, start)

    def test_uninformative_observations_collapse_states(self, monkeypatch):
        monkeypatch.setattr("modeswitch.detector.DEFAULT_FP_TOL", 1e-10)
        dyn = make_positive_dyn(6, rate=0.05)
        flat = BeliefDynamics(dyn.kernel_pre, dyn.kernel_pre.copy(), 0.05)
        grid = BeliefGrid.uniform(201)
        table, _ = solve_fixed_point(BeliefOperator(flat, grid), 8.0)
        assert np.abs(table.values - table.values[:, :1]).max() <= 1e-12
        single = BeliefDynamics(np.array([[1.0]]), np.array([[1.0]]), 0.05)
        reduced, _ = solve_fixed_point(BeliefOperator(single, grid), 8.0)
        assert np.abs(table.values[:, 0] - reduced.values[:, 0]).max() <= 1e-10

    def test_finite_horizon_oracle_small_instance(self):
        dyn = make_positive_dyn(7, rate=0.1)
        grid = BeliefGrid.uniform(301)
        table, _ = solve_fixed_point(BeliefOperator(dyn, grid), 5.0)
        oracle = finite_horizon_dp(dyn, 5.0, grid, 120)
        assert np.abs(table.values - oracle.values).max() <= 1e-5

    @pytest.mark.parametrize("instance", ["inventory", "random"])
    def test_coarse_start_lands_on_the_same_fixed_point(self, instance):
        if instance == "inventory":
            solved = solve_env(build_inventory(InventorySpec(capacity=15, change_rate=0.01)))
        else:
            solved = solve_random_cached(CANONICAL_SEED, 0.0028)
        operator = BeliefOperator(solved.dyn, solved.grid)
        weight, tol = solved.weight, DEFAULT_FP_TOL
        # An explicit start bypasses the coarse pass.
        start = stop_cost_table(solved.grid, weight, solved.dyn.n_states)
        plain, applications = solve_fixed_point(operator, weight, start=start)
        # The coarse pass leaves fewer applications on the fine grid.
        assert solved.fp_iterations < applications
        assert np.abs(solved.value_table.values - plain.values).max() <= tol / 10
        assert np.array_equal(solved.thresholds, extract_thresholds(plain, operator, weight))

    def test_grids_of_201_points_take_no_coarse_pass(self):
        dyn = make_positive_dyn(8, rate=0.02)
        grid = BeliefGrid.uniform(201)
        operator = BeliefOperator(dyn, grid)
        default, applications = solve_fixed_point(operator, 5.0)
        started, started_applications = solve_fixed_point(
            operator, 5.0, start=stop_cost_table(grid, 5.0, dyn.n_states)
        )
        assert np.array_equal(default.values, started.values)
        assert applications == started_applications

    def test_iteration_from_zero_agrees(self):
        dyn = make_positive_dyn(8, rate=0.1)
        grid = BeliefGrid.uniform(201)
        operator = BeliefOperator(dyn, grid)
        tol = DEFAULT_FP_TOL
        from_top, _ = solve_fixed_point(operator, 5.0)
        zeros = BeliefValueTable(grid, np.zeros((grid.size, dyn.n_states)))
        from_bottom, _ = solve_fixed_point(operator, 5.0, start=zeros)
        assert np.abs(from_top.values - from_bottom.values).max() <= 10 * tol

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 4),
        grid_size=st.integers(2, 40),
        rate=st.floats(0.05, 0.3),
        sparse=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_converged_finite_horizon_oracle(self, seed, n_states, grid_size, rate, sparse):
        rng = np.random.default_rng(seed)
        if sparse:
            dyn = BeliefDynamics(sparse_kernel(rng, n_states), sparse_kernel(rng, n_states), rate)
        else:
            dyn = make_positive_dyn(seed, n_states, rate)
        weight = rng.uniform(0.5, 20.0)
        grid = BeliefGrid.uniform(grid_size)
        operator = BeliefOperator(dyn, grid)
        # (1 - rate)**(40 / rate) < e**-40: backward induction has converged.
        oracle = finite_horizon_dp(dyn, weight, grid, math.ceil(40.0 / rate))
        oracle_thresholds = extract_thresholds(oracle, operator, weight)
        tol = DEFAULT_FP_TOL
        zeros = BeliefValueTable(grid, np.zeros((grid_size, n_states)))
        for start in (None, zeros):
            table, _ = solve_fixed_point(operator, weight, start=start)
            assert np.abs(table.values - oracle.values).max() <= tol
            assert np.array_equal(extract_thresholds(table, operator, weight), oracle_thresholds)

    def test_monotone_and_in_cone(self):
        dyn = make_positive_dyn(9, rate=0.08)
        grid = BeliefGrid.uniform(101)
        weight = 6.0
        operator = BeliefOperator(dyn, grid)
        values = stop_cost_table(grid, weight, dyn.n_states).values
        step = operator.stepper(weight)
        for _ in range(80):
            nxt = step(values)
            assert np.all(nxt <= values)
            assert np.all(nxt >= 0.0)
            values = nxt
        stop = weight * (1.0 - grid.points)[:, None]
        assert np.all(values <= stop)
        middle = values[1:-1]
        assert np.all(values[:-2] + values[2:] <= 2 * middle + 1e-9)


class TestIterate:
    """The accelerated loop shared by both belief solvers, on a linear map."""

    @staticmethod
    def linear_map(kick_at=None):
        """x -> 0.95 P x + b on 60 cells, recording every input and output;
        the ``kick_at``-th application returns an output shifted by 1e3."""
        rng = np.random.default_rng(0)
        matrix = rng.random((60, 60))
        matrix *= 0.95 / matrix.sum(axis=1, keepdims=True)
        offset = rng.random(60)
        inputs, outputs = [], []

        def step(values):
            inputs.append(values.copy())
            out = (matrix @ values.ravel() + offset).reshape(values.shape)
            if len(inputs) == kick_at:
                out = out + 1e3
            outputs.append(out)
            return out

        fixed = np.linalg.solve(np.eye(60) - matrix, offset)
        return step, inputs, outputs, fixed

    def test_restart_after_a_residual_jump_takes_the_plain_step(self):
        step, inputs, outputs, _ = self.linear_map()
        _iterate(step, np.zeros((20, 3)), 1e-12, "linear map")
        # Undisturbed, only the first step is plain; every later input is
        # extrapolated and differs from the previous output.
        assert np.array_equal(inputs[1], outputs[0])
        assert not any(np.array_equal(x, g) for x, g in zip(inputs[2:], outputs[1:]))

        step, inputs, outputs, fixed = self.linear_map(kick_at=4)
        values, applications = _iterate(step, np.zeros((20, 3)), 1e-12, "linear map")
        assert applications == len(inputs)
        # The kick multiplies the residual by far more than the restart
        # factor: the history is cleared and the next input is g(x) itself.
        assert np.array_equal(inputs[4], outputs[3])
        assert not np.array_equal(inputs[5], outputs[4])
        assert np.abs(values.ravel() - fixed).max() <= 1e-10

    def test_max_iter_bounds_the_applications(self, monkeypatch):
        step, inputs, _, _ = self.linear_map()
        _, needed = _iterate(step, np.zeros((20, 3)), 1e-12, "linear map")
        assert needed == len(inputs)

        # The budget is read when the loop is called, so a lowered one binds.
        monkeypatch.setattr("modeswitch.detector.DEFAULT_FP_MAX_ITER", needed)
        step = self.linear_map()[0]
        assert _iterate(step, np.zeros((20, 3)), 1e-12, "linear map")[1] == needed

        monkeypatch.setattr("modeswitch.detector.DEFAULT_FP_MAX_ITER", needed - 1)
        step, inputs, outputs, _ = self.linear_map()
        with pytest.raises(ConvergenceError, match="linear map did not converge") as info:
            _iterate(step, np.zeros((20, 3)), 1e-12, "linear map")
        assert len(inputs) == needed - 1
        assert info.value.residual == np.abs(outputs[-1] - inputs[-1]).max() > 1e-12

    def test_a_step_that_never_settles_raises_with_its_residual(self, monkeypatch):
        monkeypatch.setattr("modeswitch.detector.DEFAULT_FP_MAX_ITER", 7)
        calls = []

        def drift(values):
            calls.append(values)
            return values + 0.5

        with pytest.raises(ConvergenceError) as info:
            _iterate(drift, np.zeros((2, 2)), 1e-9, "drift")
        assert len(calls) == 7
        assert info.value.residual == 0.5


class TestFiniteHorizonDp:
    def test_zero_horizon_is_stop_payoff(self):
        dyn = make_positive_dyn(10)
        grid = BeliefGrid.uniform(21)
        table = finite_horizon_dp(dyn, 3.0, grid, 0)
        assert np.array_equal(table.values, stop_cost_table(grid, 3.0, dyn.n_states).values)

    def test_single_step_closed_form(self):
        dyn = make_positive_dyn(11, rate=0.06)
        grid = BeliefGrid.uniform(41)
        weight = 4.0
        table = finite_horizon_dp(dyn, weight, grid, 1)
        expected = np.minimum(
            weight * (1.0 - grid.points),
            grid.points + weight * (1.0 - 0.06) * (1.0 - grid.points),
        )
        assert np.abs(table.values - expected[:, None]).max() <= 1e-12

    def test_rejects_a_negative_horizon(self):
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            finite_horizon_dp(make_positive_dyn(10), 3.0, BeliefGrid.uniform(21), -1)

    def test_tables_nonincreasing_in_horizon(self):
        dyn = make_positive_dyn(12, rate=0.1)
        grid = BeliefGrid.uniform(51)
        previous = finite_horizon_dp(dyn, 5.0, grid, 0)
        for horizon in range(1, 25):
            current = finite_horizon_dp(dyn, 5.0, grid, horizon)
            assert np.all(current.values <= previous.values)
            previous = current


class TestExtractThresholds:
    def test_zero_weight_stops_at_zero(self):
        dyn = make_positive_dyn(13)
        operator = BeliefOperator(dyn, BeliefGrid.uniform(31))
        table, _ = solve_fixed_point(operator, 0.0)
        assert np.all(extract_thresholds(table, operator, 0.0) == 0.0)

    def test_uninformative_observations_share_one_threshold(self):
        dyn = make_positive_dyn(14, rate=0.05)
        flat = BeliefDynamics(dyn.kernel_pre, dyn.kernel_pre.copy(), 0.05)
        operator = BeliefOperator(flat, BeliefGrid.uniform(301))
        table, _ = solve_fixed_point(operator, 12.0)
        thresholds = extract_thresholds(table, operator, 12.0)
        assert np.all(thresholds == thresholds[0])
        assert 0.0 < thresholds[0] < 1.0

    def test_thresholds_shrink_with_change_rate(self):
        grid = BeliefGrid.uniform(301)
        previous = None
        for rate in (0.02, 0.05, 0.1, 0.2):
            dyn = make_positive_dyn(15, rate=rate)
            weight = 0.4 / rate  # fixed weight-times-rate product
            operator = BeliefOperator(dyn, grid)
            table, _ = solve_fixed_point(operator, weight)
            thresholds = extract_thresholds(table, operator, weight)
            if previous is not None:
                assert np.all(thresholds <= previous + 1e-15)
            previous = thresholds

    @pytest.mark.parametrize("seed", [seed for seed in VALID_SEEDS if seed < 10])
    def test_thresholds_do_not_increase_along_the_readme_sweep(self, seed):
        previous = None
        for rate in sorted(TABLE1_RHOS):
            env = random_env(RandomMdpSpec(seed=seed, change_rate=rate))
            thresholds = solve_env(env, grid_size=201).thresholds
            if previous is not None:
                assert np.all(thresholds <= previous)
            previous = thresholds

    def test_rejects_a_table_from_another_grid(self):
        dyn = make_positive_dyn(13)
        table = stop_cost_table(BeliefGrid.uniform(21), 1.0, dyn.n_states)
        with pytest.raises(ValueError, match="grid"):
            extract_thresholds(table, BeliefOperator(dyn, BeliefGrid.uniform(31)), 1.0)

    def test_a_state_that_never_stops_raises(self):
        dyn = make_positive_dyn(13)
        grid = BeliefGrid.uniform(21)
        # Continuing from a table of -2 costs p - 2 < 0 <= weight*(1-p) at
        # every belief, belief 1 included.
        table = BeliefValueTable(grid, np.full((grid.size, dyn.n_states), -2.0))
        with pytest.raises(ThresholdStructureError, match="state 0 never stops"):
            extract_thresholds(table, BeliefOperator(dyn, grid), 1.0)

    def test_non_concave_table_raises(self):
        dyn = make_positive_dyn(16, n_states=2)
        grid = BeliefGrid.uniform(41)
        weight = 3.0
        zigzag = np.where(
            np.arange(grid.size) % 2 == 0, weight * (1.0 - grid.points), 0.0
        )
        table = BeliefValueTable(grid, np.tile(zigzag[:, None], (1, 2)))
        with pytest.raises(ThresholdStructureError):
            extract_thresholds(table, BeliefOperator(dyn, grid), weight)


class TestEvaluateSwitchRule:
    def test_optimal_rule_recovers_fixed_point(self):
        dyn = make_positive_dyn(17, rate=0.08)
        grid = BeliefGrid.uniform(301)
        weight = 6.0
        operator = BeliefOperator(dyn, grid)
        table, _ = solve_fixed_point(operator, weight)
        thresholds = extract_thresholds(table, operator, weight)
        evaluated = evaluate_switch_rule(thresholds, operator, weight)
        slack = 2.0 * weight * grid.spacing
        assert np.abs(evaluated.values - table.values).max() <= slack

    def test_stop_at_zero_rule_is_stop_payoff(self):
        dyn = make_positive_dyn(18)
        grid = BeliefGrid.uniform(51)
        evaluated = evaluate_switch_rule(np.zeros(3), BeliefOperator(dyn, grid), 4.0)
        assert np.array_equal(evaluated.values, stop_cost_table(grid, 4.0, 3).values)

    def test_perturbed_rules_never_beat_the_fixed_point(self):
        dyn = make_positive_dyn(19, rate=0.08)
        grid = BeliefGrid.uniform(301)
        weight = 6.0
        operator = BeliefOperator(dyn, grid)
        table, _ = solve_fixed_point(operator, weight)
        base = extract_thresholds(table, operator, weight)
        slack = 2.0 * weight * grid.spacing
        rng = np.random.default_rng(0)
        for _ in range(6):
            rule = np.clip(
                base + rng.uniform(-0.08, 0.08, size=base.size), 0.0, grid.points[-2]
            )
            evaluated = evaluate_switch_rule(rule, operator, weight)
            assert np.all(evaluated.values >= table.values - slack)

    def test_never_stopping_rule_hits_the_cap(self):
        rng = np.random.default_rng(0)
        pre = rng.random((2, 2)) + 0.05
        pre /= pre.sum(axis=1, keepdims=True)
        dyn = BeliefDynamics(pre, pre.copy(), 0.01)  # belief climbs only by drift
        with pytest.raises(DivergenceError):
            evaluate_switch_rule(np.ones(2), BeliefOperator(dyn, BeliefGrid.uniform(20001)), 0.01)

    def test_rejects_bad_thresholds(self):
        dyn = make_positive_dyn(20)
        operator = BeliefOperator(dyn, BeliefGrid.uniform(21))
        with pytest.raises(ValueError):
            evaluate_switch_rule(np.array([0.5, 0.5]), operator, 1.0)
        with pytest.raises(ValueError):
            evaluate_switch_rule(np.array([0.5, 1.5, 0.5]), operator, 1.0)
