"""Tests for the coupled Monte Carlo harness and the regret estimators."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeswitch.detector import BeliefDynamics
from modeswitch.environments import RandomMdpSpec, SwitchingEnv, gen_random_mdp, random_env
from modeswitch.mdp import ModePairMdp
from modeswitch.pipeline import SolveOptions, solve_env
from modeswitch.simulate import (
    EpisodeBatch,
    EpisodeRecord,
    episode_rng,
    estimate_exact_regret,
    estimate_regret_decomposition,
    regret_consistency,
    run_batch,
    run_episode,
    run_experiment,
    summarize,
)


@pytest.fixture(scope="module")
def small_solved():
    """3-state instance with a defined tradeoff weight, fast horizon decay."""
    env = random_env(
        RandomMdpSpec(n_states=3, n_actions=2, seed=3, change_rate=0.05, discount=0.9)
    )
    return solve_env(env, SolveOptions(grid_size=301))


@pytest.fixture(scope="module")
def degenerate_solved():
    """Identical kernels and costs in both modes: switching cannot matter."""
    mdp = gen_random_mdp(RandomMdpSpec(n_states=3, n_actions=2, seed=8, change_rate=0.1))
    flat = ModePairMdp(mdp.kernel_pre, mdp.kernel_pre.copy(), mdp.stage_cost, 0.9, 0.1)
    env = SwitchingEnv(
        mdp=flat,
        cost_pre=flat.stage_cost,
        cost_post=flat.stage_cost,
        initial_dist=np.full(3, 1.0 / 3.0),
        label="degenerate",
    )
    # The tradeoff weight is undefined here (identical policies), so assemble
    # a solved bundle around the detector with an arbitrary positive weight.
    from modeswitch.detector import BeliefDynamics, BeliefGrid, solve_fixed_point
    from modeswitch.detector import extract_thresholds
    from modeswitch.mdp import value_iteration
    from modeswitch.pipeline import SolvedEnv
    from modeswitch.regret import SwitchingCostRates

    policy, values = value_iteration(flat.kernel_pre, flat.stage_cost, 0.9)
    dyn = BeliefDynamics.from_mdp(flat, policy)
    grid = BeliefGrid.uniform(201)
    weight = 5.0
    table, iterations = solve_fixed_point(dyn, weight, grid)
    return SolvedEnv(
        env=env,
        options=SolveOptions(grid_size=201),
        policy_pre=policy,
        policy_post=policy.copy(),
        values_pre=values,
        values_post=values.copy(),
        vi_residual_pre=0.0,
        vi_residual_post=0.0,
        chains={},
        stationary={},
        cost_rates=SwitchingCostRates(1.0, 0.0, 1.0, 0.0, 0.1),
        weight=weight,
        dyn=dyn,
        grid=grid,
        value_table=table,
        fp_iterations=iterations,
        fp_residual=0.0,
        thresholds=extract_thresholds(table, dyn, weight),
    )


def assert_batch_matches_oracle(batch, solved, horizon, master, **options):
    """Every batch column equals :func:`run_episode` on the same episode
    stream, bit for bit."""
    records = []
    for index in range(batch.n_episodes):
        rng = episode_rng(master, index)
        gamma = int(rng.geometric(solved.env.mdp.change_rate))
        records.append(run_episode(solved, gamma, horizon, rng, **options))
    for field in fields(EpisodeRecord):
        column = getattr(batch, field.name)
        expected = np.array([getattr(r, field.name) for r in records], dtype=column.dtype)
        assert column.tobytes() == expected.tobytes(), field.name


@st.composite
def small_instances(draw, base):
    """A random 2-6 state instance with sparse kernels, mode-dependent costs,
    arbitrary policies and its thresholds, wrapped around ``base``."""
    n_states = draw(st.integers(2, 6))
    n_actions = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def kernel():
        raw = rng.random((n_states, n_actions, n_states)) * (
            rng.random((n_states, n_actions, n_states)) < 0.6
        )
        empty = raw.sum(axis=2) == 0.0
        raw[empty, rng.integers(n_states)] = 1.0
        return raw / raw.sum(axis=2, keepdims=True)

    mdp = ModePairMdp(
        kernel(),
        kernel(),
        rng.random((n_states, n_actions)),
        draw(st.sampled_from([0.9, 0.99, 0.999])),
        draw(st.sampled_from([0.005, 0.02, 0.1, 0.3])),
    )
    env = SwitchingEnv(
        mdp=mdp,
        cost_pre=mdp.stage_cost,
        cost_post=rng.random((n_states, n_actions)),
        initial_dist=rng.dirichlet(np.ones(n_states)),
        label="property",
    )
    policy_pre = rng.integers(n_actions, size=n_states)
    kind = draw(st.sampled_from(["zero", "one", "random"]))
    thresholds = {
        "zero": np.zeros(n_states),
        "one": np.ones(n_states),
        "random": rng.random(n_states),
    }[kind]
    return replace(
        base,
        env=env,
        policy_pre=policy_pre,
        policy_post=rng.integers(n_actions, size=n_states),
        dyn=BeliefDynamics.from_mdp(mdp, policy_pre),
        weight=float(rng.uniform(0.5, 50.0)),
        thresholds=thresholds,
    )


class TestRunEpisode:
    def test_replay_is_identical(self, small_solved):
        first = run_episode(small_solved, 12, 80, episode_rng(9, 4))
        second = run_episode(small_solved, 12, 80, episode_rng(9, 4))
        assert first == second

    def test_no_switch_no_change_couples_exactly(self, small_solved):
        horizon = 40
        never = np.ones(3)
        record = run_episode(
            small_solved, horizon + 5, horizon, episode_rng(3, 0), thresholds=never
        )
        assert record.truncated
        assert record.switch_time == horizon
        assert record.cost_cd == record.cost_mo

    def test_degenerate_zero_threshold_matches_baseline(self, degenerate_solved):
        # Identical kernels and policies: switching immediately changes nothing.
        zero = np.zeros(3)
        record = run_episode(
            degenerate_solved, 7, 60, episode_rng(11, 2), thresholds=zero
        )
        assert record.switch_time == 0
        assert record.cost_cd == record.cost_mo

    def test_objective_identity_every_episode(self, small_solved):
        # Stepwise accumulation equals the closed form of the stopping payoff.
        weight = small_solved.weight
        for index in range(30):
            rng = episode_rng(21, index)
            gamma = int(rng.geometric(0.05))
            record = run_episode(small_solved, gamma, 200, rng)
            expected = max(record.switch_time - gamma - 1, 0) + weight * (
                gamma >= record.switch_time
            )
            assert record.objective_realized == expected

    def test_validation(self, small_solved):
        with pytest.raises(ValueError):
            run_episode(small_solved, 0, 10, episode_rng(0, 0))
        with pytest.raises(ValueError):
            run_episode(small_solved, 1, 0, episode_rng(0, 0))


class TestRunBatch:
    def test_batch_matches_scalar_reference(self, small_solved):
        horizon, master = 90, 17
        batch = run_batch(small_solved, 40, horizon, master)
        assert_batch_matches_oracle(batch, small_solved, horizon, master)

    @given(data=st.data(), switch_at_change=st.booleans(), master=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_oracle_on_random_instances(
        self, small_solved, data, switch_at_change, master
    ):
        solved = data.draw(small_instances(small_solved))
        # Horizons on both sides of the 256-step uniform blocks.
        for horizon in (1, 255, 256, 257, 601):
            batch = run_batch(solved, 12, horizon, master, switch_at_change=switch_at_change)
            assert_batch_matches_oracle(
                batch, solved, horizon, master, switch_at_change=switch_at_change
            )

    def test_memory_does_not_grow_with_the_horizon(self, small_solved):
        # One chunk of 1024 episodes: a horizon-long uniform buffer alone
        # would be 1024 * 6000 * 8 bytes = 49 MB.
        tracemalloc.start()
        try:
            run_batch(small_solved, 1024, 6000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_worker_count_does_not_matter(self, small_solved):
        serial = run_batch(small_solved, 2100, 60, 5, workers=1)
        threaded = run_batch(small_solved, 2100, 60, 5, workers=4)
        for field in fields(EpisodeBatch):
            assert np.array_equal(getattr(serial, field.name), getattr(threaded, field.name))

    def test_switch_and_change_states_exact_properties(self, small_solved):
        # No stage difference accrues before both the switch and the change:
        # mirroring the baseline fires at the change itself, zero thresholds
        # fire at time 0, and any rule firing no later than the change has
        # nothing to show for it yet.
        horizon = 40
        solved_rule = run_batch(small_solved, 600, horizon, 27)
        early = solved_rule.switch_time <= solved_rule.change_point
        assert 0 < early.sum() < early.size
        assert np.all(solved_rule.regret_pre_switch[early] == 0.0)

        mirror = run_batch(small_solved, 600, horizon, 27, switch_at_change=True)
        inside = mirror.change_point < horizon
        assert 0 < inside.sum() < inside.size
        assert np.array_equal(mirror.state_at_switch[inside], mirror.state_at_change[inside])
        assert np.all(mirror.regret_pre_switch[inside] == 0.0)
        assert np.all(mirror.state_at_change[~inside] == -1)

        for start in range(3):
            pinned = replace(
                small_solved, env=replace(small_solved.env, initial_dist=np.eye(3)[start])
            )
            eager = run_batch(pinned, 300, horizon, 27, thresholds=np.zeros(3))
            assert np.all(eager.switch_time == 0)
            assert np.all(eager.state_at_switch == start)
            assert np.all(eager.regret_pre_switch == 0.0)

    def test_coupling_exact_on_unswitched_episodes(self, small_solved):
        horizon = 30
        batch = run_batch(small_solved, 500, horizon, 23, thresholds=np.ones(3))
        untouched = np.minimum(batch.switch_time, batch.change_point) >= horizon
        assert untouched.sum() > 0
        assert np.all(batch.cost_cd[untouched] == batch.cost_mo[untouched])

    def test_memorylessness_of_lead_time(self, small_solved):
        batch = run_batch(small_solved, 4000, 400, 31)
        lead = np.maximum(batch.change_point - batch.switch_time, 0)
        pfa = batch.false_alarm.mean()
        rate = small_solved.env.mdp.change_rate
        sigma = lead.std(ddof=1) / np.sqrt(lead.size)
        assert abs(lead.mean() - pfa / rate) <= 3 * sigma + 3 * np.sqrt(
            pfa * (1 - pfa) / lead.size
        ) / rate
        assert batch.truncated.mean() < 1e-3

    def test_rejects_empty_run(self, small_solved):
        with pytest.raises(ValueError, match="no episodes"):
            run_batch(small_solved, 0, 10, 0)


class TestSummaries:
    def test_single_episode_report_matches_record(self, small_solved):
        batch = run_batch(small_solved, 1, 50, 13)
        report = summarize(batch, 50, 13)
        assert report.n_episodes == 1
        assert report.mean_cost_cd == batch.cost_cd[0]
        assert report.mean_cost_mo == batch.cost_mo[0]
        assert report.stderr_cost_cd == 0.0
        assert report.false_alarm_rate == float(batch.false_alarm[0])

    def test_run_experiment_aggregates(self, small_solved):
        report = run_experiment(small_solved, 600, 80, 3)
        assert report.n_episodes == 600
        assert 0.0 <= report.false_alarm_rate <= 1.0
        assert report.mean_delay >= 0.0
        assert np.isfinite(report.welch_t)


class TestRegretConsistency:
    def test_flags_agreement_with_dp_value(self, small_solved):
        batch = run_batch(small_solved, 3000, 700, 41)
        check = regret_consistency(
            batch,
            predicted=small_solved.start_value(),
            slack=2.0 * small_solved.grid_slack,
        )
        assert check.consistent, (check.estimate, check.predicted, check.tolerance)

    def test_truncation_precondition(self, small_solved):
        batch = run_batch(small_solved, 200, 25, 7, thresholds=np.ones(3))
        with pytest.raises(RuntimeError, match="horizon"):
            regret_consistency(batch, predicted=0.0, slack=0.0)


class TestExactRegret:
    def test_mirroring_the_baseline_has_zero_regret(self, small_solved):
        estimate = estimate_exact_regret(
            small_solved, 300, 120, 19, switch_at_change=True
        )
        assert estimate.mean == 0.0
        assert estimate.stderr == 0.0

    def test_degenerate_modes_have_zero_regret(self, degenerate_solved):
        estimate = estimate_exact_regret(degenerate_solved, 300, 120, 29)
        assert estimate.mean == 0.0

    def test_truncation_bound_reported(self, small_solved):
        estimate = estimate_exact_regret(small_solved, 50, 60, 1)
        assert estimate.truncation_bound == pytest.approx(
            0.9**60 * np.max(small_solved.env.cost_pre) / 0.1, rel=1e-9
        )

    def test_decomposition_agrees_with_direct_estimator(self, small_solved):
        direct = estimate_exact_regret(small_solved, 1500, 250, 53)
        split_mean, split_err = estimate_regret_decomposition(small_solved, 1500, 250, 53)
        pooled = np.hypot(direct.stderr, split_err)
        assert abs(direct.mean - split_mean) <= 3 * pooled + 10 * direct.truncation_bound
