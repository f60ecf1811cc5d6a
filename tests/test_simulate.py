"""Tests for the coupled Monte Carlo harness and the regret estimators."""

import contextlib
import os
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeswitch import simulate
from modeswitch._seeding import episode_generators, seed_words
from modeswitch.detector import BeliefOperator, evaluate_switch_rule
from modeswitch.environments import RandomMdpSpec, SwitchingEnv, gen_random_mdp, random_env
from modeswitch.mdp import ModePairMdp, finite_horizon_cost
from modeswitch.pipeline import SolveOptions, mode_pair_chains, solve_env
from modeswitch.simulate import (
    EpisodeBatch,
    episode_rng,
    estimate_exact_regret,
    estimate_regret_decomposition,
    regret_consistency,
    run_batch,
    run_episode,
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
    from modeswitch.detector import BeliefDynamics, BeliefGrid, BeliefOperator
    from modeswitch.detector import extract_thresholds, solve_fixed_point
    from modeswitch.mdp import value_iteration
    from modeswitch.pipeline import SolvedEnv
    from modeswitch.regret import SwitchingCostRates

    policy, values = value_iteration(flat.kernel_pre, flat.stage_cost, 0.9)
    chains = mode_pair_chains(env, policy, policy)
    dyn = BeliefDynamics(chains[1, 1].transition, chains[1, 2].transition, flat.change_rate)
    operator = BeliefOperator(dyn, BeliefGrid.uniform(201))
    weight = 5.0
    table, iterations = solve_fixed_point(operator, weight)
    return SolvedEnv(
        env=env,
        options=SolveOptions(grid_size=201),
        policy_pre=policy,
        policy_post=policy.copy(),
        values_pre=values,
        values_post=values.copy(),
        vi_residual_pre=0.0,
        vi_residual_post=0.0,
        chains=chains,
        stationary={},
        cost_rates=SwitchingCostRates(1.0, 0.0, 1.0, 0.0, 0.1),
        weight=weight,
        grid=operator.grid,
        value_table=table,
        fp_iterations=iterations,
        fp_residual=0.0,
        thresholds=extract_thresholds(table, operator, weight),
    )


def assert_batch_matches_oracle(batch, solved, horizon, master, **options):
    """Every batch column equals :func:`run_episode` on the same episode
    stream, bit for bit."""
    records = []
    for index in range(batch.n_episodes):
        rng = episode_rng(master, index)
        gamma = int(rng.geometric(solved.env.mdp.change_rate))
        records.append(run_episode(solved, gamma, horizon, rng, **options))
    for field in fields(EpisodeBatch):
        column = getattr(batch, field.name)
        expected = np.concatenate([getattr(r, field.name) for r in records]).astype(column.dtype)
        assert column.tobytes() == expected.tobytes(), field.name


@st.composite
def small_instances(draw, base):
    """A random 2-6 state instance with sparse kernels, mode-dependent costs,
    arbitrary policies, the chains they induce and its thresholds, wrapped
    around ``base``."""
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
    policy_post = rng.integers(n_actions, size=n_states)
    return replace(
        base,
        env=env,
        policy_pre=policy_pre,
        policy_post=policy_post,
        chains=mode_pair_chains(env, policy_pre, policy_post),
        weight=float(rng.uniform(0.5, 50.0)),
        thresholds=thresholds,
    )


def _run_batch(solved, thresholds):
    run_batch(solved, 4, 10, 0, thresholds=thresholds)


def _run_episode(solved, thresholds):
    run_episode(solved, 3, 10, episode_rng(0, 0), thresholds=thresholds)


def _evaluate_switch_rule(solved, thresholds):
    evaluate_switch_rule(thresholds, BeliefOperator(solved.dyn, solved.grid), solved.weight)


@pytest.mark.parametrize("entry", [_run_batch, _run_episode, _evaluate_switch_rule])
@pytest.mark.parametrize(
    ("thresholds", "message"),
    [
        (np.full(4, 0.5), "shape"),
        (np.full(2, 0.5), "shape"),
        (np.full((3, 1), 0.5), "shape"),
        (np.full(3, np.nan), "finite"),
        (np.array([0.5, np.inf, 0.5]), "finite"),
        (np.array([0.5, -0.1, 0.5]), "lie in"),
        (np.array([0.5, 1.5, 0.5]), "lie in"),
    ],
    ids=["long", "short", "column", "nan", "inf", "negative", "above-one"],
)
def test_threshold_vectors_are_checked(small_solved, entry, thresholds, message):
    with pytest.raises(ValueError, match=message):
        entry(small_solved, thresholds)


def decomposition_loop(solved, batch):
    """Per-episode regret of the decomposition estimator, one episode at a
    time from finite_horizon_cost and matrix powers."""
    discount = solved.env.mdp.discount
    c21, c11, c22 = (solved.chains[pair] for pair in ((2, 1), (1, 1), (2, 2)))
    tail = np.linalg.solve(np.eye(c22.n_states) - discount * c22.transition, c22.cost_vec)
    power = np.linalg.matrix_power
    totals = batch.regret_pre_switch.copy()
    for i in np.flatnonzero(~batch.truncated):
        tau, gamma = int(batch.switch_time[i]), int(batch.change_point[i])
        state = int(batch.state_at_switch[i])
        if tau < gamma:
            lag = gamma - tau
            point = np.eye(c22.n_states)[state]
            ahead = power(c21.transition, lag)[state] - power(c11.transition, lag)[state]
            to_go = (
                finite_horizon_cost(c21, point, lag, discount)
                - finite_horizon_cost(c11, point, lag, discount)
                + discount**lag * float(ahead @ tail)
            )
        else:
            origin = int(batch.state_at_change[i])
            to_go = tail[state] - power(c22.transition, tau - gamma)[origin] @ tail
        totals[i] += discount**tau * to_go
    return totals


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or simulate._available_cpus() < 2,
    reason="worker processes need os.fork and two CPUs",
)


@contextlib.contextmanager
def no_deprecation_warnings():
    """Fail on any DeprecationWarning, Python 3.12's warning about forking a
    process with threads among them.  ``os.fork`` clears that warning when a
    filter turns it into an error, so it is recorded and checked instead."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeprecationWarning)
        yield
    assert [str(w.message) for w in caught if issubclass(w.category, DeprecationWarning)] == []


@pytest.fixture
def forks(monkeypatch):
    """Calls of ``os.fork`` while the test runs, which must warn of nothing."""
    fork = os.fork if hasattr(os, "fork") else None
    calls = []

    def counting():
        calls.append(None)
        return fork()

    if fork is not None:
        monkeypatch.setattr(os, "fork", counting)
    with no_deprecation_warnings():
        yield calls


def assert_batches_identical(batch, reference):
    for field in fields(EpisodeBatch):
        got, want = getattr(batch, field.name), getattr(reference, field.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name


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
        # Horizons on both sides of one and two uniform blocks.
        block = simulate._BLOCK
        for horizon in (1, block - 1, block, block + 1, 2 * block + 89):
            batch = run_batch(solved, 12, horizon, master, switch_at_change=switch_at_change)
            assert_batch_matches_oracle(
                batch, solved, horizon, master, switch_at_change=switch_at_change
            )

    def test_batch_across_a_chunk_boundary_matches_oracle(self, small_solved):
        # One full chunk, then a chunk of three episodes.
        horizon, master = 20, 2**40 + 3
        batch = run_batch(small_solved, simulate._CHUNK_SIZE + 3, horizon, master)
        assert_batch_matches_oracle(batch, small_solved, horizon, master)

    def test_full_width_batch_stays_within_the_chunk_budget(self, small_solved):
        # 6000 episodes run as two chunks.  The budget covers a chunk's
        # generators and uniform block; 2 MiB more covers the uniform
        # scratch, the per-step arrays and the batch's output columns.
        run_batch(small_solved, 10, 10, 0)
        tracemalloc.start()
        try:
            run_batch(small_solved, 6000, 600, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < simulate._CHUNK_BYTES + 2 * 2**20

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

    def test_worker_count_does_not_matter(self, small_solved, forks):
        cases = [
            (2100, {}),
            (2101, {}),  # does not divide evenly
            (simulate._CHUNK_SIZE * 2 + 7, {}),  # more chunks than processes
            (3, {}),  # fewer episodes than workers
            (1, {}),
            (2101, {"switch_at_change": True}),
            (2101, {"thresholds": np.full(3, 0.3)}),
        ]
        for n_episodes, kwargs in cases:
            forks.clear()
            serial = run_batch(small_solved, n_episodes, 60, 5, workers=1, **kwargs)
            assert not forks
            forked = run_batch(small_solved, n_episodes, 60, 5, workers=4, **kwargs)
            if n_episodes > 1 and simulate._available_cpus() > 1:
                assert forks
            assert_batches_identical(forked, serial)

    def test_plan_caps_processes_and_chunk_widths(self, monkeypatch):
        width = simulate._CHUNK_SIZE
        assert simulate._plan(2 * width + 1, 1) == [
            [(0, width), (width, 2 * width), (2 * width, 2 * width + 1)]
        ]
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(simulate, "_available_cpus", lambda cpus=cpus: cpus)
            for n_episodes in (1, 2, 5, 6000, 3 * width + 1, 20000):
                for workers in (1, 2, 4, 10**6):
                    shares = simulate._plan(n_episodes, workers)
                    assert len(shares) == min(workers, n_episodes, cpus)
                    assert len({len(share) for share in shares}) == 1
                    chunks = [chunk for share in shares for chunk in share]
                    assert chunks[0][0] == 0 and chunks[-1][1] == n_episodes
                    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
                    assert all(1 <= hi - lo <= width for lo, hi in chunks)
        monkeypatch.delattr(os, "fork")
        assert len(simulate._plan(6000, 4)) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_the_process_cap_never_over_forks(self, small_solved, monkeypatch):
        fork = os.fork
        allowed = simulate._available_cpus() - 1
        calls = []

        def bounded_fork():
            calls.append(None)
            if len(calls) > allowed:
                raise AssertionError(f"fork number {len(calls)} with {allowed + 1} CPUs")
            return fork()

        monkeypatch.setattr(os, "fork", bounded_fork)
        forked = run_batch(small_solved, 700, 30, 8, workers=10**6)
        assert len(calls) == allowed
        assert_batches_identical(forked, run_batch(small_solved, 700, 30, 8))

    @needs_two_cpus
    @pytest.mark.parametrize(
        ("where", "error", "message"),
        [
            ("child-raises", ValueError, r"^kernel broke \(episodes \[20, 40\)\)$"),
            ("child-exits", RuntimeError, r"episodes \[20, 40\) exited with status 3 before"),
            ("parent-raises", KeyboardInterrupt, None),
        ],
    )
    def test_worker_failures_leave_no_process_or_pipe(
        self, small_solved, monkeypatch, where, error, message
    ):
        parent = os.getpid()
        run_chunk = simulate._run_chunk

        def failing(solved, horizon, master_seed, lo, hi, *args):
            in_child = os.getpid() != parent
            if where == "child-raises" and in_child:
                raise ValueError("kernel broke")
            if where == "child-exits" and in_child:
                os._exit(3)
            if where == "parent-raises" and not in_child:
                raise KeyboardInterrupt
            return run_chunk(solved, horizon, master_seed, lo, hi, *args)

        monkeypatch.setattr(simulate, "_run_chunk", failing)
        open_fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with no_deprecation_warnings():
            with pytest.raises(error, match=message):
                run_batch(small_solved, 40, 20, 1, workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if open_fds is not None:
            assert len(os.listdir("/proc/self/fd")) == open_fds

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


#: Master seeds of one to five 32-bit words; from five words on, the seed
#: fills SeedSequence's pool without padding.
SEED_ORACLE_MASTERS = (
    0, 1, 7, 12345, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**127 + 11, 2**128 + 9
)


def seed_sequence_words(master, index):
    return np.random.SeedSequence(entropy=master, spawn_key=(index,)).generate_state(
        4, np.uint64
    )


class TestSeedWords:
    @pytest.mark.parametrize("master", SEED_ORACLE_MASTERS)
    def test_matches_seed_sequence(self, master):
        indices = np.arange(10_000, dtype=np.uint64)
        expected = np.array([seed_sequence_words(master, int(i)) for i in indices])
        assert np.array_equal(seed_words(master, indices), expected)

    @pytest.mark.parametrize("master", SEED_ORACLE_MASTERS)
    def test_multi_word_indices(self, master):
        indices = [0, 2**32 - 1, 2**32, 2**33 + 7, 2**63, 2**64 - 1]
        expected = np.array([seed_sequence_words(master, i) for i in indices])
        assert np.array_equal(seed_words(master, np.array(indices, dtype=np.uint64)), expected)

    @given(master=st.integers(0, 2**128 - 1), index=st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_seed_sequence_for_any_master(self, master, index):
        indices = np.array([index, 0, 2**32 - 1], dtype=np.uint64)
        expected = np.array([seed_sequence_words(master, int(i)) for i in indices])
        assert np.array_equal(seed_words(master, indices), expected)

    def test_negative_master_seed_raises(self, small_solved):
        with pytest.raises(ValueError, match="non-negative"):
            seed_words(-1, np.arange(3, dtype=np.uint64))
        with pytest.raises(ValueError, match="non-negative"):
            np.random.SeedSequence(entropy=-1, spawn_key=(0,))
        with pytest.raises(ValueError, match="non-negative"):
            run_batch(small_solved, 5, 10, -1)

    def test_generators_continue_the_documented_streams(self):
        for master in (0, 2**64 + 5):
            generators = episode_generators(master, 2**32 - 2, 2**32 + 2)
            for index, generator in zip(range(2**32 - 2, 2**32 + 2), generators):
                oracle = episode_rng(master, index)
                assert generator.bit_generator.state == oracle.bit_generator.state
                assert generator.geometric(0.01) == oracle.geometric(0.01)
                assert np.array_equal(generator.random(300), oracle.random(300))


class TestSummaries:
    def test_single_episode_report_matches_record(self, small_solved):
        batch = run_batch(small_solved, 1, 50, 13)
        report = summarize(batch, 50, 13)
        assert report.n_episodes == 1
        assert report.mean_cost_cd == batch.cost_cd[0]
        assert report.mean_cost_mo == batch.cost_mo[0]
        assert report.stderr_cost_cd == 0.0
        assert report.false_alarm_rate == float(batch.false_alarm[0])

    def test_summarize_aggregates_a_batch(self, small_solved):
        report = summarize(run_batch(small_solved, 600, 80, 3), 80, 3)
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

    def test_decomposition_matches_the_per_episode_loop(self, small_solved):
        batch = run_batch(small_solved, 300, 250, 53)
        assert 0 < (batch.switch_time < batch.change_point).sum() < 300
        totals = decomposition_loop(small_solved, batch)
        mean, stderr = estimate_regret_decomposition(small_solved, 300, 250, 53)
        assert mean == pytest.approx(float(totals.mean()), rel=1e-12)
        assert stderr == pytest.approx(float(totals.std(ddof=1) / np.sqrt(300)), rel=1e-12)

    def test_decomposition_without_a_fired_rule(self, small_solved):
        # Belief 0 never reaches threshold 1 in one step: only realized terms.
        never = replace(small_solved, thresholds=np.ones(3))
        batch = run_batch(never, 200, 1, 5)
        assert batch.truncated.all()
        mean, stderr = estimate_regret_decomposition(never, 200, 1, 5)
        assert mean == float(batch.regret_pre_switch.mean())
        assert stderr == float(batch.regret_pre_switch.std(ddof=1) / np.sqrt(200))

    def test_decomposition_agrees_with_direct_estimator(self, small_solved):
        direct = estimate_exact_regret(small_solved, 1500, 250, 53)
        split_mean, split_err = estimate_regret_decomposition(small_solved, 1500, 250, 53)
        pooled = np.hypot(direct.stderr, split_err)
        assert abs(direct.mean - split_mean) <= 3 * pooled + 10 * direct.truncation_bound
