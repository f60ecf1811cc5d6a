"""Tests for the coupled Monte Carlo harness and the regret estimators."""

import bisect
import contextlib
import math
import os
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeswitch import simulate
from modeswitch._seeding import _PresetWords, episode_generators, seed_words
from modeswitch.detector import BeliefGrid, BeliefOperator, bayes_step, evaluate_switch_rule
from modeswitch.environments import (
    InventorySpec,
    RandomMdpSpec,
    SwitchingEnv,
    build_inventory,
    gen_random_mdp,
    random_env,
)
from modeswitch.mdp import ModePairMdp, finite_horizon_cost
from modeswitch.pipeline import mode_pair_chains, solve_env
from modeswitch.simulate import (
    EpisodeBatch,
    episode_rng,
    run_batch,
    summarize,
)

from conftest import CANONICAL_SEED


@pytest.fixture(scope="module")
def small_solved():
    """3-state instance with a defined tradeoff weight, fast horizon decay."""
    env = random_env(
        RandomMdpSpec(n_states=3, n_actions=2, seed=3, change_rate=0.05, discount=0.9)
    )
    return solve_env(env, grid_size=301)


@pytest.fixture(scope="module")
def degenerate_solved():
    """Identical kernels and costs in both modes: switching cannot matter."""
    mdp = gen_random_mdp(RandomMdpSpec(n_states=3, n_actions=2, seed=8, change_rate=0.1))
    flat = ModePairMdp(mdp.kernel_pre, mdp.kernel_pre.copy(), mdp.stage_cost, 0.9, 0.1)
    env = SwitchingEnv(
        mdp=flat,
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

    policy, values, _ = value_iteration(flat.kernel_pre, flat.stage_cost, 0.9)
    chains = mode_pair_chains(env, policy, policy)
    dyn = BeliefDynamics(chains[1, 1].transition, chains[1, 2].transition, flat.change_rate)
    operator = BeliefOperator(dyn, BeliefGrid.uniform(201))
    weight = 5.0
    table, iterations = solve_fixed_point(operator, weight)
    return SolvedEnv(
        env=env,
        policy_pre=policy,
        policy_post=policy.copy(),
        values_pre=values,
        values_post=values.copy(),
        vi_residual_pre=0.0,
        vi_residual_post=0.0,
        chains=chains,
        stationary={},
        cost_rates=SwitchingCostRates(1.0, 0.0, 1.0, 0.0),
        weight=weight,
        value_table=table,
        fp_iterations=iterations,
        fp_residual=0.0,
        thresholds=extract_thresholds(table, operator, weight),
    )


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
        draw(st.sampled_from([0.005, 0.02, 0.1, 0.3, 0.5])),
    )
    env = SwitchingEnv(
        mdp=mdp,
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
    run_batch(replace(solved, thresholds=thresholds), 4, 10, 0)


def _evaluate_switch_rule(solved, thresholds):
    evaluate_switch_rule(thresholds, BeliefOperator(solved.dyn, solved.grid), solved.weight)


@pytest.mark.parametrize("entry", [_run_batch, _evaluate_switch_rule])
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


def stepped_episodes(solved, n_episodes, horizon, master):
    """Episodes ``0 .. n_episodes - 1`` under ``solved.thresholds``, stepped
    one at a time from the documented streams: the scalar reference the lane
    kernel must match bit for bit.  Returns a column per
    :class:`EpisodeBatch` field and three that the regret decomposition
    reads: ``state_at_switch``, the detection controller's state when the
    rule fired (-1 if it never fired); ``state_at_change``, its state at the
    change point (-1 if the change lies at or past the horizon); and
    ``regret_pre_switch``, ``cost_cd - cost_mo`` as it stood when the rule
    fired (at the horizon if it never fired).

    Each episode draws one standard exponential ``E``, whose change point at
    rate ``rho`` is ``ceil(-E / log1p(-rho))`` clamped at ``INT64_MAX``,
    derived here in plain Python; then one uniform for the start state and
    one uniform per step.  The detection controller follows the pre-change
    policy until its belief reaches its state's threshold and the post-change
    policy afterwards; the baseline switches at the change point.  A rule
    that never fires records the horizon as its switch time.  The objective
    is summed step by step: the weight once, at the switch or at the horizon,
    if the change had not come before it, and 1.0 for every pre-switch step
    after the step the change governs; the batch writes it in closed form.

    The kernels, costs and policies are read from ``solved.env`` and the
    policy arrays, never from ``solved.chains``, so a match also checks the
    chains the kernel steps through.  Tables are read as Python lists, and a
    transition is found with ``bisect_right``, which counts the cumulative
    entries at or below a uniform as ``searchsorted(..., side="right")``
    does."""
    env, mdp = solved.env, solved.env.mdp
    last = mdp.n_states - 1
    cum_initial = np.cumsum(env.initial_dist).tolist()
    cum = {True: np.cumsum(mdp.kernel_pre, axis=2).tolist(),
           False: np.cumsum(mdp.kernel_post, axis=2).tolist()}
    cost = {True: env.cost_pre.tolist(), False: env.cost_post.tolist()}
    kernel_pre, kernel_post = mdp.kernel_pre.tolist(), mdp.kernel_post.tolist()
    policy = {True: solved.policy_pre.tolist(), False: solved.policy_post.tolist()}
    thresholds = np.asarray(solved.thresholds, dtype=float).tolist()
    weight = solved.weight
    rows = []
    for index in range(n_episodes):
        rng = episode_rng(master, index)
        change_point = min(
            math.ceil(-rng.standard_exponential() / math.log1p(-mdp.change_rate)), 2**63 - 1
        )
        start_u = float(rng.random())
        step_u = rng.random(horizon).tolist()
        state_cd = state_mo = min(bisect.bisect_right(cum_initial, start_u), last)
        belief, switched, switch_time = 0.0, False, horizon
        state_at_switch = state_at_change = -1
        cost_cd = cost_mo = objective = 0.0
        disc = 1.0
        for t in range(horizon):
            if t == change_point:
                state_at_change = state_cd
            if not switched and belief >= thresholds[state_cd]:
                switched, switch_time, state_at_switch = True, t, state_cd
                regret_pre_switch = cost_cd - cost_mo
                if change_point >= t:
                    objective += weight
            pre_change = t < change_point
            action_cd = policy[not switched][state_cd]
            action_mo = policy[pre_change][state_mo]
            cost_cd += disc * cost[pre_change][state_cd][action_cd]
            cost_mo += disc * cost[pre_change][state_mo][action_mo]
            if not switched and change_point < t:
                objective += 1.0
            u = step_u[t]
            next_cd = min(bisect.bisect_right(cum[pre_change][state_cd][action_cd], u), last)
            next_mo = min(bisect.bisect_right(cum[pre_change][state_mo][action_mo], u), last)
            if not switched:
                belief = float(bayes_step(
                    belief,
                    kernel_pre[state_cd][action_cd][next_cd],
                    kernel_post[state_cd][action_cd][next_cd],
                    mdp.change_rate,
                )[0])
            state_cd, state_mo = next_cd, next_mo
            disc *= mdp.discount
        if not switched:
            regret_pre_switch = cost_cd - cost_mo
            if change_point >= horizon:
                objective += weight
        rows.append(dict(
            change_point=change_point, switch_time=switch_time, cost_cd=cost_cd,
            cost_mo=cost_mo, false_alarm=switch_time < change_point,
            delay=max(switch_time - change_point, 0), objective_realized=objective,
            truncated=not switched, state_at_switch=state_at_switch,
            state_at_change=state_at_change, regret_pre_switch=regret_pre_switch,
        ))
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def assert_batch_matches_oracle(batch, solved, horizon, master):
    """Every field of ``batch`` equals :func:`stepped_episodes` of the same
    episodes, bit for bit; returns the stepped records, so a decomposition
    reads the episodes the batch ran."""
    records = stepped_episodes(solved, batch.n_episodes, horizon, master)
    for field in fields(EpisodeBatch):
        column = getattr(batch, field.name)
        assert records[field.name].astype(column.dtype).tobytes() == column.tobytes(), field.name
    return records


def decomposition_loop(solved, records):
    """Per-episode regret of the decomposition, one episode at a time from
    finite_horizon_cost and matrix powers: each episode's realized cost
    difference up to the switch plus, at the switch, the expected
    regret-to-go of the induced chains.  The false-alarm branch runs the two
    policies until the change and then the post-change chain's infinite
    tail; the delay branch compares the post-change chain started at the
    switch state with the same chain propagated from the state at the
    change.  Episodes whose rule never fired keep their realized part."""
    discount = solved.env.mdp.discount
    c21, c11, c22 = (solved.chains[pair] for pair in ((2, 1), (1, 1), (2, 2)))
    tail = np.linalg.solve(np.eye(c22.n_states) - discount * c22.transition, c22.cost_vec)
    power = np.linalg.matrix_power
    totals = records["regret_pre_switch"].copy()
    for i in np.flatnonzero(~records["truncated"]):
        tau, gamma = int(records["switch_time"][i]), int(records["change_point"][i])
        state = int(records["state_at_switch"][i])
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
            origin = int(records["state_at_change"][i])
            to_go = tail[state] - power(c22.transition, tau - gamma)[origin] @ tail
        totals[i] += discount**tau * to_go
    return totals


class TwoArgumentError(MemoryError):
    """Built from a shape and a dtype, as numpy's ``_ArrayMemoryError`` is."""

    def __init__(self, shape, dtype):
        super().__init__(shape, dtype)
        self.shape, self.dtype = shape, dtype

    def __str__(self):
        return f"Unable to allocate an array with shape {self.shape} and data type {self.dtype}"


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


class TestRunBatch:
    def test_batch_matches_scalar_reference(self, small_solved):
        # 0.5 lies where numpy's ``geometric`` searches instead of inverting.
        horizon, master = 90, 17
        for solved in (small_solved, at_rate(small_solved, 0.5)):
            batch = run_batch(solved, 40, horizon, master)
            assert_batch_matches_oracle(batch, solved, horizon, master)

    @pytest.mark.parametrize("rate", [0.5, 0.9])
    def test_change_points_are_geometric(self, small_solved, rate):
        # 20,000 fixed-seed streams: each of the frequencies of change points
        # 1, 2 and 3 lies within 4 standard errors of rate * (1 - rate)**(k - 1).
        n_episodes = 20_000
        change_point = run_batch(at_rate(small_solved, rate), n_episodes, 1, 23).change_point
        for k in (1, 2, 3):
            p = rate * (1.0 - rate) ** (k - 1)
            frequency = np.count_nonzero(change_point == k) / n_episodes
            assert abs(frequency - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n_episodes), k

    @given(data=st.data(), master=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_oracle_on_random_instances(self, small_solved, data, master):
        solved = data.draw(small_instances(small_solved))
        # Horizons on both sides of one and two uniform blocks.
        block = simulate._BLOCK
        for horizon in (1, block - 1, block, block + 1, 2 * block + 89):
            batch = run_batch(solved, 12, horizon, master)
            assert_batch_matches_oracle(batch, solved, horizon, master)

    def test_degenerate_zero_threshold_matches_baseline(self, degenerate_solved):
        # Identical kernels and policies: switching immediately changes nothing.
        batch = run_batch(replace(degenerate_solved, thresholds=np.zeros(3)), 200, 60, 11)
        assert np.all(batch.switch_time == 0)
        assert batch.cost_cd.tobytes() == batch.cost_mo.tobytes()

    def test_batch_across_a_chunk_boundary_matches_oracle(self, small_solved):
        # Three episodes more than one chunk holds: two near-equal chunks.
        horizon, master = 20, 2**40 + 3
        width = simulate._Pass([small_solved], [horizon]).chunk_width()
        batch = run_batch(small_solved, width + 3, horizon, master)
        assert_batch_matches_oracle(batch, small_solved, horizon, master)

    def test_full_width_batch_stays_within_the_chunk_budget(self, small_solved):
        # 6000 episodes run as two chunks.  The budget covers a chunk's
        # generators and code block; 2 MiB more covers the draw buffers, the
        # next-state table, the per-step arrays and the output columns.
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
        width = simulate._Pass([small_solved], [60]).chunk_width()
        cases = [
            (2100, small_solved),
            (2101, small_solved),  # does not divide evenly
            (width * 2 + 7, small_solved),  # more chunks than processes
            (3, small_solved),  # fewer episodes than workers
            (1, small_solved),
            (2101, replace(small_solved, thresholds=np.full(3, 0.3))),
        ]
        for n_episodes, solved in cases:
            forks.clear()
            serial = run_batch(solved, n_episodes, 60, 5, workers=1)
            assert not forks
            forked = run_batch(solved, n_episodes, 60, 5, workers=4)
            if n_episodes > 1 and simulate._available_cpus() > 1:
                assert forks
            assert_batches_identical(forked, serial)

    def test_plan_caps_processes_and_chunk_widths(self, monkeypatch):
        width = 4179  # one rate of the README instance
        n = 2 * width + 1
        assert simulate._plan(n, 1, width) == [[(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]]
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(simulate, "_available_cpus", lambda cpus=cpus: cpus)
            for n_episodes in (1, 2, 5, 6000, 3 * width + 1, 20000):
                for workers in (1, 2, 4, 10**6):
                    shares = simulate._plan(n_episodes, workers, width)
                    assert len(shares) == min(workers, n_episodes, cpus)
                    assert len({len(share) for share in shares}) == 1
                    chunks = [chunk for share in shares for chunk in share]
                    assert chunks[0][0] == 0 and chunks[-1][1] == n_episodes
                    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
                    sizes = [hi - lo for lo, hi in chunks]
                    assert 1 <= min(sizes) and max(sizes) <= width
                    assert max(sizes) - min(sizes) <= 1
        monkeypatch.delattr(os, "fork")
        assert len(simulate._plan(6000, 4, width)) == 1

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
            (
                "child-raises-two-arguments",
                MemoryError,
                r"^Unable to allocate .* data type float64 \(episodes \[20, 40\)\)$",
            ),
        ],
    )
    def test_worker_failures_leave_no_process_or_pipe(
        self, small_solved, monkeypatch, where, error, message
    ):
        parent = os.getpid()
        run_chunk = simulate._run_chunk

        def failing(*args):
            in_child = os.getpid() != parent
            if where == "child-raises" and in_child:
                raise ValueError("kernel broke")
            if where == "child-exits" and in_child:
                os._exit(3)
            if where == "child-raises-two-arguments" and in_child:
                raise TwoArgumentError((1024, 512), "float64")
            if where == "parent-raises" and not in_child:
                raise KeyboardInterrupt
            return run_chunk(*args)

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
        # zero thresholds fire at time 0, and any rule firing no later than
        # the change has nothing to show for it yet.  A rule firing at the
        # change itself does so in the state the change finds.  The states
        # and pre-switch regrets are the decomposition's records of the
        # batch's own episodes.
        horizon = 40
        solved_rule = assert_batch_matches_oracle(
            run_batch(small_solved, 600, horizon, 27), small_solved, horizon, 27
        )
        early = solved_rule["switch_time"] <= solved_rule["change_point"]
        assert 0 < early.sum() < early.size
        assert np.all(solved_rule["regret_pre_switch"][early] == 0.0)
        at_change = solved_rule["switch_time"] == solved_rule["change_point"]
        assert at_change.any()
        assert np.array_equal(
            solved_rule["state_at_switch"][at_change], solved_rule["state_at_change"][at_change]
        )
        assert np.all(solved_rule["regret_pre_switch"][at_change] == 0.0)
        beyond = solved_rule["change_point"] >= horizon
        assert beyond.any() and np.all(solved_rule["state_at_change"][beyond] == -1)

        for start in range(3):
            pinned = replace(
                small_solved, env=replace(small_solved.env, initial_dist=np.eye(3)[start])
            )
            eager_rule = replace(pinned, thresholds=np.zeros(3))
            eager = assert_batch_matches_oracle(
                run_batch(eager_rule, 300, horizon, 27), eager_rule, horizon, 27
            )
            assert np.all(eager["switch_time"] == 0)
            assert np.all(eager["state_at_switch"] == start)
            assert np.all(eager["regret_pre_switch"] == 0.0)

    def test_coupling_exact_on_unswitched_episodes(self, small_solved):
        horizon = 30
        batch = run_batch(replace(small_solved, thresholds=np.ones(3)), 500, horizon, 23)
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


#: The README's change-rate sweep.
README_RATES = (0.01, 0.0078, 0.006, 0.0046, 0.0036, 0.0028)


def at_rate(solved, rate):
    """``solved`` with its change rate replaced; its tables stay as they are."""
    return replace(solved, env=replace(solved.env, mdp=replace(solved.env.mdp, change_rate=rate)))


@pytest.fixture(scope="module")
def readme_sweep():
    """The README instance solved at each rate of its sweep, on a small grid."""
    return [
        solve_env(
            random_env(
                RandomMdpSpec(n_states=5, n_actions=3, seed=10, change_rate=rate, discount=0.999)
            ),
            grid_size=101,
        )
        for rate in README_RATES
    ]


class TestRunSweep:
    def test_readme_sweep_equals_per_rate_batches(self, readme_sweep):
        horizons = [int(np.ceil(2.0 / rate)) for rate in README_RATES]
        batches = simulate.run_sweep(readme_sweep, 300, horizons, 7)
        assert len(batches) == len(README_RATES)
        for solved, horizon, batch in zip(readme_sweep, horizons, batches):
            assert_batches_identical(batch, run_batch(solved, 300, horizon, 7))

    @pytest.mark.parametrize(
        ("rates", "horizons", "n_episodes"),
        [
            ((0.05, 0.02, 0.1), (60, 60, 60), 200),
            ((0.05, 0.08, 0.05), (40, 70, 40), 200),
            ((0.3, 1 / 3, 0.5, 0.05), (30, 20, 25, 40), 200),
            ((0.02, 0.05, 0.08), (25, 30, 20), None),
        ],
        ids=["equal-horizons", "duplicated-rate", "straddling-one-third", "chunk-boundary"],
    )
    def test_sweep_equals_per_rate_batches(self, small_solved, rates, horizons, n_episodes):
        solveds = [at_rate(small_solved, rate) for rate in rates]
        if n_episodes is None:
            # Three episodes more than one chunk of the three-rate pass
            # holds: two near-equal chunks.
            n_episodes = simulate._Pass(solveds, list(horizons)).chunk_width() + 3
        master = 2**40 + 3
        batches = simulate.run_sweep(solveds, n_episodes, list(horizons), master)
        for solved, horizon, batch in zip(solveds, horizons, batches):
            assert_batches_identical(batch, run_batch(solved, n_episodes, horizon, master))

    def test_pass_of_solves_with_different_chains(self):
        # Two instances that share a state count and discount, so one pass,
        # but not their kernels, costs, policies, thresholds or filter rows:
        # a kernel that read rate block 0's tables for both rates would
        # give the second batch the first instance's transitions.
        specs = [
            RandomMdpSpec(n_states=3, n_actions=2, seed=seed, change_rate=rate, discount=0.9)
            for seed, rate in ((3, 0.05), (8, 0.02))
        ]
        solveds = [solve_env(random_env(spec), grid_size=301) for spec in specs]
        transitions = [solved.chains[1, 1].transition for solved in solveds]
        assert not np.array_equal(*transitions)
        horizons, n_episodes, master = [60, 90], 300, 2**40 + 3
        batches = simulate.run_sweep(solveds, n_episodes, horizons, master)
        for solved, horizon, batch in zip(solveds, horizons, batches):
            assert_batches_identical(batch, run_batch(solved, n_episodes, horizon, master))
        assert_batch_matches_oracle(batches[1], solveds[1], horizons[1], master)

    def test_worker_count_does_not_matter(self, readme_sweep, forks):
        horizons = [int(np.ceil(2.0 / rate)) for rate in README_RATES]
        serial = simulate.run_sweep(readme_sweep, 2101, horizons, 5, workers=1)
        assert not forks
        forked = simulate.run_sweep(readme_sweep, 2101, horizons, 5, workers=2)
        if simulate._available_cpus() > 1:
            assert forks
        for batch, reference in zip(forked, serial):
            assert_batches_identical(batch, reference)

    def test_the_pass_is_built_once_per_sweep(self, readme_sweep, monkeypatch):
        # 6000 episodes of the six-rate pass run as three chunks, all
        # reading the one pass run_sweep built.
        coded, run_chunk = simulate._CodedTransitions, simulate._run_chunk
        built, chunks = [], []

        def recording(*args):
            built.append(None)
            return coded(*args)

        def chunk(lanes, *args):
            chunks.append(lanes)
            return run_chunk(lanes, *args)

        monkeypatch.setattr(simulate, "_CodedTransitions", recording)
        monkeypatch.setattr(simulate, "_run_chunk", chunk)
        simulate.run_sweep(readme_sweep, 6000, [3] * len(README_RATES), 0)
        assert len(built) == 1
        assert len(chunks) == 3 and chunks[0] is chunks[1] is chunks[2]

    @needs_two_cpus
    def test_forked_children_inherit_the_pass(self, readme_sweep, monkeypatch, forks):
        # A child that built its own pass would raise, and _received would
        # raise it again here.
        parent, coded = os.getpid(), simulate._CodedTransitions

        def parent_only(*args):
            if os.getpid() != parent:
                raise AssertionError("a forked child built the pass's transitions")
            return coded(*args)

        monkeypatch.setattr(simulate, "_CodedTransitions", parent_only)
        horizons = [int(np.ceil(2.0 / rate)) for rate in README_RATES]
        simulate.run_sweep(readme_sweep, 2101, horizons, 5, workers=2)
        assert forks

    def test_bench_chunk_plans(self, readme_sweep, monkeypatch):
        # The benchmark's Monte Carlo workloads on two CPUs: random-sweep's
        # six rates on one worker and mc-long's one rate (0.0028) on two, at
        # their full and smoke sizes.  A pass's width does not depend on its
        # grid, so the 101-point solves give the 1000-point sweep's plan.
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        sweep = simulate._Pass(readme_sweep, [3] * len(README_RATES)).chunk_width()
        one_rate = simulate._Pass(readme_sweep[-1:], [3]).chunk_width()
        assert simulate._plan(6000, 1, sweep) == [[(0, 2000), (2000, 4000), (4000, 6000)]]
        assert simulate._plan(6000, 2, one_rate) == [[(0, 3000)], [(3000, 6000)]]
        assert simulate._plan(300, 1, sweep) == [[(0, 300)]]
        assert simulate._plan(2100, 2, one_rate) == [[(0, 1050)], [(1050, 2100)]]

    def test_full_width_sweep_stays_within_the_chunk_budget(self, small_solved):
        # The six-rate pass runs 6000 episodes as three chunks; the bound is
        # the one-rate test's.
        solveds = [at_rate(small_solved, rate) for rate in README_RATES]
        simulate.run_sweep(solveds, 10, [10] * 6, 0)
        tracemalloc.start()
        try:
            simulate.run_sweep(solveds, 6000, [600] * 6, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < simulate._CHUNK_BYTES + 2 * 2**20

    def test_derived_change_points_are_numpys(self):
        # Below 1/3 numpy's ``geometric`` inverts the same exponential draw,
        # so this proves every stream at those rates, and so every stored
        # reference, is the one earlier versions drew with ``geometric``.
        # 1e-300 draws past 2**63, where numpy returns INT64_MAX.
        rates = np.array([0.3, 0.05, 0.0028, 1e-9, 1e-300])
        derived = np.empty((rates.size, 1), dtype=np.int64)
        for master in (0, 1, 2**64 + 5):
            for index in range(200):
                rng = episode_rng(master, index)
                simulate._change_points(np.array([rng.standard_exponential()]), rates, derived)
                start_u = rng.random()
                for rate, change_point in zip(rates, derived[:, 0]):
                    oracle = episode_rng(master, index)
                    assert oracle.geometric(rate) == change_point
                    assert oracle.random() == start_u

    def test_record_bytes_are_a_batchs(self, small_solved):
        batch = run_batch(small_solved, 3, 5, 0)
        itemsizes = [getattr(batch, field.name).itemsize for field in fields(EpisodeBatch)]
        assert sum(itemsizes) == simulate._RECORD_BYTES

    def test_validation(self, small_solved):
        with pytest.raises(ValueError, match="one horizon per solve"):
            simulate.run_sweep([small_solved], 10, [10, 20], 0)
        with pytest.raises(ValueError, match="one horizon per solve"):
            simulate.run_sweep([], 10, [], 0)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            simulate.run_sweep([small_solved, small_solved], 10, [10, 0], 0)

    def test_solves_of_another_shape_are_refused(self, small_solved):
        other_states = solve_env(
            random_env(RandomMdpSpec(n_states=4, n_actions=2, seed=9, discount=0.9)),
            grid_size=51,
        )
        mdp = small_solved.env.mdp
        other_discount = replace(
            small_solved, env=replace(small_solved.env, mdp=replace(mdp, discount=0.95))
        )
        for other in (other_states, other_discount):
            with pytest.raises(ValueError, match="share a state count and discount"):
                simulate.run_sweep([small_solved, other], 10, [10, 10], 0)


#: Width of a guide-table bin.
BIN = 2.0**-14


def cumulative(*rows):
    return np.cumsum(np.array(rows, dtype=np.float64), axis=1)


#: Flat tables of cumulative rows (one row per key), each with a case that
#: the guide table must code exactly.
CUT_TABLES = {
    "zero-probabilities": cumulative(
        [0.25, 0.0, 0.25, 0.5], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]
    ),
    "cut-on-a-bin-edge": cumulative(
        [3 * BIN, 0.5 - 3 * BIN, 0.0, 0.5], [0.5, 0.25, 0.25, 0.0], [BIN, BIN, 1.0 - 2 * BIN, 0.0]
    ),
    "cuts-inside-one-bin": cumulative(
        [0.5 + BIN / 4, BIN / 4, 0.5 - BIN / 2, 0.0],
        [0.5 + BIN * 3 / 4, 0.5 - BIN * 3 / 4, 0.0, 0.0],
    ),
    # cumsum rounds this row's second-to-last entry up to 1 + 2**-52.
    "cuts-above-one": cumulative(
        [0.23307483759885333, 0.668669044650072, 0.09825611775107475, 0.0], [0.5, 0.5, 0.0, 0.0]
    ),
    "cuts-beside-bin-edges": np.array(
        [
            [np.nextafter(0.25, 0.0), np.nextafter(0.5, 1.0), 0.75, 1.0],
            [np.nextafter(BIN, 0.0), np.nextafter(2 * BIN, 1.0), 0.5, 1.0],
        ]
    ),
    "one-state": cumulative([1.0], [1.0], [1.0]),
}


def zero_base(cum_rows):
    """Block bases of 0 for every key, so that next keys are next states."""
    return np.zeros(cum_rows.shape[0], dtype=np.intp)


def probe_uniforms(cum_rows, extra=()):
    """Every cut point, the floats beside each, every bin edge, 0, the
    largest uniform and ``extra``: the uniforms below 1 of these."""
    cuts = np.unique(cum_rows[:, :-1])
    uniforms = np.concatenate(
        [
            cuts,
            np.nextafter(cuts, 0.0),
            np.nextafter(cuts, 1.0),
            np.arange(2**14) * BIN,
            [0.0, 1.0 - 2.0**-53],
            np.asarray(extra, dtype=np.float64),
        ]
    )
    return uniforms[uniforms < 1.0]


def assert_codes_give_the_searched_states(cum_rows, uniforms, budgets=(None, 0)):
    """For every key, the next state read from the uniforms' codes is
    :func:`stepped_episodes`'s ``min(searchsorted(row, u, 'right'), n - 1)``:
    through the (code, key) table, and through the count on codes that a
    table over budget (here, a budget of 0) falls back to."""
    n_states = cum_rows.shape[1]
    keys = np.repeat(np.arange(cum_rows.shape[0])[:, None], uniforms.size, axis=1)
    for budget in budgets:
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(simulate, "_TABLE_BYTES", budget)
            transitions = simulate._CodedTransitions(cum_rows, zero_base(cum_rows))
        assert hasattr(transitions, "table") == (budget is None)
        code = transitions.encode(uniforms.copy(), np.empty(uniforms.shape, dtype=np.intp))
        assert code.dtype == transitions.dtype
        got = transitions.next_state(keys, code)
        assert got.dtype == np.intp
        for key, row in enumerate(cum_rows):
            expected = np.minimum(np.searchsorted(row, uniforms, side="right"), n_states - 1)
            assert np.array_equal(got[key], expected), (budget, key)


@pytest.fixture(params=["table", "count"])
def next_state_path(request, monkeypatch):
    """Runs a test with the (code, key) table, then with the count on codes
    that a table over budget falls back to."""
    if request.param == "count":
        monkeypatch.setattr(simulate, "_TABLE_BYTES", 0)
    return request.param


class TestCodedTransitions:
    @pytest.mark.parametrize("case", sorted(CUT_TABLES))
    def test_codes_give_the_searched_states(self, case):
        cum_rows = CUT_TABLES[case]
        assert_codes_give_the_searched_states(cum_rows, probe_uniforms(cum_rows))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 6),
        n_keys=st.integers(1, 8),
        spacing=st.sampled_from([0.0, BIN, BIN / 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_codes_give_the_searched_states_on_random_rows(self, seed, n_states, n_keys, spacing):
        # Probabilities on a grid of bin widths put cut points on bin edges,
        # and a finer grid several into one bin; some are zero.
        rng = np.random.default_rng(seed)
        probabilities = rng.random((n_keys, n_states)) * (rng.random((n_keys, n_states)) < 0.7)
        probabilities[:, 0] += 1e-3
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        if spacing:
            probabilities = np.round(probabilities / spacing) * spacing
        cum_rows = np.cumsum(probabilities, axis=1)
        assert_codes_give_the_searched_states(
            cum_rows, probe_uniforms(cum_rows, extra=rng.random(200))
        )

    @given(seed=st.integers(0, 2**32 - 1), n_keys=st.integers(1, 6), n_cuts=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_guide_is_the_edge_search(self, seed, n_keys, n_cuts):
        # Cut points anywhere, on bin edges, several in one bin, in the last
        # bin, and at or a rounding past 1, where cumulative rows can land.
        rng = np.random.default_rng(seed)
        pool = np.concatenate(
            [
                rng.random(4),
                rng.integers(0, 2**14, 4) * BIN,
                (rng.integers(0, 2**14) + rng.random(3)) * BIN,
                [1.0 - BIN / 2, 1.0, 1.0 + 2.0**-52, 1.0 + BIN],
            ]
        )
        entries = rng.choice(pool, (n_keys, n_cuts))
        cum_rows = np.column_stack([np.sort(entries, axis=1), np.ones(n_keys)])
        transitions = simulate._CodedTransitions(cum_rows, zero_base(cum_rows))
        scaled = transitions.scaled_cuts
        edges = np.arange(2**14 + 1, dtype=np.float64)
        at_edge = np.searchsorted(scaled, edges[:-1], side="right")
        below_next = np.searchsorted(scaled, edges[1:], side="left")
        expected = np.where(below_next > at_edge, transitions.search_mark, at_edge)
        assert transitions.guide.dtype == transitions.dtype
        assert np.array_equal(transitions.guide, expected)

    def test_many_cut_points_take_wider_codes(self):
        # 300 keys of 220 states hold more distinct cut points than a uint16
        # code can number, and their table would be far over budget.
        rng = np.random.default_rng(5)
        cum_rows = np.cumsum(rng.dirichlet(np.ones(220), size=300), axis=1)
        assert simulate._CodedTransitions(cum_rows, zero_base(cum_rows)).dtype == np.uint32
        uniforms = np.concatenate([rng.random(100), rng.choice(cum_rows[:, :-1].ravel(), 100)])
        assert_codes_give_the_searched_states(cum_rows, uniforms[uniforms < 1.0], budgets=(0,))

    @pytest.mark.parametrize(("n_cuts", "dtype"), [(254, np.uint8), (255, np.uint16)])
    def test_distinct_cut_points_set_the_code_dtype(self, n_cuts, dtype):
        # Two keys whose rows share some cut points and hold n_cuts distinct
        # ones in all, a few of them inside one guide-table bin.
        rng = np.random.default_rng(n_cuts)
        spread = rng.choice(np.arange(2**6, 2**20), n_cuts - 4, replace=False) / 2**20
        cuts = np.sort(np.concatenate([(np.arange(4) + 1) * BIN / 8, spread]))
        half = n_cuts // 2 + 2
        cum_rows = np.array(
            [np.append(cuts[:half], 1.0), np.append(cuts[n_cuts - half :], 1.0)]
        )
        assert np.unique(cum_rows[:, :-1]).size == n_cuts
        assert simulate._CodedTransitions(cum_rows, zero_base(cum_rows)).dtype == dtype
        assert_codes_give_the_searched_states(cum_rows, probe_uniforms(cum_rows))

    def test_readme_passes_code_in_one_byte(self, readme_sweep, monkeypatch):
        # The six-rate sweep and one rate of it (mc-long's instance: seed 10
        # at 0.0028 on a 101-point grid) share 44 distinct cut points.
        dtypes = []
        coded = simulate._CodedTransitions

        def recording(cum_rows, base):
            transitions = coded(cum_rows, base)
            dtypes.append(transitions.dtype)
            return transitions

        monkeypatch.setattr(simulate, "_CodedTransitions", recording)
        simulate.run_sweep(readme_sweep, 2, [3] * len(README_RATES), 0)
        run_batch(readme_sweep[-1], 2, 3, 0)
        assert dtypes == [np.uint8, np.uint8]

    def test_code_dtype_and_chunk_width(self, readme_sweep):
        assert simulate._code_dtype(0) == np.uint8
        assert simulate._code_dtype(254) == np.uint8
        assert simulate._code_dtype(255) == np.uint16
        assert simulate._code_dtype(2**16 - 2) == np.uint16
        assert simulate._code_dtype(2**16 - 1) == np.uint32
        assert simulate._code_dtype(2**32 - 2) == np.uint32
        with pytest.raises(ValueError, match="too many"):
            simulate._code_dtype(2**32 - 1)
        # Widths budget the bytes of the codes the built pass holds: the
        # README sweep's pass and one rate of it have 44 cut points and code
        # in one byte.
        sweep = simulate._Pass(readme_sweep, [3] * len(README_RATES))
        assert sweep.transitions.scaled_cuts.size == 44
        assert sweep.transitions.dtype == np.uint8
        assert sweep.chunk_width() == 2621
        assert simulate._Pass(readme_sweep[-1:], [3]).chunk_width() == 4179

    def test_count_on_codes_gives_the_tables_batches(self, small_solved, readme_sweep, monkeypatch):
        horizons = [int(np.ceil(2.0 / rate)) for rate in README_RATES]
        batch = run_batch(small_solved, 300, 700, 11)
        sweep = simulate.run_sweep(readme_sweep, 300, horizons, 4)
        counts = []
        count = simulate._CodedTransitions._count

        def counting(self, key, code):
            counts.append(None)
            return count(self, key, code)

        monkeypatch.setattr(simulate._CodedTransitions, "_count", counting)
        assert_batches_identical(run_batch(small_solved, 300, 700, 11), batch)
        assert not counts
        monkeypatch.setattr(simulate, "_TABLE_BYTES", 0)
        assert_batches_identical(run_batch(small_solved, 300, 700, 11), batch)
        for got, reference in zip(simulate.run_sweep(readme_sweep, 300, horizons, 4), sweep):
            assert_batches_identical(got, reference)
        assert counts


@pytest.fixture(scope="module")
def inventory_pair():
    """Inventory at capacity 15 (16 states) at two change rates."""
    return [
        solve_env(
            build_inventory(InventorySpec(capacity=15, change_rate=rate)),
            grid_size=101,
        )
        for rate in (0.05, 0.1)
    ]


class TestSixteenStates:
    # n * n = 256: a state or filter row held in a type narrower than intp
    # would wrap.
    def test_batch_matches_oracle(self, inventory_pair, next_state_path):
        solved = inventory_pair[0]
        batch = run_batch(solved, 60, 300, 5)
        records = assert_batch_matches_oracle(batch, solved, 300, 5)
        assert (~batch.truncated).any() and records["state_at_change"].max() == 15

    def test_sweep_equals_per_rate_batches(self, inventory_pair, next_state_path):
        horizons = [300, 200]
        batches = simulate.run_sweep(inventory_pair, 500, horizons, 9)
        for solved, horizon, batch in zip(inventory_pair, horizons, batches):
            assert_batches_identical(batch, run_batch(solved, 500, horizon, 9))


def dp_detection_statistics(solved, grid):
    """The rule's ``A = P(change >= switch)`` and ``D = E[(switch - change -
    1)+]`` from the belief DP on ``grid``.  For a fixed rule the value is
    affine in the weight, ``V = D + weight * A``, so the rule's value at
    weight 0 is D."""
    operator = BeliefOperator(solved.dyn, grid)

    def start_value(weight):
        table = evaluate_switch_rule(solved.thresholds, operator, weight)
        return float(solved.env.initial_dist @ table.values[0])

    delay = start_value(0.0)
    return (start_value(solved.weight) - delay) / solved.weight, delay


def assert_detection_statistics_match_the_dp(solved, batch):
    """The batch's A and D against the DP's on a 4000-point grid, within 3
    standard errors plus the grid term: how far the rule's grid-1000
    evaluation lies from its grid-4000 one.  A counts ``change >= switch``,
    not the batch's ``false_alarm`` (``switch < change``)."""
    assert batch.truncated.mean() < 1e-4
    coarse = dp_detection_statistics(solved, BeliefGrid.uniform(1000))
    fine = dp_detection_statistics(solved, BeliefGrid.uniform(4000))
    samples = (
        batch.change_point >= batch.switch_time,
        np.maximum(batch.switch_time - batch.change_point - 1, 0),
    )
    for name, sample, at_1000, at_4000 in zip("AD", samples, coarse, fine):
        stderr = sample.std(ddof=1) / math.sqrt(sample.size)
        gap = abs(sample.mean() - at_4000)
        assert gap <= 3 * stderr + abs(at_1000 - at_4000), (name, sample.mean(), at_4000, stderr)


class TestDetectionStatisticsMatchTheDp:
    # 4000 episodes at horizon 12 / rate: no episode is truncated.
    n_episodes = 4000
    master = 7

    def test_readme_sweep(self, solve_random):
        solveds = [solve_random(CANONICAL_SEED, rate) for rate in README_RATES]
        horizons = [math.ceil(12.0 / rate) for rate in README_RATES]
        batches = simulate.run_sweep(solveds, self.n_episodes, horizons, self.master, workers=2)
        for solved, batch in zip(solveds, batches):
            assert_detection_statistics_match_the_dp(solved, batch)

    # Seed 5 is left out: at this rate its weight is 4047 and its thresholds
    # are 0.999 and 1, where the rule's D converges slowly in the grid (24.9,
    # 25.7, 26.4, 26.9 and 27.3 at 1000 to 16,000 points, against 28.8 from
    # 20,000 episodes), so the 1000-to-4000 difference understates the error.
    @pytest.mark.parametrize("seed", [1, 2, 8, 9])
    def test_other_random_instances(self, solve_random, seed):
        rate = 0.0046
        solved = solve_random(seed, rate)
        batch = run_batch(solved, self.n_episodes, math.ceil(12.0 / rate), self.master, workers=2)
        assert_detection_statistics_match_the_dp(solved, batch)

    def test_inventory(self):
        solved = solve_env(
            build_inventory(InventorySpec(capacity=15, change_rate=0.01)),
            grid_size=1000,
        )
        batch = run_batch(solved, self.n_episodes, 1200, self.master, workers=2)
        assert_detection_statistics_match_the_dp(solved, batch)


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

    def test_preset_words_hand_over_four_uint64_words_only(self):
        words = seed_words(5, np.arange(2, dtype=np.uint64))
        preset = _PresetWords(words, 1)
        assert np.array_equal(preset.generate_state(4, np.uint64), words[1])
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
            with pytest.raises(ValueError, match="generate_state"):
                preset.generate_state(n_words, dtype)

    def test_generators_continue_the_documented_streams(self):
        for master in (0, 2**64 + 5):
            generators = episode_generators(master, 2**32 - 2, 2**32 + 2)
            for index, generator in zip(range(2**32 - 2, 2**32 + 2), generators):
                oracle = episode_rng(master, index)
                assert generator.bit_generator.state == oracle.bit_generator.state
                assert generator.standard_exponential() == oracle.standard_exponential()
                assert np.array_equal(generator.random(300), oracle.random(300))


class TestSummaries:
    def test_single_episode_report_matches_record(self, small_solved):
        batch = run_batch(small_solved, 1, 50, 13)
        report = summarize(batch)
        assert report.mean_cost_cd == batch.cost_cd[0]
        assert report.mean_cost_mo == batch.cost_mo[0]
        assert report.stderr_cost_cd == 0.0
        assert report.regret == batch.cost_cd[0] - batch.cost_mo[0]
        assert report.false_alarm_rate == float(batch.false_alarm[0])

    def test_summarize_aggregates_a_batch(self, small_solved):
        batch = run_batch(small_solved, 600, 80, 3)
        report = summarize(batch)
        assert 0.0 <= report.false_alarm_rate <= 1.0
        assert report.mean_delay >= 0.0
        assert np.isfinite(report.welch_t)
        # The paired regret is the plain reduction of the same batch, bit for bit.
        difference = batch.cost_cd - batch.cost_mo
        assert report.regret == float(difference.mean())
        assert report.stderr_regret == float(difference.std(ddof=1) / np.sqrt(600)) > 0.0


class TestExactRegret:
    def test_degenerate_modes_have_zero_regret(self, degenerate_solved):
        assert summarize(run_batch(degenerate_solved, 300, 120, 29)).regret == 0.0

    def test_one_episode_has_zero_stderr(self, small_solved):
        report = summarize(run_batch(small_solved, 1, 60, 1))
        assert report.stderr_regret == 0.0 and math.isfinite(report.regret)

    @pytest.mark.parametrize(
        ("thresholds", "n_episodes", "horizon", "master"),
        [(None, 300, 250, 53), (np.ones(3), 200, 1, 5)],
        ids=["fired", "never-fired"],
    )
    def test_decomposition_steps_match_the_batch(
        self, small_solved, thresholds, n_episodes, horizon, master
    ):
        # The decomposition's scalar steps run the batch's episodes, bit for
        # bit, and a rule that has not fired by the horizon leaves the
        # realized cost difference as its pre-switch regret.  Belief 0 never
        # reaches threshold 1 in one step, so the second rule never fires
        # and the decomposition keeps only realized terms.
        solved = small_solved
        if thresholds is not None:
            solved = replace(small_solved, thresholds=thresholds)
        batch = run_batch(solved, n_episodes, horizon, master)
        records = assert_batch_matches_oracle(batch, solved, horizon, master)
        truncated = batch.truncated
        difference = batch.cost_cd[truncated] - batch.cost_mo[truncated]
        assert records["regret_pre_switch"][truncated].tobytes() == difference.tobytes()
        if thresholds is None:
            assert 0 < (batch.switch_time < batch.change_point).sum() < n_episodes
        else:
            assert truncated.all()
            totals = decomposition_loop(solved, records)
            assert totals.tobytes() == (batch.cost_cd - batch.cost_mo).tobytes()

    @pytest.fixture(scope="class")
    def seed_7(self):
        """Random MDP seed 7 at change rate 0.1 and discount 0.9, grid 301."""
        return solve_env(
            random_env(
                RandomMdpSpec(n_states=3, n_actions=2, seed=7, change_rate=0.1, discount=0.9)
            ),
            grid_size=301,
        )

    @staticmethod
    def assert_decomposition_agrees(solved):
        """The decomposition of 1500 episodes at horizon 250 agrees with
        :func:`summarize`'s regret on the same episodes, up to what the tail
        cut at the horizon could have added, ``discount^H * max cost / (1 -
        discount)``; returns their records."""
        horizon = 250
        direct = summarize(run_batch(solved, 1500, horizon, 53))
        records = stepped_episodes(solved, 1500, horizon, 53)
        totals = decomposition_loop(solved, records)
        split_mean, split_err = float(totals.mean()), float(totals.std(ddof=1) / np.sqrt(1500))
        pooled = np.hypot(direct.stderr_regret, split_err)
        env, discount = solved.env, solved.env.mdp.discount
        cost_max = max(np.abs(env.cost_pre).max(), np.abs(env.cost_post).max())
        truncation_bound = discount**horizon * cost_max / (1.0 - discount)
        assert abs(direct.regret - split_mean) <= 3 * pooled + 10 * truncation_bound
        return records

    def test_decomposition_agrees_with_direct_estimator(self, seed_7):
        # On this instance the closed-form regret-to-go averages about nine
        # tolerances (the realized pre-switch part alone is 0.049 against a
        # direct 0.183), so a decomposition that drops it fails here.
        self.assert_decomposition_agrees(seed_7)

    def test_decomposition_agrees_on_a_rule_that_fires_early(self, seed_7):
        # At 0.3 times the optimal thresholds about two thirds of the episodes
        # are false alarms, so a decomposition that drops the regret-to-go of
        # the false-alarm branch (tau < gamma) reads about six tolerances off
        # (5.96-6.49 at masters 53 and 1-5; 0.81-1.04 at the optimal rule).
        records = self.assert_decomposition_agrees(
            replace(seed_7, thresholds=0.3 * seed_7.thresholds)
        )
        false_alarms = records["switch_time"] < records["change_point"]
        assert 0.5 < false_alarms.mean() < 0.8
