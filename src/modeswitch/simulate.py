"""Coupled Monte Carlo of the change-detection controller against the
mode-observing baseline, under common random numbers, plus regret estimators.

Per-episode randomness comes from its own stream,
``SeedSequence(entropy=master_seed, spawn_key=(episode_index,))``, consumed in
a fixed order (change point, one uniform for the start state, one uniform per
step), so results are a pure function of (master seed, episode index) no
matter how episodes are chunked or how many uniforms are drawn at a time.
Both controllers' transitions are driven by the same per-step uniform through
inverse-CDF sampling over the natural state order, so their trajectories (and
cost accumulations, operation for operation) coincide until the first time
their policies diverge.

:func:`run_batch` steps chunks of episodes through one vectorized kernel,
serially and in episode-index order.  Its per-step cost follows the work that
is left: once an episode has switched and passed its change point (it is
*settled*), both controllers run the post-change policy on the post-change
kernel, so it takes one flat table lookup per controller and no detection
bookkeeping.  :func:`run_episode` is the independent scalar reference the
kernel must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .detector import belief_update
from .pipeline import SolvedEnv

_CHUNK_SIZE = 1024
#: Steps of uniforms drawn per episode at a time (2 MB per buffer for a full chunk).
_BLOCK = 256


@dataclass(frozen=True)
class EpisodeRecord:
    """Outcome of one coupled episode.

    ``objective_realized`` is the realized payoff of the stopping problem the
    threshold DP solves: one unit for every pre-switch step whose *incoming*
    transition was already post-change (the change at time g is first visible
    in the transition it governs, so delay accrues from step g+1), plus the
    false-alarm weight when the switch fired no later than the change.  In
    closed form it equals ``(switch_time - change_point - 1)_+ +
    weight * 1{change_point >= switch_time}``, which is what the belief,
    defined as P(change strictly before t), prices; the plain detection
    metrics ``delay`` = (switch_time - change_point)_+ and ``false_alarm`` =
    (switch_time < change_point) are recorded alongside.

    ``state_at_switch`` is the detection controller's state when the rule
    fired (-1 if it never fired), ``state_at_change`` its state at the change
    point (-1 if the change lies at or past the horizon), and
    ``regret_pre_switch`` is ``cost_cd - cost_mo`` as it stood when the rule
    fired (at the horizon if it never fired).
    """

    change_point: int
    switch_time: int
    cost_cd: float
    cost_mo: float
    false_alarm: bool
    delay: int
    objective_realized: float
    truncated: bool
    state_at_switch: int
    state_at_change: int
    regret_pre_switch: float


@dataclass(frozen=True)
class EpisodeBatch:
    """Struct-of-arrays form of many episode records (episode-index order)."""

    change_point: np.ndarray
    switch_time: np.ndarray
    cost_cd: np.ndarray
    cost_mo: np.ndarray
    false_alarm: np.ndarray
    delay: np.ndarray
    objective_realized: np.ndarray
    truncated: np.ndarray
    state_at_switch: np.ndarray
    state_at_change: np.ndarray
    regret_pre_switch: np.ndarray

    @property
    def n_episodes(self) -> int:
        return self.change_point.size


@dataclass(frozen=True)
class SimReport:
    """Aggregates of one experiment, plus the seed that reproduces it."""

    n_episodes: int
    horizon: int
    mean_cost_cd: float
    stderr_cost_cd: float
    mean_cost_mo: float
    stderr_cost_mo: float
    false_alarm_rate: float
    mean_delay: float
    welch_t: float
    welch_df: float
    truncated_frac: float
    master_seed: int


@dataclass(frozen=True)
class RegretCheck:
    """Empirical detection cost against its DP prediction."""

    estimate: float
    stderr: float
    predicted: float
    tolerance: float
    consistent: bool


@dataclass(frozen=True)
class RegretEstimate:
    mean: float
    stderr: float
    truncation_bound: float


def episode_rng(master_seed: int, index: int) -> np.random.Generator:
    """The documented per-episode stream: spawn key = episode index."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    )


def _inverse_cdf(cumulative: np.ndarray, u: float) -> int:
    """Smallest index whose cumulative probability exceeds ``u``."""
    return min(int(np.searchsorted(cumulative, u, side="right")), cumulative.size - 1)


def run_episode(
    solved: SolvedEnv,
    change_point: int,
    horizon: int,
    rng: np.random.Generator,
    thresholds: np.ndarray | None = None,
    switch_at_change: bool = False,
) -> EpisodeRecord:
    """Simulate one coupled episode (scalar reference implementation).

    Consumes one uniform for the start state and then exactly one uniform per
    step.  The detection controller follows the pre-change policy until its
    belief crosses the per-state threshold (ties stop) and the post-change
    policy afterwards; the baseline switches exactly at the change point.
    If the rule never fires within ``horizon`` the switch time is recorded as
    ``horizon`` and the episode flagged truncated.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if change_point < 1:
        raise ValueError("change_point must be at least 1")
    env = solved.env
    mdp = env.mdp
    if thresholds is None:
        thresholds = solved.thresholds
    weight = solved.weight
    cum_initial = np.cumsum(env.initial_dist)
    cum_pre = np.cumsum(mdp.kernel_pre, axis=2)
    cum_post = np.cumsum(mdp.kernel_post, axis=2)

    start_u = float(rng.random())
    step_u = rng.random(horizon)

    state_cd = _inverse_cdf(cum_initial, start_u)
    state_mo = state_cd
    belief = 0.0
    switched = False
    switch_time = horizon
    state_at_switch = -1
    state_at_change = -1
    cost_cd = 0.0
    cost_mo = 0.0
    objective = 0.0
    disc = 1.0
    for t in range(horizon):
        if t == change_point:
            state_at_change = state_cd
        if not switched:
            fire = (t == change_point) if switch_at_change else (belief >= thresholds[state_cd])
            if fire:
                switched = True
                switch_time = t
                state_at_switch = state_cd
                regret_pre_switch = cost_cd - cost_mo
                if change_point >= t:
                    objective += weight
        pre_change = t < change_point
        kernel_cum = cum_pre if pre_change else cum_post
        cost_table = env.cost_pre if pre_change else env.cost_post
        action_cd = (solved.policy_post if switched else solved.policy_pre)[state_cd]
        action_mo = (solved.policy_pre if pre_change else solved.policy_post)[state_mo]
        cost_cd += disc * cost_table[state_cd, action_cd]
        cost_mo += disc * cost_table[state_mo, action_mo]
        if not switched and change_point < t:
            objective += 1.0
        u = float(step_u[t])
        next_cd = _inverse_cdf(kernel_cum[state_cd, action_cd], u)
        next_mo = _inverse_cdf(kernel_cum[state_mo, action_mo], u)
        if not switched:
            belief = belief_update(solved.dyn, state_cd, next_cd, belief)
        state_cd = next_cd
        state_mo = next_mo
        disc *= mdp.discount
    truncated = not switched
    if truncated:
        regret_pre_switch = cost_cd - cost_mo
        if change_point >= horizon:
            objective += weight
    return EpisodeRecord(
        change_point=change_point,
        switch_time=switch_time,
        cost_cd=cost_cd,
        cost_mo=cost_mo,
        false_alarm=switch_time < change_point,
        delay=max(switch_time - change_point, 0),
        objective_realized=objective,
        truncated=truncated,
        state_at_switch=state_at_switch,
        state_at_change=state_at_change,
        regret_pre_switch=regret_pre_switch,
    )


def _run_chunk(
    solved: SolvedEnv,
    horizon: int,
    master_seed: int,
    lo: int,
    hi: int,
    thresholds: np.ndarray,
    switch_at_change: bool,
) -> EpisodeBatch:
    """Vectorized episode runner for indices [lo, hi).

    Produces, for every episode index, the record :func:`run_episode` returns,
    bit for bit: the same comparisons and the same cost additions in the same
    order.

    Both controllers (row 0 detection, row 1 baseline) step through one flat
    table keyed by ``(2 * policy_mode + kernel_mode) * n + state``.  The
    kernel mode is 1 from the change point on; the baseline's policy mode
    equals it and the detection controller's is 1 once it has switched.  Each
    episode keeps one key offset per controller, moved only at the switch and
    at the change.  A step is a ``take`` of stage costs and a count of the
    cumulative-row entries at or below the step's uniform, which is
    :func:`run_episode`'s ``searchsorted``.

    An episode is *settled* once it has switched and its change point is at
    or before the current step; from then on only its costs and states move.
    The detection bookkeeping (change and fire checks, switch and change
    records, pre-switch regret, belief update) runs only on the unsettled
    episodes, an index array compacted after every step.  The realized
    objective is written at the end in closed form.

    Each episode's step uniforms come from its own generator, ``_BLOCK`` steps
    at a time, filled episode by episode and transposed into a (block, chunk)
    array so each step reads one contiguous row.  ``random(k)`` followed by
    ``random(m)`` yields the same values as ``random(k + m)``, so the draws
    do not depend on the block length and memory does not grow with the
    horizon.
    """
    env = solved.env
    mdp = env.mdp
    n_states = mdp.n_states
    weight = solved.weight
    rate = solved.dyn.change_rate
    size = hi - lo

    change_point = np.empty(size, dtype=np.int64)
    start_u = np.empty(size)
    rngs = []
    for i in range(size):
        rng = episode_rng(master_seed, lo + i)
        change_point[i] = rng.geometric(rate)
        start_u[i] = rng.random()
        rngs.append(rng)

    # Flat tables over keys (2 * policy_mode + kernel_mode) * n + state.
    cum_kernel = np.cumsum(np.stack((mdp.kernel_pre, mdp.kernel_post)), axis=3)
    stage_cost = np.stack((env.cost_pre, env.cost_post))
    policy = np.stack((solved.policy_pre, solved.policy_post))
    kernel_mode = np.array([0, 1, 0, 1])[:, None]
    states = np.arange(n_states)
    action = policy[np.array([0, 0, 1, 1])[:, None], states]
    flat_cost = stage_cost[kernel_mode, states, action].ravel()
    # Transposed cumulative rows without their last entry: cumulative sums of
    # nonnegative probabilities never decrease, so the last entry is at or
    # below u only when all others are, and the count is capped at n - 1.
    flat_cum_t = np.ascontiguousarray(
        cum_kernel[kernel_mode, states, action, :-1].reshape(4 * n_states, n_states - 1).T
    )
    pre_rows = solved.dyn.kernel_pre.ravel()
    post_rows = solved.dyn.kernel_post.ravel()

    # Row 0 is the detection controller, row 1 the baseline.
    state = np.empty((2, size), dtype=np.intp)
    state[:] = np.minimum(
        np.searchsorted(np.cumsum(env.initial_dist), start_u, side="right"), n_states - 1
    )
    offset = np.zeros((2, size), dtype=np.intp)
    cost = np.zeros((2, size))
    switch_time = np.full(size, horizon, dtype=np.int64)
    state_at_switch = np.full(size, -1, dtype=np.int64)
    state_at_change = np.full(size, -1, dtype=np.int64)
    regret_pre_switch = np.zeros(size)
    # Unsettled episodes: chunk indices plus their change points, switch flags
    # and beliefs, compacted together.
    live = np.arange(size)
    live_change = change_point
    live_switched = np.zeros(size, dtype=bool)
    belief = np.zeros(size)
    draws = np.empty((size, min(_BLOCK, horizon)))
    step_u = np.empty((draws.shape[1], size))
    disc = 1.0
    for t in range(horizon):
        row = t % _BLOCK
        if row == 0:
            count = min(_BLOCK, horizon - t)
            for i, rng in enumerate(rngs):
                rng.random(out=draws[i, :count])
            np.copyto(step_u[:count], draws[:, :count].T)

        if live.size:
            live_state = state[0, live]
            at_change = live_change == t
            if at_change.any():
                changed = live[at_change]
                state_at_change[changed] = live_state[at_change]
                offset[0, changed] += n_states
                offset[1, changed] = 3 * n_states
            if switch_at_change:
                fire = ~live_switched & at_change
            else:
                fire = ~live_switched & (belief >= thresholds[live_state])
            if fire.any():
                fired = live[fire]
                switch_time[fired] = t
                state_at_switch[fired] = live_state[fire]
                regret_pre_switch[fired] = cost[0, fired] - cost[1, fired]
                offset[0, fired] += 2 * n_states
                live_switched |= fire

        key = offset + state
        cost += disc * flat_cost.take(key)
        state = np.add.reduce(flat_cum_t.take(key, axis=1) <= step_u[row], axis=0, dtype=np.intp)

        if live.size:
            moved = live_state * n_states + state[0, live]
            drifted = belief + rate * (1.0 - belief)
            changed_mass = drifted * post_rows.take(moved)
            total_mass = changed_mass + (1.0 - drifted) * pre_rows.take(moved)
            updated = np.where(
                total_mass > 0.0, changed_mass / np.where(total_mass > 0.0, total_mass, 1.0), 1.0
            )
            belief = np.where(live_switched, belief, updated)
            keep = ~live_switched | (live_change > t)
            if not keep.all():
                live = live[keep]
                live_change = live_change[keep]
                live_switched = live_switched[keep]
                belief = belief[keep]
        disc *= mdp.discount

    cost_cd, cost_mo = cost
    truncated = switch_time == horizon
    regret_pre_switch[truncated] = cost_cd[truncated] - cost_mo[truncated]
    # run_episode adds either the weight once or 1.0 per step, never both, so
    # its stepwise sum is exactly this closed form.
    objective = np.where(
        change_point >= switch_time, weight, np.maximum(switch_time - change_point - 1, 0)
    )
    return EpisodeBatch(
        change_point=change_point,
        switch_time=switch_time,
        cost_cd=cost_cd,
        cost_mo=cost_mo,
        false_alarm=switch_time < change_point,
        delay=np.maximum(switch_time - change_point, 0),
        objective_realized=objective,
        truncated=truncated,
        state_at_switch=state_at_switch,
        state_at_change=state_at_change,
        regret_pre_switch=regret_pre_switch,
    )


def _concat(batches: list[EpisodeBatch]) -> EpisodeBatch:
    return EpisodeBatch(
        **{
            f.name: np.concatenate([getattr(b, f.name) for b in batches])
            for f in fields(EpisodeBatch)
        }
    )


def run_batch(
    solved: SolvedEnv,
    n_episodes: int,
    horizon: int,
    master_seed: int,
    workers: int = 1,
    thresholds: np.ndarray | None = None,
    switch_at_change: bool = False,
) -> EpisodeBatch:
    """Run ``n_episodes`` coupled episodes in chunks of ``_CHUNK_SIZE``.

    The chunks run one after another on the calling thread, in episode-index
    order.  ``workers`` is accepted (and must be at least 1) for callers and
    configs that still pass it; it changes nothing.  A thread pool measured
    slower than this serial loop, because the kernel's numpy calls on
    chunk-sized arrays hold the interpreter lock most of the time.
    """
    if n_episodes < 1:
        raise ValueError("no episodes requested")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if thresholds is None:
        thresholds = solved.thresholds
    else:
        thresholds = np.asarray(thresholds, dtype=float)
    parts = [
        _run_chunk(
            solved, horizon, master_seed, lo, min(lo + _CHUNK_SIZE, n_episodes), thresholds,
            switch_at_change,
        )
        for lo in range(0, n_episodes, _CHUNK_SIZE)
    ]
    return _concat(parts)


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def summarize(batch: EpisodeBatch, horizon: int, master_seed: int) -> SimReport:
    """Aggregate a batch in episode order into a report."""
    n = batch.n_episodes
    var_cd = float(batch.cost_cd.var(ddof=1)) if n > 1 else 0.0
    var_mo = float(batch.cost_mo.var(ddof=1)) if n > 1 else 0.0
    pooled = var_cd / n + var_mo / n
    if pooled > 0.0:
        welch_t = float((batch.cost_cd.mean() - batch.cost_mo.mean()) / math.sqrt(pooled))
        welch_df = pooled**2 / (
            (var_cd / n) ** 2 / (n - 1) + (var_mo / n) ** 2 / (n - 1)
        )
    else:
        welch_t = 0.0
        welch_df = float(n - 1)
    return SimReport(
        n_episodes=n,
        horizon=horizon,
        mean_cost_cd=float(batch.cost_cd.mean()),
        stderr_cost_cd=_stderr(batch.cost_cd),
        mean_cost_mo=float(batch.cost_mo.mean()),
        stderr_cost_mo=_stderr(batch.cost_mo),
        false_alarm_rate=float(batch.false_alarm.mean()),
        mean_delay=float(batch.delay.mean()),
        welch_t=welch_t,
        welch_df=float(welch_df),
        truncated_frac=float(batch.truncated.mean()),
        master_seed=master_seed,
    )


def run_experiment(
    solved: SolvedEnv,
    n_episodes: int,
    horizon: int,
    master_seed: int,
    workers: int = 1,
) -> SimReport:
    """Simulate with the solved thresholds and aggregate."""
    batch = run_batch(solved, n_episodes, horizon, master_seed, workers)
    return summarize(batch, horizon, master_seed)


def regret_consistency(
    batch: EpisodeBatch, predicted: float, slack: float
) -> RegretCheck:
    """Compare the realized detection cost with its DP prediction.

    Requires the horizon to have been long enough that rule truncation is
    negligible (no more than one episode in 10^4).
    """
    truncated_frac = float(batch.truncated.mean())
    if truncated_frac >= 1e-4:
        raise RuntimeError(
            f"{truncated_frac:.2%} of episodes hit the horizon before switching; "
            "increase the horizon until that rate is below 1e-4"
        )
    estimate = float(batch.objective_realized.mean())
    stderr = _stderr(batch.objective_realized)
    tolerance = 3.0 * stderr + slack
    return RegretCheck(
        estimate=estimate,
        stderr=stderr,
        predicted=predicted,
        tolerance=tolerance,
        consistent=abs(estimate - predicted) <= tolerance,
    )


def estimate_exact_regret(
    solved: SolvedEnv,
    n_episodes: int,
    horizon: int,
    master_seed: int,
    thresholds: np.ndarray | None = None,
    switch_at_change: bool = False,
) -> RegretEstimate:
    """Monte Carlo mean of the discounted coupled cost difference, truncated at the horizon.

    The per-episode regret is ``cost_cd - cost_mo`` of one coupled batch.
    Before both the switch and the change the two trajectories coincide, so
    every stage difference there is exactly zero.  The reported truncation
    bound ``discount^horizon * max cost / (1 - discount)`` caps what the cut
    tail could have contributed.
    """
    env = solved.env
    mdp = env.mdp
    batch = run_batch(
        solved, n_episodes, horizon, master_seed,
        thresholds=thresholds, switch_at_change=switch_at_change,
    )
    totals = batch.cost_cd - batch.cost_mo
    cost_max = max(
        float(np.max(np.abs(env.cost_pre))), float(np.max(np.abs(env.cost_post)))
    )
    bound = mdp.discount**horizon * cost_max / (1.0 - mdp.discount)
    return RegretEstimate(float(totals.mean()), _stderr(totals), bound)


def estimate_regret_decomposition(
    solved: SolvedEnv, n_episodes: int, horizon: int, master_seed: int
) -> tuple[float, float]:
    """Regret estimate from realized pre-switch terms plus exact cost-to-go.

    Each episode of one coupled batch contributes its realized discounted
    cost difference up to the switch (``regret_pre_switch``, nonzero only
    over the delay period) plus, at the switch, the expected regret-to-go
    evaluated in closed form from the induced chains: the false-alarm branch
    compares running the two policies until the realized change and then
    matching infinite tails; the delay branch compares the post-change chain
    started at the switch state against the same chain started (and
    propagated) from the state at the change.  Episodes whose rule never
    fired contribute their realized part only.
    """
    mdp = solved.env.mdp
    discount = mdp.discount
    chain_21 = solved.chains[2, 1]
    chain_11 = solved.chains[1, 1]
    chain_22 = solved.chains[2, 2]
    eye = np.eye(mdp.n_states)
    tail_22 = np.linalg.solve(eye - discount * chain_22.transition, chain_22.cost_vec)

    batch = run_batch(solved, n_episodes, horizon, master_seed)

    # Closed-form cost-to-go pieces, built once up to the largest realized lag.
    max_lag = int(np.abs(batch.change_point - batch.switch_time).max())
    steps_21 = np.zeros((max_lag + 1, mdp.n_states))
    steps_11 = np.zeros((max_lag + 1, mdp.n_states))
    pow_21 = [np.eye(mdp.n_states)]
    pow_11 = [np.eye(mdp.n_states)]
    pow_22 = [np.eye(mdp.n_states)]
    disc = 1.0
    for m in range(1, max_lag + 1):
        steps_21[m] = steps_21[m - 1] + disc * (pow_21[-1] @ chain_21.cost_vec)
        steps_11[m] = steps_11[m - 1] + disc * (pow_11[-1] @ chain_11.cost_vec)
        pow_21.append(pow_21[-1] @ chain_21.transition)
        pow_11.append(pow_11[-1] @ chain_11.transition)
        pow_22.append(pow_22[-1] @ chain_22.transition)
        disc *= discount

    totals = batch.regret_pre_switch.copy()
    for i in np.flatnonzero(~batch.truncated):
        tau = int(batch.switch_time[i])
        gamma = int(batch.change_point[i])
        state = int(batch.state_at_switch[i])
        disc_tau = discount**tau
        if tau < gamma:
            lag = gamma - tau
            to_go = (
                steps_21[lag][state]
                - steps_11[lag][state]
                + discount**lag
                * float((pow_21[lag][state] - pow_11[lag][state]) @ tail_22)
            )
        else:
            lag = tau - gamma
            origin = int(batch.state_at_change[i])
            to_go = float(tail_22[state] - pow_22[lag][origin] @ tail_22)
        totals[i] += disc_tau * to_go
    return float(totals.mean()), _stderr(totals)
