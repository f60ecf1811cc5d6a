"""Coupled Monte Carlo of the change-detection controller against the
mode-observing baseline, under common random numbers, plus regret estimators.

Per-episode randomness comes from its own stream,
``SeedSequence(entropy=master_seed, spawn_key=(episode_index,))``, consumed in
a fixed order (change point, one uniform for the start state, one uniform per
step), so results are a pure function of (master seed, episode index) no
matter how episodes are chunked across workers.  Both controllers' transitions
are driven by the same per-step uniform through inverse-CDF sampling over the
natural state order, so their trajectories (and cost accumulations, operation
for operation) coincide until the first time their policies diverge.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .detector import belief_update
from .pipeline import SolvedEnv

_CHUNK_SIZE = 1024


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

    def record(self, index: int) -> EpisodeRecord:
        return EpisodeRecord(
            change_point=int(self.change_point[index]),
            switch_time=int(self.switch_time[index]),
            cost_cd=float(self.cost_cd[index]),
            cost_mo=float(self.cost_mo[index]),
            false_alarm=bool(self.false_alarm[index]),
            delay=int(self.delay[index]),
            objective_realized=float(self.objective_realized[index]),
            truncated=bool(self.truncated[index]),
            state_at_switch=int(self.state_at_switch[index]),
            state_at_change=int(self.state_at_change[index]),
            regret_pre_switch=float(self.regret_pre_switch[index]),
        )


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

    Mirrors :func:`run_episode` operation for operation so that the two paths
    produce bitwise-identical records for the same episode index.
    """
    env = solved.env
    mdp = env.mdp
    n_states = mdp.n_states
    weight = solved.weight
    rate = solved.dyn.change_rate
    size = hi - lo

    change_point = np.empty(size, dtype=np.int64)
    start_u = np.empty(size)
    step_u = np.empty((size, horizon))
    for i in range(size):
        rng = episode_rng(master_seed, lo + i)
        change_point[i] = rng.geometric(rate)
        start_u[i] = rng.random()
        step_u[i] = rng.random(horizon)

    cum_initial = np.cumsum(env.initial_dist)
    # Pre/post tables stacked on a leading mode axis (0 pre-change, 1 post-change).
    cum_kernel = np.cumsum(np.stack((mdp.kernel_pre, mdp.kernel_post)), axis=3)
    cost = np.stack((env.cost_pre, env.cost_post))
    policy = np.stack((solved.policy_pre, solved.policy_post))
    pre_rows = solved.dyn.kernel_pre
    post_rows = solved.dyn.kernel_post

    state_cd = np.minimum(
        np.searchsorted(cum_initial, start_u, side="right"), n_states - 1
    ).astype(np.int64)
    state_mo = state_cd.copy()
    belief = np.zeros(size)
    switched = np.zeros(size, dtype=bool)
    switch_time = np.full(size, horizon, dtype=np.int64)
    state_at_switch = np.full(size, -1, dtype=np.int64)
    state_at_change = np.full(size, -1, dtype=np.int64)
    regret_pre_switch = np.zeros(size)
    cost_cd = np.zeros(size)
    cost_mo = np.zeros(size)
    objective = np.zeros(size)
    disc = 1.0
    for t in range(horizon):
        at_change = change_point == t
        state_at_change[at_change] = state_cd[at_change]
        if switch_at_change:
            fire = ~switched & at_change
        else:
            fire = ~switched & (belief >= thresholds[state_cd])
        switch_time[fire] = t
        state_at_switch[fire] = state_cd[fire]
        regret_pre_switch[fire] = cost_cd[fire] - cost_mo[fire]
        objective[fire & (change_point >= t)] += weight
        switched |= fire

        mode = (change_point <= t).astype(np.intp)
        action_cd = policy[switched.astype(np.intp), state_cd]
        action_mo = policy[mode, state_mo]
        cost_cd += disc * cost[mode, state_cd, action_cd]
        cost_mo += disc * cost[mode, state_mo, action_mo]
        objective[~switched & (change_point < t)] += 1.0

        u = step_u[:, t, None]
        rows_cd = cum_kernel[mode, state_cd, action_cd]
        rows_mo = cum_kernel[mode, state_mo, action_mo]
        next_cd = np.minimum((rows_cd <= u).sum(axis=1), n_states - 1)
        next_mo = np.minimum((rows_mo <= u).sum(axis=1), n_states - 1)

        drifted = belief + rate * (1.0 - belief)
        changed_mass = drifted * post_rows[state_cd, next_cd]
        total_mass = changed_mass + (1.0 - drifted) * pre_rows[state_cd, next_cd]
        updated = np.where(
            total_mass > 0.0, changed_mass / np.where(total_mass > 0.0, total_mass, 1.0), 1.0
        )
        belief = np.where(switched, belief, updated)
        state_cd = next_cd
        state_mo = next_mo
        disc *= mdp.discount

    truncated = ~switched
    objective[truncated & (change_point >= horizon)] += weight
    regret_pre_switch[truncated] = cost_cd[truncated] - cost_mo[truncated]
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
    """Run ``n_episodes`` coupled episodes; identical output for any worker count."""
    if n_episodes < 1:
        raise ValueError("no episodes requested")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if thresholds is None:
        thresholds = solved.thresholds
    else:
        thresholds = np.asarray(thresholds, dtype=float)
    bounds = [
        (lo, min(lo + _CHUNK_SIZE, n_episodes)) for lo in range(0, n_episodes, _CHUNK_SIZE)
    ]
    if workers <= 1 or len(bounds) == 1:
        parts = [
            _run_chunk(solved, horizon, master_seed, lo, hi, thresholds, switch_at_change)
            for lo, hi in bounds
        ]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda span: _run_chunk(
                        solved, horizon, master_seed, span[0], span[1], thresholds,
                        switch_at_change,
                    ),
                    bounds,
                )
            )
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
