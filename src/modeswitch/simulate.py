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

:func:`run_batch` steps chunks of episodes through one vectorized kernel; a
byte budget caps the chunk width.  With ``workers`` above 1 it forks worker
processes (where ``os.fork`` exists) that run their chunks beside the calling
process, and joins the chunks in episode-index order, so the batch is the
same, bit for bit, for any ``workers``.  The kernel's per-step cost follows
the work that is left: the detection bookkeeping runs only for episodes whose
rule has not fired, and an episode whose two controllers share a key (most of
them, once switched and past the change) steps one row for both.  The
kernel seeds its generators from SeedSequence words hashed for a whole chunk
at once; :func:`episode_rng` builds the same streams one episode at a time
and, with :func:`run_episode`, is the independent scalar reference the
kernel must match bit for bit.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .chains import k_step_costs
from .detector import bayes_step, check_thresholds
from .pipeline import SolvedEnv

#: Steps of uniforms drawn per episode at a time.
_BLOCK = 128
#: Episodes whose uniforms are drawn into the episode-major scratch at a time.
_SCRATCH_EPISODES = 256
#: Bytes one episode holds while its chunk runs: its generator (about 0.7 KB
#: seeded from precomputed words) and one block of step-major uniforms.
_EPISODE_BYTES = 768 + 8 * _BLOCK
#: Memory budget of a chunk's per-episode buffers; it sets the chunk width.
_CHUNK_BYTES = 11 * 2**19  # 5.5 MiB
_CHUNK_SIZE = _CHUNK_BYTES // _EPISODE_BYTES


@dataclass(frozen=True)
class EpisodeBatch:
    """Outcomes of coupled episodes, one array entry per episode in
    episode-index order.

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
) -> EpisodeBatch:
    """Simulate one coupled episode (scalar reference implementation) and
    return it as a one-episode batch.

    Consumes one uniform for the start state and then exactly one uniform per
    step.  The detection controller follows the pre-change policy until its
    belief crosses the per-state threshold (ties stop) and the post-change
    policy afterwards; the baseline switches exactly at the change point.
    If the rule never fires within ``horizon`` the switch time is recorded as
    ``horizon`` and the episode flagged truncated.

    It reads the kernels, costs and policies from ``solved.env`` and the
    policy arrays, never from ``solved.chains``, so matching it checks the
    chains the batch kernel steps through as well.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if change_point < 1:
        raise ValueError("change_point must be at least 1")
    env = solved.env
    mdp = env.mdp
    thresholds = check_thresholds(
        solved.thresholds if thresholds is None else thresholds, mdp.n_states
    )
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
            belief = float(
                bayes_step(
                    belief,
                    mdp.kernel_pre[state_cd, action_cd, next_cd],
                    mdp.kernel_post[state_cd, action_cd, next_cd],
                    mdp.change_rate,
                )[0]
            )
        state_cd = next_cd
        state_mo = next_mo
        disc *= mdp.discount
    truncated = not switched
    if truncated:
        regret_pre_switch = cost_cd - cost_mo
        if change_point >= horizon:
            objective += weight
    record = dict(
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
    return EpisodeBatch(**{name: np.array([value]) for name, value in record.items()})


def _fill_uniforms(
    rngs: list[np.random.Generator], step_u: np.ndarray, count: int, scratch: np.ndarray
) -> None:
    """Draw the next ``count`` step uniforms of every episode into the first
    ``count`` rows of the step-major ``step_u``.

    A generator fills only contiguous memory, so groups of episodes draw
    into the rows of the episode-major ``scratch`` and are transposed from
    there.
    """
    rows = [scratch[i, :count] for i in range(scratch.shape[0])]
    for lo in range(0, len(rngs), len(rows)):
        part = rngs[lo : lo + len(rows)]
        for rng, row in zip(part, rows):
            rng.random(out=row)
        step_u[:count, lo : lo + len(part)] = scratch[: len(part), :count].T


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
    order.  Its generators are built from vectorized seed words in the states
    :func:`episode_rng` gives them.

    Both controllers step through one flat table of the solve's induced
    chains, keyed by ``(2 * policy_mode + kernel_mode) * n + state`` with
    0-based modes, so the pairs (1, 1), (1, 2), (2, 1), (2, 2) follow one
    another; the filter reads the first two, the pre-change policy's rows.
    The kernel mode is 1 from the change point on; the baseline's policy mode
    equals it and the detection controller's is 1 once it has switched.
    Each episode keeps one key offset per controller, moved only at the
    switch and at the change.  A step is a ``take`` of stage costs and a
    count of the cumulative-row entries at or below the step's uniform, which
    is :func:`run_episode`'s ``searchsorted``.

    The baseline sits on the detection controller's key until a change or
    switch leaves their offsets unequal, and again once the offsets agree and
    a step lands both on the same state: from then on both see the same key
    and the same uniforms.  So one key per episode is stepped, and the
    baseline is stepped on its own only for the *split* episodes in between.
    A merged episode's cost increment is computed once and added to each
    controller's sum separately, so each sum keeps its own rounding.  With
    ``switch_at_change`` the switch and the change fall on the same step and
    no episode ever splits.

    Changes are read from a schedule of the chunk's change points.  The fire
    check and the belief update run only on the *live* episodes, those whose
    rule has not fired, an index array compacted when some fire; mirroring
    the baseline fires from the schedule and keeps no beliefs.  The realized
    objective is written at the end in closed form.

    Each episode's step uniforms come from its own generator, ``_BLOCK`` steps
    at a time, into a (block, chunk) array so each step reads one contiguous
    row.  ``random(k)`` followed by ``random(m)`` yields the same values as
    ``random(k + m)``, so the draws do not depend on the block length and
    memory does not grow with the horizon.
    """
    env = solved.env
    mdp = env.mdp
    n_states = mdp.n_states
    weight = solved.weight
    rate = mdp.change_rate
    size = hi - lo

    # numpy.random loads here, not at import: commands without a Monte
    # Carlo never pay for it.
    from ._seeding import episode_generators

    rngs = episode_generators(master_seed, lo, hi)
    change_point = np.array([rng.geometric(rate) for rng in rngs], dtype=np.int64)
    start_u = np.array([rng.random() for rng in rngs])

    chains = [solved.chains[pair] for pair in ((1, 1), (1, 2), (2, 1), (2, 2))]
    flat_cost = np.concatenate([chain.cost_vec for chain in chains])
    # Transposed cumulative rows without their last entry: cumulative sums of
    # nonnegative probabilities never decrease, so the last entry is at or
    # below u only when all others are, and the count is capped at n - 1.
    cum_rows = np.cumsum(np.concatenate([chain.transition for chain in chains]), axis=1)
    flat_cum_t = np.ascontiguousarray(cum_rows[:, :-1].T)

    def next_state(key: np.ndarray, u: np.ndarray) -> np.ndarray:
        below = flat_cum_t.take(key, axis=1) <= u
        return np.add.reduce(below, axis=0, dtype=np.intp)

    pre_rows = chains[0].transition.ravel()
    post_rows = chains[1].transition.ravel()

    state = np.minimum(
        np.searchsorted(np.cumsum(env.initial_dist), start_u, side="right"), n_states - 1
    )
    offset_cd = np.zeros(size, dtype=np.intp)
    offset_mo = np.zeros(size, dtype=np.intp)
    cost_cd = np.zeros(size)
    cost_mo = np.zeros(size)
    # Split episodes and their baseline states.
    split = np.empty(0, dtype=np.intp)
    split_state = np.empty(0, dtype=np.intp)
    switch_time = np.full(size, horizon, dtype=np.int64)
    state_at_switch = np.full(size, -1, dtype=np.int64)
    state_at_change = np.full(size, -1, dtype=np.int64)
    regret_pre_switch = np.zeros(size)
    # Episodes by change point, for the steps at which any change falls.
    order = np.argsort(change_point, kind="stable")
    change_steps, starts = np.unique(change_point[order], return_index=True)
    changes_at = dict(zip(change_steps.tolist(), np.split(order, starts[1:])))
    # Episodes whose rule may still fire, with their beliefs; mirroring the
    # baseline fires at the change and needs no belief.
    live = np.empty(0, dtype=np.intp) if switch_at_change else np.arange(size)
    belief = np.zeros(live.size)
    step_u = np.empty((min(_BLOCK, horizon), size))
    scratch = np.empty((min(_SCRATCH_EPISODES, size), step_u.shape[0]))
    disc = 1.0
    for t in range(horizon):
        row = t % _BLOCK
        if row == 0:
            _fill_uniforms(rngs, step_u, min(_BLOCK, horizon - t), scratch)
        u = step_u[row]

        events = []
        changed = changes_at.get(t)
        if changed is not None:
            state_at_change[changed] = state[changed]
            offset_cd[changed] += n_states
            offset_mo[changed] = 3 * n_states
            events.append(changed)
        fired = None
        if switch_at_change:
            fired = changed
        elif live.size:
            live_state = state.take(live)
            fire = belief >= thresholds.take(live_state)
            if fire.any():
                fired = live[fire]
                waiting = ~fire
                live = live[waiting]
                live_state = live_state[waiting]
                belief = belief[waiting]
        if fired is not None:
            switch_time[fired] = t
            state_at_switch[fired] = state[fired]
            regret_pre_switch[fired] = cost_cd[fired] - cost_mo[fired]
            offset_cd[fired] += 2 * n_states
            events.append(fired)
        if events:
            # An episode's first event splits it unless the change and the
            # switch fall on the same step.
            events = np.concatenate(events)
            entering = events[offset_cd[events] != offset_mo[events]]
            split = np.concatenate((split, entering))
            split_state = np.concatenate((split_state, state[entering]))

        key = offset_cd + state
        step_cost = disc * flat_cost
        increment = step_cost.take(key)
        cost_cd += increment
        if split.size:
            split_key = offset_mo[split] + split_state
            increment[split] = step_cost.take(split_key)
        cost_mo += increment
        state = next_state(key, u)
        if split.size:
            split_state = next_state(split_key, u[split])
            rejoined = (split_state == state[split]) & (offset_cd[split] == offset_mo[split])
            if rejoined.any():
                split = split[~rejoined]
                split_state = split_state[~rejoined]

        if live.size:
            moved = live_state * n_states + state.take(live)
            belief, _ = bayes_step(belief, pre_rows.take(moved), post_rows.take(moved), rate)
        disc *= mdp.discount

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


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _plan(n_episodes: int, workers: int) -> list[list[tuple[int, int]]]:
    """Episode ranges ``(lo, hi)`` of the chunks, grouped by the process that
    runs them; the groups follow one another in episode-index order.

    ``min(workers, n_episodes, available CPUs)`` processes run, one where
    ``os.fork`` does not exist.  One process runs chunks of ``_CHUNK_SIZE``;
    more each run the same number of near-equal chunks, no wider than
    ``_CHUNK_SIZE``.
    """
    n_procs = min(workers, n_episodes, _available_cpus()) if hasattr(os, "fork") else 1
    if n_procs == 1:
        return [
            [(lo, min(lo + _CHUNK_SIZE, n_episodes)) for lo in range(0, n_episodes, _CHUNK_SIZE)]
        ]
    per_proc = -(-n_episodes // (_CHUNK_SIZE * n_procs))
    n_chunks = n_procs * per_proc
    bounds = [i * n_episodes // n_chunks for i in range(n_chunks + 1)]
    chunks = list(zip(bounds[:-1], bounds[1:]))
    return [chunks[i : i + per_proc] for i in range(0, n_chunks, per_proc)]


def _serve_child(write_fd: int, run, share: list[tuple[int, int]]) -> None:
    """Forked child: send ``run(share)``, or the type and message of what it
    raised, through the pipe, and leave without running the parent's
    clean-up or exit handlers."""
    status = 1
    try:
        try:
            message = ("ok", run(share))
        except BaseException as exc:
            message = ("error", type(exc), str(exc))
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _received(data: bytes, status: int, share: list[tuple[int, int]]):
    """The result a child sent for ``share``; what it raised is raised again
    with the episode range added."""
    episodes = f"episodes [{share[0][0]}, {share[-1][1]})"
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        raise RuntimeError(
            f"the Monte Carlo worker for {episodes} exited with status {code} "
            "before sending its result"
        )
    message = pickle.loads(data)
    if message[0] == "error":
        _, kind, text = message
        raise kind(f"{text} ({episodes})")
    return message[1]


def _run_forked(shares: list[list[tuple[int, int]]], run) -> list:
    """``[run(share) for share in shares]``, the first share run here while
    a forked child runs each other one.

    Children are reaped in order as their results arrive.  If anything
    raises here, interrupts included, the children still running are killed
    and reaped and every pipe is closed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (pid, read end of its pipe, share)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns when a process with threads forks,
                    # and numpy's BLAS pool is such a thread.  The child runs
                    # only take/ufunc/Generator code, calls no BLAS (so takes
                    # none of the pool's locks) and leaves through os._exit.
                    warnings.filterwarnings(
                        "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning
                    )
                    pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _serve_child(write_fd, run, share)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), share))
        results = [run(shares[0])]
        while children:
            pid, pipe, share = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            results.append(_received(data, status, share))
        return results
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _check_seeding(master_seed: int) -> None:
    """Refuse to run if the vectorized seeding no longer reproduces numpy's
    SeedSequence stream for the first episode."""
    from ._seeding import episode_generators

    preset = episode_generators(master_seed, 0, 1)[0].bit_generator.state
    if preset != episode_rng(master_seed, 0).bit_generator.state:
        raise RuntimeError(
            f"numpy {np.__version__} seeds episode streams differently from "
            "modeswitch._seeding; the Monte Carlo would not reproduce the documented streams"
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
    """Run ``n_episodes`` coupled episodes in chunks of at most ``_CHUNK_SIZE``.

    With ``workers`` 1 the chunks run one after another in this process.
    With more, ``min(workers, n_episodes, available CPUs)`` processes share
    the chunks: this one runs the first share while forked children run the
    others and send their records back through pipes.  Each chunk is a pure
    function of (master seed, episode indices), so the batch is the same,
    bit for bit, for every ``workers``.  Where ``os.fork`` does not exist
    the chunks run serially.  A child's exception is raised here again with
    its episode range, and a child that dies without a result raises
    :class:`RuntimeError`.  Threads would not help: the kernel's numpy calls
    on chunk-sized arrays hold the interpreter lock most of the time.

    Before any chunk runs, the first episode's preset generator is checked
    against :func:`episode_rng`; a mismatch raises :class:`RuntimeError`
    naming the numpy version.
    """
    if n_episodes < 1:
        raise ValueError("no episodes requested")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    thresholds = check_thresholds(
        solved.thresholds if thresholds is None else thresholds, solved.env.mdp.n_states
    )
    _check_seeding(master_seed)

    def run(share: list[tuple[int, int]]) -> list[EpisodeBatch]:
        return [
            _run_chunk(solved, horizon, master_seed, lo, hi, thresholds, switch_at_change)
            for lo, hi in share
        ]

    shares = _plan(n_episodes, workers)
    results = [run(shares[0])] if len(shares) == 1 else _run_forked(shares, run)
    return _concat([part for parts in results for part in parts])


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
    discount = solved.env.mdp.discount
    chain_21 = solved.chains[2, 1]
    chain_11 = solved.chains[1, 1]
    chain_22 = solved.chains[2, 2]
    tail_22 = np.linalg.solve(
        np.eye(chain_22.n_states) - discount * chain_22.transition, chain_22.cost_vec
    )

    batch = run_batch(solved, n_episodes, horizon, master_seed)
    fired = ~batch.truncated
    switch_time = batch.switch_time[fired]
    change_point = batch.change_point[fired]
    state = batch.state_at_switch[fired]
    early = switch_time < change_point
    lag = np.abs(change_point - switch_time)
    # Cost-to-go tables up to the largest lag of a fired episode: lag steps
    # of a chain from each state, then the post-change tail (the false-alarm
    # branch), and the tail propagated lag steps through the post-change
    # chain (the delay branch, at the state at the change).
    max_lag = int(lag.max(initial=0))
    lead_21 = k_step_costs(chain_21.transition, chain_21.cost_vec, discount, max_lag, tail_22)
    lead_11 = k_step_costs(chain_11.transition, chain_11.cost_vec, discount, max_lag, tail_22)
    ahead_22 = k_step_costs(chain_22.transition, 0.0, 1.0, max_lag, tail_22)
    # An early switch's state at the change may be -1 (change past the
    # horizon); that branch discards the entry it indexes.
    to_go = np.where(
        early,
        lead_21[lag, state] - lead_11[lag, state],
        tail_22[state] - ahead_22[lag, batch.state_at_change[fired]],
    )
    totals = batch.regret_pre_switch.copy()
    totals[fired] += discount ** switch_time.astype(float) * to_go
    return float(totals.mean()), _stderr(totals)
