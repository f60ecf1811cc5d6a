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

A sweep's rates share each episode's stream as well.  Below 1/3, numpy's
``geometric(rate)`` is ``ceil(-E / log1p(-rate))`` of one standard-exponential
draw ``E``, which does not depend on the rate; so every rate's change point
comes from the same draw, and the start uniform and step uniforms after it
are the same numbers at every rate (common random numbers across the sweep).
:func:`run_sweep` therefore steps the rates below 1/3 as one pass of *lanes*,
one per (rate, episode): each episode's generator and uniform blocks serve
all its lanes, and each chunk-step steps them all.  A rate from 1/3 on, where
numpy draws by search, runs alone.  :func:`run_batch` is a sweep of one solve.

Chunks of episodes step through one vectorized kernel; a byte budget caps
the chunk width, which therefore shrinks with the number of rates in a pass
and with the state count.  With ``workers`` above 1 the chunks are run by
forked worker processes (where ``os.fork`` exists) beside the calling
process, and joined in episode-index order, so every batch is the same, bit
for bit, for any ``workers``.  The kernel's per-step cost follows the work
that is left: the detection bookkeeping runs only for lanes whose rule has
not fired, a lane whose two controllers share a key (most of them, once
switched and past the change) steps one row for both, and a rate's lanes
stop at its horizon.  The kernel seeds its generators from SeedSequence
words hashed for a whole chunk at once; :func:`episode_rng` builds the same
streams one episode at a time and, with :func:`run_episode`, is the
independent scalar reference the kernel must match bit for bit.

The kernel keeps no step uniform as a float.  Each episode draws its step
uniforms ``_BLOCK`` (512) at a time and stores each as a uint16 *code*
(uint32 past 65,534 cut points): the number of the pass's distinct
cumulative cut points at or below it, found with a guide table of
``_GUIDE_BINS`` bins (:class:`_CodedTransitions`).  A uint16 block costs
1 KiB per episode.  A step's next state depends on its uniform
only through that code, so each lane steps by one ``take`` from a (code,
key) table of next states; a pass whose table would exceed
``_TABLE_BYTES`` counts codes against the cut rows' ranks instead.  The
kernel compares codes where :func:`run_episode` compares floats.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .chains import k_step_costs
from .detector import bayes_step, check_thresholds
from .pipeline import SolvedEnv

#: Steps of uniforms drawn per episode at a time.
_BLOCK = 512
#: Episodes whose uniforms are drawn and coded together: a float64 and an
#: intp buffer of ``_DRAW_GROUP * _BLOCK`` entries each, 256 KiB in all.
_DRAW_GROUP = 32
#: Equal bins of the guide table that codes a uniform; a power of two, so
#: ``u * _GUIDE_BINS`` is exact.
_GUIDE_BINS = 2**14
#: Bytes of an episode's generator, seeded from precomputed words.
_GENERATOR_BYTES = 704
#: Bytes one lane (a rate's copy of an episode) holds besides the rows of its
#: transition count: 19 eight-byte entries, for its state, two offsets, two
#: cost sums, five records, its change-schedule entry, four of belief
#: bookkeeping, and its key, increment, next state and filter row in a step.
#: The filter's own temporaries are not counted.
_LANE_BYTES = 8 * 19
#: Memory budget of a chunk's per-episode and per-lane buffers; it sets the
#: chunk width.
_CHUNK_BYTES = 11 * 2**19  # 5.5 MiB
#: Memory budget of a pass's (code, key) table of next states, on top of the
#: chunk's buffers; a pass whose table would be larger counts codes instead.
_TABLE_BYTES = 2**20
#: numpy's ``Generator.geometric(p)`` inverts one standard-exponential draw
#: below this rate and searches with one uniform from it on.
_INVERSION_BELOW = 1.0 / 3.0


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
        if not switched and belief >= thresholds[state_cd]:
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


def _code_dtype(n_cuts: int) -> np.dtype:
    """Dtype of the codes of a pass with up to ``n_cuts`` cut points: it
    holds the codes 0 to ``n_cuts`` and, above them, the guide table's mark
    for a bin that must be searched."""
    for dtype in (np.uint16, np.uint32):
        if n_cuts < np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"{n_cuts} cut points are too many to code as uint32")


class _CodedTransitions:
    """A pass's inverse-CDF transitions, read through uniform codes.

    ``cum_rows`` is the pass's flat table of cumulative transition rows, one
    row per key.  Its *cut points* are the distinct entries of
    ``cum_rows[:, :-1]``, and a uniform's *code* is the number of cut points
    at or below it.  The next state from key ``k`` at uniform ``u``,
    ``min(searchsorted(cum_rows[k], u, 'right'), n - 1)``, is the number of
    the row's first ``n - 1`` entries at or below ``u``: cumulative sums of
    nonnegative probabilities never decrease, so the last entry is at or
    below ``u`` only when all the others are.  Each of those entries is a cut
    point, so the next state depends on ``u`` only through its code.

    :meth:`encode` finds codes with a guide table of ``_GUIDE_BINS`` equal
    bins (Chen & Asau 1974; Devroye 1986, section III.2): a bin with no cut
    point strictly inside holds one code, and the uniforms that fall in a bin
    with one are searched.  :meth:`next_state` reads a (code, key) table of
    next states when it fits ``_TABLE_BYTES``; otherwise it counts the codes
    against the rows' entries coded as ranks among the cut points, which is
    the comparison of ``run_episode``'s search done on integers.
    """

    def __init__(self, cum_rows: np.ndarray):
        n_keys = cum_rows.shape[0]
        entries = cum_rows[:, :-1]
        self.dtype = _code_dtype(entries.size)
        self.search_mark = self.dtype.type(np.iinfo(self.dtype).max)
        ordered = np.sort(entries, axis=None)
        distinct = np.ones(ordered.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
        cuts = ordered[distinct]
        # Scaling by a power of two is exact, so scaled uniforms and scaled
        # cut points compare as the unscaled ones do.
        self.scaled_cuts = cuts * _GUIDE_BINS
        edges = np.arange(_GUIDE_BINS + 1, dtype=np.float64)
        at_edge = np.searchsorted(self.scaled_cuts, edges[:-1], side="right")
        below_next = np.searchsorted(self.scaled_cuts, edges[1:], side="left")
        self.guide = np.where(below_next > at_edge, self.search_mark, at_edge).astype(self.dtype)
        # An entry's rank is the code of the uniforms from it to the next cut.
        ranks = np.searchsorted(cuts, entries, side="right")
        n_codes = cuts.size + 1
        # The size is counted in Python integers before anything is built, so
        # neither it nor a (code, key) index can wrap.
        if n_codes * n_keys * np.dtype(np.intp).itemsize <= _TABLE_BYTES:
            self.n_keys = n_keys
            entry_at = ranks * n_keys + np.arange(n_keys, dtype=np.intp)[:, None]
            counts = np.bincount(entry_at.ravel(), minlength=n_codes * n_keys)
            self.table = np.cumsum(counts.reshape(n_codes, n_keys), axis=0, dtype=np.intp)
            self.next_state = self._look_up
        else:
            # The count is the only path whose memory stays bounded at large
            # n: the table holds up to about 16 * r**2 * n**3 entries (r rates).
            self.rank_t = np.ascontiguousarray(ranks.T)
            self.next_state = self._count

    def encode(self, u: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """Codes of the uniforms ``u``, which are scaled in place; ``bins`` is
        an intp buffer of ``u``'s shape."""
        np.multiply(u, _GUIDE_BINS, out=u)
        np.copyto(bins, u, casting="unsafe")  # u >= 0, so this floors it
        code = self.guide.take(bins)
        searched = np.flatnonzero(code == self.search_mark)
        if searched.size:
            code.flat[searched] = np.searchsorted(
                self.scaled_cuts, u.flat[searched], side="right"
            )
        return code

    def _look_up(self, key: np.ndarray, code: np.ndarray) -> np.ndarray:
        """Next states (intp) from the keys ``key`` at the codes ``code``,
        which broadcast over ``key``'s leading axes."""
        index = np.multiply(code, self.n_keys, dtype=np.intp)
        return self.table.take(np.add(key, index, dtype=np.intp))

    def _count(self, key: np.ndarray, code: np.ndarray) -> np.ndarray:
        below = self.rank_t.take(key, axis=1) <= code
        return np.add.reduce(below, axis=0, dtype=np.intp)


def _fill_codes(
    rngs: list[np.random.Generator],
    codes: np.ndarray,
    count: int,
    transitions: _CodedTransitions,
    uniforms: np.ndarray,
    bins: np.ndarray,
) -> None:
    """Draw the next ``count`` step uniforms of every episode and write their
    codes into the first ``count`` rows of the step-major ``codes``.

    A generator fills only contiguous memory, so groups of episodes draw
    into the rows of the episode-major ``uniforms``, are coded there (with
    ``bins``, an intp buffer of the same shape) and are transposed into
    ``codes``.
    """
    group = uniforms.shape[0]
    for lo in range(0, len(rngs), group):
        part = rngs[lo : lo + group]
        drawn = uniforms[: len(part), :count]
        for rng, row in zip(part, drawn):
            rng.random(out=row)
        code = transitions.encode(drawn, bins[: len(part), :count])
        codes[:count, lo : lo + len(part)] = code.T


def _change_points(exponential: np.ndarray, rates: np.ndarray | list[float]) -> np.ndarray:
    """``(rates, episodes)`` change points, each what ``geometric(rate)``
    draws below 1/3 from the episode's standard-exponential draw ``E``:
    ``ceil(-E / log1p(-rate))``, or ``INT64_MAX`` where that reaches 2**63."""
    scale = np.array([math.log1p(-rate) for rate in rates])
    drawn = np.ceil(-exponential / scale[:, None])
    huge = drawn >= 2.0**63
    change_point = np.where(huge, 0.0, drawn).astype(np.int64)
    change_point[huge] = np.iinfo(np.int64).max
    return change_point


def _run_chunk(
    solveds: list[SolvedEnv],
    horizons: list[int],
    master_seed: int,
    lo: int,
    hi: int,
) -> list[EpisodeBatch]:
    """Vectorized episode runner for indices [lo, hi), one batch per solve
    of the pass, each under its solve's ``thresholds``.  The solves share a
    state count and discount and come in decreasing horizon order, the
    lane-block order.  :func:`run_batch` runs a pass of one solve.

    A *lane* is one (rate, episode) pair, at index ``r * (hi - lo) + i``.
    Each lane produces the record :func:`run_episode` returns at its rate,
    bit for bit: the same comparisons and the same cost additions in the
    same order.  Its generators are built from vectorized seed words in the
    states :func:`episode_rng` gives them, one per episode, whatever the
    number of rates: the rates of a pass are below 1/3, where numpy's
    ``geometric`` is ``ceil(-E / log1p(-rate))`` of one exponential draw
    ``E`` (:func:`_change_points`), so every rate reads the same start
    uniform and step uniforms after it.  A pass of one rate draws
    ``geometric`` itself, at any rate.

    Both controllers step through one flat table of the induced chains,
    keyed by ``4 * n * r + (2 * policy_mode + kernel_mode) * n + state``
    with 0-based modes, so a rate's pairs (1, 1), (1, 2), (2, 1), (2, 2)
    follow one another; the filter reads the first two, the pre-change
    policy's rows.  The kernel mode is 1 from the change point on; the
    baseline's policy mode equals it and the detection controller's is 1
    once it has switched.  Each lane keeps one key offset per controller,
    moved only at the switch and at the change.  A step is a ``take`` of
    stage costs and a ``take`` of the next state from the (code, key) table
    at the step's uniform code, which gives :func:`run_episode`'s
    ``searchsorted`` on the key's cumulative row (:class:`_CodedTransitions`).

    The baseline sits on the detection controller's key until a change or
    switch leaves their offsets unequal, and again once the offsets agree and
    a step lands both on the same state: from then on both see the same key
    and the same uniforms.  So one key per lane is stepped, and the
    baseline is stepped on its own only for the *split* lanes in between.
    A merged lane's cost increment is computed once and added to each
    controller's sum separately, so each sum keeps its own rounding.

    Changes are read from a schedule of the chunk's change points.  The fire
    check and the belief update run only on the *live* lanes, those whose
    rule has not fired, an index array compacted when some fire.  Lane blocks
    follow decreasing horizon, so the lanes still running are a prefix: a
    rate that reaches its horizon shortens it and its lanes leave the live
    and split sets.  The realized objective is written at the end in closed
    form.

    Each episode's step uniforms come from its own generator, ``_BLOCK``
    (512) steps at a time, drawn by groups of ``_DRAW_GROUP`` episodes into
    a 128 KiB float buffer, coded there with a 128 KiB buffer of guide-table
    bins, and stored as codes in a (block, chunk) array, so each step reads
    one contiguous row, shared by the episode's lanes.  A uint16 code block
    is 1 KiB per episode.  ``random(k)`` followed by ``random(m)`` yields the
    same values as ``random(k + m)``, so the draws do not depend on the
    block length or on the longest horizon, and memory does not grow with
    the horizon.  The (code, key) table holds (cut points + 1) x keys intp
    entries, at most 81 x 20 for one rate of the README instance and
    481 x 120 for its six-rate sweep (45 x 20 and 45 x 120 as built: its
    rates share their 44 cut points).  Past ``_TABLE_BYTES`` the pass
    counts each lane's codes against its key's cut points coded as ranks,
    the same comparison as the table's, on integers.
    """
    mdp = solveds[0].env.mdp
    n_states = mdp.n_states
    discount = mdp.discount
    rates = np.array([solved.env.mdp.change_rate for solved in solveds])
    n_rates = rates.size
    # One-rate branches stay: folding them into the lane path slowed a 3000-episode
    # mc-long chunk (0.538 -> 0.569 s median process time; it won 3 of 12 pairs).
    stacked = n_rates > 1
    width = hi - lo
    size = n_rates * width

    # numpy.random loads here, not at import: commands without a Monte
    # Carlo never pay for it.
    from ._seeding import episode_generators

    rngs = episode_generators(master_seed, lo, hi)
    if stacked:
        exponential = np.array([rng.standard_exponential() for rng in rngs])
        change_point = _change_points(exponential, rates).ravel()
    else:
        change_point = np.array([rng.geometric(rates[0]) for rng in rngs], dtype=np.int64)
    start_u = np.array([rng.random() for rng in rngs])

    # Block r of the flat chain table holds rate r's four chains, block r of
    # the thresholds its n thresholds and block r of the filter rows its
    # n * n rows of the pre-change policy's chains.
    chains = [
        solved.chains[pair] for solved in solveds for pair in ((1, 1), (1, 2), (2, 1), (2, 2))
    ]
    flat_cost = np.concatenate([chain.cost_vec for chain in chains])
    transitions = _CodedTransitions(
        np.cumsum(np.concatenate([chain.transition for chain in chains]), axis=1)
    )
    next_state = transitions.next_state
    thresholds = np.array([solved.thresholds for solved in solveds], dtype=float).ravel()
    pre_rows = np.concatenate([solved.chains[1, 1].transition.ravel() for solved in solveds])
    post_rows = np.concatenate([solved.chains[1, 2].transition.ravel() for solved in solveds])

    state = np.concatenate(
        [
            np.minimum(
                np.searchsorted(np.cumsum(solved.env.initial_dist), start_u, side="right"),
                n_states - 1,
            )
            for solved in solveds
        ]
    )
    offset_cd = np.repeat(np.arange(n_rates, dtype=np.intp) * (4 * n_states), width)
    offset_mo = offset_cd.copy()
    cost_cd = np.zeros(size)
    cost_mo = np.zeros(size)
    # Split lanes and their baseline states.
    split = np.empty(0, dtype=np.intp)
    split_state = np.empty(0, dtype=np.intp)
    switch_time = np.repeat(np.array(horizons, dtype=np.int64), width)
    state_at_switch = np.full(size, -1, dtype=np.int64)
    state_at_change = np.full(size, -1, dtype=np.int64)
    regret_pre_switch = np.zeros(size)
    # Lanes by change point, for the steps before their horizon at which
    # any change falls.
    order = np.flatnonzero(change_point < switch_time)
    order = order[np.argsort(change_point[order], kind="stable")]
    change_steps, starts = np.unique(change_point[order], return_index=True)
    changes_at = dict(zip(change_steps.tolist(), np.split(order, starts[1:])))
    # Lanes whose rule may still fire, with their beliefs and, across rates,
    # their first threshold and filter row and their rate.
    live = np.arange(size)
    belief = np.zeros(size)
    rate = float(rates[0])
    if stacked:
        live_base = np.repeat(np.arange(n_rates, dtype=np.intp) * n_states, width)
        rate = np.repeat(rates, width)
    # The running prefix of the lanes and of their offsets and cost sums.
    n_active = n_rates
    active_offset, active_cd, active_mo = offset_cd, cost_cd, cost_mo
    codes = np.empty((min(_BLOCK, horizons[0]), width), dtype=transitions.dtype)
    uniforms = np.empty((min(_DRAW_GROUP, width), codes.shape[0]))
    bins = np.empty(uniforms.shape, dtype=np.intp)
    disc = 1.0
    for t in range(horizons[0]):
        if t == horizons[n_active - 1]:
            while horizons[n_active - 1] == t:
                n_active -= 1
            active = n_active * width
            state = state[:active]
            active_offset, active_cd, active_mo = (
                offset_cd[:active], cost_cd[:active], cost_mo[:active]
            )
            running = live < active
            live, belief, live_base, rate = (
                live[running], belief[running], live_base[running], rate[running]
            )
            running = split < active
            split, split_state = split[running], split_state[running]
        row = t % _BLOCK
        if row == 0:
            _fill_codes(rngs, codes, min(_BLOCK, horizons[0] - t), transitions, uniforms, bins)
        code = codes[row]

        events = []
        changed = changes_at.get(t)
        if changed is not None:
            state_at_change[changed] = state[changed]
            offset_cd[changed] += n_states
            offset_mo[changed] += 3 * n_states
            events.append(changed)
        fired = None
        if live.size:
            live_row = state.take(live)
            if stacked:
                live_row += live_base
            fire = belief >= thresholds.take(live_row)
            if fire.any():
                fired = live[fire]
                waiting = ~fire
                live = live[waiting]
                live_row = live_row[waiting]
                belief = belief[waiting]
                if stacked:
                    live_base = live_base[waiting]
                    rate = rate[waiting]
        if fired is not None:
            switch_time[fired] = t
            state_at_switch[fired] = state[fired]
            regret_pre_switch[fired] = cost_cd[fired] - cost_mo[fired]
            offset_cd[fired] += 2 * n_states
            events.append(fired)
        if events:
            # A lane's first event splits it unless the change and the
            # switch fall on the same step.
            events = np.concatenate(events)
            entering = events[offset_cd[events] != offset_mo[events]]
            split = np.concatenate((split, entering))
            split_state = np.concatenate((split_state, state[entering]))

        key = active_offset + state
        step_cost = disc * flat_cost
        increment = step_cost.take(key)
        active_cd += increment
        if split.size:
            split_key = offset_mo[split] + split_state
            increment[split] = step_cost.take(split_key)
        active_mo += increment
        if stacked:
            state = next_state(key.reshape(-1, width), code).ravel()
        else:
            state = next_state(key, code)
        if split.size:
            split_state = next_state(split_key, code[split % width] if stacked else code[split])
            rejoined = (split_state == state[split]) & (offset_cd[split] == offset_mo[split])
            if rejoined.any():
                split = split[~rejoined]
                split_state = split_state[~rejoined]

        if live.size:
            moved = live_row * n_states + state.take(live)
            belief, _ = bayes_step(belief, pre_rows.take(moved), post_rows.take(moved), rate)
        disc *= discount

    shape = (n_rates, width)
    change_point = change_point.reshape(shape)
    switch_time = switch_time.reshape(shape)
    cost_cd = cost_cd.reshape(shape)
    cost_mo = cost_mo.reshape(shape)
    regret_pre_switch = regret_pre_switch.reshape(shape)
    truncated = switch_time == np.array(horizons)[:, None]
    regret_pre_switch[truncated] = cost_cd[truncated] - cost_mo[truncated]
    # run_episode adds either the weight once or 1.0 per step, never both, so
    # its stepwise sum is exactly this closed form.
    objective = np.where(
        change_point >= switch_time,
        np.array([[solved.weight] for solved in solveds]),
        np.maximum(switch_time - change_point - 1, 0),
    )
    columns = dict(
        change_point=change_point,
        switch_time=switch_time,
        cost_cd=cost_cd,
        cost_mo=cost_mo,
        false_alarm=switch_time < change_point,
        delay=np.maximum(switch_time - change_point, 0),
        objective_realized=objective,
        truncated=truncated,
        state_at_switch=state_at_switch.reshape(shape),
        state_at_change=state_at_change.reshape(shape),
        regret_pre_switch=regret_pre_switch,
    )
    return [
        EpisodeBatch(**{name: column[r] for name, column in columns.items()})
        for r in range(n_rates)
    ]


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


def _chunk_width(n_rates: int, n_states: int) -> int:
    """Episodes per chunk under ``_CHUNK_BYTES``: an episode holds its
    generator and code block and, per rate of the pass, one lane with the
    ``n_states - 1`` compared entries (an intp rank and a bool each) of a
    count on codes, which is more than a table lookup's one intp index."""
    code = _code_dtype(4 * n_rates * n_states * (n_states - 1))
    episode = _GENERATOR_BYTES + _BLOCK * code.itemsize
    lane = _LANE_BYTES + 9 * (n_states - 1)
    return max(1, _CHUNK_BYTES // (episode + n_rates * lane))


def _plan(n_episodes: int, workers: int, width: int) -> list[list[tuple[int, int]]]:
    """Episode ranges ``(lo, hi)`` of the chunks, grouped by the process that
    runs them; the groups follow one another in episode-index order.

    ``min(workers, n_episodes, available CPUs)`` processes run, one where
    ``os.fork`` does not exist.  One process runs chunks of ``width``; more
    each run the same number of near-equal chunks, no wider than ``width``.
    """
    n_procs = min(workers, n_episodes, _available_cpus()) if hasattr(os, "fork") else 1
    # One process keeps full-width chunks: near-equal ones (a wider last chunk, run while the
    # earlier outputs are held) took a memory test's peak from 7.42 to 7.86 MiB (bound 7.5).
    if n_procs == 1:
        return [[(lo, min(lo + width, n_episodes)) for lo in range(0, n_episodes, width)]]
    per_proc = -(-n_episodes // (width * n_procs))
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


def _check_streams(master_seed: int, shared_rates: list[float]) -> None:
    """Refuse to run if the first episode's stream is not the documented
    one: if the vectorized seeding gives it another generator than
    :func:`episode_rng` does, or if, at a rate of ``shared_rates`` (those
    that share a pass), the change point :func:`_change_points` derives or
    the uniform after it differs from what numpy's ``geometric`` gives."""
    from ._seeding import episode_generators

    rng = episode_rng(master_seed, 0)
    if episode_generators(master_seed, 0, 1)[0].bit_generator.state != rng.bit_generator.state:
        raise RuntimeError(
            f"numpy {np.__version__} seeds episode streams differently from "
            "modeswitch._seeding; the Monte Carlo would not reproduce the documented streams"
        )
    if not shared_rates:
        return
    derived = _change_points(np.array([rng.standard_exponential()]), shared_rates)[:, 0]
    start_u = rng.random()
    for rate, change_point in zip(shared_rates, derived.tolist()):
        oracle = episode_rng(master_seed, 0)
        if oracle.geometric(rate) != change_point or oracle.random() != start_u:
            raise RuntimeError(
                f"numpy {np.__version__} draws geometric({rate}) differently from "
                "modeswitch.simulate._change_points; the rates of a sweep cannot share streams"
            )


def _check_run(
    solveds: list[SolvedEnv], n_episodes: int, horizons: list[int], workers: int
) -> None:
    if len(solveds) != len(horizons) or not solveds:
        raise ValueError("run_sweep needs one horizon per solve and at least one solve")
    if n_episodes < 1:
        raise ValueError("no episodes requested")
    if min(horizons) < 1:
        raise ValueError("horizon must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    for solved in solveds:
        check_thresholds(solved.thresholds, solved.env.mdp.n_states)


def _run_pass(
    solveds: list[SolvedEnv],
    horizons: list[int],
    n_episodes: int,
    master_seed: int,
    workers: int,
) -> list[EpisodeBatch]:
    """Every chunk of ``n_episodes`` through the lane kernel, on ``workers``
    processes; one batch per solve of the pass, in its order.

    With ``workers`` 1 the chunks run one after another in this process.
    With more, ``min(workers, n_episodes, available CPUs)`` processes share
    the chunks: this one runs the first share while forked children run the
    others and send their records back through pipes.  Each chunk is a pure
    function of (master seed, episode indices), so the batches are the same,
    bit for bit, for every ``workers``.  Where ``os.fork`` does not exist
    the chunks run serially.  A child's exception is raised here again with
    its episode range, and a child that dies without a result raises
    :class:`RuntimeError`.  Threads would not help: the kernel's numpy calls
    on chunk-sized arrays hold the interpreter lock most of the time.
    """

    def run(share: list[tuple[int, int]]) -> list[list[EpisodeBatch]]:
        return [_run_chunk(solveds, horizons, master_seed, lo, hi) for lo, hi in share]

    width = _chunk_width(len(solveds), solveds[0].env.mdp.n_states)
    shares = _plan(n_episodes, workers, width)
    results = [run(shares[0])] if len(shares) == 1 else _run_forked(shares, run)
    chunks = [chunk for parts in results for chunk in parts]
    return [_concat([chunk[r] for chunk in chunks]) for r in range(len(solveds))]


def run_batch(
    solved: SolvedEnv,
    n_episodes: int,
    horizon: int,
    master_seed: int,
    workers: int = 1,
    thresholds: np.ndarray | None = None,
) -> EpisodeBatch:
    """Run ``n_episodes`` coupled episodes at one change rate, with the
    detection rule's ``thresholds`` in place of the solve's if given: a
    :func:`run_sweep` of that one solve, checked and run as it describes."""
    if thresholds is not None:
        solved = replace(solved, thresholds=thresholds)
    return run_sweep([solved], n_episodes, [horizon], master_seed, workers)[0]


def run_sweep(
    solveds: list[SolvedEnv],
    n_episodes: int,
    horizons: list[int],
    master_seed: int,
    workers: int = 1,
) -> list[EpisodeBatch]:
    """Run ``n_episodes`` coupled episodes at each solve's change rate under
    its ``thresholds``, with ``horizons[k]`` for ``solveds[k]``; one batch
    per solve, in sweep order, each equal bit for bit to the batch a sweep
    of that solve alone gives.

    Episode ``i`` reads the same stream at every rate, so the rates below
    1/3 that share a state count and discount run as one pass of the lane
    kernel: each episode's generator and uniform blocks serve all of them,
    and each chunk-step steps them all.  Each rate from 1/3 on runs alone,
    since numpy draws its ``geometric`` by search.  The chunk width follows
    the number of rates in the pass and the state count.  With ``workers``
    above 1 the chunks of each pass are shared among forked processes
    (:func:`_run_pass`).

    The arguments and every solve's thresholds are checked first, and a bad
    one raises :class:`ValueError`.  Then, before any pass runs, one stream
    check compares the first episode's generator with :func:`episode_rng`'s
    and, at every rate of a shared pass, its derived change point with
    ``geometric``; a mismatch raises :class:`RuntimeError` naming the numpy
    version.
    """
    _check_run(solveds, n_episodes, horizons, workers)
    # Rates that share a pass, keyed by what their chain tables must share
    # (a rate from 1/3 on by its own position), in decreasing horizon order:
    # the lane-block order.
    passes: dict = {}
    for k in sorted(range(len(solveds)), key=lambda k: -horizons[k]):
        mdp = solveds[k].env.mdp
        shared = mdp.change_rate < _INVERSION_BELOW
        passes.setdefault((mdp.n_states, mdp.discount) if shared else k, []).append(k)
    _check_streams(
        master_seed,
        [solveds[k].env.mdp.change_rate for m in passes.values() if len(m) > 1 for k in m],
    )
    batches: dict = {}
    for members in passes.values():
        pass_batches = _run_pass(
            [solveds[k] for k in members], [horizons[k] for k in members],
            n_episodes, master_seed, workers,
        )
        batches.update(zip(members, pass_batches))
    return [batches[k] for k in range(len(solveds))]


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
    negligible (fewer than one episode in 10^4).
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
    solved: SolvedEnv, n_episodes: int, horizon: int, master_seed: int
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
    batch = run_batch(solved, n_episodes, horizon, master_seed)
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
