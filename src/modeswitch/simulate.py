"""Coupled Monte Carlo of the change-detection controller against the
mode-observing baseline, under common random numbers, plus the one reduction
of a batch, :func:`summarize`, and the check of the realized detection cost
against the DP.

Per-episode randomness comes from its own stream,
``SeedSequence(entropy=master_seed, spawn_key=(episode_index,))``, consumed in
a fixed order (one standard-exponential draw for the change point, one
uniform for the start state, one uniform per step), so results are a pure
function of (master seed, episode index) no matter how episodes are chunked
or how many uniforms are drawn at a time.
Both controllers' transitions are driven by the same per-step uniform through
inverse-CDF sampling over the natural state order, so their trajectories (and
cost accumulations, operation for operation) coincide until the first time
their policies diverge.

A sweep's rates share each episode's stream as well.  An episode's change
point at rate ``rho`` is ``ceil(-E / log1p(-rho))`` of its one
standard-exponential draw ``E``, an exact geometric draw at every rate (for
rates below 1/3 it is what numpy's ``geometric`` draws).  ``E`` does not
depend on the rate, so every rate's change point comes from the same draw,
and the start uniform and step uniforms after it are the same numbers at
every rate (common random numbers across the sweep).  :func:`run_sweep`
therefore steps all its rates as one pass of *lanes*, one per (rate,
episode): each episode's generator and uniform blocks serve all its lanes,
and each chunk-step steps them all.  :func:`run_batch` is a sweep of one
solve.  A lane's one position is its *chain key*, its state's index in the
pass's flat table of induced chains, so a pass of one rate and a pass of
many take the same path: costs, thresholds, next keys and filter rows are
read by key.  A lane holds its key, two cost sums, records and, until it
fires, a belief.

A pass's tables (:class:`_Pass`) are built once, before its chunks are
planned or forked.  Chunks of episodes step through one vectorized kernel; a
byte budget caps the chunk width, which therefore shrinks with the number of
rates in a pass, with the state count and with the bytes of the codes the
built pass holds.  With ``workers`` above 1 the chunks are run by
forked worker processes (where ``os.fork`` exists) beside the calling
process, and joined in episode-index order, so every batch is the same, bit
for bit, for any ``workers``.  The kernel's per-step cost follows the work
that is left: the detection bookkeeping runs only for lanes whose rule has
not fired, a lane whose two controllers share a key (most of them, once
switched and past the change) steps one row for both, and a rate's lanes
stop at its horizon.  The kernel seeds its generators from SeedSequence
words hashed for a whole chunk at once; :func:`episode_rng` builds the same
streams one episode at a time, as the tests' scalar episode loop, which the
kernel must match bit for bit, reads them.

The kernel keeps no step uniform as a float.  Each episode draws its step
uniforms ``_BLOCK`` (512) at a time and stores each as a *code*: the number
of the pass's distinct cumulative cut points at or below it, found with a
guide table of ``_GUIDE_BINS`` bins (:class:`_CodedTransitions`).  Codes are
uint8 below 255 distinct cut points, then uint16 up to 65,534, then uint32;
the README instance's passes have 44, so a block costs 512 bytes per
episode.  A step's next state depends on its uniform only through that
code, so each lane steps by one ``take`` from a (code, key) table of next
keys; a pass whose table would exceed ``_TABLE_BYTES`` counts codes against
the cut rows' ranks instead.  The kernel compares codes where a scalar loop
compares floats.
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

from .detector import bayes_step, check_thresholds
from .mdp import check_fits_in_memory
from .pipeline import MODE_PAIRS, SolvedEnv

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
#: transition count: 16 eight-byte entries, for its key, two cost sums, two
#: records (change point and switch time), its change-schedule entry, live
#: index and belief, and, in the belief filter, its increment, live key,
#: filter index, two probabilities, change rate and two filter temporaries.
#: With a count's rows at n = 5 that is 164 bytes; ``tracemalloc`` measures
#: 157-182 on the README instance (horizons 700 down to 50).
_LANE_BYTES = 8 * 16
#: Memory budget of a chunk's per-episode and per-lane buffers; it sets the
#: chunk width.
_CHUNK_BYTES = 11 * 2**19  # 5.5 MiB
#: Memory budget of a pass's (code, key) table of next states, on top of the
#: chunk's buffers; a pass whose table would be larger counts codes instead.
_TABLE_BYTES = 2**20
#: Bytes of one episode's record in an :class:`EpisodeBatch`: six eight-byte
#: fields and the two bool flags.
_RECORD_BYTES = 6 * 8 + 2
#: The :class:`EpisodeBatch` fields the lane kernel writes, with their dtypes;
#: the others follow from them in closed form.
_STEPPED = {
    "change_point": np.int64, "switch_time": np.int64, "cost_cd": np.float64,
    "cost_mo": np.float64,
}


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
    """

    change_point: np.ndarray
    switch_time: np.ndarray
    cost_cd: np.ndarray
    cost_mo: np.ndarray
    false_alarm: np.ndarray
    delay: np.ndarray
    objective_realized: np.ndarray
    truncated: np.ndarray

    @property
    def n_episodes(self) -> int:
        return self.change_point.size


@dataclass(frozen=True)
class SimReport:
    """Aggregates of one batch of episodes.

    ``regret`` is the mean of the paired difference ``cost_cd - cost_mo``,
    discounted and cut at the horizon, and ``stderr_regret`` its standard
    error; ``welch_t`` and ``welch_df`` treat the two cost samples as
    independent, which the coupling makes them not."""

    n_episodes: int
    mean_cost_cd: float
    stderr_cost_cd: float
    mean_cost_mo: float
    stderr_cost_mo: float
    regret: float
    stderr_regret: float
    false_alarm_rate: float
    mean_delay: float
    welch_t: float
    welch_df: float
    truncated_frac: float


@dataclass(frozen=True)
class RegretCheck:
    """Empirical detection cost against its DP prediction."""

    estimate: float
    stderr: float
    tolerance: float
    consistent: bool


def episode_rng(master_seed: int, index: int) -> np.random.Generator:
    """The documented per-episode stream: spawn key = episode index.  An
    episode draws from it one standard-exponential ``E``, which gives its
    change point ``ceil(-E / log1p(-rate))`` at every rate, then the start
    state's uniform, then one uniform per step."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    )


def _code_dtype(n_cuts: int) -> np.dtype:
    """Dtype of the codes of a pass with up to ``n_cuts`` cut points: it
    holds the codes 0 to ``n_cuts`` and, above them, the guide table's mark
    for a bin that must be searched."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n_cuts < np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"{n_cuts} cut points are too many to code as uint32")


class _CodedTransitions:
    """A pass's inverse-CDF transitions, read through uniform codes.

    ``cum_rows`` is the pass's flat table of cumulative transition rows, one
    row per key.  Its *cut points* are the distinct entries of
    ``cum_rows[:, :-1]``, and a uniform's *code* is the number of cut points
    at or below it, stored in the narrowest dtype that holds the codes and
    the search mark (:func:`_code_dtype` of the distinct count, so uint8
    below 255 cut points).  The next state from key ``k`` at uniform ``u``,
    ``min(searchsorted(cum_rows[k], u, 'right'), n - 1)``, is the number of
    the row's first ``n - 1`` entries at or below ``u``: cumulative sums of
    nonnegative probabilities never decrease, so the last entry is at or
    below ``u`` only when all the others are.  Each of those entries is a cut
    point, so the next state depends on ``u`` only through its code.

    :meth:`encode` finds codes with a guide table of ``_GUIDE_BINS`` equal
    bins (Chen & Asau 1974; Devroye 1986, section III.2): a bin with no cut
    point strictly inside holds one code, and the uniforms that fall in a bin
    with one are searched.  :meth:`next_state` gives the next state's key,
    ``base[k]`` (the intp base of key ``k``'s block) plus the state.  It
    reads a (code, key) table of next keys when that fits ``_TABLE_BYTES``;
    otherwise it counts the codes against the rows' entries coded as ranks
    among the cut points, the float comparison done on integers.
    """

    def __init__(self, cum_rows: np.ndarray, base: np.ndarray):
        n_keys = cum_rows.shape[0]
        entries = cum_rows[:, :-1]
        ordered = np.sort(entries, axis=None)
        distinct = np.ones(ordered.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
        cuts = ordered[distinct]
        self.dtype = _code_dtype(cuts.size)
        self.search_mark = self.dtype.type(np.iinfo(self.dtype).max)
        # Scaling by a power of two is exact, so scaled uniforms and scaled
        # cut points compare as the unscaled ones do.
        self.scaled_cuts = cuts * _GUIDE_BINS
        self.guide = np.searchsorted(
            self.scaled_cuts, np.arange(_GUIDE_BINS, dtype=np.float64), side="right"
        ).astype(self.dtype)
        # A bin with a cut point strictly inside is searched.  Cumulative rows
        # can pass 1 by rounding, so cuts at or past the last bin's end have
        # no bin.
        floors = np.floor(self.scaled_cuts)
        inside = (self.scaled_cuts < _GUIDE_BINS) & (floors != self.scaled_cuts)
        self.guide[floors[inside].astype(np.intp)] = self.search_mark
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
            self.table += base
            self.next_state = self._look_up
        else:
            # The count is the only path whose memory stays bounded at large
            # n: the table holds up to about 16 * r**2 * n**3 entries (r rates).
            self.rank_t = np.ascontiguousarray(ranks.T)
            self.base = base
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
        """Next states' keys (intp) from the keys ``key`` at the codes
        ``code``, which broadcast over ``key``'s leading axes."""
        index = np.multiply(code, self.n_keys, dtype=np.intp)
        return self.table.take(np.add(key, index, dtype=np.intp))

    def _count(self, key: np.ndarray, code: np.ndarray) -> np.ndarray:
        below = self.rank_t.take(key, axis=1) <= code
        return np.add.reduce(below, axis=0, dtype=np.intp) + self.base.take(key)


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


def _change_points(exponential: np.ndarray, rates: np.ndarray, out: np.ndarray) -> None:
    """Write into row r of the ``(rates, episodes)`` int64 array ``out`` the
    change points at ``rates[r]`` of the episodes' standard-exponential
    draws ``exponential``: ``ceil(-E / log1p(-rate))``, or ``INT64_MAX``
    where that reaches 2**63.  One float temporary serves every row."""
    drawn = np.empty_like(exponential)
    for rate, row in zip(rates.tolist(), out):
        np.divide(exponential, -math.log1p(-rate), out=drawn)
        np.ceil(drawn, out=drawn)
        huge = drawn >= 2.0**63
        drawn[huge] = 0.0
        row[:] = drawn
        row[huge] = np.iinfo(np.int64).max


class _Pass:
    """A sweep's solves as one pass of lanes, built once by :func:`run_sweep`
    before its chunks are planned or forked, so forked children inherit it.

    ``solveds`` and ``horizons`` come in decreasing horizon order, the
    lane-block order, and ``back[k]`` is the pass index of sweep entry ``k``.
    The per-key tables are :func:`_run_chunk`'s; a key's threshold and filter
    rows are row ``r * n + state`` of the rates' stacked thresholds and
    ``dyn`` rows, less its base for a filter.
    """

    def __init__(self, solveds: list[SolvedEnv], horizons: list[int]):
        order = sorted(range(len(solveds)), key=lambda k: -horizons[k])
        self.back = sorted(range(len(solveds)), key=order.__getitem__)
        self.solveds = [solveds[k] for k in order]
        self.horizons = [horizons[k] for k in order]
        self.n_states = n_states = solveds[0].env.mdp.n_states
        self.discount = solveds[0].env.mdp.discount
        self.rates = np.array([solved.env.mdp.change_rate for solved in self.solveds])
        chains = [solved.chains[pair] for solved in self.solveds for pair in MODE_PAIRS]
        self.flat_cost = np.concatenate([chain.cost_vec for chain in chains])
        keys = np.arange(self.flat_cost.size, dtype=np.intp)
        key_state = keys % n_states
        base = keys - key_state
        self.transitions = _CodedTransitions(
            np.cumsum(np.concatenate([chain.transition for chain in chains]), axis=1), base
        )
        key_row = keys // (4 * n_states) * n_states + key_state
        stacked = np.array([solved.thresholds for solved in self.solveds], dtype=float)
        self.thresholds = stacked.ravel()[key_row]
        self.key_rate = np.repeat(self.rates, 4 * n_states)
        self.filter_row = key_row * n_states - base
        self.pre_rows = np.concatenate([solved.dyn.kernel_pre.ravel() for solved in self.solveds])
        self.post_rows = np.concatenate([solved.dyn.kernel_post.ravel() for solved in self.solveds])
        self.initial_cum = [np.cumsum(solved.env.initial_dist) for solved in self.solveds]

    def chunk_width(self) -> int:
        """Episodes per chunk under ``_CHUNK_BYTES``: an episode holds its
        generator and a block of the pass's codes and, per rate, one lane
        with the ``n_states - 1`` compared entries (an intp rank and a bool
        each) of a count on codes, more than a table lookup's one index."""
        episode = _GENERATOR_BYTES + _BLOCK * self.transitions.dtype.itemsize
        lane = _LANE_BYTES + 9 * (self.n_states - 1)
        return max(1, _CHUNK_BYTES // (episode + len(self.solveds) * lane))


def _run_chunk(
    lanes: _Pass, master_seed: int, lo: int, hi: int, records: dict[str, np.ndarray]
) -> None:
    """Vectorized episode runner for indices [lo, hi), each solve of the
    pass ``lanes`` under its ``thresholds``, writing its lanes' ``_STEPPED``
    fields into the flat arrays of ``records`` in lane order (:func:`_join`
    derives the rest).  The chunk only seeds its episodes and steps their
    lanes: every table it reads is the pass's.

    A *lane* is one (rate, episode) pair, at index ``r * (hi - lo) + i``.
    Each lane produces the record that stepping its episode alone at its
    rate gives, bit for bit: the same comparisons and the same cost
    additions in the same order.  Its generators are built from vectorized
    seed words in the states :func:`episode_rng` gives them, one per
    episode.

    A lane's one position is its detection controller's *key*,
    ``4 * n * r + (policy_mode + 2 * kernel_mode) * n + state`` with
    0-based modes, the index of the pass's flat table of induced chains,
    whose block r holds rate r's chains in :data:`MODE_PAIRS` order.
    The kernel mode is 1 from the change point on; the baseline's policy
    mode equals it and the detection controller's is 1 once it has
    switched, so the change adds ``2 * n`` to a key and the switch ``n``.
    Costs, thresholds, change rates and filter rows are gathered by key, and
    one ``take`` from the (code, key) table at the step's uniform code gives
    the next key (:class:`_CodedTransitions`).  A lane holds its key, two
    cost sums and records, and while live its belief.

    The baseline sits on the detection controller's key until a change or
    a switch moves one of them alone, and again once a step lands both on
    the same key.  So one key per lane is stepped, and the baseline, with
    its own key, only for the *split* lanes in between.  A merged lane's
    cost increment is computed once and added to each controller's sum
    separately, so each sum keeps its own rounding.

    Changes are read from a schedule of the chunk's change points.  The fire
    check and the belief update run only on the *live* lanes, those whose
    rule has not fired, an index array compacted when some fire.  Lane blocks
    follow decreasing horizon, so the lanes still running are a prefix: a
    rate that reaches its horizon shortens it and its lanes leave the live
    and split sets.

    Step codes fill a (block, chunk) array whose rows an episode's lanes
    share (:func:`_fill_codes`).  ``random(k)`` then ``random(m)`` gives the
    values of ``random(k + m)``, so the draws do not depend on the block
    length and memory does not grow with the horizon.
    """
    n_states, discount, horizons = lanes.n_states, lanes.discount, lanes.horizons
    n_rates, width = len(horizons), hi - lo

    # numpy.random loads here, not at import: commands without a Monte
    # Carlo never pay for it.
    from ._seeding import episode_generators

    rngs = episode_generators(master_seed, lo, hi)
    change_point = records["change_point"]
    # The exponential draws are not kept: they are freed before any step.
    _change_points(
        np.array([rng.standard_exponential() for rng in rngs]), lanes.rates,
        change_point.reshape(n_rates, width),
    )
    start_u = np.array([rng.random() for rng in rngs])
    transitions, next_state = lanes.transitions, lanes.transitions.next_state
    key = np.concatenate(
        [
            4 * n_states * r
            + np.minimum(np.searchsorted(cum, start_u, side="right"), n_states - 1)
            for r, cum in enumerate(lanes.initial_cum)
        ]
    )
    cost_cd, cost_mo, switch_time = records["cost_cd"], records["cost_mo"], records["switch_time"]
    cost_cd[:] = cost_mo[:] = 0.0
    switch_time[:] = np.repeat(horizons, width)
    # Split lanes and their baselines' keys.
    split = np.empty(0, dtype=np.intp)
    split_key = np.empty(0, dtype=np.intp)
    # Lanes by change point, for the steps before their horizon at which
    # any change falls.
    order = np.flatnonzero(change_point < switch_time)
    order = order[np.argsort(change_point[order], kind="stable")]
    change_steps, starts = np.unique(change_point[order], return_index=True)
    changes_at = dict(zip(change_steps.tolist(), np.split(order, starts[1:])))
    # Lanes whose rule may still fire, with their beliefs.
    live = np.arange(key.size)
    belief = np.zeros(key.size)
    # The running prefix of the lanes' cost sums (``key`` holds its keys).
    n_active = n_rates
    active_cd, active_mo = cost_cd, cost_mo
    codes = np.empty((min(_BLOCK, horizons[0]), width), dtype=transitions.dtype)
    uniforms = np.empty((min(_DRAW_GROUP, width), codes.shape[0]))
    bins = np.empty(uniforms.shape, dtype=np.intp)
    disc = 1.0
    for t in range(horizons[0]):
        if t == horizons[n_active - 1]:
            while horizons[n_active - 1] == t:
                n_active -= 1
            active = n_active * width
            key, active_cd, active_mo = key[:active], cost_cd[:active], cost_mo[:active]
            running = live < active
            live, belief = live[running], belief[running]
            running = split < active
            split, split_key = split[running], split_key[running]
        row = t % _BLOCK
        if row == 0:
            _fill_codes(rngs, codes, min(_BLOCK, horizons[0] - t), transitions, uniforms, bins)
        code = codes[row]

        changed = changes_at.get(t)
        if changed is not None:
            # A lane whose rule fired before its change is split; its
            # baseline leaves pair (1, 1) for (2, 2).
            if (switch_time.take(changed) < t).any():
                split_key[change_point.take(split) == t] += 3 * n_states
            key[changed] += 2 * n_states
        fired = None
        if live.size:
            live_key = key.take(live)
            fire = belief >= lanes.thresholds.take(live_key)
            if fire.any():
                fired = live[fire]
                waiting = ~fire
                live, live_key, belief = live[waiting], live_key[waiting], belief[waiting]
        if fired is not None:
            switch_time[fired] = t
            key[fired] += n_states
            # A switch before the change splits a lane; its baseline stays on
            # pair (1, 1).
            entering = fired[change_point.take(fired) > t]
            split = np.concatenate((split, entering))
            split_key = np.concatenate((split_key, key.take(entering) - n_states))
        if changed is not None:
            # So does a change before the switch, its baseline now on (2, 2).
            entering = changed[switch_time.take(changed) > t]
            split = np.concatenate((split, entering))
            split_key = np.concatenate((split_key, key.take(entering) + n_states))

        step_cost = disc * lanes.flat_cost
        increment = step_cost.take(key)
        active_cd += increment
        if split.size:
            increment[split] = step_cost.take(split_key)
        active_mo += increment
        key = next_state(key.reshape(-1, width), code).ravel()
        if split.size:
            split_key = next_state(split_key, code[split % width])
            rejoined = split_key == key.take(split)
            if rejoined.any():
                split, split_key = split[~rejoined], split_key[~rejoined]

        if live.size:
            moved = lanes.filter_row.take(live_key) + key.take(live)
            belief, _ = bayes_step(
                belief, lanes.pre_rows.take(moved), lanes.post_rows.take(moved),
                lanes.key_rate.take(live_key),
            )
        disc *= discount


def _join(
    shares: list[list[tuple[int, int]]], records: list[dict[str, np.ndarray]], lanes: _Pass
) -> list[EpisodeBatch]:
    """One batch per solve of the pass ``lanes``, in sweep order, from the
    records :func:`_run_chunk` wrote for each share's chunks, joined a field
    at a time, each field's share arrays dropped once joined; then the
    closed-form fields."""
    n_rates = len(lanes.solveds)

    def chunk_columns(name):
        for share, columns in zip(shares, records):
            column, start = columns.pop(name), share[0][0]
            for lo, hi in share:
                part = column[n_rates * (lo - start) : n_rates * (hi - start)]
                yield part.reshape(n_rates, hi - lo)

    joined = {name: np.concatenate(list(chunk_columns(name)), axis=1) for name in _STEPPED}
    change_point, switch_time = joined["change_point"], joined["switch_time"]
    # An episode earns either the weight once or 1.0 per late step, never
    # both, so a stepwise sum is exactly this closed form.
    joined["objective_realized"] = np.where(
        change_point >= switch_time,
        np.array([[solved.weight] for solved in lanes.solveds]),
        np.maximum(switch_time - change_point - 1, 0),
    )
    joined["false_alarm"] = switch_time < change_point
    joined["delay"] = np.maximum(switch_time - change_point, 0)
    joined["truncated"] = switch_time == np.array(lanes.horizons)[:, None]
    return [
        EpisodeBatch(**{f.name: joined[f.name][r] for f in fields(EpisodeBatch)})
        for r in lanes.back
    ]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _plan(n_episodes: int, workers: int, width: int) -> list[list[tuple[int, int]]]:
    """Episode ranges ``(lo, hi)`` of the chunks, grouped by the process that
    runs them; the groups follow one another in episode-index order.

    ``min(workers, n_episodes, available CPUs)`` processes run, one where
    ``os.fork`` does not exist.  Each process runs the same number of
    near-equal chunks, no wider than ``width``.
    """
    n_procs = min(workers, n_episodes, _available_cpus()) if hasattr(os, "fork") else 1
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
    with the episode range added, as the first class of its MRO that builds
    from one message (numpy's ``_ArrayMemoryError`` takes a shape and a
    dtype, so it comes back as :class:`MemoryError`)."""
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
        for cls in kind.__mro__:
            try:
                error = cls(f"{text} ({episodes})")
            except TypeError:
                continue
            raise error
    return message[1]


def _run_forked(shares: list[list[tuple[int, int]]], run) -> list:
    """``[run(share) for share in shares]``, the first share run here while
    a forked child runs each other one (none for a single share).

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


def _check_streams(master_seed: int) -> None:
    """Refuse to run if the vectorized seeding gives the first episode
    another generator than :func:`episode_rng` does."""
    from ._seeding import episode_generators

    rng = episode_rng(master_seed, 0)
    if episode_generators(master_seed, 0, 1)[0].bit_generator.state != rng.bit_generator.state:
        raise RuntimeError(
            f"numpy {np.__version__} seeds episode streams differently from "
            "modeswitch._seeding; the Monte Carlo would not reproduce the documented streams"
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
    # The lanes of a pass read one flat table of chains and one discount.
    shape = {(solved.env.mdp.n_states, solved.env.mdp.discount) for solved in solveds}
    if len(shape) > 1:
        raise ValueError(
            f"the solves of a sweep must share a state count and discount, got {sorted(shape)}"
        )
    for solved in solveds:
        check_thresholds(solved.thresholds, solved.env.mdp.n_states)
    # A pass holds its records once and one joined field beside them; twice
    # the records leaves room for what the caller makes of its batches.
    needed = 2 * len(solveds) * n_episodes * _RECORD_BYTES
    check_fits_in_memory(
        needed, f"{len(solveds)} x {n_episodes} episode records need {needed} bytes"
    )


def run_batch(
    solved: SolvedEnv,
    n_episodes: int,
    horizon: int,
    master_seed: int,
    workers: int = 1,
) -> EpisodeBatch:
    """Run ``n_episodes`` coupled episodes at one change rate under the
    solve's thresholds: a :func:`run_sweep` of that one solve, checked and
    run as it describes.  Another rule runs as
    ``dataclasses.replace(solved, thresholds=...)``."""
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

    Episode ``i`` reads the same stream at every rate, so the solves, which
    must share a state count and discount, run as one pass of the lane
    kernel in decreasing horizon order: each episode's generator and uniform
    blocks serve all of them, and each chunk-step steps them all.  The pass
    (:class:`_Pass`) is built once, before the chunks are planned or forked,
    and sets the chunk width.

    The chunks are near-equal, and each process runs the same number of them
    (:func:`_plan`).  With ``workers`` 1 they run one after another in this
    process.  With more, ``min(workers, n_episodes, available CPUs)``
    processes share them: this one runs the first share while forked
    children run the others and send their records back through pipes.  A
    process allocates its share's records once, and each chunk writes its
    lanes' into them.  Each chunk is a pure function of (master seed,
    episode indices), so the batches are the same, bit for bit, for every
    ``workers``.  Where ``os.fork`` does not exist the chunks run serially.
    A child's exception is raised here again with its episode range, and a
    child that dies without a result raises :class:`RuntimeError`.  Threads
    would not help: the kernel's numpy calls on chunk-sized arrays hold the
    interpreter lock most of the time.

    The arguments and every solve's thresholds are checked first, and a bad
    one raises :class:`ValueError`, as do solves that differ in state count
    or discount and records of every rate and episode that, counted twice
    for the shares and their join, would not fit in physical memory.  Then,
    before any chunk runs, one stream check compares the first episode's
    generator with :func:`episode_rng`'s; a mismatch raises
    :class:`RuntimeError` naming the numpy version.
    """
    _check_run(solveds, n_episodes, horizons, workers)
    _check_streams(master_seed)
    lanes = _Pass(solveds, horizons)
    n_rates = len(solveds)

    def run(share: list[tuple[int, int]]) -> dict[str, np.ndarray]:
        # Each chunk's lanes take one contiguous slice of the share's records.
        start = share[0][0]
        size = n_rates * (share[-1][1] - start)
        records = {name: np.empty(size, dtype) for name, dtype in _STEPPED.items()}
        for lo, hi in share:
            part = slice(n_rates * (lo - start), n_rates * (hi - start))
            chunk = {name: column[part] for name, column in records.items()}
            _run_chunk(lanes, master_seed, lo, hi, chunk)
        return records

    shares = _plan(n_episodes, workers, lanes.chunk_width())
    return _join(shares, _run_forked(shares, run), lanes)


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def summarize(batch: EpisodeBatch) -> SimReport:
    """Aggregate a batch in episode order into a report."""
    n = batch.n_episodes
    mean_cd = float(batch.cost_cd.mean())
    mean_mo = float(batch.cost_mo.mean())
    # Each variance is computed once; its root over sqrt(n) is _stderr's value.
    var_cd = float(batch.cost_cd.var(ddof=1)) if n > 1 else 0.0
    var_mo = float(batch.cost_mo.var(ddof=1)) if n > 1 else 0.0
    difference = batch.cost_cd - batch.cost_mo
    var_regret = float(difference.var(ddof=1)) if n > 1 else 0.0
    pooled = var_cd / n + var_mo / n
    if pooled > 0.0:
        welch_t = (mean_cd - mean_mo) / math.sqrt(pooled)
        welch_df = pooled**2 / (
            (var_cd / n) ** 2 / (n - 1) + (var_mo / n) ** 2 / (n - 1)
        )
    else:
        welch_t = 0.0
        welch_df = float(n - 1)
    return SimReport(
        n_episodes=n,
        mean_cost_cd=mean_cd,
        stderr_cost_cd=math.sqrt(var_cd) / math.sqrt(n),
        mean_cost_mo=mean_mo,
        stderr_cost_mo=math.sqrt(var_mo) / math.sqrt(n),
        regret=float(difference.mean()),
        stderr_regret=math.sqrt(var_regret) / math.sqrt(n),
        false_alarm_rate=float(batch.false_alarm.mean()),
        mean_delay=float(batch.delay.mean()),
        welch_t=welch_t,
        welch_df=float(welch_df),
        truncated_frac=float(batch.truncated.mean()),
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
        tolerance=tolerance,
        consistent=abs(estimate - predicted) <= tolerance,
    )

