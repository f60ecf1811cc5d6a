"""Bayesian change-point filtering on a finite chain and the optimal-stopping
solver that turns it into state-dependent switching thresholds.

The posterior probability that the kernel has already switched is a scalar
belief updated from observed transitions.  On a uniform belief grid the
stopping problem "pay weight*(1-p) to switch now, or pay p and continue" is
solved by iterating its dynamic-programming operator to a fixed point; the
operator maps tables that are nonnegative and dominated by weight*(1-p) into
themselves, decreases monotonically from that dominating table, and preserves
concavity in the belief, which is what makes per-state thresholds optimal.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .mdp import ConvergenceError, check_fits_in_memory, check_stochastic

#: Fixed-point distance target and iteration budget of the belief solvers,
#: read when a solver is called.
DEFAULT_FP_TOL = 1e-9
DEFAULT_FP_MAX_ITER = 1_000_000

#: How far inside ``DEFAULT_FP_TOL`` the belief solvers stop (see
#: :func:`_stop_threshold`).
_STOP_MARGIN = 100.0

#: Residual differences the accelerated fixed-point loop combines.
_ANDERSON_DEPTH = 5

#: Points of the coarse grid on which a solve from the stopping payoff first
#: settles its stop region; only grids with more than ``_COARSE_FACTOR``
#: times as many intervals take the coarse pass.
_COARSE_POINTS = 51
_COARSE_FACTOR = 4
#: The coarse pass stops at this multiple of the fine stop threshold.
_COARSE_SLACK = 1e5


class ImpossibleTransitionError(ValueError):
    """A transition with probability zero under both kernels was observed."""


class ThresholdStructureError(RuntimeError):
    """The stopping region of a value table is not an upper belief interval."""


class DivergenceError(RuntimeError):
    """Rule evaluation escaped its a-priori value cap."""


@dataclass(frozen=True)
class BeliefGrid:
    """Uniform grid on [0, 1] with exact endpoints."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        pts = self.points
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("grid endpoints must be exactly 0 and 1")
        gaps = np.diff(pts)
        if not np.all(gaps > 0.0):  # a NaN gap fails this, not ``gaps <= 0``
            raise ValueError("grid points must be strictly increasing")
        if np.max(np.abs(gaps - gaps[0])) > 1e-12:
            raise ValueError("grid must be uniformly spaced")

    @classmethod
    def uniform(cls, size: int) -> "BeliefGrid":
        return cls(np.linspace(0.0, 1.0, size))

    @property
    def size(self) -> int:
        return self.points.size

    def locate(self, beliefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The grid cell around each belief in [0, 1], as ``(lower, blend)``.

        ``lower`` is the index of the knot at or below the belief, at most
        ``size - 2``, so belief 1 sits at the top of the last cell; ``blend``
        in [0, 1] is the belief's offset from that knot in units of the
        spacing, so ``(1 - blend, blend)`` weigh the knots ``lower`` and
        ``lower + 1`` of a linear interpolation.  The cell comes from the
        rounded ``beliefs * (size - 1)``, not from a search of the knots, so
        a belief within an ulp of a knot may sit at the far end of the
        neighbouring cell, which interpolates the same value there.
        """
        position = beliefs * (self.size - 1)
        lower = np.minimum(position.astype(np.intp), self.size - 2)
        return lower, position - lower


@dataclass(frozen=True)
class BeliefDynamics:
    """Transition rows that drive the belief filter.

    ``kernel_pre[x]`` and ``kernel_post[x]`` are the pre- and post-change
    transition laws from state ``x`` under the action the pre-change policy
    takes there; the filter always conditions on that policy's actions.
    """

    kernel_pre: np.ndarray
    kernel_post: np.ndarray
    change_rate: float

    def __post_init__(self):
        object.__setattr__(self, "kernel_pre", np.asarray(self.kernel_pre, dtype=float))
        object.__setattr__(self, "kernel_post", np.asarray(self.kernel_post, dtype=float))
        if self.kernel_pre.ndim != 2 or self.kernel_pre.shape[0] != self.kernel_pre.shape[1]:
            raise ValueError("kernel_pre must be square")
        if self.kernel_post.shape != self.kernel_pre.shape:
            raise ValueError("kernel shapes must match")
        check_stochastic(self.kernel_pre, "kernel_pre")
        check_stochastic(self.kernel_post, "kernel_post")
        if not 0.0 < self.change_rate < 1.0:
            raise ValueError(f"change_rate must lie in (0, 1), got {self.change_rate}")

    @property
    def n_states(self) -> int:
        return self.kernel_pre.shape[0]


@dataclass(frozen=True)
class BeliefValueTable:
    """Value table over (belief grid point, state)."""

    grid: BeliefGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.size:
            raise ValueError("values must have shape (grid size, n_states)")

    def at(self, beliefs: np.ndarray) -> np.ndarray:
        """The table interpolated linearly at each belief in ``beliefs``, for
        every state: an array of shape ``(beliefs.size, n_states)``."""
        # np.interp, not locate: their blends differ in the last bits, which
        # move the fine iteration count of a coarse start.
        return np.column_stack(
            [np.interp(beliefs, self.grid.points, column) for column in self.values.T]
        )


def check_thresholds(thresholds, n_states: int) -> np.ndarray:
    """``thresholds`` as floats, checked to hold one belief in [0, 1] per state."""
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != (n_states,):
        raise ValueError(f"thresholds must have shape ({n_states},), got {thresholds.shape}")
    if not np.all((thresholds >= 0.0) & (thresholds <= 1.0)):
        raise ValueError("thresholds must be finite and lie in [0, 1]")
    return thresholds


def stop_cost_table(grid: BeliefGrid, weight: float, n_states: int) -> BeliefValueTable:
    """The stopping payoff weight*(1-p), copied across states."""
    column = weight * (1.0 - grid.points)
    return BeliefValueTable(grid, np.tile(column[:, None], (1, n_states)))


def bayes_step(belief, pre, post, change_rate: float):
    """One step of the belief filter, for scalars or broadcasting arrays.

    ``pre`` and ``post`` are the probabilities of the observed transitions
    under the pre- and post-change kernels.  The prior belief first drifts by
    the change rate; the predictive mass of a transition is the
    drift-weighted blend of its two probabilities, and the posterior is the
    changed share of that mass.  Working from the unnormalized joint (never
    forming a pre/post likelihood ratio) resolves transitions impossible
    under exactly one kernel to belief 0 or 1, and a zero predictive mass
    (belief 1 and a transition impossible after the change, or one
    impossible under both kernels) to belief 1, which is absorbing.

    Returns:
        ``(posterior, predictive mass)``, as arrays.
    """
    drifted = belief + change_rate * (1.0 - belief)
    changed_mass = drifted * post
    mass = changed_mass + (1.0 - drifted) * pre
    posterior = np.divide(changed_mass, mass, out=np.ones(np.shape(mass)), where=mass > 0.0)
    return posterior, mass


def belief_update(dyn: BeliefDynamics, state: int, next_state: int, belief: float) -> float:
    """Posterior change probability after observing one transition.

    Raises:
        ImpossibleTransitionError: the transition has probability zero under
            both kernels.
    """
    pre = dyn.kernel_pre[state, next_state]
    post = dyn.kernel_post[state, next_state]
    if pre == 0.0 and post == 0.0:
        raise ImpossibleTransitionError(
            f"transition {state} -> {next_state} is impossible under both kernels"
        )
    return float(bayes_step(belief, pre, post, dyn.change_rate)[0])


def stencil_supports(dyn: BeliefDynamics, grid_size: int) -> list[np.ndarray]:
    """Each state's support (the next states possible under either kernel),
    once the :class:`BeliefOperator` stencil on a ``grid_size``-point grid (an
    index and a weight for each of 2k terms per grid point and state of
    support size k) and the grid itself (about 40 bytes a point while
    :class:`BeliefGrid` checks it) are known to fit in physical memory.  Both
    are sized from ``grid_size`` alone, so a solve checks them before the
    grid exists.

    Raises:
        ValueError: they would not fit.
    """
    n = dyn.n_states
    supports = [
        np.flatnonzero((dyn.kernel_pre[x] > 0.0) | (dyn.kernel_post[x] > 0.0)) for x in range(n)
    ]
    term_bytes = np.dtype(np.intp).itemsize + np.dtype(float).itemsize
    stencil = grid_size * 2 * sum(support.size for support in supports) * term_bytes
    grid = 40 * grid_size
    check_fits_in_memory(
        stencil + grid,
        f"belief operator stencil for grid {grid_size} x {n} states needs "
        f"{stencil} bytes (the grid {grid} more)",
    )
    return supports


class BeliefOperator:
    """The belief-grid stopping operator for one (dynamics, grid) pair.

    For every grid belief i and state x the expected interpolated table value
    after one observation is a fixed linear form in the table: each next
    state x' contributes the mixture probability times the linear
    interpolation between the two grid rows around the updated belief.  Next
    states that are impossible under both kernels carry zero weight at every
    belief and are left out, so state x has 2k terms per grid belief, where k
    is the size of its support (the x' possible under either kernel).

    The stencil is stored in ``blocks``, one ``(states, index, weights)``
    triple per support size k, holding the states with k successors in
    increasing order.  ``index`` and ``weights`` have one row of 2k terms per
    (i, x) pair, grid belief major: ``index`` holds positions in the raveled
    (grid, n) table (``lower*n + x'`` for each x' of the support in
    increasing order, then the same for the row above, ``lower*n + x' + n``)
    and ``weights`` holds ``mix*(1-blend)`` and ``mix*blend``.  Applying the
    operator is one gather and one row-wise dot product per block, each
    output cell depending only on the input table (deterministic regardless
    of how the cells are scheduled).  Dense kernels give a single block.

    Every weight is nonnegative, and each row's products and sums (fused or
    not) are evaluated in a fixed order under round-to-nearest, where each
    step is monotone in its operands; raising any table entry therefore
    cannot lower any output, so the applied operator is exactly monotone, not
    merely up to rounding.  That order follows the CPU's vector width, so the
    last bits of a table may differ between machines, never between runs.

    Raises:
        ValueError: the stencil would not fit in physical memory
            (:func:`stencil_supports`).
    """

    def __init__(self, dyn: BeliefDynamics, grid: BeliefGrid):
        size = grid.size
        n = dyn.n_states
        supports = stencil_supports(dyn, size)
        counts = np.array([support.size for support in supports])
        self.dyn = dyn
        self.grid = grid
        self.n_states = n
        beliefs = grid.points[:, None]
        self.blocks = []
        # sorted(set()) rather than np.unique, whose first call costs about 1 MB of RSS.
        for k in sorted(set(counts.tolist())):
            states = np.flatnonzero(counts == k)
            index = np.empty((size, states.size, 2 * k), dtype=np.intp)
            weights = np.empty((size, states.size, 2 * k))
            # One state at a time keeps construction temporaries at grid*k.
            for slot, state in enumerate(states):
                support = supports[state]
                updated, mix = bayes_step(
                    beliefs, dyn.kernel_pre[state, support], dyn.kernel_post[state, support],
                    dyn.change_rate,
                )
                lower, blend = grid.locate(updated)
                index[:, slot, :k] = lower * n + support
                index[:, slot, k:] = index[:, slot, :k] + n
                weights[:, slot, :k] = mix * (1.0 - blend)
                weights[:, slot, k:] = mix * blend
            rows = size * states.size
            self.blocks.append((states, index.reshape(rows, 2 * k), weights.reshape(rows, 2 * k)))

    def continuation(self, values: np.ndarray) -> np.ndarray:
        """Expected interpolated table value after one more observation, as a
        fresh array.  A one-block operator (every dense kernel) returns its
        row-wise dot products as they are; more blocks scatter theirs into
        their state columns."""
        flat = values.ravel()
        shape = (self.grid.size, self.n_states)
        if len(self.blocks) == 1:  # its states are all states, in order
            _, index, weights = self.blocks[0]
            return np.einsum("ij,ij->i", weights, flat.take(index)).reshape(shape)
        out = np.empty(shape)
        for states, index, weights in self.blocks:
            out[:, states] = np.einsum("ij,ij->i", weights, flat.take(index)).reshape(
                -1, states.size
            )
        return out

    def stepper(self, weight: float) -> Callable[[np.ndarray], np.ndarray]:
        """min{weight*(1-p), p + continuation} as a function of a table.

        The stop and belief columns are computed here, once.  Each call adds
        the beliefs and takes the minimum in place, on the fresh array that
        :meth:`continuation` returns, so the gather is its only temporary;
        it returns that array, which no later call touches.
        """
        points = self.grid.points[:, None]
        stop = weight * (1.0 - points)

        def step(values: np.ndarray) -> np.ndarray:
            out = self.continuation(values)
            out += points
            return np.minimum(out, stop, out=out)

        return step


def _stop_threshold(operator: BeliefOperator) -> float:
    """The sup-norm residual at which the belief solvers stop.

    The operator contracts with modulus (1 - change_rate) in the
    (1-p)-weighted sup norm, so by the geometric-series bound a table whose
    residual is at most this lies about ``DEFAULT_FP_TOL / _STOP_MARGIN``
    from the fixed point, a hundredfold margin inside ``DEFAULT_FP_TOL``.
    """
    return DEFAULT_FP_TOL * operator.dyn.change_rate / _STOP_MARGIN


def _iterate(
    step: Callable, values: np.ndarray, threshold: float, what: str
) -> tuple[np.ndarray, int]:
    """Drive ``values`` to a fixed point of ``step`` with type-II Anderson
    acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011).

    Each pass applies ``step`` once to the current iterate x, giving g(x) and
    the residual f = g(x) - x.  The next iterate is g(x) minus the
    combination of the last ``_ANDERSON_DEPTH`` differences of g whose
    matching combination of residual differences best cancels f in least
    squares.  The sup-norm residual is not monotone under extrapolation, but
    the history is never cleared (a restart on residual growth stalled valid
    solves at small change rates); a difference leaves it
    ``_ANDERSON_DEPTH`` passes after it entered.

    The history lives in preallocated (depth, cells) ring buffers, and the
    least-squares weights come from the at most depth x depth normal
    equations, whose Gram matrix gains one row per pass; a singular Gram
    matrix, or a non-finite weight, keeps the plain step.  The residual's
    magnitudes go through one scratch buffer, and the extrapolated iterate
    is formed in the array that holds its correction.  Every product over
    the cells is an ``np.einsum``, which never calls BLAS, so the iterates
    do not depend on the BLAS thread count.

    Stops at the first g(x) whose residual is at most ``threshold`` and
    returns ``(g(x), applications)``; every call of ``step`` is one
    application.  Raises :class:`ConvergenceError` after
    ``DEFAULT_FP_MAX_ITER`` applications, the budget when it is called.
    """
    shape = values.shape
    cells = values.size
    depth = _ANDERSON_DEPTH
    delta_f = np.empty((depth, cells))
    delta_g = np.empty((depth, cells))
    gram = np.empty((depth, depth))
    scratch = np.empty(cells)
    filled = slot = 0
    x = values.reshape(cells)
    previous_f = previous_g = None
    residual = np.inf
    for iteration in range(1, DEFAULT_FP_MAX_ITER + 1):
        g = step(x.reshape(shape)).reshape(cells)
        f = g - x
        residual = float(np.abs(f, out=scratch).max())
        if residual <= threshold:
            return g.reshape(shape), iteration
        if previous_f is not None:
            np.subtract(f, previous_f, out=delta_f[slot])
            np.subtract(g, previous_g, out=delta_g[slot])
            filled = max(filled, slot + 1)
            row = np.einsum("k,jk->j", delta_f[slot], delta_f[:filled])
            gram[slot, :filled] = row
            gram[:filled, slot] = row
            slot = (slot + 1) % depth
        previous_f, previous_g = f, g
        x = g
        if filled:
            try:
                coefficients = np.linalg.solve(
                    gram[:filled, :filled], np.einsum("ik,k->i", delta_f[:filled], f)
                )
            except np.linalg.LinAlgError:  # singular Gram matrix: keep the plain step
                continue
            if all(map(math.isfinite, coefficients.tolist())):
                x = np.einsum("i,ik->k", coefficients, delta_g[:filled])
                np.subtract(g, x, out=x)
    raise ConvergenceError(f"{what} did not converge", residual)


def solve_fixed_point(
    operator: BeliefOperator, weight: float, start: BeliefValueTable | None = None
) -> tuple[BeliefValueTable, int]:
    """Iterate the stopping operator to its fixed point.

    Starts from the stopping payoff table unless ``start`` is given and
    accelerates the iteration with Anderson mixing (see
    :func:`_iterate`), which needs a small fraction of the applications that
    plain iteration does.  Iteration stops at :func:`_stop_threshold`, about
    ``DEFAULT_FP_TOL / 100`` from the fixed point (and the table's Bellman
    residual is well under ``DEFAULT_FP_TOL``).

    Without ``start``, a grid of more than 200 intervals
    (``_COARSE_FACTOR * (_COARSE_POINTS - 1)``) starts instead from the solve
    on a 51-point grid, stopped at ``_COARSE_SLACK`` times the fine threshold
    and interpolated linearly onto the fine grid: most applications go by
    before the stop region settles, and on the coarse grid they are cheap
    (the one-way multigrid of Chow & Tsitsiklis, IEEE Trans. Automat. Control
    1991).  The start changes where the fine iteration begins, not where it
    stops.

    Returns:
        ``(table, iterations)``, where ``iterations`` counts operator
        applications on this grid (not those of the coarse pass).

    Raises:
        ValueError: ``start`` lives on a different grid.
        ConvergenceError: ``DEFAULT_FP_MAX_ITER`` applications were not
            enough, on the coarse grid or on this one.
    """
    grid = operator.grid
    threshold = _stop_threshold(operator)
    what = "stopping-operator iteration"
    if start is None and grid.size - 1 > _COARSE_FACTOR * (_COARSE_POINTS - 1):
        coarse_grid = BeliefGrid.uniform(_COARSE_POINTS)
        coarse, _ = _iterate(
            BeliefOperator(operator.dyn, coarse_grid).stepper(weight),
            stop_cost_table(coarse_grid, weight, operator.n_states).values,
            _COARSE_SLACK * threshold, what,
        )
        values = BeliefValueTable(coarse_grid, coarse).at(grid.points)
    elif start is None:
        values = stop_cost_table(grid, weight, operator.n_states).values
    else:
        if start.grid.size != grid.size:
            raise ValueError("start table lives on a different grid")
        values = start.values
    values, iterations = _iterate(operator.stepper(weight), values, threshold, what)
    return BeliefValueTable(grid, values), iterations


def finite_horizon_dp(
    dyn: BeliefDynamics, weight: float, grid: BeliefGrid, horizon: int
) -> BeliefValueTable:
    """Backward induction over a forced-stop horizon; the time-0 table.

    With ``horizon`` steps to go the terminal table is the stopping payoff
    and each backward step applies the same operator (with the same
    interpolation stencil) as the fixed-point iteration, so this serves as an
    independent finite-horizon oracle for it.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    step = BeliefOperator(dyn, grid).stepper(weight)
    values = stop_cost_table(grid, weight, dyn.n_states).values
    for _ in range(horizon):
        values = step(values)
    return BeliefValueTable(grid, values)


def extract_thresholds(
    table: BeliefValueTable, operator: BeliefOperator, weight: float
) -> np.ndarray:
    """Per-state belief thresholds of the stop region of a fixed-point table.

    For each state the threshold is the smallest grid belief at which
    stopping is no dearer than continuing (ties stop).  The stop region must
    be an upper interval of the grid; a single interior grid cell of slack is
    tolerated, anything worse signals a concavity violation.
    """
    if table.values.shape != (operator.grid.size, operator.n_states):
        raise ValueError("table does not match the operator's grid and states")
    cont = operator.continuation(table.values)
    points = operator.grid.points
    stop = weight * (1.0 - points)[:, None] <= points[:, None] + cont
    thresholds = np.empty(operator.n_states)
    for state in range(operator.n_states):
        column = stop[:, state]
        first = int(np.argmax(column))
        if not column[first]:
            raise ThresholdStructureError(f"state {state} never stops, not even at belief 1")
        gaps = np.flatnonzero(~column[first:])
        if gaps.size > 1:
            raise ThresholdStructureError(
                f"stopping set for state {state} is not an upper interval "
                f"(continuation wins again at grid offsets {gaps[:5] + first})"
            )
        thresholds[state] = points[first]
    return thresholds


def evaluate_switch_rule(
    thresholds: np.ndarray, operator: BeliefOperator, weight: float
) -> BeliefValueTable:
    """Value table of a fixed threshold rule (stop once belief >= threshold).

    Solves the rule's linear fixed point from the stopping payoff table with
    the same accelerated loop, stopping rule and grid interpolation as the
    optimal solver.  Every application is capped at ``weight + 1/change_rate``
    (stop-now cost plus the mean change time); a rule that effectively never
    stops crosses the cap and raises instead of looping forever.
    """
    dyn, grid = operator.dyn, operator.grid
    thresholds = check_thresholds(thresholds, dyn.n_states)
    points = grid.points
    stop_mask = points[:, None] >= thresholds[None, :]
    stop = stop_cost_table(grid, weight, dyn.n_states).values
    cap = weight + 1.0 / dyn.change_rate

    def step(values: np.ndarray) -> np.ndarray:
        new_values = np.where(stop_mask, stop, points[:, None] + operator.continuation(values))
        if float(new_values.max()) > cap:
            raise DivergenceError(
                "rule evaluation exceeded the cap weight + 1/change_rate; "
                "the rule appears never to stop"
            )
        return new_values

    values, _ = _iterate(step, stop, _stop_threshold(operator), "switch-rule evaluation")
    return BeliefValueTable(grid, values)
