"""Online map training with updates restricted to observed components.

Two ways to use incomplete rows: sample them during training and update only
the observed components of the winner and its neighbors, or train on complete
rows alone and classify the incomplete ones afterwards against the frozen
codebook.  A batch centroid variant (assign all, then recompute observed
means) is provided as well.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .data import _BLOCK_ROWS, DataMatrix
# UNCLASSIFIABLE and Assignment live in metric and stay importable from here
from .metric import UNCLASSIFIABLE, Assignment, CodeBook, assign
from .topology import GridTopology


class TrainingMode(enum.Enum):
    """How incomplete rows participate in map construction."""

    INCLUDE_INCOMPLETE = "include-incomplete"
    COMPLETE_ONLY = "complete-only"


@dataclass(frozen=True)
class TrainingSchedule:
    """Iteration count, learning-rate decay and radius decay down to zero.

    The learning rate decays linearly from ``alpha0`` at step 0 to
    ``alpha_final`` at the last step.  The radius decays as an integer step
    function from ``radius0`` to 0 over the first ``1 - zero_radius_fraction``
    of the run and stays at 0 (winner only) for the final phase.
    """

    total_iters: int = 1000
    alpha0: float = 0.5
    alpha_final: float = 0.01
    radius0: int = 2
    zero_radius_fraction: float = 0.4
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if int(self.total_iters) != self.total_iters or self.total_iters < 1:
            raise ValueError(f"total_iters must be a positive integer, got {self.total_iters}")
        object.__setattr__(self, "total_iters", int(self.total_iters))
        if not 0.0 < self.alpha0 < 1.0:
            raise ValueError(f"alpha0 must lie in (0, 1), got {self.alpha0}")
        if not 0.0 < self.alpha_final <= self.alpha0:
            raise ValueError(
                f"alpha_final must lie in (0, alpha0={self.alpha0}], got {self.alpha_final}"
            )
        if int(self.radius0) != self.radius0 or self.radius0 < 0:
            raise ValueError(f"radius0 must be a nonnegative integer, got {self.radius0}")
        object.__setattr__(self, "radius0", int(self.radius0))
        if not 0.0 <= self.zero_radius_fraction <= 1.0:
            raise ValueError(
                f"zero_radius_fraction must lie in [0, 1], got {self.zero_radius_fraction}"
            )
        if int(self.rng_seed) != self.rng_seed or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {self.rng_seed}")
        object.__setattr__(self, "rng_seed", int(self.rng_seed))
        if self.radius0 > 0 and self.zero_radius_fraction == 0:
            raise ValueError(
                f"schedule never reaches radius 0: radius0={self.radius0} > 0 needs "
                "zero_radius_fraction > 0"
            )

    @property
    def decay_iters(self) -> int:
        """Length of the shrinking-radius phase; the remainder runs at radius 0."""
        n_zero = int(np.ceil(self.total_iters * self.zero_radius_fraction))
        return self.total_iters - n_zero


@dataclass(frozen=True)
class TrainResult:
    """Final codebook and one assignment per row.

    Rows outside :func:`pool_mask` were either all-missing (unclassifiable)
    or incomplete under complete-only mode and classified afterwards as
    supplementary observations.
    """

    codebook: CodeBook
    assignment: Assignment


def _draw_initial_codes(rng: np.random.Generator, data: DataMatrix, topology: GridTopology) -> np.ndarray:
    lo, hi = data.column_ranges()
    return rng.uniform(lo, hi, size=(topology.n_units, data.n_cols))


def _schedule_arrays(schedule: TrainingSchedule, lo: int = 0,
                     hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The learning rate and radius of the steps ``lo <= t < hi`` (``hi``
    the run's length when None), as two arrays; a step's values do not
    depend on the range.  Of ``n`` steps, step ``t`` has rate ``alpha0 +
    (alpha_final - alpha0) * (t / (n - 1))`` (``alpha0`` when ``n == 1``)
    and radius ``ceil(radius0 * (d - t) / d)``, in exact integers, while
    ``t < d = decay_iters``, then 0."""
    n = schedule.total_iters
    t = np.arange(lo, n if hi is None else hi)
    if n == 1:
        alphas = np.full(t.size, schedule.alpha0)
    else:
        alphas = schedule.alpha0 + (schedule.alpha_final - schedule.alpha0) * (t / (n - 1))
    d = schedule.decay_iters
    if d == 0:
        return alphas, np.zeros(t.size, dtype=np.int64)
    # ceil(radius0 * left / d), split so that no product exceeds radius0 or d * d
    q, rem = divmod(schedule.radius0, d)
    left = np.maximum(d - t, 0)
    return alphas, q * left + (rem * left + d - 1) // d


def _neighbor_blocks(c3: np.ndarray, radius: int) -> list[np.ndarray]:
    """For each unit in unit order, the view of ``c3`` (components x grid
    rows x grid cols) holding every unit within Chebyshev distance
    ``radius`` of it: a ball on the grid is a rectangle clipped at the
    borders, so a pair of basic slices selects it."""
    _, rows, cols = c3.shape
    rs = [slice(max(0, i - radius), i + radius + 1) for i in range(rows)]
    cs = [slice(max(0, j - radius), j + radius + 1) for j in range(cols)]
    return [c3[:, a, b] for a in rs for b in cs]


def _online_updates(c3, values, mask, draws, alphas, radii) -> None:
    """Present the rows ``draws`` in order, updating ``c3`` in place.

    ``c3`` is the codebook transposed, a C-contiguous ``(p, rows, cols)``
    array.  Step ``t`` pulls the observed components of row ``draws[t]``'s
    winner, and of every unit within Chebyshev distance ``radii[t]`` of it,
    a fraction ``alphas[t]`` toward the row; no other component moves.

    The winner minimizes the squared distance over the observed components,
    ties to the lowest unit.  ``np.add.reduce`` over the first axis adds
    the components in ascending order, the same sum, bit for bit, as
    :func:`somimpute.metric.assign`; unobserved components are skipped by
    ``where=``, so their NaN never enters a sum or a code.
    """
    _, rows, cols = c3.shape
    # a radius of max(rows, cols) - 1 already covers the whole grid
    radii = np.minimum(radii, max(rows, cols) - 1).tolist()
    blocks = {r: _neighbor_blocks(c3, r) for r in set(radii)}
    xs = values[:, :, None, None]
    ms = mask[:, :, None, None]
    complete = mask[draws].all(axis=1).tolist()
    for i, whole, a, r in zip(draws.tolist(), complete, alphas.tolist(), radii):
        x = xs[i]
        sq = c3 - x
        sq *= sq
        if whole:
            b = blocks[r][np.add.reduce(sq, axis=0).argmin()]
            b += a * (x - b)
        else:
            m = ms[i]
            b = blocks[r][np.add.reduce(sq, axis=0, where=m).argmin()]
            np.add(b, a * (x - b), out=b, where=m)


def _transposed(codes: np.ndarray, topology: GridTopology) -> np.ndarray:
    """A C-contiguous ``(p, rows, cols)`` copy of ``(n_units, p)`` codes."""
    return codes.T.copy().reshape(-1, topology.rows, topology.cols)


def classify_supplementary(codebook: CodeBook, data: DataMatrix) -> Assignment:
    """Winner per row under the masked distance; the codebook is not touched.

    All-missing rows are flagged UNCLASSIFIABLE rather than assigned
    arbitrarily.
    """
    return assign(codebook.codes, data.values, data.mask)


def train(
    data: DataMatrix,
    topology: GridTopology,
    schedule: TrainingSchedule,
    mode: TrainingMode = TrainingMode.INCLUDE_INCOMPLETE,
) -> TrainResult:
    """Run the online algorithm and classify every row under the final codes.

    The caller is expected to pass standardized data (see
    :func:`somimpute.data.standardize`); nothing here rescales.

    Reproducibility contract: a single ``np.random.default_rng(rng_seed)``
    stream first draws the initial codes uniformly from the per-column
    observed ranges in one ``(n_units, p)`` call, then draws one row index
    per iteration, uniform over the trainable pool, in
    ``rng.integers(pool_size, size=k)`` calls over consecutive blocks of
    ``k`` steps (the same stream as one ``rng.integers(pool_size)`` per
    iteration, whatever the block sizes).
    The pool is :func:`pool_mask`.  Every row is classified under the final
    codes: rows outside the pool that have an observed component are
    supplementary observations, and rows with none are flagged
    unclassifiable.
    """
    codebook = train_maps([data], topology, schedule, [schedule.rng_seed], mode)[0]
    return TrainResult(codebook, classify_supplementary(codebook, data))


def pool_mask(data: DataMatrix, mode: TrainingMode) -> np.ndarray:
    """The rows a map trains on: the complete rows under complete-only mode,
    otherwise every row with an observed component."""
    if mode is TrainingMode.COMPLETE_ONLY:
        return data.mask.all(axis=1)
    return data.mask.any(axis=1)


def _pool(data: DataMatrix, mode: TrainingMode) -> np.ndarray:
    """The row numbers of :func:`pool_mask`; an empty pool, which only
    complete-only mode can leave, is a ``ValueError``."""
    pool = np.flatnonzero(pool_mask(data, mode))
    if pool.size == 0:
        raise ValueError("complete-only mode requires at least one complete row")
    return pool


def _lockstep_updates(C, values, mask, rows, alphas, radii, cheb) -> None:
    """Train a stack of maps in lockstep, updating ``C`` in place.

    ``C`` holds K transposed codebooks as a ``(K, p, n_units)`` array,
    ``rows`` is a ``(T, K)`` table of row numbers into ``values`` and
    ``mask``, one column per map, and ``cheb`` holds the grid's Chebyshev
    unit distances.  Step ``t`` is :func:`_online_updates`' step ``t`` on
    every map at once, with row ``rows[t, k]`` for map ``k`` and the shared
    ``alphas[t]`` and ``radii[t]``: the winner minimizes the squared
    distance over the row's observed components, added in ascending order
    as in :func:`somimpute.metric.assign`, ties to the lowest unit; then
    only the observed components of the winner and of the units within the
    radius move, by ``c + alpha * (x - c)``.

    The steps run on a component-major copy, a C-contiguous ``(p, K,
    n_units)`` array, so that every operation of a step runs over rows of
    ``K * n_units`` cells, not over one map's ``n_units``.  The winner sums
    reduce over axis 0, the outer axis, which numpy accumulates one
    component row at a time, in ascending order: the sequential sum of
    ``assign`` (numpy sums pairwise only along the contiguous inner axis).
    On a step with an incomplete row the unobserved squares are first set
    to 0.0 in place; ``s + 0.0 == s`` for every ``s >= +0``, so the sums do not
    change.  The update picks between the moved and the old codes with
    ``np.where``, so no ufunc runs a masked (``where=``) loop; an
    unobserved component's NaN is computed but never picked.
    """
    S = np.ascontiguousarray(C.transpose(1, 0, 2))
    xs, ms = values.T.copy(), mask.T.copy()
    balls = {r: cheb <= r for r in set(radii.tolist())}
    complete = mask.all(axis=1)[rows].all(axis=1).tolist()
    for i, a, r, whole in zip(rows, alphas.tolist(), radii.tolist(), complete):
        diff = xs.take(i, axis=1)[:, :, None] - S
        sq = diff * diff
        if whole:
            move = balls[r].take(np.add.reduce(sq, axis=0).argmin(axis=1), axis=0)
        else:
            # the row's mask repeated over the units, so that neither the
            # zeroing nor the update broadcasts along the short unit axis
            m = np.repeat(ms.take(i, axis=1), S.shape[2], axis=1).reshape(S.shape)
            np.putmask(sq, ~m, 0.0)
            move = m & balls[r].take(np.add.reduce(sq, axis=0).argmin(axis=1), axis=0)
        diff *= a
        diff += S
        S = np.where(move, diff, S)
    C[...] = S.transpose(1, 0, 2)


def _shared_table(datas: list[DataMatrix]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Values and mask of one table holding every distinct table of
    ``datas``, and each map's row offset into it; maps that all share one
    table get that table itself, not a copy."""
    tables = list({id(d): d for d in datas}.values())
    firsts = np.cumsum([0] + [t.n_rows for t in tables]).tolist()
    offset = {id(t): n for t, n in zip(tables, firsts)}
    offsets = [offset[id(d)] for d in datas]
    if len(tables) == 1:
        return tables[0].values, tables[0].mask, offsets
    return (np.concatenate([t.values for t in tables]),
            np.concatenate([t.mask for t in tables]), offsets)


# Largest codebook, in code cells (p * n_units), that trains in lockstep.
# A lockstep step selects every cell of all K codebooks, where the window
# kernel writes one neighbourhood view per map, so the saving shrinks as
# codebooks grow.  Lockstep / window training time, 2-core box, numpy
# 2.4.6, 500 rows, 1 000 iterations, with 15% of cells missing / complete:
#   2 maps:  0.80 / 0.60 at 99 cells, 0.77 / 0.61 at 720, 0.81-0.97 (one
#            run 1.58) / 0.79-0.84 at 2 000-2 048 (seven runs), 0.83-1.15 /
#            0.78-0.97 at 4 000-4 096 (eight runs), 0.98 / 0.98 at 6 000;
#   5 maps:  0.33 / 0.26 at 99, 0.46 / 0.36 at 720, 0.62 / 0.63 at 2 000,
#            0.75 / 0.80 at 4 000, 0.92 / 0.98 at 6 000;
#   20 maps: 0.14 / 0.12 at 99, 0.27 / 0.24 at 720, 0.49 / 0.52 at 2 000,
#            0.88 / 0.76 at 4 000, 0.91 / 1.01 at 6 000.
# The cap keeps five maps or more below their crossover; two maps near the
# cap train about as fast as in the window kernel.  A single map ran slower
# in lockstep on 13 of 16 shapes tried (up to 1.8 times), so lockstep needs
# two maps or more.
_LOCKSTEP_MAX_CELLS = 4096


def train_maps(
    datas: Sequence[DataMatrix],
    topology: GridTopology,
    schedule: TrainingSchedule,
    seeds: Sequence[int],
    mode: TrainingMode = TrainingMode.INCLUDE_INCOMPLETE,
) -> list[CodeBook]:
    """Train map ``k`` on ``datas[k]`` under ``replace(schedule,
    rng_seed=seeds[k])``, every map on the same grid, and return their
    codebooks; no row is classified.

    Equal, bit for bit, to ``[train(d, topology, replace(schedule,
    rng_seed=s), mode).codebook for d, s in zip(datas, seeds)]``: each map
    keeps :func:`train`'s pool, seed stream, initial codes and draws.  Two
    or more maps on tables of one width, with at most
    ``_LOCKSTEP_MAX_CELLS`` code cells per map, train together in
    :func:`_lockstep_updates`; otherwise each map runs
    :func:`_online_updates` in turn.  Both kernels take the same winners and
    make the same updates, so the choice never changes a codebook.

    A map without trainable rows raises :func:`train`'s ``ValueError``.
    """
    datas, seeds = list(datas), list(seeds)
    if not datas:
        raise ValueError("train_maps needs at least one map")
    if len(seeds) != len(datas):
        raise ValueError(f"{len(datas)} tables but {len(seeds)} seeds")
    # each map's pool, then its one seeded stream: the initial codes, later its draws
    pools = [_pool(d, mode) for d in datas]
    # each seed checked as a schedule's own
    rngs = [np.random.default_rng(replace(schedule, rng_seed=s).rng_seed) for s in seeds]
    codes = [_draw_initial_codes(rng, d, topology) for rng, d in zip(rngs, datas)]
    p = datas[0].n_cols
    if (len(datas) > 1 and p * topology.n_units <= _LOCKSTEP_MAX_CELLS
            and all(d.n_cols == p for d in datas)):
        C = np.ascontiguousarray(np.stack(codes).transpose(0, 2, 1))
        values, mask, offsets = _shared_table(datas)
        # one row table for all maps, each column drawn straight into place
        rows = np.empty((schedule.total_iters, len(datas)), dtype=np.intp)
        for k, (pool, rng, off) in enumerate(zip(pools, rngs, offsets)):
            rows[:, k] = pool[rng.integers(pool.size, size=rows.shape[0])] + off
        _lockstep_updates(C, values, mask, rows, *_schedule_arrays(schedule),
                          topology.distance_matrix())
        finals = [c.T for c in C]
    else:
        finals = []
        for d, pool, rng, c in zip(datas, pools, rngs, codes):
            c3 = _transposed(c, topology)
            # a block of steps at a time: the draws continue one stream
            for lo in range(0, schedule.total_iters, _BLOCK_ROWS):
                hi = min(lo + _BLOCK_ROWS, schedule.total_iters)
                draws = pool[rng.integers(pool.size, size=hi - lo)]
                _online_updates(c3, d.values, d.mask, draws, *_schedule_arrays(schedule, lo, hi))
            finals.append(c3.reshape(d.n_cols, -1).T)
    return [CodeBook(codes, topology, d.col_names) for d, codes in zip(datas, finals)]


@dataclass(frozen=True)
class ForgyResult:
    """Batch-variant output: centroids on a 1 x k grid plus assignments."""

    centroids: CodeBook
    assignment: Assignment
    n_iters: int
    converged: bool
    distortion: tuple[float, ...]


def forgy_train(
    data: DataMatrix,
    n_classes: int,
    max_iters: int = 100,
    seed: int = 0,
) -> ForgyResult:
    """Batch clustering tolerant of missing cells.

    Assign each classifiable row to the nearest centroid under the masked
    distance, then recompute each centroid component as the mean of the
    observed values of that component over its class; a component no class
    member observes (or an empty class) keeps its previous value.  Stops at
    an assignment fixpoint or after ``max_iters`` update rounds.

    Initialization: ``n_classes`` distinct classifiable rows drawn with
    ``default_rng(seed)``, their missing components completed by the
    per-column observed means.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    classifiable = np.flatnonzero(data.mask.any(axis=1))
    if n_classes > classifiable.size:
        raise ValueError(
            f"n_classes={n_classes} exceeds the {classifiable.size} classifiable rows"
        )
    chosen = np.random.default_rng(seed).choice(classifiable, size=n_classes, replace=False)
    cents = np.where(data.mask[chosen], data.values[chosen], np.nanmean(data.values, axis=0))

    observed = np.where(data.mask, data.values, 0.0)
    asg = assign(cents, data.values, data.mask)
    history = [float(asg.sq_distances[asg.units >= 0].sum())]
    converged = False
    n_iters = 0
    for _ in range(max_iters):
        n_iters += 1
        # one bincount pass per statistic over the flat (class, column) cells;
        # it adds each class's members in row order from 0.0, bit for bit a
        # per-class .sum(axis=0) when p >= 2
        members = asg.units >= 0
        cells = (asg.units[members, None] * data.n_cols + np.arange(data.n_cols)).ravel()
        size = cents.size
        sums = np.bincount(cells, observed[members].ravel(), size).reshape(cents.shape)
        counts = np.bincount(cells[data.mask[members].ravel()], minlength=size).reshape(cents.shape)
        np.divide(sums, counts, out=cents, where=counts > 0)
        new = assign(cents, data.values, data.mask)
        history.append(float(new.sq_distances[new.units >= 0].sum()))
        stable = bool(np.array_equal(new.units, asg.units))
        asg = new
        if stable:
            converged = True
            break

    centroids = CodeBook(cents, GridTopology(1, n_classes), data.col_names)
    return ForgyResult(centroids, asg, n_iters, converged, tuple(history))

