"""Online map training with updates restricted to observed components.

Two ways to use incomplete rows: sample them during training and update only
the observed components of the winner and its neighbors, or train on complete
rows alone and classify the incomplete ones afterwards against the frozen
codebook.  A batch centroid variant (assign all, then recompute observed
means) is provided as well.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, _readonly
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
        if self.radius_at(self.total_iters - 1) != 0:
            raise ValueError(
                "schedule never reaches radius 0; increase total_iters or zero_radius_fraction"
            )

    @property
    def decay_iters(self) -> int:
        """Length of the shrinking-radius phase; the remainder runs at radius 0."""
        n_zero = int(np.ceil(self.total_iters * self.zero_radius_fraction))
        return self.total_iters - n_zero

    def alpha_at(self, t: int) -> float:
        if self.total_iters == 1:
            return self.alpha0
        frac = t / (self.total_iters - 1)
        return self.alpha0 + (self.alpha_final - self.alpha0) * frac

    def radius_at(self, t: int) -> int:
        d = self.decay_iters
        if t >= d:
            return 0
        # ceil(radius0 * (d - t) / d) in exact integer arithmetic
        num = self.radius0 * (d - t)
        return (num + d - 1) // d


@dataclass(frozen=True)
class TrainResult:
    """Final codebook, one assignment per row, and training bookkeeping.

    ``training_pool`` marks the rows that were eligible for sampling;
    rows outside it were either all-missing (skipped, counted in
    ``n_skipped_all_missing``) or incomplete under complete-only mode and
    classified afterwards as supplementary observations.
    """

    codebook: CodeBook
    assignment: Assignment
    n_skipped_all_missing: int
    training_pool: np.ndarray


def _draw_initial_codes(rng: np.random.Generator, data: DataMatrix, topology: GridTopology) -> np.ndarray:
    lo, hi = data.column_ranges()
    return rng.uniform(lo, hi, size=(topology.n_units, data.n_cols))


def init_codebook(data: DataMatrix, topology: GridTopology, seed: int) -> CodeBook:
    """Codes drawn uniformly from each column's observed range, one
    ``(n_units, p)`` draw from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return CodeBook(_draw_initial_codes(rng, data, topology), topology, data.col_names)


def _online_step(codes, cheb, x_obs, obs_idx, radius, alpha) -> None:
    """One online update of ``codes`` in place: pull the components
    ``obs_idx`` of the winner and of every unit within Chebyshev distance
    ``radius`` of it (``cheb`` is the grid's distance matrix) a fraction
    ``alpha`` toward the row's observed values ``x_obs``.  No other
    component moves.

    The winner minimizes the squared distance over the observed components,
    ties to the lowest unit.  That distance is numpy's pairwise ``sum``,
    whereas :func:`somimpute.metric.assign` adds the components in ascending
    order; from 8 observed components on the two can differ in the last
    bits.  The pairwise order is the one every trained codebook was made
    with, so it stays.
    """
    w = np.argmin(((codes[:, obs_idx] - x_obs) ** 2).sum(axis=1))
    nb = np.flatnonzero(cheb[w] <= radius)[:, None]
    block = codes[nb, obs_idx]
    codes[nb, obs_idx] = block + alpha * (x_obs - block)


def sgd_step(
    codebook: CodeBook,
    data: DataMatrix,
    row: int,
    radius: int,
    alpha: float,
) -> CodeBook:
    """One online update: pull the observed components of the winner and its
    neighbors within ``radius`` (0 is the winner alone) toward the row;
    missing components leave every code untouched.

    Returns a new codebook; the input is not modified.
    """
    if int(radius) != radius or radius < 0:
        raise ValueError(f"radius must be a nonnegative integer, got {radius}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if codebook.n_features != data.n_cols:
        raise ValueError(
            f"codebook has {codebook.n_features} components, data has {data.n_cols}"
        )
    obs_idx = np.flatnonzero(data.mask[row])
    if obs_idx.size == 0:
        raise ValueError(f"row {row} has no observed component")
    codes = codebook.codes.copy()
    _online_step(codes, codebook.topology.distance_matrix(), data.values[row, obs_idx],
                 obs_idx, radius, alpha)
    return codebook.with_codes(codes)


def classify_supplementary(codebook: CodeBook, data: DataMatrix) -> Assignment:
    """Winner per row under the masked distance; the codebook is not touched.

    All-missing rows are flagged UNCLASSIFIABLE rather than assigned
    arbitrarily.
    """
    if codebook.n_features != data.n_cols:
        raise ValueError(
            f"codebook has {codebook.n_features} components, data has {data.n_cols}"
        )
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
    per iteration, uniform over the trainable pool, in a single
    ``rng.integers(pool_size, size=total_iters)`` call (the same stream as
    one ``rng.integers(pool_size)`` per iteration).
    Rows with no observed component are excluded from the pool and counted;
    under complete-only mode the pool is the complete rows and the remaining
    rows are classified afterwards as supplementary observations.
    """
    all_missing = ~data.mask.any(axis=1)
    if mode is TrainingMode.COMPLETE_ONLY:
        pool_mask = data.mask.all(axis=1)
        if not pool_mask.any():
            raise ValueError("complete-only mode requires at least one complete row")
    else:
        pool_mask = ~all_missing
    pool = np.flatnonzero(pool_mask)
    if pool.size == 0:
        raise ValueError("no trainable rows: every row is entirely missing")

    rng = np.random.default_rng(schedule.rng_seed)
    codes = _draw_initial_codes(rng, data, topology)
    cheb = topology.distance_matrix()
    for t, i in enumerate(pool[rng.integers(pool.size, size=schedule.total_iters)]):
        obs_idx = np.flatnonzero(data.mask[i])
        _online_step(codes, cheb, data.values[i, obs_idx], obs_idx,
                     schedule.radius_at(t), schedule.alpha_at(t))

    codebook = CodeBook(codes, topology, data.col_names)
    assignment = classify_supplementary(codebook, data)
    return TrainResult(codebook, assignment, int(all_missing.sum()), _readonly(pool_mask))


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
    initial_codes: np.ndarray | None = None,
) -> ForgyResult:
    """Batch clustering tolerant of missing cells.

    Assign each classifiable row to the nearest centroid under the masked
    distance, then recompute each centroid component as the mean of the
    observed values of that component over its class; a component no class
    member observes (or an empty class) keeps its previous value.  Stops at
    an assignment fixpoint or after ``max_iters`` update rounds.

    Default initialization: ``n_classes`` distinct classifiable rows drawn
    with ``default_rng(seed)``, their missing components completed by the
    per-column observed means.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    classifiable = np.flatnonzero(data.mask.any(axis=1))
    if classifiable.size == 0:
        raise ValueError("no classifiable rows: every row is entirely missing")
    col_means = np.nanmean(data.values, axis=0)
    if initial_codes is None:
        if n_classes > classifiable.size:
            raise ValueError(
                f"n_classes={n_classes} exceeds the {classifiable.size} classifiable rows"
            )
        rng = np.random.default_rng(seed)
        chosen = rng.choice(classifiable, size=n_classes, replace=False)
        cents = np.where(data.mask[chosen], data.values[chosen], col_means)
    else:
        cents = np.array(initial_codes, dtype=float)
        if cents.shape != (n_classes, data.n_cols):
            raise ValueError(
                f"initial_codes must have shape ({n_classes}, {data.n_cols}), got {cents.shape}"
            )

    asg = assign(cents, data.values, data.mask)
    history = [float(asg.sq_distances[asg.units >= 0].sum())]
    converged = False
    n_iters = 0
    for _ in range(max_iters):
        n_iters += 1
        for c in range(n_classes):
            members = np.flatnonzero(asg.units == c)
            if members.size == 0:
                continue
            m = data.mask[members]
            counts = m.sum(axis=0)
            sums = np.where(m, data.values[members], 0.0).sum(axis=0)
            means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
            cents[c] = np.where(counts > 0, means, cents[c])
        new = assign(cents, data.values, data.mask)
        history.append(float(new.sq_distances[new.units >= 0].sum()))
        stable = bool(np.array_equal(new.units, asg.units))
        asg = new
        if stable:
            converged = True
            break

    centroids = CodeBook(cents, GridTopology(1, n_classes), data.col_names)
    return ForgyResult(centroids, asg, n_iters, converged, tuple(history))

