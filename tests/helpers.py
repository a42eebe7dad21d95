"""Shared independent oracles for the test suite.

Everything here is deliberately naive (loops, enumeration) so it cannot
share a bug with the vectorized implementations it checks.
"""

from __future__ import annotations

import numpy as np


def estimate(report, row: int, col: int) -> float:
    """The report's estimate for cell ``(row, col)``, which must be one of
    its filled cells."""
    f = report.fills
    assert ((f.rows == row) & (f.cols == col)).any(), f"cell ({row}, {col}) was not filled"
    return float(report.filled.values[row, col])


def brute_masked_sq_distance(x, observed, code) -> float:
    """Explicit loop over observed components, ascending index order."""
    total = 0.0
    for k in range(len(x)):
        if observed[k]:
            d = x[k] - code[k]
            total += d * d
    return total


def brute_winner(x, observed, codes) -> int:
    """Argmin of the loop-based distance, lowest index on ties."""
    best, best_u = None, None
    for u in range(codes.shape[0]):
        d = brute_masked_sq_distance(x, observed, codes[u])
        if best is None or d < best:
            best, best_u = d, u
    return best_u


def brute_grid_distance(cols, u, v) -> int:
    """Chebyshev distance between units ``u`` and ``v`` of a grid ``cols``
    units wide, from their row-major ``divmod`` coordinates."""
    ur, uc = divmod(u, cols)
    vr, vc = divmod(v, cols)
    return max(abs(ur - vr), abs(uc - vc))


def brute_neighbors(rows, cols, u, radius) -> list[int]:
    """Units within ``radius`` of ``u`` (inclusive), ascending, by
    enumerating every unit of the grid."""
    return [v for v in range(rows * cols) if brute_grid_distance(cols, u, v) <= radius]


def alpha_at(schedule, t: int) -> float:
    """The learning rate of step ``t``, one scalar at a time."""
    if schedule.total_iters == 1:
        return schedule.alpha0
    frac = t / (schedule.total_iters - 1)
    return schedule.alpha0 + (schedule.alpha_final - schedule.alpha0) * frac


def radius_at(schedule, t: int) -> int:
    """The neighbourhood radius of step ``t``, one scalar at a time."""
    d = schedule.decay_iters
    if t >= d:
        return 0
    # ceil(radius0 * (d - t) / d) in exact integer arithmetic
    num = schedule.radius0 * (d - t)
    return (num + d - 1) // d


def reference_train_codes(data, topology, schedule, complete_only=False):
    """Final codes of online training, one plain step at a time.

    Follows the documented protocol: initial codes from one
    ``(n_units, p)`` uniform draw over the observed column ranges, then one
    scalar row draw per step from the same stream.  Each step gathers the
    row's observed components from every code, takes the winner by their
    summed squared difference, and scatters the update into the winner and
    every unit within the step's radius.
    """
    values, mask = data.values, data.mask
    pool = np.flatnonzero(mask.all(axis=1) if complete_only else mask.any(axis=1))
    rng = np.random.default_rng(schedule.rng_seed)
    lo, hi = np.nanmin(values, axis=0), np.nanmax(values, axis=0)
    codes = rng.uniform(lo, hi, size=(topology.n_units, values.shape[1]))
    cheb = topology.distance_matrix()
    for t in range(schedule.total_iters):
        i = pool[rng.integers(pool.size)]
        obs_idx = np.flatnonzero(mask[i])
        x_obs = values[i, obs_idx]
        w = np.argmin(((codes[:, obs_idx] - x_obs) ** 2).sum(axis=1))
        nb = np.flatnonzero(cheb[w] <= radius_at(schedule, t))[:, None]
        block = codes[nb, obs_idx]
        codes[nb, obs_idx] = block + alpha_at(schedule, t) * (x_obs - block)
    return codes


def set_partitions(items):
    """All partitions of ``items`` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def within_class_ss(points, blocks) -> float:
    """Total within-class sum of squares of a partition."""
    total = 0.0
    for b in blocks:
        pts = points[list(b)]
        mu = pts.mean(axis=0)
        total += float(((pts - mu) ** 2).sum())
    return total


def best_partition_at_k(points, k):
    """Globally optimal k-partition by enumeration, plus the optimality margin.

    Returns (partition as set of frozensets, margin to the second-best ESS);
    margin is None when only one k-partition exists.
    """
    n = points.shape[0]
    best, second, best_part = None, None, None
    for part in set_partitions(range(n)):
        if len(part) != k:
            continue
        e = within_class_ss(points, part)
        if best is None or e < best:
            second = best
            best, best_part = e, part
        elif second is None or e < second:
            second = e
    margin = None if second is None else second - best
    return {frozenset(b) for b in best_part}, margin


def labels_to_partition(labels) -> set[frozenset]:
    labels = np.asarray(labels)
    return {
        frozenset(np.flatnonzero(labels == lab).tolist())
        for lab in np.unique(labels)
    }


def naive_pearson(x, y) -> float:
    """Textbook Pearson correlation, plain Python accumulation."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x)
    dy = sum((b - my) ** 2 for b in y)
    return num / (dx * dy) ** 0.5
