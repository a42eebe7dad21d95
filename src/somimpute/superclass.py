"""Macro-classes of map units via agglomerative clustering of code vectors.

Merge cost is the increase in within-class sum of squares (Ward); code
vectors are always fully defined, so the plain squared Euclidean geometry
applies.  Ties between equal merge costs break to the lexicographically
smallest pair of smallest-member unit indices, making the dendrogram a
deterministic function of the codebook.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _readonly
from .metric import _CHUNK_CELLS, UNCLASSIFIABLE, Assignment, CodeBook

UNLABELED = -1


@dataclass(frozen=True)
class SuperClassing:
    """Unit -> super-class labels plus the merge sequence that produced them.

    ``dendrogram`` uses scipy-style cluster ids: original units are
    0..n_units-1 and the cluster created by merge step s gets id n_units+s.
    Heights are the within-class-variance increase of each merge and are
    non-decreasing along the sequence.
    """

    labels: np.ndarray
    dendrogram: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        labels = np.array(self.labels, dtype=int)
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        object.__setattr__(self, "labels", _readonly(labels))

    @property
    def n_units(self) -> int:
        return self.labels.shape[0]


def ward_dendrogram(points: np.ndarray) -> list[tuple[int, int, float]]:
    """Full agglomerative merge sequence of ``points`` under Ward cost.

    Returns ``len(points) - 1`` merges ``(left_id, right_id, height)`` where
    ids follow the scipy convention and left/right are ordered by smallest
    member index.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty 2-D array")
    m = pts.shape[0]
    ids = list(range(m))
    sizes = np.ones(m)
    means = pts.copy()
    merges: list[tuple[int, int, float]] = []
    next_id = m
    active = list(range(m))  # indices into ids/sizes/means rows
    lower = np.tri(m, dtype=bool)  # the diagonal and below: each pair once, as a < b

    while len(active) > 1:
        n = len(active)
        sub_sizes = sizes[active]
        sub_means = means[active]
        # squared distances a chunk of rows at a time, never the (n, n, p) cube
        sq = np.empty((n, n))
        step = max(1, _CHUNK_CELLS // (n * pts.shape[1]))
        for lo in range(0, n, step):
            diff = sub_means[lo:lo + step, None, :] - sub_means[None, :, :]
            diff *= diff
            sq[lo:lo + step] = diff.sum(axis=-1)
        weight = sub_sizes[:, None] * sub_sizes[None, :] / (sub_sizes[:, None] + sub_sizes[None, :])
        cost = weight * sq
        cost[lower[:n, :n]] = np.inf
        # a merge keeps the lower slot, so each slot is its cluster's smallest member and
        # ``active`` ascends: the first minimum in row-major order breaks ties as documented
        a, b = divmod(int(cost.argmin()), n)
        ia, ib = active[a], active[b]
        merges.append((ids[ia], ids[ib], float(cost[a, b])))
        total = sizes[ia] + sizes[ib]
        means[ia] = (sizes[ia] * means[ia] + sizes[ib] * means[ib]) / total
        sizes[ia] = total
        ids[ia] = next_id
        next_id += 1
        active.remove(ib)
    return merges


def cut_dendrogram(merges: list[tuple[int, int, float]], n_leaves: int, k: int) -> np.ndarray:
    """Labels in ``{0..k-1}`` from the first ``n_leaves - k`` merges.

    Label names are assigned by ascending smallest member index, so they are
    stable under dendrogram replay.
    """
    if not 1 <= k <= n_leaves:
        raise ValueError(f"k must lie in [1, {n_leaves}], got {k}")
    members: dict[int, list[int]] = {u: [u] for u in range(n_leaves)}
    next_id = n_leaves
    for left, right, _height in merges[: n_leaves - k]:
        members[next_id] = members.pop(left) + members.pop(right)
        next_id += 1
    groups = sorted(members.values(), key=min)
    labels = np.empty(n_leaves, dtype=int)
    for lab, group in enumerate(groups):
        labels[group] = lab
    return labels


def hierarchical_codes(codebook: CodeBook, k: int) -> SuperClassing:
    """Group the code vectors into ``k`` super-classes."""
    merges = ward_dendrogram(codebook.codes)
    labels = cut_dendrogram(merges, codebook.n_units, k)
    return SuperClassing(labels, tuple(merges))


def superclass_of_rows(assignment: Assignment, sc: SuperClassing) -> np.ndarray:
    """Each classified row inherits its unit's super-class; unclassifiable
    rows stay ``UNLABELED`` (-1)."""
    if assignment.n_units != sc.n_units:
        raise ValueError(
            f"assignment covers {assignment.n_units} units, super-classing {sc.n_units}; "
            "they must come from the same codebook"
        )
    units = assignment.units
    safe = np.where(units == UNCLASSIFIABLE, 0, units)
    return np.where(units == UNCLASSIFIABLE, UNLABELED, sc.labels[safe])
