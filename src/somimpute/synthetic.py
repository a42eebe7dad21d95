"""Synthetic dataset generators for experiments and tests.

The deletion study needs complete matrices whose columns are strongly
correlated (a shared latent factor with cluster structure); the
classification study needs well-separated point clouds.
"""

from __future__ import annotations

import numpy as np

from .data import DataMatrix


def _complete(values: np.ndarray) -> DataMatrix:
    """``values`` all observed, rows labelled ``row000...``, columns ``v00...``."""
    n_rows, n_cols = values.shape
    return DataMatrix(values, np.ones_like(values, dtype=bool),
                      tuple(f"row{i:03d}" for i in range(n_rows)),
                      tuple(f"v{k:02d}" for k in range(n_cols)))


def correlated_clusters(
    n_rows: int = 24,
    n_cols: int = 11,
    n_clusters: int = 3,
    seed: int = 0,
) -> tuple[DataMatrix, np.ndarray]:
    """Complete matrix driven by one latent factor with cluster structure.

    The factor is the row's cluster center (evenly spaced on [-2, 2]) plus
    normal noise of sd 0.35.  Every column scales it by a draw from [0.8,
    1.2] and adds independent normal noise of sd 0.4, so all inter-column
    correlations are high.  Returns the matrix and the cluster label per row.
    """
    rng = np.random.default_rng(seed)
    centers = np.linspace(-2.0, 2.0, n_clusters)
    labels = np.arange(n_rows) % n_clusters
    latent = centers[labels] + 0.35 * rng.standard_normal(n_rows)
    scale = rng.uniform(0.8, 1.2, size=n_cols)
    values = latent[:, None] * scale[None, :] + 0.4 * rng.standard_normal((n_rows, n_cols))
    return _complete(values), labels


def gaussian_blobs(
    centers,
    n_per_cluster: int,
    noise: float = 1.0,
    seed: int = 0,
) -> tuple[DataMatrix, np.ndarray]:
    """Isotropic Gaussian clouds around the given centers."""
    centers = np.asarray(centers, dtype=float)
    rng = np.random.default_rng(seed)
    n_clusters, p = centers.shape
    labels = np.repeat(np.arange(n_clusters), n_per_cluster)
    values = centers[labels] + noise * rng.standard_normal((labels.size, p))
    return _complete(values), labels


def iid_gaussian(n_rows: int, n_cols: int, seed: int = 0) -> DataMatrix:
    """Independent standard normal cells; the uncorrelated control case."""
    rng = np.random.default_rng(seed)
    return _complete(rng.standard_normal((n_rows, n_cols)))
