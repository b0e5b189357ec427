"""Nearest-neighbour configuration lookup, the non-learning baseline.

Stores the training features verbatim and answers a query with the label of
the closest stored example under mean square distance. Exhaustive search;
ties go to the lowest stored index so results are reproducible.
"""

from __future__ import annotations

import numpy as np


class NncIndex:
    """Immutable feature/label store with exhaustive nearest lookup."""

    def __init__(self, features, labels):
        x = np.asarray(features, dtype=float)
        y = np.asarray(labels)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("features must be a non-empty (B, D) matrix")
        if y.shape[0] != x.shape[0]:
            raise ValueError("labels must have one row per feature row")
        self.features = x
        self.labels = y

    def nearest(self, query) -> int:
        """Index of the closest stored example (first on exact distance ties)."""
        return int(self.nearest_batch(np.atleast_2d(np.asarray(query, dtype=float)))[0])

    def nearest_batch(self, queries) -> np.ndarray:
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        if q.shape[1] != self.features.shape[1]:
            raise ValueError("query dimension does not match the stored features")
        diff = q[:, None, :] - self.features[None, :, :]
        return np.argmin(np.mean(diff * diff, axis=2), axis=1)

    def predict(self, query) -> np.ndarray:
        return np.array(self.labels[self.nearest(query)], copy=True)
