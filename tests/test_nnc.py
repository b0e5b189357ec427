"""Nearest-neighbor configuration baseline."""

import numpy as np
import pytest

from sparsebeam import nnc


def make_index(n=40, n_features=7, n_grid=6, seed=0, metric="mse"):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, n_features))
    labels = np.zeros((n, n_grid), dtype=int)
    for row in labels:
        row[rng.choice(n_grid, size=3, replace=False)] = 1
    return nnc.NncIndex(feats, labels, metric=metric), feats, labels


def test_train_points_recall_their_own_labels():
    index, feats, labels = make_index()
    for i in range(len(feats)):
        assert np.array_equal(index.predict(feats[i]), labels[i])


def test_batch_matches_single_queries():
    index, feats, _ = make_index(seed=1)
    rng = np.random.default_rng(2)
    queries = rng.normal(size=(10, feats.shape[1]))
    batch = index.nearest_batch(queries)
    for q, i in zip(queries, batch):
        assert index.nearest(q) == i
        assert np.array_equal(index.predict(q), index.labels[i])


def test_ties_resolve_to_lowest_stored_id():
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    labels = np.array([[1, 0], [0, 1], [1, 1]])
    index = nnc.NncIndex(feats, labels)
    assert index.nearest(np.array([1.0, 0.0])) == 0
    assert np.array_equal(index.predict(np.array([1.0, 0.0])), labels[0])


def test_metrics_can_disagree():
    # squared error punishes the single large deviation, absolute error
    # prefers it over four medium ones
    feats = np.array([[3.0, 0.0, 0.0, 0.0], [1.2, 1.2, 1.2, 1.2]])
    labels = np.array([[1, 0], [0, 1]])
    q = np.zeros(4)
    assert nnc.NncIndex(feats, labels, metric="mse").nearest(q) == 1
    assert nnc.NncIndex(feats, labels, metric="mae").nearest(q) == 0


def test_predictions_are_copies():
    index, feats, labels = make_index(seed=3)
    out = index.predict(feats[0])
    out[:] = 9
    assert np.array_equal(index.predict(feats[0]), labels[0])


def test_validation_errors():
    feats = np.zeros((4, 3))
    labels = np.zeros((5, 6), dtype=int)
    with pytest.raises(ValueError):
        nnc.NncIndex(feats, labels)
    with pytest.raises(ValueError):
        nnc.NncIndex(np.zeros((4, 3)), np.zeros((4, 6)), metric="cosine")
    index = nnc.NncIndex(np.zeros((4, 3)), np.zeros((4, 6), dtype=int))
    with pytest.raises(ValueError):
        index.predict(np.zeros(2))
