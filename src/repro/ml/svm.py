"""Linear support vector machines.

The paper trains linear-kernel SVMs and implements SVM-C with 1-vs-1
classification (Section III-A).  Table I is only consistent if the
hardware holds one hardwired weight vector *per class* (coefficient count
``k * n_features``) while instantiating ``k*(k-1)/2`` pairwise decision
units (the "number of classifiers" column).  This module follows that
reading: :class:`LinearSVMClassifier` learns per-class linear score
functions (one-vs-rest squared hinge, the liblinear-style objective) and
predicts through exact 1-vs-1 voting over score differences — the same
comparator/vote network the bespoke circuit implements.

:class:`LinearSVMRegressor` is a single weight vector trained on the
epsilon-insensitive loss, scored as a classifier by rounding.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator
from .metrics import accuracy_score, regression_label_accuracy

__all__ = ["LinearSVMClassifier", "LinearSVMRegressor", "one_vs_one_predict"]


def one_vs_one_predict(scores: np.ndarray) -> np.ndarray:
    """1-vs-1 voting over per-class scores with hardware tie semantics.

    For every pair ``i < j`` class ``i`` receives the vote when
    ``score_i >= score_j``.  The winner is the first class with the
    maximum vote count (``numpy.argmax`` semantics), matching the bespoke
    comparator network bit for bit.
    """
    n_classes = scores.shape[1]
    votes = np.zeros_like(scores, dtype=np.int64)
    for i in range(n_classes):
        for j in range(i + 1, n_classes):
            i_wins = scores[:, i] >= scores[:, j]
            votes[:, i] += i_wins
            votes[:, j] += ~i_wins
    return np.argmax(votes, axis=1)


class _AdamOptimizer:
    """Full-batch Adam used by both SVM trainers."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        self.m = beta1 * self.m + (1 - beta1) * grad
        self.v = beta2 * self.v + (1 - beta2) * grad * grad
        m_hat = self.m / (1 - beta1 ** self.t)
        v_hat = self.v / (1 - beta2 ** self.t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


class LinearSVMClassifier(BaseEstimator):
    """Multiclass linear SVM with per-class weight vectors.

    Args:
        C: inverse regularization strength (liblinear convention).
        lr: Adam learning rate.
        max_epochs: optimization steps (full-batch).
        seed: initialization seed.
    """

    _fitted_schema = {"classes_": "*:1", "coef_": "<f8:2",
                      "intercept_": "<f8:1"}

    def __init__(self, C: float = 1.0, lr: float = 0.05,
                 max_epochs: int = 600, seed: int = 0) -> None:
        self.C = C
        self.lr = lr
        self.max_epochs = max_epochs
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVMClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("need at least two classes")
        n_samples, n_features = X.shape
        # One-vs-rest targets in {-1, +1}, one column per class.
        targets = np.where(
            y[:, None] == self.classes_[None, :], 1.0, -1.0)
        rng = np.random.default_rng(self.seed)
        weights = rng.normal(0.0, 0.01, size=(n_features, n_classes))
        bias = np.zeros(n_classes)
        adam_w = _AdamOptimizer(weights.shape)
        adam_b = _AdamOptimizer(bias.shape)
        reg = 1.0 / (self.C * n_samples)
        for _ in range(self.max_epochs):
            margins = targets * (X @ weights + bias)
            slack = np.maximum(0.0, 1.0 - margins)
            # Squared hinge: smooth, so full-batch Adam converges cleanly.
            grad_logits = -2.0 * slack * targets / n_samples
            grad_w = X.T @ grad_logits + 2.0 * reg * weights
            grad_b = grad_logits.sum(axis=0)
            adam_w.step(weights, grad_w, self.lr)
            adam_b.step(bias, grad_b, self.lr)
        self.coef_ = weights
        self.intercept_ = bias
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        winners = one_vs_one_predict(self.decision_function(X))
        return self.classes_[winners]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return accuracy_score(y, self.predict(X))

    @property
    def n_pairwise_classifiers(self) -> int:
        """The "number of classifiers" of Table I: k*(k-1)/2."""
        k = len(self.classes_)
        return k * (k - 1) // 2


class LinearSVMRegressor(BaseEstimator):
    """Linear epsilon-insensitive support vector regression."""

    _fitted_schema = {"y_min_": "int", "y_max_": "int", "coef_": "<f8:1",
                      "intercept_": "float"}

    def __init__(self, C: float = 1.0, epsilon: float = 0.1, lr: float = 0.05,
                 max_epochs: int = 600, seed: int = 0) -> None:
        self.C = C
        self.epsilon = epsilon
        self.lr = lr
        self.max_epochs = max_epochs
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVMRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.y_min_ = int(np.floor(np.min(y)))
        self.y_max_ = int(np.ceil(np.max(y)))
        n_samples, n_features = X.shape
        rng = np.random.default_rng(self.seed)
        weights = rng.normal(0.0, 0.01, size=n_features)
        bias = np.array([float(np.mean(y))])
        adam_w = _AdamOptimizer(weights.shape)
        adam_b = _AdamOptimizer(bias.shape)
        reg = 1.0 / (self.C * n_samples)
        for _ in range(self.max_epochs):
            residual = X @ weights + bias[0] - y
            outside = np.abs(residual) > self.epsilon
            subgrad = np.sign(residual) * outside / n_samples
            grad_w = X.T @ subgrad + 2.0 * reg * weights
            grad_b = np.array([subgrad.sum()])
            adam_w.step(weights, grad_w, self.lr)
            adam_b.step(bias, grad_b, self.lr)
        self.coef_ = weights
        self.intercept_ = float(bias[0])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coef_ + self.intercept_

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return regression_label_accuracy(y, self.predict(X),
                                         self.y_min_, self.y_max_)
