"""Linear probabilistic classifiers.

* :class:`LogisticRegression` — trained with L-BFGS via
  ``scipy.optimize`` (the paper trains SRCH "by fitting a logistic
  regression using an open source implementation of the L-BFGS
  algorithm").
* :class:`SoftmaxRegression` — the multi-configuration generalisation
  used by the SRCH framework of Dubach et al.; with two classes it
  reduces exactly to logistic regression, as the paper notes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import Estimator, StandardScaler, check_xy
from repro.ml.mlp import sigmoid


def lbfgs_minimize(objective, n_params: int, max_iter: int):
    """L-BFGS-B from zeros, with ``objective`` returning (loss, grad).

    ``scipy.optimize`` is imported on first use: it is most of the
    package's import time, and only the L-BFGS fits need it.
    """
    import scipy.optimize
    return scipy.optimize.minimize(
        objective, np.zeros(n_params), jac=True, method="L-BFGS-B",
        options={"maxiter": max_iter},
    )


class LogisticRegression(Estimator):
    """Binary logistic regression with L2 regularisation (L-BFGS)."""

    def __init__(self, l2: float = 1e-4, max_iter: int = 200,
                 class_weight: str | None = "balanced") -> None:
        self.l2 = l2
        self.max_iter = max_iter
        self.class_weight = class_weight
        self.decision_threshold = 0.5
        self.coef_: np.ndarray | None = None
        self.intercept_: float | None = None
        self.scaler_: StandardScaler | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        x, y = check_xy(x, y)
        y = y.astype(np.float64)
        self.scaler_ = StandardScaler()
        xs = self.scaler_.fit_transform(x)
        n, d = xs.shape
        if self.class_weight == "balanced":
            pos = max(y.mean(), 1e-6)
            weights = np.where(y == 1.0, 0.5 / pos, 0.5 / max(1 - pos, 1e-6))
        else:
            weights = np.ones(n)
        weights = weights / weights.sum()

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            w, b = params[:d], params[d]
            z = xs @ w + b
            p = sigmoid(z)
            eps = 1e-12
            loss = -np.sum(weights * (y * np.log(p + eps)
                                      + (1 - y) * np.log(1 - p + eps)))
            loss += 0.5 * self.l2 * (w @ w)
            delta = weights * (p - y)
            grad_w = xs.T @ delta + self.l2 * w
            grad_b = delta.sum()
            return float(loss), np.concatenate([grad_w, [grad_b]])

        result = lbfgs_minimize(objective, d + 1, self.max_iter)
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d])
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted("coef_")
        assert self.scaler_ is not None and self.coef_ is not None
        x, _ = check_xy(x)
        xs = self.scaler_.transform(x)
        return sigmoid(xs @ self.coef_ + self.intercept_)


class SoftmaxRegression:
    """Multinomial logistic (softmax) regression via L-BFGS.

    Predicts the best of ``k`` hardware configurations from counter
    features, as in the SRCH framework. For ``k = 2`` its probabilities
    match :class:`LogisticRegression` up to optimisation tolerance.
    """

    def __init__(self, l2: float = 1e-4, max_iter: int = 200) -> None:
        self.l2 = l2
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None  # (d, k)
        self.intercept_: np.ndarray | None = None  # (k,)
        self.scaler_: StandardScaler | None = None
        self.n_classes_: int | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SoftmaxRegression":
        x, y = check_xy(x, y)
        y = y.astype(np.int64)
        if y.min() < 0:
            raise ConfigurationError("labels must be non-negative ints")
        k = int(y.max()) + 1
        self.n_classes_ = k
        self.scaler_ = StandardScaler()
        xs = self.scaler_.fit_transform(x)
        n, d = xs.shape
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0

        def softmax(z: np.ndarray) -> np.ndarray:
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=1, keepdims=True)

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            w = params[:d * k].reshape(d, k)
            b = params[d * k:]
            p = softmax(xs @ w + b)
            eps = 1e-12
            loss = -np.sum(onehot * np.log(p + eps)) / n
            loss += 0.5 * self.l2 * np.sum(w * w)
            delta = (p - onehot) / n
            grad_w = xs.T @ delta + self.l2 * w
            grad_b = delta.sum(axis=0)
            return float(loss), np.concatenate([grad_w.ravel(), grad_b])

        result = lbfgs_minimize(objective, d * k + k, self.max_iter)
        self.coef_ = result.x[:d * k].reshape(d, k)
        self.intercept_ = result.x[d * k:]
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            from repro.errors import NotFittedError
            raise NotFittedError("SoftmaxRegression must be fitted first")
        assert self.scaler_ is not None and self.intercept_ is not None
        x, _ = check_xy(x)
        xs = self.scaler_.transform(x)
        z = xs @ self.coef_ + self.intercept_
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most likely configuration index for each row."""
        return self.predict_proba(x).argmax(axis=1)
