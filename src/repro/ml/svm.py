"""Support vector machines.

Section 5 of the paper analyses SVMs as adaptation-model candidates:
linear-kernel SVMs (cheap, one inner product per prediction, evaluated
as a small ensemble) and chi-square-kernel SVMs (accurate but an order
of magnitude more inference ops than the largest MLP — Table 3 lists
121k ops for 1,000 support vectors). The paper ultimately finds SVMs
insufficiently accurate per op to deploy, but both variants are needed
to regenerate Table 3.

:class:`LinearSVM` trains a squared-hinge-loss linear separator with
L-BFGS. :class:`KernelSVM` trains the kernel dual with a simplified
SMO-style coordinate ascent over a (subsampled) kernel matrix, with a
support-vector budget matching the paper's "max support vectors"
configuration knob.
"""

from __future__ import annotations

import numpy as np

from repro import rng as rng_mod
from repro.errors import ConfigurationError
from repro.ml.base import Estimator, StandardScaler, check_xy
from repro.ml.kernels import get_kernel
from repro.ml.linear import lbfgs_minimize
from repro.ml.mlp import sigmoid


class LinearSVM(Estimator):
    """Linear SVM (squared hinge loss), optionally a small ensemble.

    The paper's Table 3 entry is a 5-member linear-SVM ensemble; with
    ``n_members > 1`` each member trains on a bootstrap sample and the
    score is the mean margin.
    """

    def __init__(self, c: float = 1.0, n_members: int = 1,
                 max_iter: int = 200, seed: int = 0) -> None:
        if n_members < 1:
            raise ConfigurationError(f"n_members must be >= 1: {n_members}")
        self.c = c
        self.n_members = n_members
        self.max_iter = max_iter
        self.seed = seed
        self.decision_threshold = 0.5
        self.coefs_: np.ndarray | None = None  # (m, d)
        self.intercepts_: np.ndarray | None = None  # (m,)
        self.scaler_: StandardScaler | None = None

    def _fit_member(self, xs: np.ndarray, sy: np.ndarray,
                    ) -> tuple[np.ndarray, float]:
        n, d = xs.shape

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            w, b = params[:d], params[d]
            margins = sy * (xs @ w + b)
            slack = np.maximum(1.0 - margins, 0.0)
            loss = 0.5 * (w @ w) + self.c * np.sum(slack ** 2) / n
            grad_scale = -2.0 * self.c * slack * sy / n
            grad_w = w + xs.T @ grad_scale
            grad_b = grad_scale.sum()
            return float(loss), np.concatenate([grad_w, [grad_b]])

        result = lbfgs_minimize(objective, d + 1, self.max_iter)
        return result.x[:d], float(result.x[d])

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearSVM":
        x, y = check_xy(x, y)
        sy = np.where(y > 0, 1.0, -1.0)
        self.scaler_ = StandardScaler()
        xs = self.scaler_.fit_transform(x)
        rng = rng_mod.stream(self.seed, "linsvm")
        coefs, intercepts = [], []
        n = xs.shape[0]
        for member in range(self.n_members):
            if self.n_members > 1:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            w, b = self._fit_member(xs[idx], sy[idx])
            coefs.append(w)
            intercepts.append(b)
        self.coefs_ = np.array(coefs)
        self.intercepts_ = np.array(intercepts)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted("coefs_")
        assert self.scaler_ is not None
        assert self.coefs_ is not None and self.intercepts_ is not None
        x, _ = check_xy(x)
        xs = self.scaler_.transform(x)
        margins = xs @ self.coefs_.T + self.intercepts_
        return sigmoid(margins.mean(axis=1))


class KernelSVM(Estimator):
    """Kernel SVM trained with simplified SMO coordinate ascent.

    ``max_support_vectors`` bounds the training subsample, matching the
    paper's configuration knob (Table 3 uses 1,000 for the chi-square
    kernel). Features are min-max scaled to [0, 1] so the chi-square
    kernel's non-negativity requirement holds.
    """

    def __init__(self, kernel: str = "chi2", c: float = 1.0,
                 gamma: float = 1.0, max_support_vectors: int = 1000,
                 max_passes: int = 5, tol: float = 1e-3,
                 seed: int = 0) -> None:
        self.kernel_name = kernel
        self.c = c
        self.gamma = gamma
        self.max_support_vectors = max_support_vectors
        self.max_passes = max_passes
        self.tol = tol
        self.seed = seed
        self.decision_threshold = 0.5
        self.support_x_: np.ndarray | None = None
        self.support_alpha_y_: np.ndarray | None = None
        self.intercept_: float | None = None
        self._min: np.ndarray | None = None
        self._range: np.ndarray | None = None

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        func = get_kernel(self.kernel_name)
        if self.kernel_name == "linear":
            return func(a, b)
        return func(a, b, gamma=self.gamma)

    def _scale(self, x: np.ndarray) -> np.ndarray:
        assert self._min is not None and self._range is not None
        return np.clip((x - self._min) / self._range, 0.0, 1.0)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KernelSVM":
        x, y = check_xy(x, y)
        sy = np.where(y > 0, 1.0, -1.0)
        self._min = x.min(axis=0)
        rng_range = x.max(axis=0) - self._min
        rng_range[rng_range == 0.0] = 1.0
        self._range = rng_range
        xs = self._scale(x)

        rng = rng_mod.stream(self.seed, "ksvm")
        n = xs.shape[0]
        if n > self.max_support_vectors:
            idx = rng.choice(n, size=self.max_support_vectors, replace=False)
            xs, sy = xs[idx], sy[idx]
            n = xs.shape[0]

        gram = self._kernel(xs, xs)
        alpha = np.zeros(n)
        b = 0.0
        passes = 0
        while passes < self.max_passes:
            changed = 0
            scores = (alpha * sy) @ gram + b
            errors = scores - sy
            for i in range(n):
                e_i = float((alpha * sy) @ gram[i] + b - sy[i])
                kkt = ((sy[i] * e_i < -self.tol and alpha[i] < self.c)
                       or (sy[i] * e_i > self.tol and alpha[i] > 0.0))
                if not kkt:
                    continue
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                e_j = float((alpha * sy) @ gram[j] + b - sy[j])
                a_i_old, a_j_old = alpha[i], alpha[j]
                if sy[i] != sy[j]:
                    low = max(0.0, a_j_old - a_i_old)
                    high = min(self.c, self.c + a_j_old - a_i_old)
                else:
                    low = max(0.0, a_i_old + a_j_old - self.c)
                    high = min(self.c, a_i_old + a_j_old)
                if low >= high:
                    continue
                eta = 2.0 * gram[i, j] - gram[i, i] - gram[j, j]
                if eta >= 0.0:
                    continue
                a_j = a_j_old - sy[j] * (e_i - e_j) / eta
                a_j = min(max(a_j, low), high)
                if abs(a_j - a_j_old) < 1e-6:
                    continue
                a_i = a_i_old + sy[i] * sy[j] * (a_j_old - a_j)
                alpha[i], alpha[j] = a_i, a_j
                b_i = (b - e_i - sy[i] * (a_i - a_i_old) * gram[i, i]
                       - sy[j] * (a_j - a_j_old) * gram[i, j])
                b_j = (b - e_j - sy[i] * (a_i - a_i_old) * gram[i, j]
                       - sy[j] * (a_j - a_j_old) * gram[j, j])
                if 0.0 < a_i < self.c:
                    b = b_i
                elif 0.0 < a_j < self.c:
                    b = b_j
                else:
                    b = 0.5 * (b_i + b_j)
                changed += 1
            passes = passes + 1 if changed == 0 else 0
            if changed == 0:
                break
        support = alpha > 1e-8
        self.support_x_ = xs[support]
        self.support_alpha_y_ = (alpha * sy)[support]
        self.intercept_ = float(b)
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Signed margin of each sample."""
        self._require_fitted("support_x_")
        assert (self.support_x_ is not None
                and self.support_alpha_y_ is not None
                and self.intercept_ is not None)
        x, _ = check_xy(x)
        xs = self._scale(x)
        gram = self._kernel(xs, self.support_x_)
        return gram @ self.support_alpha_y_ + self.intercept_

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(x))

    @property
    def n_support(self) -> int:
        """Number of support vectors retained."""
        self._require_fitted("support_x_")
        assert self.support_x_ is not None
        return int(self.support_x_.shape[0])
