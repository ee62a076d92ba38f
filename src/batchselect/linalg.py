"""Dense symmetric positive-definite linear algebra shared by all modules.

Every application of an inverse covariance goes through a cached Cholesky
factorization; explicit inverses are never materialized.
"""
from __future__ import annotations

import numpy as np
from scipy import linalg as sla

SYMMETRY_RTOL = 1e-12
SINGULARITY_RTOL = 1e-12
RESIDUAL_TOL = 1e-8


class SingularMatrixError(ValueError):
    """Covariance matrix is numerically singular."""

    def __init__(self, dim: int, min_eig: float):
        super().__init__(
            f"covariance of dimension {dim} is numerically singular "
            f"(smallest eigenvalue {min_eig:.3e})"
        )
        self.dim = dim
        self.min_eig = min_eig


class CovarianceMatrix:
    """Regularized empirical covariance V = (lambda/n) I + (1/n) sum phi phi^T.

    The matrix is symmetrized on construction and eigen-bounds are computed
    once.  `ridge_floor` records the lambda/n term folded into the entries.
    """

    def __init__(self, entries: np.ndarray, ridge_floor: float = 0.0):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("covariance entries must form a square matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("covariance entries must be finite")
        if ridge_floor < 0:
            raise ValueError("ridge_floor must be nonnegative")
        scale = max(float(np.max(np.abs(entries))), 1.0)
        if float(np.max(np.abs(entries - entries.T))) > SYMMETRY_RTOL * scale:
            raise ValueError("covariance entries are not symmetric")
        self.entries = (entries + entries.T) / 2.0
        self.dim = entries.shape[0]
        self.ridge_floor = float(ridge_floor)
        eigs = np.linalg.eigvalsh(self.entries)
        self.min_eig = float(eigs[0])
        self.max_eig = float(eigs[-1])
        if self.min_eig < self.ridge_floor - 1e-9 * max(abs(self.max_eig), 1.0):
            raise ValueError(
                f"smallest eigenvalue {self.min_eig:.3e} below ridge floor "
                f"{self.ridge_floor:.3e}"
            )
        self._chol = None

    def _is_singular(self) -> bool:
        return self.min_eig <= SINGULARITY_RTOL * max(abs(self.max_eig), 1e-300)

    def _factor(self):
        if self._chol is None:
            if self._is_singular():
                raise SingularMatrixError(self.dim, self.min_eig)
            self._chol = sla.cho_factor(self.entries, lower=True)
        return self._chol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply V^{-1} to a vector or to the columns of a matrix."""
        return sla.cho_solve(self._factor(), np.asarray(rhs, dtype=float))


class RidgeFit:
    """Ridge solution theta_hat together with its covariance V."""

    def __init__(self, theta_hat, cov: CovarianceMatrix, n: int, lam: float):
        theta_hat = np.asarray(theta_hat, dtype=float)
        if theta_hat.shape != (cov.dim,):
            raise ValueError("theta_hat length must equal cov.dim")
        self.theta_hat = theta_hat
        self.cov = cov
        self.n = int(n)
        self.lam = float(lam)
        self.dim = cov.dim


def ridge_fit(features: np.ndarray, rewards: np.ndarray, lam: float) -> RidgeFit:
    """Fit V = (lam/n)I + (1/n) Phi^T Phi and theta_hat = V^{-1}(1/n) Phi^T y.

    Solved through the SPD factorization of V; raises SingularMatrixError
    when lam = 0 and the Gram matrix is rank deficient.
    """
    features = np.asarray(features, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be an n x d matrix")
    n, d = features.shape
    if n < 1:
        raise ValueError("need at least one sample")
    if rewards.shape != (n,):
        raise ValueError("rewards length must match feature rows")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not (np.all(np.isfinite(features)) and np.all(np.isfinite(rewards))):
        raise ValueError("non-finite values in ridge inputs")
    gram = features.T @ features / n
    entries = gram + (lam / n) * np.eye(d)
    cov = CovarianceMatrix(entries, ridge_floor=lam / n)
    target = features.T @ rewards / n
    theta = cov.solve(target)
    residual = np.linalg.norm(cov.entries @ theta - target)
    if residual > RESIDUAL_TOL * (1.0 + np.linalg.norm(theta)):
        raise ArithmeticError(f"normal-equation residual {residual:.3e} too large")
    return RidgeFit(theta, cov, n, lam)


def inv_quad_norms(cov: CovarianceMatrix, rows: np.ndarray) -> np.ndarray:
    """Row-wise Mahalanobis norms for a stack of vectors of shape (m, d)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != cov.dim:
        raise ValueError("rows must have shape (m, dim)")
    solved = cov.solve(rows.T)
    quad = np.einsum("md,dm->m", rows, solved)
    return np.sqrt(np.maximum(quad, 0.0))


def inv_sqrt_spectral_norm(cov: CovarianceMatrix) -> float:
    """Spectral norm of V^{-1/2}, i.e. lambda_min(V)^{-1/2}."""
    if cov._is_singular():
        raise SingularMatrixError(cov.dim, cov.min_eig)
    return float(1.0 / np.sqrt(cov.min_eig))
