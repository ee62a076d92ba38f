"""Dense symmetric positive-definite linear algebra shared by all modules.

V^{-1} is applied through the inverse L^{-1} of V's lower Cholesky factor,
computed once per matrix: V^{-1} x = L^{-T} (L^{-1} x) and ||x||_{V^{-1}} =
||L^{-1} x||, one or two matrix products each.  The explicit triangular
inverse is sound because every fit's V >= (lambda/n) I bounds the condition
number of L (Higham, Accuracy and Stability of Numerical Algorithms, ch. 14).

A nested family is fit once.  When class k's features are the first d_k
coordinates of the widest class's, its V_k is the leading d_k x d_k block
of the widest V, its Cholesky factor is the leading block of L and its
L_k^{-1} the leading block of L^{-1}, since the inverse of a lower triangle
is lower triangular.  So `RidgeFit.leading` reads class k's fit off the
widest one, and `inv_quad_norms` takes every prefix's width from one pass:
||phi_{:d_k}||^2_{V_k^{-1}} is the sum of the first d_k squares of
L^{-1} phi.  The widest V's verdicts hold for every block: by Cauchy
interlacing a leading block's eigenvalues lie in [lambda_min(V),
lambda_max(V)], so a block clears any floor V clears, and its ratio
lambda_min / lambda_max is at least V's, so it is singular only if V is.
"""
from __future__ import annotations

import copy

import numpy as np

SYMMETRY_RTOL = 1e-12
SINGULARITY_RTOL = 1e-12
RESIDUAL_TOL = 1e-8
FLOOR_ATOL = 1e-9  # lambda_min may undercut the ridge floor by FLOOR_ATOL * max(|lambda_max|, 1)
TRIANGLE_BLOCK = 32  # triangles up to this order are inverted directly, larger ones by halves


class SingularMatrixError(ValueError):
    """Covariance matrix is numerically singular."""

    def __init__(self, dim: int, min_eig: float):
        super().__init__(
            f"covariance of dimension {dim} is numerically singular "
            f"(smallest eigenvalue {min_eig:.3e})"
        )
        self.dim = dim
        self.min_eig = min_eig


def _lower_inverse(tri: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangle, by halves:
    [[A, 0], [C, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]]."""
    d = tri.shape[0]
    if d <= TRIANGLE_BLOCK:
        return np.tril(np.linalg.inv(tri))
    h = d // 2
    head, tail = _lower_inverse(tri[:h, :h]), _lower_inverse(tri[h:, h:])
    return np.block([[head, np.zeros((h, d - h))], [-(tail @ (tri[h:, :h] @ head)), tail]])


class CovarianceMatrix:
    """Regularized empirical covariance V = (lambda/n) I + (1/n) sum phi phi^T.

    The matrix is symmetrized on construction; `ridge_floor` records the
    lambda/n term folded into the entries.  The eigen-bounds are computed on
    first use.  The floor and singularity checks need them only when a
    Cholesky certificate fails: if V - shift I is positive definite for
    shift = ridge_floor - FLOOR_ATOL / 2, then lambda_min > shift clears the
    floor with half its slack to spare for rounding, and it rules out
    singularity when shift > 2 SINGULARITY_RTOL trace(V) >= lambda_max.
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
        self._eigs = self._inv_chol = None
        shift = self.ridge_floor - FLOOR_ATOL / 2
        try:
            np.linalg.cholesky(self.entries - shift * np.eye(self.dim))
        except np.linalg.LinAlgError:
            self._nonsingular_certified = False
            if self.min_eig < self.ridge_floor - FLOOR_ATOL * max(abs(self.max_eig), 1.0):
                raise ValueError(
                    f"smallest eigenvalue {self.min_eig:.3e} below ridge floor "
                    f"{self.ridge_floor:.3e}"
                ) from None
        else:
            self._nonsingular_certified = shift > 2 * SINGULARITY_RTOL * np.trace(self.entries)

    def _eigenvalues(self) -> np.ndarray:
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self.entries)
        return self._eigs

    @property
    def min_eig(self) -> float:
        return float(self._eigenvalues()[0])

    @property
    def max_eig(self) -> float:
        return float(self._eigenvalues()[-1])

    def _is_singular(self) -> bool:
        return self.min_eig <= SINGULARITY_RTOL * max(abs(self.max_eig), 1e-300)

    def inv_chol(self) -> np.ndarray:
        """L^{-1} for the lower Cholesky factor L of V, computed once."""
        if self._inv_chol is None:
            if not self._nonsingular_certified and self._is_singular():
                raise SingularMatrixError(self.dim, self.min_eig)
            try:
                self._inv_chol = _lower_inverse(np.linalg.cholesky(self.entries))
            except np.linalg.LinAlgError:
                raise SingularMatrixError(self.dim, self.min_eig) from None
        return self._inv_chol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply V^{-1} to a vector or to the columns of a matrix."""
        inv_chol = self.inv_chol()
        return inv_chol.T @ (inv_chol @ np.asarray(rhs, dtype=float))

    def leading(self, dim: int) -> CovarianceMatrix:
        """The covariance V[:dim, :dim] of the first `dim` coordinates, as views
        of this one's entries and of its L^{-1}, with its floor and singularity
        verdicts (see the module docstring); V itself for dim = self.dim.  Its
        eigen-bounds are its own, computed on first read.  Raises
        SingularMatrixError when V is singular."""
        if not 1 <= dim <= self.dim:
            raise ValueError(f"need 1 <= dim <= {self.dim}, got {dim}")
        if dim == self.dim:
            return self
        block = copy.copy(self)
        block._inv_chol = self.inv_chol()[:dim, :dim]
        block.entries, block.dim, block._eigs = self.entries[:dim, :dim], dim, None
        return block


class RidgeFit:
    """Ridge solution theta_hat together with its covariance V.

    theta_hat is a (d,) vector, or a (d, T) matrix of T stacked fits on one
    design and V, one column per reward vector (see `ridge_fit`).  A fit by
    `ridge_fit` keeps its target (1/n) Phi^T (c * y), of theta_hat's shape,
    from which `leading` solves the fits of its leading coordinates.
    """

    def __init__(self, theta_hat, cov: CovarianceMatrix, n: int, lam: float, target=None):
        theta_hat = np.asarray(theta_hat, dtype=float)
        if theta_hat.ndim not in (1, 2) or theta_hat.shape[0] != cov.dim:
            raise ValueError("theta_hat must be a (d,) vector or (d, T) matrix with d = cov.dim")
        self.theta_hat = theta_hat
        self.cov = cov
        self.n = int(n)
        self.lam = float(lam)
        self.dim = cov.dim
        self.target = target
        self._scored = None  # (stack, predictions, widths) of the last stack scored

    def leading(self, dim: int) -> RidgeFit:
        """The fit of the first `dim` feature coordinates on the same rows: V's
        leading block (`CovarianceMatrix.leading`) and theta_hat solved from the
        target's first `dim` entries, with its own residual check.  This fit
        itself for dim = self.dim; a fit that keeps no target raises ValueError."""
        if dim == self.dim:
            return self
        if self.target is None:
            raise ValueError("a fit without its target has no leading fits")
        cov = self.cov.leading(dim)
        target = self.target[:dim]
        return RidgeFit(_solved(cov, target), cov, self.n, self.lam, target)

    def predictions(self, stack) -> np.ndarray:
        """<phi, theta_hat> for each row phi of a (..., d) stack, of shape
        stack.shape[:-1], and (..., T) for T stacked fits, as one (rows, d)
        product: every prediction takes this one floating-point form.  Another
        last-axis width raises ValueError."""
        stack = np.asarray(stack, dtype=float)
        if stack.ndim < 1 or stack.shape[-1] != self.dim:
            raise ValueError(f"need a (..., {self.dim}) stack of feature rows, got {stack.shape}")
        flat = stack.reshape(-1, self.dim) @ self.theta_hat
        return flat.reshape(stack.shape[:-1] + self.theta_hat.shape[1:])

    def predictions_and_widths(self, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`predictions` and |phi|_{V^{-1}} for each row phi of a (..., d)
        stack; the widths have shape stack.shape[:-1] whatever the fit count.
        The last stack's pair is kept and returned again for the same array,
        such as a tabular class's table scored by policies at two confidence
        levels."""
        scored = self._scored
        if scored is None or scored[0] is not stack:
            predictions = self.predictions(stack)
            widths = inv_quad_norms(self.cov, stack.reshape(-1, self.dim))
            scored = self._scored = (stack, predictions, widths.reshape(stack.shape[:-1]))
        return scored[1:]


def _checked_design(features: np.ndarray, lam: float) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be an n x d matrix")
    if features.shape[0] < 1:
        raise ValueError("need at least one sample")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite values in ridge inputs")
    return features


def checked_counts(counts, shape: tuple) -> np.ndarray:
    """`counts` as floats, refused unless it has `shape`, (cells,) or
    (cells, T) for T stacked trials, and holds whole, finite, nonnegative
    row counts of which each trial's total at least one row."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != shape:
        raise ValueError(f"need one count per cell, of shape {shape}, got shape {counts.shape}")
    if not (np.all(np.isfinite(counts)) and np.all(counts >= 0) and np.all(counts % 1 == 0)):
        raise ValueError("counts must be finite nonnegative whole numbers")
    if np.any(counts.sum(axis=0) < 1):
        raise ValueError("counts must total at least one row")
    return counts


def _weighted(features: np.ndarray, counts) -> tuple[np.ndarray, float]:
    """(Phi^T diag(c), n) of a checked design: Phi^T and its row count
    without `counts`."""
    if counts is None:
        return features.T, features.shape[0]
    counts = checked_counts(counts, features.shape[:1])
    return features.T * counts, counts.sum()


def ridge_fit(features: np.ndarray, rewards: np.ndarray, lam: float, counts=None) -> RidgeFit:
    """Fit V = (lam/n)I + (1/n) Phi^T Phi and theta_hat = V^{-1}(1/n) Phi^T y.

    `rewards` is one reward per row, or a (rows, T) matrix whose T columns
    are fit at once on the design's one V: theta_hat is then (d, T), and
    every column passes the same checks as a fit of its own.

    With `counts`, row j of `features` is a cell that stands for
    `counts[j]` logged rows of that feature vector, and `rewards[j]` is
    their mean reward: n = sum(counts), V = (lam/n)I + (1/n) Phi^T diag(c) Phi
    and the target is (1/n) Phi^T (c * y), so an empty cell adds nothing.
    Without it every row counts once.  Counts that are negative, non-finite,
    fractional, of another shape or below one row in total raise ValueError.

    Solved through the cached inverse Cholesky factor of V; raises
    SingularMatrixError when lam = 0 and the Gram matrix is rank deficient.
    """
    features = _checked_design(features, lam)
    rewards = np.asarray(rewards, dtype=float)
    rows, d = features.shape
    if rewards.ndim not in (1, 2) or rewards.shape[0] != rows:
        raise ValueError("rewards must hold one entry, or one row of columns, per feature row")
    if not np.all(np.isfinite(rewards)):
        raise ValueError("non-finite values in ridge inputs")
    weighted, n = _weighted(features, counts)
    gram = weighted @ features / n
    cov = CovarianceMatrix(gram + (lam / n) * np.eye(d), ridge_floor=lam / n)
    target = weighted @ rewards / n
    return RidgeFit(_solved(cov, target), cov, n, lam, target)


def _solved(cov: CovarianceMatrix, target: np.ndarray) -> np.ndarray:
    """V^{-1} target, refused when a column's normal-equation residual is too large."""
    theta = cov.solve(target)
    residual = np.linalg.norm(cov.entries @ theta - target, axis=0)
    excess = residual > RESIDUAL_TOL * (1.0 + np.linalg.norm(theta, axis=0))
    if np.any(excess):
        raise ArithmeticError(f"normal-equation residual {np.max(residual):.3e} too large")
    return theta


def inv_quad_norms(cov: CovarianceMatrix, rows: np.ndarray, dims=None) -> np.ndarray:
    """Row-wise Mahalanobis norms |phi|_{V^{-1}} of a stack of vectors of
    shape (m, d), shape (m,).

    With `dims`, ascending prefix lengths d_1 < ... < d_K <= d, the norms
    |phi_{:d_k}|_{V_k^{-1}} of each row's first d_k coordinates under V's
    leading block V_k, shape (K, m), in one block-wise pass: block k
    multiplies the rows' first d_k columns by L^{-1}[d_{k-1}:d_k, :d_k] and
    adds the squares to a running sum (see the module docstring).  Without
    `dims` this is the one block d_1 = d.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != cov.dim:
        raise ValueError("rows must have shape (m, dim)")
    ends = [cov.dim] if dims is None else [int(d) for d in dims]
    if not ends or ends[0] < 1 or ends[-1] > cov.dim or np.any(np.diff(ends) <= 0):
        raise ValueError(f"need ascending prefix lengths in [1, {cov.dim}], got {dims}")
    inv_chol = cov.inv_chol()
    norms = np.empty((len(ends), len(rows)))
    squares, start = 0.0, 0
    for k, end in enumerate(ends):
        whitened = rows[:, :end] @ inv_chol[start:end, :end].T
        squares = squares + np.einsum("md,md->m", whitened, whitened)
        norms[k] = np.sqrt(squares)
        start = end
    return norms[0] if dims is None else norms


def inv_sqrt_spectral_norm(cov: CovarianceMatrix) -> float:
    """Spectral norm of V^{-1/2}, i.e. lambda_min(V)^{-1/2}."""
    if cov._is_singular():
        raise SingularMatrixError(cov.dim, cov.min_eig)
    return float(1.0 / np.sqrt(cov.min_eig))
