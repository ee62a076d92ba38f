import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from batchselect.linalg import (
    CovarianceMatrix,
    RidgeFit,
    SingularMatrixError,
    inv_quad_norms,
    inv_sqrt_spectral_norm,
    ridge_fit,
)


class TestRidgeFit:
    def test_one_sample_one_dim(self):
        fit = ridge_fit(np.array([[1.0]]), np.array([2.0]), lam=1.0)
        assert fit.cov.entries == pytest.approx(np.array([[2.0]]))
        assert fit.theta_hat == pytest.approx(np.array([1.0]))

    def test_zero_rewards_give_zero_theta(self):
        rng = np.random.default_rng(0)
        fit = ridge_fit(rng.standard_normal((10, 3)), np.zeros(10), lam=1.0)
        assert np.allclose(fit.theta_hat, 0.0)

    def test_matches_direct_dense_solve(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        lam = 0.5
        fit = ridge_fit(phi, y, lam)
        v = (lam / 3) * np.eye(2) + phi.T @ phi / 3
        expected = np.linalg.solve(v, phi.T @ y / 3)
        assert fit.theta_hat == pytest.approx(expected, abs=1e-12)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            ridge_fit(np.array([[np.nan]]), np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            ridge_fit(np.array([[1.0]]), np.array([np.inf]), 1.0)

    def test_zero_lambda_rank_deficient_raises_with_dim(self):
        phi = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(SingularMatrixError) as err:
            ridge_fit(phi, np.array([1.0, 2.0]), lam=0.0)
        assert err.value.dim == 2

    def test_theta_norm_shrinks_with_lambda(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        norms = [np.linalg.norm(ridge_fit(phi, y, lam).theta_hat) for lam in (0.1, 10.0, 1000.0)]
        assert norms[0] >= norms[1] >= norms[2]

    def test_normal_equation_residual_invariant(self):
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        fit = ridge_fit(phi, y, 1.0)
        target = phi.T @ y / 30
        resid = np.linalg.norm(fit.cov.entries @ fit.theta_hat - target)
        assert resid <= 1e-8 * (1 + np.linalg.norm(fit.theta_hat))


def _norm(cov, x):
    """inv_quad_norms of the one-row stack [x]."""
    return float(inv_quad_norms(cov, np.asarray(x, dtype=float)[None])[0])


class TestInvQuadNorm:
    def test_scaled_identity(self):
        cov = CovarianceMatrix(2.0 * np.eye(2))
        assert _norm(cov, [1.0, 1.0]) == pytest.approx(1.0)

    def test_zero_vector(self):
        cov = CovarianceMatrix(np.array([[3.0, 1.0], [1.0, 2.0]]))
        assert _norm(cov, np.zeros(2)) == 0.0

    def test_against_explicit_inverse(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        fit = ridge_fit(phi, np.array([1.0, 2.0, 3.0]), 0.5)
        x = np.array([1.0, 1.0])
        expected = np.sqrt(x @ np.linalg.inv(fit.cov.entries) @ x)
        assert _norm(fit.cov, x) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        cov = CovarianceMatrix(np.eye(2))
        with pytest.raises(ValueError):
            inv_quad_norms(cov, np.ones((1, 3)))
        with pytest.raises(ValueError):
            inv_quad_norms(cov, np.ones(2))

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((5, 5))
        cov = CovarianceMatrix(g @ g.T + 0.5 * np.eye(5))
        rows = rng.standard_normal((20, 5))
        batched = inv_quad_norms(cov, rows)
        inv = np.linalg.inv(cov.entries)
        for i in range(20):
            assert batched[i] == pytest.approx(np.sqrt(rows[i] @ inv @ rows[i]), rel=1e-10)
            assert batched[i] == pytest.approx(_norm(cov, rows[i]), rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_homogeneity(self, c):
        cov = CovarianceMatrix(np.array([[3.0, 1.0], [1.0, 2.0]]))
        x = np.array([0.7, -1.3])
        base = _norm(cov, x)
        assert _norm(cov, c * x) == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


class TestInvSqrtSpectralNorm:
    def test_scaled_identity(self):
        assert inv_sqrt_spectral_norm(CovarianceMatrix(4.0 * np.eye(3))) == pytest.approx(0.5)

    def test_diagonal(self):
        assert inv_sqrt_spectral_norm(CovarianceMatrix(np.diag([1.0, 9.0]))) == pytest.approx(1.0)

    def test_random_psd_against_eigendecomposition(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((5, 5))
        entries = g @ g.T + 0.1 * np.eye(5)
        cov = CovarianceMatrix(entries)
        expected = 1.0 / np.sqrt(np.linalg.eigvalsh(entries)[0])
        assert inv_sqrt_spectral_norm(cov) == pytest.approx(expected, rel=1e-10)

    def test_singular_raises(self):
        cov = CovarianceMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            inv_sqrt_spectral_norm(cov)


class TestCovarianceMatrix:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_roundoff_symmetrized(self):
        entries = np.array([[1.0, 0.3 + 1e-15], [0.3, 1.0]])
        cov = CovarianceMatrix(entries)
        assert np.array_equal(cov.entries, cov.entries.T)

    def test_singular_solve_raises(self):
        cov = CovarianceMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            cov.solve(np.ones(2))


def test_nested_quadratic_form_monotonicity():
    # (a;b)^T M^{-1} (a;b) >= a^T A^{-1} a for PD M with top-left block A
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        dim = int(rng.integers(2, 11))
        g = rng.standard_normal((dim, dim))
        m = g @ g.T + 0.01 * np.eye(dim)
        split = int(rng.integers(1, dim))
        x = rng.standard_normal(dim)
        full = x @ np.linalg.solve(m, x)
        head = x[:split] @ np.linalg.solve(m[:split, :split], x[:split])
        assert full >= head - 1e-9


def _gram_plus_ridge(rng, n, d, lam):
    """(lam/n) I + Phi^T Phi / n for Gaussian Phi with varied column scales."""
    phi = rng.standard_normal((n, d)) * rng.uniform(0.2, 2.0, size=d)
    return phi.T @ phi / n + (lam / n) * np.eye(d)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 200),
    n=st.integers(1, 400),
    lam=st.floats(0.05, 10.0),
)
@example(seed=7, d=200, n=150, lam=1.0)  # the triangle is halved three times
@example(seed=8, d=200, n=400, lam=0.05)
@example(seed=9, d=131, n=90, lam=2.0)  # odd orders split into unequal halves
def test_solve_and_norms_match_dense_solve(seed, d, n, lam):
    # V >= (lam/n) I, rank-deficient Gram included (n < d)
    rng = np.random.default_rng(seed)
    entries = _gram_plus_ridge(rng, n, d, lam)
    cov = CovarianceMatrix(entries, ridge_floor=lam / n)
    rhs = rng.standard_normal((d, 3))
    expected = np.linalg.solve(cov.entries, rhs)
    got = cov.solve(rhs)
    for k in range(3):
        assert np.linalg.norm(got[:, k] - expected[:, k]) <= 1e-10 * np.linalg.norm(expected[:, k])
    vec = cov.solve(rhs[:, 0])
    assert np.linalg.norm(vec - expected[:, 0]) <= 1e-10 * np.linalg.norm(expected[:, 0])
    rows = rng.standard_normal((7, d))
    reference = np.sqrt(np.einsum("md,dm->m", rows, np.linalg.solve(cov.entries, rows.T)))
    assert np.all(np.abs(inv_quad_norms(cov, rows) - reference) <= 1e-10 * reference)


def _eager_verdict(entries, ridge_floor):
    """The construction and solve checks by the full spectrum, as the rules state them."""
    eigs = np.linalg.eigvalsh((entries + entries.T) / 2.0)
    low, high = eigs[0], eigs[-1]
    if low < ridge_floor - 1e-9 * max(abs(high), 1.0):
        return "below floor"
    if low <= 1e-12 * max(abs(high), 1e-300):
        return "singular"
    return "accepted"


def _verdict(entries, ridge_floor):
    try:
        cov = CovarianceMatrix(entries, ridge_floor=ridge_floor)
    except SingularMatrixError:
        return "singular at construction"
    except ValueError:
        return "below floor"
    try:
        cov.solve(np.ones(cov.dim))
    except SingularMatrixError:
        return "singular"
    return "accepted"


def _spectrum_matrix(rng, eigs):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    return (q * eigs) @ q.T


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 40),
    kind=st.sampled_from(
        ["ridge", "ridge_at_zero", "below_floor", "near_singular", "indefinite", "tiny_scale"]
    ),
)
def test_verdicts_equal_eager_eigenvalue_rules(seed, d, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2 * d + 2))
    lam = float(rng.uniform(0.01, 5.0))
    if kind == "ridge":  # what ridge_fit builds: floor lam/n, Gram of any rank
        entries, floor = _gram_plus_ridge(rng, n, d, lam), lam / n
    elif kind == "ridge_at_zero":  # lambda = 0: singular whenever n < d
        entries, floor = _gram_plus_ridge(rng, n, d, 0.0), 0.0
    elif kind == "below_floor":  # floor set above lambda_min, by up to a factor of 2
        entries = _gram_plus_ridge(rng, n, d, lam)
        floor = lam / n * float(rng.uniform(0.5, 2.0))
    elif kind == "near_singular":  # lambda_min / lambda_max around SINGULARITY_RTOL
        high = 10.0 ** rng.uniform(-3, 3)
        eigs = high * 10.0 ** rng.uniform(-15, 0, size=d)
        eigs[0] = high * 10.0 ** rng.uniform(-14, -10)
        entries, floor = _spectrum_matrix(rng, eigs), float(rng.choice([0.0, eigs.min() / 2]))
    elif kind == "indefinite":  # eigenvalues of both signs, some within the floor slack
        eigs = rng.standard_normal(d) * 10.0 ** rng.uniform(-12, 1, size=d)
        entries, floor = _spectrum_matrix(rng, eigs), 0.0
    else:  # all entries far below 1, where the floor slack is 1e-9 absolute
        entries = _gram_plus_ridge(rng, n, d, lam) * 1e-8
        floor = lam / n * 1e-8 * float(rng.choice([1.0, 0.9, 1.1]))
    assert _verdict(entries, floor) == _eager_verdict(entries, floor)


class TestLazyEigenBounds:
    def test_ridge_fit_runs_no_eigendecomposition(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        rng = np.random.default_rng(4)
        fit = ridge_fit(rng.standard_normal((5, 20)), rng.standard_normal(5), lam=1.0)
        inv_quad_norms(fit.cov, rng.standard_normal((3, 20)))
        assert calls == []
        assert fit.cov.min_eig == pytest.approx(0.2)
        assert fit.cov.max_eig > fit.cov.min_eig
        assert inv_sqrt_spectral_norm(fit.cov) == pytest.approx(0.2**-0.5)
        assert len(calls) == 1

    def test_failed_factorization_is_singular(self, monkeypatch):
        cov = CovarianceMatrix(np.eye(2))

        def fail(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(SingularMatrixError):
            cov.solve(np.ones(2))

    def test_floor_error_names_the_smallest_eigenvalue(self):
        with pytest.raises(ValueError, match="smallest eigenvalue 1.000e-01 below ridge floor"):
            CovarianceMatrix(np.diag([1.0, 0.1]), ridge_floor=0.2)


def _assert_stacked_fit_is_column_fits(features, rewards, lam, counts=None, exact=True):
    """A (rows, T) reward matrix fit at once gives every column its own fit's
    theta: the same bits when no two rows share a feature, as on the hard
    pair's cell tables, where every entry of the target and of the solve is a
    single product; else within rounding of the products' summation order."""
    stacked = ridge_fit(features, rewards, lam, counts)
    assert stacked.theta_hat.shape == (features.shape[1], rewards.shape[1])
    for t in range(rewards.shape[1]):
        own = ridge_fit(features, rewards[:, t], lam, counts)
        if exact:
            assert stacked.theta_hat[:, t].tobytes() == own.theta_hat.tobytes()
        else:
            scale = np.abs(own.theta_hat).max()
            np.testing.assert_allclose(stacked.theta_hat[:, t], own.theta_hat, atol=1e-12 * scale)
        assert stacked.cov.entries.tobytes() == own.cov.entries.tobytes()
        assert (stacked.n, stacked.lam, stacked.dim) == (own.n, own.lam, own.dim)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    d=st.integers(1, 12),
    lam=st.floats(0.01, 10.0),
    cells=st.booleans(),
    trials=st.integers(1, 6),
)
def test_stacked_fit_equals_column_fits(seed, n, d, lam, cells, trials):
    rng = np.random.default_rng(seed)
    if cells:  # one-hot cells of distinct features with row counts
        phi = np.eye(d)[rng.permutation(d)[: min(n, d)]]
        counts = rng.integers(1, 1000, size=len(phi))
    else:
        phi = rng.standard_normal((n, d)) * rng.uniform(0.2, 2.0, size=d)
        counts = None
    rewards = rng.standard_normal((len(phi), trials))
    _assert_stacked_fit_is_column_fits(phi, rewards, lam, counts, exact=cells)


def test_stacked_fit_at_hard_pair_scale():
    # the lower-bound study's largest cells: 65,536 rows of arm 0, 16 of arm 1
    means = np.random.default_rng(11).standard_normal((2, 40))
    for table in (np.eye(2), np.eye(2)[:, :1]):
        _assert_stacked_fit_is_column_fits(table, means, 1.0, [65536, 16])


def test_ridge_fit_checks_its_design():
    with pytest.raises(ValueError):
        ridge_fit(np.ones(3), np.ones(3), 1.0)
    with pytest.raises(ValueError):
        ridge_fit(np.ones((0, 2)), np.ones(0), 1.0)
    with pytest.raises(ValueError):
        ridge_fit(np.ones((3, 2)), np.ones(3), -1.0)
    with pytest.raises(ValueError):
        ridge_fit(np.array([[np.inf]]), np.ones(1), 1.0)
    rewards = np.zeros((4, 2))
    rewards[1, 0] = np.nan
    with pytest.raises(ValueError):  # one bad column fails the stacked fit
        ridge_fit(np.ones((4, 1)), rewards, 1.0)
    for rewards in (np.ones((3, 2)), np.ones((4, 2, 1))):
        with pytest.raises(ValueError, match="rewards"):
            ridge_fit(np.ones((4, 1)), rewards, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(0, 60), min_size=1, max_size=8).filter(lambda c: sum(c) > 0),
    d=st.integers(1, 6),
    lam=st.floats(0.01, 10.0),
    one_hot=st.booleans(),
)
def test_fit_on_counted_cells_equals_fit_on_their_rows(seed, counts, d, lam, one_hot):
    rng = np.random.default_rng(seed)
    cells = len(counts)
    if one_hot:
        table = np.eye(d)[rng.integers(0, d, size=cells)]
    else:
        table = rng.standard_normal((cells, d))
    rows = [rng.standard_normal(c) + rng.standard_normal() for c in counts]
    means = np.array([r.mean() if r.size else 0.0 for r in rows])
    counted = ridge_fit(table, means, lam, counts=counts)
    repeated = ridge_fit(np.repeat(table, counts, axis=0), np.concatenate(rows), lam)
    assert counted.n == repeated.n == sum(counts)
    # V is summed in another order; theta also carries that rounding through
    # V^{-1}, so beyond a condition number of 100 its bound grows with it
    v_want = repeated.cov.entries
    np.testing.assert_allclose(
        counted.cov.entries, v_want, rtol=1e-12, atol=1e-12 * np.abs(v_want).max()
    )
    rtol = 1e-14 * max(np.linalg.cond(v_want), 100.0)
    theta_want = repeated.theta_hat
    np.testing.assert_allclose(
        counted.theta_hat, theta_want, rtol=rtol, atol=rtol * np.abs(theta_want).max()
    )


def test_empty_cell_adds_nothing():
    table = np.array([[1.0, 0.5], [0.2, 1.0], [3.0, -1.0]])
    means = np.array([0.3, -1.2, 0.0])
    with_empty = ridge_fit(table, means, 1.0, counts=[4, 7, 0])
    without = ridge_fit(table[:2], means[:2], 1.0, counts=[4, 7])
    assert with_empty.n == without.n == 11
    np.testing.assert_allclose(with_empty.theta_hat, without.theta_hat, rtol=1e-15)
    np.testing.assert_allclose(with_empty.cov.entries, without.cov.entries, rtol=1e-15)


@pytest.mark.parametrize(
    "counts",
    [[1, -1], [1, np.nan], [1, np.inf], [1, 2, 3], [[1, 2]], [0, 0], [0.5, 0.25], [1.5, 2]],
    ids=["negative", "nan", "infinite", "too_many", "matrix", "no_rows", "below_one", "fraction"],
)
def test_bad_counts_rejected(counts):
    table, means = np.eye(2), np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="count"):
        ridge_fit(table, means, 1.0, counts=counts)


def test_predictions_and_widths_follow_the_stack():
    # a fit keeps the terms of the last stack it scored: asking again for the
    # same array returns them, and another array of the same shape is scored
    # afresh, with the bits of the direct products
    rng = np.random.default_rng(0)
    fit = ridge_fit(rng.standard_normal((30, 3)), rng.standard_normal(30), 1.0)
    first, second = rng.standard_normal((2, 4, 2, 3))
    for stack in (first, second, first):
        flat = stack.reshape(-1, 3)
        want = ((flat @ fit.theta_hat).reshape(4, 2), inv_quad_norms(fit.cov, flat).reshape(4, 2))
        for _ in range(2):
            got = fit.predictions_and_widths(stack)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize(
    "make_stack",
    [
        lambda rng: rng.standard_normal((40, 5)),
        lambda rng: rng.standard_normal((6, 4, 5)),
        lambda rng: rng.standard_normal((40, 12))[:, :5],
        lambda rng: rng.standard_normal((50, 10, 12))[..., :5],
    ],
    ids=["design", "table", "design_prefix_view", "table_prefix_view"],
)
def test_predictions_are_those_of_predictions_and_widths(make_stack):
    # one form, <phi, theta_hat> of the stack's rows as one matrix, bit for bit
    rng = np.random.default_rng(3)
    fit = ridge_fit(rng.standard_normal((30, 5)), rng.standard_normal(30), 1.0)
    stack = make_stack(rng)
    got = fit.predictions(stack)
    assert got.shape == stack.shape[:-1]
    assert got.tobytes() == fit.predictions_and_widths(stack)[0].tobytes()
    want = (stack.reshape(-1, 5) @ fit.theta_hat).reshape(stack.shape[:-1])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(4, 6), (2, 3, 4), (10,), ()], ids=["wider", "narrower",
                                                                       "vector", "scalar"])
def test_predictions_refuse_a_stack_of_another_width(shape):
    rng = np.random.default_rng(4)
    fit = ridge_fit(rng.standard_normal((30, 5)), rng.standard_normal(30), 1.0)
    with pytest.raises(ValueError, match=r"\(\.\.\., 5\) stack"):
        fit.predictions(np.ones(shape))
    with pytest.raises(ValueError, match=r"\(\.\.\., 5\) stack"):
        fit.predictions_and_widths(np.ones(shape))


def _todays_widths(cov, rows):
    """inv_quad_norms as it was before it took prefix dims: one whitening product."""
    whitened = rows @ cov.inv_chol().T
    return np.sqrt(np.einsum("md,md->m", whitened, whitened))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 120),
    m=st.integers(1, 50),
    strided=st.booleans(),
)
def test_one_prefix_widths_keep_their_bits(seed, d, m, strided):
    # cc's widths: the one-block pass is today's product, bit for bit
    rng = np.random.default_rng(seed)
    cov = CovarianceMatrix(_gram_plus_ridge(rng, 2 * d, d, 1.0), ridge_floor=0.5 / d)
    rows = rng.standard_normal((m, d + 3))[:, 1 : d + 1] if strided else rng.standard_normal((m, d))
    want = _todays_widths(cov, rows).tobytes()
    assert inv_quad_norms(cov, rows).tobytes() == want
    assert inv_quad_norms(cov, rows, [d])[0].tobytes() == want


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    dims=st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True).map(sorted),
    lam=st.sampled_from([0.0]) | st.floats(0.01, 10.0),
    cells=st.booleans(),
    trials=st.sampled_from([None, 1, 3]),
)
@example(seed=0, n=1, dims=[1, 40], lam=0.01, cells=False, trials=3)  # rank-one Gram
# a block whose lambda_min reads 1.1e-12 relative below V's
@example(seed=1420515226, n=24, dims=[9, 21, 33, 34, 39], lam=0.05881719321834926, cells=True,
         trials=None)
def test_leading_fits_equal_prefix_fits(seed, n, dims, lam, cells, trials):
    # every leading view of a family's fit is the standalone fit of the
    # prefix design, up to rounding: both solves are backward stable, so
    # they differ by a few ulps per coordinate times the condition number
    rng = np.random.default_rng(seed)
    width = dims[-1]
    if lam == 0.0:  # a regular widest V; the singular one is refused (test below)
        n = max(n, width + 5)
    phi = rng.standard_normal((n, width)) * rng.uniform(0.2, 2.0, size=width)
    counts = rng.integers(1 if lam == 0.0 else 0, 5, size=n) if cells else None
    if cells:
        counts[0] = max(counts[0], 1)
    rewards = rng.standard_normal(n if trials is None else (n, trials))
    family = ridge_fit(phi, rewards, lam, counts)
    rounding = 4 * width * np.finfo(float).eps * max(np.linalg.cond(family.cov.entries), 100.0)
    rows = rng.standard_normal((7, width))
    widths = inv_quad_norms(family.cov, rows, dims)
    assert widths.shape == (len(dims), 7)
    assert np.all(np.diff(widths, axis=0) >= 0)  # running sums of squares
    for k, d in enumerate(dims):
        view = family.leading(d)
        own = ridge_fit(phi[:, :d], rewards, lam, counts)
        assert (view.dim, view.n, view.lam, view.theta_hat.shape) == (
            own.dim, own.n, own.lam, own.theta_hat.shape
        )
        assert view.cov.ridge_floor == own.cov.ridge_floor
        scale = np.abs(own.cov.entries).max()
        np.testing.assert_allclose(view.cov.entries, own.cov.entries, rtol=0, atol=1e-14 * scale)
        theta_scale = np.abs(own.theta_hat).max()
        np.testing.assert_allclose(
            view.theta_hat, own.theta_hat, rtol=rounding, atol=rounding * theta_scale
        )
        own_widths = inv_quad_norms(own.cov, rows[:, :d])
        np.testing.assert_allclose(widths[k], own_widths, rtol=rounding)
        np.testing.assert_allclose(inv_quad_norms(view.cov, rows[:, :d]), own_widths, rtol=rounding)
        # the view's verdicts are the widest V's, and interlacing makes them its own;
        # eigvalsh rounds each eigenvalue by a few ulps of ||V||, not of the eigenvalue
        verdict = _eager_verdict(view.cov.entries, view.cov.ridge_floor)
        assert verdict == _eager_verdict(own.cov.entries, own.cov.ridge_floor) == "accepted"
        eig_rounding = 4 * width * np.finfo(float).eps * family.cov.max_eig
        assert view.cov.min_eig >= family.cov.min_eig - eig_rounding
        assert view.cov.max_eig <= family.cov.max_eig * (1 + 1e-12)


def test_singular_family_is_refused():
    # lambda = 0 with fewer rows than the widest class: V is singular, so
    # neither the family nor any leading block is fit, although the blocks
    # of order d <= n are regular
    rng = np.random.default_rng(6)
    phi, y = rng.standard_normal((5, 8)), rng.standard_normal(5)
    with pytest.raises(SingularMatrixError):
        ridge_fit(phi, y, 0.0)
    cov = CovarianceMatrix(phi.T @ phi / 5)
    for d in (1, 3, 5, 7):
        with pytest.raises(SingularMatrixError):
            cov.leading(d)
    from batchselect.features import truncation_family
    from batchselect.selection import holdout_select
    from feature_rows import row_split

    with pytest.raises(SingularMatrixError):
        holdout_select(phi, *row_split(y, 0.8, 0), truncation_family(8, [2, 8]), 0.0)


def test_leading_arguments():
    rng = np.random.default_rng(8)
    fit = ridge_fit(rng.standard_normal((20, 4)), rng.standard_normal(20), 1.0)
    assert fit.leading(4) is fit and fit.cov.leading(4) is fit.cov
    for dim in (0, 5):
        with pytest.raises(ValueError, match="dim"):
            fit.cov.leading(dim)
    bare = RidgeFit(fit.theta_hat, fit.cov, fit.n, fit.lam)
    assert bare.leading(4) is bare
    with pytest.raises(ValueError, match="target"):
        bare.leading(2)
    rows = rng.standard_normal((3, 4))
    for dims in ([], [0, 2], [2, 5], [3, 2], [2, 2]):
        with pytest.raises(ValueError, match="prefix"):
            inv_quad_norms(fit.cov, rows, dims)
