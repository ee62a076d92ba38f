import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchselect.env import (
    Cells,
    StateBatch,
    dirichlet_behavior,
    make_gaussian_instance,
    make_tabular_instance,
    rng_stream,
    sample_states,
)
from batchselect.features import (
    ModelClass,
    RepresentationMismatchError,
    TabularMap,
    TruncationMap,
    check_nested,
    design_matrix,
    features_all_actions,
    realizable_family,
    truncation_family,
)
from batchselect.learner import fit_pessimistic, pessimistic_values
from batchselect.linalg import CovarianceMatrix, RidgeFit, inv_quad_norms, ridge_fit
from feature_rows import sample_feature_dataset
from row_design import TabularRows, binned_cells, tabular_design


class TestEvaluateFeatures:
    states = StateBatch(features=np.array([[[3.0, 1.0, 4.0, 1.0], [5.0, 9.0, 2.0, 6.0]]]))
    logged = np.array([[5.0, 9.0, 2.0, 6.0], [3.0, 1.0, 4.0, 1.0]])

    def test_truncation_identity_at_full_dim(self):
        mc = ModelClass(4, TruncationMap(4))
        assert np.array_equal(features_all_actions(mc, self.states), self.states.features)
        assert np.array_equal(design_matrix(mc, self.logged), self.logged)

    def test_truncation_prefix(self):
        mc = ModelClass(2, TruncationMap(4))
        assert np.array_equal(features_all_actions(mc, self.states), [[[3.0, 1.0], [5.0, 9.0]]])
        assert np.array_equal(design_matrix(mc, self.logged), [[5.0, 9.0], [3.0, 1.0]])

    def test_truncation_reads_a_view(self):
        mc = ModelClass(2, TruncationMap(4))
        assert np.shares_memory(features_all_actions(mc, self.states), self.states.features)
        assert np.shares_memory(design_matrix(mc, self.logged), self.logged)

    def test_tabular_lookup_bit_exact(self):
        table = np.arange(24, dtype=float).reshape(2, 3, 4)
        mc = ModelClass(4, TabularMap(table))
        states = StateBatch(indices=[1, 0, 1])
        assert np.array_equal(features_all_actions(mc, states), table[[1, 0, 1]])
        assert np.array_equal(tabular_design(mc, states, [2, 0, 1]), table[[1, 0, 1], [2, 0, 1]])

    def test_representation_mismatch(self):
        mc = ModelClass(2, TruncationMap(4))
        with pytest.raises(RepresentationMismatchError):
            features_all_actions(mc, StateBatch(indices=[0]))
        with pytest.raises(RepresentationMismatchError):
            design_matrix(mc, StateBatch(indices=[0]))
        # a truncation design reads logged rows, never all-action states
        with pytest.raises(RepresentationMismatchError, match="logged rows"):
            design_matrix(mc, self.states)
        tab = ModelClass(2, TabularMap(np.zeros((1, 1, 2))))
        feats = StateBatch(features=np.zeros((1, 1, 2)))
        with pytest.raises(RepresentationMismatchError):
            features_all_actions(tab, feats)
        with pytest.raises(RepresentationMismatchError):
            design_matrix(tab, feats)
        with pytest.raises(RepresentationMismatchError, match="tabular states"):
            design_matrix(tab, np.zeros((1, 2)))

    def test_truncation_width_mismatch(self):
        # a class over 100 ambient coordinates must not read 30-wide features
        # (a d=50 fit would otherwise get 30 columns and a beta for d=50)
        mc = ModelClass(50, TruncationMap(100))
        states = StateBatch(features=np.ones((5, 3, 30)))
        logged = np.ones((5, 30))
        with pytest.raises(RepresentationMismatchError, match="30-wide"):
            features_all_actions(mc, states)
        with pytest.raises(RepresentationMismatchError, match="30-wide"):
            design_matrix(mc, logged)
        # fit_pessimistic fits a tabular dataset's cells, which a truncation class cannot read
        with pytest.raises(RepresentationMismatchError, match="feature rows"):
            fit_pessimistic(Cells(np.zeros(5), np.ones(5)), mc, 1.0, 0.05)


class TestRealizableFamily:
    def test_single_hidden_dim_residual_zero(self):
        inst = make_tabular_instance(3, 2, 0)
        classes = realizable_family(inst, [1], 0)
        assert len(classes) == 1

    def test_paper_scale_ambient_dimension(self):
        inst = make_tabular_instance(20, 10, 1)
        classes = realizable_family(inst, [2, 5, 10, 25, 50], 1)
        assert [mc.dim for mc in classes] == [2, 5, 10, 25, 50]
        assert all(mc.map.table.shape == (20, 10, mc.dim) for mc in classes)

    def test_tables_are_the_hidden_draws(self):
        # class j's table is stream j's (|X||A|, d_hid) draw with its last
        # column solved for realizability, bit for bit: no lift is drawn
        inst = make_tabular_instance(5, 3, 4)
        flat = inst.model.means.reshape(-1)
        for j, mc in enumerate(realizable_family(inst, [1, 2, 6], 9)):
            hidden = rng_stream(9, "realizable-family", j).standard_normal((15, mc.dim))
            hidden[:, -1] = flat - hidden[:, :-1].sum(axis=1)
            assert np.array_equal(mc.map.table, hidden.reshape(5, 3, mc.dim))

    def test_all_classes_realizable(self):
        inst = make_tabular_instance(6, 4, 2)
        flat = inst.model.means.reshape(-1)
        for mc in realizable_family(inst, [1, 3, 8], 2):
            table = mc.map.table.reshape(-1, mc.dim)
            theta, _, _, _ = np.linalg.lstsq(table, flat, rcond=None)
            assert np.linalg.norm(table @ theta - flat) <= 1e-8

    def test_rejects_non_tabular(self):
        with pytest.raises(ValueError):
            realizable_family(make_gaussian_instance(4, 2, 2, 0), [1], 0)


class TestModelClassDim:
    @pytest.mark.parametrize("dim", [0, 101, 150])
    def test_truncation_dim_outside_ambient(self, dim):
        with pytest.raises(ValueError):
            ModelClass(dim, TruncationMap(100))

    @pytest.mark.parametrize("dim", [2, 5])
    def test_tabular_dim_not_table_width(self, dim):
        with pytest.raises(ValueError):
            ModelClass(dim, TabularMap(np.zeros((4, 2, 3))))


class TestTruncationFamily:
    def test_paper_dims(self):
        classes = truncation_family(100, [15, 20, 30, 50, 75, 100])
        assert [mc.dim for mc in classes] == [15, 20, 30, 50, 75, 100]

    def test_single_entry(self):
        classes = truncation_family(10, [10])
        assert len(classes) == 1 and check_nested(classes)

    def test_rejects_no_dims(self):
        with pytest.raises(ValueError, match="at least one dim"):
            truncation_family(10, [])

    def test_rejects_non_ascending(self):
        with pytest.raises(ValueError):
            truncation_family(10, [5, 5])

    def test_rejects_over_ambient(self):
        with pytest.raises(ValueError):
            truncation_family(10, [5, 12])


class TestCheckNested:
    def test_truncation_family_nested(self):
        # truncations of one ambient space are nested; of two, they are not
        assert check_nested(truncation_family(8, [2, 5, 8]))
        assert not check_nested([ModelClass(2, TruncationMap(8)), ModelClass(5, TruncationMap(9))])

    def test_independent_realizable_classes_not_nested(self):
        inst = make_tabular_instance(4, 3, 0)
        classes = realizable_family(inst, [2, 3], 0)
        assert not check_nested(classes)

    def test_single_class_vacuous(self):
        assert check_nested([ModelClass(2, TruncationMap(4))])

    def test_tabular_prefix_nested(self):
        table = np.random.default_rng(0).standard_normal((2, 2, 3))
        classes = [
            ModelClass(2, TabularMap(table[:, :, :2])),
            ModelClass(3, TabularMap(table)),
        ]
        assert check_nested(classes)


def test_coverage_monotone_on_nested_fits():
    # |phi_k|_{V_k^{-1}} <= |phi_{k+1}|_{V_{k+1}^{-1}} pointwise for nested fits
    inst = make_gaussian_instance(12, 4, 3, 0)
    mu = dirichlet_behavior(3, 0)
    data = sample_feature_dataset(inst, mu, 400, 0)
    classes = truncation_family(12, [3, 6, 12])
    probe = sample_states(inst, 50, 1)
    norms = []
    for mc in classes:
        fit = ridge_fit(design_matrix(mc, data.logged), data.rewards, 1.0)
        phi = features_all_actions(mc, probe).reshape(-1, mc.dim)
        norms.append(inv_quad_norms(fit.cov, phi))
    for small, large in zip(norms, norms[1:]):
        assert np.all(small <= large + 1e-9)


class TestTableRangeChecks:
    table = np.arange(24, dtype=float).reshape(3, 4, 2)
    mc = ModelClass(2, TabularMap(table))

    def test_features_all_actions_state_out_of_range(self):
        with pytest.raises(ValueError, match="state index"):
            features_all_actions(self.mc, StateBatch(indices=[0, 3]))

    def test_fit_refuses_cells_of_another_grid(self):
        # a tabular class fits from one cell per (state, action) of its table
        with pytest.raises(ValueError, match="one entry.* per feature row"):
            fit_pessimistic(Cells(np.zeros(11), np.ones(11)), self.mc, 1.0, 0.05)

    def test_in_range_gather_unchanged(self):
        got = tabular_design(self.mc, StateBatch(indices=[2, 0]), [3, 1])
        assert np.array_equal(got, self.table[[2, 0], [3, 1]])


class TestFeatureActionChecks:
    logged = np.arange(6, dtype=float).reshape(2, 3)
    mc = ModelClass(2, TruncationMap(3))

    def test_logged_rows_are_two_dimensional(self):
        with pytest.raises(RepresentationMismatchError, match="logged rows"):
            design_matrix(self.mc, self.logged.reshape(2, 1, 3))


def _random_class(data, n_actions):
    """A random tabular or truncation class and a batch it reads."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    m = data.draw(st.integers(1, 12))
    d = data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        n_states = data.draw(st.integers(1, 6))
        mc = ModelClass(d, TabularMap(rng.standard_normal((n_states, n_actions, d))))
        states = StateBatch(indices=rng.integers(n_states, size=m))
    else:
        ambient = d + data.draw(st.integers(0, 3))
        mc = ModelClass(d, TruncationMap(ambient))
        states = StateBatch(features=rng.standard_normal((m, n_actions, ambient)))
    return mc, states, rng


@settings(max_examples=80, deadline=None)
@given(n_actions=st.integers(1, 5), data=st.data())
def test_design_matrix_is_gather_of_all_actions(n_actions, data):
    # a truncation design over the logged rows, and the tabular cell row of
    # each logged row, equal the all-action gather
    mc, states, rng = _random_class(data, n_actions)
    actions = rng.integers(n_actions, size=len(states))
    rows = np.arange(len(states))
    if states.features is None:
        # the cell fit reads row x * |A| + a of the flattened table for a row
        # logged at (x, a)
        got = mc.map.table.reshape(-1, mc.dim)[states.indices * n_actions + actions]
    else:
        logged = states.features[rows, actions]
        got = design_matrix(mc, logged)
        assert np.shares_memory(got, logged)
    ref = features_all_actions(mc, states)[rows, actions]
    assert got.shape == (len(states), mc.dim)
    assert np.array_equal(got, ref)


@settings(max_examples=80, deadline=None)
@given(n_actions=st.integers(1, 5), scale=st.floats(0.01, 2.0), data=st.data())
def test_pessimistic_values_match_row_wise_formula(n_actions, scale, data):
    mc, states, rng = _random_class(data, n_actions)
    d = mc.dim
    g = rng.standard_normal((d, d))
    cov = CovarianceMatrix(g @ g.T + 0.5 * np.eye(d))
    fit = RidgeFit(rng.standard_normal(d), cov, 10, 1.0)
    got = pessimistic_values(fit, mc, states, scale * 0.7)
    inv = np.linalg.inv(cov.entries)
    phi = features_all_actions(mc, states)
    ref = np.empty(got.shape)
    for i in range(len(states)):
        for a in range(n_actions):
            row = phi[i, a]
            width = np.sqrt(row @ inv @ row)
            ref[i, a] = row @ fit.theta_hat - scale * 0.7 * width
    tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=tol)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4)),
    n=st.integers(0, 50),
    prefix=st.booleans(),
)
def test_tabular_design_matches_two_index_gather(seed, shape, n, prefix):
    # the cell fit reads row x * |A| + a of the flattened table for the rows
    # logged at (x, a), and the binning counts them in that cell; the
    # reference indexes (state, action) pairs directly.  `prefix` reads a
    # non-contiguous view, as nested tabular classes do.
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((*shape[:2], shape[2] + 1))
    table = table[:, :, : shape[2]] if prefix else table[:, :, 1:].copy()
    states = StateBatch(indices=rng.integers(0, shape[0], size=n))
    actions = rng.integers(0, shape[1], size=n)
    cell = states.indices * shape[1] + actions
    got = table.reshape(-1, shape[2])[cell]
    want = table[states.indices, actions]
    assert got.shape == want.shape == (n, shape[2])
    assert got.tobytes() == want.tobytes()
    if n:
        counts = np.zeros(shape[:2])
        np.add.at(counts, (states.indices, actions), 1.0)
        cells = binned_cells(TabularRows(states, actions, rng.standard_normal(n)), *shape[:2])
        assert np.array_equal(cells.counts, counts.reshape(-1))
