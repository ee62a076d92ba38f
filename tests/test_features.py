import numpy as np
import pytest

from batchselect.env import (
    FeatureState,
    StateBatch,
    TabularState,
    dirichlet_behavior,
    make_gaussian_instance,
    make_tabular_instance,
    sample_dataset,
    sample_states,
)
from batchselect.features import (
    ModelClass,
    RepresentationMismatchError,
    TabularMap,
    TruncationMap,
    check_nested,
    design_matrix,
    evaluate_features,
    features_all_actions,
    realizable_family,
    tabular_map_to_csv,
    truncation_family,
)
from batchselect.linalg import inv_quad_norms, ridge_fit


class TestEvaluateFeatures:
    def test_truncation_identity_at_full_dim(self):
        mc = ModelClass(4, TruncationMap(4))
        state = FeatureState(np.array([[3.0, 1.0, 4.0, 1.0]]))
        assert np.array_equal(evaluate_features(mc, state, 0), [3.0, 1.0, 4.0, 1.0])

    def test_truncation_prefix(self):
        mc = ModelClass(2, TruncationMap(4))
        state = FeatureState(np.array([[3.0, 1.0, 4.0, 1.0]]))
        assert np.array_equal(evaluate_features(mc, state, 0), [3.0, 1.0])

    def test_tabular_lookup_bit_exact(self):
        table = np.arange(24, dtype=float).reshape(2, 3, 4)
        mc = ModelClass(4, TabularMap(table))
        assert np.array_equal(evaluate_features(mc, TabularState(1), 2), table[1, 2])

    def test_representation_mismatch(self):
        mc = ModelClass(2, TruncationMap(4))
        with pytest.raises(RepresentationMismatchError):
            evaluate_features(mc, TabularState(0), 0)
        tab = ModelClass(2, TabularMap(np.zeros((1, 1, 2))))
        with pytest.raises(RepresentationMismatchError):
            evaluate_features(tab, FeatureState(np.zeros((1, 2))), 0)


class TestRealizableFamily:
    def test_single_hidden_dim_residual_zero(self):
        inst = make_tabular_instance(3, 2, 0)
        classes = realizable_family(inst, [1], 0)
        assert len(classes) == 1

    def test_paper_scale_ambient_dimension(self):
        inst = make_tabular_instance(20, 10, 1)
        classes = realizable_family(inst, [2, 5, 10, 25, 50], 1)
        assert len(classes) == 5
        assert all(mc.dim == 200 for mc in classes)

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


class TestTruncationFamily:
    def test_paper_dims(self):
        classes = truncation_family(100, [15, 20, 30, 50, 75, 100])
        assert [mc.dim for mc in classes] == [15, 20, 30, 50, 75, 100]

    def test_single_entry(self):
        classes = truncation_family(10, [10])
        assert len(classes) == 1 and check_nested(classes)

    def test_rejects_non_ascending(self):
        with pytest.raises(ValueError):
            truncation_family(10, [5, 5])

    def test_rejects_over_ambient(self):
        with pytest.raises(ValueError):
            truncation_family(10, [5, 12])


class TestCheckNested:
    def test_truncation_family_nested(self):
        inst = make_gaussian_instance(8, 3, 2, 0)
        probe = sample_states(inst, 30, 0)
        assert check_nested(truncation_family(8, [2, 5, 8]), probe_states=probe)

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
    data = sample_dataset(inst, mu, 400, 0)
    classes = truncation_family(12, [3, 6, 12])
    probe = sample_states(inst, 50, 1)
    norms = []
    for mc in classes:
        fit = ridge_fit(design_matrix(mc, data.states, data.actions), data.rewards, 1.0)
        phi = features_all_actions(mc, probe).reshape(-1, mc.dim)
        norms.append(inv_quad_norms(fit.cov, phi))
    for small, large in zip(norms, norms[1:]):
        assert np.all(small <= large + 1e-9)


def test_tabular_map_csv_shape():
    table = np.arange(12, dtype=float).reshape(2, 2, 3)
    text = tabular_map_to_csv(ModelClass(3, TabularMap(table)))
    lines = text.strip().split("\n")
    assert lines[0] == "state,action,f0,f1,f2"
    assert len(lines) == 1 + 4


class TestTableRangeChecks:
    table = np.arange(24, dtype=float).reshape(3, 4, 2)
    mc = ModelClass(2, TabularMap(table))

    def test_features_all_actions_state_out_of_range(self):
        with pytest.raises(ValueError, match="state index"):
            features_all_actions(self.mc, StateBatch(indices=[0, 3]))

    def test_design_matrix_state_out_of_range(self):
        with pytest.raises(ValueError, match="state index"):
            design_matrix(self.mc, StateBatch(indices=[3]), [0])

    def test_design_matrix_action_out_of_range(self):
        with pytest.raises(ValueError, match="action"):
            design_matrix(self.mc, StateBatch(indices=[0, 1]), [0, 4])

    def test_design_matrix_negative_action(self):
        with pytest.raises(ValueError, match="action"):
            design_matrix(self.mc, StateBatch(indices=[0]), [-1])

    def test_in_range_gather_unchanged(self):
        got = design_matrix(self.mc, StateBatch(indices=[2, 0]), [3, 1])
        assert np.array_equal(got, self.table[[2, 0], [3, 1]])
