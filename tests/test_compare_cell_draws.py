"""The statistic of scripts/compare_cell_draws.py --ref, on synthetic regrets
written as the CLI writes aggregate.csv."""
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from batchselect.experiments import ResultRow, aggregate_to_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_cell_draws.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_cell_draws", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seed_tables(compare, tmp_path, shift, seeds=4, trials=50):
    """Each seed's aggregate.csv of synthetic regrets, read back: two n-cells of
    two methods, each N(0.1 + shift, 0.02^2) per trial; and the raw regrets."""
    rng = np.random.default_rng(7)
    tables, raw = [], {}
    for seed in range(seeds):
        rows = []
        for n in (100, 400):
            for method in ("cc", "class_2"):
                regrets = 0.1 + shift + 0.02 * rng.standard_normal(trials)
                raw.setdefault((n, method), []).append(regrets)
                rows += [ResultRow(n, method, t, float(r)) for t, r in enumerate(regrets)]
        path = tmp_path / f"shift{shift}-seed{seed}.csv"
        path.write_text(aggregate_to_csv(rows))
        tables.append(compare.read_aggregate(path))
    return tables, raw


def test_pooled_mean_and_standard_error(compare, tmp_path):
    tables, raw = _seed_tables(compare, tmp_path, 0.0)
    pooled = compare.pool_seeds(tables)
    assert sorted(pooled) == sorted(raw)
    for key, seeds in raw.items():
        means = [r.mean() for r in seeds]
        ses = [r.std(ddof=1) / math.sqrt(len(r)) for r in seeds]
        mean, se = pooled[key]
        assert mean == pytest.approx(np.mean(means), rel=1e-12)
        assert se == pytest.approx(math.sqrt(sum(s * s for s in ses)) / len(ses), rel=1e-12)


def test_same_mode_gates_at_three_standard_errors(compare, tmp_path, capsys):
    ref = compare.pool_seeds(_seed_tables(compare, tmp_path, 0.0)[0])
    # the pooled se is about 0.02 / sqrt(4 * 50) ~ 0.0014, so a 0.02 shift is ~10 se
    moved = compare.pool_seeds(_seed_tables(compare, tmp_path, 0.02)[0])
    assert compare.compare_pooled(ref, ref, "same") == 0
    assert "largest |diff| / combined se: 0.00 (bound 3.0)" in capsys.readouterr().out
    assert compare.compare_pooled(ref, moved, "same") == 1
    out = capsys.readouterr().out
    z = max(
        abs(moved[k][0] - ref[k][0]) / math.hypot(ref[k][1], moved[k][1]) for k in ref
    )
    assert z > 3 and f"largest |diff| / combined se: {z:.2f}" in out
    assert compare.compare_pooled(ref, moved, "behaviour") == 0


def test_seeds_with_different_cells_refused(compare, tmp_path):
    tables, _ = _seed_tables(compare, tmp_path, 0.0, seeds=2)
    del tables[1][100, "cc"]
    with pytest.raises(ValueError, match="different"):
        compare.pool_seeds(tables)
