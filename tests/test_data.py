import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from unlearn.data import (
    DataPoint,
    Dataset,
    Update,
    gen_adversarial_sequence,
    gen_synthetic_dataset,
    load_updates,
    save_updates,
)
from unlearn.losses import ParamSpace, closed_form_ridge_optimizer


def small_dataset():
    features = np.array([[0.1, 0.0], [0.0, 0.2], [0.3, 0.3]])
    labels = np.array([1.0, -1.0, 0.5])
    return Dataset(features, labels)


def sorted_rows(data):
    rows = np.column_stack([data.features, data.labels])
    return rows[np.lexsort(rows.T)]


def test_update_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown update op"):
        Update("replace", DataPoint(np.zeros(2), 0.0))


def test_update_sequence_is_indexable():
    u = Update("add", DataPoint(np.zeros(1), 0.0))
    seq = (u, u)
    assert len(seq) == 2
    assert seq[1] is u
    assert list(seq) == [u, u]


def test_add_appends_one_copy():
    data = small_dataset()
    point = DataPoint(np.array([0.5, 0.0]), 0.25)
    after = data.apply(Update("add", point))
    assert after.size == 4
    assert after.find(point).size == 1
    assert data.size == 3
    assert after.initial_size == 3


def test_delete_removes_exactly_one_copy():
    data = small_dataset()
    point = data.point(0)
    doubled = data.apply(Update("add", point))
    assert doubled.find(point).size == 2
    after = doubled.apply(Update("delete", point))
    assert after.size == 3
    assert after.find(point).size == 1


def test_delete_of_absent_point_changes_nothing():
    data = small_dataset()
    ghost = DataPoint(np.array([0.9, 0.0]), 0.0)
    after = data.apply(Update("delete", ghost))
    assert np.array_equal(sorted_rows(after), sorted_rows(data))
    assert after.initial_size == data.initial_size


def test_size_floor_blocks_deep_deletion():
    data = small_dataset()
    first = data.apply(Update("delete", data.point(0)))
    assert first.size == 2
    with pytest.raises(ValueError, match="dataset floor violated"):
        first.apply(Update("delete", first.point(0)))


def test_add_of_wrong_dimension_rejected():
    data = small_dataset()
    with pytest.raises(ValueError, match="wrong dimension"):
        data.apply(Update("add", DataPoint(np.zeros(3), 0.0)))


@given(st.integers(0, 2), st.floats(-1, 1), st.floats(-1, 1))
def test_add_then_delete_restores_the_multiset(idx, a, b):
    data = small_dataset()
    point = DataPoint(np.array([a, b]) / 2.0, 0.1)
    added = data.apply(Update("add", point))
    back = added.apply(Update("delete", point))
    assert np.array_equal(sorted_rows(back), sorted_rows(data))


def test_validate_bounds_flags_oversized_rows():
    data = Dataset(np.array([[2.0, 0.0]]), np.array([0.0]))
    with pytest.raises(ValueError, match="feature norm exceeds"):
        data.validate_bounds()
    data = Dataset(np.array([[0.1, 0.0]]), np.array([3.0]))
    with pytest.raises(ValueError, match="label magnitude exceeds"):
        data.validate_bounds()
    data = Dataset(np.array([[0.1, 0.0], [np.nan, 0.0]]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="feature norm exceeds"):
        data.validate_bounds()
    data = Dataset(np.array([[0.1, 0.0]]), np.array([np.nan]))
    with pytest.raises(ValueError, match="label magnitude exceeds"):
        data.validate_bounds()


OUT_OF_BOUNDS = [
    (np.array([50.0, 0.0]), 0.0, "feature norm exceeds"),
    (np.array([0.1, 0.0]), 7.0, "label magnitude exceeds"),
    (np.array([np.nan, 0.0]), 0.0, "feature norm exceeds"),
    (np.array([0.1, 0.0]), np.nan, "label magnitude exceeds"),
]


@pytest.mark.parametrize("x, y, message", OUT_OF_BOUNDS)
def test_add_outside_the_declared_bounds_rejected(x, y, message):
    data = small_dataset()
    with pytest.raises(ValueError, match=message):
        data.apply(Update("add", DataPoint(x, y)))
    edge = DataPoint(np.array([0.6, 0.8]), -1.0)
    assert data.apply(Update("add", edge)).size == 4


def test_synthetic_linear_dataset_respects_bounds():
    data = gen_synthetic_dataset(500, 4, feature_bound=2.0, label_bound=1.5,
                                 seed=3)
    assert data.size == 500
    assert data.dim == 4
    assert np.linalg.norm(data.features, axis=1).max() <= 2.0 + 1e-12
    assert np.abs(data.labels).max() <= 1.5 + 1e-12


def test_synthetic_logistic_labels_are_signs():
    data = gen_synthetic_dataset(200, 3, model="logistic", seed=4)
    assert set(np.unique(data.labels)) <= {-1.0, 1.0}


def test_synthetic_generation_is_seeded():
    a = gen_synthetic_dataset(50, 2, seed=9)
    b = gen_synthetic_dataset(50, 2, seed=9)
    c = gen_synthetic_dataset(50, 2, seed=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_rejects_bad_requests():
    with pytest.raises(ValueError):
        gen_synthetic_dataset(0, 3)
    with pytest.raises(ValueError, match="unknown data model"):
        gen_synthetic_dataset(10, 3, model="quadratic")


def test_noiseless_linear_data_identifies_the_planted_weights():
    data = gen_synthetic_dataset(10000, 5, noise=0.0, seed=5)
    star = closed_form_ridge_optimizer(data, 1e-8, ParamSpace(5, 1.0))
    # with zero noise the labels are exactly <w, x>, so the least-squares
    # solution must sit on the planted weights
    residual = data.labels - data.features @ star
    assert np.abs(residual).max() < 1e-3


def test_churn_stream_keeps_size_near_the_start():
    data = gen_synthetic_dataset(100, 3, seed=6)
    seq = gen_adversarial_sequence(data, 10000, strategy="churn", seed=6)
    current = data
    for update in seq:
        current = current.apply(update)
        assert 50 <= current.size <= 150
    assert current.size == 100


def test_drift_stream_preserves_size_every_other_step():
    data = gen_synthetic_dataset(60, 2, seed=7)
    seq = gen_adversarial_sequence(data, 400, strategy="drift", seed=7)
    current = data
    for i, update in enumerate(seq):
        current = current.apply(update)
        if i % 2 == 1:
            assert current.size == 60
    assert np.abs(current.labels).max() <= current.label_bound + 1e-12


def test_random_stream_never_breaks_the_floor():
    data = gen_synthetic_dataset(40, 2, seed=8)
    seq = gen_adversarial_sequence(data, 500, strategy="random", seed=8)
    current = data
    for update in seq:
        current = current.apply(update)
    assert current.size >= 20


def test_delete_stream_respects_the_floor_allowance():
    data = gen_synthetic_dataset(30, 2, seed=9)
    seq = gen_adversarial_sequence(data, 15, strategy="deletes", seed=9)
    current = data
    for update in seq:
        assert update.op == "delete"
        current = current.apply(update)
    assert current.size == 15
    with pytest.raises(ValueError, match="cannot respect dataset floor"):
        gen_adversarial_sequence(data, 16, strategy="deletes", seed=9)


def test_adversarial_sequence_validates_inputs():
    data = small_dataset()
    with pytest.raises(ValueError, match="unknown strategy"):
        gen_adversarial_sequence(data, 5, strategy="worst")
    with pytest.raises(ValueError):
        gen_adversarial_sequence(data, -1)


def test_update_stream_round_trips_through_jsonl(tmp_path):
    data = gen_synthetic_dataset(20, 3, seed=11)
    seq = gen_adversarial_sequence(data, 9, strategy="random", seed=11)
    path = tmp_path / "updates.jsonl"
    save_updates(seq, path)
    back = load_updates(path)
    assert len(back) == len(seq)
    for u, v in zip(seq, back):
        assert u.op == v.op
        assert np.array_equal(u.point.x, v.point.x)
        assert u.point.y == v.point.y


def test_jsonl_loader_flags_malformed_and_nonfinite_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"op":"add","x":[0.1],"y":0.0}\nnot json\n')
    with pytest.raises(ValueError, match="malformed update at line 2"):
        load_updates(path)
    path.write_text('{"op":"add","x":[0.1],"y":NaN}\n')
    with pytest.raises(ValueError, match="non-finite update at line 1"):
        load_updates(path)
    path.write_text('{"op":"add","y":0.0}\n')
    with pytest.raises(ValueError, match="malformed update at line 1"):
        load_updates(path)


def test_dataset_round_trips_through_csv_bit_exactly(tmp_path):
    data = gen_synthetic_dataset(25, 3, seed=12)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x_1,x_2,x_3,y"
    back = Dataset.from_csv(path)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)


def test_csv_loader_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n0.1,0.2,0.3\n")
    with pytest.raises(ValueError, match="malformed CSV header"):
        Dataset.from_csv(path)
    path.write_text("x_1,x_2,y\n0.1,0.2\n")
    with pytest.raises(ValueError, match="malformed CSV row at line 2"):
        Dataset.from_csv(path)
    path.write_text("x_1,y\n")
    with pytest.raises(ValueError, match="empty dataset"):
        Dataset.from_csv(path)
    path.write_text("x_1,y\n5.0,0.0\n")
    with pytest.raises(ValueError, match="feature norm exceeds"):
        Dataset.from_csv(path)
    path.write_text("x_1,y\n0.1,0.0\nnan,0.0\n")
    with pytest.raises(ValueError, match="feature norm exceeds"):
        Dataset.from_csv(path)
