import json
import math

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
    check_bounds,
    load_updates,
    moments_tolerance,
    save_updates,
)
from unlearn import data as data_module
from unlearn.losses import ParamSpace, closed_form_ridge_optimizer
from unlearn.rng import substream

from helpers import traced_peak


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


def test_update_rejects_a_point_that_is_not_a_data_point():
    """A string, an array or a tuple is refused where the update is
    made, not later inside ``Dataset.apply``."""
    for point in ("x", np.zeros(2), (np.zeros(2), 0.0), None):
        for op in ("add", "delete"):
            with pytest.raises(ValueError, match="not a DataPoint"):
                Update(op, point)


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
    ghost = DataPoint(np.array([0.9, 0.0]), 0.0)
    empty = Dataset(np.empty((0, 2)), np.empty(0), initial_size=0)
    emptied = empty.apply(Update("add", ghost)).apply(Update("delete", ghost))
    for data in (small_dataset(), empty, emptied):
        assert data.find(ghost).dtype == np.intp
        after = data.apply(Update("delete", ghost))
        assert np.array_equal(sorted_rows(after), sorted_rows(data))
        assert after.size == data.size
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


def test_delete_of_wrong_dimension_rejected():
    """A shorter point would broadcast against every row: deleting [0.5]
    must not remove the row [0.5, 0.5] of the same label."""
    data = Dataset(np.array([[0.5, 0.5], [0.1, 0.2]]), np.array([0.2, 0.3]))
    for x in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="wrong dimension"):
            data.apply(Update("delete", DataPoint(np.array(x), 0.2)))
        with pytest.raises(ValueError, match="wrong dimension"):
            data.find(DataPoint(np.array(x), 0.2))
    assert data.apply(Update("delete", DataPoint(np.array([0.5, 0.5]),
                                                 0.2))).size == 1


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
    with pytest.raises(ValueError, match="non-finite"):
        data.validate_bounds()
    data = Dataset(np.array([[0.1, 0.0]]), np.array([np.nan]))
    with pytest.raises(ValueError, match="non-finite"):
        data.validate_bounds()


def reference_validate(data):
    # validate_bounds as it was, with np.linalg.norm's (n, d) temporary.
    if data.size:
        check_bounds(np.linalg.norm(data.features, axis=1).max(),
                     np.abs(data.labels).max(), data.feature_bound,
                     data.label_bound)


def outcome(check, data):
    try:
        check(data)
    except ValueError as exc:
        return str(exc)
    return None


# Multiples of a bound: inside, at it, within and just past the 1e-12
# slack, and far past it; none lies within rounding of the slack's edge.
SCALES = (0.0, 0.5, 1.0, 1.0 + 5e-13, 1.0 + 2e-12, 1.0 + 1e-9, 3.0)


@settings(max_examples=200, deadline=None)
@given(directions=st.lists(st.lists(st.floats(-1, 1), min_size=3,
                                    max_size=3), min_size=1, max_size=5),
       feature_scales=st.lists(st.sampled_from(SCALES), min_size=5,
                               max_size=5),
       label_scales=st.lists(st.sampled_from(SCALES), min_size=5,
                             max_size=5),
       bounds=st.tuples(st.sampled_from((0.25, 1.0, 3.0)),
                        st.sampled_from((0.5, 1.0, 2.0))),
       spoil=st.one_of(st.none(), st.tuples(
           st.integers(0, 4), st.integers(0, 3),
           st.sampled_from((np.nan, np.inf, -np.inf)))))
def test_validate_bounds_rejects_what_the_row_norm_check_did(
        directions, feature_scales, label_scales, bounds, spoil):
    """The squared-norm check accepts and rejects exactly the rows the
    np.linalg.norm check did: rows at a bound, rows just past its slack,
    NaN and infinity; it names NaN and infinity non-finite."""
    feature_bound, label_bound = bounds
    n = len(directions)
    features = np.array(directions)
    norms = np.linalg.norm(features, axis=1)
    norms[norms == 0] = 1.0
    features *= (feature_bound * np.array(feature_scales[:n]) / norms)[:, None]
    # A row on an axis sits at its bound exactly.
    features[0] = 0.0
    features[0, 0] = feature_bound * feature_scales[0]
    labels = label_bound * np.array(label_scales[:n]) * (-1.0) ** np.arange(n)
    if spoil is not None:
        row, col, value = spoil
        target = labels if col == 3 else features[:, col]
        target[row % n] = value
    data = Dataset(features, labels, feature_bound, label_bound)
    want, got = outcome(reference_validate, data), \
        outcome(Dataset.validate_bounds, data)
    assert (got is None) == (want is None)
    if spoil is not None:
        assert got == "non-finite feature or label"
    elif got is not None:
        assert got == want


def test_dataset_rejects_bounds_that_are_not_positive():
    features, labels = np.zeros((2, 2)), np.zeros(2)
    for bad in (0.0, -1.0, float("nan"), -np.inf):
        with pytest.raises(ValueError, match="bounds must be positive"):
            Dataset(features, labels, feature_bound=bad)
        with pytest.raises(ValueError, match="bounds must be positive"):
            Dataset(features, labels, label_bound=bad)
    assert Dataset(features, labels, np.inf, 1e-9).size == 2


OUT_OF_BOUNDS = [
    (np.array([50.0, 0.0]), 0.0, "feature norm exceeds"),
    (np.array([0.1, 0.0]), 7.0, "label magnitude exceeds"),
    (np.array([np.nan, 0.0]), 0.0, "non-finite"),
    (np.array([0.1, 0.0]), np.nan, "non-finite"),
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


def plain_synthetic(n, dim, model, noise, feature_bound, label_bound, seed):
    """``gen_synthetic_dataset``'s rows by the plain formula, with its
    full-size temporaries: norm, divide and scale out of place."""
    rng = substream(seed, "data", model, n, dim)
    raw = rng.standard_normal((n, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    scale = feature_bound * rng.random((n, 1)) ** (1.0 / dim)
    feats = raw / norms * scale
    w = rng.standard_normal(dim)
    w *= 0.5 * label_bound / (feature_bound * max(np.linalg.norm(w), 1e-12))
    margin = feats @ w
    if model == "linear":
        labs = np.clip(margin + noise * rng.standard_normal(n),
                       -label_bound, label_bound)
    else:
        probs = 0.5 * (1.0 + np.tanh(margin / (2.0 * max(noise, 1e-12))))
        labs = np.where(rng.random(n) < probs, 1.0, -1.0)
    return feats, labs


@pytest.mark.parametrize("model", ["linear", "logistic"])
def test_synthetic_rows_are_the_plain_formula_to_the_byte(model):
    """The norms, taken a block of rows at a time, and the in-place
    divide and scale give the plain formula's bytes, for n just under,
    at and just over the block size and over several blocks, for two
    seeds: drawn a block at a time into a column-major Z, the rows are
    still those of one row-major draw and one margin product, a lone
    last row included."""
    block = data_module._BLOCK_ROWS
    for n, dim in [(block - 1, 50), (block, 50), (block + 1, 50),
                   (2 * block + 1, 1), (7, 3), (1, 9), (20_000, 50),
                   (2 * block + 1, 20), (3 * block + 2, 7)]:
        for seed in (n, 5):
            data = gen_synthetic_dataset(n, dim, model=model, noise=0.2,
                                         feature_bound=2.0, label_bound=1.5,
                                         seed=seed)
            feats, labs = plain_synthetic(n, dim, model, 0.2, 2.0, 1.5, seed)
            assert data.features.tobytes() == feats.tobytes()
            assert data.labels.tobytes() == labs.tobytes()
            assert data.features.flags.f_contiguous


def test_synthetic_rows_are_allocated_once():
    data = gen_synthetic_dataset(20_000, 50, seed=5)
    peak = traced_peak(lambda: gen_synthetic_dataset(20_000, 50, seed=5))
    assert peak < 1.5 * (data.features.nbytes + data.labels.nbytes)


def test_synthetic_rejects_bad_requests():
    with pytest.raises(ValueError):
        gen_synthetic_dataset(0, 3)
    with pytest.raises(ValueError, match="unknown data model"):
        gen_synthetic_dataset(10, 3, model="quadratic")
    # A NaN, infinite or negative noise, and a bound that is not positive
    # and finite, would give NaN labels or rows outside the bounds.
    for noise in (math.nan, math.inf, -math.inf, -0.1):
        with pytest.raises(ValueError, match="noise must be"):
            gen_synthetic_dataset(20, 3, noise=noise)
    for bounds in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                   (1.0, math.nan), (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="bounds must be"):
            gen_synthetic_dataset(20, 3, feature_bound=bounds[0],
                                  label_bound=bounds[1])


@pytest.mark.parametrize("make", [
    lambda: gen_synthetic_dataset(2.5, 3),
    lambda: gen_synthetic_dataset(True, 3),
    lambda: gen_synthetic_dataset(10, 3.0),
    lambda: gen_synthetic_dataset(10, False),
    lambda: gen_adversarial_sequence(small_dataset(), 2.5),
    lambda: gen_adversarial_sequence(small_dataset(), True),
], ids=["fractional_n", "bool_n", "float_dim", "bool_dim",
        "fractional_length", "bool_length"])
def test_generators_reject_counts_that_are_not_integers(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


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
    # A matrix or a scalar x, a string x, strings or booleans for numbers,
    # an integer past the float range, an unknown op and a non-object
    # line are malformed too, and each names its line.
    for line in ('{"op":"add","x":[[0.1,0.2]],"y":0.0}',
                 '{"op":"add","x":0.5,"y":0.0}',
                 '{"op":"add","x":"abc","y":0.0}',
                 '{"op":"add","x":["0.1","0.2"],"y":0.5}',
                 '{"op":"add","x":[0.1,0.2],"y":"0.5"}',
                 '{"op":"add","x":[true,false],"y":0.5}',
                 '{"op":"add","x":[0.1,0.2],"y":true}',
                 '{"op":"add","x":[1' + '0' * 400 + ',0.2],"y":0.0}',
                 '{"op":"bogus","x":[0.1,0.2],"y":0.0}', '[0.1,0.2]'):
        path.write_text('{"op":"add","x":[0.1,0.2],"y":0.0}\n' + line)
        with pytest.raises(ValueError, match="^malformed update at line 2$"):
            load_updates(path)


def test_dataset_round_trips_through_csv_bit_exactly(tmp_path):
    data = gen_synthetic_dataset(25, 3, seed=12)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x_1,x_2,x_3,y"
    back = Dataset.from_csv(path)
    assert back.features.tobytes() == data.features.tobytes()
    assert back.labels.tobytes() == data.labels.tobytes()


def test_an_edited_version_round_trips_through_csv_without_a_gather(
        tmp_path):
    """``to_csv`` reads an edited version's rows block by block and
    caches none; the file reads back to the same bytes whatever its line
    ends, with or without a last one."""
    data = gen_synthetic_dataset(2 * data_module._BLOCK_ROWS + 3, 4, seed=13)
    edited = data.apply(Update("add", DataPoint(np.full(4, 0.25), -0.5)))
    edited = edited.apply(Update("delete", data.point(5)))
    path = tmp_path / "edited.csv"
    edited.to_csv(path)
    assert edited._features is None and edited._labels is None
    text = path.read_bytes()
    lines = text.split(b"\r\n")[:-1]
    for variant in (text, text[:-2], b"\n".join(lines), b"\r".join(lines)):
        path.write_bytes(variant)
        back = Dataset.from_csv(path)
        assert back.features.tobytes() == edited.features.tobytes()
        assert back.labels.tobytes() == edited.labels.tobytes()
        assert back.features.flags.f_contiguous


def test_csv_rows_are_allocated_once(tmp_path):
    data = gen_synthetic_dataset(20_000, 50, seed=5)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    peak = traced_peak(lambda: Dataset.from_csv(path))
    assert peak < 1.5 * (data.features.nbytes + data.labels.nbytes)


def test_csv_loader_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n0.1,0.2,0.3\n")
    with pytest.raises(ValueError, match="malformed CSV header"):
        Dataset.from_csv(path)
    path.write_text("x_1,x_2,y\n0.1,0.2\n")
    with pytest.raises(ValueError, match="malformed CSV row at line 2"):
        Dataset.from_csv(path)
    for bad in ("abc,0.2", ",0.2", "0.1,0.2,"):
        path.write_text(f"x_1,y\n0.1,0.0\n{bad}\n")
        with pytest.raises(ValueError,
                           match="^malformed CSV row at line 3$"):
            Dataset.from_csv(path)
    path.write_text("x_1,y\n0.1,nan\nabc,0.2\n")
    with pytest.raises(ValueError, match="non-finite value at line 2"):
        Dataset.from_csv(path)
    path.write_text("x_1,y\n")
    with pytest.raises(ValueError, match="empty dataset"):
        Dataset.from_csv(path)
    path.write_text("x_1,y\n5.0,0.0\n")
    with pytest.raises(ValueError, match="feature norm exceeds"):
        Dataset.from_csv(path)
    path.write_text("x_1,y\n0.1,0.0\nnan,0.0\n")
    with pytest.raises(ValueError, match="non-finite value at line 3"):
        Dataset.from_csv(path)
    path.write_text("x_1,x_2,y\nnan,0.1,0.2\n")
    with pytest.raises(ValueError, match="non-finite value at line 2"):
        Dataset.from_csv(path)
    path.write_text("x_1,y\n0.1,0.0\n0.2,-inf\n")
    with pytest.raises(ValueError, match="non-finite value at line 3"):
        Dataset.from_csv(path)


def test_csv_errors_name_the_physical_line_a_record_starts_on(tmp_path):
    """A quoted cell may hold a line end, which ``float`` accepts, so a
    record can span two lines; later messages still name the file's
    own line, and a malformed two-line record names its first."""
    path = tmp_path / "quoted.csv"
    path.write_text('x_1,y\n"0.1\n",0.2\n0.1,nan\n')
    with pytest.raises(ValueError, match="^non-finite value at line 4$"):
        Dataset.from_csv(path)
    path.write_text('x_1,y\n0.1,0.2\n"0.3\n",0.4,0.5\n0.1,0.1\n')
    with pytest.raises(ValueError, match="^malformed CSV row at line 3$"):
        Dataset.from_csv(path)
    path.write_text('x_1,y\n"0.1\n",0.2\n0.3,0.4\n')
    data = Dataset.from_csv(path)
    assert data.features.tolist() == [[0.1], [0.3]]
    assert data.labels.tolist() == [0.2, 0.4]


def parent_row_moments(features, labels):
    """M as it was built from two arrays: X^T X, X^T y and y^T y, three
    products per block, and the corner copied across."""
    dim = features.shape[-1]
    moments = np.zeros(features.shape[:-2] + (dim + 1, dim + 1))
    for start in range(0, labels.shape[-1], 1024):
        x = features[..., start:start + 1024, :]
        y = labels[..., start:start + 1024, None]
        moments[..., :dim, :dim] += x.swapaxes(-1, -2) @ x
        moments[..., :dim, dim:] += x.swapaxes(-1, -2) @ y
        moments[..., dim:, dim:] += y.swapaxes(-1, -2) @ y
    moments[..., dim, :dim] = moments[..., :dim, dim]
    return moments


def test_row_moments_of_a_stack_are_each_slice_s_own():
    """Over several row blocks, M is symmetric, read-only and within
    ``moments_tolerance`` of the whole product Z^T Z and of the
    three-product M; each slice of a stack, such as the partitions a
    dataset gathers, is, to the byte, what its rows alone give in
    row-major and in column-major order alike."""
    data = gen_synthetic_dataset(2 * data_module._BLOCK_ROWS + 7, 4,
                                 seed=43)
    n = data.size
    positions = np.stack([np.arange(n), np.arange(n)[::-1],
                          np.random.default_rng(43).integers(n, size=n)])
    rows = data.stacked(positions)
    stacked = data_module._row_moments(rows)
    assert stacked.shape == (3, 5, 5) and not stacked.flags.writeable
    tol = moments_tolerance(n, 0, 1.0, 1.0, 4)
    old = parent_row_moments(*data.rows(positions))
    for p in range(3):
        alone = data_module._row_moments(rows[p])
        assert alone.tobytes() == stacked[p].tobytes()
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert data_module._row_moments(
                layout(rows[p])).tobytes() == alone.tobytes()
        assert np.array_equal(alone, alone.T)
        assert np.all(np.abs(alone - rows[p].T @ rows[p]) <= tol)
        assert np.all(np.abs(alone - old[p]) <= tol)
    assert data.moments().tobytes() == stacked[0].tobytes()


def test_a_delete_reads_no_more_than_the_rows_it_compares():
    """On an n = 2e5 buffer, a delete, from the dataset itself and from
    an edited version with a tail, and with moments carried, makes no
    temporary near the size of the rows: it compares labels, gathers
    the few rows whose label matches and copies the live index."""
    data = gen_synthetic_dataset(200_000, 20, seed=3)
    data.moments()
    buffer = data.features.nbytes + data.labels.nbytes
    point = DataPoint(np.full(20, 0.01), 0.5)
    added = data.apply(Update("add", point))
    for version, victim in ((data, data.point(123_456)), (added, point),
                            (added, data.point(7))):
        update = Update("delete", victim)
        peak = traced_peak(lambda: version.apply(update))
        assert peak < buffer / 8


def test_moments_recompute_caches_no_rows():
    """Once a chain has carried as many updates as it has rows, ``apply``
    recomputes its moments from a gather of the rows that it does not
    keep: the live version then holds no rows apart from the buffer, and
    the moments are the rows' own to the byte."""
    data = gen_synthetic_dataset(200, 3, seed=4)
    data.moments()
    recomputes = 0
    for update in gen_adversarial_sequence(data, 450, strategy="churn",
                                           seed=4):
        data = data.apply(update)
        if data.cached_moments[1]:
            continue
        recomputes += 1
        rows = data._rows
        assert data._z is None or np.shares_memory(data._z, rows.base_rows)
        fresh = data_module._row_moments(rows.gather(data._live))
        assert data.moments().tobytes() == fresh.tobytes()
    assert recomputes >= 2


def versions():
    """A fresh dataset, an edited version of it and a compacted one."""
    data = Dataset(np.arange(12.0).reshape(6, 2) / 20, np.linspace(-1, 1, 6),
                   initial_size=2)
    edited = data.apply(Update("add", DataPoint(np.array([0.1, 0.1]), 0.5)))
    compacted = data
    for _ in range(4):
        compacted = compacted.apply(Update("delete", compacted.point(0)))
    assert edited._rows is data._rows
    assert compacted._rows is not data._rows
    return data, edited, compacted


def test_a_dataset_owns_its_rows_and_no_write_reaches_them():
    features, labels = np.array([[0.1, 0.2], [0.3, 0.0]]), np.array([0.5, 1.0])
    data = Dataset(features, labels)
    features[0, 0], labels[1] = 0.9, -1.0
    assert data.features.tolist() == [[0.1, 0.2], [0.3, 0.0]]
    assert data.labels.tolist() == [0.5, 1.0]
    assert data.find(DataPoint(np.array([0.1, 0.2]), 0.5)).tolist() == [0]
    for version in versions():
        for rows in (version.features, version.labels):
            assert not rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 0.0


def test_read_only_rows_are_taken_as_they_are(tmp_path):
    """The library's producers hand over read-only rows, so a dataset
    built over another's rows shares them; a writeable array is copied."""
    synthetic = gen_synthetic_dataset(30, 3, seed=5)
    synthetic.to_csv(tmp_path / "d.csv")
    for data in (synthetic, Dataset.from_csv(tmp_path / "d.csv"),
                 *versions()):
        twin = Dataset(data.features, data.labels)
        assert twin.features is data.features
        assert np.shares_memory(twin.labels, data.labels)
    writeable = synthetic.features.copy()
    assert not np.shares_memory(Dataset(writeable, synthetic.labels).features,
                                writeable)


def test_only_two_views_of_one_column_major_z_are_shared():
    """A dataset keeps its rows as one column-major Z, so it shares only
    read-only views Z[:, :-1] and Z[:, -1] of such a Z; two separate
    read-only arrays, or views of a row-major Z, are copied into a Z of
    its own once."""
    rows = np.asfortranarray(np.random.default_rng(2).uniform(-0.3, 0.3,
                                                              (40, 4)))
    rows.flags.writeable = False
    shared = Dataset(rows[:, :-1], rows[:, -1])
    assert np.shares_memory(shared.features, rows)
    assert np.shares_memory(shared.labels, rows)
    row_major = np.ascontiguousarray(rows)
    row_major.flags.writeable = False
    separate = rows[:, :-1].copy(), rows[:, -1].copy()
    for given in (separate, (row_major[:, :-1], row_major[:, -1]),
                  (rows[:, :-1], rows[:, 0])):
        for array in given:
            array.flags.writeable = False
        copied = Dataset(*given)
        assert not np.shares_memory(copied.features, rows)
        assert not np.shares_memory(copied.features, row_major)
        assert copied.features.flags.f_contiguous
        assert copied.features.tobytes() == given[0].tobytes()
        assert copied.labels.tobytes() == given[1].tobytes()


def test_a_converted_input_is_copied_once():
    """A list, or an array of another dtype, converts to a fresh array,
    which the dataset keeps without a second copy; a writeable float64
    array, and a view of one, is still copied, and no later write by the
    caller reaches the dataset."""
    rng = np.random.default_rng(7)
    features = rng.uniform(-0.1, 0.1, size=(20_000, 50))
    labels = rng.uniform(-1, 1, size=20_000)
    single = features.astype(np.float32)
    peak = traced_peak(lambda: Dataset(single, labels))
    data = Dataset(single, labels)
    # About the float64 rows and labels once, not twice.
    assert peak < 1.1 * (features.nbytes + labels.nbytes)
    assert data.features.dtype == float
    assert data.features.tolist() == single.astype(float).tolist()
    for given in (features, features[::2], features.T.T):
        kept = Dataset(given, labels[:given.shape[0]])
        assert not np.shares_memory(kept.features, features)
        assert given.flags.writeable
    listed = [[0.1, 0.2], [0.3, 0.0]]
    data = Dataset(listed, [0.5, 1.0])
    listed[0][0] = 0.9
    assert data.features.tolist() == [[0.1, 0.2], [0.3, 0.0]]


# The store against a naive model: a version is a list of (x, y) rows,
# an add appends and a delete removes the first equal row.
GRID = (-0.5, -0.0, 0.0, 0.5)


def model_apply(rows, op, x, y):
    if op == "add":
        return rows + [(x, y)]
    for i, (rx, ry) in enumerate(rows):
        if ry == y and all(a == b for a, b in zip(rx, x)):
            return rows[:i] + rows[i + 1:]
    return rows


def fresh_moments(data):
    rows = np.column_stack((data.features, data.labels))
    return rows.T @ rows


def assert_moments_within_bound(data):
    moments, carried = data.cached_moments
    assert 0 <= carried <= data.size
    tol = moments_tolerance(data.size, carried, data.feature_bound,
                            data.label_bound, data.dim)
    assert np.all(np.abs(moments - fresh_moments(data)) <= tol)


def assert_matches_model(data, rows, probes):
    # ``find``, a delete and ``point`` first, while the rows may still be
    # ungathered: they read the row buffer and gather or cache nothing.
    held = data._features, data._labels
    for x, y in probes:
        expected = [i for i, (rx, ry) in enumerate(rows)
                    if ry == y and all(a == b for a, b in zip(rx, x))]
        point = DataPoint(np.array(x), y)
        found = data.find(point)
        assert found.tolist() == expected and found.dtype == np.intp
        if len(rows) - bool(expected) >= data.initial_size / 2:
            # The child finds afresh, not by its parent's last result.
            child = data.apply(Update("delete", point))
            assert child.find(point).tolist() == [i - 1
                                                  for i in expected[1:]]
    assert data._features is held[0] and data._labels is held[1]
    assert data.size == len(rows)
    for i, (x, y) in enumerate(rows):
        point = data.point(i)
        assert point.x.tobytes() == np.array(x).tobytes() and point.y == y
    feats = np.array([x for x, _ in rows]).reshape(len(rows), data.dim)
    # Any live indices, in any order and with repeats, gather just those
    # rows: the whole version stays ungathered if it was.
    ungathered = data._features is None
    picks = np.array([[len(rows) - 1, 0, len(rows) // 2],
                      [0, len(rows) - 1, len(rows) - 1]])
    got_f, got_l = data.rows(picks)
    assert got_f.shape == (2, 3, data.dim) and got_l.shape == (2, 3)
    assert got_f.tobytes() == feats[picks].tobytes()
    assert got_l.tobytes() == np.array([y for _, y in rows])[picks].tobytes()
    assert (data._features is None) == ungathered
    assert data.features.tobytes() == feats.tobytes()
    assert data.labels.tobytes() == np.array([y for _, y in rows]).tobytes()


grid_points = st.tuples(st.tuples(st.sampled_from(GRID),
                                  st.sampled_from(GRID)),
                        st.sampled_from((-1.0, 0.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(start=st.lists(grid_points, min_size=1, max_size=10),
       edits=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.sampled_from(("add", "add", "real",
                                                 "void")),
                                grid_points, st.integers(0, 10 ** 6),
                                st.booleans()),
                      min_size=10, max_size=80),
       with_moments=st.booleans())
def test_store_matches_a_list_of_rows(start, edits, with_moments):
    """Edits to any version, in any order, agree with a naive model."""
    base = Dataset(np.array([x for x, _ in start]),
                   np.array([y for _, y in start]))
    if with_moments:
        base.moments()
    n0 = base.size
    versions = [(base, list(start))]
    probes = list(start)
    for parent_pick, op, (x, y), row_pick, gather in edits:
        # Mostly the newest version, so the buffer fills, grows and is
        # compacted; else any older one, any number of times.
        data, rows = versions[-1 if parent_pick % 3
                              else parent_pick % len(versions)]
        if op == "real" and rows:
            x, y = rows[row_pick % len(rows)]
            op = "delete"
        elif op != "add":
            op = "delete"
            if any(ry == y and rx == x for rx, ry in rows):
                x, y = (9.0, 9.0), 0.0  # a row no version holds
        probes.append((x, y))
        expected = model_apply(rows, op, x, y)
        update = Update(op, DataPoint(np.array(x), y))
        if len(expected) < n0 / 2:
            with pytest.raises(ValueError, match="floor violated"):
                data.apply(update)
            continue
        child = data.apply(update)
        if gather:
            child.features
        versions.append((child, expected))
    for data, rows in versions:
        assert_matches_model(data, rows, probes[-8:])
        assert data.initial_size == n0
        if with_moments:
            assert data.cached_moments is not None
            assert_moments_within_bound(data)
        else:
            assert data.cached_moments is None


def test_find_skips_dead_slots_and_rows_of_sibling_versions():
    """The row buffer holds rows no version of it may hold live: a
    sibling's appended copy of the point, and a deleted copy. ``find``
    counts only live slots, and gathers no version's rows."""
    base = Dataset(np.array([[0.1, 0.0], [0.0, 0.2], [0.3, 0.3]]),
                   np.array([0.5, 0.5, -1.0]), initial_size=0)
    point = DataPoint(np.array([0.4, 0.0]), 0.5)
    sibling = base.apply(Update("add", point))
    other = base.apply(Update("add", DataPoint(np.array([0.0, 0.4]), 0.5)))
    assert other._rows is sibling._rows and other._rows.count == 5
    assert other.find(point).tolist() == [] and base.find(point).size == 0
    assert sibling.find(point).tolist() == [3]
    gone = sibling.apply(Update("delete", point))
    assert gone.find(point).tolist() == []
    again = gone.apply(Update("add", point))
    assert again.find(point).tolist() == [3]
    for version in (other, sibling, gone, again):
        assert version._features is None and version._labels is None
    # An empty version whose buffer a child has since written to.
    empty = Dataset(np.empty((0, 2)), np.empty(0), initial_size=0)
    empty.apply(Update("add", point))
    assert empty._rows.count == 1
    found = empty.find(point)
    assert found.size == 0 and found.dtype == np.intp
    assert not found.flags.writeable


def test_edits_move_indices_as_index_valued_subsamples_expect():
    """An add lands at index ``size - 1``; a delete removes index
    ``find(point)[0]``, the first equal row, and keeps the order of the
    rest, so indices above it move down by one."""
    data = Dataset(np.array([[0.1, 0.0], [0.2, 0.0], [0.1, 0.0],
                             [0.3, 0.0]]), np.array([0.5, 0.5, 0.5, 0.5]))
    point = DataPoint(np.array([0.4, 0.0]), -0.5)
    added = data.apply(Update("add", point))
    assert added.size == 5 and added.find(point).tolist() == [4]
    assert added.rows([0, 1, 2, 3])[0].tobytes() == data.features.tobytes()
    twin = data.point(0)
    assert data.find(twin).tolist() == [0, 2]
    dropped = added.apply(Update("delete", twin))
    kept = [1, 2, 3, 4]
    before, after = added.rows(kept), dropped.rows(np.arange(4))
    assert after[0].tobytes() == before[0].tobytes()
    assert after[1].tobytes() == before[1].tobytes()


def test_moments_are_carried_by_rank_one_updates_and_recomputed_from_rows():
    """Each edit carries the one moment matrix M by +-z z^T, z = (x, y),
    so X^T X, X^T y and y^T y move together; the edit that recomputes M
    takes it from the rows, bytewise as ``_row_moments`` builds it."""
    data = gen_synthetic_dataset(8, 3, seed=41)
    data.moments()
    recomputed = 0
    for update in gen_adversarial_sequence(data, 40, "random", seed=41):
        before = data.cached_moments
        data = data.apply(update)
        moments, carried = data.cached_moments
        if carried == 0:
            recomputed += 1
            fresh = data_module._row_moments(
                data.stacked(np.arange(data.size)))
            assert moments.tobytes() == fresh.tobytes()
        else:
            z = np.append(update.point.x, update.point.y)
            sign = 1.0 if update.op == "add" else -1.0
            assert carried == before[1] + 1
            step = before[0] + np.outer(sign * z, z)
            assert moments.tobytes() == step.tobytes()
        assert not moments.flags.writeable
        assert np.array_equal(moments, moments.T)
    assert recomputed >= 3


def test_long_stream_keeps_moments_and_memory_steady():
    """2e4 random edits: the rows stay those of the naive model, the
    moments within the restore bound, which itself stays within that of
    3 n products, and the row buffer within four times the live rows."""
    rng = np.random.default_rng(31)
    data = gen_synthetic_dataset(500, 5, seed=31)
    data.moments()
    n0 = data.size
    rows = [(tuple(x), y) for x, y in zip(data.features, data.labels)]
    for step in range(1, 20_001):
        if data.size - 1 < n0 / 2 or rng.random() < 0.5:
            x = rng.standard_normal(5)
            x *= rng.random() / np.linalg.norm(x)
            point = DataPoint(x, rng.uniform(-1, 1))
            update = Update("add", point)
        else:
            point = data.point(int(rng.integers(data.size)))
            update = Update("delete", point)
        rows = model_apply(rows, update.op, tuple(point.x), point.y)
        data = data.apply(update)
        store = data._rows
        assert store.count <= 2 * data.size
        assert store.base + store.tail.shape[0] <= 4 * data.size
        assert data.cached_moments[1] <= data.size
        if step % 5000 == 0:
            assert_matches_model(data, rows, rows[:3])
            assert_moments_within_bound(data)
