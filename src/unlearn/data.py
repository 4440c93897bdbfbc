"""Datasets as multisets of labeled points, plus edit streams.

A dataset is an ordered array snapshot of a multiset: duplicate rows are
distinct copies, deletion removes one copy, and point identity is exact
equality of the feature vector and label. Every dataset remembers the
size of the original training set so that edits can enforce the size
floor n_i >= n_0 / 2 that the deletion guarantees rely on.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .rng import substream

__all__ = [
    "DataPoint",
    "Dataset",
    "Update",
    "UpdateSequence",
    "gen_adversarial_sequence",
    "gen_synthetic_dataset",
    "load_updates",
    "save_updates",
]

_FLOAT_FMT = "%.17g"  # shortest round-trip for IEEE doubles


@dataclass(frozen=True)
class DataPoint:
    """One labeled example. Identity is exact equality of (x, y)."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", float(self.y))


@dataclass(frozen=True)
class Update:
    """A single edit request: add one copy or delete one copy."""

    op: str
    point: DataPoint

    def __post_init__(self):
        if self.op not in ("add", "delete"):
            raise ValueError(f"unknown update op {self.op!r}")


@dataclass(frozen=True)
class UpdateSequence:
    """An ordered stream of edits with the strategy that produced it."""

    updates: tuple
    kind: str = "replay"

    def __len__(self):
        return len(self.updates)

    def __iter__(self):
        return iter(self.updates)

    def __getitem__(self, i):
        return self.updates[i]


class Dataset:
    """Multiset of labeled points with a size floor.

    Attributes:
        features: (n, d) array, one row per copy.
        labels: (n,) array.
        initial_size: size n_0 of the original training set; edits must
            keep the current size at or above n_0 / 2.
        feature_bound: declared bound on ||x||_2, validated on load and
            on every add.
        label_bound: declared bound on |y|, validated likewise.
    """

    def __init__(self, features, labels, feature_bound=1.0, label_bound=1.0,
                 initial_size=None):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels, dtype=float).ravel()
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels disagree on length")
        self.features = features
        self.labels = labels
        self.feature_bound = float(feature_bound)
        self.label_bound = float(label_bound)
        self.initial_size = int(initial_size if initial_size is not None
                                else features.shape[0])

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def point(self, i: int) -> DataPoint:
        return DataPoint(self.features[i].copy(), float(self.labels[i]))

    def find(self, point: DataPoint) -> np.ndarray:
        """Indices of all copies equal to ``point`` (exact equality)."""
        if self.size == 0:
            return np.empty(0, dtype=int)
        hits = np.all(self.features == point.x, axis=1) & (self.labels == point.y)
        return np.flatnonzero(hits)

    def _check_bounds(self, norm, label):
        # Written as "not <=" so that NaN fails the test too.
        if not norm <= self.feature_bound * (1 + 1e-12):
            raise ValueError("feature norm exceeds declared bound")
        if not label <= self.label_bound * (1 + 1e-12):
            raise ValueError("label magnitude exceeds declared bound")

    def validate_bounds(self):
        if self.size:
            self._check_bounds(np.linalg.norm(self.features, axis=1).max(),
                               np.abs(self.labels).max())

    def apply(self, update: Update) -> "Dataset":
        """Return the dataset after one edit.

        Adding appends a copy, and raises if the point breaks the
        declared bounds or is not finite. Deleting removes one copy if
        present and is a no-op on the contents otherwise. Raises if the
        edit would push the size below initial_size / 2.
        """
        if update.op == "add":
            if update.point.x.shape != (self.dim,):
                raise ValueError("added point has wrong dimension")
            self._check_bounds(np.linalg.norm(update.point.x),
                               abs(update.point.y))
            feats = np.vstack([self.features, update.point.x])
            labs = np.append(self.labels, update.point.y)
        else:
            idx = self.find(update.point)
            if idx.size == 0:
                feats, labs = self.features, self.labels
            else:
                keep = np.ones(self.size, dtype=bool)
                keep[idx[0]] = False
                feats = self.features[keep]
                labs = self.labels[keep]
        if feats.shape[0] < self.initial_size / 2:
            raise ValueError(
                f"dataset floor violated: {feats.shape[0]} points is below "
                f"{self.initial_size}/2"
            )
        return Dataset(feats, labs, self.feature_bound, self.label_bound,
                       self.initial_size)

    def to_csv(self, path):
        """Write as CSV with header x_1,...,x_d,y at 17 significant digits."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{j + 1}" for j in range(self.dim)] + ["y"])
            for row, lab in zip(self.features, self.labels):
                writer.writerow([_FLOAT_FMT % v for v in row] + [_FLOAT_FMT % lab])

    @classmethod
    def from_csv(cls, path, feature_bound=1.0, label_bound=1.0) -> "Dataset":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[-1] != "y" or not all(
                name == f"x_{j + 1}" for j, name in enumerate(header[:-1])
            ):
                raise ValueError("malformed CSV header")
            dim = len(header) - 1
            feats, labs = [], []
            for line, row in enumerate(reader, start=2):
                if len(row) != dim + 1:
                    raise ValueError(f"malformed CSV row at line {line}")
                feats.append([float(v) for v in row[:-1]])
                labs.append(float(row[-1]))
        if not feats:
            raise ValueError("empty dataset")
        data = cls(np.array(feats), np.array(labs), feature_bound, label_bound)
        data.validate_bounds()
        return data


def _ball_points(rng, n, dim, radius):
    # Uniform on the radius-ball: direction times radius * U^(1/d).
    raw = rng.standard_normal((n, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    scale = radius * rng.random((n, 1)) ** (1.0 / dim)
    return raw / norms * scale


def gen_synthetic_dataset(n, dim, model="linear", noise=0.1, feature_bound=1.0,
                          label_bound=1.0, seed=0) -> Dataset:
    """Generate a dataset from a simple planted model.

    ``linear`` draws y = <w, x> + noise * N(0, 1) clipped to the label
    bound; ``logistic`` draws y in {-1, +1} with log-odds <w, x> / noise.
    The planted weights keep |<w, x>| at or below label_bound / 2 so the
    clip rarely binds.
    """
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be positive")
    if model not in ("linear", "logistic"):
        raise ValueError(f"unknown data model {model!r}")
    rng = substream(seed, "data", model, n, dim)
    feats = _ball_points(rng, n, dim, feature_bound)
    w = rng.standard_normal(dim)
    w *= 0.5 * label_bound / (feature_bound * max(np.linalg.norm(w), 1e-12))
    margin = feats @ w
    if model == "linear":
        labs = margin + noise * rng.standard_normal(n)
        labs = np.clip(labs, -label_bound, label_bound)
    else:
        temp = max(noise, 1e-12)
        probs = 0.5 * (1.0 + np.tanh(margin / (2.0 * temp)))
        labs = np.where(rng.random(n) < probs, 1.0, -1.0)
    return Dataset(feats, labs, feature_bound, label_bound)


def _extreme_point(rng, data: Dataset) -> DataPoint:
    # Maximal influence: on the feature sphere with an extreme label.
    direction = rng.standard_normal(data.dim)
    direction /= max(np.linalg.norm(direction), 1e-12)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return DataPoint(data.feature_bound * direction, sign * data.label_bound)


def gen_adversarial_sequence(data: Dataset, length, strategy="churn",
                             seed=0) -> UpdateSequence:
    """Build an edit stream whose every prefix respects the size floor.

    Strategies:
        churn: alternately add an extreme-influence point and delete it.
        drift: flip the label of a random existing point (delete + add).
        random: random adds of fresh points and deletes of existing ones,
            forced to add when the floor would otherwise be hit.
        deletes: delete random existing points; rejected up front when
            ``length`` exceeds the floor allowance.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if strategy not in ("churn", "drift", "random", "deletes"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = substream(seed, "updates", strategy)
    if strategy == "deletes" and length > data.initial_size / 2:
        raise ValueError(
            "cannot respect dataset floor: too many deletions requested"
        )
    updates = []
    current = data
    pending = None
    for _ in range(length):
        if strategy == "churn":
            if pending is None:
                pending = _extreme_point(rng, current)
                update = Update("add", pending)
            else:
                update = Update("delete", pending)
                pending = None
        elif strategy == "drift":
            if pending is not None:
                update = Update("add", pending)
                pending = None
            else:
                victim = current.point(int(rng.integers(current.size)))
                pending = DataPoint(victim.x, -victim.y)
                update = Update("delete", victim)
        elif strategy == "deletes":
            i = int(rng.integers(current.size))
            update = Update("delete", current.point(i))
        else:
            at_floor = current.size - 1 < current.initial_size / 2
            if at_floor or rng.random() < 0.5:
                update = Update("add", _extreme_point(rng, current))
            else:
                i = int(rng.integers(current.size))
                update = Update("delete", current.point(i))
        updates.append(update)
        current = current.apply(update)
    return UpdateSequence(tuple(updates), kind=strategy)


def save_updates(seq: UpdateSequence, path):
    """Write one JSON object per line: {"op", "x", "y"}."""
    with open(path, "w") as fh:
        for u in seq:
            fh.write(json.dumps(
                {"op": u.op, "x": list(u.point.x), "y": u.point.y},
                sort_keys=True, separators=(",", ":"),
            ))
            fh.write("\n")


def load_updates(path) -> UpdateSequence:
    updates = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                op = obj["op"]
                point = DataPoint(np.asarray(obj["x"], dtype=float),
                                  float(obj["y"]))
            except (KeyError, TypeError, json.JSONDecodeError) as exc:
                raise ValueError(f"malformed update at line {line_no}") from exc
            if not np.all(np.isfinite(point.x)) or not math.isfinite(point.y):
                raise ValueError(f"non-finite update at line {line_no}")
            updates.append(Update(op, point))
    return UpdateSequence(tuple(updates), kind="replay")
