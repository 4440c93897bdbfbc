"""Datasets as multisets of labeled points, plus edit streams.

A dataset is an ordered, immutable snapshot of a multiset: duplicate
rows are distinct copies, deletion removes one copy, and point identity
is exact equality of the feature vector and label. Every dataset
remembers the size of the original training set so that edits can
enforce the size floor n_i >= n_0 / 2 that the deletion guarantees rely
on.

A dataset owns its rows: it keeps them in read-only arrays, copying a
writeable input once, so no later write by a caller reaches it, and a
dataset built over those arrays (a chain's own) shares them without a
copy. An edit costs O(n) index work and O(d^2) arithmetic; it copies no
rows, bar a compaction after on the order of n edits. The versions of
one dataset share an append-only row buffer and each holds only the
slots of its rows. A delete reads what it compares and no more: one
compare of the point's label with the buffer's labels, the features of
the live rows whose label matches, and one copy of the live index; no
version's rows are gathered. The moments X^T X, X^T y and y^T y, once
computed, are carried from version to version by rank-1 updates and
recomputed from the rows once n updates have been carried, so they
cost O(d^2) per edit amortised and their rounding error does not grow
with the stream (see ``Dataset``).

Both producers of rows allocate them once: ``gen_synthetic_dataset``
draws its rows and normalises and scales them in place, and
``Dataset.from_csv`` parses each line straight into arrays sized for
the file. Neither makes a temporary the size of the rows, so a chain's
rows, not their making, set the program's memory floor.
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
    "check_bounds",
    "gen_adversarial_sequence",
    "gen_synthetic_dataset",
    "load_updates",
    "moments_tolerance",
    "save_updates",
]

_FLOAT_FMT = "%.17g"  # shortest round-trip for IEEE doubles
_BLOCK_ROWS = 1024  # rows per block where rows are read or normed blockwise


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


class _Rows:
    """Append-only row buffer shared by the versions of one dataset.

    A slot is written once and never changes, so a version is just the
    increasing vector of its live slots, and an edit to any version,
    old or new, leaves every other version as it was. Slots below
    ``base`` are the rows of the dataset's read-only arrays, used in
    place; appends go to a tail that grows by doubling, so no edit
    copies those rows.
    """

    def __init__(self, features, labels):
        self.base = labels.shape[0]
        self.base_features, self.base_labels = features, labels
        self.tail_features = np.empty((16, features.shape[1]))
        self.tail_labels = np.empty(16)
        self.count = self.base

    def append(self, x, y) -> int:
        """Write one row into the next slot and return the slot."""
        at = self.count - self.base
        if at == self.tail_labels.shape[0]:
            self.tail_features = np.concatenate(
                [self.tail_features, np.empty_like(self.tail_features)])
            self.tail_labels = np.concatenate(
                [self.tail_labels, np.empty_like(self.tail_labels)])
        self.tail_features[at] = x
        self.tail_labels[at] = y
        self.count += 1
        return self.count - 1

    def find(self, live, x, y) -> np.ndarray:
        """Indices into ``live``, an increasing slot vector, of its slots
        holding the row (x, y), in order. The label of every slot is
        compared, live or not, and the features only of live slots
        whose label matches; no row is gathered."""
        slots = np.flatnonzero(self.base_labels == y)
        tail = np.flatnonzero(self.tail_labels[:self.count - self.base] == y)
        if tail.size:
            slots = np.concatenate((slots, tail + self.base))
        if not live.size:
            return slots[:0]
        # The buffer also holds dead slots and those of sibling versions.
        at = live.searchsorted(slots)
        hit = live.take(at, mode="clip") == slots
        at, slots = at[hit], slots[hit]
        return at[(self.features_at(slots) == x).all(axis=1)]

    def row(self, slot):
        if slot < self.base:
            return self.base_features[slot], self.base_labels[slot]
        return self.tail_features[slot - self.base], \
            self.tail_labels[slot - self.base]

    def at(self, slots) -> tuple:
        """Feature and label rows of ``slots``, any integer array of slots
        (any order, repeats allowed), shaped like ``slots``."""
        if not self.base:
            return self.tail_features[slots], self.tail_labels[slots]
        # "clip" keeps the tail's slots in range; their rows are replaced.
        features = self.base_features.take(slots, axis=0, mode="clip")
        labels = self.base_labels.take(slots, mode="clip")
        back = np.flatnonzero(slots >= self.base)
        if back.size:
            tail = slots.flat[back] - self.base
            features.reshape(-1, features.shape[-1])[back] = \
                self.tail_features[tail]
            labels.flat[back] = self.tail_labels[tail]
        return features, labels

    def features_at(self, slots) -> np.ndarray:
        """Feature rows of ``slots``, an increasing slot vector."""
        return self._gather(self.base_features, self.tail_features, slots)

    def labels_at(self, slots) -> np.ndarray:
        return self._gather(self.base_labels, self.tail_labels, slots)

    def _gather(self, base, tail, slots):
        split = slots.searchsorted(self.base)
        out = np.empty((slots.size,) + base.shape[1:])
        # In range by construction; "clip" lets take write in place.
        base.take(slots[:split], axis=0, out=out[:split], mode="clip")
        tail.take(slots[split:] - self.base, axis=0, out=out[split:],
                  mode="clip")
        return out


def _norm(x) -> float:
    # np.linalg.norm(x) of a float array, to the byte, without its
    # generic dispatch: it too takes sqrt(v . v) of v = x.ravel("K").
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def check_bounds(norm, label, feature_bound, label_bound):
    """Reject a feature norm or label magnitude over its declared bound,
    and a NaN or infinite one (a NaN or infinite value, or a norm past
    the float range) as non-finite."""
    # A NaN fails both comparisons, so it reaches the checks below.
    feature_ok = norm <= feature_bound * (1 + 1e-12)
    if feature_ok and label <= label_bound * (1 + 1e-12):
        return
    if not (math.isfinite(norm) and math.isfinite(label)):
        raise ValueError("non-finite feature or label")
    raise ValueError("label magnitude exceeds declared bound" if feature_ok
                     else "feature norm exceeds declared bound")


def _row_moments(features, labels):
    """(X^T X, X^T y, y^T y) of the rows, the arrays read-only."""
    return (*_frozen(features.T @ features, features.T @ labels),
            float(labels @ labels))


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def moments_tolerance(size: int, carried: int, feature_bound: float,
                      label_bound: float) -> tuple:
    """Entrywise bound on the gap between carried and fresh moments.

    An entry of X^T X (of X^T y, and y^T y) is a sum of products
    x_i x_j (y x_i, y y) of magnitude at most R_x^2 (R_x R_y, R_y^2).
    Moments computed from the rows of an earlier version and then
    carried through ``carried`` rank-1 updates to a version of ``size``
    rows have summed at most k = size + 2 * carried such products (each
    update moves the size by one), in some order; the version's fresh
    moments sum ``size`` of them. Each result lies within
    gamma_k * k * R^2 of the exact sum, where gamma_k = k u / (1 - k u)
    and u = 2^-53, so the two differ by at most twice that; the three
    bounds are returned. ``Dataset`` keeps ``carried`` at most ``size``,
    so k <= 3 * size however long the stream.
    """
    terms = size + 2 * carried
    ku = terms * 2.0 ** -53
    scale = 2.0 * ku / (1.0 - ku) * terms
    return (scale * feature_bound * feature_bound,
            scale * feature_bound * label_bound,
            scale * label_bound * label_bound)


def _owned(array: np.ndarray, given) -> np.ndarray:
    # ``array``, converted from ``given``, as rows no caller can write:
    # copied if writeable and possibly ``given``'s own memory. A list, a
    # tuple or an array of another dtype converts to a fresh array,
    # taken without a second copy; any other object may hand over a
    # view of memory it keeps.
    if not array.flags.writeable or isinstance(given, (list, tuple)) or (
            isinstance(given, np.ndarray) and given.dtype != array.dtype):
        return array
    return array.copy()


class Dataset:
    """Multiset of labeled points with a size floor.

    A dataset owns its rows. Built from arrays, it copies a writeable
    float64 one once and keeps read-only arrays; a list, or an array of
    another dtype, is converted into a fresh array, which is kept
    without a second copy; an array that is already
    read-only is taken as it is, trusted as immutable (a read-only view
    of memory the caller can still write through another handle is the
    caller's responsibility). The library's own producers,
    ``gen_synthetic_dataset``, ``from_csv``, compaction and the rows an
    edited version gathers, hand over fresh read-only arrays, which are
    never copied; so a dataset built over another's ``features`` and
    ``labels``, as a chain's is, shares them.

    Each version is the increasing vector of its live slots in an
    append-only row buffer. A dataset built from arrays starts a buffer
    of its own over them and keeps them as its ``features`` and
    ``labels``; its edits share that buffer, so an add writes one row
    and a delete drops one index, and a version gathers its rows on
    first read of ``features`` or ``labels`` and caches them. ``find``,
    and so a delete, reads the buffer in place and gathers nothing. An
    edit that leaves the buffer holding more than twice the live rows
    compacts them into a buffer of the child's own, so (beyond a 16-row
    minimum tail) a buffer holds at most four times the live rows
    however long the stream.

    The moments (X^T X, X^T y, y^T y) are computed from the rows when
    first asked for and from then on carried through every edit by
    rank-1 updates, so ridge-family losses, values and gradients alike,
    need not touch the rows again. Once a version would carry more
    updates than it has rows, its moments are recomputed from its rows
    instead: that costs O(n d^2) once per
    n edits, keeps the rounding error within ``moments_tolerance`` of a
    bounded number of terms, and depends only on the edit history, so
    a chain and its replay recompute at the same edits. A dataset whose
    moments nobody asked for (a logistic chain's) never pays for them.

    Attributes:
        features: (n, d) read-only array, one row per copy.
        labels: (n,) read-only array.
        initial_size: size n_0 of the original training set; edits must
            keep the current size at or above n_0 / 2.
        feature_bound: declared bound on ||x||_2, validated on load and
            on every add; must be positive.
        label_bound: declared bound on |y|, validated likewise.
    """

    def __init__(self, features, labels, feature_bound=1.0, label_bound=1.0,
                 initial_size=None):
        given = features, labels
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels, dtype=float).ravel()
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels disagree on length")
        self.feature_bound = float(feature_bound)
        self.label_bound = float(label_bound)
        # Written so that NaN fails the test too.
        if not (self.feature_bound > 0 and self.label_bound > 0):
            raise ValueError("bounds must be positive")
        self._hold(*map(_owned, (features, labels), given))
        self._moments = None
        self.initial_size = int(initial_size if initial_size is not None
                                else features.shape[0])

    def _hold(self, features, labels):
        # A new buffer over these arrays, which no one else writes and
        # which are frozen here, all its slots live, and the arrays kept
        # as the gathered rows.
        self._features, self._labels = _frozen(features, labels)
        self._rows, self._live = _Rows(features, labels), \
            np.arange(labels.shape[0])
        self._found = None

    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            self._features, = _frozen(self._rows.features_at(self._live))
        return self._features

    @property
    def labels(self) -> np.ndarray:
        if self._labels is None:
            self._labels, = _frozen(self._rows.labels_at(self._live))
        return self._labels

    @property
    def size(self) -> int:
        return self._live.shape[0]

    @property
    def dim(self) -> int:
        return self._rows.base_features.shape[1]

    def point(self, i: int) -> DataPoint:
        x, y = self._rows.row(self._live[i])
        return DataPoint(x.copy(), float(y))

    def rows(self, indices) -> tuple:
        """``(features, labels)`` of the rows at ``indices``, an integer
        array of indices into this version (any shape, any order, repeats
        allowed), shaped like ``indices``. Only those rows are gathered,
        and the result is a fresh array whatever this version caches."""
        return self._rows.at(self._live[np.asarray(indices)])

    def find(self, point: DataPoint) -> np.ndarray:
        """Indices of all copies equal to ``point`` (exact equality), in
        order, read-only.

        One pass compares ``point.y`` with the labels of the shared row
        buffer, at most about twice the live rows, and only the live
        rows whose label matches have their features compared; this
        version's rows are not gathered. A version remembers its last
        result, keyed by the point's bytes, so finding the point a
        delete just removed, as the distributed reservoir does, costs
        no second pass. Raises if the point is not of this dataset's
        dimension, which the comparison would otherwise broadcast.
        """
        if point.x.shape != (self.dim,):
            raise ValueError("point has wrong dimension")
        key = point.x.tobytes(), point.y
        if self._found is None or self._found[0] != key:
            hits = self._rows.find(self._live, point.x, point.y)
            hits.flags.writeable = False
            self._found = key, hits
        return self._found[1]

    def moments(self) -> tuple:
        """(X^T X, X^T y, y^T y), the arrays read-only; built from the rows
        on first use and kept. Rows this version does not already cache
        are gathered for the product alone and not kept, so a chain's
        periodic recompute (``apply``) leaves no copy of its rows."""
        if self._moments is None:
            features, labels = self._features, self._labels
            if features is None:
                features = self._rows.features_at(self._live)
            if labels is None:
                labels = self._rows.labels_at(self._live)
            self._moments = (*_row_moments(features, labels), 0)
        return self._moments[:3]

    @property
    def cached_moments(self):
        """``(gram, xty, yty, carried)`` if this version already holds its
        moments, else None; ``carried`` counts the rank-1 updates since
        they were last computed from rows."""
        return self._moments

    def _with_moments(self, gram, xty, yty, carried: int) -> "Dataset":
        # These rows carrying the given moments, which the caller vouches
        # for: a restore checks them against the rows (see
        # ``moments_tolerance``), and the distributed chain hands over
        # those its batch computed from these very rows.
        twin = self._clone()
        twin._moments = (*_frozen(np.array(gram, dtype=float),
                                  np.array(xty, dtype=float)),
                         float(yty), carried)
        return twin

    def _clone(self) -> "Dataset":
        # A shallow copy, without copy.copy's generic (slower) protocol.
        twin = object.__new__(Dataset)
        twin.__dict__.update(self.__dict__)
        return twin

    def validate_bounds(self):
        """``check_bounds`` on the largest row norm and label magnitude.
        The norm is taken from the rows' squared norms, with no (n, d)
        temporary."""
        if self.size:
            features = self.features
            check_bounds(
                math.sqrt(np.einsum("ij,ij->i", features, features).max()),
                np.abs(self.labels).max(), self.feature_bound,
                self.label_bound)

    def apply(self, update: Update) -> "Dataset":
        """Return the dataset after one edit.

        Either edit raises if the point is not of this dataset's
        dimension. Adding appends a copy, and raises if the point breaks
        the declared bounds or is not finite. Deleting removes one copy if
        present and is a no-op on the contents otherwise. Raises if the
        edit would push the size below initial_size / 2. Neither this
        dataset nor any other version of it changes.

        Indices move predictably, which index-valued subsamples rely on:
        an add appears at index ``size - 1`` of the child, after every
        row of this version in its order; a delete removes index
        ``find(point)[0]`` and keeps the order of the rest, so a row
        above it moves down by one and a row below it stays.
        """
        point = update.point
        if update.op == "add":
            if point.x.shape != (self.dim,):
                raise ValueError("added point has wrong dimension")
            check_bounds(_norm(point.x), abs(point.y),
                         self.feature_bound, self.label_bound)
            size = self.size + 1
        else:
            hits = self.find(point)
            size = self.size - min(hits.size, 1)
        if size < self.initial_size / 2:
            raise ValueError(
                f"dataset floor violated: {size} points is below "
                f"{self.initial_size}/2"
            )
        child = self._clone()
        if size == self.size:  # deleting an absent point
            return child
        rows, live = self._rows, self._live
        if update.op == "add":
            x, y, sign = point.x, point.y, 1.0
            live = np.concatenate((live, [rows.append(x, y)]))
        else:
            (x, y), sign = rows.row(live[hits[0]]), -1.0
            live = np.concatenate((live[:hits[0]], live[hits[0] + 1:]))
        if rows.count > 2 * live.size:
            # Compact: the child's own rows in a buffer of their own.
            child._hold(rows.features_at(live), rows.labels_at(live))
        else:
            child._rows, child._live = rows, live
            child._features = child._labels = child._found = None
        if self._moments is not None:
            gram, xty, yty, carried = self._moments
            if carried < size:
                child._moments = (*_frozen(gram + np.outer(sign * x, x),
                                           xty + (sign * y) * x),
                                  yty + sign * y * y, carried + 1)
            else:
                child._moments = None
                child.moments()
        return child

    def to_csv(self, path):
        """Write as CSV with header x_1,...,x_d,y at 17 significant digits.
        The rows are read from the row buffer a block at a time
        (``rows``), so none are gathered whole or cached on this
        version."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{j + 1}" for j in range(self.dim)] + ["y"])
            for start in range(0, self.size, _BLOCK_ROWS):
                features, labels = self.rows(
                    np.arange(start, min(start + _BLOCK_ROWS, self.size)))
                for row, lab in zip(features, labels):
                    writer.writerow([_FLOAT_FMT % v for v in row]
                                    + [_FLOAT_FMT % lab])

    @classmethod
    def from_csv(cls, path, feature_bound=1.0, label_bound=1.0) -> "Dataset":
        """Read the CSV ``to_csv`` writes, its rows allocated once: the
        file's line ends, counted first, bound its data rows, each line
        is parsed with ``float`` straight into arrays of that size, and
        the arrays are trimmed in place.

        Rejects a bad header; a row of the wrong length or with a cell
        that is not a number as malformed, and a NaN or infinite value
        as non-finite, each naming the physical line its record starts
        on; a file with no rows; and rows outside the declared bounds.
        """
        capacity = _line_ends(path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[-1] != "y" or not all(
                name == f"x_{j + 1}" for j, name in enumerate(header[:-1])
            ):
                raise ValueError("malformed CSV header")
            dim = len(header) - 1
            features, labels = np.empty((capacity, dim)), np.empty(capacity)
            count = 0
            # The physical line a record starts on: a quoted cell may
            # span line ends, so records and lines are counted apart.
            line = reader.line_num + 1
            for row in reader:
                malformed = f"malformed CSV row at line {line}"
                if len(row) != dim + 1:
                    raise ValueError(malformed)
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise ValueError(malformed) from exc
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"non-finite value at line {line}")
                features[count], labels[count] = values[:-1], values[-1]
                count += 1
                line = reader.line_num + 1
        if not count:
            raise ValueError("empty dataset")
        # No view of either array exists, so each shrinks in place.
        features.resize((count, dim), refcheck=False)
        labels.resize(count, refcheck=False)
        data = cls(*_frozen(features, labels), feature_bound, label_bound)
        data.validate_bounds()
        return data


def _line_ends(path) -> int:
    # Line ends (LF, CR or CRLF) in the file, read in binary chunks: the
    # header's, and one per data row bar perhaps the last, so at least
    # the data rows. A CRLF split across two chunks counts twice, which
    # keeps the bound.
    ends = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            ends += chunk.count(b"\n") + chunk.count(b"\r") \
                - chunk.count(b"\r\n")
    return ends


def _ball_points(rng, n, dim, radius):
    # Uniform on the radius-ball: direction times radius * U^(1/d). The
    # draws are divided and scaled in place, and their norms are taken a
    # block of rows at a time by the operations np.linalg.norm(axis=1)
    # performs, so the rows are raw / norms * scale to the byte with no
    # temporary the size of the rows.
    raw = rng.standard_normal((n, dim))
    norms = np.empty((n, 1))
    for start in range(0, n, _BLOCK_ROWS):
        block = raw[start:start + _BLOCK_ROWS]
        np.sqrt(np.add.reduce(block * block, axis=1, keepdims=True),
                out=norms[start:start + _BLOCK_ROWS])
    norms[norms == 0] = 1.0
    raw /= norms
    raw *= radius * rng.random((n, 1)) ** (1.0 / dim)
    return raw


def gen_synthetic_dataset(n, dim, model="linear", noise=0.1, feature_bound=1.0,
                          label_bound=1.0, seed=0) -> Dataset:
    """Generate a dataset from a simple planted model.

    ``linear`` draws y = <w, x> + noise * N(0, 1) clipped to the label
    bound; ``logistic`` draws y in {-1, +1} with log-odds <w, x> / noise.
    The planted weights keep |<w, x>| at or below label_bound / 2 so the
    clip rarely binds.

    The rows are allocated once: features are drawn uniformly in the
    feature-bound ball and normalised and scaled in place, their norms
    taken a block of rows at a time, so no temporary the size of the
    rows is made and the bytes are those of the plain formula.
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
    return Dataset(*_frozen(feats, labs), feature_bound, label_bound)


def _extreme_point(rng, data: Dataset) -> DataPoint:
    # Maximal influence: on the feature sphere with an extreme label.
    direction = rng.standard_normal(data.dim)
    direction /= max(np.linalg.norm(direction), 1e-12)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return DataPoint(data.feature_bound * direction, sign * data.label_bound)


def gen_adversarial_sequence(data: Dataset, length, strategy="churn",
                             seed=0) -> tuple:
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
    return tuple(updates)


def save_updates(seq, path):
    """Write one JSON object per line: {"op", "x", "y"}."""
    with open(path, "w") as fh:
        for u in seq:
            fh.write(json.dumps(
                {"op": u.op, "x": list(u.point.x), "y": u.point.y},
                sort_keys=True, separators=(",", ":"),
            ))
            fh.write("\n")


def load_updates(path) -> tuple:
    """Read the edits ``save_updates`` writes. A line that is not a JSON
    object with a known ``op``, a list of numbers ``x`` and a number
    ``y`` is rejected as malformed, and one with a NaN or infinite
    value as non-finite, each naming its line."""
    updates = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                update = Update(obj["op"], DataPoint(
                    np.asarray(obj["x"], dtype=float), float(obj["y"])))
                if update.point.x.ndim != 1:
                    raise ValueError("x is not a vector")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed update at line {line_no}") from exc
            point = update.point
            if not np.all(np.isfinite(point.x)) or not math.isfinite(point.y):
                raise ValueError(f"non-finite update at line {line_no}")
            updates.append(update)
    return tuple(updates)
