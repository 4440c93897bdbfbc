"""Datasets as multisets of labeled points, plus edit streams.

A dataset is an ordered, immutable snapshot of a multiset: duplicate
rows are distinct copies, deletion removes one copy, and point identity
is exact equality of the feature vector and label. Every dataset
remembers the size of the original training set so that edits can
enforce the size floor n_i >= n_0 / 2 that the deletion guarantees rely
on.

A dataset owns its rows: it keeps them as one read-only column-major
array Z = [X | y], whose views are its ``features`` and ``labels``; any
input is copied into Z once, so no later write by a caller reaches it,
and a dataset built over another's views (a chain's own) shares its Z.
An edit costs O(n) index work and O(d^2) arithmetic; it copies no rows,
bar a compaction after on the order of n edits. The versions of one
dataset share an append-only row buffer and each holds only the slots
of its rows. A delete reads what it compares and no more: the buffer's
label column, contiguous in Z, the features of the live rows whose
label matches, and one copy of the live index. The moments M = Z^T Z,
one product per block of rows, are carried from version to version by
rank-1 updates and recomputed from the rows once n updates have been
carried, so they cost O(d^2) per edit amortised and their rounding
error does not grow with the stream (see ``Dataset``).

Both producers of rows allocate them once, straight into Z:
``gen_synthetic_dataset`` draws and scales its features a block at a
time in Z, and ``Dataset.from_csv`` parses each line into a Z sized for
the file. Neither makes a temporary the size of the rows, so a chain's
rows, not their making, set the program's memory floor.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
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
_BLOCK_ROWS = 1024  # rows per block where rows are read, normed or summed
# Rows per block the generator draws and multiplies: small next to the
# rows, and a multiple of 4, the row group of the matrix-vector kernel,
# so a block's margins are the bytes one whole product gives.
_DRAW_ROWS = 256


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
        if not isinstance(self.point, DataPoint):
            raise ValueError("update point is not a DataPoint")


class _Rows:
    """Append-only row buffer shared by the versions of one dataset.

    A slot is written once and never changes, so a version is just the
    increasing vector of its live slots, and an edit to any version,
    old or new, leaves every other version as it was. Slots below
    ``base`` are the rows of the dataset's column-major Z,
    ``base_rows``, used in place; appends go to a column-major ``tail``
    that grows by doubling, so no edit copies those rows. Rows are read
    only by indexing that touches the rows asked for: ``take(axis=0)``
    on a column-major array would first copy the whole of it.
    """

    def __init__(self, rows):
        self.base, self.base_rows = rows.shape[0], rows
        self.tail = np.empty((16, rows.shape[1]), order="F")
        self.count = self.base

    def append(self, x, y) -> int:
        """Write one row into the next slot and return the slot."""
        at = self.count - self.base
        if at == self.tail.shape[0]:
            grown = np.empty((2 * at, self.tail.shape[1]), order="F")
            grown[:at] = self.tail
            self.tail = grown
        self.tail[at, :-1], self.tail[at, -1] = x, y
        self.count += 1
        return self.count - 1

    def find(self, live, x, y) -> np.ndarray:
        """Indices into ``live``, an increasing slot vector, of its slots
        holding the row (x, y), in order. The label of every slot is
        compared, live or not, and the features only of live slots
        whose label matches; no version's rows are gathered."""
        slots = np.flatnonzero(self.base_rows[:, -1] == y)
        tail = np.flatnonzero(self.tail[:self.count - self.base, -1] == y)
        if tail.size:
            slots = np.concatenate((slots, tail + self.base))
        if not live.size:
            return slots[:0]
        # The buffer also holds dead slots and those of sibling versions.
        at = live.searchsorted(slots)
        hit = live.take(at, mode="clip") == slots
        at, slots = at[hit], slots[hit]
        return at[(self.at(slots)[:, :-1] == x).all(axis=1)]

    def row(self, slot) -> np.ndarray:
        """The stored row z = (x, y) of ``slot``, a view of the buffer."""
        if slot < self.base:
            return self.base_rows[slot]
        return self.tail[slot - self.base]

    def at(self, slots) -> np.ndarray:
        """Rows of ``slots``, any integer array of slots (any order,
        repeats allowed), as one fresh row-major array shaped
        ``slots.shape + (d+1,)``: the quickest read of a few rows."""
        back = np.flatnonzero(slots >= self.base)
        if not back.size:
            return self.base_rows[slots]
        if back.size == slots.size:
            return self.tail[slots - self.base]
        # Clipped, the tail's slots stay in range; their rows are replaced.
        rows = self.base_rows[np.minimum(slots, self.base - 1)]
        rows.reshape(-1, rows.shape[-1])[back] = \
            self.tail[slots.flat[back] - self.base]
        return rows

    def gather(self, slots) -> np.ndarray:
        """Rows of ``slots``, an increasing slot vector, as one fresh
        column-major Z, read by ``take`` along each region's transpose,
        which is contiguous: the quickest read of many rows."""
        if not self.base:
            return self.tail.T.take(slots, axis=1).T
        # "clip" keeps the tail's slots in range; their rows are replaced.
        columns = self.base_rows.T.take(slots, axis=1, mode="clip")
        split = slots.searchsorted(self.base)
        columns[:, split:] = self.tail.T.take(slots[split:] - self.base,
                                              axis=1)
        return columns.T


def _norm(x) -> float:
    # np.linalg.norm(x) of a float array, to the byte, without its
    # generic dispatch: it too takes sqrt(v . v) of v = x.ravel("K").
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def check_integer(value, name: str):
    """Reject a count that is a bool or not an integer (``numbers.Integral``)
    with ``ValueError``: a fractional or True count would be taken for
    another number further on."""
    # A plain int passes the first test alone: the ABC check is slower.
    if type(value) is not int and (isinstance(value, bool) or not
                                   isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, not {value!r}")


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


def _row_moments(rows):
    """M = Z^T Z, read-only, of rows Z = [X | y], (n, d+1), or of a stack
    of them, slice by slice: one product per ``_BLOCK_ROWS``-row block,
    summed in order, so no product spans more rows (README: BLAS
    threads). Row- and column-major Z give the same bytes."""
    width = rows.shape[-1]
    moments = np.zeros(rows.shape[:-2] + (width, width))
    for start in range(0, rows.shape[-2], _BLOCK_ROWS):
        block = rows[..., start:start + _BLOCK_ROWS, :]
        # The first block is written into M, the others added to it.
        if start:
            moments += block.swapaxes(-1, -2) @ block
        else:
            np.matmul(block.swapaxes(-1, -2), block, out=moments)
    return _frozen(moments)[0]


def _columns(rows):
    """``(features, labels)``, the views ``Z[..., :-1]`` and ``Z[..., -1]``
    of rows Z = [X | y]."""
    return rows[..., :-1], rows[..., -1]


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def moments_tolerance(size: int, carried: int, feature_bound: float,
                      label_bound: float, dim: int) -> np.ndarray:
    """Entrywise bound on the gap between carried and fresh moments M.

    An entry of M = Z^T Z is a sum of products z_i z_j with
    |z_i| <= r_i, r = (R_x, ..., R_x, R_y): x_i x_j, y x_i or y y.
    Moments computed from the rows of an earlier version and then
    carried through ``carried`` rank-1 updates to a version of ``size``
    rows have summed at most k = size + 2 * carried such products (each
    update moves the size by one), in some order; the version's fresh
    moments sum ``size`` of them. Each result lies within
    gamma_k * k * r_i r_j of the exact sum, where gamma_k = k u / (1 - k u)
    and u = 2^-53, so the two differ by at most twice that, the matrix
    returned. ``Dataset`` keeps ``carried`` at most ``size``, so
    k <= 3 * size however long the stream.
    """
    terms = size + 2 * carried
    ku = terms * 2.0 ** -53
    scale = 2.0 * ku / (1.0 - ku) * terms
    bound = np.full(dim + 1, float(feature_bound))
    bound[dim] = label_bound
    return scale * np.outer(bound, bound)


def _shared(features, labels):
    # The column-major Z whose views Z[:, :-1] and Z[:, -1] ``features``
    # and ``labels`` are, if both are read-only, as a dataset's own rows
    # and the rows it hands out are; else None.
    if not (isinstance(features, np.ndarray)
            and isinstance(labels, np.ndarray) and features.ndim == 2
            and labels.dtype == float and not features.flags.writeable
            and features.base is not None and features.base is labels.base):
        return None
    # Z[:, :-1] is ``features`` by construction; Z[:, -1] is read only if
    # it is ``labels``, to the address, shape, strides and flags.
    rows = np.lib.stride_tricks.as_strided(
        features, (features.shape[0], features.shape[1] + 1),
        writeable=False)
    if not rows.flags.f_contiguous or \
            rows[:, -1].__array_interface__ != labels.__array_interface__:
        return None
    return rows


class Dataset:
    """Multiset of labeled points with a size floor.

    A dataset owns its rows, one read-only column-major array
    Z = [X | y] whose views Z[:, :-1] and Z[:, -1] are its ``features``
    and ``labels``. Built from two read-only views of one such Z, as
    the library's producers (``gen_synthetic_dataset``, ``from_csv``,
    compaction, an edited version's gather) hand out, it adopts that Z
    without a copy, trusted as immutable (a read-only view of memory
    the caller can still write through another handle is the caller's
    responsibility); so a dataset built over another's ``features`` and
    ``labels``, as a chain's is, shares them. Any other pair is copied
    into a fresh Z once, converted as it is written. Every dataset's
    rows so have one layout, and a row product the same bytes however
    the dataset was built.

    Each version is the increasing vector of its live slots in an
    append-only row buffer. A dataset built from arrays starts a buffer
    of its own over its Z; its edits share that buffer, so an add writes
    one row and a delete drops one index, and a version gathers its Z,
    both ``features`` and ``labels``, on first read of either and
    caches it. ``find``, and so a delete, reads the buffer in place and
    gathers nothing. An edit that leaves the buffer holding more than
    twice the live rows compacts them into a fresh Z of the child's
    own, so (beyond a 16-row minimum tail) a buffer holds at most four
    times the live rows however long the stream.

    The moments M = Z^T Z are computed from the rows when first asked
    for and from then on carried through every edit by the rank-1
    update +-z z^T, z = (x, y) the stored row, so ridge-family losses,
    values and gradients alike, need not touch the rows again. Once a
    version would carry more updates than it has rows, its moments are
    recomputed from its rows instead: that costs O(n d^2) once per n
    edits, keeps the rounding error within ``moments_tolerance`` of a
    bounded number of terms, and depends only on the edit history, so
    a chain and its replay recompute at the same edits. A dataset whose
    moments nobody asked for (a logistic chain's) never pays for them.

    Attributes:
        features: (n, d) read-only view of Z, one row per copy.
        labels: (n,) read-only view of Z.
        initial_size: size n_0 of the original training set; edits must
            keep the current size at or above n_0 / 2.
        feature_bound: declared bound on ||x||_2, validated on load and
            on every add; must be positive.
        label_bound: declared bound on |y|, validated likewise.
    """

    def __init__(self, features, labels, feature_bound=1.0, label_bound=1.0,
                 initial_size=None):
        rows = _shared(features, labels)
        if rows is None:
            # Copied into a fresh Z, converted as it is written.
            features = np.atleast_2d(np.asarray(features))
            labels = np.asarray(labels).ravel()
            if features.ndim != 2 or features.shape[0] != labels.shape[0]:
                raise ValueError("features and labels disagree on shape")
            rows = np.empty((labels.size, features.shape[1] + 1), order="F")
            rows[:, :-1], rows[:, -1] = features, labels
            features, labels = _columns(_frozen(rows)[0])
        self.feature_bound = float(feature_bound)
        self.label_bound = float(label_bound)
        # Written so that NaN fails the test too.
        if not (self.feature_bound > 0 and self.label_bound > 0):
            raise ValueError("bounds must be positive")
        self._hold(rows, features, labels)
        self._moments = None
        self.initial_size = int(initial_size if initial_size is not None
                                else rows.shape[0])

    def _hold(self, rows, features, labels):
        # A new buffer over rows Z, which no one writes, all its slots
        # live, and Z kept as the gathered rows, with ``features`` and
        # ``labels`` its views.
        self._rows, self._live = _Rows(rows), np.arange(rows.shape[0])
        self._z, self._features, self._labels = rows, features, labels
        self._found = None

    def _gathered(self) -> np.ndarray:
        # This version's rows Z, gathered from the buffer on first read
        # and kept, with their views.
        if self._z is None:
            self._z, = _frozen(self._rows.gather(self._live))
            self._features, self._labels = _columns(self._z)
        return self._z

    @property
    def features(self) -> np.ndarray:
        self._gathered()
        return self._features

    @property
    def labels(self) -> np.ndarray:
        self._gathered()
        return self._labels

    @property
    def size(self) -> int:
        return self._live.shape[0]

    @property
    def dim(self) -> int:
        return self._rows.base_rows.shape[1] - 1

    def point(self, i: int) -> DataPoint:
        z = self._rows.row(self._live[i])
        return DataPoint(z[:-1].copy(), float(z[-1]))

    def rows(self, indices) -> tuple:
        """``(features, labels)`` of the rows at ``indices``: the views
        ``Z[..., :-1]`` and ``Z[..., -1]`` of ``stacked(indices)``."""
        return _columns(self.stacked(indices))

    def stacked(self, indices) -> np.ndarray:
        """The rows Z = [X | y] at ``indices``, an integer array of
        indices into this version (any shape, any order, repeats
        allowed), as one read-only row-major array shaped
        ``indices.shape + (d+1,)``. Only those rows are gathered, and
        the result is fresh whatever this version caches."""
        return _frozen(self._rows.at(self._live[np.asarray(indices)]))[0]

    def find(self, point: DataPoint) -> np.ndarray:
        """Indices of all copies equal to ``point`` (exact equality), in
        order, read-only.

        One pass compares ``point.y`` with the label column of the
        shared row buffer, contiguous and at most about twice the live
        rows, and only the live rows whose label matches have their
        features compared; this version's rows are not gathered. A
        version remembers its last result, keyed by the point's bytes,
        so finding the point a delete just removed, as the distributed
        reservoir does, costs no second pass. Raises if the point is not
        of this dataset's dimension, which the comparison would
        otherwise broadcast.
        """
        if point.x.shape != (self.dim,):
            raise ValueError("point has wrong dimension")
        key = point.x.tobytes(), point.y
        if self._found is None or self._found[0] != key:
            hits = self._rows.find(self._live, point.x, point.y)
            hits.flags.writeable = False
            self._found = key, hits
        return self._found[1]

    def moments(self) -> np.ndarray:
        """M = Z^T Z, Z = [X | y], read-only, built from the rows on first
        use and kept. Rows this version does not already cache are
        gathered for the product alone and not kept, so a chain's
        periodic recompute (``apply``) leaves no copy of its rows."""
        if self._moments is None:
            rows = self._rows.gather(self._live) if self._z is None \
                else self._z
            self._moments = _row_moments(rows), 0
        return self._moments[0]

    @property
    def cached_moments(self):
        """``(M, carried)`` if this version already holds its moments,
        else None; ``carried`` counts the rank-1 updates since they were
        last computed from rows."""
        return self._moments

    def _with_moments(self, moments, carried: int) -> "Dataset":
        # These rows carrying the given moments, which the caller vouches
        # for: a restore checks them against the rows (see
        # ``moments_tolerance``), and the distributed chain hands over
        # those its batch computed from these very rows.
        twin = self._clone()
        twin._moments = _frozen(np.array(moments, dtype=float))[0], carried
        return twin

    def _clone(self) -> "Dataset":
        # A shallow copy, without copy.copy's generic (slower) protocol.
        twin = object.__new__(Dataset)
        twin.__dict__.update(self.__dict__)
        return twin

    def validate_bounds(self, feature_bound=math.inf, label_bound=math.inf):
        """``check_bounds`` on the largest row norm and label magnitude,
        within the given bounds and the dataset's own. The norm is taken
        from the rows' squared norms, with no (n, d) temporary."""
        if self.size:
            features = self.features
            check_bounds(
                math.sqrt(np.einsum("ij,ij->i", features, features).max()),
                np.abs(self.labels).max(),
                min(feature_bound, self.feature_bound),
                min(label_bound, self.label_bound))

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
            slot = rows.append(point.x, point.y)
            live = np.concatenate((live, [slot]))
        else:
            slot = live[hits[0]]
            live = np.concatenate((live[:hits[0]], live[hits[0] + 1:]))
        z = rows.row(slot)
        if rows.count > 2 * live.size:
            # Compact: the child's own rows in a buffer of their own.
            fresh, = _frozen(rows.gather(live))
            child._hold(fresh, *_columns(fresh))
        else:
            child._rows, child._live = rows, live
            child._z = child._features = child._labels = None
            child._found = None
        if self._moments is not None:
            moments, carried = self._moments
            if carried < size:
                # M +- z z^T, with z the stored row.
                step = np.multiply.outer(z, z)
                step = moments + step if update.op == "add" \
                    else moments - step
                child._moments = _frozen(step)[0], carried + 1
            else:
                child._moments = None
                child.moments()
        return child

    def to_csv(self, path):
        """Write as CSV with header x_1,...,x_d,y at 17 significant digits.
        The rows are read from the row buffer a block at a time
        (``stacked``), so none are gathered whole or cached on this
        version."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{j + 1}" for j in range(self.dim)] + ["y"])
            for start in range(0, self.size, _BLOCK_ROWS):
                for row in self.stacked(
                        np.arange(start, min(start + _BLOCK_ROWS, self.size))):
                    writer.writerow([_FLOAT_FMT % v for v in row])

    @classmethod
    def from_csv(cls, path, feature_bound=1.0, label_bound=1.0) -> "Dataset":
        """Read the CSV ``to_csv`` writes, its rows allocated once: the
        file's line ends, counted first, bound its data rows, each line
        is parsed with ``float`` straight into a column-major Z of that
        many rows, and Z is trimmed in place.

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
            width = len(header)
            # Z's columns end to end, ``capacity`` rows apart.
            flat = np.empty(capacity * width)
            rows = flat.reshape(width, capacity).T
            count = 0
            # The physical line a record starts on: a quoted cell may
            # span line ends, so records and lines are counted apart.
            line = reader.line_num + 1
            for row in reader:
                malformed = f"malformed CSV row at line {line}"
                if len(row) != width:
                    raise ValueError(malformed)
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise ValueError(malformed) from exc
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"non-finite value at line {line}")
                rows[count] = values
                count += 1
                line = reader.line_num + 1
        if not count:
            raise ValueError("empty dataset")
        # Each column moves down to ``count`` rows apart, and the buffer,
        # of which no view is used again, shrinks in place.
        for j in range(1, width):
            flat[j * count:(j + 1) * count] = \
                flat[j * capacity:j * capacity + count]
        flat.resize(count * width, refcheck=False)
        rows = _frozen(flat)[0].reshape(width, count).T
        data = cls(*_columns(rows), feature_bound, label_bound)
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


def gen_synthetic_dataset(n, dim, model="linear", noise=0.1, feature_bound=1.0,
                          label_bound=1.0, seed=0) -> Dataset:
    """Generate a dataset from a simple planted model.

    ``linear`` draws y = <w, x> + noise * N(0, 1) clipped to the label
    bound; ``logistic`` draws y in {-1, +1} with log-odds <w, x> / noise.
    The planted weights keep |<w, x>| at or below label_bound / 2 so the
    clip rarely binds. Rejects a count that is not an integer, a
    negative or non-finite ``noise`` and a bound that is not positive
    and finite. The rows are allocated once, as a column-major Z
    (``_planted_rows``).
    """
    check_integer(n, "n")
    check_integer(dim, "dim")
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be positive")
    if model not in ("linear", "logistic"):
        raise ValueError(f"unknown data model {model!r}")
    if not 0 <= noise < math.inf:
        raise ValueError("noise must be nonnegative and finite")
    if not (0 < feature_bound < math.inf and 0 < label_bound < math.inf):
        raise ValueError("bounds must be positive and finite")
    rows, = _frozen(_planted_rows(substream(seed, "data", model, n, dim), n,
                                  dim, model, noise, feature_bound,
                                  label_bound))
    return Dataset(*_columns(rows), feature_bound, label_bound)


def _planted_rows(rng, n, dim, model, noise, feature_bound, label_bound):
    # ``gen_synthetic_dataset``'s Z, to the byte the plain formula's: the
    # features uniform on the feature-bound ball, normals drawn a block
    # of rows at a time, in stream order, normed and divided into Z, then
    # scaled by radius * U^(1/d) in place; the margins taken on row-major
    # copies of Z's blocks into Z's label column, and the labels made
    # there. Beside Z it holds one block and one vector of temporaries.
    rows = np.empty((n, dim + 1), order="F")
    (feats, labels), block = _columns(rows), np.empty(
        (min(n, _DRAW_ROWS) + 1, dim))
    spans = [(start, min(start + _DRAW_ROWS, n))
             for start in range(0, n, _DRAW_ROWS)]
    for start, stop in spans:
        draw = block[:stop - start]
        rng.standard_normal(out=draw)
        # The operations np.linalg.norm(axis=1) performs.
        norms = np.sqrt(np.add.reduce(draw * draw, axis=1, keepdims=True))
        norms[norms == 0] = 1.0
        np.divide(draw, norms, out=feats[start:stop])
    column = rng.random(n)
    column **= 1.0 / dim
    column *= feature_bound
    feats *= column[:, None]
    w = rng.standard_normal(dim)
    w *= 0.5 * label_bound / (feature_bound * max(np.linalg.norm(w), 1e-12))
    if len(spans) > 1 and n % _DRAW_ROWS == 1:
        # A one-row product goes to a dot, not the matrix-vector kernel
        # the whole product ran in, so a last lone row joins its block.
        spans[-2:] = [(spans[-2][0], n)]
    for start, stop in spans:
        draw = block[:stop - start]
        draw[...] = feats[start:stop]
        np.matmul(draw, w, out=labels[start:stop])
    if model == "linear":
        rng.standard_normal(out=column)
        column *= noise
        labels += column
        np.clip(labels, -label_bound, label_bound, out=labels)
    else:
        np.divide(labels, 2.0 * max(noise, 1e-12), out=column)
        np.tanh(column, out=column)
        column += 1.0
        column *= 0.5
        labels[...] = np.where(rng.random(n) < column, 1.0, -1.0)
    return rows


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
    check_integer(length, "length")
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
    ``y`` is rejected as malformed (a string or a boolean is not a
    number), and one with a NaN or infinite value as non-finite, each
    naming its line."""
    updates = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                x, y = obj["x"], obj["y"]
                # float() would read a numeric string, and bool is an int.
                if type(x) is not list or not all(
                        type(v) in (int, float) for v in x + [y]):
                    raise ValueError("x is not a list of numbers or y "
                                     "is not a number")
                update = Update(obj["op"], DataPoint(
                    np.array(x, dtype=float), float(y)))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"malformed update at line {line_no}") from exc
            point = update.point
            if not np.all(np.isfinite(point.x)) or not math.isfinite(point.y):
                raise ValueError(f"non-finite update at line {line_no}")
            updates.append(update)
    return tuple(updates)
