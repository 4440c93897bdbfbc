"""Distributed deletion with subsampled, partitioned optimization.

Each of C independent copies holds a bootstrap subsample of B points
(drawn i.i.d. with replacement), split into K equal partitions that are
optimized separately; a copy's parameter is the average of its
partition optimizers and the best copy (lowest empirical loss on the
full current dataset) is published with Gaussian noise.

Partition j of a copy is its positions [j B/K, (j+1) B/K): positions
are i.i.d., so this fixed split has the law of a random one, with no
map to draw, store or scan.

The copies are held stacked and by index: a (C, B) array of each
position's row index in the current dataset, the (C, K, d) partition
estimates and the C reservoir generators. No copy holds rows; an edit
reads only the rows it draws or compares and the rows of the partitions
it touched.

Edits reach the subsamples through reservoir maintenance that preserves
the i.i.d.-from-current-data law of every position: an add overwrites
Binomial(B, 1/n_i) random positions with the new point's index; a
delete redraws every position holding a row equal to the deleted point
from the edited dataset, and moves every index above the removed row
down by one, as ``Dataset.apply`` moves the rows. A delete finds the
point once: the reservoir's ``Dataset.find`` is answered from the
search the dataset's own delete just made. A position never
changes partition, so an edit touches only the partitions whose
contents actually changed, and only those rerun descent. Partitions
descend a fixed block of ``_BLOCK_PARTITIONS`` at a time: a block's rows
are gathered, a ridge-family loss's descents go as one stack of normal
equations to ``map_many``, the closed-form map ``pgd`` itself uses,
``pgd`` runs the rest, and the block's estimates are written before the
next block is gathered. So learn, which descends all C K partitions,
holds one block's rows and stacks at a time, not the C B subsampled
rows, and an edit's few touched partitions usually fit one block.
``map_many`` decides convergence before solving, from any start, and
solves only the descents that have converged: an unconverged learn
solves nothing, and an edit solves its block's converged descents once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (_array, _chain_data, _check_chain, _check_privacy,
                   _check_sigma, _decode_state, _encode_state, _fields,
                   _finite, _generator, _sqrt_gap, publish)
from .data import (Dataset, Update, _columns, _frozen, _row_moments,
                   check_integer)
from .losses import LossModel, normal_equations
from .optimizer import GDConfig, contraction_factor, map_many, pgd
from .rng import substream

__all__ = [
    "DistConfig",
    "CopyState",
    "CopyReport",
    "UpdateReport",
    "PartitionedState",
    "dist_params",
    "dist_learn",
    "reservoir_update",
    "dist_unlearn",
    "dist_publish",
    "select_best",
]

DIST_SNAPSHOT_FORMAT = "unlearn-dist-state/4"
MAX_SAMPLE_SIZE = 1_000_000  # points per copy's subsample
_BLOCK_PARTITIONS = 16  # partitions ``_descend`` gathers and maps at once


@dataclass(frozen=True)
class DistConfig:
    """Derived shape and budgets of a distributed chain.

    Attributes:
        n, dim: training set size and dimension at learn time.
        sample_exponent: xi in [1, 4/3]; the subsample holds about
            n^xi points.
        sample_size: B, rounded up so num_partitions divides it.
        num_partitions: K = max(1, floor(sqrt(ceil(n^xi)))).
        copies: independent subsampled runs; the best one is published.
        iters: base per-update budget I.
        gamma: per-iteration contraction of the loss.
        exponent: e = K n^2 I / B^2, the learn-time contraction
            exponent the noise scale is calibrated against.
        sigma: publication noise scale.
        train_iters: learn-time iterations per partition.
    """

    n: int
    dim: int
    sample_exponent: float
    sample_size: int
    num_partitions: int
    copies: int
    iters: int
    epsilon: float
    delta: float
    gamma: float
    exponent: float
    sigma: float
    train_iters: int

    def total_update_iters(self, i: int) -> float:
        """Per-copy gradient budget multiplier T_i for update round i.

        T_i = 10 log(2i/delta) (I + (B^2/(K n^2))
              log(1 + 10 i log(2i/delta)) / log(1/gamma));
        the copy may spend n T_i point-gradients on round i.
        """
        if i < 1:
            raise ValueError("round index must be at least 1")
        tail = math.log(2.0 * i / self.delta)
        ratio = self.sample_size ** 2 / (self.num_partitions * self.n ** 2)
        return 10.0 * tail * (
            self.iters
            + ratio * math.log(1.0 + 10.0 * i * tail)
            / math.log(1.0 / self.gamma)
        )

    def partition_iters(self, i: int, touched: int) -> int:
        """Iterations for each of ``touched`` modified partitions.

        Splits the round budget n T_i evenly: each partition of size
        B/K runs ceil(K n T_i / (B * touched)) iterations, so the spent
        point-gradients stay within n T_i plus one partition sweep per
        touched partition (the rounding slack).
        """
        if touched < 1:
            raise ValueError("touched partition count must be positive")
        return math.ceil(
            self.num_partitions * self.n * self.total_update_iters(i)
            / (self.sample_size * touched)
        )


def dist_params(n: int, dim: int, loss: LossModel, sample_exponent: float,
                iters: int, epsilon: float, delta: float, beta: float = 0.05,
                copies: int | None = None) -> DistConfig:
    """Derive the distributed chain shape from the problem size.

    ``copies`` overrides the count otherwise derived from the accuracy
    failure probability ``beta`` as ceil(log(2/beta) / log 2).
    """
    if not 1.0 <= sample_exponent <= 4.0 / 3.0:
        raise ValueError("sample exponent must lie in [1, 4/3]")
    check_integer(n, "point count n")
    check_integer(iters, "iteration budget")
    if copies is not None:
        check_integer(copies, "copy count")
    if n < 2:
        raise ValueError("need at least two points")
    if iters < 1:
        raise ValueError("iteration budget must be at least 1")
    _check_privacy(epsilon, delta)
    raw = math.ceil(n ** sample_exponent)
    k = max(1, math.isqrt(raw))
    b = k * math.ceil(raw / k)
    if b > MAX_SAMPLE_SIZE:
        raise ValueError("sample budget exceeded: subsample of "
                         f"{b} points is over the {MAX_SAMPLE_SIZE} cap")
    if delta > 1.0 / b:
        raise ValueError("delta too large: must be at most 1/B "
                         f"= {1.0 / b:.3g}")
    if copies is None:
        if not 0 < beta < 1:
            raise ValueError("beta must be in (0, 1)")
        copies = math.ceil(math.log(2.0 / beta) / math.log(2.0))
    if copies < 1:
        raise ValueError("copy count must be positive")
    gamma = contraction_factor(loss)
    exponent = k * n * n * iters / (b * b)
    g = gamma ** exponent
    if g == 0.0:
        raise ValueError("contraction underflow: calibration constants "
                         "vanish at this problem size")
    log2d = math.log(2.0 / delta)
    sigma = 4.0 * math.sqrt(2.0) * loss.lipschitz * g / (
        loss.strong_convexity * n * (1.0 - g)
        * _sqrt_gap(log2d + epsilon, log2d)
    )
    train_extra = math.log(
        loss.space.diameter * loss.strong_convexity * b
        * (1.0 + 10.0 * log2d) / loss.lipschitz
    ) / math.log(1.0 / gamma)
    train_iters = math.ceil(exponent + max(train_extra, 0.0))
    return DistConfig(
        n=n, dim=dim, sample_exponent=float(sample_exponent),
        sample_size=b, num_partitions=k, copies=int(copies), iters=int(iters),
        epsilon=float(epsilon), delta=float(delta), gamma=gamma,
        exponent=exponent, sigma=sigma, train_iters=train_iters,
    )


@dataclass(frozen=True)
class CopyState:
    """One subsampled run, as ``PartitionedState.copies`` shows it: its
    points, gathered from the data when read, and per-partition
    optimizers."""

    features: np.ndarray   # (B, d) subsample rows, partition by position
    labels: np.ndarray     # (B,)
    thetas: np.ndarray     # (K, d) per-partition optimizer estimates
    rng: np.random.Generator

    def average(self) -> np.ndarray:
        return self.thetas.mean(axis=0)


@dataclass(frozen=True)
class CopyReport:
    """What one copy did during a round, for budget and drift audits."""

    modified_per_partition: np.ndarray   # (K,) changed position counts
    touched: tuple                       # partition ids that reran descent
    iterations: int                      # per touched partition
    gradient_evaluations: int


@dataclass(frozen=True)
class UpdateReport:
    round_index: int
    total_iters: float
    copies: tuple


@dataclass(frozen=True)
class PartitionedState:
    """Distributed chain position after round ``round_index``, with the
    loss and config the chain was learned with.

    The C copies are stacked: ``indices[c, p]`` is the index in ``data``
    of the row at position p of copy c, ``thetas[c, j]`` is copy c's
    estimate on partition j, and ``rngs[c]`` is copy c's reservoir
    generator. Both arrays are read-only.
    """

    round_index: int
    data: Dataset
    indices: np.ndarray   # (C, B) row indices into ``data``
    thetas: np.ndarray    # (C, K, d)
    rngs: tuple
    theta_pub: np.ndarray
    budget: int
    noise_rng: np.random.Generator
    loss: LossModel
    config: DistConfig
    last_report: UpdateReport | None = None

    @functools.cached_property
    def copies(self) -> tuple:
        """The copies as ``CopyState`` views, their rows gathered from
        ``data`` on first read."""
        features, labels = self.data.rows(self.indices)
        return tuple(map(CopyState, features, labels, self.thetas,
                         self.rngs))

    def snapshot(self) -> dict:
        """Portable state (see ``_encode_state``); each position's row is
        named by its first equal row in ``data`` (``_first_equal``), as
        the reservoir tells rows apart only by value. The rows are read
        with ``data.stacked``, so none are gathered and cached on the
        chain's live version."""
        first = _first_equal(self.data.stacked(np.arange(self.data.size)))
        indices = first[self.indices]
        return {
            **_encode_state(DIST_SNAPSHOT_FORMAT, self, self.config.sigma),
            "copies": [
                {
                    "indices": [int(j) for j in idx],
                    "thetas": [[float(v) for v in row] for row in thetas],
                    "rng": rng.bit_generator.state,
                }
                for idx, thetas, rng in zip(indices, self.thetas, self.rngs)
            ],
        }

    @classmethod
    def restore(cls, snapshot: dict, data: Dataset, loss: LossModel,
                config: DistConfig) -> "PartitionedState":
        """Resume a chain on the rows it had, with its loss and config."""
        shared = _decode_state(DIST_SNAPSHOT_FORMAT, snapshot, data, loss)
        _check_sigma(snapshot, config.sigma)
        data = shared["data"]
        if data.initial_size != config.n:
            raise ValueError("snapshot's n_0 does not match the config")
        if data.dim != config.dim:
            raise ValueError("dataset dimension does not match the config")
        copies = _fields(snapshot, "copies")[0]
        if type(copies) is not list:
            raise ValueError("snapshot copies are not a list")
        entries = [_fields(e, "indices", "thetas", "rng") for e in copies]
        if not all(type(e[0]) is list and all(type(j) is int for j in e[0])
                   for e in entries):
            raise ValueError("snapshot copies.indices are not integers")
        idx = _array([e[0] for e in entries], "copies.indices", int)
        thetas = _finite(_array([e[1] for e in entries], "copies.thetas"))
        if idx.shape != (config.copies, config.sample_size) or \
                thetas.shape != (config.copies, config.num_partitions,
                                 data.dim) or \
                not np.all((idx >= 0) & (idx < data.size)):
            raise ValueError("snapshot copies do not have the config's shape")
        rngs = tuple(_generator(e[2]) for e in entries)
        return cls(indices=_frozen(idx)[0], thetas=_frozen(thetas)[0],
                   rngs=rngs, loss=loss, config=config, **shared)


def _first_equal(rows) -> np.ndarray:
    """Index of each row of Z = [X | y] in ``rows``' first equal row.

    A stable ``np.lexsort`` over the columns puts equal rows together in
    index order, so each run's first index names the whole run. Runs
    are told apart one gathered column at a time, so the only arrays
    besides the rows are a few of length n.
    """
    size = rows.shape[0]
    order = np.lexsort(rows.T)
    starts = np.zeros(size, dtype=bool)
    starts[:1] = True
    for column in rows.T:
        key = column[order]
        starts[1:] |= key[1:] != key[:-1]
    heads = np.where(starts, np.arange(size), 0)
    np.maximum.accumulate(heads, out=heads)
    first = np.empty(size, dtype=np.intp)
    first[order] = order[heads]
    return first


def select_best(averages, data: Dataset, loss: LossModel) -> int:
    """Index of the average with the lowest empirical loss; ties go low.

    A ridge-family loss reads the moments ``data`` carries, O(d^2) per
    average; any other loss reads the rows.
    """
    values = [loss.empirical_loss(data, avg) for avg in averages]
    return int(np.argmin(values))


def dist_publish(thetas: np.ndarray, sigma: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Release the partition average plus Gaussian noise."""
    return publish(np.asarray(thetas, dtype=float).mean(axis=0), sigma, rng)


def _descend(loss: LossModel, data: Dataset, indices, thetas, touched,
             iterations):
    """Descend from ``thetas[c, j]``, for each partition j in
    ``touched[c]``, by ``iterations[c]`` steps on the rows of ``data`` at
    ``indices[c, j B/K : (j+1) B/K]``.

    The touched partitions of all copies are taken in order, in blocks
    of ``_BLOCK_PARTITIONS``, and each block is done before the next is
    gathered: its rows Z are gathered once, for a ridge-family loss its
    stacked moments, one Z^T Z per partition, give the normal equations
    (``losses.normal_equations``) and ``map_many`` maps in one batch
    every descent ``pgd`` would map, with one solve of the block's
    converged descents and none if none has converged (an unconverged
    learn's). ``pgd`` runs the rest, told the map refused
    them, on datasets that carry the block's moments, so no partition's
    moments are built or its system solved twice. Every product acts
    partition by partition, so the blocks give the bytes one stack
    would, and the transient is one block's rows and (d+1)-square stacks
    whatever C, B or K. Returns the new (C, K, d) estimates, read-only,
    and each copy's point-gradients.
    """
    count, k, dim = thetas.shape
    chunk = indices.shape[1] // k
    grads = [steps * part.size * chunk
             for part, steps in zip(touched, iterations)]
    # Problem p is partition flat[p] % K of copy flat[p] // K.
    jobs = [(c * k + j, steps)
            for c, (part, steps) in enumerate(zip(touched, iterations))
            for j in part.tolist()]
    if not jobs:
        return thetas, grads
    thetas = thetas.copy()
    estimates = thetas.reshape(count * k, dim)
    positions = indices.reshape(count * k, chunk)
    for first in range(0, len(jobs), _BLOCK_PARTITIONS):
        flat, steps = (list(column) for column in
                       zip(*jobs[first:first + _BLOCK_PARTITIONS]))
        # One gather of the block's rows Z; a refused partition's
        # Dataset copies its slice into a column-major Z of its own.
        rows = data.stacked(positions[flat])
        start = estimates[flat]
        new, mapped = np.empty_like(start), np.zeros(len(flat), dtype=bool)
        if loss.ridge_lam is not None:
            moments = _row_moments(rows)
            hessian, rhs = normal_equations(moments, chunk, loss.ridge_lam)
            new, mapped = map_many(loss, hessian, rhs, start,
                                   GDConfig.for_loss(loss, 0).step_size,
                                   steps)
        for p in np.flatnonzero(~mapped):
            part = Dataset(*_columns(rows[p]))
            if loss.ridge_lam is not None:
                # The block's moments, the same bytes the rows would give.
                part = part._with_moments(moments[p], 0)
            new[p] = pgd(loss, part, start[p],
                         GDConfig.for_loss(loss, steps[p]),
                         refused=True).theta
        estimates[flat] = new
    return _frozen(thetas)[0], grads


def dist_learn(data: Dataset, loss: LossModel, config: DistConfig,
               seed: int = 0) -> PartitionedState:
    """Draw the subsampled copies, optimize every partition, publish."""
    if data.size != config.n:
        raise ValueError("dataset size does not match the configuration")
    if data.dim != config.dim:
        raise ValueError("dataset dimension does not match the "
                         "configuration")
    data = _chain_data(data, loss, data.size)
    copies, k = config.copies, config.num_partitions
    indices = np.array([
        substream(seed, "bootstrap", c).integers(data.size,
                                                 size=config.sample_size)
        for c in range(copies)])
    thetas, grads = _descend(loss, data, indices,
                             np.zeros((copies, k, config.dim)),
                             [np.arange(k)] * copies,
                             [config.train_iters] * copies)
    best = select_best(thetas.mean(axis=1), data, loss)
    noise_rng = substream(seed, "noise")
    theta_pub = dist_publish(thetas[best], config.sigma, noise_rng)
    return PartitionedState(
        round_index=0, data=data, indices=_frozen(indices)[0],
        thetas=thetas,
        rngs=tuple(substream(seed, "reservoir", c) for c in range(copies)),
        theta_pub=theta_pub, budget=sum(grads), noise_rng=noise_rng,
        loss=loss, config=config,
    )


def reservoir_update(indices: np.ndarray, update: Update, data: Dataset,
                     new_data: Dataset, rngs):
    """Refresh every copy's subsample after ``update`` took ``data`` to
    ``new_data``; returns the new indices and each copy's changed
    positions.

    ``indices`` is (C, B), copy c's positions as indices into ``data``,
    and ``rngs[c]`` is copy c's generator. The result is (C, B) indices
    into ``new_data``, read-only, and C sorted arrays of positions. For
    an add, in each copy N ~ Binomial(B, 1/n_i) distinct positions take
    the new point, index n_i - 1; for a delete, each position holding a
    row equal to the deleted point is redrawn uniformly from
    ``new_data``, and every other index above the removed one moves down
    by one (see ``Dataset.apply``). Points are told apart by value: a
    position that takes a row equal to its old one is not counted as
    changed. Only the rows it draws or compares are read, and a delete's
    ``data.find`` costs no search when ``data.apply`` made the edit.
    """
    if new_data.size < 1:
        raise ValueError("empty dataset")
    b = indices.shape[1]
    point = update.point
    if update.op == "add":
        draws = []
        for rng in rngs:
            count = int(rng.binomial(b, 1.0 / new_data.size))
            draws.append(rng.choice(b, size=count, replace=False) if count
                         else np.empty(0, dtype=int))
        owner = np.repeat(np.arange(len(draws)), [d.size for d in draws])
        pos = np.concatenate(draws)
        features, labels = data.rows(indices[owner, pos])
        fresh = new_data.size - 1
        indices = indices.copy()
    else:
        found = data.find(point)
        if not found.size:
            return indices, [np.empty(0, dtype=int)] * len(rngs)
        hit = indices == found[0]
        for j in found[1:]:
            hit |= indices == j
        owner, pos = np.nonzero(hit)
        fresh = np.concatenate(
            [rng.integers(new_data.size, size=count)
             for rng, count in zip(rngs, hit.sum(axis=1)) if count]
            + [np.empty(0, dtype=int)])
        features, labels = new_data.rows(fresh)
        indices = indices - (indices > found[0])
    same = (features == point.x).all(axis=1) & (labels == point.y)
    indices[owner, pos] = fresh
    changed = [[] for _ in rngs]
    for c, p, kept in zip(owner.tolist(), pos.tolist(), same.tolist()):
        if not kept:
            changed[c].append(p)
    return _frozen(indices)[0], [np.array(sorted(c), dtype=int)
                                 for c in changed]


def dist_unlearn(state: PartitionedState, update: Update, loss: LossModel,
                 config: DistConfig) -> PartitionedState:
    """Apply one edit to every copy and publish the refreshed best copy.

    ``loss`` and ``config`` must be the chain's own. Only partitions
    whose subsample content changed rerun descent; when an edit touches
    no position anywhere the publish still happens so void deletions are
    indistinguishable from real ones. An added point must meet the
    loss's and the dataset's bounds and the loss's label set.
    """
    _check_chain(state.loss, state.config, loss, config)
    if update.op == "add":
        loss.check_point(update.point)
    new_data = state.data.apply(update)
    i = state.round_index + 1
    chunk = config.sample_size // config.num_partitions
    indices, changed = reservoir_update(state.indices, update, state.data,
                                        new_data, state.rngs)
    per_part = [np.bincount(c // chunk, minlength=config.num_partitions)
                for c in changed]
    touched = [np.flatnonzero(p) for p in per_part]
    iterations = [config.partition_iters(i, t.size) if t.size else 0
                  for t in touched]
    thetas, grads = _descend(loss, new_data, indices, state.thetas, touched,
                             iterations)
    best = select_best(thetas.mean(axis=1), new_data, loss)
    theta_pub = dist_publish(thetas[best], config.sigma, state.noise_rng)
    reports = tuple(
        CopyReport(modified_per_partition=p,
                   touched=tuple(t.tolist()),
                   iterations=steps, gradient_evaluations=g)
        for p, t, steps, g in zip(per_part, touched, iterations, grads))
    return PartitionedState(
        round_index=i, data=new_data, indices=indices, thetas=thetas,
        rngs=state.rngs, theta_pub=theta_pub,
        budget=state.budget + sum(grads), noise_rng=state.noise_rng,
        loss=loss, config=config,
        last_report=UpdateReport(i, config.total_update_iters(i), reports),
    )
