"""Distributed deletion with subsampled, partitioned optimization.

Each of C independent copies holds a bootstrap subsample of B points
(drawn i.i.d. with replacement), split into K equal partitions that are
optimized separately; a copy's parameter is the average of its
partition optimizers and the best copy (lowest empirical loss on the
full current dataset) is published with Gaussian noise.

Partition j of a copy is its positions [j B/K, (j+1) B/K): positions
are i.i.d., so this fixed split has the law of a random one, with no
map to draw, store or scan.

Edits reach the subsamples through reservoir maintenance that preserves
the i.i.d.-from-current-data law of every position: an add overwrites
Binomial(B, 1/n_i) random positions with the new point; a delete
redraws every position holding the deleted point from the edited
dataset. A position never changes partition, so an edit touches only
the partitions whose contents actually changed, and only those rerun
descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_chain_data, _check_chain, _check_privacy, _check_sigma,
                   _decode_state, _encode_state, _generator, _sqrt_gap,
                   publish)
from .data import Dataset, Update
from .losses import LossModel
from .optimizer import GDConfig, contraction_factor, pgd
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

DIST_SNAPSHOT_FORMAT = "unlearn-dist-state/2"


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
                copies: int | None = None,
                max_sample_size: int = 1_000_000) -> DistConfig:
    """Derive the distributed chain shape from the problem size.

    ``copies`` overrides the count otherwise derived from the accuracy
    failure probability ``beta`` as ceil(log(2/beta) / log 2).
    """
    if not 1.0 <= sample_exponent <= 4.0 / 3.0:
        raise ValueError("sample exponent must lie in [1, 4/3]")
    if n < 2:
        raise ValueError("need at least two points")
    if iters < 1:
        raise ValueError("iteration budget must be at least 1")
    _check_privacy(epsilon, delta)
    raw = math.ceil(n ** sample_exponent)
    k = max(1, math.isqrt(raw))
    b = k * math.ceil(raw / k)
    if b > max_sample_size:
        raise ValueError("sample budget exceeded: subsample of "
                         f"{b} points is over the {max_sample_size} cap")
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
    """One subsampled run: its points and per-partition optimizers."""

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
    loss and config the chain was learned with."""

    round_index: int
    data: Dataset
    copies: tuple
    theta_pub: np.ndarray
    budget: int
    noise_rng: np.random.Generator
    loss: LossModel
    config: DistConfig
    last_report: UpdateReport | None = None

    def snapshot(self) -> dict:
        """Portable state; each subsample row is named by its first equal
        row in ``data``, as the reservoir writes only rows of the data."""
        rows = np.vstack([np.column_stack([c.features, c.labels])
                          for c in (self.data, *self.copies)])
        _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                      return_inverse=True)
        indices = first[inverse[self.data.size:]].reshape(len(self.copies), -1)
        return {
            **_encode_state(DIST_SNAPSHOT_FORMAT, self, self.config.sigma),
            "copies": [
                {
                    "indices": [int(j) for j in idx],
                    "thetas": [[float(v) for v in row] for row in c.thetas],
                    "rng": c.rng.bit_generator.state,
                }
                for idx, c in zip(indices, self.copies)
            ],
        }

    @classmethod
    def restore(cls, snapshot: dict, data: Dataset, loss: LossModel,
                config: DistConfig) -> "PartitionedState":
        """Resume a chain on the rows it had, with its loss and config."""
        shared = _decode_state(DIST_SNAPSHOT_FORMAT, snapshot, data, loss)
        _check_sigma(snapshot, config.sigma)
        entries, data = snapshot["copies"], shared["data"]
        idx = np.asarray([e["indices"] for e in entries], dtype=int)
        thetas = np.asarray([e["thetas"] for e in entries], dtype=float)
        if idx.shape != (config.copies, config.sample_size) or \
                thetas.shape != (config.copies, config.num_partitions,
                                 data.dim) or \
                not np.all((idx >= 0) & (idx < data.size)):
            raise ValueError("snapshot copies do not have the config's shape")
        copies = tuple(CopyState(data.features[j], data.labels[j], t,
                                 _generator(e["rng"]))
                       for j, t, e in zip(idx, thetas, entries))
        return cls(copies=copies, loss=loss, config=config, **shared)


def select_best(averages, data: Dataset, loss: LossModel) -> int:
    """Index of the average with the lowest empirical loss; ties go low."""
    values = [loss.empirical_loss(data, avg) for avg in averages]
    return int(np.argmin(values))


def dist_publish(thetas: np.ndarray, sigma: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Release the partition average plus Gaussian noise."""
    return publish(np.asarray(thetas, dtype=float).mean(axis=0), sigma, rng)


def _descend(loss: LossModel, features, labels, thetas, touched,
             iterations: int):
    """Descend from ``thetas[j]`` on rows [j B/K, (j+1) B/K), j touched.

    Returns the new (K, d) estimates and the point-gradients spent.
    """
    chunk = labels.size // thetas.shape[0]
    gd = GDConfig.for_loss(loss, iterations)
    thetas = thetas.copy()
    grads = 0
    for j in touched:
        rows = slice(j * chunk, (j + 1) * chunk)
        trace = pgd(loss, Dataset(features[rows], labels[rows]), thetas[j],
                    gd)
        thetas[j] = trace.theta
        grads += trace.gradient_evaluations
    return thetas, grads


def dist_learn(data: Dataset, loss: LossModel, config: DistConfig,
               seed: int = 0) -> PartitionedState:
    """Draw the subsampled copies, optimize every partition, publish."""
    if data.size != config.n:
        raise ValueError("dataset size does not match the configuration")
    data = _chain_data(data, loss, data.size)
    k = config.num_partitions
    copies = []
    budget = 0
    for c in range(config.copies):
        idx = substream(seed, "bootstrap", c).integers(
            data.size, size=config.sample_size)
        features, labels = data.features[idx], data.labels[idx]
        thetas, grads = _descend(loss, features, labels,
                                 np.zeros((k, config.dim)), range(k),
                                 config.train_iters)
        copies.append(CopyState(features, labels, thetas,
                                substream(seed, "reservoir", c)))
        budget += grads
    best = select_best([c.average() for c in copies], data, loss)
    noise_rng = substream(seed, "noise")
    theta_pub = dist_publish(copies[best].thetas, config.sigma, noise_rng)
    return PartitionedState(
        round_index=0, data=data, copies=tuple(copies), theta_pub=theta_pub,
        budget=budget, noise_rng=noise_rng, loss=loss, config=config,
    )


def reservoir_update(features: np.ndarray, labels: np.ndarray,
                     update: Update, new_data: Dataset,
                     rng: np.random.Generator):
    """Refresh one subsample after an edit; returns the changed positions.

    The subsample stays the same size. For an add, N ~ Binomial(B, 1/n_i)
    distinct positions are overwritten with the new point; for a delete,
    every position holding the deleted point is redrawn uniformly from
    the edited dataset. Positions whose value is overwritten with an
    identical value do not count as changed.
    """
    b = labels.size
    features = features.copy()
    labels = labels.copy()
    point = update.point
    if update.op == "add":
        if new_data.size < 1:
            raise ValueError("empty dataset")
        count = int(rng.binomial(b, 1.0 / new_data.size))
        pos = rng.choice(b, size=count, replace=False) if count else \
            np.empty(0, dtype=int)
        same = np.all(features[pos] == point.x, axis=1) & \
            (labels[pos] == point.y)
        changed = pos[~same]
        features[pos] = point.x
        labels[pos] = point.y
    else:
        if new_data.size < 1:
            raise ValueError("cannot redraw from an empty dataset")
        hits = np.flatnonzero(
            np.all(features == point.x, axis=1) & (labels == point.y))
        if hits.size:
            draws = rng.integers(new_data.size, size=hits.size)
            fresh_f = new_data.features[draws]
            fresh_l = new_data.labels[draws]
            same = np.all(features[hits] == fresh_f, axis=1) & \
                (labels[hits] == fresh_l)
            changed = hits[~same]
            features[hits] = fresh_f
            labels[hits] = fresh_l
        else:
            changed = np.empty(0, dtype=int)
    return features, labels, np.sort(changed)


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
    new_copies = []
    reports = []
    budget = 0
    for copy in state.copies:
        features, labels, changed = reservoir_update(
            copy.features, copy.labels, update, new_data, copy.rng)
        per_part = np.bincount(changed // chunk,
                               minlength=config.num_partitions)
        touched = np.flatnonzero(per_part)
        iterations = config.partition_iters(i, touched.size) \
            if touched.size else 0
        thetas, grads = _descend(loss, features, labels, copy.thetas,
                                 touched, iterations)
        budget += grads
        new_copies.append(CopyState(features, labels, thetas, copy.rng))
        reports.append(CopyReport(
            modified_per_partition=per_part,
            touched=tuple(int(j) for j in touched),
            iterations=iterations,
            gradient_evaluations=grads,
        ))
    best = select_best([c.average() for c in new_copies], new_data, loss)
    theta_pub = dist_publish(new_copies[best].thetas, config.sigma,
                             state.noise_rng)
    return PartitionedState(
        round_index=i, data=new_data, copies=tuple(new_copies),
        theta_pub=theta_pub, budget=state.budget + budget,
        noise_rng=state.noise_rng, loss=loss, config=config,
        last_report=UpdateReport(i, config.total_update_iters(i),
                                 tuple(reports)),
    )
