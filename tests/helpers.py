"""Shared numeric oracles for the test suite.

Everything here is computed with plain Python floats or one-line numpy
calls so the library under test never certifies itself.
"""

import math
import tracemalloc

import numpy as np


def scalar_ridge_loss(x, y, theta, lam):
    """Squared-error-plus-ridge value via explicit scalar arithmetic."""
    pred = 0.0
    for xj, tj in zip(x, theta):
        pred += float(xj) * float(tj)
    sq = 0.0
    for tj in theta:
        sq += float(tj) * float(tj)
    return 0.5 * (pred - float(y)) ** 2 + 0.5 * lam * sq


def scalar_logistic_loss(x, y, theta, lam):
    pred = 0.0
    for xj, tj in zip(x, theta):
        pred += float(xj) * float(tj)
    sq = 0.0
    for tj in theta:
        sq += float(tj) * float(tj)
    margin = float(y) * pred
    # log1p(exp(-m)) computed stably for either sign of the margin.
    if margin >= 0:
        return math.log1p(math.exp(-margin)) + 0.5 * lam * sq
    return -margin + math.log1p(math.exp(margin)) + 0.5 * lam * sq


def numeric_gradient(fn, theta, step=1e-5):
    """Central finite differences, one coordinate at a time."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = step
        grad[j] = (fn(theta + bump) - fn(theta - bump)) / (2 * step)
    return grad


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ball_points(rng, count, dim, radius=1.0):
    """Uniform directions with uniform-in-ball radii."""
    raw = rng.standard_normal((count, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    scale = radius * rng.random(count) ** (1.0 / dim)
    return raw * scale[:, None]


# Adds in three dimensions that break the declared feature or label
# bound of a unit-ball dataset, or are not finite.
BAD_ADDS = [
    (np.array([50.0, 0.0, 0.0]), 0.0),
    (np.array([0.1, 0.0, 0.0]), 7.0),
    (np.array([np.nan, 0.0, 0.0]), 0.0),
]
