"""Reruns give the same bytes at one and at two OpenBLAS threads.

Each chain runs in a subprocess of its own, since OpenBLAS reads its
thread count once, at load. Only the counts 1 and 2 are compared, and
only at the dimensions the blocked products were measured at: the
moment builder (``data._row_moments``) for ridge, the closed-form map's
power (``optimizer.map_many``) at d = 20, and the logistic row
gradient's ``X^T w`` (``LogisticLoss._batch_gradient``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Prints, per chain, the SHA-256 of every round's published parameters
# and of its secret state (theta_hat, or every partition's estimate).
CHAINS = r"""
import hashlib, json, sys
import numpy as np
from unlearn import core, distributed
from unlearn.data import gen_adversarial_sequence, gen_synthetic_dataset
from unlearn.losses import LogisticLoss, ParamSpace, RidgeLoss


def digests(states, secret):
    published, hidden = hashlib.sha256(), hashlib.sha256()
    for state in states:
        published.update(np.ascontiguousarray(state.theta_pub))
        hidden.update(np.ascontiguousarray(secret(state)))
    return published.hexdigest(), hidden.hexdigest()


def chain(start, step, updates):
    states = [start]
    for update in updates:
        states.append(step(states[-1], update))
    return states


def core_chain():
    data = gen_synthetic_dataset(10_000, 50, seed=5)
    loss = RidgeLoss(ParamSpace(50, 1.0), lam=1.0)
    config = core.UnlearnConfig("strong_secret", 1.0, 0.05, 5)
    updates = gen_adversarial_sequence(data, 6, "churn", seed=5)
    states = chain(core.learn(data, loss, config, seed=5),
                   lambda s, u: core.unlearn(s, u, loss, config), updates)
    return digests(states, lambda s: s.theta_hat)


def dist_chain():
    data = gen_synthetic_dataset(500, 20, seed=5)
    loss = RidgeLoss(ParamSpace(20, 1.0), lam=1.0)
    config = distributed.dist_params(500, 20, loss, 1.0, 1, 1.0, 1e-3,
                                     copies=3)
    updates = gen_adversarial_sequence(data, 12, "churn", seed=5)
    states = chain(distributed.dist_learn(data, loss, config, seed=5),
                   lambda s, u: distributed.dist_unlearn(s, u, loss, config),
                   updates)
    return digests(states, lambda s: s.thetas)


def regularized_chain():
    data = gen_synthetic_dataset(2_000, 20, seed=5)
    loss = RidgeLoss(ParamSpace(20, 1.0), lam=0.5)
    config = core.UnlearnConfig("regularized_weak", 1.0, 0.05, 5)
    updates = gen_adversarial_sequence(data, 5, "churn", seed=5)
    states = chain(core.learn(data, loss, config, seed=5),
                   lambda s, u: core.unlearn(s, u, loss, config), updates)
    return digests(states, lambda s: s.theta_hat)


def logistic_chain():
    data = gen_synthetic_dataset(20_000, 50, model="logistic", seed=5)
    loss = LogisticLoss(ParamSpace(50, 1.0), lam=1.0)
    config = core.UnlearnConfig("strong_secret", 1.0, 0.05, 2)
    updates = gen_adversarial_sequence(data, 4, "churn", seed=5)
    states = chain(core.learn(data, loss, config, seed=5),
                   lambda s, u: core.unlearn(s, u, loss, config), updates)
    return digests(states, lambda s: s.theta_hat)


print(json.dumps({sys.argv[1]: globals()[sys.argv[1]]()}))
"""


def run_at(threads: int, which: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", CHAINS, which], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("which", ["core_chain", "dist_chain",
                                   "regularized_chain", "logistic_chain"])
def test_chain_bytes_do_not_depend_on_the_blas_thread_count(which):
    """A core ridge ``strong_secret`` chain at n=1e4, d=50 with six churn
    edits, a distributed ridge chain at n=500, d=20 with twelve, a core
    ridge ``regularized_weak`` chain at n=2e3, d=20 with five, whose
    rounds 2 and 3 are warm descents of T >= d that have not converged
    and take the lifted power, and a core logistic ``strong_secret``
    chain at n=2e4, d=50 with four, where one product over all the rows
    gives other bytes at 2 threads: published and secret digests are
    equal at 1 and 2 threads."""
    assert run_at(1, which) == run_at(2, which)
