"""Brute-force references that certify the EM code paths on small instances.

Everything here re-derives probabilities from first principles. The only
piece shared with the production paths is the Gaussian log density; sums,
normalizations, transition tables, and the MAP search are coded separately
so a bug cannot hide on both sides of a comparison.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CapError
from .gaussian import GaussianParams, log_pdf

MAX_NODES = 20


def _log(p: float) -> float:
    return float(np.log(p)) if p > 0.0 else -np.inf


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if m == -np.inf:
        return -np.inf
    return m + float(np.log(np.sum(np.exp(values - m))))


def enumerate_joint(model, tree, features):
    """Exhaustive posterior computation over all 2^N class assignments.

    Returns (marginals, pairwise, map_assignment, map_logvalue) with the same
    shapes as the message-passing output: marginals (N,), pairwise (N, 2, 2)
    indexed [node, y_node, y_parent] with NaN at roots.
    """
    n = tree.n_nodes
    if n > MAX_NODES:
        raise CapError(f"{n} nodes exceeds the enumeration cap of {MAX_NODES}")
    feats = np.asarray(features, dtype=float)
    em = np.stack(
        [log_pdf(model.components[0], feats), log_pdf(model.components[1], feats)], axis=1
    )
    log_pi = np.array([_log(1.0 - model.pi1), _log(model.pi1)])
    # Transition table written out from scratch, indexed [child, parent].
    log_t = np.array([[0.0, _log(1.0 - model.rho)], [-np.inf, _log(model.rho)]])

    assignments = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)
    logp = em[np.arange(n)[None, :], assignments].sum(axis=1)
    parent = np.asarray(tree.parent)
    for node in range(n):
        p = parent[node]
        if p < 0:
            logp = logp + log_pi[assignments[:, node]]
        else:
            logp = logp + log_t[assignments[:, node], assignments[:, p]]

    z = _logsumexp(logp)
    marginals = np.empty(n)
    pairwise = np.full((n, 2, 2), np.nan)
    for node in range(n):
        sel = assignments[:, node] == 1
        marginals[node] = np.exp(_logsumexp(logp[sel]) - z) if np.any(sel) else 0.0
        p = parent[node]
        if p < 0:
            continue
        for a in (0, 1):
            for b in (0, 1):
                cell = (assignments[:, node] == a) & (assignments[:, p] == b)
                lse = _logsumexp(logp[cell]) if np.any(cell) else -np.inf
                pairwise[node, a, b] = np.exp(lse - z) if lse > -np.inf else 0.0

    best = int(np.argmax(logp))
    return marginals, pairwise, assignments[best].astype(np.uint8), float(logp[best])


def gmm_loglik(model, scene, labels, use_elevation: bool) -> float:
    """Observed-data log likelihood of a mixture model, written independently.

    Unlabeled pixels contribute ln sum_c pi_c N_c(x); labeled pixels the joint
    term ln pi_y N_y(x).
    """
    feats = scene.feature_matrix(use_elevation)
    lp = [
        _log(1.0 - model.pi1) + log_pdf(model.components[0], feats),
        _log(model.pi1) + log_pdf(model.components[1], feats),
    ]
    flat, cls = labels.flat_indices(scene.width, scene.height)
    labeled = np.zeros(feats.shape[0], dtype=bool)
    labeled[flat] = True
    total = 0.0
    for i in np.flatnonzero(~labeled):
        total += _logsumexp(np.array([lp[0][i], lp[1][i]]))
    for i, y in zip(flat, cls):
        total += float(lp[int(y)][int(i)])
    return total


def random_tree_instance(
    rng: np.random.Generator, n_nodes: int, feature_dim: int | None = None, all_roots: bool = False
):
    """Random small forest + model + features for oracle-equivalence checks.

    Node ids are shuffled, so a parent's id may follow its child's;
    ``all_roots`` makes the forest edgeless. Keeps rho in [0.5, 1] (including
    the exact structural-zero endpoint with small probability) and draws
    Gaussian emissions per class.
    """
    from .hmt import FlowTree, HmtModel  # type reuse only; no algorithm sharing

    parent = np.full(n_nodes, -1, dtype=np.int64)
    for node in range(1, n_nodes):
        if all_roots or rng.random() < 0.15:
            continue  # extra root: exercise forests, not just single trees
        parent[node] = rng.integers(0, node)
    label = rng.permutation(n_nodes)
    parent[label] = np.where(parent >= 0, label[parent], -1)
    tree = FlowTree.from_parents(parent)

    dim = feature_dim if feature_dim is not None else int(rng.integers(1, 4))
    comps = []
    for _ in range(2):
        mean = rng.normal(0.0, 2.0, size=dim)
        a = rng.normal(0.0, 1.0, size=(dim, dim))
        cov = a @ a.T + 0.5 * np.eye(dim)
        comps.append(GaussianParams(mean, cov))
    rho = 1.0 if rng.random() < 0.1 else float(rng.uniform(0.5, 1.0))
    pi1 = float(rng.uniform(0.1, 0.9))
    model = HmtModel(rho=rho, pi1=pi1, components=(comps[0], comps[1]))
    features = rng.normal(0.0, 2.5, size=(n_nodes, dim))
    return model, tree, features
