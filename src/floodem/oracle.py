"""Brute-force references that certify the EM code paths on small instances,
and `run_verify`, the suite behind `floodem verify` that runs them.

Every reference re-derives probabilities from first principles, Gaussian
densities and fits included (`log_density`, `raw_weighted_mle`), so a bug
cannot hide on both sides of a comparison; production's `log_pdf` and
`weighted_mle` are called only on the lift they are checked on. `run_verify`
checks `floodem.hmt`'s E-step, M-step and MAP decoding against these
references, the lifted Gaussian fits (`m_step`'s by-difference fit among
them) and densities against the raw-point ones, and the mixture EM's
objective, log likelihood plus log prior, for monotonicity.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from . import gmm, hmt
from .errors import CapError, SpecError
from .gaussian import GaussianParams, Lifted, log_pdf, weighted_mle
from .grid import SceneSpec, generate_scene

MAX_NODES = 20


def _log(p: float) -> float:
    return float(np.log(p)) if p > 0.0 else -np.inf


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if m == -np.inf:
        return -np.inf
    return m + float(np.log(np.sum(np.exp(values - m))))


def log_density(g: GaussianParams, points: np.ndarray) -> np.ndarray:
    """ln N(x; mean, cov) of each row x of the (n, m) ``points``, from the log
    determinant and a linear solve."""
    z = np.asarray(points, dtype=float) - g.mean
    _, log_det = np.linalg.slogdet(g.cov)
    maha = np.einsum("ij,ji->i", z, np.linalg.solve(g.cov, z.T))
    return -0.5 * (g.dim * np.log(2.0 * np.pi) + log_det + maha)


def ridge(points: np.ndarray) -> float:
    """The covariance ridge psi of fits to the raw (n, m) ``points``: 1e-9 of
    their summed squared distance from their unweighted mean, over m."""
    pts = np.asarray(points, dtype=float)
    return 1e-9 * float(np.sum((pts - pts.mean(axis=0)) ** 2)) / pts.shape[1]


def log_prior(model, points: np.ndarray) -> float:
    """The covariance prior's log density -psi/2 sum_c tr(Sigma_c^-1) of a
    model fitted to ``points``, with each inverse from np.linalg.inv."""
    return -0.5 * ridge(points) * sum(float(np.trace(np.linalg.inv(g.cov))) for g in model.components)


def raw_weighted_mle(points: np.ndarray, weights: np.ndarray) -> GaussianParams:
    """The weighted Gaussian fit from the raw (n, m) points: the weighted mean,
    and (S_w + psi I) / W, S_w the weighted scatter around it, W the total
    weight and psi the points' `ridge`."""
    pts, w = np.asarray(points, dtype=float), np.asarray(weights, dtype=float)
    mean = (w @ pts) / w.sum()
    centered = pts - mean
    scatter = (centered * w[:, None]).T @ centered
    return GaussianParams(mean, (scatter + ridge(pts) * np.eye(pts.shape[1])) / w.sum())


def _class_log_densities(model, features) -> np.ndarray:
    """(2, N) log densities, class c in row c."""
    return np.stack([log_density(g, features) for g in model.components])


def _log_tables(model) -> tuple[np.ndarray, np.ndarray]:
    """The log root prior [pi0, pi1] and the log transition table, indexed
    [child, parent], written out from scratch."""
    log_pi = np.array([_log(1.0 - model.pi1), _log(model.pi1)])
    log_t = np.array([[0.0, _log(1.0 - model.rho)], [-np.inf, _log(model.rho)]])
    return log_pi, log_t


def enumerate_joint(model, tree, features):
    """Exhaustive posterior computation over all 2^N class assignments.

    Returns (marginals, pairwise, map_assignment, map_logvalue) with the same
    shapes as the message-passing output: marginals (N,), pairwise (N, 2, 2)
    indexed [node, y_node, y_parent] with NaN at roots.
    """
    n = tree.n_nodes
    if n > MAX_NODES:
        raise CapError(f"{n} nodes exceeds the enumeration cap of {MAX_NODES}")
    em = _class_log_densities(model, np.asarray(features, dtype=float))
    log_pi, log_t = _log_tables(model)

    assignments = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)
    logp = em[assignments, np.arange(n)[None, :]].sum(axis=1)
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


def pairwise_from_marginals(marginal: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """(N, 2, 2) P(y_n, y_parent | X) indexed [node, y_node, y_parent]; NaN at roots.

    The structural zero makes the table a function of the two marginals:
    P(1, 1) = m_n, P(0, 1) = m_p - m_n, P(0, 0) = 1 - m_p, P(1, 0) = 0. This
    is the claim the E-step rests on, checked against `enumerate_joint`.
    """
    nonroot = parent >= 0
    m = np.where(nonroot, marginal, np.nan)
    mp = np.where(nonroot, marginal[parent], np.nan)
    zero = np.where(nonroot, 0.0, np.nan)
    return np.stack([1.0 - mp, mp - m, zero, m], axis=1).reshape(-1, 2, 2)


def expected_complete_loglik(marginal: np.ndarray, model, tree, features) -> float:
    """Posterior expectation of the complete-data log likelihood, given the
    marginals P(y_n=1 | X) in node order.

    Emission term over all nodes, prior term over roots, transition term over
    non-root edges: m_n on flood/flood and m_p - m_n on dry/flood, the only
    cells with a non-zero log factor. Zero-probability cells contribute zero
    even against a -inf log factor.
    """
    log_em = _class_log_densities(model, features)
    total = float(((1.0 - marginal) * log_em[0] + marginal * log_em[1]).sum())
    r1 = marginal[tree.parent < 0]
    terms = [(1.0 - r1, _log(1.0 - model.pi1)), (r1, _log(model.pi1))]
    nonroot = np.flatnonzero(tree.parent >= 0)
    if nonroot.size:
        m, mp = marginal[nonroot], marginal[tree.parent[nonroot]]
        terms += [(m, _log(model.rho)), (mp - m, _log(1.0 - model.rho))]
    with np.errstate(invalid="ignore"):
        for p, log_factor in terms:
            total += float(np.where(p > 0.0, p * log_factor, 0.0).sum())
    return total


def assignment_log_joint(model, tree, features, classes) -> float:
    """Log joint probability of one full class assignment."""
    classes = np.asarray(classes, dtype=np.int64).reshape(-1)
    total = float(_class_log_densities(model, features)[classes, np.arange(tree.n_nodes)].sum())
    log_pi, log_t = _log_tables(model)
    total += float(log_pi[classes[tree.parent < 0]].sum())
    nonroot = np.flatnonzero(tree.parent >= 0)
    total += float(log_t[classes[nonroot], classes[tree.parent[nonroot]]].sum())
    return total


def gmm_loglik(model, scene, labels) -> float:
    """Observed-data log likelihood of a mixture model over the channels it
    names plus its `log_prior`: mixture EM's objective, written independently.

    Unlabeled pixels contribute ln sum_c pi_c N_c(x); labeled pixels the joint
    term ln pi_y N_y(x).
    """
    feats = scene.feature_matrix(model.use_elevation)
    lp = _class_log_densities(model, feats) + [[_log(1.0 - model.pi1)], [_log(model.pi1)]]
    flat, cls = labels.flat_indices(scene.width, scene.height)
    unlabeled = np.ones(feats.shape[0], dtype=bool)
    unlabeled[flat] = False
    loglik = float(np.logaddexp(lp[0, unlabeled], lp[1, unlabeled]).sum()) + float(lp[cls, flat].sum())
    return loglik + log_prior(model, feats)


def random_tree_instance(
    rng: np.random.Generator, n_nodes: int, feature_dim: int | None = None, all_roots: bool = False
):
    """Random small forest + model + features for oracle-equivalence checks.

    Node ids are shuffled, so a parent's id may follow its child's;
    ``all_roots`` makes the forest edgeless. Keeps rho in [0.5, 1] (including
    the exact structural-zero endpoint with small probability) and draws
    Gaussian emissions per class.
    """
    parent = np.full(n_nodes, -1, dtype=np.int64)
    for node in range(1, n_nodes):
        if all_roots or rng.random() < 0.15:
            continue  # extra root: exercise forests, not just single trees
        parent[node] = rng.integers(0, node)
    label = rng.permutation(n_nodes)
    parent[label] = np.where(parent >= 0, label[parent], -1)
    tree = hmt.FlowTree.from_parents(parent)

    dim = feature_dim if feature_dim is not None else int(rng.integers(1, 4))
    comps = []
    for _ in range(2):
        mean = rng.normal(0.0, 2.0, size=dim)
        a = rng.normal(0.0, 1.0, size=(dim, dim))
        cov = a @ a.T + 0.5 * np.eye(dim)
        comps.append(GaussianParams(mean, cov))
    rho = 1.0 if rng.random() < 0.1 else float(rng.uniform(0.5, 1.0))
    pi1 = float(rng.uniform(0.1, 0.9))
    model = hmt.HmtModel(rho=rho, pi1=pi1, components=(comps[0], comps[1]))
    features = rng.normal(0.0, 2.5, size=(n_nodes, dim))
    return model, tree, features


# --- the floodem verify suite ---


def _fit_error(fit: GaussianParams, ref: GaussianParams) -> float:
    """The mean's disagreement in units of |mean| + sd and the covariance's
    in units of sd_i * sd_j, sd from ``ref``."""
    sd = np.sqrt(np.diag(ref.cov))
    return max(
        float(np.max(np.abs(fit.mean - ref.mean) / (np.abs(ref.mean) + sd))),
        float(np.max(np.abs(fit.cov - ref.cov) / np.outer(sd, sd))),
    )


def _lift_error(points: np.ndarray, weights: np.ndarray) -> float:
    """Worst disagreement of the lifted fits and density with the raw-point
    references: `weighted_mle` of ``weights`` and its log densities, the
    latter in units of 1 + |log density|, and both class fits of an edgeless
    `m_step` whose marginals are ``weights`` and then 1 - ``weights``, so
    that for weights with other than half the total each class is once fitted
    directly and once by difference."""
    lift = Lifted(points)
    ref = raw_weighted_mle(points, weights)
    ref_lp = log_density(ref, points)
    worst = max(
        _fit_error(weighted_mle(lift, weights), ref),
        float(np.max(np.abs(log_pdf(ref, lift) - ref_lp) / (1.0 + np.abs(ref_lp)))),
    )
    edgeless = np.full(len(points), -1)
    for marginal in (weights, 1.0 - weights):
        refs = (raw_weighted_mle(points, 1.0 - marginal), raw_weighted_mle(points, marginal))
        fits = hmt.m_step(marginal, edgeless, lift, hmt.GmmModel(pi1=0.5, components=refs)).components
        worst = max(worst, *(_fit_error(f, r) for f, r in zip(fits, refs)))
    return worst


def run_verify(n_trees: int = 100, seed: int = 0, out=None) -> bool:
    """Oracle-equivalence suite over ``n_trees`` random trees; prints one line
    per check to ``out`` (stdout by default) and returns True iff every check passes."""
    if n_trees < 1:
        raise SpecError(f"verify needs at least one tree, got {n_trees}")
    if seed < 0:
        raise SpecError(f"seed must be non-negative, got {seed}")
    out = out or sys.stdout
    rng = np.random.default_rng(seed)
    instances = [random_tree_instance(rng, int(rng.integers(2, 13)), all_roots=k % 10 == 9)
                 for k in range(n_trees)]

    all_ok = True

    def emit(ok: bool, name: str, detail: str) -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        print(f"{'ok  ' if ok else 'FAIL'} {name} ({detail})", file=out)

    worst = worst_map = 0.0
    ties = 0
    exact = True
    for model, tree, feats in instances:
        om, op, oa, ov = enumerate_joint(model, tree, feats)
        dec, marginal = hmt.predict(model, tree, feats)
        worst = max(worst, float(np.max(np.abs(marginal - om))))
        nonroot = np.flatnonzero(tree.parent >= 0)
        if nonroot.size:
            pairwise = pairwise_from_marginals(marginal, tree.parent)
            worst = max(worst, float(np.max(np.abs(pairwise[nonroot] - op[nonroot]))))
        dv = assignment_log_joint(model, tree, feats, dec)
        worst_map = max(worst_map, abs(dv - ov))
        if not np.array_equal(dec, oa):
            ties += 1
            exact = exact and abs(dv - ov) <= 1e-9
    emit(worst <= 1e-9, "tree posteriors match enumeration", f"{n_trees} trees, max err {worst:.3g}")
    emit(worst_map <= 1e-9 and exact, "MAP decoding attains the enumeration maximum",
         f"{n_trees} trees, max value err {worst_map:.3g}, {ties} tie-equivalent assignments")

    worst_gap = 0.0
    grid_rho = np.linspace(0.01, 0.999, 25)
    for model, tree, feats in instances[: min(25, n_trees)]:
        if not tree.has_edges:
            continue
        _, marginal = hmt.predict(model, tree, feats)
        new = hmt.m_step(marginal, tree.parent, Lifted(feats), model)
        q_hat = expected_complete_loglik(marginal, new, tree, feats)
        for r in grid_rho:
            trial = hmt.HmtModel(rho=float(r), pi1=new.pi1, components=new.components)
            gap = expected_complete_loglik(marginal, trial, tree, feats) - q_hat
            worst_gap = max(worst_gap, gap)
    emit(worst_gap <= 1e-9, "transition update maximizes the expected complete log likelihood",
         f"max improvement found by grid search {worst_gap:.3g}")

    worst_lift = 0.0
    n_fits = 40
    for k in range(n_fits):
        # Correlated channels with offsets up to 1e6 and scales from 1e-3 to 1e3.
        m = 1 + k % 4
        mix = rng.normal(size=(m, m)) + 2.0 * np.eye(m)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
        offsets = 10.0 ** rng.uniform(0.0, 6.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        pts = (rng.normal(size=(200, m)) @ mix) * scales + offsets
        worst_lift = max(worst_lift, _lift_error(pts, rng.uniform(size=200) ** 4))
    emit(worst_lift <= 1e-9, "lifted Gaussian fits and densities match the Cholesky path",
         f"{n_fits} point sets, 5 fits each, max rel err {worst_lift:.3g}")

    spec = SceneSpec(width=16, height=16, obstacle_fraction=0.2, labels_per_class=8, seed=seed)
    scene, labels = generate_scene(spec)
    _, trace = gmm.em_fit(scene, labels, use_elevation=False)
    logliks = [gmm_loglik(m, scene, labels) for m in trace.models]
    drops = [b - a for a, b in zip(logliks, logliks[1:]) if b < a - 1e-8]
    emit(not drops, "mixture EM log likelihood is non-decreasing",
         f"{len(trace.models) - 1} EM maps, stop {trace.stop_reason}, "
         f"worst drop {min(drops) if drops else 0.0:.3g}")
    return all_ok
