"""Structured EM over an elevation-derived flow-dependency forest.

Each pixel's parent is its lowest strictly-lower neighbor, so standing water
at a pixel implies standing water at its parent. Class transitions down the
tree follow a 2x2 table with a structural zero (a flood pixel can never sit
above a dry parent):

    P(child=0 | parent=0) = 1        P(child=0 | parent=1) = 1 - rho
    P(child=1 | parent=0) = 0        P(child=1 | parent=1) = rho

Parentless nodes carry the Bernoulli prior (pi0, pi1). Emissions are
per-class Gaussians over the non-elevation feature channels; elevation enters
only through the tree structure. Inference is exact: sum-product for the
node marginals and max-sum for the MAP labeling are one upward sweep that
differs only in how it combines a child's two states, run level by level in
the log domain with per-node max-shift normalization. Because of the
structural zero, every pairwise posterior P(y_n, y_parent | X) follows from
the two node marginals, so the E-step stores nothing else.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, DegenerateError, DimError, FormatError
from .gaussian import GaussianParams, Lifted, log_pdf, weighted_mle
from .grid import LabelSet, RasterScene, neighbor_slices
from .gmm import (
    EmTrace,
    _components_from_kv,
    _parse_model_file,
    _safe_log,
    _write_model,
    class_params_from_labels,
    run_em,
)


@dataclass(eq=False)
class FlowTree:
    """Forest over pixels: parent links plus a depth schedule.

    ``order`` lists the nodes deepest level first, and by parent within a
    level, so every level's children of one parent form a contiguous run.
    ``starts`` holds the offset of each level in ``order``; the last level is
    the roots.
    """

    parent: np.ndarray  # (N,) int64, -1 marks a root
    order: np.ndarray
    starts: np.ndarray

    @classmethod
    def from_parents(cls, parent: np.ndarray) -> "FlowTree":
        parent = np.asarray(parent, dtype=np.int64).reshape(-1)
        n = parent.size
        if np.any((parent < -1) | (parent >= n)) or np.any(parent == np.arange(n)):
            raise DataError("invalid parent index")
        # Pointer doubling: depth[i] counts the edges from i to jump[i], and
        # jump[i] climbs 2^k links per round until it falls off a root. Depths
        # are below N < 2^bit_length(N), so a node still jumping after that
        # many rounds lies on a cycle.
        depth = (parent >= 0).astype(np.int64)
        jump = parent.copy()
        for _ in range(n.bit_length() + 1):
            live = np.flatnonzero(jump >= 0)
            if live.size == 0:
                break
            up = jump[live]
            depth[live] += depth[up]
            jump[live] = jump[up]
        else:
            raise DataError("parent links contain a cycle")
        order = np.lexsort((parent, -depth))
        starts = np.flatnonzero(np.r_[True, np.diff(depth[order]) != 0])
        return cls(parent=parent, order=order, starts=starts)

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @property
    def roots(self) -> np.ndarray:
        return self.order[self.starts[-1]:]

    def level_groups(self) -> list[np.ndarray]:
        """Nodes by depth, deepest level first; the last group is the roots."""
        return np.split(self.order, self.starts[1:])


@dataclass
class HmtModel:
    """Transition strength rho, root prior pi1, per-class emission Gaussians,
    and the neighborhood of the flow forest they were fitted on."""

    rho: float
    pi1: float
    components: tuple[GaussianParams, GaussianParams]
    neighborhood: int = 8  # of the flow forest the model was fitted on

    @property
    def pi0(self) -> float:
        return 1.0 - self.pi1

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def log_transition(self) -> np.ndarray:
        """2x2 log table indexed [child, parent]; columns are stochastic."""
        return np.array(
            [[0.0, _safe_log(1.0 - self.rho)], [-np.inf, _safe_log(self.rho)]]
        )


@dataclass
class TreePosteriors:
    """Exact per-node posteriors P(y=1 | X) over a forest with parent links ``parent``."""

    marginal: np.ndarray  # (N,)
    parent: np.ndarray  # (N,) int64, -1 marks a root

    @property
    def pairwise(self) -> np.ndarray:
        """(N, 2, 2) P(y_n, y_parent | X) indexed [node, y_node, y_parent]; NaN at roots.

        The structural zero makes the table a function of the two marginals:
        P(1, 1) = m_n, P(0, 1) = m_p - m_n, P(0, 0) = 1 - m_p, P(1, 0) = 0.
        """
        nonroot = self.parent >= 0
        m = np.where(nonroot, self.marginal, np.nan)
        mp = np.where(nonroot, self.marginal[self.parent], np.nan)
        zero = np.where(nonroot, 0.0, np.nan)
        table = np.stack([1.0 - mp, mp - m, zero, m], axis=1).reshape(-1, 2, 2)
        table.flags.writeable = False
        return table


def build_flow_tree(elevation: np.ndarray, neighborhood: int = 8) -> FlowTree:
    """Parent = the strictly-lower neighbor of minimum elevation.

    Ties go to the smallest row-major index; pixels with no strictly-lower
    neighbor become roots (a flat plateau is a forest of singletons).
    """
    elev = np.asarray(elevation, dtype=float)
    if elev.ndim != 2:
        raise DataError("elevation must be a 2-D grid")
    if not np.all(np.isfinite(elev)):
        raise DataError("elevation contains non-finite values")
    h, w = elev.shape
    flat_index = np.arange(h * w, dtype=np.int64).reshape(h, w)
    best_elev = np.full((h, w), np.inf)
    best_idx = np.full((h, w), -1, dtype=np.int64)
    # Offsets are scanned in row-major order, and only a strictly smaller
    # elevation replaces the incumbent, so equal-elevation ties keep the
    # smallest flat index automatically.
    for dst, src in neighbor_slices(elev.shape, neighborhood):
        nb_elev, best = elev[src], best_elev[dst]
        lower = (nb_elev < elev[dst]) & (nb_elev < best)
        best[lower] = nb_elev[lower]
        best_idx[dst][lower] = flat_index[src][lower]
    return FlowTree.from_parents(best_idx.ravel())


def _log_emissions(model: HmtModel, tree: FlowTree, features: np.ndarray | Lifted) -> np.ndarray:
    shape = np.shape(features)
    if len(shape) != 2 or shape[1] != model.dim:
        raise DimError(f"features shape {shape} does not match emission dimension {model.dim}")
    if shape[0] != tree.n_nodes:
        raise DimError(f"{shape[0]} feature rows for {tree.n_nodes} tree nodes")
    return np.stack([log_pdf(g, features) for g in model.components], axis=1)


def _shift(values: np.ndarray, nodes: np.ndarray) -> float:
    """Max-shift each node's row to 0; returns the total shift removed."""
    shift = np.max(values[nodes], axis=1)
    if not np.all(np.isfinite(shift)):
        raise DataError("contradictory clamped evidence: a node has zero likelihood in both classes")
    values[nodes] -= shift[:, None]
    return float(shift.sum())


def _upward(model: HmtModel, tree: FlowTree, log_em: np.ndarray, combine=np.logaddexp):
    """Leaf-to-root pass of sum-product, or of max-sum when ``combine`` is np.maximum.

    Returns (u, value) where u[n] is the max-shifted log score of the subtree
    under n given y_n, and value is the log evidence (the MAP log joint under
    max-sum) with all shifts telescoped back in. u[n] is final once n's level
    is done, so the message n sends its parent can be rebuilt from u alone.
    """
    log_t = model.log_transition()
    u = log_em.copy()
    shift_total = 0.0
    *levels, roots = tree.level_groups()
    for nodes in levels:
        shift_total += _shift(u, nodes)
        to_parent = combine(log_t[0] + u[nodes, :1], log_t[1] + u[nodes, 1:])
        # A level lists its nodes by parent: sum each run of siblings into their parent.
        parents = tree.parent[nodes]
        runs = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
        u[parents[runs]] += np.add.reduceat(to_parent, runs, axis=0)
    shift_total += _shift(u, roots)
    root_z = combine(_safe_log(model.pi0) + u[roots, 0], _safe_log(model.pi1) + u[roots, 1])
    return u, shift_total + float(root_z.sum())


def _downward(model: HmtModel, tree: FlowTree, u: np.ndarray) -> np.ndarray:
    """Root-to-leaf pass: m_n = m_p * P(y_n=1 | y_p=1, X), which is all the
    structural zero leaves to compute."""
    *levels, roots = tree.level_groups()
    marginal = np.empty(tree.n_nodes)
    lr0 = _safe_log(model.pi0) + u[roots, 0]
    lr1 = _safe_log(model.pi1) + u[roots, 1]
    marginal[roots] = np.exp(lr1 - np.logaddexp(lr0, lr1))
    log_t = model.log_transition()
    for nodes in reversed(levels):
        mp = marginal[tree.parent[nodes]]
        # The message n sent its flooded parent, as _upward computed it.
        to_wet = np.logaddexp(log_t[0, 1] + u[nodes, 0], log_t[1, 1] + u[nodes, 1])
        # Where m_p = 0 the message may be -inf and the ratio nan; mask it.
        with np.errstate(invalid="ignore"):
            step = np.exp(np.minimum(log_t[1, 1] + u[nodes, 1] - to_wet, 0.0))
        marginal[nodes] = np.where(mp > 0.0, mp * step, 0.0)
    return marginal


def e_step(model: HmtModel, tree: FlowTree, features: np.ndarray) -> TreePosteriors:
    """Exact sum-product posteriors under the current parameters."""
    u, _ = _upward(model, tree, _log_emissions(model, tree, features))
    return TreePosteriors(marginal=_downward(model, tree, u), parent=tree.parent)


def m_step(
    posteriors: TreePosteriors,
    tree: FlowTree,
    features: np.ndarray | Lifted,
    prev_rho: float | None = None,
) -> HmtModel:
    """Closed-form parameter update from tree posteriors.

    rho is the expected-count MLE over non-root edges, sum E[y_parent * y_n] /
    sum E[y_parent], which the structural zero turns into sum m_n / sum
    m_parent(n); when no posterior mass sits on flooded parents the update is
    undefined and the previous rho is kept (with a warning).
    """
    marg = posteriors.marginal
    nonroot = np.flatnonzero(tree.parent >= 0)
    num = float(marg[nonroot].sum())
    den = float(marg[tree.parent[nonroot]].sum())
    if den == 0.0:
        if prev_rho is None:
            raise DegenerateError("no posterior mass on flooded parents and no previous rho to keep")
        warnings.warn("no posterior mass on flooded parents; keeping previous rho", stacklevel=2)
        rho = prev_rho
    else:
        rho = min(num / den, 1.0)
        rho = max(rho, 1e-12)  # keep the (0, 1] contract when flood mass vanishes
    pi1 = float(marg[tree.roots].mean())
    components = (weighted_mle(features, 1.0 - marg), weighted_mle(features, marg))
    return HmtModel(rho=rho, pi1=pi1, components=components)


def expected_complete_loglik(
    posteriors: TreePosteriors, model: HmtModel, tree: FlowTree, features: np.ndarray | Lifted
) -> float:
    """Posterior expectation of the complete-data log likelihood.

    Emission term over all nodes, prior term over roots, transition term over
    non-root edges: m_n on flood/flood and m_p - m_n on dry/flood, the only
    cells with a non-zero log factor. Zero-probability cells contribute zero
    even against a -inf log factor.
    """
    log_em = _log_emissions(model, tree, features)
    marg1 = posteriors.marginal
    total = float(((1.0 - marg1) * log_em[:, 0] + marg1 * log_em[:, 1]).sum())
    r1 = marg1[tree.roots]
    nonroot = np.flatnonzero(tree.parent >= 0)
    m, mp = marg1[nonroot], marg1[tree.parent[nonroot]]
    terms = (
        (1.0 - r1, _safe_log(model.pi0)),
        (r1, _safe_log(model.pi1)),
        (m, _safe_log(model.rho)),
        (mp - m, _safe_log(1.0 - model.rho)),
    )
    with np.errstate(invalid="ignore"):
        for p, log_factor in terms:
            total += float(np.where(p > 0.0, p * log_factor, 0.0).sum())
    return total


def em_fit(
    scene: RasterScene,
    labels: LabelSet,
    *,
    max_iter: int = 100,
    tol: float = 1e-5,
    rho_init: float = 0.99,
    pi_init: float = 0.5,
    neighborhood: int = 8,
    clamp_labels: bool = False,
    callback=None,
) -> tuple[HmtModel, EmTrace]:
    """Transductive EM over the whole scene.

    Labels initialize the per-class emission Gaussians and nothing else,
    unless ``clamp_labels`` pins the labeled pixels as hard evidence during
    message passing. ``callback(iteration, model)`` mirrors the GMM hook.
    """
    elevation = scene.elevation()
    features = Lifted(scene.feature_matrix(use_elevation=False))
    tree = build_flow_tree(elevation, neighborhood)
    components, _ = class_params_from_labels(scene, labels, use_elevation=False)
    model = HmtModel(rho=rho_init, pi1=pi_init, components=components, neighborhood=neighborhood)

    flat, cls = labels.flat_indices(scene.width, scene.height)
    if not clamp_labels:
        flat, cls = flat[:0], cls[:0]  # clamp nothing

    def expect(model: HmtModel):
        log_em = _log_emissions(model, tree, features)
        log_em[flat, 1 - cls] = -np.inf
        u, loglik = _upward(model, tree, log_em)
        return loglik, u

    def maximize(model: HmtModel, stats) -> HmtModel:
        # The downward pass runs only here, when an update follows.
        posteriors = TreePosteriors(marginal=_downward(model, tree, stats), parent=tree.parent)
        new = m_step(posteriors, tree, features, prev_rho=model.rho)
        return replace(new, neighborhood=neighborhood)

    return run_em(model, expect, maximize, max_iter=max_iter, tol=tol, callback=callback)


def map_decode(model: HmtModel, tree: FlowTree, features: np.ndarray) -> np.ndarray:
    """Exact MAP labeling: the max-sum upward pass, then a backtrack that gives
    each node its best class under its parent's; ties break toward dry."""
    u, _ = _upward(model, tree, _log_emissions(model, tree, features), np.maximum)
    log_t = model.log_transition()
    *levels, roots = tree.level_groups()
    classes = np.zeros(tree.n_nodes, dtype=np.uint8)
    classes[roots] = _safe_log(model.pi1) + u[roots, 1] > _safe_log(model.pi0) + u[roots, 0]
    for nodes in reversed(levels):
        y_p = classes[tree.parent[nodes]]
        classes[nodes] = log_t[1, y_p] + u[nodes, 1] > log_t[0, y_p] + u[nodes, 0]
    return classes


def assignment_log_joint(
    model: HmtModel, tree: FlowTree, features: np.ndarray, classes: np.ndarray
) -> float:
    """Log joint probability of one full class assignment."""
    classes = np.asarray(classes, dtype=np.int64).reshape(-1)
    log_em = _log_emissions(model, tree, features)
    total = float(log_em[np.arange(tree.n_nodes), classes].sum())
    log_pi = np.array([_safe_log(model.pi0), _safe_log(model.pi1)])
    total += float(log_pi[classes[tree.roots]].sum())
    nonroot = np.flatnonzero(tree.parent >= 0)
    log_t = model.log_transition()
    total += float(log_t[classes[nonroot], classes[tree.parent[nonroot]]].sum())
    return total


def save_model(model: HmtModel, path: str) -> None:
    _write_model(path, [f"rho={model.rho:.17g}", f"neighborhood={model.neighborhood}"], model)


def model_from_kv(kv: dict[str, float], path: str) -> HmtModel:
    """A tree model from the parsed keys of a model file."""
    if "rho" not in kv:
        raise FormatError(f"{path}: missing rho; this is a mixture model file")
    neighborhood = kv.get("neighborhood", 8.0)  # files from before the key hold 8-neighbor models
    if neighborhood not in (4.0, 8.0):
        raise FormatError(f"{path}: neighborhood must be 4 or 8, got {neighborhood:g}")
    components = _components_from_kv(kv, path)
    return HmtModel(kv["rho"], kv["pi1"], components, neighborhood=int(neighborhood))


def load_model(path: str) -> HmtModel:
    return model_from_kv(_parse_model_file(path), path)
