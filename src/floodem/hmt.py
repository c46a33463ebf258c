"""Structured EM over a forest: the one EM both methods run.

Each pixel's parent in the flow forest is its lowest strictly-lower neighbor,
so standing water at a pixel implies standing water at its parent. Class
transitions down the tree follow a 2x2 table with a structural zero (a flood
pixel can never sit above a dry parent):

    P(child=0 | parent=0) = 1        P(child=0 | parent=1) = 1 - rho
    P(child=1 | parent=0) = 0        P(child=1 | parent=1) = rho

Parentless nodes carry the Bernoulli prior (pi0, pi1). Emissions are
per-class Gaussians. Inference is exact: sum-product for the node marginals
and max-sum for the MAP labeling are one upward sweep that differs only in
how it combines a child's two states, run level by level in the log domain
with per-node max-shift normalization. Because of the structural zero, every
pairwise posterior P(y_n, y_parent | X) follows from the two node marginals,
so the E-step stores nothing else. On the edgeless forest, where every node
is a root, the same EM is the two-class mixture of `floodem.gmm`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DataError, DegenerateError, DimError, FormatError, InitError, IoError, SpecError
from .gaussian import GaussianParams, Lifted, log_pdf, weighted_mle
from .grid import LabelSet, RasterScene, neighbor_slices, read_key_values, write_lines


@dataclass(eq=False)
class FlowTree:
    """Forest over pixels: parent links plus a depth schedule.

    ``order`` lists the nodes deepest level first, with the children of one
    parent next to each other (`from_parents` sorts each level by parent).
    ``starts`` holds the offset of each level in ``order``; the last level is
    the roots. The passes keep per-node values in this layout, where every
    level is a contiguous slice.
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

    @classmethod
    def edgeless(cls, n: int) -> "FlowTree":
        return cls(np.full(n, -1, dtype=np.int64), np.arange(n), np.zeros(1, dtype=np.int64))

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @property
    def roots(self) -> np.ndarray:
        return self.order[self.starts[-1]:]

    @property
    def has_edges(self) -> bool:
        return self.starts.size > 1

    def level_groups(self) -> list[np.ndarray]:
        """Nodes by depth, deepest level first; the last group is the roots."""
        return np.split(self.order, self.starts[1:])

    @property
    def position(self) -> np.ndarray:
        """Each node's index in ``order``."""
        position = np.empty_like(self.order)
        position[self.order] = np.arange(self.n_nodes)
        return position

    @cached_property
    def up(self) -> np.ndarray:
        """The layout position of the parent of the node at each layout position; -1 at roots."""
        if not self.has_edges:
            return self.parent
        parent = self.parent[self.order]
        return np.where(parent >= 0, self.position[parent], -1)

    @cached_property
    def schedule(self) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
        """Per non-root level, deepest first: its layout slice ``s:e``, the
        offsets of its sibling runs in the slice, and the layout positions of
        those runs' parents."""
        if not self.has_edges:
            return []
        steps = []
        for s, nodes in zip(self.starts, self.level_groups()[:-1]):
            up = self.up[s : s + nodes.size]
            runs = np.flatnonzero(np.r_[True, up[1:] != up[:-1]])
            steps.append((s, s + nodes.size, runs, up[runs]))
        return steps


class TwoClassModel:
    """What both model families share: a root prior ``pi1`` and per-class emission ``components``."""

    @property
    def pi0(self) -> float:
        return 1.0 - self.pi1

    @property
    def dim(self) -> int:
        return self.components[0].dim


@dataclass
class HmtModel(TwoClassModel):
    """Transition strength rho, root prior pi1, per-class emission Gaussians,
    and the neighborhood of the flow forest they were fitted on."""

    rho: float
    pi1: float
    components: tuple[GaussianParams, GaussianParams]
    neighborhood: int = 8  # of the flow forest the model was fitted on

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


@dataclass
class TraceRow:
    iteration: int
    pi1: float
    mu: tuple[np.ndarray, np.ndarray]
    sigma_diag: tuple[np.ndarray, np.ndarray]
    loglik: float
    max_rel_change: float  # nan on the initial row
    rho: float | None = None


@dataclass
class EmTrace:
    """Per-iteration parameter snapshots; row 0 is the state before any update."""

    rows: list[TraceRow] = field(default_factory=list)
    has_rho: bool = False
    stop_reason: str | None = None  # "tol" (converged) or "max_iter" (stopped at the cap)

    def logliks(self) -> list[float]:
        return [row.loglik for row in self.rows]

    def to_csv(self, path: str) -> None:
        if not self.rows:
            raise IoError("empty trace")
        dim = self.rows[0].mu[0].size
        cols = ["iter"] + ["rho"] * self.has_rho + ["pi1"]
        cols += [f"{p}{c}.{k}" for p in ("mu", "sig") for c in (0, 1) for k in range(dim)]
        lines = [",".join(cols + ["loglik", "maxrel"])]
        for row in self.rows:
            vals = [row.rho] * self.has_rho + [row.pi1, *row.mu[0], *row.mu[1]]
            vals += [*row.sigma_diag[0], *row.sigma_diag[1], row.loglik, row.max_rel_change]
            lines.append(",".join([str(row.iteration)] + [f"{v:.17g}" for v in vals]))
        write_lines(path, "trace", lines)


def _safe_log(p: float) -> float:
    return float(np.log(p)) if p > 0.0 else -np.inf


def class_params_from_labels(
    scene: RasterScene, labels: LabelSet, use_elevation: bool
) -> tuple[tuple[GaussianParams, GaussianParams], float]:
    """Per-class MLE Gaussians over the labeled pixels, plus the labeled class-1 fraction."""
    feats = scene.feature_matrix(use_elevation)
    flat, cls = labels.flat_indices(scene.width, scene.height)
    comps = []
    for c in (0, 1):
        pts = feats[flat[cls == c]]
        if pts.shape[0] < 2:
            raise InitError(f"class {c} has {pts.shape[0]} labeled samples, need at least 2")
        comps.append(weighted_mle(pts, np.ones(pts.shape[0])))
    return (comps[0], comps[1]), float(np.mean(cls))


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


def _log_emissions(
    model: TwoClassModel, tree: FlowTree, features: np.ndarray | Lifted, rows=slice(None)
) -> np.ndarray:
    """(2, N) log densities: class c in row c, the nodes listed in ``rows`` order."""
    shape = np.shape(features)
    if len(shape) != 2 or shape[1] != model.dim:
        raise DimError(f"features shape {shape} does not match emission dimension {model.dim}")
    if shape[0] != tree.n_nodes:
        raise DimError(f"{shape[0]} feature rows for {tree.n_nodes} tree nodes")
    return np.stack([log_pdf(g, features)[rows] for g in model.components])


def _logaddexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ln(e^a + e^b) as max + log1p(exp(-|a - b|)), in whole-array passes
    (numpy's logaddexp is a scalar loop); -inf where both are -inf, with no
    numpy warning."""
    hi = np.maximum(a, b)
    d = np.minimum(a, b)
    # Where hi is -inf so is d, and d - hi would be nan: leave d at -inf there.
    np.subtract(d, hi, out=d, where=hi > -np.inf)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    hi += d
    return hi


def _upward(model: TwoClassModel, tree: FlowTree, u: np.ndarray, combine=_logaddexp) -> float:
    """Leaf-to-root pass of sum-product, or of max-sum when ``combine`` is np.maximum.

    ``u`` holds the (2, N) log emissions in ``tree``'s layout. In place, it
    becomes each non-root node's max-shifted log score of its subtree given
    y_n, final once the node's level is done, and each root's log posterior
    of y_n (under max-sum, relative to its best class). Returns the log
    evidence (the MAP log joint under max-sum), all shifts telescoped back in.
    """
    total = 0.0
    stay = model.log_transition()[:, 1] if tree.has_edges else None  # log P(y_n | wet parent)
    for s, e, runs, run_up in tree.schedule:
        level = u[:, s:e]
        shift = np.maximum(level[0], level[1])
        total += float(shift.sum())  # -inf if any node has zero likelihood in both classes
        if not np.isfinite(total):
            raise DataError("contradictory clamped evidence: a node has zero likelihood in both classes")
        level -= shift
        # By the structural zero a node's message to a dry parent is its own u0.
        to_wet = combine(stay[0] + level[0], stay[1] + level[1])
        u[0, run_up] += np.add.reduceat(level[0], runs)
        u[1, run_up] += np.add.reduceat(to_wet, runs)
    roots = u[:, tree.starts[-1]:]
    roots += [[_safe_log(model.pi0)], [_safe_log(model.pi1)]]
    z = combine(roots[0], roots[1])
    total += float(z.sum())
    if not np.isfinite(total):
        raise DataError("contradictory clamped evidence: a root has zero probability in both classes")
    roots -= z
    return total


def _downward(model: TwoClassModel, tree: FlowTree, u: np.ndarray) -> np.ndarray:
    """Root-to-leaf pass over `_upward`'s ``u``: the marginals in layout order.
    m_n = m_p * P(y_n=1 | y_p=1, X) is all the structural zero leaves to compute."""
    marginal = np.empty(tree.n_nodes)
    r = tree.starts[-1]
    np.exp(u[1, r:], out=marginal[r:])
    stay = model.log_transition()[:, 1] if tree.has_edges else None
    for s, e, _, _ in reversed(tree.schedule):
        u0, u1 = u[:, s:e]
        mp = marginal[tree.up[s:e]]
        # The message n sent its flooded parent, as _upward computed it.
        to_wet = _logaddexp(stay[0] + u0, stay[1] + u1)
        # Where m_p = 0 the message may be -inf and the ratio nan; mask it.
        with np.errstate(invalid="ignore"):
            step = np.exp(np.minimum(stay[1] + u1 - to_wet, 0.0))
        marginal[s:e] = np.where(mp > 0.0, mp * step, 0.0)
    return marginal


def e_step(model: TwoClassModel, tree: FlowTree, features: np.ndarray) -> TreePosteriors:
    """Exact sum-product posteriors under the current parameters."""
    u = _log_emissions(model, tree, features, tree.order)
    _upward(model, tree, u)
    return TreePosteriors(marginal=_downward(model, tree, u)[tree.position], parent=tree.parent)


def m_step(posteriors: TreePosteriors, features: np.ndarray | Lifted, model: TwoClassModel):
    """Closed-form update of ``model``; ``features`` list the nodes in the posteriors' order.

    pi1 is the mean root marginal. On a forest with edges rho is the
    expected-count MLE sum E[y_parent * y_n] / sum E[y_parent], which the
    structural zero turns into sum m_n / sum m_parent(n); with no posterior
    mass on flooded parents it is undefined and kept, with a warning. A
    forest without edges leaves rho, or a mixture's lack of one, alone.
    """
    marg, parent = posteriors.marginal, posteriors.parent
    root = parent < 0
    components = (weighted_mle(features, 1.0 - marg), weighted_mle(features, marg))
    update = {"pi1": float(np.sum(marg, where=root)) / np.count_nonzero(root), "components": components}
    if not root.all():
        den = float(marg[parent[~root]].sum())
        if den == 0.0:
            warnings.warn("no posterior mass on flooded parents; keeping previous rho", stacklevel=2)
        else:
            # the floor keeps the (0, 1] contract when flood mass vanishes
            update["rho"] = max(min(float(np.sum(marg, where=~root)) / den, 1.0), 1e-12)
    return replace(model, **update)


def expected_complete_loglik(
    posteriors: TreePosteriors, model: TwoClassModel, tree: FlowTree, features: np.ndarray | Lifted
) -> float:
    """Posterior expectation of the complete-data log likelihood.

    Emission term over all nodes, prior term over roots, transition term over
    non-root edges: m_n on flood/flood and m_p - m_n on dry/flood, the only
    cells with a non-zero log factor. Zero-probability cells contribute zero
    even against a -inf log factor.
    """
    log_em = _log_emissions(model, tree, features)
    marg1 = posteriors.marginal
    total = float(((1.0 - marg1) * log_em[0] + marg1 * log_em[1]).sum())
    r1 = marg1[tree.roots]
    terms = [(1.0 - r1, _safe_log(model.pi0)), (r1, _safe_log(model.pi1))]
    if tree.has_edges:
        nonroot = np.flatnonzero(tree.parent >= 0)
        m, mp = marg1[nonroot], marg1[tree.parent[nonroot]]
        terms += [(m, _safe_log(model.rho)), (mp - m, _safe_log(1.0 - model.rho))]
    with np.errstate(invalid="ignore"):
        for p, log_factor in terms:
            total += float(np.where(p > 0.0, p * log_factor, 0.0).sum())
    return total


def _max_rel_change(old, new) -> float:
    """Largest relative change of any parameter, rho included when the model has one."""
    pairs = [(np.atleast_1d(old.pi1), np.atleast_1d(new.pi1))]
    if hasattr(old, "rho"):
        pairs.append((np.atleast_1d(old.rho), np.atleast_1d(new.rho)))
    for c in (0, 1):
        pairs.append((old.components[c].mean, new.components[c].mean))
        pairs.append((old.components[c].cov.ravel(), new.components[c].cov.ravel()))
    worst = 0.0
    for a, b in pairs:
        worst = max(worst, float(np.max(np.abs(b - a) / (np.abs(a) + 1e-12))))
    return worst


def run_em(model, e_step, m_step, *, max_iter: int, tol: float, callback=None):
    """The EM loop; returns (final model, EmTrace).

    ``e_step(model) -> (loglik, stats)`` scores the current model and
    ``m_step(model, stats) -> model`` updates it. Row k of the trace holds
    the model after k updates. EM stops once an update moves every parameter
    by less than ``tol`` (relative), or after ``max_iter`` updates.
    ``callback(iteration, model)``, when given, fires for every traced model.
    """
    if max_iter < 0:
        raise SpecError(f"max_iter must be non-negative, got {max_iter}")
    has_rho = hasattr(model, "rho")
    trace = EmTrace(has_rho=has_rho)
    prev = None
    for it in range(max_iter + 1):
        loglik, stats = e_step(model)
        maxrel = _max_rel_change(prev, model) if prev is not None else float("nan")
        trace.rows.append(
            TraceRow(
                iteration=it,
                pi1=model.pi1,
                mu=tuple(g.mean.copy() for g in model.components),
                sigma_diag=tuple(np.diag(g.cov).copy() for g in model.components),
                loglik=loglik,
                max_rel_change=maxrel,
                rho=model.rho if has_rho else None,
            )
        )
        if callback is not None:
            callback(it, model)
        if prev is not None and maxrel < tol:
            trace.stop_reason = "tol"
            break
        if it == max_iter:
            trace.stop_reason = "max_iter"
            break
        try:
            new = m_step(model, stats)
        except DegenerateError as exc:
            raise DegenerateError(f"{exc} (iteration {it + 1})") from exc
        prev, model, stats = model, new, None  # free the E-step's arrays before the next one
    return model, trace


def forest_em(model: TwoClassModel, tree: FlowTree, scene: RasterScene, clamped: LabelSet, *,
              use_elevation: bool, max_iter: int, tol: float, callback=None):
    """Transductive EM of ``model`` over ``tree``, one node per pixel; returns (model, EmTrace).

    The ``clamped`` pixels are hard evidence: their other class gets zero
    likelihood. Features and clamps are put in the forest's layout once, and
    messages and marginals stay in it, so every level is a slice and no
    iteration reorders anything.
    """
    features = Lifted(scene.feature_matrix(use_elevation)[tree.order])
    flat, cls = clamped.flat_indices(scene.width, scene.height)
    at = tree.position[flat]

    def expect(model):
        u = _log_emissions(model, tree, features)
        u[1 - cls, at] = -np.inf
        return _upward(model, tree, u), u

    def maximize(model, u):
        # The downward pass runs only here, when an update follows.
        posteriors = TreePosteriors(marginal=_downward(model, tree, u), parent=tree.up)
        return m_step(posteriors, features, model)

    return run_em(model, expect, maximize, max_iter=max_iter, tol=tol, callback=callback)


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
    """`forest_em` on the flow forest over the non-elevation channels. Labels
    initialize the emission Gaussians and, with ``clamp_labels``, are also
    hard evidence. ``callback(iteration, model)`` fires for every traced model."""
    tree = build_flow_tree(scene.elevation(), neighborhood)
    components, _ = class_params_from_labels(scene, labels, use_elevation=False)
    model = HmtModel(rho=rho_init, pi1=pi_init, components=components, neighborhood=neighborhood)
    return forest_em(model, tree, scene, labels if clamp_labels else LabelSet([]), use_elevation=False,
                     max_iter=max_iter, tol=tol, callback=callback)


def map_decode(model: TwoClassModel, tree: FlowTree, features: np.ndarray) -> np.ndarray:
    """Exact MAP labeling: the max-sum upward pass, then a backtrack that gives
    each node its best class under its parent's; ties break toward dry."""
    u = _log_emissions(model, tree, features, tree.order)
    _upward(model, tree, u, np.maximum)
    classes = np.empty(tree.n_nodes, dtype=np.uint8)
    r = tree.starts[-1]
    classes[r:] = u[1, r:] > u[0, r:]
    stay = model.log_transition()[:, 1] if tree.has_edges else None
    for s, e, _, _ in reversed(tree.schedule):
        # Under a dry parent the structural zero leaves only dry.
        classes[s:e] = (classes[tree.up[s:e]] == 1) & (stay[1] + u[1, s:e] > stay[0] + u[0, s:e])
    return classes[tree.position]


def assignment_log_joint(
    model: HmtModel, tree: FlowTree, features: np.ndarray, classes: np.ndarray
) -> float:
    """Log joint probability of one full class assignment."""
    classes = np.asarray(classes, dtype=np.int64).reshape(-1)
    log_em = _log_emissions(model, tree, features)
    total = float(log_em[classes, np.arange(tree.n_nodes)].sum())
    log_pi = np.array([_safe_log(model.pi0), _safe_log(model.pi1)])
    total += float(log_pi[classes[tree.roots]].sum())
    nonroot = np.flatnonzero(tree.parent >= 0)
    log_t = model.log_transition()
    total += float(log_t[classes[nonroot], classes[tree.parent[nonroot]]].sum())
    return total


# --- model files: one key=value per line, 17-significant-digit floats ---


def _write_model(path: str, lines: list[str], model) -> None:
    """Write ``lines``, then the prior and emission keys of ``model``."""
    lines = lines + [f"pi1={model.pi1:.17g}"]
    for c in (0, 1):
        g = model.components[c]
        for k, v in enumerate(g.mean):
            lines.append(f"mean.{c}.{k}={v:.17g}")
        for i in range(g.dim):
            for j in range(g.dim):
                lines.append(f"cov.{c}.{i}.{j}={g.cov[i, j]:.17g}")
    write_lines(path, "model", lines)


def _parse_model_file(path: str) -> dict[str, float]:
    kv = read_key_values(path, "model", lambda key, val: float(val), FormatError)
    if "pi1" not in kv:
        raise FormatError(f"{path}: missing pi1")
    return kv


def _components_from_kv(kv: dict[str, float], path: str) -> tuple[GaussianParams, GaussianParams]:
    dims = [k[len("mean.0."):] for k in kv if k.startswith("mean.0.")]
    if not dims:
        raise FormatError(f"{path}: no mean.0.* keys")
    for d in dims:
        if not d.isdigit():
            raise FormatError(f"{path}: bad model key 'mean.0.{d}'")
    m = 1 + max(int(d) for d in dims)
    comps = []
    for c in (0, 1):
        try:
            mean = np.array([kv[f"mean.{c}.{k}"] for k in range(m)])
            cov = np.array([[kv[f"cov.{c}.{i}.{j}"] for j in range(m)] for i in range(m)])
        except KeyError as exc:
            raise FormatError(f"{path}: missing model key {exc.args[0]}") from exc
        comps.append(GaussianParams(mean, cov))
    return comps[0], comps[1]


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
