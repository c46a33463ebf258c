"""Structured EM over a forest: the one EM both methods run, and the one model family.

Each pixel's parent in the flow forest is its lowest strictly-lower neighbor,
so standing water at a pixel implies standing water at its parent. Class
transitions down the tree follow a 2x2 table with a structural zero (a flood
pixel can never sit above a dry parent):

    P(child=0 | parent=0) = 1        P(child=0 | parent=1) = 1 - rho
    P(child=1 | parent=0) = 0        P(child=1 | parent=1) = rho

Parentless nodes carry the Bernoulli prior (pi0, pi1). Emissions are
per-class Gaussians. `GmmModel` is the prior and the emissions, `HmtModel`
the mixture plus rho, and each family's `forest` is the one it is fitted and
predicted on. `save_model` and `load_model` write and read both, and
`init_from_labels` fits the initial mixture to the labeled pixels.
`forest_em` is the EM; its `EmTrace` keeps the model after each EM map. On
the edgeless forest, the mixture's, it is accelerated by SQUAREM.

Inference is exact: sum-product for the node marginals and max-sum for the
MAP labeling are one upward sweep that differs only in how it combines a
child's two states, run level by level in the log domain with per-node
max-shift normalization. Because of the structural zero, every pairwise
posterior P(y_n, y_parent | X) follows from the two node marginals, so
`e_step` returns the (N,) marginals and `m_step` reads nothing else.
`predict` runs both sweeps on one computation of the emissions, so either
family's classes are its MAP labeling. The brute-force references that
certify this module, and the `floodem verify` suite that runs them, live in
`floodem.oracle`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DataError, DegenerateError, DimError, FormatError, InitError, IoError, SpecError
from .gaussian import GaussianParams, Lifted, _fit_sums, log_pdf, weighted_mle
from .grid import NEIGHBOR_OFFSETS, LabelSet, RasterScene, neighbor_slices, read_key_values, write_lines


@dataclass(eq=False)
class FlowTree:
    """Forest over pixels: parent links plus a depth schedule.

    ``order`` lists the nodes deepest level first, and ``starts`` holds the
    offset of each level in ``order``; the last level is the roots. The
    passes keep per-node values in this layout, where every level is a
    contiguous slice. A depth-d node's parent has depth d - 1, so all of a
    level's parents lie in the slice of the next level. The edgeless forest
    holds no per-node array: its ``parent`` is a read-only broadcast -1, and
    its layout is node order, so ``order`` is built only where it is read.
    """

    parent: np.ndarray  # (N,) int64, -1 marks a root
    starts: np.ndarray
    _order: np.ndarray | None = field(default=None, repr=False)  # None: node order

    @classmethod
    def from_parents(cls, parent: np.ndarray) -> "FlowTree":
        """The forest of ``parent`` (-1 at roots) in stable depth order. Depths come
        from pointer doubling over N + 1 nodes, the last a sentinel root (depth 0,
        jumping to itself) for every -1: depth[i] counts the edges from i to
        jump[i], which climbs 2^k links in round k over the whole array, with no
        compaction. The rounds gather into one buffer, which trades places with
        ``jump``, and it then holds the sort key. As depths are below N <
        2^bit_length(N), a node that has not reached the sentinel after that
        many rounds lies on a cycle (a self-link among them) or hangs off one."""
        parent = np.asarray(parent, dtype=np.int64).reshape(-1)
        n = parent.size
        if n and (parent.min() < -1 or parent.max() >= n):
            raise DataError("invalid parent index")
        # Rows a multiple of 4 KiB apart share cache sets, and at 1024² that
        # made the rounds 3x slower; 64 spare entries a row break the stride.
        depth, jump, gathered = np.empty((3, n + 65), dtype=np.int64)[:, : n + 1]
        root = np.less(parent, 0, out=depth[:n])
        np.multiply(root, n + 1, out=jump[:n])
        jump[:n] += parent  # a root's -1 becomes n
        np.subtract(1, root, out=depth[:n])
        depth[n], jump[n] = 0, n
        for _ in range(n.bit_length() + 1):
            if jump.min() == n:
                break
            # every index is in range; take's default mode copies through a buffer
            depth += np.take(depth, jump, out=gathered, mode="clip")
            jump, gathered = np.take(jump, jump, out=gathered, mode="clip"), jump
        else:
            raise DataError("parent links contain a cycle")
        depth = depth[:n]
        top = int(depth.max(initial=0))  # deepest first, stably; a 16-bit key gets numpy's radix sort
        key = gathered[:n].view(np.uint16)[:n] if top < 1 << 16 else gathered[:n]
        order = np.argsort(np.subtract(top, depth, out=key, casting="unsafe"), kind="stable")
        # Every depth from 0 to the deepest holds a node, the ancestor of a deepest one.
        sizes = np.bincount(depth, minlength=top + 1)[::-1]
        return cls(parent, np.r_[0, np.cumsum(sizes[:-1])], order)

    @classmethod
    def edgeless(cls, n: int) -> "FlowTree":
        return cls(np.broadcast_to(np.int64(-1), (n,)), np.zeros(1, dtype=np.int64))

    @property
    def order(self) -> np.ndarray:
        return np.arange(self.n_nodes) if self._order is None else self._order

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

    @cached_property
    def position(self) -> np.ndarray:
        """Each node's index in ``order``: ``order`` itself on a forest without
        edges, whose layout is node order."""
        if not self.has_edges:
            return self.order
        position = np.empty_like(self.order)
        position[self.order] = np.arange(self.n_nodes)
        return position

    @cached_property
    def up(self) -> np.ndarray | None:
        """The layout position of the parent of the node at each layout position;
        -1 at roots, and None on a forest without edges."""
        if not self.has_edges:
            return None
        up = self.position[self.parent[self.order]]
        up[self.starts[-1]:] = -1  # the roots, the last level, whose -1 read the last position
        return up

    @cached_property
    def schedule(self) -> list[tuple[int, int, int, np.ndarray]]:
        """Per non-root level, deepest first: its layout slice ``s:e``, the
        end ``pe`` of the next level ``e:pe``, which holds all its parents,
        and each node's parent as an offset into that next level."""
        if not self.has_edges:
            return []
        ends = np.cumsum([nodes.size for nodes in self.level_groups()])
        return [(s, e, pe, self.up[s:e] - e) for s, e, pe in zip(self.starts, ends, ends[1:])]


@dataclass(kw_only=True)
class GmmModel:
    """The two-class mixture: a root prior ``pi1`` (pi0 derived), per-class
    emission Gaussians, and whether the features include the elevation channel."""

    HEAD: ClassVar[tuple[str, ...]] = ("use_elevation",)  # a model file's fields before pi1
    pi1: float
    components: tuple[GaussianParams, GaussianParams]
    use_elevation: bool = False

    def __post_init__(self):
        if not 0.0 <= self.pi1 <= 1.0:  # NaN fails every comparison
            raise DataError(f"pi1 must lie in [0, 1], got {self.pi1}")
        if self.use_elevation not in (0, 1):  # NaN is neither
            raise DataError(f"use_elevation must be 0 or 1, got {self.use_elevation:g}")
        self.use_elevation = bool(self.use_elevation)

    @property
    def pi0(self) -> float:
        return 1.0 - self.pi1

    def forest(self, scene: RasterScene) -> FlowTree:
        """The forest this family's EM and prediction run on: the edgeless one."""
        return FlowTree.edgeless(scene.n_pixels)

    @property
    def dim(self) -> int:
        return self.components[0].dim


@dataclass(kw_only=True)
class HmtModel(GmmModel):
    """The mixture plus the transition strength rho, and the neighborhood of
    the flow forest it was fitted on."""

    HEAD: ClassVar[tuple[str, ...]] = ("rho", "neighborhood")
    rho: float
    neighborhood: int = 8
    use_elevation: bool = field(default=False, init=False)  # the elevation builds the forest instead

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.rho <= 1.0:
            raise DataError(f"rho must lie in (0, 1], got {self.rho}")
        if self.neighborhood not in (4, 8):
            raise DataError(f"neighborhood must be 4 or 8, got {self.neighborhood:g}")
        self.neighborhood = int(self.neighborhood)

    def forest(self, scene: RasterScene) -> FlowTree:
        """The flow forest of the scene's elevation under the model's neighborhood."""
        return build_flow_tree(scene.elevation(), self.neighborhood)

    def log_transition(self) -> np.ndarray:
        """2x2 log table indexed [child, parent]; columns are stochastic."""
        return np.array(
            [[0.0, _safe_log(1.0 - self.rho)], [-np.inf, _safe_log(self.rho)]]
        )


@dataclass
class EmTrace:
    """The models EM visited, ``models[k]`` after k updates, with the
    objective of each (`forest_em`'s log likelihood plus log prior) and its
    largest relative change from the one before (nan for the initial model)."""

    models: list[GmmModel] = field(default_factory=list)
    logliks: list[float] = field(default_factory=list)
    max_rel_changes: list[float] = field(default_factory=list)
    stop_reason: str | None = None  # "tol" (converged) or "max_iter" (stopped at the cap)

    def to_csv(self, path: str) -> None:
        """One row per model: the iteration, the model's `model_values` under
        its `model_keys`, its objective and max relative change."""
        if not self.models:
            raise IoError("empty trace")
        keys = model_keys(type(self.models[0]), self.models[0].dim)
        row = "%d" + ",%.17g" * (len(keys) + 2)
        lines = [",".join(["iter", *keys, "loglik", "maxrel"])]
        for it, (model, loglik, maxrel) in enumerate(zip(self.models, self.logliks, self.max_rel_changes)):
            lines.append(row % (it, *model_values(model).tolist(), loglik, maxrel))
        write_lines(path, "trace", lines)


def _safe_log(p: float) -> float:
    return float(np.log(p)) if p > 0.0 else -np.inf


def init_from_labels(scene: RasterScene, labels: LabelSet, use_elevation: bool) -> GmmModel:
    """Per-class unit-weight Gaussian fits to the labeled pixels, with the labeled class-1 fraction as pi1."""
    feats = scene.feature_matrix(use_elevation)
    flat, cls = labels.flat_indices(scene.width, scene.height)
    comps = []
    for c in (0, 1):
        pts = feats[flat[cls == c]]
        if pts.shape[0] < 2:
            raise InitError(f"class {c} has {pts.shape[0]} labeled samples, need at least 2")
        try:
            comps.append(weighted_mle(pts, np.ones(pts.shape[0])))
        except DegenerateError as exc:
            raise InitError(f"class {c}'s {pts.shape[0]} labeled samples: {exc}") from None
    return GmmModel(pi1=float(np.mean(cls)), components=(comps[0], comps[1]), use_elevation=use_elevation)


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
    lowest = np.full((h, w), np.inf)  # each pixel's lowest neighbor elevation so far,
    code = np.zeros((h, w), dtype=np.uint8)  # the offset it lies at,
    lower = np.empty((h, w), dtype=bool)  # and whether the offset scanned lies lower still
    # Offsets are scanned in row-major order, and only a strictly smaller
    # elevation replaces the incumbent, so equal-elevation ties keep the
    # smallest flat index automatically. Each offset is three passes with no
    # branch per pixel, so a noisy elevation's random mask costs no branch
    # misses. Where the two are equal (+0.0 and -0.0 among them), np.minimum
    # may keep either, but only strict comparisons read ``lowest``.
    for k, (dst, src) in enumerate(neighbor_slices(elev.shape, neighborhood)):
        np.less(elev[src], lowest[dst], out=lower[dst])
        np.minimum(lowest[dst], elev[src], out=lowest[dst])
        code[dst] -= (code[dst] - k) * lower[dst]  # k where lower, in wrapping uint8
    # parent = (flat + step[code] + 1) * (lowest < elev) - 1, in the pages of ``lowest``
    np.less(lowest, elev, out=lower)
    step = np.array([dr * w + dc + 1 for dr, dc in NEIGHBOR_OFFSETS[neighborhood]])
    parent = np.take(step, code, out=lowest.view(np.int64), mode="clip")
    parent += np.arange(0, h * w, w)[:, None]
    parent += np.arange(w)
    parent *= lower
    parent -= 1
    del code, lower  # freed before from_parents allocates its rounds' block
    return FlowTree.from_parents(parent)


def _log_emissions(model: GmmModel, tree: FlowTree, features: np.ndarray | Lifted,
                   out: np.ndarray | None = None) -> np.ndarray:
    """(2, N) log densities, class c in row c, in the order of the ``features``
    rows, written into ``out`` where one is given."""
    shape = np.shape(features)
    if len(shape) != 2 or shape[1] != model.dim:
        raise DimError(f"features shape {shape} does not match emission dimension {model.dim}")
    if shape[0] != tree.n_nodes:
        raise DimError(f"{shape[0]} feature rows for {tree.n_nodes} tree nodes")
    u = np.empty((2, shape[0])) if out is None else out
    for g, row in zip(model.components, u):
        log_pdf(g, features, out=row)
    return u


def _logaddexp(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ln(e^a + e^b) as max + log1p(exp(-|a - b|)), in whole-array passes
    (numpy's logaddexp is a scalar loop); -inf where both are -inf, with no
    numpy warning. Given a (2, n) ``out``, the result is ``out[0]``, and
    ``out[1]`` is its scratch."""
    hi, d = (None, None) if out is None else out
    hi = np.maximum(a, b, out=hi)
    d = np.minimum(a, b, out=d)
    # Where hi is -inf so is d, and d - hi would be nan: leave d at -inf there.
    np.subtract(d, hi, out=d, where=hi > -np.inf)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    hi += d
    return hi


def _max(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-sum's combine of a child's two states, under `_logaddexp`'s ``out``:
    the result is ``out[0]``."""
    return np.maximum(a, b, out=None if out is None else out[0])


def _upward(model: GmmModel, tree: FlowTree, u: np.ndarray, combine=_logaddexp,
            work: np.ndarray | None = None) -> float:
    """Leaf-to-root pass of sum-product, or of max-sum when ``combine`` is `_max`
    (or np.maximum, given no ``work``).

    ``u`` holds the (2, N) log emissions in ``tree``'s layout. In place, each
    non-root node's column becomes log P(y_n | flooded parent, X): its
    subtree score given y_n, times P(y_n | y_p=1), over the message it sends
    that flooded parent (under max-sum the message is the larger term, so the
    better class reads 0). Each root's column becomes its log posterior of
    y_n (under max-sum, relative to its best class). Returns the log evidence
    (the MAP log joint under max-sum), all per-node shifts telescoped back in:
    they land in one buffer, summed and checked once after the loop.

    ``work``, a (3, N) scratch, takes the shifts in row 2, and ``combine``'s
    ``out`` in the first columns of rows 0 and 1 for each level in turn;
    without it they are fresh arrays.
    """
    total = 0.0
    r = tree.starts[-1]
    if tree.has_edges:
        shifts = np.empty(r) if work is None else work[2, :r]
        stay = model.log_transition()[:, 1:]  # log P(y_n | wet parent)
        # A column is nan where its parent cannot be wet, or where the check below fails.
        with np.errstate(invalid="ignore"):
            for s, e, pe, rel in tree.schedule:
                level = u[:, s:e]
                level -= np.maximum(level[0], level[1], out=shifts[s:e])
                # One bincount per row adds the level into its parents' level. By
                # the structural zero a node's message to a dry parent is its own u0.
                u[0, e:pe] += np.bincount(rel, level[0], pe - e)
                level += stay
                to_wet = combine(level[0], level[1], out=None if work is None else work[:2, : e - s])
                u[1, e:pe] += np.bincount(rel, to_wet, pe - e)
                level -= to_wet
        total = float(shifts.sum())
        if not np.isfinite(total):
            raise DataError("contradictory clamped evidence: a node has zero likelihood in both classes")
    roots = u[:, r:]
    roots += [[_safe_log(model.pi0)], [_safe_log(model.pi1)]]
    z = combine(roots[0], roots[1], out=None if work is None else work[:2, : roots.shape[1]])
    total += float(z.sum())
    if not np.isfinite(total):
        raise DataError("contradictory clamped evidence: a root has zero probability in both classes")
    roots -= z
    return total


def _downward(tree: FlowTree, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Root-to-leaf pass over `_upward`'s ``u``: the marginals in layout order,
    written into ``out`` where one is given, ``u[1]`` among them.
    m_n = m_p * P(y_n=1 | y_p=1, X) is all the structural zero leaves to compute:
    a level is one gather and one multiply by the factors exp(min(u1, 0)), taken
    in one pass and 0 where nan (the parent cannot be wet, so m_p = 0)."""
    marginal = np.empty(tree.n_nodes) if out is None else out
    r = tree.starts[-1]
    np.exp(u[1, r:], out=marginal[r:])
    if r:
        factor = np.exp(np.minimum(u[1, :r], 0.0, out=marginal[:r]), out=marginal[:r])
        factor[np.isnan(factor)] = 0.0
    for s, e, _, _ in reversed(tree.schedule):
        marginal[s:e] *= marginal[tree.up[s:e]]
    return marginal


def e_step(model: GmmModel, tree: FlowTree, u: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Exact sum-product marginals P(y_n=1 | X) in ``tree``'s layout, from the
    (2, N) log emissions ``u`` in that layout, which the passes overwrite: the
    marginals are ``u[1]``. ``work`` is `_upward`'s scratch."""
    _upward(model, tree, u, work=work)
    return _downward(tree, u, out=u[1])


def m_step(marginal: np.ndarray, parent: np.ndarray | None, lift: Lifted, model: GmmModel,
           work: np.ndarray | None = None):
    """Closed-form update of ``model`` from the marginals P(y_n=1 | X).

    ``marginal``, ``parent`` (each node's parent index, -1 at roots, or None
    where the forest has no edges) and ``lift`` list the nodes in one order,
    whichever it is. Class 1 is fitted with weights m and class 0 with 1 - m.
    The two weightings sum to one, so one product of the lift gives both
    fits: the lighter class's statistic sums Phi @ w are computed, and the
    heavier class's are the lift's column sums minus them. The heavier class
    carries at least half the weight, so the difference cannot cancel badly,
    and a class with no weight is the lighter one and fails its own fit.

    pi1 is the mean root marginal. On a forest with edges rho is the
    expected-count MLE sum E[y_parent * y_n] / sum E[y_parent], which the
    structural zero turns into sum m_n / sum m_parent(n); with no posterior
    mass on flooded parents it is undefined and kept, with a warning. A
    forest without edges leaves rho, or a mixture's lack of one, alone.

    ``work``, an (n,) scratch, takes the weights 1 - m and the gathered
    parent marginals; without it they are fresh arrays.
    """
    n = lift.shape[0]
    marginal = np.asarray(marginal, dtype=float)
    parent = None if parent is None else np.asarray(parent)
    if marginal.shape != (n,) or parent is not None and parent.shape != (n,):
        raise DimError(f"{marginal.shape} marginals and {np.shape(parent)} parents for {n} nodes")
    if not (marginal.min() >= 0.0 and marginal.max() <= 1.0):  # NaN fails every comparison
        raise DataError("marginals must lie in [0, 1]")
    mass = float(marginal.sum())
    flooded_lighter = mass <= 0.5 * n
    sums = lift.phi @ (marginal if flooded_lighter else np.subtract(1.0, marginal, out=work))
    light = _fit_sums(lift, sums)
    heavy = _fit_sums(lift, lift.sums - sums)
    components = (heavy, light) if flooded_lighter else (light, heavy)
    if parent is None or parent.max() < 0:  # every node a root
        return replace(model, pi1=_rate(mass, n, marginal, True), components=components)
    root = parent < 0
    child = ~root
    update = {"pi1": _rate(float(np.sum(marginal, where=root)), np.count_nonzero(root), marginal, root),
              "components": components}
    # "wrap" reads a root's -1 as indexing does; take's default mode copies through a buffer
    wet_parent = np.take(marginal, parent, out=work, mode="wrap")
    den = float(np.sum(wet_parent, where=child))
    if den == 0.0:
        warnings.warn("no posterior mass on flooded parents; keeping previous rho", stacklevel=2)
    else:
        # the floor keeps the (0, 1] contract when flood mass vanishes
        rho = _rate(float(np.sum(marginal, where=child)), den, marginal, child, wet_parent)
        update["rho"] = max(rho, 1e-12)
    return replace(model, **update)


def _rate(part: float, whole: float, values: np.ndarray, where, full=1.0) -> float:
    """``part / whole``, the sum of ``values`` over that of ``full`` at ``where``;
    the largest double below 1 where that rounds to 1 while some value falls
    short, as a rate of 1 gives the shortfall zero probability."""
    rate = part / whole
    if rate >= 1.0 and not np.all(values == full, where=where):
        return float(np.nextafter(1.0, 0.0))
    return rate


def _max_rel_change(old: np.ndarray, new: np.ndarray) -> float:
    """Largest relative change of any entry from the `model_values` vector ``old`` to ``new``."""
    return float(np.max(np.abs(new - old) / (np.abs(old) + 1e-12)))


class _EmMap:
    """The EM map of one fit, in two halves: `maximize` updates a model from
    the E-step held, and `expect` replaces that E-step with a model's own,
    returning the fit's objective there. The features and the clamped labels
    are put in the forest's layout once (a forest without edges keeps node
    order, so nothing is gathered), and the messages stay in it, so every
    level is a slice and no map reorders anything. The fit's per-node arrays
    are allocated once here: the (2, N) messages ``u`` and a (3, N)
    ``work``, `_upward`'s scratch in `expect` and, in `maximize`, the
    marginals (row 1) and `m_step`'s scratch (row 0)."""

    def __init__(self, tree: FlowTree, scene: RasterScene, clamped: LabelSet, use_elevation: bool):
        self.tree = tree
        feats = scene.feature_matrix(use_elevation)
        self.features = Lifted(np.take(feats.T, tree.order, axis=1).T if tree.has_edges else feats)
        flat, self.cls = clamped.flat_indices(scene.width, scene.height)
        self.at = tree.position[flat] if tree.has_edges else flat
        self.u = np.empty((2, tree.n_nodes))
        self.work = np.empty((3, tree.n_nodes))

    def expect(self, model: GmmModel) -> float:
        """The clamped upward pass of ``model``: a clamped pixel's other class
        gets zero likelihood. Returns the log evidence plus the log prior
        -psi/2 sum_c tr(Sigma_c^-1), where tr(Sigma^-1) = |L^-1|_F^2."""
        _log_emissions(model, self.tree, self.features, out=self.u)
        self.u[1 - self.cls, self.at] = -np.inf
        loglik = _upward(model, self.tree, self.u, work=self.work)
        trace_prec = sum(float(np.sum(g._chol_inv**2)) for g in model.components)
        return loglik - 0.5 * self.features.ridge * trace_prec

    def maximize(self, model: GmmModel, it: int) -> GmmModel:
        """The downward pass of the E-step held, then `m_step`; a collapse names map ``it``."""
        try:
            marginal = _downward(self.tree, self.u, out=self.work[1])
            return m_step(marginal, self.tree.up, self.features, model, work=self.work[0])
        except DegenerateError as exc:
            raise DegenerateError(f"{exc} (iteration {it})") from exc


def _squarem_jump(like: GmmModel, x0: np.ndarray, x1: np.ndarray, x2: np.ndarray):
    """SQUAREM's extrapolation (Varadhan & Roland 2008, scheme S3) from two EM
    maps theta0 -> theta1 -> theta2, given as `model_values` vectors: theta0 -
    2 alpha r + alpha^2 v, with r = theta1 - theta0, v = theta2 - 2 theta1 +
    theta0 and alpha = min(-|r| / |v|, -1). Returns the point as (model,
    vector), in the family and dimension of ``like``; None where alpha = -1,
    whose point is theta2 itself, or where the point is not a valid model,
    an overflowing one among them. Entries no map changes (use_elevation,
    the neighborhood) have r = v = 0 and stay."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = x1 - x0
        v = (x2 - x1) - r  # exactly -r when theta2 = theta1, so a fixed point gives alpha = -1
        norm_r, norm_v = float(np.linalg.norm(r)), float(np.linalg.norm(v))
        if not 0.0 < norm_v < norm_r:  # False where a norm is nan
            return None
        alpha = -norm_r / norm_v
        x = x0 - 2.0 * alpha * r + alpha * alpha * v
    try:
        return model_from_values(x, type(like), like.dim), x
    except DataError:
        return None


def forest_em(model: GmmModel, tree: FlowTree, scene: RasterScene, clamped: LabelSet, *,
              max_iter: int, tol: float):
    """Transductive EM of ``model`` over ``tree``, one node per pixel; returns (model, EmTrace).

    The features are the scene's channels, the elevation channel among them
    where ``model.use_elevation``. The ``clamped`` pixels are hard evidence:
    their other class gets zero likelihood. Trace row k is the model after k
    EM maps, and the fit stops once a plain map moves every parameter by less
    than ``tol`` (relative), or after ``max_iter`` maps.

    Each map is a MAP-EM step under the fit's one covariance ridge
    (`gaussian._fit_sums`), so on a forest with edges, which runs plain EM,
    the penalized expected complete log likelihood never drops between rows,
    and the trace's objective, the log likelihood plus the log prior, never
    drops between any rows (up to the rounding of the lift). The edgeless
    forest (the mixtures) runs SQUAREM cycles: two maps theta0 -> theta1 ->
    theta2, whose second output is replaced by the extrapolated
    `_squarem_jump` where that is a valid model whose objective is at least
    theta1's. The jump's E-step takes the place of theta2's, so it costs no
    extra map. One plain map from an accepted jump stabilizes it; that map's
    row can stop the fit, and the next cycle starts from it. A rejected jump
    keeps theta2. Each model's `model_values` vector is built once.
    """
    if max_iter < 0:
        raise SpecError(f"max_iter must be non-negative, got {max_iter}")
    if not 0.0 <= tol < np.inf:  # NaN fails every comparison
        raise SpecError(f"tol must be finite and non-negative, got {tol}")
    em = _EmMap(tree, scene, clamped, model.use_elevation)
    trace = EmTrace()
    values = []  # each row's `model_values`

    def record(new: GmmModel, x: np.ndarray, loglik: float, plain: bool = True) -> bool:
        """Append ``new``, whose vector is ``x``, as the next row; True once the fit stops there."""
        maxrel = _max_rel_change(values[-1], x) if values else float("nan")
        values.append(x)
        trace.models.append(new)
        trace.logliks.append(loglik)
        trace.max_rel_changes.append(maxrel)
        if plain and maxrel < tol:
            trace.stop_reason = "tol"
        elif len(trace.models) > max_iter:
            trace.stop_reason = "max_iter"
        return trace.stop_reason is not None

    x = model_values(model)
    done = record(model, x, em.expect(model))
    stabilize = False  # whether the next map is the one after an accepted jump
    while not done:
        x0 = x
        model = em.maximize(model, len(trace.models))
        x = model_values(model)
        loglik = em.expect(model)
        done = record(model, x, loglik)
        if done or tree.has_edges or stabilize:
            stabilize = False
            continue
        theta2 = em.maximize(model, len(trace.models))
        x2 = model_values(theta2)
        jump = _squarem_jump(model, x0, x, x2) if _max_rel_change(x, x2) >= tol else None
        if jump is not None:
            try:
                jump_loglik = em.expect(jump[0])
            except DataError:  # zero likelihood somewhere; theta2's own E-step would say so if it were real
                jump_loglik = -np.inf
            if jump_loglik >= loglik:
                (model, x), done = jump, record(*jump, jump_loglik, plain=False)
                stabilize = True
                continue
        model, x = theta2, x2
        done = record(model, x, em.expect(model))
    return model, trace


def em_fit(
    scene: RasterScene,
    labels: LabelSet,
    *,
    max_iter: int = 100,
    tol: float = 1e-5,
    rho_init: float = 0.99,
    pi_init: float = 0.5,
    neighborhood: int = 8,
) -> tuple[HmtModel, EmTrace]:
    """`forest_em` on the flow forest over the non-elevation channels, with no
    clamped pixels; the labels only initialize the emission Gaussians."""
    components = init_from_labels(scene, labels, use_elevation=False).components
    model = HmtModel(rho=rho_init, pi1=pi_init, components=components, neighborhood=neighborhood)
    return forest_em(model, model.forest(scene), scene, LabelSet([]), max_iter=max_iter, tol=tol)


def map_decode(model: GmmModel, tree: FlowTree, u: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Exact MAP labeling in the layout, from ``u`` and ``work`` as `e_step` takes
    them: max-sum upward, then a backtrack that ands each node's best class under
    a flooded parent (u1 > u0, over the whole layout at once; ties go dry) with
    its parent's."""
    _upward(model, tree, u, _max, work)
    classes = u[1] > u[0]
    for s, e, _, _ in reversed(tree.schedule):
        # Under a dry parent the structural zero leaves only dry.
        np.logical_and(classes[s:e], classes[tree.up[s:e]], out=classes[s:e])
    return classes.view(np.uint8)


def predict(model: GmmModel, tree: FlowTree, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(MAP classes, flood marginals) in node order, from one computation of the raw
    emissions, put in ``tree``'s layout: `e_step` reads a copy, `map_decode` them,
    and both passes share one (3, N) scratch, as a fit's `_EmMap` does. A forest
    without edges keeps node order as its layout: there nothing is gathered, and
    otherwise the raw emissions' array takes the copy once they are gathered."""
    u = _log_emissions(model, tree, features)
    if tree.has_edges:
        copy, u = u, np.take(u, tree.order, axis=1)
        np.copyto(copy, u)
    else:
        copy = u.copy()
    work = np.empty((3, tree.n_nodes))
    grids = map_decode(model, tree, u, work), e_step(model, tree, copy, work)
    return tuple(g[tree.position] for g in grids) if tree.has_edges else grids


# --- model files: one key=value per line, 17-significant-digit floats ---

def model_keys(family: type[GmmModel], dim: int) -> list[str]:
    """The keys of a model file in file order: the family's ``HEAD``, pi1,
    then each class's mean and row-major covariance."""
    keys = [*family.HEAD, "pi1"]
    for c in (0, 1):
        keys += [f"mean.{c}.{i}" for i in range(dim)]
        keys += [f"cov.{c}.{i}.{j}" for i in range(dim) for j in range(dim)]
    return keys


def model_values(model: GmmModel) -> np.ndarray:
    """The parameter vector of ``model``, in the order of `model_keys`."""
    head = [getattr(model, key) for key in model.HEAD]
    g0, g1 = model.components
    return np.concatenate([head + [model.pi1], g0.mean, g0.cov.ravel(), g1.mean, g1.cov.ravel()])


def model_from_values(values, family: type[GmmModel], dim: int) -> GmmModel:
    """The ``family`` model of dimension ``dim`` whose `model_values` are
    ``values``. An invalid model is a DataError and is never repaired: a
    covariance must be symmetric and pass Cholesky as it stands, and every
    head field and pi1 must pass the family's constructor."""
    values = np.asarray(values, dtype=float)
    head, blocks = np.split(values, [values.size - 2 * dim * (dim + 1)])
    components = []
    for c, b in enumerate(blocks.reshape(2, -1)):
        cov = b[dim:].reshape(dim, dim)
        if not np.array_equal(cov, cov.T, equal_nan=True):  # a NaN gets GaussianParams' message
            raise DataError(f"class {c}'s covariance is not symmetric")
        components.append(GaussianParams(b[:dim], cov))
    fields = dict(zip([*family.HEAD, "pi1"], head.tolist(), strict=True))
    return family(**fields, components=tuple(components))


def save_model(model: GmmModel, path: str) -> None:
    """Write either family, one `model_keys` line per `model_values` entry."""
    keys = model_keys(type(model), model.dim)
    write_lines(path, "model", (f"{key}={val:.17g}" for key, val in zip(keys, model_values(model))))


def _file_shape(kv: dict) -> tuple[type[GmmModel], int]:
    """The (family, dimension) whose `model_keys` a file's keys stand for. A
    file with rho holds a tree model, and the dimension is the one whose key
    list, of length len(HEAD) + 1 + 2m(m + 1), is nearest the file's in
    length, so one missing or foreign key is named as such and does not
    shift the dimension."""
    family = HmtModel if "rho" in kv else GmmModel
    dims = range(1, math.isqrt(len(kv)) + 2)
    return family, min(dims, key=lambda m: abs(len(family.HEAD) + 1 + 2 * m * (m + 1) - len(kv)))


def load_model(path: str) -> GmmModel:
    """The model a file holds, of `_file_shape`'s family, built by
    `model_from_values`. A key outside the file's `model_keys`, one of them
    missing, or a model `model_from_values` rejects is a FormatError."""
    shape = keys = None

    def file_keys(texts: dict) -> list[str]:
        nonlocal shape, keys
        shape = _file_shape(texts)
        keys = model_keys(*shape)
        return keys

    kv = read_key_values(path, "model", file_keys, lambda key, val: float(val), FormatError)
    for key in keys:
        if key not in kv:
            raise FormatError(f"{path}: missing model key {key!r}")
    try:
        return model_from_values([kv[key] for key in keys], *shape)
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from None
