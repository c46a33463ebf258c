"""Semi-supervised Gaussian-mixture EM with labeled pixels as clamped evidence.

Every pixel enters the M-step weighted by its class posterior. A labeled
pixel's other class is clamped to zero likelihood, so its posterior is
exactly 0 or 1 in every iteration. Class identity is pinned by the labeled
initialization, so no post-hoc component swapping is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError, FormatError, InitError, IoError, SpecError
from .gaussian import GaussianParams, Lifted, log_pdf, weighted_mle
from .grid import LabelSet, RasterScene, read_key_values, write_lines


@dataclass
class GmmModel:
    """Two-class mixture: Bernoulli prior (pi1 stored, pi0 derived) + per-class Gaussians."""

    pi1: float
    components: tuple[GaussianParams, GaussianParams]

    @property
    def pi0(self) -> float:
        return 1.0 - self.pi1

    @property
    def dim(self) -> int:
        return self.components[0].dim


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


def init_from_labels(scene: RasterScene, labels: LabelSet, use_elevation: bool) -> GmmModel:
    """Initialize means/covariances from the labeled pixels of each class."""
    comps, pi1 = class_params_from_labels(scene, labels, use_elevation)
    return GmmModel(pi1=pi1, components=comps)


def _joint_logs(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """log P(x, y=c) in column c: (2,) for one vector, (n, 2) for a batch."""
    return np.stack(
        [log_pdf(g, x) + _safe_log(p) for g, p in zip(model.components, (model.pi0, model.pi1))],
        axis=-1,
    )


def posterior(model: GmmModel, x: np.ndarray) -> np.ndarray | float:
    """P(y = 1 | x) via log-sum-exp; accepts a single vector or a (n, m) batch."""
    lp = _joint_logs(model, x)
    out = np.exp(lp[..., 1] - np.logaddexp(lp[..., 0], lp[..., 1]))
    return float(out) if np.ndim(out) == 0 else out


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
    """The EM loop shared by both model families; returns (final model, EmTrace).

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
        prev, model = model, new
    return model, trace


def em_fit(
    scene: RasterScene,
    labels: LabelSet,
    use_elevation: bool,
    *,
    max_iter: int = 100,
    tol: float = 1e-5,
    callback=None,
) -> tuple[GmmModel, EmTrace]:
    """Run semi-supervised EM until the max relative parameter change drops below tol.

    ``callback(iteration, model)``, when given, fires for the initial model
    (iteration 0) and after every M-step.
    """
    feats = Lifted(scene.feature_matrix(use_elevation))
    n = feats.shape[0]
    flat, cls = labels.flat_indices(scene.width, scene.height)

    def e_step(model: GmmModel):
        lp = _joint_logs(model, feats)
        lp[flat, 1 - cls] = -np.inf
        lse = np.logaddexp(lp[:, 0], lp[:, 1])
        return float(lse.sum()), (lp[:, 1], lse)

    def m_step(model: GmmModel, stats) -> GmmModel:
        lp1, lse = stats
        w1 = np.exp(lp1 - lse)
        w0 = 1.0 - w1
        s1 = float(w1.sum())
        s0 = float(w0.sum())
        if s0 == 0.0 or s1 == 0.0:
            raise DegenerateError("class weight collapsed to zero")
        return GmmModel(pi1=s1 / n, components=(weighted_mle(feats, w0), weighted_mle(feats, w1)))

    model = init_from_labels(scene, labels, use_elevation)
    return run_em(model, e_step, m_step, max_iter=max_iter, tol=tol, callback=callback)


def infer(
    model: GmmModel, scene: RasterScene, use_elevation: bool, cutoff: float = 0.5
) -> np.ndarray:
    """Per-pixel class grid: 1 wherever the flood posterior reaches the cutoff."""
    return (score_grid(model, scene, use_elevation) >= cutoff).astype(np.uint8)


def score_grid(model: GmmModel, scene: RasterScene, use_elevation: bool) -> np.ndarray:
    """Per-pixel flood posterior as a (height, width) grid."""
    post = posterior(model, scene.feature_matrix(use_elevation))
    return np.asarray(post, dtype=float).reshape(scene.height, scene.width)


# --- model file format: one key=value per line, 17-significant-digit floats ---


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


def save_model(model: GmmModel, path: str) -> None:
    _write_model(path, [], model)


def model_from_kv(kv: dict[str, float], path: str) -> GmmModel:
    """A mixture model from the parsed keys of a model file."""
    if "rho" in kv:
        raise FormatError(f"{path}: has a rho key; this is a tree model file")
    return GmmModel(pi1=kv["pi1"], components=_components_from_kv(kv, path))


def load_model(path: str) -> GmmModel:
    return model_from_kv(_parse_model_file(path), path)
