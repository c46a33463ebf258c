"""Semi-supervised Gaussian-mixture EM: `floodem.hmt`'s EM on the edgeless forest.

With every pixel a root, the upward pass is the mixture's log-sum-exp and the
marginals are its responsibilities. Labeled pixels are clamped evidence, so
their posterior is exactly 0 or 1 in every iteration; class identity is
pinned by the labeled initialization, so no component swapping is needed.
The model, `GmmModel`, its file format and its initialization from the
labels, `init_from_labels`, live in `floodem.hmt`, whose tree model is this
mixture plus a transition.
"""

from __future__ import annotations

import numpy as np

from .grid import LabelSet, RasterScene
from .hmt import EmTrace, FlowTree, GmmModel, e_step, forest_em, init_from_labels


def em_fit(
    scene: RasterScene,
    labels: LabelSet,
    use_elevation: bool,
    *,
    max_iter: int = 100,
    tol: float = 1e-5,
) -> tuple[GmmModel, EmTrace]:
    """Run semi-supervised EM from `init_from_labels` until the max relative
    parameter change drops below tol; the labels are clamped throughout."""
    model = init_from_labels(scene, labels, use_elevation)
    return forest_em(model, FlowTree.edgeless(scene.n_pixels), scene, labels, max_iter=max_iter, tol=tol)


def score_grid(model: GmmModel, scene: RasterScene) -> np.ndarray:
    """Per-pixel flood posterior as a (height, width) grid: the E-step on the
    edgeless forest, over the channels ``model.use_elevation`` names."""
    marginal = e_step(model, FlowTree.edgeless(scene.n_pixels), scene.feature_matrix(model.use_elevation))
    return marginal.reshape(scene.height, scene.width)
