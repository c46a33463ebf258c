"""Semi-supervised Gaussian-mixture EM: `floodem.hmt`'s EM on the edgeless forest.

With every pixel a root, the upward pass is the mixture's log-sum-exp and the
marginals are its responsibilities. Labeled pixels are clamped evidence, so
their posterior is exactly 0 or 1 in every iteration; class identity is
pinned by the labeled initialization, so no component swapping is needed.
The model, `GmmModel`, and its file format live in `floodem.hmt`, whose tree
model is this mixture plus a transition.
"""

from __future__ import annotations

import numpy as np

from .grid import LabelSet, RasterScene
from .hmt import EmTrace, FlowTree, GmmModel, class_params_from_labels, e_step, forest_em


def init_from_labels(scene: RasterScene, labels: LabelSet, use_elevation: bool) -> GmmModel:
    """Initialize means/covariances from the labeled pixels of each class."""
    comps, pi1 = class_params_from_labels(scene, labels, use_elevation)
    return GmmModel(pi1=pi1, components=comps)


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
    model = init_from_labels(scene, labels, use_elevation)
    return forest_em(model, FlowTree.edgeless(scene.n_pixels), scene, labels, use_elevation=use_elevation,
                     max_iter=max_iter, tol=tol, callback=callback)


def infer(
    model: GmmModel, scene: RasterScene, use_elevation: bool, cutoff: float = 0.5
) -> np.ndarray:
    """Per-pixel class grid: 1 wherever the flood posterior reaches the cutoff."""
    return (score_grid(model, scene, use_elevation) >= cutoff).astype(np.uint8)


def score_grid(model: GmmModel, scene: RasterScene, use_elevation: bool) -> np.ndarray:
    """Per-pixel flood posterior as a (height, width) grid: the E-step on the edgeless forest."""
    posteriors = e_step(model, FlowTree.edgeless(scene.n_pixels), scene.feature_matrix(use_elevation))
    return posteriors.marginal.reshape(scene.height, scene.width)
