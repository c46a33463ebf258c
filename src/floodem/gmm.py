"""Semi-supervised Gaussian-mixture EM: `floodem.hmt`'s EM and prediction on the edgeless forest.

With every pixel a root, the upward pass is the mixture's log-sum-exp, the
marginals are its responsibilities, and the MAP labeling floods where
pi1 N1(x) > pi0 N0(x), ties dry. Labeled pixels are clamped evidence, so
their posterior is exactly 0 or 1 in every iteration; class identity is
pinned by the labeled initialization, so no component swapping is needed.
The model, `GmmModel`, its file format and `init_from_labels` live in
`floodem.hmt`, whose tree model is this mixture plus a transition.
"""

from __future__ import annotations

import numpy as np

from .grid import LabelSet, RasterScene
from .hmt import EmTrace, GmmModel, forest_em, init_from_labels, predict


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
    return forest_em(model, model.forest(scene), scene, labels, max_iter=max_iter, tol=tol)


def score_grid(model: GmmModel, scene: RasterScene) -> tuple[np.ndarray, np.ndarray]:
    """(class grid, flood-score grid): `hmt.predict` on the model's forest, reshaped to the scene."""
    grids = predict(model, model.forest(scene), scene.feature_matrix(model.use_elevation))
    return tuple(g.reshape(scene.height, scene.width) for g in grids)
