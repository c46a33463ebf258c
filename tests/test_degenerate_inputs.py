"""Degenerate inputs end to end: a tiny scene either fits or fails with a typed error.

Scenes of 1x1 to 5x5 pixels carry one to three feature channels, each random,
tied (three distinct values), exactly collinear with the channel before,
constant, or random around 1e9, and an elevation channel that is flat, tied
or random. The labels are a random subset of the pixels with random classes.
Every method runs through the verbs' own steps (``cli._train``,
``cli._predict``, ``cli._evaluate``) at ``max_iter`` 0, 1, 5 or 50, initial
rho 0.5, 0.99 or 1 and initial pi 0, 0.5 or 1, with every numpy
RuntimeWarning an error. A run must end in a ``FloodemError``, or in finite
scores in [0, 1] from a fit whose objective never drops. For a mixture, the
tree on a flat DEM's edgeless forest among them, that is the trace's log
likelihood plus the covariance log prior. For a tree fit on a forest with
edges it is the penalized expected complete log likelihood,
`oracle.expected_complete_loglik` plus `oracle.log_prior`, under one row's
E-step from that row to the next.

A drop counts once it exceeds what rounding allows at the two rows'
conditioning: 64 ulps of 1 + |objective|, times the largest condition number
of any class covariance in the two rows.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from floodem import cli, hmt, oracle
from floodem.errors import FloodemError
from floodem.grid import LabelSet, RasterScene

CHANNELS = ("random", "tied", "collinear", "constant", "offset")


def _slack(value: float, *models) -> float:
    kappa = max(np.linalg.cond(g.cov) for m in models for g in m.components)
    return 64.0 * np.finfo(float).eps * kappa * (1.0 + abs(value))


def _scene(rng, width: int, height: int, kinds, elevation: str) -> RasterScene:
    n = width * height
    chans = []
    for kind in kinds:
        if kind == "random":
            chans.append(rng.normal(size=n) * 10.0)
        elif kind == "tied":
            chans.append(rng.integers(0, 3, size=n).astype(float))
        elif kind == "collinear":
            chans.append(2.0 * chans[-1] + 1.0 if chans else rng.normal(size=n))
        elif kind == "constant":
            chans.append(np.full(n, 3.0))
        else:
            chans.append(1e9 + rng.normal(size=n))
    chans.append({"flat": np.zeros(n), "tied": rng.integers(0, 2, size=n) * 1.0,
                  "random": rng.normal(size=n)}[elevation])
    return RasterScene(width=width, height=height, channels=len(chans), data=np.array(chans),
                       elevation_channel=len(kinds), truth=rng.integers(0, 2, size=(height, width)))


def _check_fit(scene: RasterScene, model, trace) -> None:
    """A mixture's trace objective never drops; nor does a tree fit's penalized Q."""
    tree = hmt.build_flow_tree(scene.elevation(), model.neighborhood) if isinstance(model, hmt.HmtModel) else None
    if tree is None or not tree.has_edges:  # a mixture, the edgeless tree among them (it runs SQUAREM)
        for a, b, old, new in zip(trace.logliks, trace.logliks[1:], trace.models, trace.models[1:]):
            assert b >= a - _slack(a, old, new), f"objective fell from {a!r} to {b!r}"
        return
    feats = scene.feature_matrix(False)
    for old, new in zip(trace.models, trace.models[1:]):
        marginal = hmt.predict(old, tree, feats)[1]
        q_old, q_new = (oracle.expected_complete_loglik(marginal, m, tree, feats) + oracle.log_prior(m, feats)
                        for m in (old, new))
        assert q_new >= q_old - _slack(q_old, old, new), f"Q fell from {q_old!r} to {q_new!r}"


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    width=st.integers(1, 5),
    height=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=3),
    elevation=st.sampled_from(["flat", "tied", "random"]),
    max_iter=st.sampled_from([0, 1, 5, 50]),
    rho=st.sampled_from([0.5, 0.99, 1.0]),
    pi=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_degenerate_scenes_fit_or_fail_typed(width, height, kinds, elevation, max_iter, rho, pi, seed):
    rng = np.random.default_rng(seed)
    scene = _scene(rng, width, height, kinds, elevation)
    n = scene.n_pixels
    picked = rng.permutation(n)[: rng.integers(0, n + 1)]
    labels = LabelSet(np.column_stack([picked // width, picked % width, rng.integers(0, 2, size=picked.size)]))
    cfg = cli.RunConfig(max_iter=max_iter, rho=rho, pi=pi)
    for method in cli.METHODS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # the documented outcome of an update with no flood mass on any parent
            warnings.filterwarnings("ignore", "no posterior mass on flooded parents", UserWarning)
            try:
                model, trace = cli._train(method, scene, labels, cfg)
            except FloodemError:
                continue
            _check_fit(scene, model, trace)
            try:
                classes, scores = cli._predict(model, scene)
            except FloodemError:
                continue
            assert np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0
            assert classes.shape == (height, width)
            try:
                cli._evaluate(classes, scores, scene.truth, None, cfg.neighborhood)
            except FloodemError:
                pass
