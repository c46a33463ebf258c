import inspect
import math

import numpy as np
import pytest

from floodem import hmt, oracle
from floodem.errors import DegenerateError, DimError, FormatError, InitError, SpecError
from floodem.gaussian import GaussianParams
from floodem.gmm import GmmModel, em_fit, init_from_labels, score_grid
from floodem.grid import LabelSet, RasterScene, SceneSpec, generate_scene, sample_labels
from floodem.hmt import HmtModel, load_model, save_model


def _line_scene(values, truth=None):
    """A 1 x n scene from n values, or from n points of m channels."""
    chans = np.asarray(values, dtype=float).reshape(len(values), -1).T
    t = None if truth is None else np.asarray([truth], dtype=np.uint8)
    return RasterScene(
        width=chans.shape[1], height=1, channels=chans.shape[0], data=chans[:, None, :], truth=t
    )


def _posterior(model, values):
    """Flood posteriors of the pixels of a line scene, through the mixture's E-step."""
    return score_grid(model, _line_scene(values))[1][0]


def test_init_from_labels_two_point_means():
    scene = _line_scene([0.0, 2.0, 10.0, 12.0])
    labels = LabelSet([(0, 0, 0), (0, 1, 0), (0, 2, 1), (0, 3, 1)])
    model = init_from_labels(scene, labels, use_elevation=False)
    assert model.components[0].mean[0] == pytest.approx(1.0, abs=1e-15)
    assert model.components[1].mean[0] == pytest.approx(11.0, abs=1e-15)
    assert model.pi1 == 0.5


def test_init_balanced_labels_give_half_prior(small_scene):
    scene, _ = small_scene
    labels = sample_labels(scene, 0.1, rng_seed=0)
    model = init_from_labels(scene, labels, use_elevation=True)
    assert model.pi1 == 0.5


def test_init_single_label_class_rejected():
    scene = _line_scene([0.0, 2.0, 10.0])
    labels = LabelSet([(0, 0, 0), (0, 1, 0), (0, 2, 1)])
    with pytest.raises(InitError):
        init_from_labels(scene, labels, use_elevation=False)


def _sym_model():
    return GmmModel(
        pi1=0.5,
        components=(
            GaussianParams(np.array([-1.0]), np.eye(1)),
            GaussianParams(np.array([1.0]), np.eye(1)),
        ),
    )


def test_posterior_symmetry_point():
    assert _posterior(_sym_model(), [0.0])[0] == pytest.approx(0.5, abs=1e-12)


def test_an_exact_tie_decodes_dry():
    """Means at -1/4 and 1/4 and pi1 = 1/2 give x = 0 equal joint densities
    and a posterior of exactly 1/2: a mixture's classes are its MAP labeling,
    whose ties go to dry, as a tree's do, and not its posterior's rounding."""
    model = GmmModel(pi1=0.5, components=(GaussianParams([-0.25], np.eye(1)), GaussianParams([0.25], np.eye(1))))
    classes, scores = score_grid(model, _line_scene([0.0, -1.0, 1.0]))
    assert scores[0, 0] == 0.5
    np.testing.assert_array_equal(classes, [[0, 0, 1]])


def test_posterior_degenerate_prior():
    model = GmmModel(pi1=1.0, components=_sym_model().components)
    assert _posterior(model, [3.3])[0] == 1.0


def test_posterior_matches_direct_evaluation():
    # mu0=0, mu1=4, unit variances, pi=0.5, x=1 -> 1 / (1 + exp(4))
    model = GmmModel(
        pi1=0.5,
        components=(
            GaussianParams(np.array([0.0]), np.eye(1)),
            GaussianParams(np.array([4.0]), np.eye(1)),
        ),
    )
    expected = 1.0 / (1.0 + math.exp(4.0))
    assert _posterior(model, [1.0])[0] == pytest.approx(expected, abs=1e-12)


def test_posterior_complement_sums_to_one(rng):
    model = GmmModel(
        pi1=0.3,
        components=(
            GaussianParams(rng.normal(size=2), np.eye(2) * 2.0),
            GaussianParams(rng.normal(size=2), np.eye(2)),
        ),
    )
    swapped = GmmModel(pi1=0.7, components=(model.components[1], model.components[0]))
    x = rng.normal(size=(20, 2)) * 3.0
    np.testing.assert_allclose(_posterior(model, x) + _posterior(swapped, x), 1.0, atol=1e-12)


def test_posterior_dim_mismatch():
    with pytest.raises(DimError):
        _posterior(_sym_model(), np.zeros((1, 2)))


def test_em_default_hyperparameters():
    params = inspect.signature(em_fit).parameters
    assert params["tol"].default == 1e-5
    assert params["max_iter"].default == 100


def test_fully_labeled_scene_is_fixed_point_after_one_step():
    spec = SceneSpec(width=12, height=12, labels_per_class=5, seed=8)
    scene, _ = generate_scene(spec)
    labels = sample_labels(scene, 1.0, rng_seed=0)
    _, trace = em_fit(scene, labels, use_elevation=True, max_iter=4, tol=0.0)
    models = trace.models
    first = models[1]
    # supervised MLE: class means are the plain class averages
    feats = scene.feature_matrix(True)
    for cls in (0, 1):
        sel = feats[scene.truth.ravel() == cls]
        np.testing.assert_allclose(first.components[cls].mean, sel.mean(axis=0), atol=1e-10)
    for later in models[2:]:
        assert later.pi1 == first.pi1
        for cls in (0, 1):
            np.testing.assert_array_equal(later.components[cls].mean, first.components[cls].mean)
            np.testing.assert_array_equal(later.components[cls].cov, first.components[cls].cov)


def test_loglik_monotone_against_oracle():
    spec = SceneSpec(width=20, height=10, obstacle_fraction=0.2, labels_per_class=10, seed=2)
    scene, labels = generate_scene(spec)
    _, trace = em_fit(scene, labels, use_elevation=False)
    logliks = [oracle.gmm_loglik(m, scene, labels) for m in trace.models]
    assert len(logliks) >= 3
    for a, b in zip(logliks, logliks[1:]):
        assert b >= a - 1e-8


def test_trace_matches_oracle_loglik():
    spec = SceneSpec(width=10, height=10, labels_per_class=5, seed=4)
    scene, labels = generate_scene(spec)
    model, trace = em_fit(scene, labels, use_elevation=False, max_iter=5)
    assert trace.logliks[-1] == pytest.approx(
        oracle.gmm_loglik(model, scene, labels), abs=1e-8
    )


def test_prior_complement_exact(small_scene):
    scene, labels = small_scene
    model, _ = em_fit(scene, labels, use_elevation=True, max_iter=10)
    assert model.pi0 + model.pi1 == 1.0


def test_mixture_classes_are_the_joint_argmax_ties_dry(small_scene):
    scene, labels = small_scene
    model, _ = em_fit(scene, labels, use_elevation=True, max_iter=10)
    pred, _ = score_grid(model, scene)
    feats = scene.feature_matrix(True)
    from floodem.gaussian import log_pdf

    lp0 = np.log(model.pi0) + log_pdf(model.components[0], feats)
    lp1 = np.log(model.pi1) + log_pdf(model.components[1], feats)
    np.testing.assert_array_equal(pred.ravel(), (lp1 > lp0).astype(np.uint8))


def test_converged_parameters_permutation_invariant():
    spec = SceneSpec(width=12, height=12, obstacle_fraction=0.2, labels_per_class=8, seed=6)
    scene, labels = generate_scene(spec)
    model, _ = em_fit(scene, labels, use_elevation=False)

    rng = np.random.default_rng(0)
    perm = rng.permutation(scene.n_pixels)
    flat = scene.data.reshape(scene.channels, -1)[:, perm]
    truth = scene.truth.ravel()[perm].reshape(scene.height, scene.width)
    shuffled = RasterScene(
        width=scene.width, height=scene.height, channels=scene.channels,
        data=flat.reshape(scene.data.shape), elevation_channel=scene.elevation_channel,
        truth=truth,
    )
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    moved = []
    for r, c, y in labels.entries:
        new_flat = inverse[r * scene.width + c]
        moved.append((int(new_flat) // scene.width, int(new_flat) % scene.width, y))
    model2, _ = em_fit(shuffled, LabelSet(moved), use_elevation=False)

    assert model2.pi1 == pytest.approx(model.pi1, abs=1e-10)
    for cls in (0, 1):
        np.testing.assert_allclose(
            model2.components[cls].mean, model.components[cls].mean, atol=1e-10
        )
        np.testing.assert_allclose(
            model2.components[cls].cov, model.components[cls].cov, atol=1e-10
        )


def test_model_serialization_round_trip_exact(tmp_path, small_scene):
    scene, labels = small_scene
    model, _ = em_fit(scene, labels, use_elevation=True, max_iter=7)
    path = tmp_path / "m.txt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.pi1 == model.pi1
    for cls in (0, 1):
        np.testing.assert_array_equal(loaded.components[cls].mean, model.components[cls].mean)
        np.testing.assert_array_equal(loaded.components[cls].cov, model.components[cls].cov)


def test_load_model_rejects_tree_files(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("rho=0.5\nneighborhood=8\npi1=0.5\nmean.0.0=0\nmean.1.0=1\ncov.0.0.0=1\ncov.1.0.0=1\n")
    # the one reader returns the family the file holds: a rho key means a tree model
    model = load_model(str(path))
    assert type(model) is HmtModel and model.rho == 0.5 and model.neighborhood == 8


# --- the shared EM driver ---


def test_em_stop_reason_names_tol_or_cap(small_scene):
    scene, labels = small_scene
    _, trace = em_fit(scene, labels, use_elevation=False, max_iter=3, tol=0.0)
    assert trace.stop_reason == "max_iter" and len(trace.models) == 4
    _, trace = em_fit(scene, labels, use_elevation=False, max_iter=100, tol=1.0)
    assert trace.stop_reason == "tol" and trace.max_rel_changes[-1] < 1.0
    _, trace = em_fit(scene, labels, use_elevation=False, max_iter=0)
    assert trace.stop_reason == "max_iter" and len(trace.models) == 1


def test_em_rejects_negative_max_iter(small_scene):
    scene, labels = small_scene
    with pytest.raises(SpecError, match="max_iter"):
        em_fit(scene, labels, use_elevation=False, max_iter=-1)
    for tol in (float("nan"), float("inf"), -1.0):  # tol=0 stays valid: it forces the cap
        with pytest.raises(SpecError, match="tol"):
            em_fit(scene, labels, use_elevation=False, tol=tol)


def test_accelerated_mixture_reaches_the_fixed_point(acceptance_fixture):
    """SQUAREM on the acceptance fixture: gmm-elev stops on tol within the
    default cap, where plain EM stops at the cap, and one more plain map from
    the result moves every parameter by less than tol."""
    scene, labels = acceptance_fixture
    model, trace = em_fit(scene, labels, use_elevation=True)
    assert trace.stop_reason == "tol" and len(trace.models) - 1 < 100
    assert model.use_elevation
    tree = hmt.FlowTree.edgeless(scene.n_pixels)
    _, after = hmt.forest_em(model, tree, scene, labels, max_iter=1, tol=0.0)
    assert len(after.models) == 2 and after.max_rel_changes[1] < 1e-5


@pytest.mark.parametrize("use_elevation", [False, True])
def test_squarem_stabilizes_each_accepted_jump(acceptance_fixture, monkeypatch, use_elevation):
    """The row after an accepted jump is one plain EM map of it, and the next
    cycle starts from that row, so accepted jumps lie at least three rows
    apart. Rows stay models the oracle scores as the trace does, never worse
    than the row before, and the fit takes at most max_iter maps."""
    scene, labels = acceptance_fixture
    jumps, real = [], hmt._squarem_jump

    def spy(*args):
        out = real(*args)
        if out is not None:
            jumps.append(out[0])
        return out

    monkeypatch.setattr(hmt, "_squarem_jump", spy)
    _, trace = em_fit(scene, labels, use_elevation=use_elevation, max_iter=100)
    monkeypatch.undo()
    rows = [k for k, m in enumerate(trace.models) if any(m is j for j in jumps)]
    assert rows and len(trace.models) - 1 <= 100
    assert all(b - a >= 3 for a, b in zip(rows, rows[1:]))
    tree = hmt.FlowTree.edgeless(scene.n_pixels)
    for k in rows[:-1] if rows[-1] == len(trace.models) - 1 else rows:
        _, plain = hmt.forest_em(trace.models[k], tree, scene, labels, max_iter=1, tol=0.0)
        np.testing.assert_allclose(hmt.model_values(trace.models[k + 1]), hmt.model_values(plain.models[1]),
                                   rtol=1e-9, atol=0.0)
    for a, b in zip(trace.logliks, trace.logliks[1:]):
        assert b >= a
    for m, loglik in zip(trace.models, trace.logliks):
        assert loglik == pytest.approx(oracle.gmm_loglik(m, scene, labels), rel=1e-6)


def test_run_em_numbers_the_failing_update(small_scene, monkeypatch):
    scene, labels = small_scene
    real, calls = hmt.m_step, []

    def m_step(marginal, parent, features, model, **work):
        calls.append(model)
        if len(calls) == 2:
            raise DegenerateError("collapsed")
        return real(marginal, parent, features, model, **work)

    monkeypatch.setattr(hmt, "m_step", m_step)
    with pytest.raises(DegenerateError, match=r"collapsed \(iteration 2\)"):
        em_fit(scene, labels, use_elevation=False, max_iter=5, tol=0.0)
    assert len(calls) == 2


def test_malformed_mean_key_is_a_format_error(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("pi1=0.5\nmean.0.0=0\nmean.0.x=1\nmean.1.0=1\ncov.0.0.0=1\ncov.1.0.0=1\n")
    with pytest.raises(FormatError, match="mean.0.x"):
        load_model(str(path))
