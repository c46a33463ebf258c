import itertools
import math

import numpy as np
import pytest

from floodem.errors import CapError
from floodem.gaussian import GaussianParams, log_pdf
from floodem.gmm import GmmModel
from floodem.grid import LabelSet, RasterScene
from floodem.hmt import FlowTree, HmtModel, e_step
from floodem.oracle import (
    assignment_log_joint,
    enumerate_joint,
    expected_complete_loglik,
    gmm_loglik,
    random_tree_instance,
)


def _gauss(mu):
    return GaussianParams(np.array([float(mu)]), np.eye(1))


def test_single_node_is_bayes_rule():
    model = HmtModel(rho=0.9, pi1=0.3, components=(_gauss(0.0), _gauss(2.0)))
    tree = FlowTree.from_parents(np.array([-1]))
    x = np.array([[1.2]])
    marg, pairwise, assign, value = enumerate_joint(model, tree, x)
    w0 = 0.7 * math.exp(log_pdf(model.components[0], x[0]))
    w1 = 0.3 * math.exp(log_pdf(model.components[1], x[0]))
    assert marg[0] == pytest.approx(w1 / (w0 + w1), abs=1e-12)
    assert np.all(np.isnan(pairwise[0]))
    assert assign[0] == (1 if w1 > w0 else 0)
    assert value == pytest.approx(math.log(max(w0, w1)), abs=1e-12)


def test_hard_transition_kills_mixed_assignments():
    model = HmtModel(rho=1.0, pi1=0.5, components=(_gauss(0.0), _gauss(1.0)))
    tree = FlowTree.from_parents(np.array([-1, 0]))
    marg, pairwise, _, _ = enumerate_joint(model, tree, np.array([[0.4], [0.6]]))
    assert pairwise[1, 1, 0] == 0.0  # flood child under dry parent
    assert pairwise[1, 0, 1] == 0.0  # rho=1 also forbids dry child under flood parent
    assert pairwise[1, 0, 0] + pairwise[1, 1, 1] == pytest.approx(1.0, abs=1e-12)


def test_marginals_and_pairwise_are_consistent(rng):
    model, tree, feats = random_tree_instance(rng, 9)
    marg, pairwise, _, _ = enumerate_joint(model, tree, feats)
    np.testing.assert_array_compare(lambda a, b: a <= b, marg, np.ones_like(marg))
    for node in np.flatnonzero(tree.parent >= 0):
        assert pairwise[node].sum() == pytest.approx(1.0, abs=1e-12)
        assert pairwise[node][1].sum() == pytest.approx(marg[node], abs=1e-12)
        assert pairwise[node][:, 1].sum() == pytest.approx(marg[tree.parent[node]], abs=1e-12)


def test_expected_complete_loglik_matches_enumeration(rng):
    # E[log P(a, X) | X] summed over every assignment a; an impossible
    # assignment has P(a | X) = 0 and contributes 0 even where log P is -inf
    for trial in range(30):
        model, tree, feats = random_tree_instance(rng, int(rng.integers(2, 9)), all_roots=trial % 10 == 9)
        assignments = itertools.product((0, 1), repeat=tree.n_nodes)
        log_joint = np.array([assignment_log_joint(model, tree, feats, a) for a in assignments])
        posterior = np.exp(log_joint - np.logaddexp.reduce(log_joint))
        terms = np.multiply(posterior, log_joint, out=np.zeros_like(posterior), where=posterior > 0.0)
        reference = float(terms.sum())
        got = expected_complete_loglik(e_step(model, tree, feats), model, tree, feats)
        assert got == pytest.approx(reference, rel=1e-9, abs=0.0)


def test_enumeration_cap():
    model = HmtModel(rho=0.9, pi1=0.5, components=(_gauss(0.0), _gauss(1.0)))
    tree = FlowTree.from_parents(np.concatenate([[-1], np.zeros(20, dtype=np.int64)]))
    with pytest.raises(CapError):
        enumerate_joint(model, tree, np.zeros((21, 1)))


def _mixture(mu0=0.0, mu1=5.0, pi1=0.5):
    return GmmModel(pi1=pi1, components=(_gauss(mu0), _gauss(mu1)))


def test_gmm_loglik_fully_labeled_scene():
    scene = RasterScene(width=2, height=1, channels=1, data=np.array([0.0, 5.0]))
    labels = LabelSet([(0, 0, 0), (0, 1, 1)])
    model = _mixture()
    got = gmm_loglik(model, scene, labels, use_elevation=False)
    # The prior: psi = 1e-9 * (2.5^2 + 2.5^2) / 1, times -1/2 (1 + 1), for
    # two unit-variance classes.
    expected = (
        math.log(0.5) + log_pdf(model.components[0], np.array([0.0]))
        + math.log(0.5) + log_pdf(model.components[1], np.array([5.0]))
        - 0.5 * 1.25e-8 * 2.0
    )
    assert got == pytest.approx(expected, abs=1e-12)


def test_gmm_loglik_single_unlabeled_pixel_at_mode():
    scene = RasterScene(width=1, height=1, channels=1, data=np.array([0.0]))
    model = _mixture()
    got = gmm_loglik(model, scene, LabelSet([]), use_elevation=False)
    n0 = math.exp(-0.5 * math.log(2 * math.pi))
    n1 = math.exp(-0.5 * math.log(2 * math.pi) - 12.5)
    # One point has no spread, so its prior term is 0.
    assert got == pytest.approx(math.log(0.5 * n0 + 0.5 * n1), abs=1e-12)
