import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodem import gmm, oracle
from floodem.errors import DataError, DegenerateError, DimError, FloodemError, FormatError, InitError, SpecError
from floodem.gaussian import GaussianParams, Lifted, weighted_mle
from floodem.gmm import GmmModel
from floodem.grid import LabelSet, RasterScene, SceneSpec, generate_scene, sample_labels
from floodem.hmt import (
    FlowTree,
    _EmMap,
    _log_emissions,
    _logaddexp,
    _max_rel_change,
    HmtModel,
    build_flow_tree,
    e_step,
    em_fit,
    forest_em,
    init_from_labels,
    load_model,
    m_step,
    map_decode,
    model_from_values,
    model_keys,
    model_values,
    predict,
    save_model,
)
from floodem.oracle import assignment_log_joint, expected_complete_loglik, log_prior, pairwise_from_marginals

# --- tree construction ---


def _assert_valid(tree):
    """The depth schedule's invariants: ``order`` is a permutation, roots form
    the last level, and every parent sits one level up."""
    n = tree.n_nodes
    assert np.array_equal(np.sort(tree.order), np.arange(n))
    level = np.empty(n, dtype=np.int64)
    level[tree.order] = np.repeat(np.arange(tree.starts.size), np.diff(np.r_[tree.starts, n]))
    nonroot = tree.parent >= 0
    assert np.array_equal(tree.roots, np.flatnonzero(~nonroot))
    assert np.all(level[tree.parent[nonroot]] == level[nonroot] + 1)


def test_monotone_strip_builds_a_chain():
    tree = build_flow_tree(np.array([[1.0, 2.0, 3.0]]), neighborhood=4)
    np.testing.assert_array_equal(tree.parent, [-1, 0, 1])
    np.testing.assert_array_equal(tree.roots, [0])
    _assert_valid(tree)


def test_constant_elevation_is_all_roots():
    tree = build_flow_tree(np.zeros((3, 4)))
    assert np.all(tree.parent == -1)
    assert tree.roots.size == 12
    _assert_valid(tree)


def test_bowl_parents_match_hand_enumeration():
    elev = np.array(
        [
            [5.0, 4.0, 5.0],
            [4.0, 1.0, 4.0],
            [5.0, 4.0, 5.0],
        ]
    )
    tree = build_flow_tree(elev, neighborhood=4)
    # worked out by hand: ties go to the smallest row-major index
    np.testing.assert_array_equal(tree.parent, [1, 4, 1, 4, -1, 4, 3, 4, 5])
    np.testing.assert_array_equal(tree.roots, [4])
    _assert_valid(tree)


def test_parent_strictly_lower(rng):
    elev = rng.normal(size=(12, 9))
    for nb in (4, 8):
        tree = build_flow_tree(elev, neighborhood=nb)
        _assert_valid(tree)
        flat = elev.ravel()
        for node, p in enumerate(tree.parent):
            if p >= 0:
                assert flat[p] < flat[node]


def test_from_parents_rejects_cycles():
    with pytest.raises(DataError):
        FlowTree.from_parents(np.array([1, 0]))
    with pytest.raises(DataError):
        FlowTree.from_parents(np.array([0]))


def test_from_parents_rejects_long_and_hanging_cycles():
    with pytest.raises(DataError):
        FlowTree.from_parents(np.array([1, 2, 3, 0]))  # a 4-cycle
    with pytest.raises(DataError):
        # a valid tree 0 <- 1, next to the cycle 2 -> 3 -> 4 -> 2 with 5 hanging off it
        FlowTree.from_parents(np.array([-1, 0, 3, 4, 2, 2]))


def _reference_parents(elev, neighborhood):
    """Per-pixel scan: the lowest strictly-lower neighbor, ties to the smallest index."""
    h, w = elev.shape
    parent = np.full(h * w, -1, dtype=np.int64)
    for r in range(h):
        for c in range(w):
            best = None
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if (dr, dc) == (0, 0) or (neighborhood == 4 and dr != 0 and dc != 0):
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and elev[rr, cc] < elev[r, c]:
                        key = (elev[rr, cc], rr * w + cc)
                        best = key if best is None or key < best else best
            if best is not None:
                parent[r * w + c] = best[1]
    return parent


def _tiny_dems(rng, count, max_pixels):
    """Small integer DEMs full of plateaus and exact ties, thin strips, and flat grids."""
    shapes = [(1, max_pixels), (max_pixels, 1), (3, 4), (4, 3), (2, 5), (3, 3)]
    for k in range(count):
        h, w = shapes[k % len(shapes)]
        if k % 7 == 6:
            yield np.zeros((h, w))  # all flat: every pixel is a root
        else:
            yield rng.integers(0, 3, size=(h, w)).astype(float)


def test_tiny_dem_parents_match_a_per_pixel_scan(rng):
    for elev in _tiny_dems(rng, 60, oracle.MAX_NODES):
        for nb in (4, 8):
            tree = build_flow_tree(elev, neighborhood=nb)
            _assert_valid(tree)
            np.testing.assert_array_equal(tree.parent, _reference_parents(elev, nb))
            flat = elev.ravel()
            nonroot = tree.parent >= 0
            assert np.all(flat[tree.parent[nonroot]] < flat[nonroot])
            if np.all(flat == flat[0]):
                np.testing.assert_array_equal(tree.roots, np.arange(flat.size))


def test_signed_zeros_change_no_parent(rng):
    """The tiny DEMs with each zero's sign drawn at random: the scan's running
    minimum may keep either zero where +0.0 and -0.0 meet, but only strict
    comparisons read it, so the parents are the per-pixel scan's, and flipping
    the sign of every zero changes neither the parents nor the layout."""
    for elev in _tiny_dems(rng, 60, oracle.MAX_NODES):
        zero = elev == 0.0
        elev[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
        flipped = np.where(zero, -elev, elev)
        assert np.array_equal(np.signbit(flipped), np.signbit(elev) ^ zero)
        for nb in (4, 8):
            tree, other = build_flow_tree(elev, neighborhood=nb), build_flow_tree(flipped, neighborhood=nb)
            np.testing.assert_array_equal(tree.parent, _reference_parents(elev, nb))
            np.testing.assert_array_equal(other.parent, tree.parent)
            np.testing.assert_array_equal(other.order, tree.order)
            np.testing.assert_array_equal(other.starts, tree.starts)


def _reference_depth(parent):
    """Each node's number of links to its root, by walking them; a walk stops
    at the first node whose depth it knows, so each link is walked once."""
    parent = parent.tolist()
    depth = [-1] * len(parent)
    for node in range(len(parent)):
        path = []
        while node >= 0 and depth[node] < 0:
            path.append(node)
            node = parent[node]
        d = depth[node] if node >= 0 else -1
        for step in reversed(path):
            d += 1
            depth[step] = d
    return np.array(depth, dtype=np.int64)


def _assert_stable_depth_layout(tree):
    """``order`` and ``starts`` are the stable sort of the walked depths, deepest first."""
    depth = _reference_depth(tree.parent)
    order = np.argsort(-depth, kind="stable")
    np.testing.assert_array_equal(tree.order, order)
    np.testing.assert_array_equal(tree.starts, np.flatnonzero(np.r_[True, np.diff(depth[order]) != 0]))


@pytest.mark.parametrize("shape", [(23, 17), (17, 23), (1, 40), (40, 1), (9, 9)])
def test_mid_size_dem_parents_and_layout_match_the_references(rng, shape):
    """Beyond the enumeration sizes: integer DEMs full of ties, on grids
    whose offsets differ from one row to the next (non-square) or vanish
    (strips). The layout is the stable depth order, deepest level first."""
    for trial in range(4):
        elev = rng.integers(0, 4 + 6 * trial, size=shape).astype(float)
        for nb in (4, 8):
            tree = build_flow_tree(elev, neighborhood=nb)
            _assert_valid(tree)
            np.testing.assert_array_equal(tree.parent, _reference_parents(elev, nb))
            _assert_stable_depth_layout(tree)


@pytest.mark.parametrize("n", [2**16, 70_000])
def test_a_chain_deeper_than_a_16_bit_depth_key(n):
    """A 1 x n ramp is one chain of n levels: the depth key fits 16 bits at
    n = 2^16 and does not at 70,000; either way the layout is the chain
    from its deepest pixel to its root, one node per level."""
    tree = build_flow_tree(np.arange(float(n))[None], neighborhood=8)
    np.testing.assert_array_equal(tree.parent, np.arange(-1, n - 1))
    np.testing.assert_array_equal(tree.order, np.arange(n)[::-1])
    np.testing.assert_array_equal(tree.starts, np.arange(n))
    assert len(tree.level_groups()) == n
    np.testing.assert_array_equal(tree.roots, [0])


def _relabel(parent, rng):
    """The same forest with its nodes renamed by a random permutation."""
    perm = rng.permutation(parent.size)
    out = np.full(parent.size, -1, dtype=np.int64)
    out[perm] = np.where(parent >= 0, perm[parent], -1)
    return out


@pytest.mark.parametrize("k", range(1, 13))
def test_doubling_on_chains_at_the_round_count_boundaries(k):
    """A chain of n nodes needs ceil(log2 n) doubling rounds, and n = 2^k - 1,
    2^k and 2^k + 1 sit on either side of the round count the doubling
    allows; each chain is laid out root last, in either direction and under
    a random relabelling."""
    rng = np.random.default_rng(k)
    for n in (2**k - 1, 2**k, 2**k + 1):
        down = np.arange(-1, n - 1)  # node 0 is the root
        up = np.r_[np.arange(1, n), -1]  # node n - 1 is the root
        for parent in (down, up, _relabel(down, rng)):
            tree = FlowTree.from_parents(parent)
            assert tree.starts.size == n
            _assert_stable_depth_layout(tree)


def _random_forest(rng, n, reach, root_rate):
    """A forest on n nodes that need not be a flow forest: node i is a root
    with probability ``root_rate`` and otherwise hangs off one of the
    ``reach`` nodes before it (reach 1 grows chains, a large reach bushy
    trees), all under a random relabelling."""
    parent = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        if rng.random() >= root_rate:
            parent[i] = rng.integers(max(0, i - reach), i)
    return _relabel(parent, rng)


def test_doubling_on_random_forests_that_are_not_flow_forests():
    rng = np.random.default_rng(2024)
    forests = [np.array([-1]), np.full(257, -1)]  # one node; all roots
    for n in (2, 3, 17, 100, 1000, 3000):
        for reach in (1, 3, n):
            for root_rate in (0.0, 0.01, 0.3):
                forests.append(_random_forest(rng, n, reach, root_rate))
    for parent in forests:
        tree = FlowTree.from_parents(parent)
        _assert_valid(tree)
        _assert_stable_depth_layout(tree)


@pytest.mark.parametrize("cycle", [2, 3, 64, 1000])
def test_doubling_rejects_a_cycle_with_a_tail_next_to_a_deep_tree(cycle):
    """A cycle with a chain hanging off it never reaches a root, however deep
    the valid chain beside it, and however the nodes are named."""
    rng = np.random.default_rng(cycle)
    deep = np.arange(-1, 2000)  # a valid chain of 2,001 nodes
    ring = deep.size + np.r_[np.arange(1, cycle), 0]
    tail = np.r_[deep.size, deep.size + cycle + np.arange(0, 499)]  # 500 nodes hanging off the ring
    parent = np.r_[deep, ring, tail]
    for forest in (parent, _relabel(parent, rng)):
        with pytest.raises(DataError, match="cycle"):
            FlowTree.from_parents(forest)


def _clamped(density, model, clamp_idx, clamp_cls):
    """``density`` with the clamped pixels' other class set to zero likelihood."""

    def clamped(params, feats, **out):
        dens = density(params, feats, **out)
        cls = 0 if params is model.components[0] else 1
        dens[clamp_idx[clamp_cls != cls]] = -np.inf
        return dens

    return clamped


def test_tiny_dem_inference_matches_enumeration(rng, monkeypatch):
    from floodem import hmt

    log_pdf, log_density = hmt.log_pdf, oracle.log_density
    for k, elev in enumerate(_tiny_dems(rng, 42, 12)):
        for nb in (4, 8):
            tree = build_flow_tree(elev, neighborhood=nb)
            model, _, feats = oracle.random_tree_instance(rng, tree.n_nodes)
            clamp_idx = clamp_cls = np.zeros(0, dtype=np.int64)
            if k % 2:
                # clamp a few pixels to a flood map that respects the tree
                # (low ground floods); rho < 1 keeps a dry child of a flooded
                # parent possible
                model.rho = min(model.rho, 0.95)
                flood = elev.ravel() <= np.median(elev)
                clamp_idx = rng.choice(tree.n_nodes, size=3, replace=False)
                clamp_cls = flood[clamp_idx].astype(np.int64)
            monkeypatch.setattr(hmt, "log_pdf", _clamped(log_pdf, model, clamp_idx, clamp_cls))
            monkeypatch.setattr(oracle, "log_density", _clamped(log_density, model, clamp_idx, clamp_cls))
            om, op, _, ov = oracle.enumerate_joint(model, tree, feats)
            dec, marginal = predict(model, tree, feats)
            np.testing.assert_allclose(marginal, om, atol=1e-9)
            np.testing.assert_allclose(marginal[clamp_idx], clamp_cls, atol=1e-12)
            nonroot = tree.parent >= 0
            pairwise = pairwise_from_marginals(marginal, tree.parent)
            np.testing.assert_allclose(pairwise[nonroot], op[nonroot], atol=1e-9)
            assert assignment_log_joint(model, tree, feats, dec) == pytest.approx(ov, abs=1e-9)


def test_deep_chain_stays_finite_and_monotone():
    # a 1x4096 strictly rising ramp is one chain of 4,096 levels
    n = 4096
    tree = build_flow_tree(np.arange(float(n))[None, :], neighborhood=8)
    assert len(tree.level_groups()) == n
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(n, 1)) + np.where(np.arange(n) < n // 2, 2.0, 0.0)[:, None]
    model = HmtModel(rho=0.999, pi1=0.5, components=(_gauss(0.0), _gauss(2.0)))
    dec, marginal = predict(model, tree, feats)
    assert np.all((marginal >= 0.0) & (marginal <= 1.0))
    from floodem.hmt import _log_emissions, _upward

    loglik = _upward(model, tree, _log_emissions(model, tree, feats)[:, tree.order])
    assert np.isfinite(loglik)
    nonroot = tree.parent >= 0
    assert not np.any((dec[nonroot] == 1) & (dec[tree.parent[nonroot]] == 0))
    assert 0 < dec.sum() < n


# --- transition table ---


def test_upward_keeps_each_nodes_message_to_a_flooded_parent():
    """After `_upward` every non-root column holds log P(y_n | flooded parent, X),
    which enumeration gives as m_n / m_parent, on the 100 trees of acceptance
    criterion 1."""
    from floodem.hmt import _log_emissions, _upward

    rng = np.random.default_rng(20240817)
    worst, checked = 0.0, 0
    for _ in range(100):
        model, tree, feats = oracle.random_tree_instance(rng, int(rng.integers(2, 13)))
        marginal, _, _, _ = oracle.enumerate_joint(model, tree, feats)
        u = _log_emissions(model, tree, feats)[:, tree.order]
        _upward(model, tree, u)
        r = tree.starts[-1]
        nodes = tree.order[:r]  # the non-root layout positions come before the roots
        given_wet = marginal[nodes] / marginal[tree.parent[nodes]]
        if r:
            worst = max(worst, float(np.max(np.abs(np.exp(u[:, :r]) - [1.0 - given_wet, given_wet]))))
        checked += r
    assert checked > 300 and worst <= 1e-9


def _table(rho):
    g = GaussianParams(np.zeros(1), np.eye(1))
    return np.exp(HmtModel(rho=rho, pi1=0.5, components=(g, g)).log_transition())


def test_transition_table():
    # indexed [child, parent]
    assert _table(0.99)[1, 1] == 0.99
    assert _table(0.37)[1, 0] == 0.0
    assert _table(0.42)[0, 0] == 1.0
    assert _table(0.7)[0, 1] == pytest.approx(0.3)


def test_transition_columns_stochastic():
    model = HmtModel(
        rho=0.8, pi1=0.5,
        components=(GaussianParams(np.zeros(1), np.eye(1)),) * 2,
    )
    t = np.exp(model.log_transition())
    np.testing.assert_allclose(t.sum(axis=0), [1.0, 1.0], atol=1e-15)


# --- e_step ---


def _gauss(mu, var=1.0):
    return GaussianParams(np.array([float(mu)]), np.array([[float(var)]]))


def test_single_node_prior_only():
    model = HmtModel(rho=0.9, pi1=0.5, components=(_gauss(0.0), _gauss(0.0)))
    tree = FlowTree.from_parents(np.array([-1]))
    marginal = predict(model, tree, np.array([[1.3]]))[1]
    assert marginal[0] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.isnan(pairwise_from_marginals(marginal, tree.parent)[0]))


def test_structural_zero_propagates_exactly():
    # rho=1 chain; the root emission forces dry with overwhelming evidence
    # while the child emission is neutral, so the all-flood branch underflows
    model = HmtModel(rho=1.0, pi1=0.5, components=(_gauss(0.0), _gauss(60.0)))
    tree = FlowTree.from_parents(np.array([-1, 0]))
    feats = np.array([[0.0], [30.0]])
    marginal = predict(model, tree, feats)[1]
    assert marginal[0] == 0.0
    assert marginal[1] == 0.0
    assert pairwise_from_marginals(marginal, tree.parent)[1, 1, 0] == 0.0


def test_hard_transition_with_a_clamped_dry_leaf_gives_exact_zeros():
    # rho=1 forbids a dry child under a flooded parent, so a leaf clamped dry
    # forces its chain dry; its flood-state message is -inf, and the downward
    # pass must return exact zeros, not nan
    from floodem.hmt import _downward, _log_emissions, _upward

    model = HmtModel(rho=1.0, pi1=0.5, components=(_gauss(0.0), _gauss(1.0)))
    tree = FlowTree.from_parents(np.array([-1, 0, 1]))
    log_em = _log_emissions(model, tree, np.ones((3, 1)))
    log_em[1, 2] = -np.inf
    u = log_em[:, tree.order]
    _upward(model, tree, u)
    np.testing.assert_array_equal(_downward(tree, u), [0.0, 0.0, 0.0])


def test_a_dry_leaf_under_a_hard_chain_of_4096_levels_gives_exact_zeros(monkeypatch):
    """rho = 1 and a deepest leaf with zero flood likelihood force all 4,096
    levels dry: every non-root column of the upward pass is nan, the factors
    taken over the whole layout turn it into exact zeros, and no pass warns."""
    from floodem import hmt
    from floodem.hmt import _downward, _upward

    n = 4096
    model = HmtModel(rho=1.0, pi1=0.5, components=(_gauss(0.0), _gauss(1.0)))
    tree = FlowTree.from_parents(np.arange(-1, n - 1))
    assert tree.starts.size == n and tree.order[0] == n - 1
    u = np.zeros((2, n))
    u[1, 0] = -np.inf  # layout position 0 is the deepest leaf
    feats = np.full((n, 1), 0.5)  # equal densities: only the leaf's evidence decides
    monkeypatch.setattr(hmt, "log_pdf", _clamped(hmt.log_pdf, model, np.array([n - 1]), np.array([0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(_upward(model, tree, u))
        assert np.all(np.isnan(u[:, : n - 1]))
        marginal = _downward(tree, u)
        dec = predict(model, tree, feats)[0]
    assert np.all(marginal == 0.0)
    assert not dec.any()


class _CountingUfuncs(np.ndarray):
    """An array that counts, by name, the ufuncs it takes part in."""

    calls: dict = {}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountingUfuncs.calls[ufunc.__name__] = _CountingUfuncs.calls.get(ufunc.__name__, 0) + 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def test_edgeless_downward_is_one_exp():
    """On the edgeless forest of the mixtures' E-step every node is a root,
    and the downward pass is one exp of the messages: no minimum or nan mask
    runs over an empty non-root slice."""
    from floodem.hmt import _downward

    rng = np.random.default_rng(3)
    u = np.log(rng.uniform(size=(2, 50))).view(_CountingUfuncs)
    _CountingUfuncs.calls = {}
    marginal = _downward(FlowTree.edgeless(50), u)
    assert _CountingUfuncs.calls == {"exp": 1}
    np.testing.assert_array_equal(marginal, np.exp(np.asarray(u[1])))


def test_logaddexp_matches_numpy_within_rounding():
    rng = np.random.default_rng(8)
    n = 10**6

    def spread():
        return np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 6.0, size=n)

    a = spread()
    # Half the pairs are independent, half lie within a spread of each other,
    # so the log1p term runs over its whole range.
    b = np.where(np.arange(n) < n // 2, spread(), a + spread())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logaddexp(a, b, np.empty((2, n)))
        x = np.array([-3.5, 0.0, 2.0, 1e6])
        ninf = np.full(4, -np.inf)
        out = np.empty((2, 4))
        assert np.all(_logaddexp(ninf, ninf, out) == -np.inf)
        np.testing.assert_array_equal(_logaddexp(ninf, x, out), x)
        np.testing.assert_array_equal(_logaddexp(x, ninf, out), x)
        np.testing.assert_array_equal(_logaddexp(x, x, out), x + np.log(2.0))
    eps = np.finfo(float).eps
    bound = 4.0 * eps * (1.0 + np.maximum(np.abs(a), np.abs(b)))
    assert np.all(np.abs(got - np.logaddexp(a, b)) <= bound)


def test_pairwise_tables_consistent(rng):
    for trial in range(30):
        n = int(rng.integers(2, 13))
        model, tree, feats = oracle.random_tree_instance(rng, n)
        marginal = predict(model, tree, feats)[1]
        assert np.all((marginal >= 0.0) & (marginal <= 1.0))
        pairwise = pairwise_from_marginals(marginal, tree.parent)
        for node in np.flatnonzero(tree.parent >= 0):
            table = pairwise[node]
            assert table.sum() == pytest.approx(1.0, abs=1e-10)
            assert table[1, 0] == 0.0  # flood child under dry parent
            assert table[1].sum() == pytest.approx(marginal[node], abs=1e-10)
            assert table[:, 1].sum() == pytest.approx(
                marginal[tree.parent[node]], abs=1e-10
            )


def test_e_step_matches_enumeration(rng):
    for trial in range(30):
        n = int(rng.integers(2, 13))
        model, tree, feats = oracle.random_tree_instance(rng, n)
        om, op, _, _ = oracle.enumerate_joint(model, tree, feats)
        marginal = predict(model, tree, feats)[1]
        np.testing.assert_allclose(marginal, om, atol=1e-9)
        nonroot = np.flatnonzero(tree.parent >= 0)
        pairwise = pairwise_from_marginals(marginal, tree.parent)
        np.testing.assert_allclose(pairwise[nonroot], op[nonroot], atol=1e-9)


def test_sibling_relabeling_invariance(rng):
    model, tree, feats = oracle.random_tree_instance(rng, 11, feature_dim=2)
    perm = rng.permutation(11)
    parent2 = np.full(11, -1, dtype=np.int64)
    for node, p in enumerate(tree.parent):
        if p >= 0:
            parent2[perm[node]] = perm[p]
    tree2 = FlowTree.from_parents(parent2)
    feats2 = np.empty_like(feats)
    feats2[perm] = feats
    dec, marginal = predict(model, tree, feats)
    dec2, marginal2 = predict(model, tree2, feats2)
    np.testing.assert_allclose(marginal2[perm], marginal, atol=1e-12)
    np.testing.assert_array_equal(dec2[perm], dec)


# --- m_step ---


def _m_step(marginal, tree, feats, model):
    """`m_step` of the node-order ``marginal`` and ``feats``, gathered into ``tree``'s layout."""
    order = tree.order
    return m_step(np.asarray(marginal)[order], tree, Lifted(np.asarray(feats)[order]), model)


def test_m_step_rho_is_a_count_ratio(rng):
    # a flooded root with k of its n children flooded: k flood/flood edges
    # out of n edges under a flooded parent
    n_children, k = 5, 2
    tree = FlowTree.from_parents(np.array([-1] + [0] * n_children))
    feats = rng.normal(size=(n_children + 1, 2))
    marginal = np.array([1.0] + [1.0] * k + [0.0] * (n_children - k))
    g = GaussianParams(np.zeros(2), np.eye(2))
    model = _m_step(marginal, tree, feats, HmtModel(rho=0.5, pi1=0.5, components=(g, g)))
    assert model.rho == pytest.approx(k / n_children, abs=1e-15)
    assert model.pi1 == 1.0  # single root, flooded


def test_m_step_pi_is_average_root_marginal(rng):
    tree = FlowTree.from_parents(np.array([-1, -1, -1]))
    marginal = np.array([0.3, 0.3, 0.3])
    g = GaussianParams(np.zeros(2), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no edges: rho is left alone, without a warning
        model = _m_step(marginal, tree, rng.normal(size=(3, 2)), HmtModel(rho=0.7, pi1=0.5, components=(g, g)))
    assert model.pi1 == pytest.approx(0.3, abs=1e-15)
    assert model.rho == 0.7


def test_m_step_requires_prev_rho_when_degenerate(rng):
    # the only edge hangs off a dry parent; the flood mass sits on a second root
    tree = FlowTree.from_parents(np.array([-1, 0, -1]))
    marginal = np.array([0.0, 0.0, 0.4])
    pairwise = pairwise_from_marginals(marginal, tree.parent)
    np.testing.assert_array_equal(pairwise[1], [[1.0, 0.0], [0.0, 0.0]])  # all mass on dry/dry
    prev = HmtModel(rho=0.9, pi1=0.5, components=(_gauss(0.0), _gauss(1.0)))
    with pytest.warns(UserWarning, match="keeping previous rho"):
        model = _m_step(marginal, tree, rng.normal(size=(3, 1)), prev)
    assert model.rho == 0.9


def test_m_step_moments_match_independent_formulas(rng):
    model, tree, feats = oracle.random_tree_instance(rng, 10, feature_dim=2)
    marginal = predict(model, tree, feats)[1]
    new = _m_step(marginal, tree, feats, model)
    for cls in (0, 1):
        w = marginal if cls == 1 else 1.0 - marginal
        mean = (w[:, None] * feats).sum(axis=0) / w.sum()
        centered = feats - mean
        psi = 1e-9 * np.sum((feats - feats.mean(axis=0)) ** 2) / 2.0
        cov = ((w[:, None] * centered).T @ centered + psi * np.eye(2)) / w.sum()
        np.testing.assert_allclose(new.components[cls].mean, mean, atol=1e-12)
        np.testing.assert_allclose(new.components[cls].cov, cov, atol=1e-12)


def test_m_step_reads_the_lift_once(rng, monkeypatch):
    """Both class fits come from one product of the lift, whichever class is
    the lighter one."""
    model, tree, feats = oracle.random_tree_instance(rng, 10, feature_dim=2)
    init = Lifted.__init__

    def counting(self, points):
        init(self, points)
        self.phi = self.phi.view(_CountingUfuncs)

    monkeypatch.setattr(Lifted, "__init__", counting)
    marginal = rng.uniform(size=10) ** 4
    for m in (marginal, 1.0 - marginal):
        _CountingUfuncs.calls = {}
        _m_step(m, tree, feats, model)
        assert _CountingUfuncs.calls.get("matmul") == 1


@pytest.mark.parametrize("heavy_class", [0, 1])
def test_m_step_fits_equal_two_weighted_fits(rng, heavy_class):
    """The class fitted by difference matches its own `weighted_mle` fit, as
    the class fitted directly does, with either class the lighter one."""
    model, tree, feats = oracle.random_tree_instance(rng, 200, feature_dim=3)
    feats = feats * [1.0, 1e-3, 1e3] + [10.0, -1e4, 1e5]
    marginal = rng.uniform(size=200) ** 4
    if heavy_class == 1:
        marginal = 1.0 - marginal
    assert (marginal.sum() > 100) == (heavy_class == 1)
    new = _m_step(marginal, tree, feats, model)
    for g, w in zip(new.components, (1.0 - marginal, marginal)):
        want = weighted_mle(feats, w)
        np.testing.assert_allclose(g.mean, want.mean, rtol=1e-12, atol=0.0)
        scale = np.sqrt(np.outer(np.diag(want.cov), np.diag(want.cov)))
        assert np.all(np.abs(g.cov - want.cov) <= 1e-12 * scale)


@pytest.mark.parametrize("flooded", [0.0, 1.0])
def test_m_step_refuses_a_class_with_no_weight(rng, flooded):
    model, tree, feats = oracle.random_tree_instance(rng, 10, feature_dim=2)
    with pytest.raises(DegenerateError, match="total weight is zero"):
        _m_step(np.full(10, flooded), tree, feats, model)


@pytest.mark.parametrize("pi1", [0.0, 1.0])
def test_forest_em_names_the_map_whose_class_lost_all_weight(pi1):
    """A prior that rules a class out leaves it no posterior weight, and the
    first M-step's error names its map."""
    scene, labels = generate_scene(SceneSpec(width=8, height=8, obstacle_fraction=0.2, labels_per_class=5, seed=12))
    model = init_from_labels(scene, labels, use_elevation=False)
    model = dataclasses.replace(model, pi1=pi1)
    with pytest.raises(DegenerateError, match=r"total weight is zero \(iteration 1\)"):
        forest_em(model, FlowTree.edgeless(64), scene, LabelSet([]), max_iter=5, tol=0.0)


@pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, np.nan])
def test_m_step_refuses_a_marginal_outside_the_unit_interval(rng, bad):
    model, tree, feats = oracle.random_tree_instance(rng, 10, feature_dim=2)
    marginal = rng.uniform(size=10)
    marginal[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DataError, match=r"lie in \[0, 1\]"):
            _m_step(marginal, tree, feats, model)


def test_m_step_refuses_marginals_of_the_wrong_length(rng):
    model, tree, feats = oracle.random_tree_instance(rng, 10, feature_dim=2)
    with pytest.raises(DimError):
        m_step(np.full(9, 0.5), tree, Lifted(feats), model)
    with pytest.raises(DimError):
        m_step(np.full(10, 0.5), FlowTree.edgeless(9), Lifted(feats), model)


def test_m_step_in_the_layout_gives_the_node_order_count_ratios():
    """On random forests with shuffled node ids, edgeless ones among them, the
    update read in the layout has pi1 and rho equal to the count ratios taken
    in node order from ``tree.parent``; and the edgeless forest and the
    all-root forest built from its parents give bit-equal models."""
    rng = np.random.default_rng(32)
    with_edges = 0
    for k in range(60):
        model, tree, feats = oracle.random_tree_instance(rng, int(rng.integers(4, 13)), all_roots=k % 4 == 3)
        marginal = predict(model, tree, feats)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = _m_step(marginal, tree, feats, model)
        root = tree.parent < 0
        assert new.pi1 == pytest.approx(marginal[root].mean(), rel=1e-13, abs=0.0)
        child = np.flatnonzero(~root)
        if child.size:
            with_edges += 1
            rho = marginal[child].sum() / marginal[tree.parent[child]].sum()
            assert new.rho == pytest.approx(max(rho, 1e-12), rel=1e-13, abs=0.0)  # with m_step's floor
        else:
            assert new.rho == model.rho
    assert with_edges >= 40
    model, _, feats = oracle.random_tree_instance(rng, 50, all_roots=True)
    marginal = rng.uniform(size=50)
    edgeless = m_step(marginal, FlowTree.edgeless(50), Lifted(feats), model)
    all_roots = m_step(marginal, FlowTree.from_parents(np.full(50, -1)), Lifted(feats), model)
    assert np.array_equal(model_values(edgeless), model_values(all_roots))


def test_uninformative_emissions_with_hard_transition():
    # one connected component, identical components: posteriors are the prior,
    # and one update makes the class means coincide
    elev = np.arange(16.0).reshape(4, 4)
    tree = build_flow_tree(elev)
    assert tree.roots.size == 1
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(16, 2))
    g = GaussianParams(np.zeros(2), np.eye(2))
    model = HmtModel(rho=1.0, pi1=0.4, components=(g, g))
    marginal = predict(model, tree, feats)[1]
    np.testing.assert_allclose(marginal, 0.4, atol=1e-12)
    new = _m_step(marginal, tree, feats, model)
    np.testing.assert_allclose(new.components[0].mean, new.components[1].mean, atol=1e-12)


# --- em_fit ---


def test_em_default_hyperparameters():
    import inspect

    params = inspect.signature(em_fit).parameters
    assert params["rho_init"].default == 0.99
    assert params["pi_init"].default == 0.5
    assert params["tol"].default == 1e-5
    assert params["max_iter"].default == 100


def test_em_fit_requires_elevation(small_scene):
    scene, labels = small_scene
    bare = RasterScene(
        width=scene.width, height=scene.height, channels=scene.channels,
        data=scene.data, truth=scene.truth,
    )
    with pytest.raises(DataError):
        em_fit(bare, labels)


def test_em_fit_requires_two_labels_per_class(small_scene):
    scene, _ = small_scene
    labels = LabelSet([(0, 0, 0), (1, 1, 0), (2, 2, 1)])
    with pytest.raises(InitError):
        em_fit(scene, labels)


def test_em_fit_names_a_class_whose_labels_have_no_spread(small_scene):
    """Labeled pixels of one feature vector leave no scale for the ridge: an
    InitError naming the class, which sweep-labels records as nan."""
    scene, labels = small_scene
    data = scene.data.copy()
    flat, cls = labels.flat_indices(scene.width, scene.height)
    channels = [c for c in range(scene.channels) if c != scene.elevation_channel]
    data.reshape(scene.channels, -1)[np.ix_(channels, flat[cls == 1])] = 7.0
    with pytest.raises(InitError, match=r"class 1's \d+ labeled samples: points have no spread"):
        em_fit(dataclasses.replace(scene, data=data), labels)


def test_em_fit_expected_loglik_monotone():
    spec = SceneSpec(width=8, height=8, obstacle_fraction=0.2, labels_per_class=5, seed=12)
    scene, labels = generate_scene(spec)
    _, trace = em_fit(scene, labels)
    models = trace.models
    tree = build_flow_tree(scene.elevation())
    feats = scene.feature_matrix(use_elevation=False)
    assert len(models) >= 3
    for old, new in zip(models, models[1:]):
        marginal = predict(old, tree, feats)[1]
        q_old = expected_complete_loglik(marginal, old, tree, feats) + log_prior(old, feats)
        q_new = expected_complete_loglik(marginal, new, tree, feats) + log_prior(new, feats)
        assert q_new >= q_old - 1e-8
    logliks = trace.logliks
    for a, b in zip(logliks, logliks[1:]):
        assert b >= a - 1e-8


def test_tree_fit_stays_plain_em(acceptance_fixture):
    """On a forest with edges every row is the plain EM map of the row before:
    `m_step` of its marginals. No extrapolated row, which could lower the
    expected complete log likelihood between rows, gets in."""
    scene, labels = acceptance_fixture
    _, trace = em_fit(scene, labels)
    tree = build_flow_tree(scene.elevation())
    feats = scene.feature_matrix(use_elevation=False)
    assert trace.stop_reason == "tol" and len(trace.models) >= 3
    for old, new in zip(trace.models, trace.models[1:]):
        mapped = _m_step(predict(old, tree, feats)[1], tree, feats, old)
        np.testing.assert_allclose(model_values(mapped), model_values(new), rtol=1e-9, atol=0.0)


# Each head entry and pi1, with values just or well outside its range.
_OUT_OF_RANGE = {
    "use_elevation": (0.5, 2.0, np.nan),
    "neighborhood": (5.0, 6.0, np.nan),
    "pi1": (-1e-9, 1.0 + 1e-9, np.nan),
    "rho": (0.0, 1.0 + 1e-9, np.nan),
}


@st.composite
def _valid_models(draw):
    """A model of either family at dims 1-4, its fields drawn with their
    endpoints, and its covariances D (A A^T + I) D explicitly symmetrized."""
    family, dim = draw(st.sampled_from([GmmModel, HmtModel])), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = []
    for _ in range(2):
        a, scale = rng.normal(size=(dim, dim)), 10.0 ** rng.uniform(-3, 3, size=dim)
        cov = (a @ a.T + np.eye(dim)) * np.outer(scale, scale)
        mean = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3, size=dim)
        comps.append(GaussianParams(mean, (cov + cov.T) / 2))
    fields = {"pi1": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))}
    if family is HmtModel:
        fields["rho"] = draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True))
        fields["neighborhood"] = draw(st.sampled_from([4, 8]))
    else:
        fields["use_elevation"] = draw(st.booleans())
    return family(**fields, components=tuple(comps)), fields


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(drawn=_valid_models(), data=st.data())
def test_model_vector_round_trips_and_refuses_every_bad_entry(tmp_path_factory, drawn, data):
    """The model vector of both families at dims 1-4 (200 examples, 1.5-2 s
    on a 2-core x86-64 host, with the default BLAS threads or one):
    `model_from_values` inverts `model_values` bit for bit, save then load
    then save writes the same bytes, an out-of-range head entry or pi1 is a
    DataError from the constructor and from the vector alike, and so are
    off-diagonal covariance entries one ulp apart."""
    model, fields = drawn
    family, dim = type(model), model.dim
    values = model_values(model)
    back = model_from_values(values, family, dim)
    head = [*family.HEAD, "pi1"]
    assert type(back) is family and repr([getattr(back, k) for k in head]) == repr([fields[k] for k in head])
    assert model_values(back).tobytes() == values.tobytes()

    path = tmp_path_factory.mktemp("model") / "m.txt"
    save_model(model, str(path))
    written = path.read_bytes()
    save_model(load_model(str(path)), str(path))
    assert path.read_bytes() == written

    keys = model_keys(family, dim)
    for key in head:
        for bad in _OUT_OF_RANGE[key]:
            with pytest.raises(DataError, match=key):
                family(**{**fields, key: bad}, components=model.components)
            x = values.copy()
            x[keys.index(key)] = bad
            with pytest.raises(DataError, match=key):
                model_from_values(x, family, dim)

    if dim > 1:
        c = data.draw(st.integers(0, 1))
        i, j = data.draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        x, k = values.copy(), keys.index(f"cov.{c}.{i}.{j}")
        x[k] = np.nextafter(x[k], np.inf)
        with pytest.raises(DataError, match=f"class {c}'s covariance is not symmetric"):
            model_from_values(x, family, dim)


@pytest.mark.parametrize("tree, key, value, named", [
    (False, "cov.0.0.0", -1.0, "positive definite"),
    (True, "cov.1.0.0", 0.0, "positive definite"),
    (False, "cov.0.0.0", np.nan, "non-finite"),
    (False, "pi1", 1.5, "pi1"),
    (False, "pi1", -1e-9, "pi1"),
    (True, "rho", 0.0, "rho"),
    (True, "rho", 1.0 + 1e-9, "rho"),
    (False, "use_elevation", 0.5, "use_elevation"),
    (True, "neighborhood", 6.0, "neighborhood"),
])
def test_model_from_values_rejects_without_repair(tree, key, value, named):
    """An invalid vector is a DataError: a covariance that fails Cholesky is
    not jittered into a valid one, and no parameter is clipped into range."""
    g = GaussianParams(np.zeros(1), np.eye(1))
    model = HmtModel(rho=0.5, pi1=0.5, components=(g, g)) if tree else GmmModel(pi1=0.5, components=(g, g))
    values = model_values(model)
    values[model_keys(type(model), 1).index(key)] = value
    with pytest.raises(DataError, match=named):
        model_from_values(values, type(model), 1)


def test_em_fit_trace_first_row_is_initialization(small_scene):
    scene, labels = small_scene
    _, trace = em_fit(scene, labels, max_iter=3)
    assert isinstance(trace.models[0], HmtModel)
    assert trace.models[0].rho == 0.99
    assert trace.models[0].pi1 == 0.5
    assert np.isnan(trace.max_rel_changes[0])


def _fit(method, scene, labels, max_iter):
    if method == "hmt":
        return em_fit(scene, labels, max_iter=max_iter)
    return gmm.em_fit(scene, labels, use_elevation=method == "gmm-elev", max_iter=max_iter)


def test_trace_csv_rows_are_the_models_it_holds(small_scene, tmp_path):
    """The fitted model is the trace's last, and row k of the trace file is
    models[k]: its `model_values` under the model file's keys, with rho for
    the tree only."""
    scene, labels = small_scene
    for method in ("gmm-elev", "hmt"):
        model, trace = _fit(method, scene, labels, max_iter=5)
        assert model is trace.models[-1]
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        header, *rows = path.read_text().splitlines()
        keys = model_keys(type(model), model.dim)
        assert header.split(",") == ["iter", *keys, "loglik", "maxrel"]
        assert len(rows) == len(trace.models)
        for k, (row, m) in enumerate(zip(rows, trace.models)):
            vals = [float(v) for v in row.split(",")]
            assert vals[0] == k
            assert vals[1:-2] == list(model_values(m))


@pytest.mark.parametrize("method", ["gmm", "gmm-elev", "hmt"])
def test_a_trace_row_is_a_model_file(small_scene, tmp_path, method):
    """The parameter columns of a trace row rebuild that row's model, and each
    row's maxrel is `_max_rel_change` of its row and the one before, computed
    from the file alone: every entry the stop rule reads is in the file."""
    scene, labels = small_scene
    model, trace = _fit(method, scene, labels, max_iter=100)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    _, *rows = path.read_text().splitlines()
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    params, maxrel = table[:, 1:-2], table[:, -1]
    for x, m in zip(params, trace.models):
        back = model_from_values(x, type(m), model.dim)
        assert type(back) is type(m) and np.array_equal(model_values(back), model_values(m))
    assert np.isnan(maxrel[0])
    for k in range(1, len(rows)):
        assert maxrel[k] == _max_rel_change(params[k - 1], params[k])


def test_em_fit_shares_the_driver_stop_rules(small_scene):
    scene, labels = small_scene
    _, trace = em_fit(scene, labels, max_iter=2, tol=0.0)
    assert trace.stop_reason == "max_iter" and len(trace.models) == 3
    _, trace = em_fit(scene, labels, tol=1.0)
    assert trace.stop_reason == "tol" and trace.max_rel_changes[-1] < 1.0
    with pytest.raises(SpecError):
        em_fit(scene, labels, max_iter=-1)


def _clamped_fit(scene, labels, max_iter):
    """Tree EM with the labels as hard evidence: `forest_em` from `em_fit`'s initial model."""
    components = init_from_labels(scene, labels, use_elevation=False).components
    model = HmtModel(rho=0.99, pi1=0.5, components=components)
    tree = build_flow_tree(scene.elevation())
    return forest_em(model, tree, scene, labels, max_iter=max_iter, tol=1e-5)


def test_clamped_labels_pin_posteriors(small_scene):
    scene, labels = small_scene
    model, _ = _clamped_fit(scene, labels, max_iter=5)
    from floodem.hmt import _downward, _log_emissions, _upward

    feats = scene.feature_matrix(use_elevation=False)
    tree = build_flow_tree(scene.elevation())
    log_em = _log_emissions(model, tree, feats)
    flat, cls = labels.flat_indices(scene.width, scene.height)
    log_em[1 - cls, flat] = -np.inf
    u = log_em[:, tree.order]
    _upward(model, tree, u)
    marginal = _downward(tree, u)[tree.position]
    np.testing.assert_allclose(marginal[flat], cls.astype(float), atol=1e-12)


def test_contradictory_clamped_labels_are_a_data_error(small_scene):
    scene, labels = small_scene
    tree = build_flow_tree(scene.elevation())
    nonroot = tree.parent >= 0
    parent_is_root = tree.parent[np.maximum(tree.parent, 0)] < 0
    # A flood label under a dry-labeled parent: both of the parent's classes
    # have zero likelihood once the child's evidence reaches it. The upward
    # pass checks the roots apart from the levels below them, so the parent
    # is a root in one case and a non-root in the other.
    for under_root, where in ((True, "a root"), (False, "a node")):
        child = int(np.flatnonzero(nonroot & (parent_is_root == under_root))[0])
        parent = int(tree.parent[child])
        pair = {divmod(child, scene.width): 1, divmod(parent, scene.width): 0}
        entries = [(r, c, y) for r, c, y in labels.entries if (r, c) not in pair]
        entries += [(r, c, y) for (r, c), y in pair.items()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"contradictory clamped evidence: {where}"):
                _clamped_fit(scene, LabelSet(entries), max_iter=3)


def test_fit_on_a_constant_dem_keeps_rho_without_a_warning(small_scene):
    # a constant DEM is an all-root flow forest: no edge to update rho from
    scene, labels = small_scene
    data = scene.data.copy()
    data[scene.elevation_channel] = 1.0
    flat = dataclasses.replace(scene, data=data)
    assert not build_flow_tree(flat.elevation()).has_edges
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, trace = em_fit(flat, labels, max_iter=3, tol=0.0)
    assert isinstance(trace.models[0], HmtModel) and len(trace.models) == 4
    assert model.rho == 0.99 and all(m.rho == 0.99 for m in trace.models)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(
    kind=st.sampled_from(["edgeless", "chain", "random"]),
    rho=st.sampled_from([1e-12, 1.0]),
    pi1=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_extreme_models_give_finite_results_or_typed_errors(kind, rho, pi1, seed):
    """rho and pi1 at their extremes, on the edgeless forest with a mixture
    model, a chain and a random forest: every result is finite, or a typed
    error, and nothing emits a numpy warning."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    base, tree, feats = oracle.random_tree_instance(rng, n)
    if kind == "edgeless":
        tree, model = FlowTree.edgeless(n), GmmModel(pi1=pi1, components=base.components)
    else:
        if kind == "chain":
            tree = FlowTree.from_parents(np.arange(n) - 1)
        model = HmtModel(rho=rho, pi1=pi1, components=base.components)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the documented outcome of an update with no flood mass on any parent
        warnings.filterwarnings("ignore", "no posterior mass on flooded parents", UserWarning)
        dec, marginal = predict(model, tree, feats)
        assert np.all((marginal >= 0.0) & (marginal <= 1.0))
        nonroot = tree.parent >= 0
        assert not np.any((dec[nonroot] == 1) & (dec[tree.parent[nonroot]] == 0))
        assert np.isfinite(expected_complete_loglik(marginal, model, tree, feats))
        try:
            new = _m_step(marginal, tree, feats, model)
        except FloodemError:
            return
    assert type(new) is type(model) and 0.0 <= new.pi1 <= 1.0
    assert kind == "edgeless" or 1e-12 <= new.rho <= 1.0
    for g in new.components:
        assert np.all(np.isfinite(g.mean)) and np.all(np.isfinite(g.cov))


@pytest.mark.parametrize("method", ["gmm", "gmm-elev", "hmt"])
def test_an_em_map_allocates_no_per_node_array(method):
    """The fit allocates its messages, marginals and scratch once: after a
    warm-up map, one `maximize` plus `expect` peaks below one (N,) float
    array under tracemalloc, on the edgeless forest and on the deep forest of
    a smooth scene alike."""
    scene, labels = generate_scene(SceneSpec(width=128, height=128, obstacle_fraction=0.3,
                                             noise_sigma=0.0, seed=7))
    model = init_from_labels(scene, labels, method == "gmm-elev")
    clamped = labels
    if method == "hmt":
        model, clamped = HmtModel(rho=0.99, pi1=0.5, components=model.components), LabelSet([])
    em = _EmMap(model.forest(scene), scene, clamped, model.use_elevation)
    em.expect(model)
    model = em.maximize(model, 1)
    em.expect(model)
    tracemalloc.start()
    try:
        em.expect(em.maximize(model, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * scene.n_pixels, peak


def test_the_edgeless_forest_holds_no_per_node_array():
    """Its parents are a broadcast -1 and its layout node order, so building
    one for 65,536 nodes allocates under 64 KB (two int64 arrays are 1 MB)."""
    FlowTree.edgeless(65536)
    tracemalloc.start()
    try:
        tree = FlowTree.edgeless(65536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert tree.n_nodes == 65536 and not tree.has_edges and tree.schedule == []
    assert np.all(tree.parent == -1) and np.array_equal(tree.order, np.arange(65536))


@pytest.mark.parametrize("decode", [False, True])
def test_the_passes_run_in_predicts_scratch(decode):
    """With `predict`'s (3, N) scratch, `e_step` and `map_decode` allocate no
    per-node or per-level row of their own on the deep forest of a smooth
    128² scene: after a warm-up, each peaks below N·8 bytes beyond its output."""
    scene, labels = generate_scene(SceneSpec(width=128, height=128, obstacle_fraction=0.3,
                                             noise_sigma=0.0, seed=7))
    model = HmtModel(rho=0.9, pi1=0.5, components=init_from_labels(scene, labels, False).components)
    tree = model.forest(scene)
    n = tree.n_nodes
    u = _log_emissions(model, tree, scene.feature_matrix(False))[:, tree.order]
    work = np.empty((3, n))
    passes = map_decode if decode else e_step
    first = passes(model, tree, u.copy(), work)
    again = u.copy()
    tracemalloc.start()
    try:
        out = passes(model, tree, again, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, first)
    assert peak - out.nbytes < 8 * n, (peak, out.nbytes)


# --- map_decode ---


def test_singleton_decode_equals_pointwise_argmax(rng):
    model = HmtModel(rho=0.9, pi1=0.35, components=(_gauss(0.0), _gauss(2.0)))
    tree = FlowTree.from_parents(np.full(40, -1))
    feats = rng.normal(size=(40, 1)) * 2.0 + 1.0
    dec = predict(model, tree, feats)[0]
    from floodem.gaussian import log_pdf

    lp0 = np.log(model.pi0) + log_pdf(model.components[0], feats)
    lp1 = np.log(model.pi1) + log_pdf(model.components[1], feats)
    np.testing.assert_array_equal(dec, (lp1 > lp0).astype(np.uint8))


def test_chain_with_dry_root_decodes_all_dry():
    # children favor flood, but the root's evidence dominates and the
    # structural zero leaves no mixed assignment to fall back on
    model = HmtModel(rho=1.0, pi1=0.5, components=(_gauss(0.0), _gauss(60.0)))
    tree = FlowTree.from_parents(np.array([-1, 0, 1]))
    feats = np.array([[0.0], [35.0], [35.0]])
    from floodem.gaussian import log_pdf

    for child in (1, 2):
        row = feats[child : child + 1]
        assert log_pdf(model.components[1], row)[0] > log_pdf(model.components[0], row)[0]
    np.testing.assert_array_equal(predict(model, tree, feats)[0], [0, 0, 0])


def test_decode_matches_enumeration(rng):
    from floodem.hmt import _log_emissions, _max, _upward

    for trial in range(30):
        n = int(rng.integers(2, 13))
        model, tree, feats = oracle.random_tree_instance(rng, n)
        _, _, oa, ov = oracle.enumerate_joint(model, tree, feats)
        dec = predict(model, tree, feats)[0]
        value = assignment_log_joint(model, tree, feats, dec)
        assert value == pytest.approx(ov, abs=1e-9)
        # the max-sum upward pass alone already yields the MAP log joint
        map_value = _upward(model, tree, _log_emissions(model, tree, feats)[:, tree.order], _max)
        assert map_value == pytest.approx(ov, abs=1e-9)


def test_decode_ties_go_to_dry():
    # x=1 sits midway between unit-variance means 0 and 2, so both classes
    # emit it with exactly equal density; with pi1 = rho = 0.5 every
    # singleton root and every leaf under a flooded parent is an exact tie
    model = HmtModel(rho=0.5, pi1=0.5, components=(_gauss(0.0), _gauss(2.0)))
    elev = np.zeros((4, 6))
    elev[:, 3:] = 1.0 + np.arange(3.0)  # a plateau of roots, the first two columns childless
    tree = build_flow_tree(elev)
    assert set(np.flatnonzero(tree.parent < 0)) - set(tree.parent.tolist())  # childless roots
    np.testing.assert_array_equal(predict(model, tree, np.ones((24, 1)))[0], np.zeros(24))
    # the same tie in two dimensions, from points laid out as
    # `RasterScene.feature_matrix` lays them out: the transpose of a channel block
    pair = (GaussianParams(np.zeros(2), np.eye(2)), GaussianParams(np.full(2, 2.0), np.eye(2)))
    np.testing.assert_array_equal(predict(dataclasses.replace(model, components=pair), tree, np.ones((2, 24)).T)[0],
                                  np.zeros(24))
    # a root that clearly floods, over a tied leaf
    chain = FlowTree.from_parents(np.array([-1, 0]))
    np.testing.assert_array_equal(predict(model, chain, np.array([[10.0], [1.0]]))[0], [1, 0])


def test_decoded_maps_respect_monotone_flood(rng):
    for trial in range(10):
        model, tree, feats = oracle.random_tree_instance(rng, 12)
        dec = predict(model, tree, feats)[0]
        for node in np.flatnonzero(dec == 1):
            p = tree.parent[node]
            if p >= 0:
                assert dec[p] == 1


def test_hard_transition_uniform_emissions_single_class_components(rng):
    g = GaussianParams(np.zeros(1), np.eye(1))
    model = HmtModel(rho=1.0, pi1=0.5, components=(g, g))
    elev = rng.normal(size=(6, 6))
    tree = build_flow_tree(elev)
    dec = predict(model, tree, rng.normal(size=(36, 1)))[0]
    for node, p in enumerate(tree.parent):
        if p >= 0:
            assert dec[node] == dec[p]


@pytest.mark.parametrize("pi1, rho", [(-0.2, 0.5), (1.5, 0.5), (np.nan, 0.5), (np.inf, 0.5),
                                      (0.5, 0.0), (0.5, 1.5), (0.5, -0.1), (0.5, np.nan), (0.5, np.inf)])
def test_models_reject_out_of_range_parameters(pi1, rho):
    g = _gauss(0.0)
    with pytest.raises(DataError, match="rho" if pi1 == 0.5 else "pi1"):
        HmtModel(pi1=pi1, components=(g, g), rho=rho)
    if rho == 0.5:
        with pytest.raises(DataError, match="pi1"):
            GmmModel(pi1=pi1, components=(g, g))


def test_invariants_hold_at_512_without_the_oracle():
    """Beyond enumeration: marginals are probabilities, no flood pixel sits
    under a dry parent, traces stay finite, and the mixture's scores are
    probabilities. The canonical scene at 512² has a shallow forest with wide
    levels; the smooth one at 256² is about 94 levels deep, with many
    children per parent."""
    for spec in (SceneSpec(width=512, height=512, obstacle_fraction=0.3, seed=7),
                 SceneSpec(width=256, height=256, obstacle_fraction=0.3, noise_sigma=0.0, seed=7)):
        scene, _ = generate_scene(spec)
        labels = sample_labels(scene, 1e-3, rng_seed=7)
        model, trace = em_fit(scene, labels)
        tree = build_flow_tree(scene.elevation())
        _assert_valid(tree)
        feats = scene.feature_matrix(use_elevation=False)
        dec, marginal = predict(model, tree, feats)
        nonroot = np.flatnonzero(tree.parent >= 0)
        assert np.all((marginal >= 0.0) & (marginal <= 1.0))
        assert np.all(marginal[nonroot] <= marginal[tree.parent[nonroot]])
        assert not np.any((dec[nonroot] == 1) & (dec[tree.parent[nonroot]] == 0))
        mixture, mixture_trace = gmm.em_fit(scene, labels, use_elevation=True)
        assert np.all(np.isfinite(trace.logliks + mixture_trace.logliks))
        _, scores = gmm.score_grid(mixture, scene)
        assert np.all((scores >= 0.0) & (scores <= 1.0))


# --- files ---


def test_model_round_trip_with_rho(tmp_path, small_scene):
    scene, labels = small_scene
    model, _ = em_fit(scene, labels, max_iter=4)
    path = tmp_path / "m.txt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.rho == model.rho and loaded.pi1 == model.pi1
    for cls in (0, 1):
        np.testing.assert_array_equal(loaded.components[cls].mean, model.components[cls].mean)
        np.testing.assert_array_equal(loaded.components[cls].cov, model.components[cls].cov)


def test_model_file_keeps_the_neighborhood(tmp_path, small_scene):
    scene, labels = small_scene
    model, _ = em_fit(scene, labels, max_iter=2, neighborhood=4)
    assert model.neighborhood == 4
    path = tmp_path / "m.txt"
    save_model(model, str(path))
    assert "neighborhood=4" in path.read_text().splitlines()
    assert load_model(str(path)).neighborhood == 4
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("neighborhood=")))
    with pytest.raises(FormatError, match=re.escape("missing model key 'neighborhood'")):
        load_model(str(path))
    path.write_text("\n".join(lines).replace("neighborhood=4", "neighborhood=6"))
    with pytest.raises(FormatError):
        load_model(str(path))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    dim=st.integers(1, 4),
    tree=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    foreign=st.sampled_from(["mean.0.01", "mean.0.{dim}", "mean.2.0", "cov.1.{dim}.0", "cov.0.0",
                             "cov.0.0.00", "rh0", "pi", "pi1.0", "Rho", "mean.0.-1", "neighbourhood"]),
)
def test_model_file_round_trip_and_key_list(tmp_path_factory, dim, tree, seed, foreign):
    """save_model then load_model is bit-exact for both families at dims 1-4;
    a file missing one key names it, and a foreign key is named with its line.
    Only rho differs: without it the file is a mixture whose neighborhood key
    is foreign."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(2):
        a = rng.normal(size=(dim, dim))
        comps.append(GaussianParams(rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3, size=dim),
                                    a @ a.T + np.eye(dim)))
    fit = {"pi1": float(rng.uniform()), "components": tuple(comps)}
    model = (HmtModel(rho=float(rng.uniform(1e-3, 1.0)), neighborhood=int(rng.choice([4, 8])), **fit)
             if tree else GmmModel(**fit))
    path = tmp_path_factory.mktemp("model") / "m.txt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert type(loaded) is type(model)
    assert np.array_equal(model_values(loaded), model_values(model))

    lines = path.read_text().splitlines()
    keys = model_keys(type(model), dim)
    assert [line.split("=")[0] for line in lines] == keys
    for i, key in enumerate(keys):
        path.write_text("\n".join(lines[:i] + lines[i + 1:]) + "\n")
        named = "unknown key 'neighborhood'" if key == "rho" else f"missing model key '{key}'"
        with pytest.raises(FormatError, match=re.escape(named)):
            load_model(str(path))

    foreign = foreign.format(dim=dim)
    at = int(rng.integers(0, len(lines) + 1))
    path.write_text("\n".join(lines[:at] + [f"{foreign}=1"] + lines[at:]) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:{at + 1}: unknown key '{foreign}'")):
        load_model(str(path))


def test_load_model_builds_the_key_list_once(tmp_path, monkeypatch):
    """The (family, dimension) of a file is worked out once, from key counts,
    and its key list is built once for the reader and the model alike."""
    import floodem.hmt as hmt_module

    model = HmtModel(rho=0.5, pi1=0.5, components=(GaussianParams(np.zeros(3), np.eye(3)),) * 2)
    path = tmp_path / "m.txt"
    save_model(model, str(path))
    calls = []

    def counted(*args):
        calls.append(args)
        return model_keys(*args)

    monkeypatch.setattr(hmt_module, "model_keys", counted)
    loaded = load_model(str(path))
    assert calls == [(HmtModel, 3)]
    assert np.array_equal(model_values(loaded), model_values(model))


def test_load_model_requires_rho(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("use_elevation=1\npi1=0.5\nmean.0.0=0\nmean.1.0=1\ncov.0.0.0=1\ncov.1.0.0=1\n")
    # without rho the file holds a mixture, and the one reader says so by its type
    model = load_model(str(path))
    assert type(model) is GmmModel and model.pi1 == 0.5 and model.use_elevation
    # a mixture file must say which channels it reads
    path.write_text("pi1=0.5\nmean.0.0=0\nmean.1.0=1\ncov.0.0.0=1\ncov.1.0.0=1\n")
    with pytest.raises(FormatError, match=re.escape("missing model key 'use_elevation'")):
        load_model(str(path))


def test_a_covariance_entry_near_the_largest_double_loads_as_written(tmp_path):
    """Symmetrizing halves each entry before adding, so an entry above half
    the largest double cannot overflow: the file is a valid model, read
    exactly, and written back byte for byte."""
    path, again = tmp_path / "m.txt", tmp_path / "again.txt"
    path.write_text("use_elevation=0\npi1=0.5\nmean.0.0=0\ncov.0.0.0=1.5e+308\nmean.1.0=1\ncov.1.0.0=1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model = load_model(str(path))
        save_model(model, str(again))
    assert model.components[0].cov[0, 0] == 1.5e308
    assert again.read_bytes() == path.read_bytes()

