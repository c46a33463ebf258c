"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the canonical experiment is a 128x128 obstacle scene (obstacle
fraction 0.3, median water level, label ratio 1e-3, seed 7).
"""

import math
import time

import numpy as np
import pytest

from floodem import cli, gmm, hmt, metrics, oracle
from floodem.grid import SceneSpec, generate_scene, sample_labels, save_scene


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# decoded tree maps from the canonical scene and the sweep, checked in criterion 10
_DECODED_HMT_MAPS: list[tuple[np.ndarray, "hmt.FlowTree"]] = []


@pytest.fixture(scope="module")
def tree_instances():
    rng = np.random.default_rng(20240817)
    out = []
    for _ in range(100):
        n = int(rng.integers(2, 13))
        out.append(oracle.random_tree_instance(rng, n))
    return out


@pytest.fixture(scope="module")
def canonical():
    """Train and evaluate all three methods once on the canonical scene."""
    start = time.monotonic()
    spec = SceneSpec(width=128, height=128, obstacle_fraction=0.3, seed=7)
    scene, _ = generate_scene(spec)
    labels = sample_labels(scene, 1e-3, rng_seed=7)
    results = {}
    for method, use_elev in (("gmm", False), ("gmm-elev", True)):
        model, _ = gmm.em_fit(scene, labels, use_elevation=use_elev)
        pred, scores = gmm.score_grid(model, scene)
        results[method] = {
            "avg_f": metrics.class_report(pred, scene.truth).avg_f,
            "auc": metrics.roc_auc(scores, scene.truth).auc,
            "noise": metrics.salt_pepper_count(pred),
        }
    model, _ = hmt.em_fit(scene, labels)
    tree = model.forest(scene)
    decoded, marginal = hmt.predict(model, tree, scene.feature_matrix(use_elevation=False))
    pred = decoded.reshape(scene.height, scene.width)
    results["hmt"] = {
        "avg_f": metrics.class_report(pred, scene.truth).avg_f,
        "auc": metrics.roc_auc(marginal.reshape(pred.shape), scene.truth).auc,
        "noise": metrics.salt_pepper_count(pred),
    }
    _DECODED_HMT_MAPS.append((decoded, tree))
    results["elapsed"] = time.monotonic() - start
    results["scene"] = scene
    return results


def test_criterion_1_tree_posteriors_match_enumeration(tree_instances):
    start = time.monotonic()
    worst = 0.0
    for model, tree, feats in tree_instances:
        om, op, _, _ = oracle.enumerate_joint(model, tree, feats)
        marginal = hmt.predict(model, tree, feats)[1]
        worst = max(worst, float(np.max(np.abs(marginal - om))))
        nonroot = np.flatnonzero(tree.parent >= 0)
        if nonroot.size:
            pairwise = oracle.pairwise_from_marginals(marginal, tree.parent)
            worst = max(worst, float(np.max(np.abs(pairwise[nonroot] - op[nonroot]))))
    elapsed = time.monotonic() - start
    _report(
        1,
        worst <= 1e-9 and elapsed < 30.0,
        f"100 trees, max |posterior - enumeration| = {worst:.3g}, {elapsed:.1f}s",
    )


def test_criterion_2_map_decoding_matches_enumeration(tree_instances):
    start = time.monotonic()
    worst = 0.0
    mismatched_without_tie = 0
    for model, tree, feats in tree_instances:
        _, _, oa, ov = oracle.enumerate_joint(model, tree, feats)
        dec = hmt.predict(model, tree, feats)[0]
        value = oracle.assignment_log_joint(model, tree, feats, dec)
        worst = max(worst, abs(value - ov))
        if not np.array_equal(dec, oa) and abs(value - ov) > 1e-9:
            mismatched_without_tie += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        worst <= 1e-9 and mismatched_without_tie == 0 and elapsed < 30.0,
        f"100 trees, max |value - maximum| = {worst:.3g}, "
        f"{mismatched_without_tie} non-tie mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_em_objectives_non_decreasing():
    worst_gmm = worst_hmt = 0.0
    for k in range(10):
        spec = SceneSpec(
            width=32, height=32, obstacle_fraction=0.15 + 0.02 * k,
            labels_per_class=8, seed=100 + k,
        )
        scene, labels = generate_scene(spec)

        _, trace = gmm.em_fit(scene, labels, use_elevation=False)
        logliks = [oracle.gmm_loglik(m, scene, labels) for m in trace.models]
        for a, b in zip(logliks, logliks[1:]):
            worst_gmm = max(worst_gmm, a - b)

        _, trace = hmt.em_fit(scene, labels)
        tmodels = trace.models
        tree = hmt.build_flow_tree(scene.elevation())
        feats = scene.feature_matrix(use_elevation=False)
        for old, new in zip(tmodels, tmodels[1:]):
            marginal = hmt.predict(old, tree, feats)[1]
            # The M-step maximizes the expectation plus the covariance log prior.
            q_old = oracle.expected_complete_loglik(marginal, old, tree, feats) + oracle.log_prior(old, feats)
            q_new = oracle.expected_complete_loglik(marginal, new, tree, feats) + oracle.log_prior(new, feats)
            worst_hmt = max(worst_hmt, q_old - q_new)
    _report(
        3,
        worst_gmm <= 1e-8 and worst_hmt <= 1e-8,
        f"10 scenes; worst mixture drop {worst_gmm:.3g}, worst tree objective drop {worst_hmt:.3g}",
    )


def test_criterion_4_supervised_fixed_point():
    spec = SceneSpec(width=16, height=16, labels_per_class=5, seed=21)
    scene, _ = generate_scene(spec)
    labels = sample_labels(scene, 1.0, rng_seed=0)
    _, trace = gmm.em_fit(scene, labels, use_elevation=True, max_iter=4, tol=0.0)
    models = trace.models
    worst = 0.0
    for a, b in zip(models[1:], models[2:]):
        worst = max(worst, abs(b.pi1 - a.pi1))
        for cls in (0, 1):
            worst = max(worst, float(np.max(np.abs(
                b.components[cls].mean - a.components[cls].mean))))
            worst = max(worst, float(np.max(np.abs(
                b.components[cls].cov - a.components[cls].cov))))
    _report(4, worst <= 1e-12, f"max parameter change after iteration 1 = {worst:.3g}")


def test_criterion_5_avg_f_trend(canonical):
    f_gmm = canonical["gmm"]["avg_f"]
    f_elev = canonical["gmm-elev"]["avg_f"]
    f_hmt = canonical["hmt"]["avg_f"]
    elapsed = canonical["elapsed"]
    ok = (
        f_hmt >= 0.93
        and f_elev >= f_gmm + 0.05
        and f_hmt >= f_elev - 0.02
        and elapsed < 120.0
    )
    _report(
        5,
        ok,
        f"avg F: hmt {f_hmt:.4f} / gmm-elev {f_elev:.4f} / gmm {f_gmm:.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_salt_pepper_trend(canonical):
    n_gmm = canonical["gmm"]["noise"]
    n_elev = canonical["gmm-elev"]["noise"]
    n_hmt = canonical["hmt"]["noise"]
    ok = n_hmt < n_elev < n_gmm and n_hmt <= 0.2 * n_elev
    _report(6, ok, f"salt-and-pepper: hmt {n_hmt} < gmm-elev {n_elev} < gmm {n_gmm}")


def test_criterion_7_roc(canonical):
    auc_gmm = canonical["gmm"]["auc"]
    auc_elev = canonical["gmm-elev"]["auc"]
    ordering = auc_elev > auc_gmm

    rng = np.random.default_rng(77)
    exact_matches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        truth = rng.integers(0, 2, size=n)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        if rng.random() < 0.5:
            scores = rng.choice(np.linspace(0.0, 1.0, 5), size=n)  # heavy ties
        else:
            scores = rng.normal(size=n)
        auc = metrics.roc_auc(scores, truth).auc
        pos = scores[truth == 1]
        neg = scores[truth == 0]
        wins = sum(1 for p in pos for q in neg if p > q)
        ties = sum(1 for p in pos for q in neg if p == q)
        if auc == (wins + 0.5 * ties) / (len(pos) * len(neg)):
            exact_matches += 1
    _report(
        7,
        ordering and exact_matches == 1000,
        f"AUC gmm-elev {auc_elev:.4f} > gmm {auc_gmm:.4f}; "
        f"{exact_matches}/1000 exact pairwise-count matches",
    )


@pytest.fixture(scope="module")
def sweep_results(canonical, tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    scene = canonical["scene"]
    scene_path = root / "scene.sgrid"
    save_scene(scene, str(scene_path))
    rc = cli.main(
        [
            "sweep-labels",
            "--scene", str(scene_path),
            "--ratios", "1e-4,1e-3,1e-2,5e-2",
            "--seeds", "1,2,3",
            "--out", str(root),
        ]
    )
    assert rc == 0
    table: dict = {}
    for line in (root / "sweep.csv").read_text().splitlines()[1:]:
        method, ratio, seed, avg_f, _reason = line.split(",", 4)
        table.setdefault(method, {}).setdefault(float(ratio), []).append(float(avg_f))

    # register the decoded tree maps behind the sweep cells for criterion 10
    feats = scene.feature_matrix(use_elevation=False)
    tree = hmt.build_flow_tree(scene.elevation())
    for ratio in (1e-3, 1e-2, 5e-2):
        for seed in (1, 2, 3):
            labels = sample_labels(scene, ratio, rng_seed=seed)
            model, _ = hmt.em_fit(scene, labels)
            _DECODED_HMT_MAPS.append((hmt.predict(model, tree, feats)[0], tree))
    return table


def test_criterion_8_label_ratio_sweep_shape(sweep_results):
    ratios = sorted(next(iter(sweep_results.values())).keys())
    monotone = True
    details = []
    for method, by_ratio in sweep_results.items():
        means = [float(np.mean(by_ratio[r])) for r in ratios]
        finite = [m for m in means if not math.isnan(m)]
        for a, b in zip(finite, finite[1:]):
            if b < a - 0.03:
                monotone = False
        details.append(f"{method}: " + "/".join("nan" if math.isnan(m) else f"{m:.3f}" for m in means))
    hmt_means = [float(np.mean(sweep_results["hmt"][r])) for r in ratios]
    plateau = max(m for m in hmt_means if not math.isnan(m))
    smallest = hmt_means[0]
    hmt_poor_at_smallest = math.isnan(smallest) or smallest <= plateau - 0.03
    _report(
        8,
        monotone and hmt_poor_at_smallest,
        "mean avg F by ratio " + "; ".join(details),
    )


def test_criterion_9_gamma_unit_suite():
    ok = True
    pred = np.ones((3, 3), dtype=np.uint8)
    ok &= metrics.gamma_index(pred, (1, 1), neighborhood=8) == 1.0
    lonely = np.zeros((3, 3), dtype=np.uint8)
    lonely[1, 1] = 1
    ok &= metrics.gamma_index(lonely, (1, 1), neighborhood=4) == -1.0
    three_of_four = np.array([[0, 1, 0], [1, 1, 1], [0, 0, 0]], dtype=np.uint8)
    ok &= metrics.gamma_index(three_of_four, (1, 1), neighborhood=4) == 0.5
    ok &= metrics.salt_pepper_count(np.ones((5, 5), dtype=np.uint8)) == 0
    board = (np.indices((6, 6)).sum(axis=0) % 2).astype(np.uint8)
    interior_counted = all(
        metrics.gamma_index(board, (r, c), neighborhood=4) == -1.0
        for r in range(1, 5)
        for c in range(1, 5)
    )
    ok &= interior_counted
    _report(9, bool(ok), "all gamma-index and salt-and-pepper examples exact")


def test_criterion_10_decoded_maps_monotone(canonical, sweep_results):
    checked = 0
    violations = 0
    for classes, tree in _DECODED_HMT_MAPS:
        checked += 1
        for node in np.flatnonzero(classes == 1):
            p = tree.parent[node]
            while p >= 0:
                if classes[p] != 1:
                    violations += 1
                    break
                p = tree.parent[p]
    _report(
        10,
        checked >= 10 and violations == 0,
        f"{checked} decoded maps, {violations} flood pixels with a dry ancestor",
    )
