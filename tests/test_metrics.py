import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodem.errors import DataError, EmptyError
from floodem.metrics import (
    ROC_BLOCK,
    RocCurve,
    class_report,
    roc_auc,
    salt_pepper_count,
    write_roc_csv,
)
from gamma_reference import gamma_index


def test_perfect_prediction_scores_one(rng):
    truth = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
    report = class_report(truth, truth)
    for cls in (0, 1):
        assert report.classes[cls].precision == 1.0
        assert report.classes[cls].recall == 1.0
        assert report.classes[cls].f1 == 1.0
    assert report.avg_f == 1.0


def test_total_inversion_scores_zero():
    truth = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    report = class_report(1 - truth, truth)
    for cls in (0, 1):
        assert report.classes[cls].precision == 0.0
        assert report.classes[cls].recall == 0.0
        assert report.classes[cls].f1 == 0.0
    assert report.avg_f == 0.0


def test_hand_confusion_matrix():
    truth = np.array([[1, 1, 1, 0]], dtype=np.uint8)
    pred = np.ones((1, 4), dtype=np.uint8)
    report = class_report(pred, truth)
    flood = report.classes[1]
    assert flood.precision == pytest.approx(0.75)
    assert flood.recall == 1.0
    assert flood.f1 == pytest.approx(6.0 / 7.0)
    dry = report.classes[0]
    assert dry.precision == 0.0 and dry.recall == 0.0 and dry.f1 == 0.0


def test_report_symmetric_under_relabeling(rng):
    truth = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
    pred = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
    a = class_report(pred, truth)
    b = class_report(1 - pred, 1 - truth)
    for cls in (0, 1):
        assert a.classes[cls].precision == b.classes[1 - cls].precision
        assert a.classes[cls].recall == b.classes[1 - cls].recall
        assert a.classes[cls].f1 == b.classes[1 - cls].f1
    assert a.avg_f == b.avg_f


def test_report_mask_and_empty():
    truth = np.array([[0, 1]], dtype=np.uint8)
    pred = np.array([[0, 0]], dtype=np.uint8)
    masked = class_report(pred, truth, mask=np.array([[True, False]]))
    assert masked.classes[0].f1 == 1.0
    with pytest.raises(EmptyError):
        class_report(pred, truth, mask=np.zeros((1, 2), dtype=bool))


def test_roc_perfect_and_constant():
    truth = np.array([0, 0, 1, 1])
    perfect = roc_auc(truth.astype(float), truth)
    assert perfect.auc == 1.0
    np.testing.assert_array_equal(perfect.points, [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    constant = roc_auc(np.full(4, 0.7), truth)
    assert constant.auc == 0.5
    np.testing.assert_array_equal(constant.points, [[0.0, 0.0], [1.0, 1.0]])


def test_roc_worked_example():
    curve = roc_auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert curve.auc == 0.75
    np.testing.assert_array_equal(
        curve.points, [[0.0, 0.0], [0.0, 0.5], [0.5, 0.5], [0.5, 1.0], [1.0, 1.0]]
    )


def test_roc_rejects_mis_shaped_scores():
    # same size, other shape: flattening would pair the wrong pixels
    truth = np.array([[0, 1, 0], [1, 0, 1]])
    with pytest.raises(DataError):
        roc_auc(np.zeros((3, 2)), truth)
    with pytest.raises(DataError):
        roc_auc(np.zeros(6), truth)


def _full_sweep(scores, truth):
    """Integer (fp, tp) counts at (0, 0) and at every distinct score, highest first."""
    fp, tp = [0], [0]
    for value in sorted(set(scores.tolist()), reverse=True):
        at = scores == value
        fp.append(fp[-1] + int(np.sum(at & (truth == 0))))
        tp.append(tp[-1] + int(np.sum(at & (truth == 1))))
    return np.array(fp), np.array(tp)


def _collinear(fp, tp, a, b, c):
    return (fp[b] - fp[a]) * (tp[c] - tp[b]) == (tp[b] - tp[a]) * (fp[c] - fp[b])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(2, 60),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_roc_points_are_the_vertices_of_the_full_sweep(n, tied, seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=n)
    truth[0], truth[1] = 0, 1
    if tied:
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
    else:
        scores = rng.normal(size=n)
    curve = roc_auc(scores, truth)
    fp, tp = _full_sweep(scores, truth)
    full = np.stack([fp / np.sum(truth == 0), tp / np.sum(truth == 1)], axis=1)

    # an in-order subsequence of the full sweep, float for float
    kept, j = [], 0
    for point in curve.points:
        while j < len(full) and not np.array_equal(full[j], point):
            j += 1
        assert j < len(full), "a point missing from the full sweep, or out of order"
        kept.append(j)
        j += 1
    assert kept[0] == 0 and kept[-1] == len(full) - 1
    np.testing.assert_array_equal(curve.points[0], [0.0, 0.0])
    np.testing.assert_array_equal(curve.points[-1], [1.0, 1.0])
    # every dropped point lies on the segment between its kept neighbours
    for a, b in zip(kept, kept[1:]):
        for m in range(a + 1, b):
            assert _collinear(fp, tp, a, m, b)
    # and every kept interior point is a turn
    for a, b, c in zip(kept, kept[1:], kept[2:]):
        assert not _collinear(fp, tp, a, b, c)
    assert np.trapezoid(curve.points[:, 1], curve.points[:, 0]) == pytest.approx(curve.auc, abs=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    n=st.integers(2, 3 * ROC_BLOCK),
    levels=st.none() | st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=ROC_BLOCK - 1, levels=None, seed=0)  # n + 1 vertices: one full block
@example(n=ROC_BLOCK, levels=None, seed=0)  # one row into a second block
@example(n=2 * ROC_BLOCK, levels=None, seed=1)  # three blocks
def test_roc_file_holds_one_exact_row_per_vertex(tmp_path_factory, n, levels, seed):
    """The ROC file is its header plus one %.17g row per vertex, whether the
    curve fills part of a block or several, and each coordinate reads back to
    its point exactly. Scores take 1 to 3 tied values, or are distinct with
    the classes alternating down the sweep, so that every point is a vertex."""
    rng = np.random.default_rng(seed)
    if levels is None:
        scores = rng.normal(size=n)
        truth = np.empty(n, dtype=np.int64)
        truth[np.argsort(scores)] = np.arange(n) % 2
    else:
        scores = rng.integers(0, levels, size=n) / 4
        truth = rng.integers(0, 2, size=n)
        truth[0], truth[1] = 0, 1
    curve = roc_auc(scores, truth)
    if levels is None:
        assert len(curve.points) == n + 1
    path = tmp_path_factory.mktemp("roc") / "roc.csv"
    write_roc_csv(curve, str(path))
    text = path.read_text()
    assert text == "fpr,tpr\n" + "".join(f"{f:.17g},{t:.17g}\n" for f, t in curve.points.tolist())
    rows = text.splitlines()[1:]
    assert rows[0] == "0,0" and rows[-1] == "1,1"
    read = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(read, curve.points)


def test_roc_requires_both_classes():
    with pytest.raises(EmptyError):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_roc_rejects_non_finite():
    with pytest.raises(DataError):
        roc_auc(np.array([0.1, np.nan]), np.array([0, 1]))


def _pairwise_auc(scores, truth):
    pos = scores[truth == 1]
    neg = scores[truth == 0]
    wins = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_roc_equals_pairwise_count_with_ties(rng):
    for _ in range(100):
        n = int(rng.integers(2, 25))
        truth = rng.integers(0, 2, size=n)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
        assert roc_auc(scores, truth).auc == _pairwise_auc(scores, truth)


def test_roc_antisymmetry(rng):
    # identity is exact in counts; each side rounds one final division
    for _ in range(50):
        n = int(rng.integers(2, 30))
        truth = rng.integers(0, 2, size=n)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        scores = rng.choice([0.1, 0.2, 0.3, 0.4], size=n)
        a = roc_auc(scores, truth).auc
        b = roc_auc(-scores, truth).auc
        assert a + b == pytest.approx(1.0, abs=1e-15)


def test_roc_curve_shape(rng):
    truth = rng.integers(0, 2, size=40)
    truth[0], truth[1] = 0, 1
    scores = rng.normal(size=40)
    curve = roc_auc(scores, truth)
    assert isinstance(curve, RocCurve)
    np.testing.assert_array_equal(curve.points[0], [0.0, 0.0])
    np.testing.assert_array_equal(curve.points[-1], [1.0, 1.0])
    diffs = np.diff(curve.points, axis=0)
    assert np.all(diffs >= 0)
    assert 0.0 <= curve.auc <= 1.0


def test_gamma_uniform_neighborhood():
    pred = np.ones((3, 3), dtype=np.uint8)
    assert gamma_index(pred, (1, 1), neighborhood=8) == 1.0


def test_gamma_full_disagreement():
    pred = np.zeros((3, 3), dtype=np.uint8)
    pred[1, 1] = 1
    assert gamma_index(pred, (1, 1), neighborhood=4) == -1.0


def test_gamma_three_of_four():
    pred = np.array(
        [
            [0, 1, 0],
            [1, 1, 1],
            [0, 0, 0],
        ],
        dtype=np.uint8,
    )
    # center is flood with neighbors (1,0): flood, (0,1): flood, (1,2): flood, (2,1): dry
    assert gamma_index(pred, (1, 1), neighborhood=4) == pytest.approx(0.5)


def test_gamma_border_uses_existing_neighbors():
    pred = np.array([[1, 0]], dtype=np.uint8)
    assert gamma_index(pred, (0, 0), neighborhood=4) == -1.0
    assert gamma_index(np.array([[1]], dtype=np.uint8), (0, 0)) == 0.0


def test_gamma_bounds_and_flip_invariance(rng):
    pred = rng.integers(0, 2, size=(7, 7)).astype(np.uint8)
    for r in range(7):
        for c in range(7):
            g = gamma_index(pred, (r, c))
            assert -1.0 <= g <= 1.0
            assert gamma_index(1 - pred, (r, c)) == g


def test_salt_pepper_uniform_grid():
    assert salt_pepper_count(np.ones((5, 5), dtype=np.uint8)) == 0


def test_salt_pepper_checkerboard_counts_every_interior_pixel():
    board = np.indices((6, 6)).sum(axis=0) % 2
    for r in range(1, 5):
        for c in range(1, 5):
            assert gamma_index(board, (r, c), neighborhood=4) == -1.0
    # with shrinking borders, the border pixels disagree maximally too
    assert salt_pepper_count(board, neighborhood=4) == 36


def test_salt_pepper_single_flip():
    pred = np.ones((5, 5), dtype=np.uint8)
    pred[2, 2] = 0
    assert salt_pepper_count(pred, neighborhood=4) == 1


def test_salt_pepper_flip_invariance(rng):
    pred = rng.integers(0, 2, size=(9, 9)).astype(np.uint8)
    for nb in (4, 8):
        assert salt_pepper_count(pred, nb) == salt_pepper_count(1 - pred, nb)


def test_salt_pepper_matches_per_pixel_gamma(rng):
    pred = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
    for nb in (4, 8):
        direct = sum(
            1
            for r in range(8)
            for c in range(8)
            if gamma_index(pred, (r, c), nb) < 0
        )
        assert salt_pepper_count(pred, nb) == direct
