import re
import struct

import numpy as np
import pytest

from floodem import cli, gmm, hmt, metrics
from floodem.errors import DataError, FormatError, IoError, SpecError
from floodem.grid import (
    MAGIC,
    NEIGHBOR_OFFSETS,
    LabelSet,
    RasterScene,
    SceneSpec,
    generate_scene,
    load_labels,
    load_scene,
    neighbor_slices,
    sample_labels,
    save_labels,
    save_scene,
)


def test_round_trip_2x2x1(tmp_path):
    scene = RasterScene(width=2, height=2, channels=1, data=np.array([1.0, 2.0, 3.0, 4.0]))
    path = tmp_path / "s.sgrid"
    save_scene(scene, str(path))
    loaded = load_scene(str(path))
    np.testing.assert_array_equal(loaded.data, scene.data)
    assert loaded.width == 2 and loaded.height == 2 and loaded.channels == 1
    assert loaded.elevation_channel is None and loaded.truth is None


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.sgrid"
    path.write_bytes(b"XXGRID1\x00" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_scene(str(path))


def test_elevation_channel_round_trips(tmp_path):
    scene = RasterScene(
        width=3, height=3, channels=2, data=np.arange(18.0), elevation_channel=1
    )
    path = tmp_path / "e.sgrid"
    save_scene(scene, str(path))
    assert load_scene(str(path)).elevation_channel == 1


def test_exact_bytes_minimal_scene(tmp_path):
    scene = RasterScene(width=1, height=1, channels=1, data=np.array([0.0]))
    path = tmp_path / "m.sgrid"
    save_scene(scene, str(path))
    expected = MAGIC + struct.pack("<IIIB", 1, 1, 1, 0) + struct.pack("<d", 0.0)
    assert path.read_bytes() == expected


def test_truth_flag_set_and_clear(tmp_path):
    with_truth = RasterScene(
        width=2, height=1, channels=1, data=np.array([0.0, 1.0]),
        truth=np.array([[0, 1]], dtype=np.uint8),
    )
    p1 = tmp_path / "t.sgrid"
    save_scene(with_truth, str(p1))
    raw = p1.read_bytes()
    assert raw[len(MAGIC) + 12] == 0x02  # flags byte: truth bit only
    assert len(raw) == len(MAGIC) + 13 + 16 + 2
    loaded = load_scene(str(p1))
    np.testing.assert_array_equal(loaded.truth, with_truth.truth)

    without = RasterScene(width=2, height=1, channels=1, data=np.array([0.0, 1.0]))
    p2 = tmp_path / "n.sgrid"
    save_scene(without, str(p2))
    raw = p2.read_bytes()
    assert raw[len(MAGIC) + 12] == 0x00
    assert len(raw) == len(MAGIC) + 13 + 16


def test_truncated_and_trailing_bytes(tmp_path):
    scene = RasterScene(width=2, height=2, channels=1, data=np.arange(4.0))
    path = tmp_path / "s.sgrid"
    save_scene(scene, str(path))
    raw = path.read_bytes()
    (tmp_path / "trunc.sgrid").write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        load_scene(str(tmp_path / "trunc.sgrid"))
    (tmp_path / "trail.sgrid").write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        load_scene(str(tmp_path / "trail.sgrid"))


def test_corrupt_scene_files_are_format_errors_and_exit_3(tmp_path, capsys):
    scene = RasterScene(
        width=3, height=2, channels=2, data=np.arange(12.0), elevation_channel=1,
        truth=np.array([[0, 1, 0], [1, 1, 0]], dtype=np.uint8),
    )
    path = tmp_path / "s.sgrid"
    save_scene(scene, str(path))
    raw = path.read_bytes()
    payload = raw[len(MAGIC) + 17 :]  # after the header and the elevation index
    cases = [(f"truncated to {k} bytes", raw[:k]) for k in range(len(raw))]
    cases.append(("one trailing byte", raw + b"\x00"))
    big = 2**32 - 1
    for w, h, c, flags in [(big, big, big, 0), (big, big, 3, 3), (65536, 65536, 4, 0), (3, 2, 3, 3),
                           (3, 2, 0, 0), (big, big, 0, 0), (0, 2, 2, 3), (3, 0, 2, 2), (3, 2, 2, 0x83)]:
        header = MAGIC + struct.pack("<IIIB", w, h, c, flags) + struct.pack("<I", 1) * (flags & 1)
        cases += [(f"header {w}x{h}x{c} flags {flags:#x}", header + payload), (f"bare header {w}x{h}x{c}", header)]
    cases.append(("elevation channel out of range", MAGIC + struct.pack("<IIIBI", 3, 2, 2, 3, 2) + payload))
    train = ["train", "--method", "gmm", "--scene", str(path), "--ratio", "0.5", "--seed", "1",
             "--out", str(tmp_path / "run")]
    for what, blob in cases:
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            load_scene(str(path))
        assert cli.main(train) == 3, what
        assert str(path) in capsys.readouterr().err, what


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "nan.sgrid"
    blob = MAGIC + struct.pack("<IIIB", 1, 1, 1, 0) + struct.pack("<d", float("nan"))
    path.write_bytes(blob)
    with pytest.raises(DataError):
        load_scene(str(path))


def test_round_trip_random_scenes(tmp_path, rng):
    for k in range(8):
        h, w, c = (int(v) for v in rng.integers(1, 7, size=3))
        truth = rng.integers(0, 2, size=(h, w)).astype(np.uint8) if k % 2 else None
        elev = int(rng.integers(0, c)) if k % 3 else None
        scene = RasterScene(
            width=w, height=h, channels=c,
            data=rng.normal(size=(c, h, w)), elevation_channel=elev, truth=truth,
        )
        path = tmp_path / f"r{k}.sgrid"
        save_scene(scene, str(path))
        loaded = load_scene(str(path))
        np.testing.assert_array_equal(loaded.data, scene.data)
        assert loaded.elevation_channel == scene.elevation_channel
        if truth is None:
            assert loaded.truth is None
        else:
            np.testing.assert_array_equal(loaded.truth, truth)


def test_generate_separable_scene_is_perfectly_classifiable():
    spec = SceneSpec(
        width=24, height=24, n_features=1,
        class_means=np.array([[0.0], [100.0]]),
        class_covs=np.array([[[25.0]], [[25.0]]]),
        obstacle_fraction=0.0, noise_sigma=0.0,
        labels_per_class=10, rng_seed=11,
    )
    scene, labels = generate_scene(spec)
    model, _ = gmm.em_fit(scene, labels, use_elevation=False)
    pred = gmm.infer(model, scene, use_elevation=False)
    assert metrics.class_report(pred, scene.truth).avg_f == 1.0


def test_obstacle_pixels_share_distribution_across_classes():
    # classes far from the obstacle cloud so obstacle pixels are identifiable
    spec = SceneSpec(
        width=64, height=64, n_features=1, obstacle_fraction=0.3, noise_sigma=0.0,
        class_means=np.array([[0.0], [200.0]]),
        class_covs=np.array([[[1.0]], [[1.0]]]),
        obstacle_mean=np.array([100.0]), obstacle_cov=np.array([[1.0]]),
        labels_per_class=20, rng_seed=5,
    )
    scene, _ = generate_scene(spec)
    feats = scene.feature_matrix(use_elevation=False)[:, 0]
    flat_truth = scene.truth.ravel()
    is_obstacle = np.abs(feats - 100.0) < 50.0
    flood_mid = feats[is_obstacle & (flat_truth == 1)]
    dry_mid = feats[is_obstacle & (flat_truth == 0)]
    assert flood_mid.size > 100 and dry_mid.size > 100
    assert abs(flood_mid.mean() - dry_mid.mean()) < 0.2


def test_generate_deterministic_per_seed():
    spec = SceneSpec(width=16, height=16, obstacle_fraction=0.25, labels_per_class=5, rng_seed=42)
    s1, l1 = generate_scene(spec)
    s2, l2 = generate_scene(spec)
    np.testing.assert_array_equal(s1.data, s2.data)
    np.testing.assert_array_equal(s1.truth, s2.truth)
    assert l1.entries == l2.entries


def test_truth_depends_only_on_elevation():
    base = SceneSpec(width=16, height=16, labels_per_class=5, rng_seed=9)
    other = SceneSpec(
        width=16, height=16, labels_per_class=5, rng_seed=9,
        class_means=np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]]),
        obstacle_fraction=0.5, noise_sigma=20.0,
    )
    s1, _ = generate_scene(base)
    s2, _ = generate_scene(other)
    np.testing.assert_array_equal(s1.truth, s2.truth)


def test_water_level_out_of_range_rejected():
    spec = SceneSpec(width=8, height=8, water_level=1e6)
    with pytest.raises(SpecError):
        generate_scene(spec)


def test_spec_invariants():
    with pytest.raises(SpecError):
        SceneSpec(obstacle_fraction=1.5)
    with pytest.raises(SpecError):
        SceneSpec(class_covs=np.stack([-np.eye(3)] * 2))


def test_sample_labels_ratio_one_labels_everything():
    spec = SceneSpec(width=10, height=10, labels_per_class=5, rng_seed=1)
    scene, _ = generate_scene(spec)
    labels = sample_labels(scene, 1.0, rng_seed=0)
    assert len(labels) == 100
    for r, c, y in labels.entries:
        assert y == scene.truth[r, c]


def test_sample_labels_count_and_balance():
    spec = SceneSpec(width=100, height=100, rng_seed=2)
    scene, _ = generate_scene(spec)
    labels = sample_labels(scene, 0.001, rng_seed=0)
    assert len(labels) == 10
    assert labels.class_count(0) == 5 and labels.class_count(1) == 5


def test_sample_labels_deterministic():
    spec = SceneSpec(width=20, height=20, rng_seed=3)
    scene, _ = generate_scene(spec)
    a = sample_labels(scene, 0.05, rng_seed=7)
    b = sample_labels(scene, 0.05, rng_seed=7)
    assert a.entries == b.entries


def test_sample_labels_errors():
    scene = RasterScene(width=2, height=2, channels=1, data=np.zeros(4))
    with pytest.raises(DataError):
        sample_labels(scene, 0.5, rng_seed=0)
    one_class = RasterScene(
        width=2, height=2, channels=1, data=np.zeros(4), truth=np.zeros((2, 2), dtype=np.uint8)
    )
    with pytest.raises(DataError):
        sample_labels(one_class, 0.5, rng_seed=0)


def test_sample_labels_bounds_and_uniqueness(small_scene):
    scene, _ = small_scene
    for seed in range(5):
        labels = sample_labels(scene, 0.13, rng_seed=seed)
        seen = set()
        for r, c, _ in labels.entries:
            assert 0 <= r < scene.height and 0 <= c < scene.width
            assert (r, c) not in seen
            seen.add((r, c))


def test_label_set_rejects_duplicates():
    with pytest.raises(DataError):
        LabelSet([(0, 0, 1), (0, 0, 0)])


def test_label_file_round_trip(tmp_path):
    labels = LabelSet([(0, 1, 1), (2, 3, 0)])
    path = tmp_path / "l.txt"
    save_labels(labels, str(path))
    assert load_labels(str(path)).entries == labels.entries


def test_label_file_comments_and_errors(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("# header\n0,1,1\n\n2,3,0  # trailing comment\n")
    assert load_labels(str(path)).entries == [(0, 1, 1), (2, 3, 0)]
    path.write_text("0,1\n")
    with pytest.raises(FormatError):
        load_labels(str(path))
    path.write_text("0,1,x\n")
    with pytest.raises(FormatError):
        load_labels(str(path))


# --- the shared text reader ---


def _read_config(path):
    from floodem.cli import load_config

    return load_config(path)


def _read_spec(path):
    from floodem.cli import parse_scene_spec

    return parse_scene_spec(path)


@pytest.mark.parametrize(
    "reader, good, bad, error",
    [
        (_read_config, "tol=1e-3", "max_iter=ten", SpecError),
        (_read_config, "tol=1e-3", "no_such_key=1", SpecError),
        (_read_spec, "width=8", "height=tall", SpecError),
        (_read_spec, "width=8", "no_such_key=1", SpecError),
        (hmt.load_model, "pi1=0.5", "mean.0.0=zero", FormatError),
        (hmt.load_model, "pi1=0.5", "just words", FormatError),
        (hmt.load_model, "pi1=0.5", "rh0=0.5", FormatError),
        (hmt.load_model, "rho=0.5", "mean.2.0=7", FormatError),
        (hmt.load_model, "pi1=0.5", "cov.0.0.01=1", FormatError),
        (load_labels, "0,1,1", "0,1", FormatError),
        (load_labels, "0,1,1", "0,1,x", FormatError),
    ],
)
def test_text_readers_name_the_bad_line(tmp_path, reader, good, bad, error):
    path = tmp_path / "input.txt"
    path.write_text(f"{good}\n{bad}  # trailing comment\n")
    with pytest.raises(error, match=re.escape(f"{path}:2:")):
        reader(str(path))
    # comment and blank lines still count
    path.write_text(f"# header\n\n{good}\n{bad}\n")
    with pytest.raises(error, match=re.escape(f"{path}:4:")):
        reader(str(path))


@pytest.mark.parametrize("extra", ["neighborhood=4", "mean.1.1=7", "cov.0.0.1=7"])
def test_model_reader_rejects_keys_outside_the_family(tmp_path, extra):
    """Keys a mixture file cannot hold: a neighborhood without rho, and an
    index past the dimension that the mean.0.* keys set."""
    path = tmp_path / "m.txt"
    path.write_text(f"pi1=0.5\nmean.0.0=0\nmean.1.0=1\ncov.0.0.0=1\ncov.1.0.0=1\n{extra}\n")
    with pytest.raises(FormatError, match=re.escape(f"unknown key '{extra.split('=')[0]}'")):
        hmt.load_model(str(path))


@pytest.mark.parametrize("reader", [_read_config, _read_spec, hmt.load_model, load_labels])
def test_text_readers_report_a_missing_file(tmp_path, reader):
    with pytest.raises(IoError):
        reader(str(tmp_path / "missing.txt"))


# --- the shared neighbour helper ---


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 4)])
@pytest.mark.parametrize("neighborhood", [4, 8])
def test_neighbor_slices_pair_each_pixel_with_its_neighbours(shape, neighborhood):
    h, w = shape
    index = np.arange(h * w).reshape(shape)
    pairs = set()
    for (dr, dc), (dst, src) in zip(NEIGHBOR_OFFSETS[neighborhood], neighbor_slices(shape, neighborhood)):
        assert index[dst].shape == index[src].shape
        np.testing.assert_array_equal(index[src] - index[dst], dr * w + dc)
        pairs |= set(zip(index[dst].ravel(), index[src].ravel()))
    expected = {
        (r * w + c, (r + dr) * w + c + dc)
        for r in range(h) for c in range(w) for dr, dc in NEIGHBOR_OFFSETS[neighborhood]
        if 0 <= r + dr < h and 0 <= c + dc < w
    }
    assert pairs == expected


def test_neighbor_slices_reject_other_neighborhoods():
    with pytest.raises(DataError):
        neighbor_slices((3, 3), 6)
