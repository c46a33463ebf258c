import hashlib
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodem import cli, gmm, hmt, metrics
from floodem.errors import DataError, DimError, FormatError, IoError, SpecError
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


@pytest.mark.parametrize("elevation", [None, 1])
@pytest.mark.parametrize("with_truth", [False, True])
@pytest.mark.parametrize("given_as", ["constructor", "fortran f4", "big-endian f8"])
def test_save_scene_writes_the_header_then_each_array_once(tmp_path, elevation, with_truth, given_as):
    """The file is MAGIC, the header, the elevation index if tagged, the data
    as row-major <f8 and the truth as u8 if present, with nothing else, also
    from arrays that save_scene itself must convert."""
    h, w, c = 3, 5, 2
    values = np.arange(c * h * w, dtype=np.float32).reshape(c, h, w) / 8 - 0.75  # exact in float32
    flood = np.indices((h, w)).sum(axis=0) % 3 == 0
    truth = flood if with_truth else None
    if given_as == "constructor":
        scene = RasterScene(w, h, c, np.asfortranarray(values), elevation, truth)
    else:  # set after the constructor, which would have converted them
        scene = RasterScene(w, h, c, values.astype(float), elevation, truth)
        scene.data = np.asfortranarray(values) if given_as == "fortran f4" else values.astype(">f8")
        scene.truth = truth
    path = tmp_path / "s.sgrid"
    save_scene(scene, str(path))
    expected = MAGIC + struct.pack("<IIIB", w, h, c, (elevation is not None) | with_truth << 1)
    expected += b"" if elevation is None else struct.pack("<I", elevation)
    expected += values.astype("<f8").tobytes()
    expected += flood.astype(np.uint8).tobytes() if with_truth else b""
    assert path.read_bytes() == expected
    loaded = load_scene(str(path))
    assert loaded.data.tobytes() == values.astype(float).tobytes()
    assert loaded.elevation_channel == elevation
    if with_truth:
        np.testing.assert_array_equal(loaded.truth, flood)
    else:
        assert loaded.truth is None


@pytest.mark.parametrize("elevation", [None, 0])
@pytest.mark.parametrize("with_truth", [False, True])
def test_a_loaded_scene_owns_its_arrays(tmp_path, elevation, with_truth, rng):
    """The data and the truth grid are read into arrays of their own: every
    `.base` link is an array, the last owns its memory, and no link is the
    file's bytes. Both equal what was saved."""
    h, w, c = 4, 5, 3
    truth = rng.integers(0, 2, size=(h, w)).astype(np.uint8) if with_truth else None
    scene = RasterScene(w, h, c, rng.normal(size=(c, h, w)), elevation, truth)
    path = tmp_path / "s.sgrid"
    save_scene(scene, str(path))
    loaded = load_scene(str(path))
    assert np.array_equal(loaded.data, scene.data) and loaded.elevation_channel == elevation
    assert (loaded.truth is None) if truth is None else np.array_equal(loaded.truth, truth)
    for array in (loaded.data, loaded.truth):
        while array is not None and array.base is not None:
            assert isinstance(array.base, np.ndarray), type(array.base)
            array = array.base
        assert array is None or array.flags.owndata


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
        width=24, height=24, features=1, mean0=[0.0], mean1=[100.0], var0=[25.0], var1=[25.0],
        obstacle_fraction=0.0, noise_sigma=0.0,
        labels_per_class=10, seed=11,
    )
    scene, labels = generate_scene(spec)
    model, _ = gmm.em_fit(scene, labels, use_elevation=False)
    pred, _ = gmm.score_grid(model, scene)
    assert metrics.class_report(pred, scene.truth).avg_f == 1.0


def test_feature_matrix_is_the_transpose_of_a_channel_block(small_scene):
    """(N, m) to every caller, feature-major underneath: each channel is one
    contiguous row of the transpose, and all channels are a read-only view."""
    scene, _ = small_scene
    n = scene.width * scene.height
    every = scene.feature_matrix(True)
    assert every.shape == (n, scene.channels)
    assert every.T.flags.c_contiguous
    assert np.shares_memory(every, scene.data) and not every.flags.writeable
    with pytest.raises(ValueError):
        every[0, 0] = 1.0
    np.testing.assert_array_equal(every, scene.data.reshape(scene.channels, n).T)
    kept = scene.feature_matrix(False)
    keep = [c for c in range(scene.channels) if c != scene.elevation_channel]
    assert kept.shape == (n, len(keep))
    assert kept.T.flags.c_contiguous and not kept.flags.writeable
    np.testing.assert_array_equal(kept, scene.data[keep].reshape(len(keep), n).T)
    # with the elevation channel first, in the middle or last: a view unless in the middle
    for elev in (0, 1, scene.channels - 1):
        data = np.insert(np.delete(scene.data, scene.elevation_channel, axis=0), elev,
                         scene.elevation(), axis=0)
        moved = RasterScene(scene.width, scene.height, scene.channels, data, elev, scene.truth)
        kept = moved.feature_matrix(False)
        keep = [c for c in range(moved.channels) if c != elev]
        assert kept.T.flags.c_contiguous and not kept.flags.writeable
        assert np.shares_memory(kept, moved.data) == (elev != 1), elev
        np.testing.assert_array_equal(kept, moved.data[keep].reshape(len(keep), n).T)
        np.testing.assert_array_equal(kept, scene.feature_matrix(False))


def test_obstacle_pixels_share_distribution_across_classes():
    # classes far from the obstacle cloud so obstacle pixels are identifiable
    spec = SceneSpec(
        width=64, height=64, features=1, obstacle_fraction=0.3, noise_sigma=0.0,
        mean0=[0.0], mean1=[200.0], var0=[1.0], var1=[1.0], obstacle_mean=[100.0], obstacle_var=[1.0],
        labels_per_class=20, seed=5,
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
    spec = SceneSpec(width=16, height=16, obstacle_fraction=0.25, labels_per_class=5, seed=42)
    s1, l1 = generate_scene(spec)
    s2, l2 = generate_scene(spec)
    np.testing.assert_array_equal(s1.data, s2.data)
    np.testing.assert_array_equal(s1.truth, s2.truth)
    assert np.array_equal(l1.entries, l2.entries)


def test_truth_depends_only_on_elevation():
    base = SceneSpec(width=16, height=16, labels_per_class=5, seed=9)
    other = SceneSpec(
        width=16, height=16, labels_per_class=5, seed=9,
        mean0=[0.0, 0.0, 0.0], mean1=[5.0, 5.0, 5.0],
        obstacle_fraction=0.5, noise_sigma=20.0,
    )
    s1, _ = generate_scene(base)
    s2, _ = generate_scene(other)
    np.testing.assert_array_equal(s1.truth, s2.truth)


def _meshgrid_elevation(spec: SceneSpec) -> np.ndarray:
    """The terrain formula on two full (h, w) index grids."""
    rr, cc = np.meshgrid(np.arange(spec.height, dtype=float), np.arange(spec.width, dtype=float), indexing="ij")
    two_pi = 2.0 * math.pi
    ramp = spec.ramp_height * (rr + cc) / max(spec.height + spec.width - 2, 1)
    return ramp + (
        spec.bump_amplitude
        * np.sin(two_pi * spec.bump_periods * rr / max(spec.height - 1, 1))
        * np.sin(two_pi * spec.bump_periods * cc / max(spec.width - 1, 1))
    )


_terrain = st.floats(-500.0, 500.0, allow_nan=False)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(height=st.integers(1, 40), width=st.integers(1, 40), ramp=_terrain, amplitude=_terrain,
       periods=st.floats(0.0, 20.0))
@example(height=1, width=1, ramp=100.0, amplitude=8.0, periods=3.0)
@example(height=1, width=37, ramp=100.0, amplitude=8.0, periods=3.0)
@example(height=36, width=1, ramp=-3.5, amplitude=40.0, periods=2.25)
@example(height=7, width=9, ramp=0.0, amplitude=0.0, periods=3.0)  # flat: every pixel at the median
@example(height=256, width=256, ramp=100.0, amplitude=8.0, periods=3.0)
def test_elevation_and_its_median_split_match_the_full_grid_formulas(height, width, ramp, amplitude, periods):
    spec = SceneSpec(width=width, height=height, features=1, ramp_height=ramp, bump_amplitude=amplitude,
                     bump_periods=periods, noise_sigma=0.0, labels_per_class=1)
    elev = _meshgrid_elevation(spec)
    assert spec.elevation_grid().tobytes() == elev.tobytes()
    truth = elev < float(np.median(elev))
    if truth.all() or not truth.any():
        with pytest.raises(SpecError, match="leaves class . empty"):
            generate_scene(spec)
    else:
        scene, _ = generate_scene(spec)
        np.testing.assert_array_equal(scene.truth, truth)


@pytest.mark.parametrize("terrain", [{"ramp_height": math.nan}, {"bump_amplitude": math.inf}])
def test_a_nan_in_the_terrain_makes_the_median_nan(terrain):
    # inf * sin(0) is NaN on row and column 0; np.median is NaN then, so no pixel is below it
    spec = SceneSpec(width=20, height=20, labels_per_class=5, **terrain)
    with np.errstate(invalid="ignore"):
        assert np.isnan(np.median(spec.elevation_grid()))
        with pytest.raises(SpecError, match="leaves class 1 empty"):
            generate_scene(spec)


def test_water_level_out_of_range_rejected():
    spec = SceneSpec(width=8, height=8, water_level=1e6)
    with pytest.raises(SpecError):
        generate_scene(spec)


def test_negative_seed_rejected():
    # the CLI sets the seed after the spec is built, so generate_scene checks it
    spec = SceneSpec(width=8, height=8)
    spec.seed = -1
    with pytest.raises(SpecError, match="seed must be non-negative"):
        generate_scene(spec)


def test_spec_invariants():
    with pytest.raises(SpecError):
        SceneSpec(obstacle_fraction=1.5)
    for var0, var1 in (([-1.0], [1.0]), ([1.0, 0.0, 1.0], [1.0]), ([1.0], [np.nan]), ([np.inf], [1.0])):
        with pytest.raises(SpecError, match="var"):
            SceneSpec(var0=var0, var1=var1)


def test_sample_labels_ratio_one_labels_everything():
    spec = SceneSpec(width=10, height=10, labels_per_class=5, seed=1)
    scene, _ = generate_scene(spec)
    labels = sample_labels(scene, 1.0, rng_seed=0)
    assert len(labels) == 100
    for r, c, y in labels.entries:
        assert y == scene.truth[r, c]


def test_sample_labels_count_and_balance():
    spec = SceneSpec(width=100, height=100, seed=2)
    scene, _ = generate_scene(spec)
    labels = sample_labels(scene, 0.001, rng_seed=0)
    assert len(labels) == 10
    assert labels.class_count(0) == 5 and labels.class_count(1) == 5


def test_sample_labels_deterministic():
    spec = SceneSpec(width=20, height=20, seed=3)
    scene, _ = generate_scene(spec)
    a = sample_labels(scene, 0.05, rng_seed=7)
    b = sample_labels(scene, 0.05, rng_seed=7)
    assert np.array_equal(a.entries, b.entries)


def test_sample_labels_errors():
    scene = RasterScene(width=2, height=2, channels=1, data=np.zeros(4))
    with pytest.raises(DataError):
        sample_labels(scene, 0.5, rng_seed=0)
    one_class = RasterScene(
        width=2, height=2, channels=1, data=np.zeros(4), truth=np.zeros((2, 2), dtype=np.uint8)
    )
    with pytest.raises(DataError):
        sample_labels(one_class, 0.5, rng_seed=0)
    two_class = RasterScene(
        width=2, height=1, channels=1, data=np.zeros(2), truth=np.array([[0, 1]], dtype=np.uint8)
    )
    with pytest.raises(DataError, match="seed must be non-negative"):
        sample_labels(two_class, 0.5, rng_seed=-1)


def test_sample_labels_bounds_and_uniqueness(small_scene):
    scene, _ = small_scene
    for seed in range(5):
        labels = sample_labels(scene, 0.13, rng_seed=seed)
        seen = set()
        for r, c, _ in labels.entries:
            assert 0 <= r < scene.height and 0 <= c < scene.width
            assert (r, c) not in seen
            seen.add((r, c))


# (entries, error, message); no error means a valid set
_LABEL_SET_INPUTS = [
    ([(0, 0, 1), (0, 0, 0)], DataError, r"duplicate label for pixel \(0,0\)"),
    ([(5, 1, 0), (2, 3, 1), (4, 4, 0), (2, 3, 0), (5, 1, 1)], DataError, r"duplicate label for pixel \(2,3\)"),
    # pixels whose keys collide are still told apart
    ([(0, 1 << 32, 0), (1, 0, 1), (-1, -1, 0), (0, -1, 1)], None, None),
    ([(0, 0, 1), (1, 2, 2)], DataError, r"label class 2 at \(1,2\) is not binary"),
    ([(0, 0, -1)], DataError, r"label class -1 at \(0,0\) is not binary"),
    # with both faults, the first faulty entry decides
    ([(0, 0, 1), (0, 0, 0), (3, 3, 7)], DataError, "duplicate label"),
    ([(0, 0, 1), (3, 3, 7), (0, 0, 0)], DataError, "not binary"),
    ([(3, 3, 7), (3, 3, 1)], DataError, "not binary"),
    ([(0, 0)], DimError, r"got shape \(1, 2\)"),
    ([0, 0, 1], DimError, r"got shape \(3,\)"),
    ([[(0, 0, 1)]], DimError, r"got shape \(1, 1, 3\)"),
    (np.zeros((0, 4)), DimError, r"got shape \(0, 4\)"),
    ([(0, 0, 1), (1, 1)], DimError, "not an \\(n, 3\\) integer array"),
    ([], None, None),
    (np.empty((0, 3)), None, None),
]


def test_label_set_rejects_duplicates():
    """Each non-binary class, repeated pixel or non-(n, 3) input raises its
    error, naming the first faulty entry; valid sets are read-only int64."""
    for entries, error, message in _LABEL_SET_INPUTS:
        if error is None:
            labels = LabelSet(entries)
            assert labels.entries.shape == (len(entries), 3) and labels.entries.dtype == np.int64
            assert not labels.entries.flags.writeable
            continue
        with pytest.raises(error, match=message):
            LabelSet(entries)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([(0, 0, 0), (3, 0, 1), (-1, 0, 0)], r"label pixel \(3,0\) outside 3x4 grid"),
        ([(0, 0, 0), (0, 4, 1), (3, 0, 0)], r"label pixel \(0,4\) outside 3x4 grid"),
        ([(2, 3, 0), (0, -1, 1)], r"label pixel \(0,-1\) outside 3x4 grid"),
    ],
)
def test_flat_indices_name_the_first_label_outside_the_grid(entries, message):
    with pytest.raises(DataError, match=message):
        LabelSet(entries).flat_indices(4, 3)


def test_flat_indices_and_class_counts_read_the_array():
    labels = LabelSet([(2, 3, 1), (0, 0, 0), (1, 2, 1)])
    flat, cls = labels.flat_indices(4, 3)
    assert flat.tolist() == [11, 0, 6] and cls.tolist() == [1, 0, 1]
    assert (labels.class_count(0), labels.class_count(1), len(labels)) == (1, 2, 3)
    empty = LabelSet([])
    assert len(empty) == 0 and empty.class_count(1) == 0
    assert all(a.shape == (0,) for a in empty.flat_indices(4, 3))


# sha256 of the label file save_labels writes for the canonical 128x128 scene
# (obstacle fraction 0.3, seed 7): its own draw, and sample_labels' draws of
# label seed 1. A change in which pixels are drawn, or in their order, fails.
_PINNED_LABEL_FILES = {
    "generate_scene": "d743e237cbb80f0477bb41c0aa10fd91630951acdb0973aec6ade28513719f2f",
    1e-3: "6523dcfb7a8c15f1a01632a93e0315bbdc7bf70e5d958b344c0dcf01b081182c",
    5e-2: "f3508fd6541ebb9ee53d39fa522f46a42ae080e2b997749c30c43c94594b7c1a",
    1.0: "e451cd1c35c133c23696b6a8c49cf1ce9164744d2a79f8bd4bf19dbfa86f45ff",
}


def test_label_draws_are_pinned(tmp_path):
    scene, own = generate_scene(SceneSpec(width=128, height=128, obstacle_fraction=0.3, seed=7))
    draws = {"generate_scene": own, **{r: sample_labels(scene, r, rng_seed=1) for r in (1e-3, 5e-2, 1.0)}}
    digests = {}
    for key, labels in draws.items():
        path = tmp_path / "labels.txt"
        save_labels(labels, str(path))
        digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == _PINNED_LABEL_FILES


def test_label_file_round_trip(tmp_path):
    labels = LabelSet([(0, 1, 1), (2, 3, 0)])
    path = tmp_path / "l.txt"
    save_labels(labels, str(path))
    assert np.array_equal(load_labels(str(path)).entries, labels.entries)


def test_label_file_comments_and_errors(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("# header\n0,1,1\n\n2,3,0  # trailing comment\n")
    assert np.array_equal(load_labels(str(path)).entries, [(0, 1, 1), (2, 3, 0)])
    path.write_text("# no labels\n\n")
    assert load_labels(str(path)).entries.shape == (0, 3)
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
        (_read_config, "tol=1e-3", "tol=0.5", SpecError),
        (_read_config, "max-iter=5", "max_iter=7", SpecError),
        (_read_spec, "width=16", "width=32", SpecError),
        (hmt.load_model, "pi1=0.5", "pi1=0.25", FormatError),
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
