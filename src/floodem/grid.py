"""Raster data model, binary scene I/O, and the synthetic flood-scene generator.

Scene file layout (little-endian):
    magic "SSGRID1\\0" (8 bytes)
    u32 width, u32 height, u32 channels
    u8 flags (bit0: elevation channel present, bit1: truth grid present)
    [u32 elevation_channel]                 if flag bit0
    channel-major, row-major float64 data
    [row-major u8 truth grid]               if flag bit1

Label files are plain text, one "row,col,class" per line, '#' comments
allowed; in memory a `LabelSet` holds them as one (n, 3) int array.
Every text input (labels, configs, scene specs, models) goes through
``read_lines``, the key=value ones through ``read_key_values`` (configs and
specs through ``read_settings``, from their dataclass's fields); text outputs
go through ``write_lines``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError, DimError, FormatError, IoError, SpecError

MAGIC = b"SSGRID1\x00"
_FLAG_ELEVATION = 0x01
_FLAG_TRUTH = 0x02
_HEADER = struct.Struct("<IIIB")

# Grid neighbours as (row, col) offsets in row-major order.
NEIGHBOR_OFFSETS = {
    4: ((-1, 0), (0, -1), (0, 1), (1, 0)),
    8: ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)),
}


def _span(d: int, n: int) -> tuple[slice, slice]:
    """(dst, src) slices of a length-n axis pairing index i with index i + d."""
    return slice(max(-d, 0), n + min(-d, 0)), slice(max(d, 0), n + min(d, 0))


def neighbor_slices(shape: tuple[int, int], neighborhood: int) -> list[tuple[tuple, tuple]]:
    """One (dst, src) index pair per neighbour offset, in ``NEIGHBOR_OFFSETS`` order.

    For a grid ``a`` of ``shape``, ``a[src]`` holds the neighbour at that
    offset of every pixel in ``a[dst]``; pixels whose neighbour would fall
    off the grid are in neither.
    """
    if neighborhood not in NEIGHBOR_OFFSETS:
        raise DataError(f"neighborhood must be 4 or 8, got {neighborhood}")
    h, w = shape
    return [tuple(zip(_span(dr, h), _span(dc, w))) for dr, dc in NEIGHBOR_OFFSETS[neighborhood]]


def read_lines(path: str, what: str):
    """Yield (line number, text) for each line of a text file that is not
    blank once its '#' comment is stripped."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def write_lines(path: str, what: str, lines) -> None:
    """Write each of ``lines`` to a text file, followed by a newline."""
    try:
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc


def read_key_values(path: str, what: str, keys, cast, error: type[Exception]) -> dict:
    """Parse key=value lines into {key: cast(key, value)}, keys and values stripped.

    ``keys`` maps the {key: value text} read to the keys the file may hold. A
    line without '=', a key given twice or outside ``keys``, or a value that
    ``cast`` raises ValueError on raises ``error`` naming ``path:lineno``. A
    '-' in a key reads as '_', so a config file may spell "max-iter" as the
    flag does.
    """
    lines, first_line = [], {}
    for lineno, text in read_lines(path, what):
        name, eq, val = text.partition("=")
        if not eq:
            raise error(f"{path}:{lineno}: expected key=value, got {text!r}")
        name = name.strip()
        key = name.replace("-", "_")
        if key in first_line:
            raise error(f"{path}:{lineno}: key {name!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        lines.append((lineno, name, key, val.strip()))
    allowed = set(keys({key: val for _, _, key, val in lines}))
    values = {}
    for lineno, name, key, val in lines:
        if key not in allowed:
            raise error(f"{path}:{lineno}: unknown key {name!r}")
        try:
            values[key] = cast(key, val)
        except ValueError as exc:
            raise error(f"{path}:{lineno}: bad value for {name}: {val!r}") from exc
    return values


def natural(val: str) -> int:
    """The cast of a seed, a non-negative int. argparse names the cast in its
    usage error, so the name is a plain word."""
    n = int(val)
    if n < 0:
        raise ValueError(f"{val!r} is negative")
    return n


def listed(cast):
    """The cast of a comma-separated list of ``cast``'s values."""
    def cast_list(text: str) -> list:
        return [cast(val) for val in text.split(",")]

    cast_list.__name__ = f"{cast.__name__} list"  # argparse names it in a usage error
    return cast_list


def setting(default, cast, help=None, choices=None):
    """A dataclass field describing its key (and flag) once: cast, choices, help."""
    return field(default=default, metadata={"cast": cast, "choices": choices, "help": help})


def read_settings(path: str, what: str, cls, error: type[Exception]) -> dict:
    """Keyword arguments of the dataclass ``cls`` from a key=value file, each
    value cast as its `setting` field says and checked against its choices."""
    settings = {f.name: f.metadata for f in fields(cls)}

    def checked(key: str, val: str):
        value = settings[key]["cast"](val)
        if settings[key]["choices"] and value not in settings[key]["choices"]:
            raise ValueError(f"{value!r} is not one of {settings[key]['choices']}")
        return value

    return read_key_values(path, what, lambda texts: settings, checked, error)


@dataclass
class RasterScene:
    """Dense multi-channel float raster with optional elevation tag and truth grid."""

    width: int
    height: int
    channels: int
    data: np.ndarray  # (channels, height, width) float64
    elevation_channel: int | None = None
    truth: np.ndarray | None = None  # (height, width) uint8, 0 = dry, 1 = flood

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=float)
        expected = (self.channels, self.height, self.width)
        if self.data.size != self.channels * self.height * self.width:
            raise DataError(f"data has {self.data.size} values, expected {expected}")
        self.data = self.data.reshape(expected)
        if not np.all(np.isfinite(self.data)):
            raise DataError("scene data contains non-finite values")
        if self.elevation_channel is not None:
            if not 0 <= int(self.elevation_channel) < self.channels:
                raise DataError(
                    f"elevation channel {self.elevation_channel} out of range for {self.channels} channels"
                )
            self.elevation_channel = int(self.elevation_channel)
        if self.truth is not None:
            truth = np.ascontiguousarray(self.truth, dtype=np.uint8)
            if truth.shape != (self.height, self.width):
                raise DataError(f"truth grid shape {truth.shape} != {(self.height, self.width)}")
            if np.any(truth > 1):
                raise DataError("truth grid contains classes other than 0/1")
            self.truth = truth

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def feature_matrix(self, use_elevation: bool) -> np.ndarray:
        """Pixel feature vectors, one row per pixel in row-major order: the
        read-only (N, m) transpose of a C-ordered (m, N) block of channels,
        a view of ``data`` unless a dropped elevation channel sits between
        two kept ones. With ``use_elevation`` every channel is a feature, and
        a scene without an elevation channel is a DataError; without it the
        tagged elevation channel is dropped, and if no channel is tagged
        there is nothing to drop.
        """
        if use_elevation:
            self.elevation()
        chans = self.data
        dropped = None if use_elevation else self.elevation_channel
        if dropped in (0, self.channels - 1):  # the channels kept are one block: a slice
            chans = chans[1:] if dropped == 0 else chans[:-1]
        elif dropped is not None:
            chans = np.delete(chans, dropped, axis=0)
        feats = chans.reshape(chans.shape[0], -1).T
        feats.flags.writeable = False
        return feats

    def elevation(self) -> np.ndarray:
        if self.elevation_channel is None:
            raise DataError("scene has no elevation channel")
        return self.data[self.elevation_channel]


@dataclass
class LabelSet:
    """Sparse supervision: ``entries``, a read-only (n, 3) int64 array of (row, col,
    class) rows from any (n, 3) array-like or ``[]``. A class other than 0 or 1,
    or a pixel labeled twice, is an error naming the first entry at fault."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        try:  # column-major, so each column is contiguous
            entries = np.array(self.entries, dtype=np.int64, order="F")
        except ValueError as exc:  # rows of unequal length
            raise DimError(f"labels are not an (n, 3) integer array: {exc}") from None
        if entries.shape == (0,):
            entries = np.empty((0, 3), dtype=np.int64, order="F")
        if entries.ndim != 2 or entries.shape[1] != 3:
            raise DimError(f"labels must be (row, col, class) rows, got shape {entries.shape}")
        row, col, cls = entries.T
        fault = (cls != 0) & (cls != 1)
        key = np.sort((row << 32) + col)  # equal for equal pixels, so every repeat shows
        if fault.any() or (key[1:] == key[:-1]).any():
            order = np.lexsort((col, row))  # stable: a pixel's first label stays first
            fault[order[1:][(np.diff(row[order]) == 0) & (np.diff(col[order]) == 0)]] = True
            for r, c, y in entries[np.flatnonzero(fault)[:1]]:  # the first entry at fault
                raise DataError(f"label class {y} at ({r},{c}) is not binary" if y not in (0, 1)
                                else f"duplicate label for pixel ({r},{c})")
        entries.flags.writeable = False
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    def class_count(self, cls: int) -> int:
        return int(np.count_nonzero(self.entries[:, 2] == cls))

    def flat_indices(self, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
        """(flat pixel indices, classes), bounds-checked against a grid."""
        row, col, cls = self.entries.T
        outside = (row < 0) | (row >= height) | (col < 0) | (col >= width)
        if outside.any():
            r, c, _ = self.entries[outside.argmax()]
            raise DataError(f"label pixel ({r},{c}) outside {height}x{width} grid")
        return row * width + col, cls


@dataclass
class SceneSpec:
    """Parameters of the synthetic flood scene, one field per spec-file key.

    Elevation is a diagonal ramp of height ``ramp_height`` plus a sinusoidal
    bump field of amplitude ``bump_amplitude`` (``bump_periods`` full periods
    across each axis). Truth is the sub-level set of ``water_level`` (spec
    text ``median``, or None: the median elevation). Class c's ``features``
    channels are Gaussian with mean ``mean<c>`` and diagonal variances
    ``var<c>``, obstacle pixels' with ``obstacle_mean``/``obstacle_var``; a
    variance may be one value for all features, and the class means (and
    variances) come in pairs. ``noise_sigma`` models per-channel sensor
    error: it is added to every stored channel, elevation included, while
    truth always comes from the clean terrain.
    """

    width: int = setting(128, int)
    height: int = setting(128, int)
    features: int = setting(3, int)
    ramp_height: float = setting(100.0, float)
    bump_amplitude: float = setting(8.0, float)
    bump_periods: float = setting(3.0, float)
    water_level: float | None = setting(None, lambda val: None if val == "median" else float(val))
    mean0: np.ndarray | None = setting(None, listed(float))
    mean1: np.ndarray | None = setting(None, listed(float))
    var0: np.ndarray | None = setting(None, listed(float))
    var1: np.ndarray | None = setting(None, listed(float))
    obstacle_mean: np.ndarray | None = setting(None, listed(float))
    obstacle_var: np.ndarray | None = setting(None, listed(float))
    obstacle_fraction: float = setting(0.0, float)
    noise_sigma: float = setting(6.0, float)
    labels_per_class: int = setting(100, int)
    seed: int = setting(0, natural)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1 or self.features < 1:
            raise SpecError("width, height, and features must be positive")
        if not 0.0 <= self.obstacle_fraction <= 1.0:
            raise SpecError(f"obstacle_fraction {self.obstacle_fraction} outside [0, 1]")
        if self.noise_sigma < 0.0:
            raise SpecError("noise_sigma must be non-negative")
        if self.labels_per_class < 1:
            raise SpecError("labels_per_class must be positive")
        for a, b in (("mean0", "mean1"), ("var0", "var1")):
            if (getattr(self, a) is None) != (getattr(self, b) is None):
                raise SpecError(f"{a} and {b} must be given together")
        # Defaults: class 0's means run evenly from 40 to 50 over the features,
        # class 1's sit 50 higher. The obstacle distribution is shared by both
        # classes and centered between them, which is the whole point: those
        # pixels are indistinguishable from non-spatial features alone.
        lo = np.linspace(40.0, 50.0, self.features)
        self.mean0 = self._vector("mean0", lo)
        self.mean1 = self._vector("mean1", lo + 50.0)
        self.obstacle_mean = self._vector("obstacle_mean", (self.mean0 + self.mean1) / 2)
        self.var0 = self._vector("var0", 15.0**2)
        self.var1 = self._vector("var1", 15.0**2)
        self.obstacle_var = self._vector("obstacle_var", 12.0**2)

    def _vector(self, name: str, default) -> np.ndarray:
        """Field ``name``, or ``default`` if it is None, as one finite float per
        feature; a variance may be one value for all, and must be positive."""
        given = getattr(self, name)
        vec = np.atleast_1d(np.asarray(default if given is None else given, dtype=float))
        variance = "var" in name
        if variance and vec.size == 1:
            vec = np.full(self.features, vec[0])
        if vec.shape != (self.features,):
            raise SpecError(f"{name} has {vec.size} entries for {self.features} features")
        if not np.all(np.isfinite(vec)):
            raise SpecError(f"{name} must be finite, got {vec.tolist()}")
        if variance and not np.all(vec > 0.0):
            raise SpecError(f"{name} must be positive, got {vec.tolist()}")
        return vec

    def elevation_grid(self) -> np.ndarray:
        # An (h, 1) row axis against a (1, w) column axis takes h + w sines, and
        # each pixel still gets the formula's operations in the formula's order.
        rr = np.arange(self.height, dtype=float)[:, None]
        cc = np.arange(self.width, dtype=float)[None, :]
        span = max(self.height + self.width - 2, 1)
        ramp = self.ramp_height * (rr + cc) / span
        two_pi = 2.0 * math.pi
        bumps = (
            self.bump_amplitude
            * np.sin(two_pi * self.bump_periods * rr / max(self.height - 1, 1))
            * np.sin(two_pi * self.bump_periods * cc / max(self.width - 1, 1))
        )
        return ramp + bumps


def _draw_labels(rng, pools: list[np.ndarray], sizes: list[int], width: int) -> LabelSet:
    """``sizes[c]`` distinct pixels drawn from class c's flat indices ``pools[c]``, class 0's first."""
    flat = np.concatenate([rng.choice(pool, size=k, replace=False) for pool, k in zip(pools, sizes)])
    return LabelSet(np.column_stack((*np.divmod(flat, width), np.repeat((0, 1), sizes))))


def _median(values: np.ndarray) -> float:
    """``np.median`` of all ``values`` from its own partition and mean (NaN if
    any value is NaN), without the ``numpy.ma`` import its NaN check makes."""
    n = values.size
    part = np.partition(values, ((n - 1) // 2, n // 2, -1), axis=None)
    return float(part[-1] if np.isnan(part[-1]) else part[(n - 1) // 2 : n // 2 + 1].mean())


def generate_scene(spec: SceneSpec) -> tuple[RasterScene, LabelSet]:
    """Build a synthetic scene plus a balanced label draw.

    Truth depends only on the clean terrain elevation vs. the water level.
    Feature channels are per-class Gaussian draws except for the obstacle
    pixels (a fixed fraction of each class), which are re-emitted from the
    shared obstacle distribution. Sensor noise of scale ``noise_sigma`` is
    then added to every stored channel, elevation included. Labels are drawn
    uniformly from non-obstacle pixels of each class. Fully deterministic for
    a fixed ``seed``.
    """
    if spec.seed < 0:
        raise SpecError(f"seed must be non-negative, got {spec.seed}")
    rng = np.random.default_rng(spec.seed)
    elev = spec.elevation_grid()
    if spec.water_level is None:
        level = _median(elev)
    else:
        level = float(spec.water_level)
        if not elev.min() <= level <= elev.max():
            raise SpecError(
                f"water_level {level} outside elevation range [{elev.min():.3f}, {elev.max():.3f}]"
            )
    truth = (elev < level).astype(np.uint8)
    flat_truth = truth.ravel()
    n = flat_truth.size
    m = spec.features

    clean: list[np.ndarray] = []
    obstacles: list[np.ndarray] = []
    for cls in (0, 1):
        idx = np.flatnonzero(flat_truth == cls)
        if idx.size == 0:
            raise SpecError(f"water level leaves class {cls} empty")
        n_obs = int(round(spec.obstacle_fraction * idx.size))
        chosen = rng.choice(idx, size=n_obs, replace=False) if n_obs else np.empty(0, dtype=np.int64)
        mask = np.zeros(idx.size, dtype=bool)
        mask[np.searchsorted(idx, np.sort(chosen))] = True
        obstacles.append(idx[mask])
        clean.append(idx[~mask])

    features = np.empty((n, m))
    for cls in (0, 1):
        features[clean[cls]] = rng.multivariate_normal(
            (spec.mean0, spec.mean1)[cls], np.diag((spec.var0, spec.var1)[cls]), size=clean[cls].size
        )
    all_obstacles = np.concatenate(obstacles)
    if all_obstacles.size:
        features[all_obstacles] = rng.multivariate_normal(
            spec.obstacle_mean, np.diag(spec.obstacle_var), size=all_obstacles.size
        )

    data = np.concatenate([features.T.reshape(m, spec.height, spec.width), elev[None]], axis=0)
    if spec.noise_sigma > 0.0:
        data = data + spec.noise_sigma * rng.standard_normal(data.shape)

    for cls in (0, 1):
        if clean[cls].size < spec.labels_per_class:
            raise SpecError(
                f"class {cls} has only {clean[cls].size} non-obstacle pixels, "
                f"cannot draw {spec.labels_per_class} labels"
            )
    labels = _draw_labels(rng, clean, [spec.labels_per_class] * 2, spec.width)

    scene = RasterScene(
        width=spec.width,
        height=spec.height,
        channels=m + 1,
        data=data,
        elevation_channel=m,
        truth=truth,
    )
    return scene, labels


def sample_labels(scene: RasterScene, ratio: float, rng_seed: int) -> LabelSet:
    """Draw ceil(ratio * N) truth labels, split as evenly as possible per class.

    On an odd total, class 0 (dry) gets the extra label. If one class has too
    few truth pixels for its half, the remainder goes to the other class, so
    ratio 1.0 always labels the entire grid.
    """
    if scene.truth is None:
        raise DataError("scene has no truth grid to sample labels from")
    if not 0.0 < ratio <= 1.0:
        raise DataError(f"ratio {ratio} outside (0, 1]")
    if rng_seed < 0:
        raise DataError(f"seed must be non-negative, got {rng_seed}")
    flat = scene.truth.ravel()
    pools = [np.flatnonzero(flat == cls) for cls in (0, 1)]
    for cls, pool in enumerate(pools):
        if pool.size == 0:
            raise DataError(f"truth grid has no pixels of class {cls}")
    total = math.ceil(ratio * scene.n_pixels)
    dry = min(max(total - total // 2, total - pools[1].size), pools[0].size)  # the split described above
    return _draw_labels(np.random.default_rng(rng_seed), pools, [dry, total - dry], scene.width)


def save_scene(scene: RasterScene, path: str) -> None:
    """Write the bit-exact binary scene format."""
    flags = 0
    if scene.elevation_channel is not None:
        flags |= _FLAG_ELEVATION
    if scene.truth is not None:
        flags |= _FLAG_TRUTH
    head = MAGIC + _HEADER.pack(scene.width, scene.height, scene.channels, flags)
    if scene.elevation_channel is not None:
        head += struct.pack("<I", scene.elevation_channel)
    # The arrays go to the file through the buffer protocol, without a copy.
    parts = [head, np.ascontiguousarray(scene.data, dtype="<f8")]
    if scene.truth is not None:
        parts.append(np.ascontiguousarray(scene.truth, dtype=np.uint8))
    try:
        with open(path, "wb") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise IoError(f"cannot write scene to {path}: {exc}") from exc


def load_scene(path: str) -> RasterScene:
    """Read a scene file; rejects bad magic, an empty or inconsistent header,
    truncation, and trailing bytes before it builds any array. The header is
    checked against the file's size, and the data and the truth grid are read
    straight into arrays of their own, so a header that claims more than the
    file holds allocates nothing. A short read is truncation."""
    try:
        with open(path, "rb") as fh:
            return _read_scene(fh, path)
    except OSError as exc:
        raise IoError(f"cannot read scene from {path}: {exc}") from exc


def _read_scene(fh, path: str) -> RasterScene:
    """`load_scene`'s parse of the open file ``fh``."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(len(MAGIC) + _HEADER.size)
    if head[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic")
    if len(head) < len(MAGIC) + _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    width, height, channels, flags = _HEADER.unpack_from(head, len(MAGIC))
    if min(width, height, channels) == 0:
        raise FormatError(f"{path}: empty {width}x{height}x{channels} grid")
    if flags & ~(_FLAG_ELEVATION | _FLAG_TRUTH):
        raise FormatError(f"{path}: unknown flag bits {flags:#04x}")
    elevation_channel = None
    if flags & _FLAG_ELEVATION:
        index = fh.read(4)
        if len(index) < 4:
            raise FormatError(f"{path}: truncated elevation channel index")
        (elevation_channel,) = struct.unpack("<I", index)
        if elevation_channel >= channels:
            raise FormatError(f"{path}: elevation channel {elevation_channel} of {channels} channels")
    off = fh.tell()
    n_data = width * height * channels
    if size < off + 8 * n_data:
        raise FormatError(f"{path}: truncated data payload")
    n_truth = width * height if flags & _FLAG_TRUTH else 0
    if size < off + 8 * n_data + n_truth:
        raise FormatError(f"{path}: truncated truth grid")
    if size != off + 8 * n_data + n_truth:
        raise FormatError(f"{path}: {size - off - 8 * n_data - n_truth} trailing bytes")
    data = np.empty((channels, height, width), dtype="<f8")
    if fh.readinto(data) != data.nbytes:
        raise FormatError(f"{path}: truncated data payload")
    truth = None
    if n_truth:
        truth = np.empty((height, width), dtype=np.uint8)
        if fh.readinto(truth) != truth.nbytes:
            raise FormatError(f"{path}: truncated truth grid")
    return RasterScene(
        width=width,
        height=height,
        channels=channels,
        data=data,
        elevation_channel=elevation_channel,
        truth=truth,
    )


def save_labels(labels: LabelSet, path: str) -> None:
    write_lines(path, "labels", (f"{r},{c},{y}" for r, c, y in labels.entries.tolist()))


def load_labels(path: str) -> LabelSet:
    entries = []
    for lineno, text in read_lines(path, "labels"):
        parts = text.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'row,col,class', got {text!r}")
        try:
            entries.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-integer field in {text!r}") from exc
    return LabelSet(entries)
