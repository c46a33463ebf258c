import numpy as np
import pytest

from floodem import grid


@pytest.fixture()
def small_scene():
    """20x20 obstacle scene plus its generated labels."""
    spec = grid.SceneSpec(
        width=20, height=20, obstacle_fraction=0.2, labels_per_class=10, seed=42
    )
    return grid.generate_scene(spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def acceptance_fixture():
    """The canonical 128x128 scene (obstacle fraction 0.3, seed 7) with its
    ratio-1e-3 labels of seed 7."""
    scene, _ = grid.generate_scene(grid.SceneSpec(width=128, height=128, obstacle_fraction=0.3, seed=7))
    return scene, grid.sample_labels(scene, 1e-3, rng_seed=7)
