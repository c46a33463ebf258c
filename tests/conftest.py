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
