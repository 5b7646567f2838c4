import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from phm.cloud import PointCloud
from phm.synthetic import synthetic_cloud

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_cloud(n: int, seed: int, extent: float = 10.0) -> PointCloud:
    """Unstructured random cloud with independent random colors."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, extent, size=(n, 3))
    col = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return PointCloud.from_arrays(pos, col)


@pytest.fixture
def small_cloud() -> PointCloud:
    return random_cloud(60, seed=11)


@pytest.fixture
def textured_cloud() -> PointCloud:
    return synthetic_cloud(400, seed=5)


def compared_rows(stage, prepared, *args):
    """(rows, mean) of ``geometry_degradation`` or ``texture_degradation``, as reports hold them.

    The stage runs on the cells where both sides have a graph; the rows are
    laid out per cell, None for a cell not compared, and the mean is over
    every value of the compared cells.
    """
    cells = np.flatnonzero(prepared[0].valid & prepared[1].valid)
    values = stage(prepared, cells, *args)
    rows = [None] * len(prepared[0].sizes)
    for cell, row in zip(cells.tolist(), values.tolist()):
        rows[cell] = row
    return rows, float(values.mean())


def split_cells(order, sizes) -> list[np.ndarray]:
    """The per-cell point indices of a partition held as (order, sizes)."""
    return np.split(order, np.cumsum(sizes)[:-1])
