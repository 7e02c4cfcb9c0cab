import sys
from pathlib import Path

import numpy as np
import pytest

from combofit import (ChainConfig, LogConcGrid, PlateDataset, SplineSpec,
                      run_chain)

# perfbench/reference.py recomputes the model with numerics of its own and
# imports no combofit, so tests can use it as an oracle
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))


def pytest_collection_modifyitems(items):
    """Run the unit tests first and the acceptance suite, which takes
    minutes of sampling, last; the order within each group is unchanged."""
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def _make_small_plate():
    rng = np.random.default_rng(42)
    conc1 = np.array([0.0, 0.01, 0.1, 1.0, 10.0])
    conc2 = np.array([0.0, 0.05, 0.5, 5.0])
    base = np.linspace(0.9, 0.2, 5)[:, None] * np.linspace(1.0, 0.6, 4)[None, :]
    viability = base[:, :, None] + 0.02 * rng.standard_normal((5, 4, 2))
    return PlateDataset(conc1=conc1, conc2=conc2, viability=viability)


@pytest.fixture
def small_plate():
    """5x4 grid with 2 replicates: smooth decreasing surface plus fixed noise."""
    return _make_small_plate()


@pytest.fixture
def small_grid(small_plate):
    return LogConcGrid.from_dataset(small_plate)


@pytest.fixture
def small_spline(small_grid):
    return SplineSpec.for_grid(small_grid)


@pytest.fixture(scope="session")
def small_chain():
    """Short chain on the small plate, shared by summary and sampler tests."""
    plate = _make_small_plate()
    config = ChainConfig(n_iter=400, burn_in=200, thin=2, seed=0)
    return run_chain(plate, config=config)
