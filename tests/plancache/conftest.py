"""Fixtures for the plan-cache suite: tiny instances + scratch caches."""

import numpy as np
import pytest

from repro.kernels.data import make_kernel_data
from repro.kernels.datasets import Dataset
from repro.plancache import PlanCache
from repro.runtime.verify import clear_verification_memo


def tiny_dataset(num_nodes=30, num_inter=80, seed=0, name="tiny"):
    """A tiny instance that passes strict validation: interactions are
    sampled without replacement from the unordered off-diagonal pairs
    (then randomly oriented), so there are no duplicate edges — the
    validator dedups unordered — and no self-loops."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(num_nodes, k=1)
    pick = rng.choice(len(iu), size=num_inter, replace=False)
    left = iu[pick].astype(np.int64)
    right = ju[pick].astype(np.int64)
    flip = rng.random(num_inter) < 0.5
    left[flip], right[flip] = right[flip], left[flip]
    return Dataset(name, num_nodes, left, right)


def tiny_data(kernel="moldyn", seed=0, **kwargs):
    return make_kernel_data(kernel, tiny_dataset(seed=seed, **kwargs))


@pytest.fixture
def moldyn_data():
    return tiny_data("moldyn")


@pytest.fixture
def disk_cache(tmp_path):
    return PlanCache(directory=tmp_path / "plancache")


@pytest.fixture
def memory_cache():
    return PlanCache(use_disk=False)


@pytest.fixture(autouse=True)
def _fresh_verification_memo():
    """Retire every recorded verdict around each test, so a verdict
    from one test never answers another's."""
    clear_verification_memo()
    yield
    clear_verification_memo()
