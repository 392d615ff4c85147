import numpy as np
import pytest

from noisylearn import data


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_blobs():
    """Small easy dataset shared by tests that only need plausible inputs."""
    return data.make_blobs(data.DatasetSpec(n_classes=3, n_per_class=40,
                                            n_features=6, separation=4.0,
                                            sigma=0.8), seed=11)
