import numpy as np
import pytest


@pytest.fixture
def random_control_cdf():
    """The closed-form one-step CDF of the random-control move from x, an
    even mixture of U(0, x) and U(x, 1): the reference for its flow and
    sampler."""
    def cdf(x, t):
        x = np.asarray(x, dtype=float)
        return 0.5 * (np.clip(t / x, 0.0, 1.0) + np.clip((t - x) / (1.0 - x), 0.0, 1.0))
    return cdf
