import os

import numpy as np
import pytest

from lindiff.gaussian import DataMoments, SpectrumSpec, make_covariance


@pytest.fixture(scope="session")
def model16():
    """16-mode log-spaced spectrum over four decades, fixed seed."""
    return make_covariance(SpectrumSpec("log-spaced", {"lo": 1e-3, "hi": 10.0}), 16, 7)


@pytest.fixture(scope="session")
def moments16(model16):
    return DataMoments(np.zeros(16), model16.covariance())


@pytest.fixture(scope="session")
def model6():
    return make_covariance(SpectrumSpec("log-spaced", {"lo": 0.05, "hi": 4.0}), 6, 3)


@pytest.fixture(scope="session")
def moments6(model6):
    return DataMoments(np.zeros(6), model6.covariance())


@pytest.fixture(scope="session")
def circulant_matrix():
    """A reference-matrix builder: dense W with W[i, (i + o) mod n] = tap at offset o."""

    def build(taps, offsets, n):
        w = np.zeros((n, n))
        idx = np.arange(n)
        for o, t in zip(np.asarray(offsets, int), np.asarray(taps, float)):
            w[idx, (idx + o) % n] = t
        return w

    return build


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child of the test process unreaped, such as
    a table writer's worker: once every child is reaped, waitpid(-1) raises
    ChildProcessError."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(still running)'} unreaped")
