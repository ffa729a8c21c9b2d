import numpy as np
import pytest

from twoslit.epipolar import estimate_tensor_linear
from twoslit.synthetic import SceneConfig, generate_scene, reference_camera_pair


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def reference_pair():
    return reference_camera_pair()


@pytest.fixture
def near_gauge_offset():
    """Correspondences of a seed's default scene (70 points, sigma 1e-5,
    image scale 100) with u1 moved by m u3, where m is 1e-6 off the
    offset that zeroes the estimate's gauge entry f2222: valid input on
    which the recovered cameras fail the camera check."""
    def make(seed):
        config = SceneConfig(n_points=70, noise_sigma=1e-5, seed=seed, image_scale=100)
        corr = generate_scene(config).correspondences.copy()
        F = estimate_tensor_linear(corr).values
        m = F[1, 1, 1, 1] / F[0, 1, 1, 1] * (1 + 1e-6)
        corr[:, 0] += m * corr[:, 2]
        return corr

    return make


@pytest.fixture
def rig_checks(monkeypatch):
    """The sizes of the rigs that cameras._check_rig checks from now on,
    one entry per call."""
    from twoslit.cameras import _check_rig
    calls = []

    def counting(A):
        calls.append(len(A))
        return _check_rig(A)
    monkeypatch.setattr("twoslit.cameras._check_rig", counting)
    return calls
