"""Dual-quadric estimation and the metric upgrade."""

import numpy as np
import pytest

from twoslit.errors import DegeneracyError, ValidationError
from twoslit.golden import (
    REFERENCE_DAQ,
    REFERENCE_MAGNIFICATIONS,
    REFERENCE_Q,
)
from twoslit.selfcal import (
    OMEGA_DUAL,
    DualAbsoluteQuadric,
    estimate_daq,
    extract_upgrade,
    similarity_defect,
)
from twoslit.synthetic import random_calibrated_cameras, random_rotation
from twoslit.cameras import TwoSlitCamera, _rq_2x3


def scrambled(cams, Q):
    Qinv = np.linalg.inv(Q)
    return [TwoSlitCamera(c.A1 @ Qinv, c.A2 @ Qinv) for c in cams]


class TestQuadricClass:
    def test_normalization(self):
        M = -3.0 * np.diag([1.0, 2.0, 3.0, 4.0])
        q = DualAbsoluteQuadric(M)
        assert np.isclose(np.linalg.norm(q.matrix), 1.0)
        assert q.matrix[0, 0] > 0

    def test_eigen_descending(self, rng):
        A = rng.normal(size=(4, 4))
        q = DualAbsoluteQuadric(A + A.T)
        w, V = q.eigen()
        assert np.all(np.diff(w) <= 0)
        assert np.allclose(q.matrix @ V, V @ np.diag(w))

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError, match="4x4"):
            DualAbsoluteQuadric(np.eye(3))
        with pytest.raises(ValidationError, match="symmetric"):
            DualAbsoluteQuadric(np.arange(16.0).reshape(4, 4))
        with pytest.raises(ValidationError, match="nonzero"):
            DualAbsoluteQuadric(np.zeros((4, 4)))


def test_reference_frame_reproduces_published_quadric():
    M = REFERENCE_Q @ OMEGA_DUAL @ REFERENCE_Q.T
    M = M / M[0, 0]
    assert np.max(np.abs(M - REFERENCE_DAQ)) < 0.005


class TestEstimation:
    def test_needs_five_cameras(self, rng):
        cams, _ = random_calibrated_cameras(4, rng)
        with pytest.raises(ValidationError, match="at least 5"):
            estimate_daq(cams)

    def test_euclidean_frame_gives_omega(self, rng):
        cams, _ = random_calibrated_cameras(7, rng)
        daq = estimate_daq(cams)
        target = OMEGA_DUAL / np.linalg.norm(OMEGA_DUAL)
        assert np.max(np.abs(daq.matrix - target)) < 1e-9

    def test_scrambled_frame_gives_conjugated_quadric(self, rng):
        cams, _ = random_calibrated_cameras(9, rng)
        Q = REFERENCE_Q
        daq = estimate_daq(scrambled(cams, Q))
        M = Q @ OMEGA_DUAL @ Q.T
        M = M / np.linalg.norm(M)
        if M[0, 0] < 0:
            M = -M
        assert np.max(np.abs(daq.matrix - M)) < 1e-9

    def test_repeated_camera_is_degenerate_motion(self, rng):
        cams, _ = random_calibrated_cameras(1, rng)
        with pytest.raises(DegeneracyError, match="degenerate"):
            estimate_daq(cams * 6)


class TestUpgrade:
    def test_noiseless_end_to_end(self, rng):
        cams, cals = random_calibrated_cameras(
            8, rng, first=REFERENCE_MAGNIFICATIONS)
        Q = REFERENCE_Q
        upgrade = extract_upgrade(estimate_daq(scrambled(cams, Q)),
                                  scrambled(cams, Q))
        assert np.all(upgrade.eigenvalues[:3] > 0)
        assert abs(upgrade.eigenvalues[3]) < 1e-9
        assert similarity_defect(Q, upgrade.q_prime) < 1e-6
        for (m1, m2), (K1, K2) in zip(upgrade.magnifications, cals):
            assert abs(m1 - K1[0, 0]) < 1e-6 * K1[0, 0]
            assert abs(m2 - K2[0, 0]) < 1e-6 * K2[0, 0]

    def test_calibrations_are_diagonal_for_centered_cameras(self, rng):
        cams, cals = random_calibrated_cameras(6, rng)
        Q = np.eye(4) + 0.1 * rng.normal(size=(4, 4))
        upgrade = extract_upgrade(estimate_daq(scrambled(cams, Q)),
                                  scrambled(cams, Q))
        for K1, K2 in upgrade.calibrations:
            assert abs(K1[0, 1]) < 1e-6 * abs(K1[0, 0])
            assert abs(K2[0, 1]) < 1e-6 * abs(K2[0, 0])
            assert K1[1, 1] == pytest.approx(1.0)

    def test_full_rank_quadric_rejected(self, rng):
        cams, _ = random_calibrated_cameras(5, rng)
        bad = DualAbsoluteQuadric(np.diag([1.0, 0.9, 0.8, 0.5]))
        with pytest.raises(DegeneracyError, match="not rank 3"):
            extract_upgrade(bad, cams)

    def test_rank_two_quadric_rejected(self, rng):
        cams, _ = random_calibrated_cameras(5, rng)
        bad = DualAbsoluteQuadric(np.diag([1.0, 0.9, 0.0, 0.0]))
        with pytest.raises(DegeneracyError, match="third eigenvalue"):
            extract_upgrade(bad, cams)


class TestSimilarityDefect:
    def test_zero_for_similarity(self, rng):
        Q = REFERENCE_Q
        S = np.zeros((4, 4))
        S[:3, :3] = 2.5 * random_rotation(rng)
        S[:3, 3] = rng.normal(size=3)
        S[3, 3] = 0.7
        assert similarity_defect(Q, Q @ S) < 1e-12

    def test_positive_for_shear(self):
        S = np.eye(4)
        S[0, 1] = 0.4
        assert similarity_defect(np.eye(4), S) > 0.1

    def test_positive_for_projective_part(self):
        S = np.eye(4)
        S[3, 0] = 0.3
        assert similarity_defect(np.eye(4), S) > 0.1


SYM_INDEX = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
             (2, 2), (2, 3), (3, 3)]


def constraint_row(A):
    """The per-entry design row estimate_daq once built, kept as the reference."""
    A = A / np.linalg.norm(A)
    row = np.empty(10)
    for n, (a, b) in enumerate(SYM_INDEX):
        if a == b:
            row[n] = A[0, a] * A[1, a]
        else:
            row[n] = A[0, a] * A[1, b] + A[0, b] * A[1, a]
    return row


def test_design_rows_match_per_entry_loop(rng, monkeypatch):
    cams, _ = random_calibrated_cameras(12, rng)
    cams = scrambled(cams, np.eye(4) + 0.3 * rng.normal(size=(4, 4)))
    designs = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        designs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    estimate_daq(cams)
    rows = [constraint_row(A) for cam in cams for A in (cam.A1, cam.A2)]
    reference = np.array([r / np.linalg.norm(r) for r in rows])
    assert len(designs) == 1 and designs[0].shape == reference.shape
    assert np.max(np.abs(designs[0] - reference)) < 1e-14


def test_stacked_rq_matches_per_matrix_calls(rng):
    M = rng.normal(size=(5, 2, 2, 3))
    shared = rng.normal(size=(5, 2, 3))
    shared /= np.linalg.norm(shared, axis=-1, keepdims=True)
    for rb in (None, shared):
        K, ra, rb_out = _rq_2x3(M, rb)
        for idx in np.ndindex(5, 2):
            k, a, b = _rq_2x3(M[idx], None if rb is None else rb[idx])
            scale = np.linalg.norm(M[idx])
            assert np.max(np.abs(K[idx] - k)) < 1e-14 * scale
            assert np.max(np.abs(ra[idx] - a)) < 1e-14
            assert np.max(np.abs(rb_out[idx] - b)) < 1e-14
    M[3, 1, 0] = 2.5 * M[3, 1, 1]
    with pytest.raises(ValidationError, match="share a direction"):
        _rq_2x3(M[3, 1])
    with pytest.raises(ValidationError, match="share a direction"):
        _rq_2x3(M)
