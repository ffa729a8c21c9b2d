"""Tensor construction, estimation, and camera recovery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoslit.cameras import (
    TwoSlitCamera,
    apply_space_transform,
    cameras_equal,
    project,
)
from twoslit.epipolar import (
    EpipolarTensor,
    MinorMatrix,
    _roots_guarded,
    cameras_from_minor_matrix,
    epipolar_residual,
    epipolar_residuals,
    essential_compose,
    essential_decompose,
    estimate_tensor_linear,
    multilinear_transform,
    normal_form_transform,
    recover_minor_matrices,
    tensor_from_cameras,
    tensor_gap,
    tensors_equal,
    transpose_conjugate,
    two_configurations,
)
from twoslit.errors import DegeneracyError, ValidationError
from twoslit.projective import COARSE_TOL, FIT_TOL, TOL, ZERO_TOL
from twoslit.synthetic import SceneConfig, generate_scene
from twoslit.golden import (
    REFERENCE_CONFIG_A,
    REFERENCE_CONFIG_B,
    REFERENCE_TENSOR,
)

CLEAN = 1e-8


def normal_form_cameras(second_rows):
    """Camera pair whose first rows are the standard basis."""
    C = np.asarray(second_rows, dtype=float)
    e = np.eye(4)
    camA = TwoSlitCamera(np.stack([e[0], C[0]]), np.stack([e[1], C[1]]))
    camB = TwoSlitCamera(np.stack([e[2], C[2]]), np.stack([e[3], C[3]]))
    return camA, camB


def correspondences_for(camA, camB, rng, n):
    rows = []
    while len(rows) < n:
        x = rng.normal(size=4)
        try:
            rows.append(np.concatenate([project(camA, x), project(camB, x)]))
        except ValidationError:
            continue
    return np.array(rows)


class TestTensor:
    def test_reference_tensor_integer_exact(self, reference_pair):
        t = tensor_from_cameras(*reference_pair)
        assert np.array_equal(t.values, REFERENCE_TENSOR)

    def test_reference_tensor_leading_entries_vanish(self, reference_pair):
        t = tensor_from_cameras(*reference_pair)
        assert t.entry(1, 1, 1, 1) == 0.0
        assert t.entry(1, 1, 1, 2) == 0.0

    def test_entry_accessor_is_one_based(self):
        t = EpipolarTensor(np.arange(16, dtype=float).reshape(2, 2, 2, 2) + 1)
        assert t.entry(1, 1, 1, 1) == 1.0
        assert t.entry(2, 2, 2, 2) == 16.0
        assert t.entry(1, 2, 1, 2) == 6.0

    def test_flat_is_lexicographic(self):
        t = EpipolarTensor(np.arange(16, dtype=float).reshape(2, 2, 2, 2) + 1)
        assert np.array_equal(t.flat(), np.arange(16.0) + 1)

    def test_from_flat_round_trip(self, rng):
        v = rng.normal(size=16)
        assert np.array_equal(EpipolarTensor.from_flat(v).flat(), v)

    def test_from_flat_needs_16(self):
        with pytest.raises(ValidationError):
            EpipolarTensor.from_flat(np.ones(15))

    def test_normalized(self, rng):
        t = EpipolarTensor(rng.normal(size=(2, 2, 2, 2))).normalized()
        assert np.isclose(np.linalg.norm(t.values), 1.0)
        assert t.flat()[np.argmax(np.abs(t.flat()))] > 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            EpipolarTensor(np.ones((2, 2, 2)))
        with pytest.raises(ValidationError):
            EpipolarTensor(np.zeros((2, 2, 2, 2)))
        bad = np.ones((2, 2, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            EpipolarTensor(bad)


def test_residual_vanishes_on_correspondences(reference_pair, rng):
    camA, camB = reference_pair
    t = tensor_from_cameras(camA, camB)
    corr = correspondences_for(camA, camB, rng, 30)
    for row in corr:
        assert abs(epipolar_residual(t, row[:3], row[3:])) < 1e-12


def test_residual_flags_wrong_pairing(reference_pair, rng):
    camA, camB = reference_pair
    t = tensor_from_cameras(camA, camB)
    corr = correspondences_for(camA, camB, rng, 10)
    mismatched = [abs(epipolar_residual(t, corr[i, :3], corr[(i + 1) % 10, 3:]))
                  for i in range(10)]
    assert np.median(mismatched) > 1e-4


def test_residual_normalization_is_scale_invariant(reference_pair, rng):
    camA, camB = reference_pair
    t = tensor_from_cameras(camA, camB)
    u = project(camA, rng.normal(size=4) + 3.0)
    v = project(camB, rng.normal(size=4))
    r1 = epipolar_residual(t, u, v)
    r2 = epipolar_residual(t, 7.5 * u, -2.0 * v)
    assert np.isclose(r1 if r1 * r2 >= 0 else -r1, r2, rtol=1e-9, atol=1e-15)
    raw1 = epipolar_residual(t, u, v, normalized=False)
    raw2 = epipolar_residual(t, 7.5 * u, v, normalized=False)
    assert np.isclose(raw2, 7.5 ** 2 * raw1, rtol=1e-9)


def test_multilinear_identity_is_noop(rng):
    F = rng.normal(size=(2, 2, 2, 2))
    G = multilinear_transform(F, [np.eye(2)] * 4)
    assert np.allclose(G, F)


def test_multilinear_composition(rng):
    F = rng.normal(size=(2, 2, 2, 2))
    Ms = [rng.normal(size=(2, 2)) for _ in range(4)]
    Ns = [rng.normal(size=(2, 2)) for _ in range(4)]
    twice = multilinear_transform(multilinear_transform(F, Ms), Ns)
    once = multilinear_transform(F, [M @ N for M, N in zip(Ms, Ns)])
    assert np.allclose(twice, once)


def test_tensor_projective_invariance(reference_pair, rng):
    camA, camB = reference_pair
    t0 = tensor_from_cameras(camA, camB)
    for _ in range(5):
        W = rng.normal(size=(4, 4))
        if np.linalg.cond(W) > 1e6:
            continue
        tW = tensor_from_cameras(apply_space_transform(camA, W),
                                 apply_space_transform(camB, W))
        assert tensors_equal(tW, t0, tol=1e-9)


class TestEstimation:
    def test_exact_on_noiseless_points(self, reference_pair, rng):
        camA, camB = reference_pair
        corr = correspondences_for(camA, camB, rng, 25)
        est = estimate_tensor_linear(corr)
        assert tensors_equal(est, tensor_from_cameras(camA, camB), tol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match=r"\(n, 6\)"):
            estimate_tensor_linear(np.ones((20, 5)))

    def test_minimum_count(self, reference_pair, rng):
        corr = correspondences_for(*reference_pair, rng, 14)
        with pytest.raises(ValidationError, match="at least 15"):
            estimate_tensor_linear(corr)

    def test_rejects_non_finite(self, reference_pair, rng):
        corr = correspondences_for(*reference_pair, rng, 20)
        corr[3, 2] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            estimate_tensor_linear(corr)

    def test_coplanar_points_are_degenerate(self, reference_pair, rng):
        camA, camB = reference_pair
        span = rng.normal(size=(3, 4))
        rows = []
        while len(rows) < 40:
            x = rng.normal(size=3) @ span
            try:
                rows.append(np.concatenate([project(camA, x), project(camB, x)]))
            except ValidationError:
                continue
        with pytest.raises(DegeneracyError, match="do not determine"):
            estimate_tensor_linear(np.array(rows))


class TestRecovery:
    def test_reference_candidates(self, reference_pair):
        t = tensor_from_cameras(*reference_pair)
        cands = recover_minor_matrices(t)
        assert len(cands) <= 8
        residuals = [r for _, r in cands]
        assert residuals == sorted(residuals)
        clean = [m for m, r in cands if r < CLEAN]
        assert len(clean) == 2
        # the remaining sign choices miss the two spare minors by a lot
        assert all(r > 1.0 for _, r in cands[2:])
        # each published matrix matches exactly one clean candidate
        for ref in (REFERENCE_CONFIG_A, REFERENCE_CONFIG_B):
            hits = [m for m in clean
                    if np.max(np.abs(m.matrix - ref)) < 0.01]
            assert len(hits) == 1

    def test_clean_candidates_reproduce_tensor(self, reference_pair):
        t = tensor_from_cameras(*reference_pair)
        for minor, res in recover_minor_matrices(t):
            if res >= CLEAN:
                continue
            camA, camB = cameras_from_minor_matrix(minor)
            assert tensors_equal(tensor_from_cameras(camA, camB), t, tol=1e-9)

    def test_matching_candidate_lands_on_true_cameras(self, reference_pair):
        camA, camB = reference_pair
        t = tensor_from_cameras(camA, camB)
        W = normal_form_transform(camA, camB)
        gaps = []
        for minor, res in recover_minor_matrices(t)[:2]:
            a, b = (apply_space_transform(c, W)
                    for c in cameras_from_minor_matrix(minor))
            gaps.append(cameras_equal(a, camA, tol=1e-9)
                        and cameras_equal(b, camB, tol=1e-9))
        assert sorted(gaps) == [False, True]

    def test_clean_pair_are_transpose_conjugates(self, reference_pair):
        t = tensor_from_cameras(*reference_pair)
        (m0, _), (m1, _) = recover_minor_matrices(t)[:2]
        assert np.allclose(transpose_conjugate(m0).matrix, m1.matrix,
                           rtol=1e-9, atol=1e-12)
        assert np.allclose(transpose_conjugate(m1).matrix, m0.matrix,
                           rtol=1e-9, atol=1e-12)

    def test_generic_sixteen_vector_has_no_clean_candidate(self, rng):
        """A random 16-vector is not the tensor of any camera pair: either
        every branch prunes or no sign choice fits the spare minors."""
        for _ in range(3):
            t = EpipolarTensor(rng.normal(size=(2, 2, 2, 2)))
            try:
                cands = recover_minor_matrices(t)
            except DegeneracyError:
                continue
            assert all(r > CLEAN for _, r in cands)

    def test_zero_last_entry_cannot_be_gauged(self, rng):
        v = rng.normal(size=16)
        v[15] = 0.0
        with pytest.raises(DegeneracyError, match="gauge-normalize"):
            recover_minor_matrices(EpipolarTensor.from_flat(v))

    @pytest.mark.parametrize("second_rows", [
        # first-row zero: the row gauge cannot express the true family
        [[0.609, 0.0, 1.501, 1.881],
         [-3.902, -2.604, 0.256, -0.632],
         [-0.034, -1.706, 1.759, 1.556],
         [0.132, 2.254, 0.935, -1.719]],
        # first-column zero: the transpose family is the unreachable one
        [[0.738, -1.918, 1.757, -0.1],
         [0.0, -1.362, 2.445, -0.309],
         [-0.857, -0.704, 1.065, 0.731],
         [0.825, 0.862, 4.283, -0.813]],
    ])
    def test_pinned_zero_triggers_column_fallback(self, second_rows):
        """A true zero in the pinned slots hides one family from the first
        pass; the second pass recovers it in the other gauge."""
        camA, camB = normal_form_cameras(second_rows)
        t = tensor_from_cameras(camA, camB)
        clean = [m for m, r in recover_minor_matrices(t) if r < CLEAN]
        assert len(clean) == 2
        gauges = {"col" if np.allclose(m.matrix[1:, 0], 1.0) else "row"
                  for m in clean}
        assert gauges == {"row", "col"}
        for m in clean:
            a, b = cameras_from_minor_matrix(m)
            assert tensors_equal(tensor_from_cameras(a, b), t, tol=1e-7)

    def test_two_configurations_reproduce_tensor(self, reference_pair):
        t = tensor_from_cameras(*reference_pair)
        minor = recover_minor_matrices(t)[0][0]
        for camA, camB in two_configurations(minor):
            assert tensors_equal(tensor_from_cameras(camA, camB), t, tol=1e-9)

    @pytest.mark.parametrize("second_rows", [
        # the two pairs of test_pinned_zero_triggers_column_fallback
        [[0.609, 0.0, 1.501, 1.881],
         [-3.902, -2.604, 0.256, -0.632],
         [-0.034, -1.706, 1.759, 1.556],
         [0.132, 2.254, 0.935, -1.719]],
        [[0.738, -1.918, 1.757, -0.1],
         [0.0, -1.362, 2.445, -0.309],
         [-0.857, -0.704, 1.065, 0.731],
         [0.825, 0.862, 4.283, -0.813]],
    ])
    def test_two_configurations_of_a_pinned_zero_reproduce_tensor(self, second_rows):
        """The best candidate holds a zero in its first column, where
        transpose_conjugate is undefined; its plain transpose stands in."""
        t = tensor_from_cameras(*normal_form_cameras(second_rows))
        minor = recover_minor_matrices(t)[0][0]
        assert np.min(np.abs(minor.matrix[1:, 0])) == 0.0
        for camA, camB in two_configurations(minor):
            assert tensors_equal(tensor_from_cameras(camA, camB), t, tol=1e-7)

    def test_two_configurations_check_one_rig_of_four(self, reference_pair, rig_checks):
        minor = recover_minor_matrices(tensor_from_cameras(*reference_pair))[0][0]
        rig_checks.clear()
        two_configurations(minor)
        assert rig_checks == [4]

    @pytest.mark.parametrize("second_rows", [
        None,  # the reference pair
        # the two pairs of test_pinned_zero_triggers_column_fallback
        [[0.609, 0.0, 1.501, 1.881],
         [-3.902, -2.604, 0.256, -0.632],
         [-0.034, -1.706, 1.759, 1.556],
         [0.132, 2.254, 0.935, -1.719]],
        [[0.738, -1.918, 1.757, -0.1],
         [0.0, -1.362, 2.445, -0.309],
         [-0.857, -0.704, 1.065, 0.731],
         [0.825, 0.862, 4.283, -0.813]],
    ])
    def test_two_configurations_keep_every_bit_of_one_pair_at_a_time(
            self, reference_pair, second_rows):
        pair = reference_pair if second_rows is None else normal_form_cameras(second_rows)
        minor = recover_minor_matrices(tensor_from_cameras(*pair))[0][0]
        if second_rows is None:
            companion = transpose_conjugate(minor)
        else:  # a zero in the first column: the plain transpose stands in
            assert np.min(np.abs(minor.matrix[1:, 0])) == 0.0
            companion = MinorMatrix(minor.matrix.T)
        want = (cameras_from_minor_matrix(minor), cameras_from_minor_matrix(companion))
        got = two_configurations(minor)
        for got_pair, want_pair in zip(got, want, strict=True):
            for g, w in zip(got_pair, want_pair, strict=True):
                assert g.A1.tobytes() == w.A1.tobytes()
                assert g.A2.tobytes() == w.A2.tobytes()

    def test_symmetric_minor_matrix_is_self_conjugate(self, rng):
        M = rng.normal(size=(4, 4))
        C = (M + M.T) / 2.0
        C[0] = [C[0, 0], 1.0, 1.0, 1.0]
        C[:, 0] = C[0]
        minor = MinorMatrix(C)
        assert np.array_equal(transpose_conjugate(minor).matrix, C)
        (a1, b1), (a2, b2) = two_configurations(minor)
        assert cameras_equal(a1, a2) and cameras_equal(b1, b2)


class TestMinorMatrix:
    def test_accepts_both_gauges(self, rng):
        body = rng.normal(size=(4, 4))
        row = body.copy()
        row[0, 1:] = 1.0
        assert MinorMatrix(row).matrix[0, 1] == 1.0
        col = body.copy()
        col[1:, 0] = 1.0
        assert MinorMatrix(col).matrix[1, 0] == 1.0

    def test_rejects_unpinned(self, rng):
        with pytest.raises(ValidationError, match="first row or first column"):
            MinorMatrix(rng.normal(size=(4, 4)) + 5.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError, match="4x4"):
            MinorMatrix(np.ones((3, 4)))

    @pytest.mark.parametrize("offset, accepted", [(0.5 * TOL, True), (2.0 * TOL, False)])
    def test_pinned_row_is_held_to_tol(self, rng, offset, accepted):
        C = rng.normal(size=(4, 4)) + 5.0
        C[0, 1:] = 1.0
        C[0, 2] += offset
        if accepted:
            assert MinorMatrix(C).matrix[0, 2] == 1.0 + offset
        else:
            with pytest.raises(ValidationError, match="first row or first column"):
                MinorMatrix(C)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("slot", [(0, 1), (2, 3)])  # pinned, free
    def test_rejects_non_finite_entries(self, rng, value, slot):
        C = rng.normal(size=(4, 4))
        C[0, 1:] = 1.0
        C[slot] = value
        with pytest.raises(ValidationError, match="non-finite"):
            MinorMatrix(C)

    def test_transpose_conjugate_needs_nonzero_column(self):
        C = np.ones((4, 4))
        C[0, 0] = 2.0
        C[1, 0] = 0.0
        C[1, 1] = 3.0
        with pytest.raises(DegeneracyError, match="transpose companion"):
            transpose_conjugate(MinorMatrix(C))

    def test_cameras_from_minor_matrix_validates_geometry(self):
        # all-ones second rows force the two null lines of camera A to meet
        with pytest.raises(ValidationError):
            cameras_from_minor_matrix(MinorMatrix(np.ones((4, 4))))


class TestNormalFormTransform:
    def test_dependent_first_rows_rejected(self):
        camA = TwoSlitCamera(np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]]),
                             np.array([[0.0, 1, 0, 0], [0.0, 0, 1, 1]]))
        camB = TwoSlitCamera(np.array([[1.0, 1, 0, 0], [0.0, 0, 1, 0]]),
                             np.array([[1.0, -1, 0, 0], [0.0, 0, 0, 1]]))
        with pytest.raises(DegeneracyError, match="linearly dependent"):
            normal_form_transform(camA, camB)

    def test_vanishing_gauge_entry_rejected(self):
        camA, camB = normal_form_cameras([
            [0.609, 0.0, 1.501, 1.881],
            [-3.902, -2.604, 0.256, -0.632],
            [-0.034, -1.706, 1.759, 1.556],
            [0.132, 2.254, 0.935, -1.719],
        ])
        with pytest.raises(DegeneracyError, match="gauge undefined"):
            normal_form_transform(camA, camB)


class TestEssential:
    def test_round_trip(self, reference_pair, rng):
        t = tensor_from_cameras(*reference_pair)
        Ks = [rng.normal(size=(2, 2)) for _ in range(4)]
        back = essential_compose(essential_decompose(t, *Ks), *Ks)
        assert tensors_equal(back, t, tol=1e-9)

    def test_decompose_strips_calibrations(self, rng):
        while True:
            raw = [rng.normal(size=(2, 4)) for _ in range(4)]
            try:
                camA = TwoSlitCamera(raw[0], raw[1])
                camB = TwoSlitCamera(raw[2], raw[3])
                break
            except ValidationError:
                continue
        Ks = [rng.normal(size=(2, 2)) for _ in range(4)]
        calA = TwoSlitCamera(Ks[0] @ raw[0], Ks[1] @ raw[1])
        calB = TwoSlitCamera(Ks[2] @ raw[2], Ks[3] @ raw[3])
        stripped = essential_decompose(tensor_from_cameras(calA, calB), *Ks)
        assert tensors_equal(stripped, tensor_from_cameras(camA, camB), tol=1e-9)

    def test_singular_calibration_rejected(self, reference_pair):
        t = tensor_from_cameras(*reference_pair)
        bad = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ValidationError, match="singular"):
            essential_decompose(t, bad, np.eye(2), np.eye(2), np.eye(2))


@st.composite
def nonsingular_2x2(draw):
    entries = st.floats(-5.0, 5.0, allow_nan=False)
    K = np.array([[draw(entries), draw(entries)],
                  [draw(entries), draw(entries)]])
    if abs(np.linalg.det(K)) < 0.05:
        K = K + np.eye(2)
    if abs(np.linalg.det(K)) < 0.05:
        K = np.eye(2) * 2.0
    return K


@given(Ks=st.tuples(*[nonsingular_2x2()] * 4))
@settings(max_examples=100, deadline=None)
def test_essential_round_trip_property(Ks):
    t = EpipolarTensor(REFERENCE_TENSOR)
    back = essential_compose(essential_decompose(t, *Ks), *Ks)
    assert tensors_equal(back, t, tol=1e-6)


def test_fifteen_noiseless_rows_give_the_true_tensor(reference_pair, rng):
    camA, camB = reference_pair
    corr = correspondences_for(camA, camB, rng, 15)
    assert tensors_equal(estimate_tensor_linear(corr),
                         tensor_from_cameras(camA, camB), tol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_offset_images_are_not_degenerate(seed):
    scene = generate_scene(SceneConfig(n_points=100, noise_sigma=1e-3, seed=seed,
                                       image_scale=100))
    corr = scene.correspondences.copy()
    corr[:, [0, 1, 3, 4]] += 1e4
    shift = np.linalg.inv([[1.0, 1e4], [0.0, 1.0]])
    expected = multilinear_transform(
        estimate_tensor_linear(scene.correspondences).values, [shift] * 4)
    assert tensor_gap(estimate_tensor_linear(corr), EpipolarTensor(expected)) < 1e-8


@given(scales=st.lists(st.floats(0.05, 20.0), min_size=4, max_size=4),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
       shifts=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
       seed=st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_estimate_commutes_with_image_affinities(scales, signs, shifts, seed):
    """Moving image coordinate k to s u_k + t u_3 moves the estimate to
    the tensor contracted with the inverse map in mode k."""
    scene = generate_scene(SceneConfig(n_points=40, noise_sigma=1e-3, seed=seed))
    corr = scene.correspondences
    maps = [np.array([[sign * s, t], [0.0, 1.0]])
            for s, sign, t in zip(scales, signs, shifts)]
    moved = corr.copy()
    for col, w, M in zip((0, 1, 3, 4), (2, 2, 5, 5), maps):
        moved[:, col] = M[0, 0] * corr[:, col] + M[0, 1] * corr[:, w]
    expected = multilinear_transform(estimate_tensor_linear(corr).values,
                                     [np.linalg.inv(M) for M in maps])
    assert tensor_gap(estimate_tensor_linear(moved), EpipolarTensor(expected)) < 1e-8


def test_residual_kernel_matches_rows(reference_pair, rng):
    camA, camB = reference_pair
    corr = correspondences_for(camA, camB, rng, 10) + rng.normal(0, 1e-3, (10, 6))
    t = tensor_from_cameras(camA, camB)
    for normalized in (True, False):
        values = epipolar_residuals(t, corr, normalized=normalized)
        for row, value in zip(corr, values):
            assert value == epipolar_residual(t, row[:3], row[3:], normalized=normalized)
    assert epipolar_residuals(t, np.zeros((1, 6)))[0] == np.inf


def _random_camera_pair(draw):
    """Two cameras from draw(shape) matrices, redrawn until valid."""
    while True:
        try:
            return (TwoSlitCamera(draw((2, 4)), draw((2, 4))),
                    TwoSlitCamera(draw((2, 4)), draw((2, 4))))
        except ValidationError:
            pass


def _stacked_rows(camA, camB, a, b, c, d):
    return [camA.A1[1 - a], camA.A2[1 - b], camB.A1[1 - c], camB.A2[1 - d]]


def test_tensor_matches_signed_determinants(rng):
    """Entry (a, b, c, d) is (-1)^(a+b+c+d) det of the stacked rows."""
    for _ in range(200):
        camA, camB = _random_camera_pair(lambda shape: rng.normal(size=shape))
        F = tensor_from_cameras(camA, camB).values
        ref = np.empty((2, 2, 2, 2))
        for idx in itertools.product(range(2), repeat=4):
            ref[idx] = (-1.0) ** sum(idx) * np.linalg.det(_stacked_rows(camA, camB, *idx))
        assert np.max(np.abs(F - ref)) <= 1e-12 * np.max(np.abs(ref))


def _integer_det(rows):
    """Leibniz determinant in Python integers."""
    total = 0
    for p in itertools.permutations(range(4)):
        inversions = sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2))
        term = (-1) ** inversions
        for row, col in zip(rows, p):
            term *= int(row[col])
        total += term
    return total


def test_tensor_is_exact_on_integer_cameras():
    rng = np.random.default_rng(7)
    for _ in range(200):
        camA, camB = _random_camera_pair(
            lambda shape: rng.integers(-20, 21, size=shape).astype(float))
        F = tensor_from_cameras(camA, camB).values
        for idx in itertools.product(range(2), repeat=4):
            assert F[idx] == (-1) ** sum(idx) * _integer_det(_stacked_rows(camA, camB, *idx))


@given(seed=st.integers(0, 30), power=st.sampled_from([-480, 480]))
@settings(max_examples=20, deadline=None)
def test_rows_times_a_power_of_two_give_the_same_bits(seed, power):
    """All rows times 2^480 or 2^-480 give bit for bit the tensor of
    the unscaled rows, where the design's products of four factors
    would overflow or underflow."""
    corr = generate_scene(SceneConfig(n_points=30, noise_sigma=1e-4, seed=seed)).correspondences
    want = estimate_tensor_linear(corr).values
    assert np.array_equal(estimate_tensor_linear(np.ldexp(corr, power)).values, want)


@given(seed=st.integers(0, 30), powers=st.lists(st.integers(-1000, 1000), min_size=20,
                                                 max_size=20))
@settings(max_examples=20, deadline=None)
def test_residuals_ignore_each_rows_power_of_two(seed, powers):
    """A normalized residual is the same bits for a row times any power
    of two, and for the tensor times one, however large or small; image
    coordinates that are exactly zero included."""
    corr = generate_scene(SceneConfig(n_points=20, noise_sigma=1e-4, seed=seed)).correspondences
    corr[0, 0] = corr[1, 4] = 0.0
    t = estimate_tensor_linear(corr)
    scaled = np.ldexp(corr, np.array(powers)[:, None])
    want = epipolar_residuals(t, corr)
    with np.errstate(over="raise", invalid="raise"):
        assert np.array_equal(epipolar_residuals(t, scaled), want)
        big = EpipolarTensor(np.ldexp(t.values, 1000))
        assert np.array_equal(epipolar_residuals(big, scaled), want)
        assert np.array_equal(big.normalized().values, t.normalized().values)


def row_with_zero_factor():
    corr = generate_scene(SceneConfig(n_points=20, seed=3)).correspondences
    corr[0, [0, 2]] = 0.0  # u1 = u3 = 0: the factor (u1, u3) vanishes
    return corr


@pytest.mark.parametrize("call, message", [
    (lambda t: epipolar_residual(t, [1.0, 2.0], [1.0, 2.0, 3.0]), "image point u"),
    (lambda t: epipolar_residual(t, [1.0, 2.0, 3.0], np.ones((2, 2))), "image point v"),
    (lambda t: estimate_tensor_linear(row_with_zero_factor()), "identically zero factor"),
    (lambda t: essential_decompose(t, np.eye(3), np.eye(2), np.eye(2), np.eye(2)),
     "K1A must be 2x2"),
], ids=["short-u", "long-v", "zero-factor", "3x3-calibration"])
@pytest.mark.filterwarnings("error")
def test_bad_arguments_end_in_validation_errors(reference_pair, call, message):
    with pytest.raises(ValidationError, match=message):
        call(tensor_from_cameras(*reference_pair))


def two_pass_reference(tensor):
    """recover_minor_matrices as it was with a second, column-pinned pass
    of the quadratics, kept to show that one pass plus transposes gives
    the same candidates, bit for bit, wherever a generic pair is fed."""
    F = tensor.values
    Fn = F / F[1, 1, 1, 1]

    def f(i, j, k, l):
        return float(Fn[i - 1, j - 1, k - 1, l - 1])

    c11, c22, c33, c44 = -f(1, 2, 2, 2), -f(2, 1, 2, 2), -f(2, 2, 1, 2), -f(2, 2, 2, 1)
    c21 = c11 * c22 - f(1, 1, 2, 2)
    c31 = c11 * c33 - f(1, 2, 1, 2)
    c41 = c11 * c44 - f(1, 2, 2, 1)
    branch_data = (
        (c22 * c33 - f(2, 1, 1, 2), c21,
         f(1, 1, 1, 2) + c11 * f(2, 1, 1, 2) - c31 * c22 - c21 * c33, c31),
        (c22 * c44 - f(2, 1, 2, 1), c21,
         f(1, 1, 2, 1) + c11 * f(2, 1, 2, 1) - c41 * c22 - c21 * c44, c41),
        (c33 * c44 - f(2, 2, 1, 1), c31,
         f(1, 2, 1, 1) + c11 * f(2, 2, 1, 1) - c41 * c33 - c31 * c44, c41),
    )

    def gauge_pass(pin_column):
        branches = []
        for (P, lo, b, hi) in branch_data:
            if pin_column:
                lo, hi = hi, lo
            branches.append([(root, P / root) for root in _roots_guarded(lo, b, hi * P)
                             if abs(root) >= ZERO_TOL * (abs(P) + 1.0)])
        out = []
        for (c32, c23), (c42, c24), (c43, c34) in itertools.product(*branches):
            C = np.array([[c11, 1.0, 1.0, 1.0], [c21, c22, c23, c24],
                          [c31, c32, c33, c34], [c41, c42, c43, c44]])
            if pin_column:
                C[0, 1:], C[1:, 0] = C[1:, 0], 1.0
            res = (np.linalg.det(C) - f(1, 1, 1, 1)) ** 2 + \
                  (-np.linalg.det(C[1:, 1:]) - f(2, 1, 1, 1)) ** 2
            out.append((C, float(res)))
        return out

    def same_up_to_diagonal_gauge(col_C, row_C):
        d = col_C[0, 1:]
        if np.min(np.abs(d)) < ZERO_TOL * max(1.0, float(np.max(np.abs(col_C)))):
            return False
        rescaled = col_C[1:, 1:] * (d[:, None] / d[None, :])
        tol = COARSE_TOL * max(1.0, float(np.max(np.abs(row_C))))
        return float(np.max(np.abs(rescaled - row_C[1:, 1:]))) <= tol

    candidates = gauge_pass(False)
    if sum(1 for _, res in candidates if res < FIT_TOL) < 2:
        candidates += [(C, res) for C, res in gauge_pass(True) if not any(
            same_up_to_diagonal_gauge(C, R) for R, _ in candidates)]
    candidates.sort(key=lambda t: t[1])
    return candidates[:8]


def recovery_inputs():
    yield "golden", EpipolarTensor(REFERENCE_TENSOR)
    for seed in range(0, 40, 2):
        for sigma in (0.0, 1e-4):
            scene = generate_scene(SceneConfig(n_points=70, noise_sigma=sigma, seed=seed))
            yield f"seed{seed}-sigma{sigma}", estimate_tensor_linear(scene.correspondences)


def test_one_pass_recovery_keeps_every_bit_of_two_passes():
    for name, t in recovery_inputs():
        got = [(m.matrix, r) for m, r in recover_minor_matrices(t)]
        want = two_pass_reference(t)
        assert len(got) == len(want), name
        for (C, r), (R, s) in zip(got, want):
            assert C.tobytes() == R.tobytes() and r.hex() == s.hex(), name


@pytest.mark.parametrize("zero", [(1, 2), (2, 1), (1, 3), (3, 2)])
def test_block_zero_yields_both_configurations(rng, zero):
    """A zero in the 3x3 block makes a root of its quadratic zero: its
    partner comes from the linear relation, so both configurations come
    out clean, in the row gauge, one with the zero and one with it
    transposed; the two-pass reference finds only one."""
    for _ in range(5):
        C = rng.normal(size=(4, 4))
        C[zero] = 0.0
        t = tensor_from_cameras(*normal_form_cameras(C))
        clean = [m for m, r in recover_minor_matrices(t) if r < CLEAN]
        assert len(clean) == 2
        assert all(np.array_equal(m.matrix[0, 1:], np.ones(3)) for m in clean)
        assert sorted((abs(m.matrix[zero]) < ZERO_TOL, abs(m.matrix[zero[::-1]]) < ZERO_TOL)
                      for m in clean) == [(False, True), (True, False)]
        for m in clean:
            a, b = cameras_from_minor_matrix(m)
            assert tensors_equal(tensor_from_cameras(a, b), t, tol=1e-7)
        assert sum(r < CLEAN for _, r in two_pass_reference(t)) == 1


def test_recovery_scores_all_candidates_with_two_determinants(monkeypatch, reference_pair):
    """The sign combinations are scored as one stack: two det calls per
    recovery, not two per candidate."""
    calls = []
    det = np.linalg.det

    def counting(a):
        calls.append(np.shape(a))
        return det(a)
    monkeypatch.setattr(np.linalg, "det", counting)
    tensors = [tensor_from_cameras(*reference_pair),
               tensor_from_cameras(*normal_form_cameras(
                   [[0.609, 0.0, 1.501, 1.881], [-3.902, -2.604, 0.256, -0.632],
                    [-0.034, -1.706, 1.759, 1.556], [0.132, 2.254, 0.935, -1.719]]))]
    for t in tensors:
        calls.clear()
        assert len(recover_minor_matrices(t)) > 2
        assert len(calls) == 2
