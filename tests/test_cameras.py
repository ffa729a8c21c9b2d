"""Linear two-slit cameras: projection, rays, transforms, decompositions."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoslit.cameras import (
    TwoSlitCamera,
    _check_rig,
    _cleared,
    _images,
    _rig,
    _singular,
    _stack,
    apply_space_transform,
    base_line,
    camera_distance,
    cameras_equal,
    decompose_parallel,
    decompose_pushbroom,
    default_retinal_plane,
    inverse_ray,
    is_parallel,
    project,
    project_points,
    slits,
    to_quadratic,
)
from twoslit.congruence import quadratic_project
from twoslit.epipolar import tensor_from_cameras, tensor_gap
from twoslit.errors import ValidationError
from twoslit.projective import (
    TINY,
    TOL,
    ZERO_TOL,
    join_line_point,
    join_points,
    line_in_plane,
    lines_meet,
    point_on_line,
    pow2_scaled,
    proj_equal,
)
from twoslit.synthetic import (
    euclidean_transform,
    parallel_camera_pair,
    random_rotation,
    rotation_about_axis,
)


def random_camera(rng):
    while True:
        try:
            return TwoSlitCamera(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
        except ValidationError:
            continue


def test_rank_deficient_matrix_rejected():
    A1 = np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    with pytest.raises(ValidationError):
        TwoSlitCamera(A1, np.array([[0.0, 1, 0, 0], [0, 0, 1, 0]]))


def test_meeting_slits_rejected():
    # both null lines pass through the origin
    A1 = np.array([[1.0, 0, 0, 0], [0.0, 1, 0, 0]])
    A2 = np.array([[0.0, 0, 1, 0], [1.0, 1, 1, 0]])
    with pytest.raises(ValidationError):
        TwoSlitCamera(A1, A2)


def test_projection_worked_example():
    cam = TwoSlitCamera(
        np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]]),
        np.array([[0.0, 2, 0, 0], [0.0, 0, 1, 1]]),
    )
    u = project(cam, [1.0, 2, 3, 4])
    # (x1(x3+x4), 2 x2 x3, x3(x3+x4)) at (1,2,3,4)
    assert np.allclose(u, [7.0, 12, 21])


def test_projection_matches_row_products(rng):
    cam = random_camera(rng)
    x = rng.normal(size=4)
    p1, p2 = cam.A1
    q1, q2 = cam.A2
    u = project(cam, x)
    assert u[0] == pytest.approx((p1 @ x) * (q2 @ x))
    assert u[1] == pytest.approx((p2 @ x) * (q1 @ x))
    assert u[2] == pytest.approx((p2 @ x) * (q2 @ x))


def test_projection_on_slit_rejected():
    cam = TwoSlitCamera(
        np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]]),
        np.array([[0.0, 2, 0, 0], [0.0, 0, 1, 1]]),
    )
    # null space of A1 is spanned by (0,1,0,0) and (0,0,0,1)
    with pytest.raises(ValidationError, match="slit"):
        project(cam, [0.0, 1, 0, 0])


def test_slits_are_skew_null_lines(rng):
    cam = random_camera(rng)
    l1, l2 = slits(cam)
    assert not lines_meet(l1, l2)
    # every point of l1 is annihilated by A1
    from twoslit.projective import primal_matrix
    L = primal_matrix(l1)
    for col in L.T:
        assert np.linalg.norm(cam.A1 @ col) < 1e-8 * max(np.linalg.norm(col), 1e-9)


def test_inverse_ray_round_trip(rng):
    cam = random_camera(rng)
    for _ in range(10):
        x = rng.normal(size=4)
        u = project(cam, x)
        ray = inverse_ray(cam, u)
        assert point_on_line(ray, x, tol=1e-7)
        l1, l2 = slits(cam)
        assert lines_meet(ray, l1, tol=1e-7)
        assert lines_meet(ray, l2, tol=1e-7)


def test_inverse_ray_special_points(rng):
    cam = random_camera(rng)
    l1, l2 = slits(cam)
    assert proj_equal(inverse_ray(cam, [0.0, 1, 0]), l1, tol=1e-7)
    assert proj_equal(inverse_ray(cam, [1.0, 0, 0]), l2, tol=1e-7)


def test_camera_distance_ignores_matrix_sign(rng):
    cam = random_camera(rng)
    flipped = TwoSlitCamera(-cam.A1, cam.A2)
    assert camera_distance(cam, flipped) < 1e-12
    assert cameras_equal(cam, flipped)


def test_camera_distance_detects_difference(rng):
    cam = random_camera(rng)
    other = random_camera(rng)
    assert camera_distance(cam, other) > 1e-3


def test_apply_space_transform_equivariance(rng):
    cam = random_camera(rng)
    H = rng.normal(size=(4, 4))
    moved = apply_space_transform(cam, H)
    x = rng.normal(size=4)
    assert proj_equal(project(moved, H @ x), project(cam, x), tol=1e-7)


def test_apply_space_transform_rejects_singular():
    cam = TwoSlitCamera(
        np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 1]]),
        np.array([[0.0, 2, 0, 0], [0.0, 0, 1, 0]]),
    )
    H = np.diag([1.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValidationError, match="singular"):
        apply_space_transform(cam, H)


def test_base_line_in_default_retinal_plane(rng):
    cam = random_camera(rng)
    assert line_in_plane(base_line(cam), default_retinal_plane(cam), tol=1e-7)


def test_to_quadratic_reproduces_projection(rng):
    """The quadratic form of a linear camera gives the same image map.

    The two parameterisations differ by one overall factor that is
    constant across the whole image, so the relative scales of the
    three coordinates are preserved exactly.
    """
    cam = random_camera(rng)
    qcam = to_quadratic(cam)
    x0 = rng.normal(size=4)
    u_quad, u_lin = quadratic_project(qcam, x0), project(cam, x0)
    factor = u_quad[np.argmax(np.abs(u_lin))] / u_lin[np.argmax(np.abs(u_lin))]
    assert np.allclose(u_quad, factor * u_lin, rtol=1e-7, atol=1e-9)
    for _ in range(5):
        x = rng.normal(size=4)
        assert np.allclose(quadratic_project(qcam, x), factor * project(cam, x),
                           rtol=1e-7, atol=1e-7)


def test_to_quadratic_worked_example():
    cam = TwoSlitCamera(
        np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]]),
        np.array([[0.0, 2, 0, 0], [0.0, 0, 1, 1]]),
    )
    qcam = to_quadratic(cam, plane=[0.0, 0, 1, -1])
    assert proj_equal(quadratic_project(qcam, [1.0, 2, 3, 4]), [7.0, 12, 21])


def test_to_quadratic_plane_choice_is_immaterial(rng):
    """Any admissible retinal plane yields the same projective image map."""
    cam = random_camera(rng)
    base = base_line(cam)
    q_default = to_quadratic(cam)
    # Build a second plane through the base line from a fresh point.
    while True:
        plane = join_line_point(base, rng.normal(size=4))
        if np.linalg.norm(plane) > 1e-6:
            break
    q_other = to_quadratic(cam, plane=plane)
    for _ in range(5):
        x = rng.normal(size=4)
        assert proj_equal(quadratic_project(q_default, x),
                          quadratic_project(q_other, x), tol=1e-7)


def test_to_quadratic_rejects_plane_without_base_line(rng):
    cam = random_camera(rng)
    with pytest.raises(ValidationError, match="base line"):
        to_quadratic(cam, plane=[1.0, 0, 0, 0])


class TestParallelDecomposition:
    def test_worked_example(self):
        cam = TwoSlitCamera(
            np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]]),
            np.array([[0.0, 2, 0, 0], [0.0, 0, 1, 1]]),
        )
        dec = decompose_parallel(cam)
        assert dec.theta == pytest.approx(np.pi / 2)
        assert dec.d == pytest.approx(1.0)
        assert np.allclose(dec.K1, np.eye(2))
        assert np.allclose(dec.K2, np.diag([2.0, 1.0]))

    def test_round_trip(self, rng):
        K1 = np.array([[1.7, 0.3], [0.0, 1.0]])
        K2 = np.array([[0.8, -0.4], [0.0, 1.0]])
        cam = parallel_camera_pair(K1, K2, random_rotation(rng), 1.1,
                                   [0.2, -0.5, 0.4, 1.9])
        dec = decompose_parallel(cam)
        assert np.allclose(dec.K1, K1, atol=1e-9)
        assert np.allclose(dec.K2, K2, atol=1e-9)
        assert dec.theta == pytest.approx(1.1)
        assert dec.d == pytest.approx(1.5)
        assert cameras_equal(dec.rebuild(), cam, tol=1e-9)

    def test_euclidean_motion_leaves_invariants(self, rng):
        cam = parallel_camera_pair(np.diag([2.0, 1.0]), np.diag([0.7, 1.0]),
                                   random_rotation(rng), 0.9, [0.0, 0.1, -0.2, 0.8])
        H = euclidean_transform(rotation_about_axis([0.2, 1.0, -0.5], 0.77),
                                [3.0, -1.0, 2.0])
        dec0 = decompose_parallel(cam)
        dec1 = decompose_parallel(apply_space_transform(cam, H))
        assert np.allclose(dec0.K1, dec1.K1, atol=1e-9)
        assert np.allclose(dec0.K2, dec1.K2, atol=1e-9)
        assert dec1.theta == pytest.approx(dec0.theta)
        assert dec1.d == pytest.approx(dec0.d)

    def test_non_parallel_rejected(self, rng):
        cam = random_camera(rng)
        assert not is_parallel(cam)
        with pytest.raises(ValidationError, match="parallel"):
            decompose_parallel(cam)

    def test_intrinsics_dictionary(self):
        cam = TwoSlitCamera(
            np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]]),
            np.array([[0.0, 2, 0, 0], [0.0, 0, 1, 1]]),
        )
        intr = decompose_parallel(cam).intrinsics()
        assert intr["fu"] == pytest.approx(1.0)
        assert intr["fv"] == pytest.approx(1.0)  # K2 magnification 2 halved


class TestPushbroomDecomposition:
    def build(self, rng, speed=1.4, f=2.2, u=0.3):
        r = random_rotation(rng)
        K1 = np.diag([speed, 1.0])
        K2 = np.array([[f, u], [0.0, 1.0]])
        A1 = K1 @ np.vstack([np.append(r[0], 0.7), [0.0, 0, 0, 1]])
        A2 = K2 @ np.vstack([np.append(r[1], -0.2), np.append(r[2], 1.1)])
        return TwoSlitCamera(A1, A2), K1, K2

    def test_round_trip(self, rng):
        cam, K1, K2 = self.build(rng)
        dec = decompose_pushbroom(cam)
        assert np.allclose(dec.K1, K1, atol=1e-9)
        assert np.allclose(dec.K2, K2, atol=1e-9)
        assert cameras_equal(dec.rebuild(), cam, tol=1e-9)

    def test_sweep_slit_must_be_at_infinity(self, rng):
        cam, _, _ = self.build(rng)
        swapped = TwoSlitCamera(cam.A2, cam.A1)
        with pytest.raises(ValidationError, match="pushbroom"):
            decompose_pushbroom(swapped)


def test_is_parallel_spots_shared_direction():
    cam = TwoSlitCamera(
        np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]]),
        np.array([[0.0, 2, 0, 0], [0.0, 0, 1, 1]]),
    )
    assert is_parallel(cam)


@pytest.mark.parametrize("zero", ["A1", "A2"])
def test_zero_matrix_rejected(zero):
    pair = {"A1": np.array([[1.0, 0, 0, 0], [0, 0, 1, 0]]),
            "A2": np.array([[0.0, 1, 0, 0], [0, 0, 0, 1]])}
    pair[zero] = np.zeros((2, 4))
    with pytest.raises(ValidationError, match=f"{zero} is rank deficient"):
        TwoSlitCamera(pair["A1"], pair["A2"])


def three_svd_check(A1, A2):
    """Reference: the camera check as it stood with one SVD per matrix
    and one of the stack of the unit-norm matrices. Returns the message,
    or None for a valid camera."""
    for name, A in (("A1", A1), ("A2", A2)):
        s = np.linalg.svd(A, compute_uv=False)
        if s[1] < TOL * s[0]:
            return f"{name} is rank deficient; its null space is not a line"
    s = np.linalg.svd(np.vstack([A1 / np.linalg.norm(A1), A2 / np.linalg.norm(A2)]),
                      compute_uv=False)
    if s[3] < TOL * s[0]:
        return "slits intersect: the stacked 4x4 matrix is singular"
    return None


def near_threshold_pairs(rng, count):
    """Camera matrices whose rank or slit-crossing margin lies within a
    factor 10 of the TOL threshold, or is healthy, scaled by 1e-150 to
    1e150 each."""
    def orthogonal(n):
        return np.linalg.qr(rng.normal(size=(n, n)))[0]

    def margin():
        return TOL * 10 ** rng.uniform(-1, 1)

    for _ in range(count):
        kind = rng.integers(3)
        s = [1.0, *rng.uniform(0.1, 1, 3)]
        if kind == 1:  # slits nearly meet: the stack is nearly singular
            s[3] = margin()
        M = orthogonal(4) @ np.diag(s) @ orthogonal(4)
        pair = [M[:2], M[2:]]
        if kind == 2:  # one matrix nearly drops rank
            pair[rng.integers(2)] = orthogonal(2) @ np.diag([1.0, margin()]) @ orthogonal(4)[:2]
        yield [A * 10 ** rng.uniform(-150, 150) for A in pair]


def test_one_svd_check_matches_three_svd_reference():
    rng = np.random.default_rng(20261018)
    outcomes = {}
    for A1, A2 in near_threshold_pairs(rng, 3000):
        expected = three_svd_check(A1, A2)
        try:
            TwoSlitCamera(A1, A2)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == expected
        outcomes[expected] = outcomes.get(expected, 0) + 1
    # the sample reaches every verdict, each many times
    assert len(outcomes) == 4 and min(outcomes.values()) > 100, outcomes


def scalar_camera_check(A1, A2):
    """Reference: the camera check as it stood before the rig kernel, one
    camera and one stacked SVD at a time. Returns the message, or None
    for a valid camera."""
    for name, A in (("A1", A1), ("A2", A2)):
        if not np.all(np.isfinite(A)):
            return f"{name} has non-finite entries"
    s = np.linalg.svd(np.vstack([A / max(np.linalg.norm(A), TINY) for A in (A1, A2)]),
                      compute_uv=False)
    if s[3] > TOL * s[0]:
        return None
    for name, A in (("A1", A1), ("A2", A2)):
        s = np.linalg.svd(A, compute_uv=False)
        if s[1] <= TOL * s[0]:
            return f"{name} is rank deficient; its null space is not a line"
    return "slits intersect: the stacked 4x4 matrix is singular"


def faulty_rig(rng):
    """A stack of 1-11 random cameras, scaled by 1e-3 to 1e3 per matrix,
    in which up to three cameras at random positions carry one fault: a
    rank-deficient A1 or A2, meeting slits, a zero matrix or a
    non-finite entry."""
    n = int(rng.integers(1, 12))
    A = rng.normal(size=(n, 2, 2, 4)) * 10 ** rng.uniform(-3, 3, (n, 2, 1, 1))
    for i in rng.choice(n, size=min(n, int(rng.integers(4))), replace=False):
        kind = rng.integers(5)
        if kind < 2:
            A[i, kind] = np.outer(rng.normal(size=2), rng.normal(size=4))
        elif kind == 2:  # A2's second row in the span of the other three
            A[i, 1, 1] = rng.normal(size=3) @ np.vstack([A[i, 0], A[i, 1, :1]])
        elif kind == 3:
            A[i, rng.integers(2)] = 0.0
        else:
            A[(i, *rng.integers((2, 2, 4)))] = rng.choice([np.nan, np.inf, -np.inf])
    return A


def test_rig_check_names_the_first_fault_like_each_camera():
    """_rig raises what the first failing camera raises on its own, both
    through TwoSlitCamera and through the scalar reference, and builds
    the cameras of a valid stack from views of it."""
    rng = np.random.default_rng(20261019)
    outcomes = {}
    for _ in range(600):
        A = faulty_rig(rng)
        expected = next(filter(None, (scalar_camera_check(A1, A2) for A1, A2 in A)), None)
        per_camera = None
        for A1, A2 in A:
            try:
                TwoSlitCamera(A1, A2)
            except ValidationError as exc:
                per_camera = str(exc)
                break
        try:
            cams = _rig(A)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == per_camera == expected
        if got is None:
            assert len(cams) == len(A)
            for cam, (A1, A2) in zip(cams, A):
                assert isinstance(cam, TwoSlitCamera)
                assert np.array_equal(cam.A1, A1) and np.array_equal(cam.A2, A2)
        outcomes[expected] = outcomes.get(expected, 0) + 1
    # valid rigs and all five messages, each many times
    assert len(outcomes) == 6 and min(outcomes.values()) > 30, outcomes


def test_rig_check_takes_stacks_only():
    assert _rig(np.zeros((0, 2, 2, 4))) == []
    with pytest.raises(ValidationError, match=r"\(n, 2, 2, 4\)"):
        _rig(np.zeros((3, 2, 4)))


def null_points(M, rng, count):
    """count random points of the null space of M's rows."""
    return rng.normal(size=(count, 4 - len(M))) @ np.linalg.svd(M)[2][len(M):]


@pytest.mark.parametrize("k", range(1, 6))
def test_rig_images_match_each_camera(k):
    """_images of a rig gives each camera's project_points, bit for bit,
    and no image exactly where project_points raises: on a slit or on
    the base line of that camera. _stack undoes _rig bit for bit."""
    rng = np.random.default_rng(500 + k)
    A = rng.normal(size=(k, 2, 2, 4)) * 10 ** rng.uniform(-6, 6, (k, 2, 1, 1))
    cams = _rig(A)
    assert np.array_equal(_stack(cams), A)
    X = np.vstack([rng.normal(size=(40, 4))]
                  + [null_points(M, rng, 3) for cam in cams for M in (cam.A1, cam.A2)]
                  + [null_points(A[i, :, 1], rng, 3) for i in range(k)])
    u, defined = _images(_stack(cams), X)
    assert u.shape == (k, len(X), 3) and defined.shape == (k, len(X))
    for cam, ui, ok in zip(cams, u, defined):
        assert np.array_equal(project_points(cam, X[ok]), ui[ok])
        assert ok.sum() == len(X) - 9
        for x in X[~ok]:
            with pytest.raises(ValidationError, match="slit|base line"):
                project_points(cam, x[None])


@pytest.mark.filterwarnings("error")
def test_overflowing_image_rejected():
    """A finite point whose image products overflow has no image, and
    raises without a numpy warning; large representable images stay."""
    cam = TwoSlitCamera([[1.0, 0, 0, 0], [0, 0, 1, 0]], [[0.0, 1, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(ValidationError, match="overflows a float"):
        project(cam, [1e200, 2e200, 3e200, 1])
    assert np.allclose(project(cam, [1e80, 2e80, 3e80, 1]), [1e80, 6e160, 3e80], rtol=1e-15)


def canonical_pair(A):
    """Reference: the sign-canonical form cameras were once compared in,
    unit Frobenius norm with the first nonzero entry of row 2 positive."""
    A = np.asarray(A, float)
    B = A / np.linalg.norm(A)
    row = B[1]
    nz = np.nonzero(np.abs(row) > ZERO_TOL)[0]
    lead = row[nz[0]] if nz.size else B[0][np.nonzero(np.abs(B[0]) > ZERO_TOL)[0][0]]
    return B if lead > 0 else -B


def canonical_camera_distance(cam1, cam2):
    """Reference: camera_distance as it stood, through canonical forms."""
    B1, B2 = canonical_pair(cam1.A1), canonical_pair(cam1.A2)
    C1, C2 = canonical_pair(cam2.A1), canonical_pair(cam2.A2)
    d1 = min(np.max(np.abs(B1 - C1)), np.max(np.abs(B1 + C1)))
    d2 = min(np.max(np.abs(B2 - C2)), np.max(np.abs(B2 + C2)))
    return float(max(d1, d2))


def unit_norm_tensor_gap(t1, t2):
    """Reference: tensor_gap as it stood, with its own normalization."""
    a = t1.values / np.linalg.norm(t1.values)
    b = t2.values / np.linalg.norm(t2.values)
    return float(min(np.max(np.abs(a - b)), np.max(np.abs(a + b))))


def rescaled_copy(camera, rng):
    """camera moved off by 0 or 1e-15 to 1e-1, then each matrix scaled by
    a random sign and a magnitude from 1e-3 to 1e3."""
    eps = 0.0 if rng.random() < 0.25 else 10 ** rng.uniform(-15, -1)
    return TwoSlitCamera(*((A + eps * rng.normal(size=(2, 4)))
                           * rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 3)
                           for A in (camera.A1, camera.A2)))


def test_scale_free_gap_matches_canonical_forms():
    """Comparing at unit norm over both signs gives bit for bit what the
    canonical sign form gave, for cameras and for their tensors."""
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        camA, camB = random_camera(rng), random_camera(rng)
        copyA, copyB = rescaled_copy(camA, rng), rescaled_copy(camB, rng)
        for cam1, cam2 in ((camA, copyA), (camB, copyB), (camA, camB)):
            assert camera_distance(cam1, cam2) == canonical_camera_distance(cam1, cam2)
        t1, t2 = tensor_from_cameras(camA, camB), tensor_from_cameras(copyA, copyB)
        assert tensor_gap(t1, t2) == unit_norm_tensor_gap(t1, t2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-300])
def test_large_and_small_entries_keep_the_camera_valid(scale):
    """Each matrix counts only up to scale: entries near the ends of the
    float range neither overflow the validity check and the camera
    distance nor change them."""
    A1, A2 = [[1.0, 0, 0, 0], [0, 0, 1, 0]], [[0.0, 1, 0, 0], [0, 0, 0, 1]]
    cam = TwoSlitCamera(scale * np.array(A1), A2)
    assert np.array_equal(cam.A1, scale * np.array(A1))
    B1 = [[1.0, 0, 0, 0], [0, 1, 1, 0]]
    want = camera_distance(TwoSlitCamera(B1, A2), TwoSlitCamera(A1, A2))
    assert camera_distance(TwoSlitCamera(scale * np.array(B1), A2), cam) == pytest.approx(want)
    with pytest.raises(ValidationError, match="slits intersect"):
        TwoSlitCamera(scale * np.array(A1), [[0.0, 1, 0, 0], [1, 0, 0, 0]])
    with pytest.raises(ValidationError, match="A1 is rank deficient"):
        TwoSlitCamera(scale * np.array([[1.0, 0, 0, 0], [2, 0, 0, 0]]), A2)


BASE_LINE_CAMERA = ([[1.0, 0, 0, 0], [0, 0, 1, 0]], [[0.0, 1, 0, 0], [0, 0, 0, 1]])
PUSHBROOM = ([[1.0, 0, 0, 0.7], [0, 0, 0, 1]], [[0.0, 1, 0, -0.2], [0, 0, 1, 1.1]])


@pytest.mark.parametrize("call, message", [
    (lambda cam: project_points(cam, np.ones((2, 3))), r"points must be \(n, 4\)"),
    (lambda cam: project_points(cam, [[1.0, 2, 3, 4], [1, np.nan, 0, 1]]),
     "point has non-finite entries"),
    (lambda cam: project_points(cam, [[1.0, 2, 3, 4], [0, 0, 0, 0]]),
     "point is the zero vector"),
    (lambda cam: project_points(cam, [[1.0, 1, 0, 0]]),
     "point lies on the base line p2.x = q2.x = 0"),
    (lambda cam: project(cam, [1.0, 2, 3, 4, 5]), "point must have 4 entries"),
    (lambda cam: decompose_parallel(TwoSlitCamera(*PUSHBROOM)),
     "a slit lies at infinity; parallel decomposition undefined"),
    (lambda cam: decompose_pushbroom(TwoSlitCamera(
        PUSHBROOM[0], [[0.0, 1, 0, -0.2], [1, 0, 1, 1.1]])),
     "sweep direction must be orthogonal to the second camera's view direction"),
    (lambda cam: apply_space_transform(cam, np.eye(4)[:3]), "space transform must be 4x4"),
    (lambda cam: apply_space_transform(cam, np.zeros((4, 4))), "space transform is singular"),
], ids=["points-not-n-by-4", "non-finite-row", "zero-row", "base-line-point",
        "five-entry-point", "parallel-of-pushbroom", "pushbroom-not-orthogonal",
        "3x4-transform", "zero-transform"])
def test_camera_error_branches_end_in_validation_errors(call, message):
    with pytest.raises(ValidationError, match=message):
        call(TwoSlitCamera(*BASE_LINE_CAMERA))


@pytest.mark.parametrize("fault, message", [
    (lambda A: A.__setitem__((0, 1), np.inf), "A1 has non-finite entries"),
    (lambda A: A.__setitem__((1, 1), A[1, 0]), "A2 is rank deficient"),
    (lambda A: A.__setitem__(1, A[0, ::-1]), "slits intersect"),
], ids=["non-finite", "rank-deficient", "intersecting"])
def test_rig_check_names_the_first_failing_camera(fault, message, reference_pair):
    """The error of a rig's check is that of its first failing camera,
    and its index is the error's `camera`."""
    R = np.tile(_stack(reference_pair), (3, 1, 1, 1))
    fault(R[2])
    fault(R[4])
    with pytest.raises(ValidationError, match=f"^{message}") as info:
        _check_rig(R)
    assert info.value.camera == 2


def _near_singular(rng, ratios, spread):
    """A (k, 4, 4) stack with s4 / s1 = ratios, s1 = 1 and s2, s3 drawn
    log-uniformly between 2^-1/2 ratios^spread and 2^-1/2, in random
    orthogonal frames. With spread 0 the determinant bound of _cleared
    is tight for unit stacks: s2 = s3 = s1 / sqrt(2)."""
    u = rng.uniform(0.0, spread, (len(ratios), 2))
    s = np.sqrt(0.5) * np.asarray(ratios)[:, None] ** u
    s = np.column_stack([np.ones(len(ratios)), s, ratios])
    U, V = np.linalg.qr(rng.normal(size=(2, len(ratios), 4, 4)))[0]
    return (U * s[:, None, :]) @ V


def _unit_pairs(M):
    """The stacks _check_rig decides on: each 2x4 pow2_scaled, then unit."""
    B = pow2_scaled(M.reshape(-1, 2, 2, 4), axis=(2, 3))
    return (B / np.sqrt((B * B).sum(axis=(2, 3), keepdims=True))).reshape(-1, 4, 4)


RATIOS = st.lists(st.floats(-13.0, -5.0), min_size=1, max_size=8)
EXPONENTS = st.lists(st.integers(-1000, 1000), min_size=16, max_size=16)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_ratios=RATIOS, exponents=EXPONENTS,
       spread=st.floats(0.0, 1.0), per_pair=st.booleans(),
       tol=st.sampled_from([TOL, ZERO_TOL]))
def test_determinant_clears_no_matrix_the_svd_calls_deficient(
        seed, log_ratios, exponents, spread, per_pair, tol):
    """_cleared(M, tol) proves s4 > tol * s1, on 4x4 matrices near either
    threshold whose 2x4 halves carry scales of up to 2^1000. It screens
    either the unit pairs of _check_rig, which the SVD then decides on,
    or the pow2_scaled whole matrix of a single site, whose SVD runs on
    the unscaled input."""
    rng = np.random.default_rng(seed)
    M = _near_singular(rng, 10.0 ** np.array(log_ratios), spread)
    M = np.ldexp(M.reshape(-1, 2, 2, 4),
                 np.reshape(exponents[:2 * len(M)], (-1, 2, 1, 1))).reshape(-1, 4, 4)
    if per_pair:
        M = _unit_pairs(M)
    s = np.linalg.svd(M, compute_uv=False)
    cleared = _cleared(M if per_pair else pow2_scaled(M, axis=(1, 2)), tol)
    assert not np.any(cleared & (s[:, 3] <= tol * s[:, 0]))


def _outcome(R):
    try:
        _check_rig(R)
    except ValidationError as error:
        return str(error), error.camera
    return None


FAULTS = st.lists(st.sampled_from([None, None, "zero", "rank", "nan", "inf"]),
                  min_size=8, max_size=8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_ratios=RATIOS, exponents=EXPONENTS,
       spread=st.floats(0.0, 1.0), faults=FAULTS)
def test_rig_check_decides_as_the_svd_alone(seed, log_ratios, exponents, spread, faults):
    """_check_rig accepts and raises as it does when the determinant
    clears nothing, with the same message and camera, on rigs
    near TOL with zero, rank-deficient and non-finite pairs."""
    rng = np.random.default_rng(seed)
    R = _near_singular(rng, 10.0 ** np.array(log_ratios), spread).reshape(-1, 2, 2, 4)
    R = np.ldexp(R, np.reshape(exponents[:2 * len(R)], (-1, 2, 1, 1)))
    for A, fault in zip(R, faults):
        pair = A[rng.integers(2)]
        if fault == "zero":
            pair[:] = 0.0
        elif fault == "rank":
            pair[1] = pair[0] * rng.normal()
        elif fault in ("nan", "inf"):
            pair[rng.integers(2), rng.integers(4)] = float(fault)
    with mock.patch("twoslit.cameras._cleared", lambda M, tol: np.zeros(len(M), bool)):
        expected = _outcome(R)
    assert _outcome(R) == expected


@pytest.mark.parametrize("eps, cleared, ok", [(8e-9, True, True), (3e-9, False, True),
                                              (5e-10, False, False)])
def test_near_intersecting_slits_are_decided_by_determinant_or_svd(eps, cleared, ok):
    """Both matrices are well conditioned, and the stack of the unit
    pairs has s4/s1 = eps / 2: the determinant clears 8e-9, the SVD
    accepts 3e-9 and rejects 5e-10."""
    A1, A2 = [[1.0, 0, 0, 0], [0, 1, 0, 0]], [[0.0, 0, 1, 0], [0, 1, 0, eps]]
    assert _cleared(_unit_pairs(np.array([A1, A2])), TOL).tolist() == [cleared]
    if ok:
        TwoSlitCamera(A1, A2)
    else:
        with pytest.raises(ValidationError, match="^slits intersect"):
            TwoSlitCamera(A1, A2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [2.0 ** -1000, 1.0, 2.0 ** 1000])
@pytest.mark.parametrize("last, ratio", [(1e-8, None), (2e-9, 2e-9), (1e-10, 1e-10), (0.0, 0.0)])
def test_rank_ratio_is_none_only_where_the_determinant_clears(scale, last, ratio):
    """_singular gives the SVD's verdict s4 <= tol * s1 at any scale, and
    runs the SVD only where the determinant cannot prove s4 > tol * s1,
    4 |det| > tol F^2 with F = 3; ratio None marks the cleared matrix."""
    M = np.diag([1.0, 1, 1, last]) * scale
    with mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd:
        singular = _singular(pow2_scaled(M)[None], TOL)
    assert svd.called == (ratio is not None)
    s = np.linalg.svd(M, compute_uv=False)
    assert singular.tolist() == [s[3] <= TOL * s[0]]
    if ratio is not None:
        assert s[3] / s[0] == pytest.approx(ratio, rel=1e-9, abs=0.0)
