"""Order-one congruences, their essential maps, and quadratic cameras."""

import numpy as np
import pytest

from twoslit.congruence import (
    GeneralCongruence,
    QuadraticCamera,
    TwoSlitCongruence,
    essential_map_general,
    inverse_project,
    quadratic_project,
    transversal_homography,
    two_slit_essential,
)
from twoslit.errors import ValidationError
from twoslit.projective import (
    RetinalFrame,
    join_points,
    line_in_plane,
    lines_meet,
    point_on_line,
    proj_equal,
)


def unit_example():
    """The worked configuration: slits along the y and x axes at z in {0, +-}."""
    l1 = join_points([0.0, 1, 0, 0], [0.0, 0, 0, 1])
    l2 = join_points([1.0, 0, 0, 0], [0.0, 0, 1, -1])
    cong = TwoSlitCongruence(l1, l2)
    frame = RetinalFrame(np.array([
        [1.0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]))
    return cong, frame


def test_two_slit_essential_matches_worked_example():
    cong, _ = unit_example()
    lam = two_slit_essential(cong, [1.0, 1, 1, 1])
    assert proj_equal(lam, [2.0, 1, 2, 1, 0, -1])


def test_two_slit_essential_is_a_transversal(rng):
    cong = TwoSlitCongruence.from_point_pairs(
        rng.normal(size=4), rng.normal(size=4),
        rng.normal(size=4), rng.normal(size=4))
    x = rng.normal(size=4)
    ray = two_slit_essential(cong, x)
    assert point_on_line(ray, x)
    assert lines_meet(ray, cong.slit1)
    assert lines_meet(ray, cong.slit2)


def test_point_on_slit_rejected():
    cong, _ = unit_example()
    with pytest.raises(ValidationError, match="slit"):
        two_slit_essential(cong, [0.0, 1, 0, 0])


def test_meeting_slits_rejected():
    l1 = join_points([0.0, 0, 0, 1], [1.0, 0, 0, 1])
    l2 = join_points([0.0, 0, 0, 1], [0.0, 1, 0, 1])
    with pytest.raises(ValidationError, match="skew"):
        TwoSlitCongruence(l1, l2)


class TestGeneralCongruence:
    def test_coefficient_counts_enforced(self):
        with pytest.raises(ValidationError):
            GeneralCongruence(beta=1, f=[], g=[1.0, 0], h=[0.0, 1])
        with pytest.raises(ValidationError):
            GeneralCongruence(beta=1, f=[1.0], g=[1.0], h=[0.0, 1])
        with pytest.raises(ValidationError):
            GeneralCongruence(beta=0, f=[], g=[0.0], h=[0.0])

    def test_beta_zero_rays_through_fixed_point(self, rng):
        # beta = 0: companion is the fixed point (0, 0, g, h), a star of lines
        cong = GeneralCongruence(beta=0, f=[], g=[2.0], h=[3.0])
        x = rng.normal(size=4)
        ray = essential_map_general(cong, x)
        assert point_on_line(ray, x)
        assert point_on_line(ray, [0.0, 0, 2, 3])

    def test_beta_one_ray_incidence(self, rng):
        cong = GeneralCongruence(beta=1, f=[1.0], g=[0.5, -1.0], h=[2.0, 1.0])
        x = rng.normal(size=4)
        ray = essential_map_general(cong, x)
        assert point_on_line(ray, x)
        assert point_on_line(ray, cong.companion_point(x))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_companion_point_that_overflows_is_invalid(self):
        cong = GeneralCongruence(beta=4, f=[1, 0, 0, 1], g=[1, 0, 0, 0, 1], h=[0, 1, 0, 0, 1])
        with pytest.raises(ValidationError, match="companion point overflows"):
            essential_map_general(cong, [1e100, 1e100, 1, 1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_companion_point_negligible_beside_an_overflowing_scale(self):
        """|x|^beta overflows while the companion point stays finite: it
        vanishes beside x, a base point, with no warning."""
        cong = GeneralCongruence(beta=4, f=[1, 0, 0, 1], g=[1, 0, 0, 0, 1], h=[0, 1, 0, 0, 1])
        with pytest.raises(ValidationError, match="companion point vanishes"):
            essential_map_general(cong, [1, 1, 1e80, 1e80])

    def test_base_point_detected(self):
        cong = GeneralCongruence(beta=0, f=[], g=[1.0], h=[0.0])
        with pytest.raises(ValidationError, match="base point"):
            essential_map_general(cong, [0.0, 0, 1, 0])


def test_quadratic_projection_golden():
    cong, frame = unit_example()
    cam = QuadraticCamera(cong, frame)
    u = quadratic_project(cam, [1.0, 2, 3, 4])
    assert proj_equal(u, [7.0, 12, 21])


def test_quadratic_projection_formula():
    # u1 = x1 (x3 + x4), u2 = 2 x2 x3, u3 = x3 (x3 + x4) on the example
    cong, frame = unit_example()
    cam = QuadraticCamera(cong, frame)
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(size=4)
        u = quadratic_project(cam, x)
        expected = [x[0] * (x[2] + x[3]), 2 * x[1] * x[2], x[2] * (x[2] + x[3])]
        assert proj_equal(u, expected, tol=1e-8)


def test_quadratic_project_slit_point_rejected():
    cong, frame = unit_example()
    cam = QuadraticCamera(cong, frame)
    with pytest.raises(ValidationError):
        quadratic_project(cam, [0.0, 1, 0, 0])


def test_slit_in_retinal_plane_rejected():
    l1 = join_points([0.0, 1, 0, 0], [0.0, 0, 0, 1])  # the x = z = 0 axis
    l2 = join_points([1.0, 0, 0, 0], [0.0, 0, 1, -1])
    frame = RetinalFrame(np.array([  # plane x1 = 0 contains the first slit
        [0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValidationError, match="retinal plane"):
        QuadraticCamera(TwoSlitCongruence(l1, l2), frame)


def test_inverse_project_round_trip(rng):
    cong, frame = unit_example()
    cam = QuadraticCamera(cong, frame)
    x = rng.normal(size=4)
    u = quadratic_project(cam, x)
    ray = inverse_project(cam, u)
    assert point_on_line(ray, x, tol=1e-7)


def test_inverse_project_special_points_give_slits():
    cong, frame = unit_example()
    cam = QuadraticCamera(cong, frame)
    # frame points on the slits map back to the slits themselves
    assert proj_equal(inverse_project(cam, [0.0, 1, 0]), cong.slit1)
    assert proj_equal(inverse_project(cam, [1.0, 0, 0]), cong.slit2)


def test_transversal_homography_same_plane_identity():
    cong, frame = unit_example()
    H, out = transversal_homography(cong, frame, frame.plane)
    assert np.allclose(H, np.eye(3))
    assert out is frame


def test_transversal_homography_transfers_points(rng):
    """With the target plane sharing a transversal with the source plane
    (both contain the line x3 = x4 = 0, which meets both slits), the map
    along rays is a homography and the carried frame makes it the identity."""
    from twoslit.projective import meet_line_plane

    cong, frame = unit_example()
    target_plane = np.array([0.0, 0, 1, -2.0])
    H, carried = transversal_homography(cong, frame, target_plane)
    assert np.allclose(H, np.eye(3))
    for _ in range(30):
        u = rng.normal(size=3)
        y = frame.point(u)
        try:
            ray = two_slit_essential(cong, y)
        except ValidationError:
            continue
        yt = meet_line_plane(ray, target_plane)
        assert proj_equal(carried.coords(yt), u, tol=1e-9)


def test_transversal_homography_general_target_frame(rng):
    from twoslit.projective import meet_line_plane

    cong, frame = unit_example()
    target_plane = np.array([0.0, 0, 1, -2.0])
    _, carried = transversal_homography(cong, frame, target_plane)
    scrambled = RetinalFrame(np.stack([
        2.0 * carried.basis[:, 0],
        carried.basis[:, 1] - carried.basis[:, 0],
        carried.basis[:, 2],
    ], axis=1))
    H, out = transversal_homography(cong, frame, target_plane, target_frame=scrambled)
    assert out is scrambled
    u = rng.normal(size=3)
    ray = two_slit_essential(cong, frame.point(u))
    yt = meet_line_plane(ray, target_plane)
    assert proj_equal(scrambled.coords(yt), H @ u, tol=1e-9)


def test_transversal_homography_needs_shared_transversal():
    cong, frame = unit_example()
    # generic target: the planes' common line misses the slits and the
    # transfer map stays quadratic
    with pytest.raises(ValidationError, match="misses a slit"):
        transversal_homography(cong, frame, [0.3, -0.2, 1.0, 0.7])


def test_transversal_homography_same_plane_target_frame(rng):
    """On the source plane itself the map is the change of frame."""
    cong, frame = unit_example()
    scrambled = RetinalFrame(np.stack([
        2.0 * frame.basis[:, 0],
        frame.basis[:, 1] - frame.basis[:, 0],
        frame.basis[:, 2],
    ], axis=1))
    H, out = transversal_homography(cong, frame, 3.0 * frame.plane, target_frame=scrambled)
    assert out is scrambled
    for u in rng.normal(size=(5, 3)):
        assert proj_equal(scrambled.coords(frame.point(u)), H @ u, tol=1e-9)
