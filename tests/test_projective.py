"""Joins, meets and retinal frames on homogeneous coordinates."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoslit.errors import ValidationError
from twoslit.projective import (
    _EPSILON,
    RetinalFrame,
    _gaps,
    as_vector,
    cosine_distance,
    dual_matrix,
    join_line_point,
    join_points,
    line_in_plane,
    line_star,
    line_to_image_map,
    lines_meet,
    meet_line_plane,
    plane_meet_plane,
    plucker_pairing,
    point_on_line,
    pow2_scaled,
    primal_matrix,
    proj_equal,
    quadric_residual,
    scale_free_gap,
    validate_line,
)

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)

points = st.builds(lambda v: np.array(v), st.lists(coord, min_size=4, max_size=4)).filter(
    lambda x: np.linalg.norm(x) > 1e-3)


def test_join_points_known_lines():
    # the two slit lines of the worked projection example
    l1 = join_points([0, 1, 0, 0], [0, 0, 0, 1])
    assert proj_equal(l1, [0, 1, 0, 0, 0, 0])
    l2 = join_points([1, 0, 0, 0], [0, 0, 1, -1])
    assert proj_equal(l2, [1, 0, 0, 0, -1, 0])


def test_join_points_coincident_raises():
    with pytest.raises(ValidationError):
        join_points([1, 2, 3, 4], [2, 4, 6, 8])


def test_line_star_is_an_involution(rng):
    l = join_points(rng.normal(size=4), rng.normal(size=4))
    assert np.allclose(line_star(line_star(l)), l)


def test_primal_and_dual_matrix_are_antisymmetric(rng):
    l = join_points(rng.normal(size=4), rng.normal(size=4))
    for M in (primal_matrix(l), dual_matrix(l)):
        assert np.allclose(M, -M.T)


def test_primal_matrix_annihilates_dual_planes(rng):
    x = rng.normal(size=4)
    y = rng.normal(size=4)
    l = join_points(x, y)
    # every column of the primal matrix is a point of the line
    L = primal_matrix(l)
    for col in L.T:
        if np.linalg.norm(col) > 1e-9:
            assert point_on_line(l, col)


@settings(max_examples=200)
@given(points, points)
def test_join_satisfies_quadric(x, y):
    try:
        l = join_points(x, y)
    except ValidationError:
        return
    assert abs(quadric_residual(l)) < 1e-9


def test_validate_line_rejects_off_quadric():
    with pytest.raises(ValidationError):
        validate_line([1, 0, 0, 1, 0, 0])


def test_plucker_pairing_symmetric(rng):
    l = join_points(rng.normal(size=4), rng.normal(size=4))
    m = join_points(rng.normal(size=4), rng.normal(size=4))
    assert plucker_pairing(l, m) == pytest.approx(plucker_pairing(m, l))


def test_levi_civita_symbol_from_the_line_tables_is_the_permutation_parity():
    """_EPSILON, built as minus the pairing of two joins of unit points,
    is the 4-index Levi-Civita symbol bit for bit: the parity of each
    permutation, and +0.0 off the permutations."""
    eps = np.zeros((4, 4, 4, 4))
    for p in itertools.permutations(range(4)):
        eps[p] = (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
    assert _EPSILON.tobytes() == eps.reshape(16, 16).tobytes()


def test_lines_meet_iff_coplanar():
    l = join_points([0, 0, 0, 1], [1, 0, 0, 1])
    meets = join_points([0, 0, 0, 1], [0, 1, 0, 1])  # shares a point
    skew = join_points([0, 0, 1, 1], [0, 1, 1, 1])
    assert lines_meet(l, meets)
    assert not lines_meet(l, skew)


def test_meet_line_plane_incidence(rng):
    l = join_points(rng.normal(size=4), rng.normal(size=4))
    w = rng.normal(size=4)
    z = meet_line_plane(l, w)
    assert point_on_line(l, z)
    assert abs(w @ z) < 1e-9 * np.linalg.norm(w) * np.linalg.norm(z)


def test_join_line_point_contains_both(rng):
    x = rng.normal(size=4)
    y = rng.normal(size=4)
    z = rng.normal(size=4)
    l = join_points(x, y)
    w = join_line_point(l, z)
    for p in (x, y, z):
        assert abs(w @ p) < 1e-9 * np.linalg.norm(w) * np.linalg.norm(p)


def test_plane_meet_plane_round_trip(rng):
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    l = plane_meet_plane(u, v)
    assert abs(quadric_residual(l)) < 1e-9
    assert line_in_plane(l, u)
    assert line_in_plane(l, v)


def test_plane_meet_plane_coincident_raises():
    with pytest.raises(ValidationError):
        plane_meet_plane([1, 2, 3, 4], [-2, -4, -6, -8])


class TestRetinalFrame:
    def test_round_trip(self, rng):
        frame = RetinalFrame(rng.normal(size=(4, 3)))
        u = rng.normal(size=3)
        y = frame.point(u)
        assert np.allclose(frame.coords(y), u)

    def test_plane_contains_points(self, rng):
        frame = RetinalFrame(rng.normal(size=(4, 3)))
        for p in frame.points:
            assert abs(frame.plane @ p) < 1e-9

    def test_collinear_points_rejected(self):
        y1 = np.array([1.0, 0, 0, 1])
        y2 = np.array([2.0, 0, 0, 2])
        with pytest.raises(ValidationError):
            RetinalFrame.from_points(y1, y2, [0, 1, 0, 1])

    def test_wrong_plane_rejected(self, rng):
        basis = rng.normal(size=(4, 3))
        with pytest.raises(ValidationError, match="plane"):
            RetinalFrame(basis, plane=basis[:, 0])

    def test_off_plane_point_rejected(self, rng):
        frame = RetinalFrame(rng.normal(size=(4, 3)))
        y = frame.point([1.0, 2.0, 3.0]) + 0.5 * frame.plane
        with pytest.raises(ValidationError):
            frame.coords(y)


def test_line_to_image_map_reads_off_coordinates(rng):
    """Applying the 3x6 map to a line through an on-plane point gives the
    frame coordinates of that point, up to scale."""
    frame = RetinalFrame(rng.normal(size=(4, 3)))
    N = line_to_image_map(frame)
    u = rng.normal(size=3)
    y = frame.point(u)
    l = join_points(y, rng.normal(size=4))
    got = N @ l
    assert proj_equal(got, u, tol=1e-7)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_image_map_row_that_overflows_is_invalid():
    """A frame whose base points differ in scale by 1e200 is valid, but
    the join of its two large points overflows a float."""
    frame = RetinalFrame(np.eye(4)[:, :3] * [1e200, 1, 1e200])
    with pytest.raises(ValidationError, match="image map overflows"):
        line_to_image_map(frame)


def test_line_to_image_map_unit_frame_golden():
    frame = RetinalFrame(np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
    ]))
    N = line_to_image_map(frame)
    expected = np.array([
        [1.0, 0, 0, 0, -1, 0],
        [0.0, 1, 0, 1, 0, 0],
        [0.0, 0, 1, 0, 0, 0],
    ])
    assert np.max(np.abs(N - expected)) < 1e-12


def scaled_joins_and_meets(a, b):
    """join_points, plane_meet_plane, meet_line_plane and join_line_point,
    each on two fixed operands, the first times a and the second times b."""
    x, y, w = np.array([1.0, 2, 3, 4]), np.array([0.0, 1, -1, 2]), np.array([2.0, -1, 0, 1])
    line = join_points(x, y)
    return [f(a * u, b * v) for f, u, v in ((join_points, x, y), (plane_meet_plane, x, y),
                                            (meet_line_plane, line, w), (join_line_point, line, w))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-300, 301, 25)])
def test_joins_and_meets_hold_across_the_float_range(scale):
    """Operands of any size a float holds are not zero, and their joins and
    meets are finite and nonzero, agree up to scale with those of unit
    operands and raise no warning."""
    assert as_vector([scale, 0.0, 0.0, 0.0], 4)[0] == scale
    for out, ref in zip(scaled_joins_and_meets(scale, scale), scaled_joins_and_meets(1.0, 1.0)):
        assert np.all(np.isfinite(out)) and out.any()
        assert scale_free_gap(out, ref) < 1e-15


@pytest.mark.parametrize("k", [-500, -260, -1, 0, 7, 260, 500])
def test_joins_and_meets_of_ordinary_operands_keep_their_bits(k):
    """Where the result is a normal float, operands scaled by 2^k give the
    unit operands' result times 2^k, bit for bit: no rescaling shows."""
    for out, ref in zip(scaled_joins_and_meets(2.0 ** k, 1.0), scaled_joins_and_meets(1.0, 1.0)):
        assert np.array_equal(out, np.ldexp(ref, k))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-300, 301, 25)])
def test_predicates_hold_across_the_float_range(scale):
    """Incidence, equality and the quadric residual answer as for unit
    operands at any size a float holds, with no warning."""
    e1, e2 = np.eye(4)[:2]
    l = join_points(e1, e2) * scale
    on, off = np.array([1.0, 1, 0, 0]) * scale, np.array([0.0, 1, 1, 0]) * scale
    assert point_on_line(l, on) and not point_on_line(l, off)
    assert line_in_plane(l, np.eye(4)[2] * scale) and not line_in_plane(l, on)
    assert lines_meet(l, l) and lines_meet(l, join_points(e1, [0.0, 0, 1, 0]) * scale)
    assert not lines_meet(l, join_points([0.0, 0, 1, 0], [0.0, 0, 0, 1]) * scale)
    assert proj_equal(on, on) and not proj_equal(on, off)
    assert quadric_residual(l) == 0.0
    assert 0.2 < quadric_residual(l + scale * np.array([0.0, 0, 1, 0, 0, 1])) < 1


@pytest.mark.parametrize("k", [-500, -260, -1, 0, 7, 260, 500])
def test_predicate_values_of_ordinary_operands_keep_their_bits(k, rng):
    """Operands scaled by 2^k give the unit operands' distance and
    residual bit for bit."""
    a, b, l = rng.normal(size=4), rng.normal(size=4), rng.normal(size=6)
    s = 2.0 ** k
    assert cosine_distance(a * s, b * s) == cosine_distance(a, b)
    assert quadric_residual(l * s) == quadric_residual(l)


def norm_gap(a, b):
    """scale_free_gap with the norms of np.linalg.norm."""
    a, b = pow2_scaled(a), pow2_scaled(b)
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    return float(min(np.max(np.abs(a - b)), np.max(np.abs(a + b))))


_gap_entries = st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) >= 1e-3)


@st.composite
def gap_stacks(draw):
    """Two (k, m) stacks of nonzero rows: b's rows are a's, a's moved a
    little or far, or rows of their own; then each row of each stack
    takes a random sign and a scale of 2^-1000, 2^-1, 1, 2 or 2^1000."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 17))
    rows = st.lists(st.lists(_gap_entries, min_size=m, max_size=m).filter(any),
                    min_size=k, max_size=k)
    a, b = np.array(draw(rows)), np.array(draw(rows))
    mix = draw(st.lists(st.sampled_from([0.0, 1e-9, 1.0, None]), min_size=k, max_size=k))
    b = np.array([y if w is None else x + w * y for x, y, w in zip(a, b, mix)])
    for x in (a, b):
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k))
        exps = draw(st.lists(st.sampled_from([-1000, -1, 0, 1, 1000]), min_size=k, max_size=k))
        x *= np.ldexp(signs, exps)[:, None]
    return a, b


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(gap_stacks())
@settings(max_examples=200, deadline=None)
def test_gap_kernel_matches_the_scalar_gap_row_by_row(stacks):
    """_gaps on stacks, broadcast or not, gives bit for bit the gap of each
    row pair alone, and that gap is the one np.linalg.norm's norms give."""
    a, b = stacks
    assume(b.any(axis=1).all())  # a row moved by its own negative is zero
    rows = [scale_free_gap(x, y) for x, y in zip(a, b)]
    assert rows == [norm_gap(x, y) for x, y in zip(a, b)]
    assert _gaps(a, b).tolist() == rows
    assert _gaps(a[:, None], b[None]).tolist() == [
        [scale_free_gap(x, y) for y in b] for x in a]
