"""The line-geometry kernels against the public functions that wrap them,
and the projection layer built on them: quadratic cameras, inverse rays
and retinal frames whose points or rows carry arbitrary scales."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoslit.cameras
import twoslit.congruence
from twoslit.cameras import TwoSlitCamera, inverse_ray, project, slits, to_quadratic
from twoslit.congruence import (
    GeneralCongruence,
    QuadraticCamera,
    TwoSlitCongruence,
    inverse_project,
    quadratic_project,
)
from twoslit.errors import ValidationError
from twoslit.projective import (
    COARSE_TOL,
    NEAR_TOL,
    TOL,
    RetinalFrame,
    _STAR,
    _dot,
    _dual,
    _incident,
    _primal,
    _wedge,
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
    scale_free_gap,
)
from twoslit.synthetic import reference_camera_pair

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def bits(a):
    """The bytes of a float array: equal bits, signs of zeros included."""
    a = np.asarray(a, dtype=float)
    return a.shape, np.ascontiguousarray(a).tobytes()


@st.composite
def operand_stacks(draw):
    """(k, .) stacks of points P and Q, planes U and V, lines L = P v Q and
    M, near-incident points X on L, planes W through L and lines N through
    X. The near-incident ones are off by 0 to 1 in relative size, so that
    each tolerance sees both answers; every row then takes a random sign
    and a scale of 2^-60, 2^-1, 1, 2 or 2^60."""
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    off = np.array(draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1.0]),
                                 min_size=k, max_size=k)))[:, None]
    P, Q, U, V, Z, R = rng.normal(size=(6, k, 4))
    L = np.array([join_points(p, q) for p, q in zip(P, Q)])
    M = np.array([join_points(z, r) for z, r in zip(Z, R)])
    X = P + rng.normal(size=(k, 1)) * Q + off * R
    W = np.array([join_line_point(l, z) for l, z in zip(L, Z)]) + off * U
    N = np.array([join_points(x, z) for x, z in zip(P + 0.5 * Q + off * Z, R)])
    out = []
    for A in (P, Q, U, V, L, M, X, W, N):
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k))
        exps = draw(st.lists(st.sampled_from([-60, -1, 0, 1, 60]), min_size=k, max_size=k))
        out.append(A * np.ldexp(signs, exps)[:, None])
    return out


@given(operand_stacks())
@settings(max_examples=150, deadline=None)
def test_kernels_on_stacks_match_the_public_functions_row_by_row(stacks):
    """_wedge, _primal, _dual, _dot and _incident on (k, .) stacks give bit
    for bit what join_points, plane_meet_plane, primal_matrix,
    dual_matrix, meet_line_plane, join_line_point, plucker_pairing and the
    three incidence predicates give on each row alone."""
    P, Q, U, V, L, M, X, W, N = stacks
    for got, want in ((_wedge(P, Q), [join_points(p, q) for p, q in zip(P, Q)]),
                      (np.take(_wedge(U, V), _STAR, axis=-1), [plane_meet_plane(u, v) for u, v in zip(U, V)]),
                      (_primal(L), [primal_matrix(l) for l in L]),
                      (_dual(L), [dual_matrix(l) for l in L]),
                      (_dot(L, np.take(M, _STAR, axis=-1)), [plucker_pairing(l, m) for l, m in zip(L, M)])):
        assert [bits(g) for g in got] == [bits(w) for w in want]
    for kernel, public, v in ((_primal, meet_line_plane, U), (_dual, join_line_point, X)):
        products = (kernel(L) @ v[..., None])[..., 0]
        for product, l, x in zip(products, L, v):
            try:
                assert bits(public(l, x)) == bits(product)
            except ValidationError:  # the product is negligible
                ls, xs = pow2_scaled(l), pow2_scaled(x)
                assert _incident(kernel(ls) @ xs, ls, xs, TOL)
    Ls, Ms, Ns = (pow2_scaled(A, axis=-1) for A in (L, M, N))
    Xs, Ws = pow2_scaled(X, axis=-1), pow2_scaled(W, axis=-1)
    for tol in (TOL, NEAR_TOL, COARSE_TOL):
        on = _incident((_dual(Ls) @ Xs[..., None])[..., 0], Ls, Xs, tol)
        inside = _incident((_primal(Ls) @ Ws[..., None])[..., 0], Ls, Ws, tol)
        meet = _incident(_dot(Ls, np.take(Ms, _STAR, axis=-1))[:, None], Ls, Ms, tol)
        through = _incident(_dot(Ls, np.take(Ns, _STAR, axis=-1))[:, None], Ls, Ns, tol)
        assert on.tolist() == [point_on_line(l, x, tol) for l, x in zip(L, X)]
        assert inside.tolist() == [line_in_plane(l, w, tol) for l, w in zip(L, W)]
        assert meet.tolist() == [lines_meet(l, m, tol) for l, m in zip(L, M)]
        assert through.tolist() == [lines_meet(l, n, tol) for l, n in zip(L, N)]
        grid = _incident((_dual(Ls[:, None]) @ Xs[None, :, :, None])[..., 0], Ls[:, None], Xs, tol)
        assert grid.tolist() == [[point_on_line(l, x, tol) for x in X] for l in L]


def linear_images(camera, X):
    """project(camera, x) for each row x of X, with None where project
    finds no image."""
    out = []
    for x in X:
        try:
            out.append(project(camera, x))
        except ValidationError:
            out.append(None)
    return out


def factor_spread(quadratic, linear):
    """Largest relative spread of the factors u_quadratic / u_linear over
    the points that have a linear image: 0 for one factor per camera."""
    factors = np.array([q @ u / (u @ u) for q, u in zip(quadratic, linear) if u is not None])
    return np.max(np.abs(factors / factors[0] - 1.0))


@given(st.integers(0, 2 ** 32 - 1), st.lists(st.floats(-6, 6), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_to_quadratic_reproduces_project_on_row_scaled_cameras(seed, exponents):
    """A camera whose four rows are scaled by 10^-6 to 10^6 has a quadratic
    form, and that form reproduces the linear image up to one factor per
    camera."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 2, 4)) * 10.0 ** np.reshape(exponents, (2, 2, 1))
    try:
        camera = TwoSlitCamera(A[0], A[1])
    except ValidationError:  # the camera check itself depends on row scales
        return
    qcam = to_quadratic(camera)
    X = rng.normal(size=(10, 4))
    assert factor_spread([quadratic_project(qcam, x) for x in X], linear_images(camera, X)) < 1e-6


def test_to_quadratic_accepts_a_camera_with_rows_of_different_sizes():
    """The reference camera with its rows scaled by (1, 1e6, 1e6, 1): the
    frame of its quadratic form has base points of very different sizes,
    which are still not collinear."""
    A1, A2 = (np.array(A) for A in (reference_camera_pair()[0].A1, reference_camera_pair()[0].A2))
    camera = TwoSlitCamera(A1 * [[1.0], [1e6]], A2 * [[1e6], [1.0]])
    qcam = to_quadratic(camera)
    X = np.random.default_rng(3).normal(size=(10, 4))
    assert factor_spread([quadratic_project(qcam, x) for x in X], linear_images(camera, X)) < 1e-9


def test_frame_of_points_of_very_different_scales_is_not_collinear():
    """Base points scaled by 1e100, 1 and 1e100 span the plane that the
    unscaled ones span; collinear ones stay collinear at any scale."""
    basis = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    frame = RetinalFrame(basis * [1e100, 1.0, 1e100])
    assert scale_free_gap(frame.plane, RetinalFrame(basis).plane) < 1e-15
    with pytest.raises(ValidationError, match="collinear"):
        RetinalFrame(np.array([[1.0, 2, 0], [0, 0, 1], [0, 0, 0], [1, 2, 1]]) * [1e100, 1, 1])


def test_slits_match_the_per_matrix_svd_and_join():
    """The batched SVD of slits gives the bits of one SVD and one
    join_points per matrix, and products with its lines the bits of
    products with those."""
    rng = np.random.default_rng(11)
    for scale in (1.0, 1e-6, 1e6):
        for _ in range(20):
            A = rng.normal(size=(2, 2, 4)) * scale
            camera, m = TwoSlitCamera(A[0], A[1]), rng.normal(size=6)
            want = [join_points(*np.linalg.svd(B)[2][2:]) for B in A]
            assert [bits(l) for l in slits(camera)] == [bits(l) for l in want]
            assert [bits(l @ m) for l in slits(camera)] == [bits(l @ m) for l in want]


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_line_to_image_map_matches_the_joins_of_the_base_points(k):
    """Row i of the map is the starred join of the other two base points,
    bit for bit and as an operand of a product, for base points scaled by
    2^k, 1 and 2^-k."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        frame = RetinalFrame(rng.normal(size=(4, 3)) * np.ldexp(1.0, [k, 0, -k]))
        y1, y2, y3 = frame.points
        want = np.stack([line_star(join_points(a, b)) for a, b in ((y2, y3), (y3, y1), (y1, y2))])
        line = rng.normal(size=6)
        assert bits(line_to_image_map(frame)) == bits(want)
        assert bits(line_to_image_map(frame) @ line) == bits(want @ line)


def test_inverse_ray_computes_the_slits_only_for_the_special_points(monkeypatch):
    camera = reference_camera_pair()[0]
    calls = []

    def counting(cam):
        calls.append(cam)
        return slits(cam)
    monkeypatch.setattr(twoslit.cameras, "slits", counting)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert point_on_line(inverse_ray(camera, project(camera, x)), x, tol=1e-9)
    assert not calls
    assert proj_equal(inverse_ray(camera, [1.0, 0, 0]), slits(camera)[1])
    assert proj_equal(inverse_ray(camera, [0.0, 1, 0]), slits(camera)[0])
    assert len(calls) == 2


def test_quadratic_camera_builds_its_forms_once(monkeypatch):
    """quadratic_project evaluates the forms built at construction; it
    neither rebuilds the frame's map nor any line matrix."""
    camera = to_quadratic(reference_camera_pair()[0])
    x = np.array([1.0, -2.0, 0.5, 3.0])
    u = quadratic_project(camera, x)
    for name in ("line_to_image_map", "_dual", "_primal"):
        monkeypatch.setattr(twoslit.congruence, name, None)
    assert bits(quadratic_project(camera, x)) == bits(u)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-40, 0, 40]))
@settings(max_examples=150, deadline=None)
def test_inverse_maps_give_a_ray_through_the_point(seed, k):
    """inverse_ray of project(x) and inverse_project of quadratic_project(x)
    pass through x, for points scaled by 2^k."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 2, 4))
    try:
        camera = TwoSlitCamera(A[0], A[1])
        qcam = QuadraticCamera(TwoSlitCongruence(*slits(camera)), RetinalFrame(rng.normal(size=(4, 3))))
    except ValidationError:
        return
    x = np.ldexp(rng.normal(size=4), k)
    assert point_on_line(inverse_ray(camera, project(camera, x)), x, tol=1e-7)
    assert point_on_line(inverse_project(qcam, quadratic_project(qcam, x)), x, tol=1e-7)


def form_sum(coeffs, x1, x2):
    """A bivariate form of degree m = len(coeffs) - 1 summed term by term,
    coefficient k scaling x1^(m-k) x2^k; and the sum of the terms' sizes."""
    terms = [c * x1 ** (len(coeffs) - 1 - k) * x2 ** k for k, c in enumerate(coeffs)]
    return float(sum(terms)), float(sum(abs(t) for t in terms))


@given(st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_companion_point_matches_the_termwise_sum(beta, seed):
    """Each form of companion_point, evaluated as a product with its
    monomial vector, is the term-by-term sum up to rounding: 4 (m + 2)
    units in the last place of the sum of the terms' sizes."""
    rng = np.random.default_rng(seed)
    f, g, h = rng.normal(size=beta), rng.normal(size=beta + 1), rng.normal(size=beta + 1)
    congruence = GeneralCongruence(beta=beta, f=f if beta else [], g=g, h=h)
    x = rng.normal(size=4) * 2.0 ** rng.integers(-8, 9)
    fv, gv, hv = (form_sum(c, x[0], x[1]) for c in (f, g, h))
    want = [(x[0] * fv[0], abs(x[0]) * fv[1]), (x[1] * fv[0], abs(x[1]) * fv[1]), gv, hv]
    for got, (value, size) in zip(congruence.companion_point(x), want):
        assert abs(got - value) <= 4 * (beta + 2) * np.finfo(float).eps * size
