"""Unit tests for the ambient model: metric, frame, connection, curvature.

Numeric expectations were derived by hand from the adopted frame convention
and then cross-checked through the package's independent finite-difference
path before being frozen here.
"""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

import heisgeo.ambient as ambient
from heisgeo.ambient import (
    DegeneratePlane,
    SingularConformalFactor,
    SingularMetric,
    SpaceParams,
    UnsupportedKappa,
    christoffel_coords,
    commutator_fd,
    conformal_factor,
    connection_table,
    curvature,
    curvature_fd,
    curvature_frame,
    directional_fd,
    frame_at,
    frame_connection_correction,
    frame_field,
    frame_metric,
    from_frame_components,
    metric_eval,
    metric_matrix,
    riemann_coords,
    sectional_curvature,
    to_frame_components,
    wedge,
    wedge_frame,
)
from heisgeo.numeric import Taylor, derivative, value
from heisgeo.verify import check_ambient

from conftest import central_diff4

DELTAS = (1, -1)
TAUS = (0.5, 1.0, 2.0)

E1 = (1.0, 0.0, 0.0)
E2 = (0.0, 1.0, 0.0)
E3 = (0.0, 0.0, 1.0)
BASIS = (E1, E2, E3)


def norm3(v) -> float:
    return max(abs(v[0]), abs(v[1]), abs(v[2]))


def sub(v, w):
    return (v[0] - w[0], v[1] - w[1], v[2] - w[2])


# ---------------------------------------------------------------- params


def test_space_params_validation():
    with pytest.raises(ValueError):
        SpaceParams(delta=2, tau=1.0)
    with pytest.raises(ValueError):
        SpaceParams(delta=0, tau=1.0)
    sp = SpaceParams(delta=-1, tau=0.5)
    assert sp.kappa == 0.0


# ---------------------------------------------------------------- metric


def test_metric_matrix_frozen_values():
    sp = SpaceParams(delta=-1, tau=0.7)
    g = metric_matrix(sp, (0.3, -0.4, 0.2))
    expected = (
        (0.9216, -0.0588, 0.28),
        (-0.0588, 0.9559, 0.21),
        (0.28, 0.21, -1.0),
    )
    for i in range(3):
        for j in range(3):
            assert g[i][j] == pytest.approx(expected[i][j], abs=1e-15)


def test_metric_matrix_symmetric():
    sp = SpaceParams(delta=1, tau=1.3)
    g = metric_matrix(sp, (1.1, -2.2, 0.4))
    for i in range(3):
        for j in range(3):
            assert g[i][j] == g[j][i]


def test_conformal_factor_general_kappa():
    sp = SpaceParams(delta=-1, tau=1.0, kappa=-4.0)
    # delta = -1: denominator is 1 - (x^2 + y^2)
    assert conformal_factor(sp, (0.3, 0.1, 5.0)) == pytest.approx(0.9, abs=1e-15)
    with pytest.raises(SingularConformalFactor):
        conformal_factor(sp, (0.6, 0.8, 0.0))
    with pytest.raises(SingularConformalFactor):
        metric_matrix(sp, (0.6, 0.8, 0.0))


def test_kappa_zero_only_helpers_reject_other_kappa():
    sp = SpaceParams(delta=1, tau=1.0, kappa=-4.0)
    with pytest.raises(UnsupportedKappa):
        frame_at(sp, (0.0, 0.0, 0.0))
    with pytest.raises(UnsupportedKappa):
        connection_table(sp)
    with pytest.raises(UnsupportedKappa):
        wedge(sp, (0.0, 0.0, 0.0), E1, E2)


# ---------------------------------------------------------------- frame


def test_frame_component_oracles():
    sp = SpaceParams(delta=1, tau=1.0)
    f = frame_at(sp, (0.0, 2.0, 0.0))
    assert f.e1 == (1.0, 0.0, -2.0)
    f = frame_at(sp, (3.0, 0.0, 0.0))
    assert f.e2 == (0.0, 1.0, 3.0)
    assert f.e3 == (0.0, 0.0, 1.0)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("tau", TAUS)
def test_frame_orthonormality(delta, tau):
    sp = SpaceParams(delta=delta, tau=tau)
    rng = random.Random(20)
    for _ in range(10):
        p = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        vecs = frame_at(sp, p).vectors()
        sig = (1.0, -float(delta), float(delta))
        for i in range(3):
            for j in range(3):
                want = sig[i] if i == j else 0.0
                got = metric_eval(sp, p, vecs[i], vecs[j])
                assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("delta", DELTAS)
def test_frame_component_maps_roundtrip(delta):
    sp = SpaceParams(delta=delta, tau=0.8)
    rng = random.Random(21)
    for _ in range(5):
        p = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        v = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
        a = to_frame_components(sp, p, v)
        back = from_frame_components(sp, p, a)
        assert norm3(sub(back, v)) < 1e-14
        # frame_metric on components equals metric_eval on vectors
        assert frame_metric(sp, a, a) == pytest.approx(
            metric_eval(sp, p, v, v), abs=1e-12)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("tau", TAUS)
def test_frame_bracket_fd(delta, tau):
    """[E1, E2] = 2*tau*E3 and the other brackets vanish."""
    sp = SpaceParams(delta=delta, tau=tau)
    p = (0.4, -1.1, 0.7)
    f1, f2, f3 = (frame_field(sp, i) for i in (1, 2, 3))
    b12 = commutator_fd(f1, f2, p)
    assert norm3(sub(b12, (0.0, 0.0, 2.0 * tau))) < 1e-9
    assert norm3(commutator_fd(f1, f3, p)) < 1e-9
    assert norm3(commutator_fd(f2, f3, p)) < 1e-9


# ---------------------------------------------------------------- wedge


@pytest.mark.parametrize("delta", DELTAS)
def test_wedge_frame_basis_table(delta):
    sp = SpaceParams(delta=delta, tau=1.0)
    d = float(delta)
    assert wedge_frame(sp, E1, E2) == (0.0, 0.0, d)
    assert wedge_frame(sp, E1, E3) == (0.0, d, 0.0)
    assert wedge_frame(sp, E2, E3) == (1.0, 0.0, 0.0)
    # antisymmetry
    assert wedge_frame(sp, E2, E1) == (0.0, 0.0, -d)


@pytest.mark.parametrize("delta", DELTAS)
def test_wedge_orthogonal_to_factors(delta):
    sp = SpaceParams(delta=delta, tau=1.4)
    rng = random.Random(22)
    for _ in range(10):
        p = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        v = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        w = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        x = wedge(sp, p, v, w)
        assert abs(metric_eval(sp, p, x, v)) < 1e-12
        assert abs(metric_eval(sp, p, x, w)) < 1e-12


# ---------------------------------------------------------------- connection


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("tau", TAUS)
def test_connection_table_frozen(delta, tau):
    sp = SpaceParams(delta=delta, tau=tau)
    tab = connection_table(sp)
    dt = float(delta) * tau
    zero = (0.0, 0.0, 0.0)
    assert tab[(1, 1)] == zero
    assert tab[(2, 2)] == zero
    assert tab[(3, 3)] == zero
    assert tab[(1, 2)] == (0.0, 0.0, tau)
    assert tab[(2, 1)] == (0.0, 0.0, -tau)
    assert tab[(1, 3)] == (0.0, tau, 0.0)
    assert tab[(3, 1)] == (0.0, tau, 0.0)
    assert tab[(2, 3)] == (dt, 0.0, 0.0)
    assert tab[(3, 2)] == (dt, 0.0, 0.0)


@pytest.mark.parametrize("delta", DELTAS)
def test_connection_correction_matches_table_on_basis(delta):
    sp = SpaceParams(delta=delta, tau=1.7)
    tab = connection_table(sp)
    for i, a in enumerate(BASIS, start=1):
        for j, b in enumerate(BASIS, start=1):
            assert frame_connection_correction(sp, a, b) == tab[(i, j)]


def test_connection_correction_is_bilinear():
    sp = SpaceParams(delta=-1, tau=0.9)
    rng = random.Random(23)
    a = tuple(rng.uniform(-1, 1) for _ in range(3))
    b = tuple(rng.uniform(-1, 1) for _ in range(3))
    c = tuple(rng.uniform(-1, 1) for _ in range(3))
    lhs = frame_connection_correction(
        sp, a, tuple(2.0 * b[k] + 3.0 * c[k] for k in range(3)))
    r1 = frame_connection_correction(sp, a, b)
    r2 = frame_connection_correction(sp, a, c)
    rhs = tuple(2.0 * r1[k] + 3.0 * r2[k] for k in range(3))
    assert norm3(sub(lhs, rhs)) < 1e-13


# ---------------------------------------------------------------- curvature


def expected_curvature_table(delta: float, tau: float):
    """Hand-derived frame curvature values R(Ei, Ej)Ek for i < j."""
    t2 = tau * tau
    d = float(delta)
    z = (0.0, 0.0, 0.0)
    return {
        (1, 2, 1): (0.0, -3.0 * t2, 0.0),
        (1, 2, 2): (-3.0 * d * t2, 0.0, 0.0),
        (1, 2, 3): z,
        (1, 3, 1): (0.0, 0.0, t2),
        (1, 3, 2): z,
        (1, 3, 3): (-d * t2, 0.0, 0.0),
        (2, 3, 1): z,
        (2, 3, 2): (0.0, 0.0, -d * t2),
        (2, 3, 3): (0.0, -d * t2, 0.0),
    }


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("tau", TAUS)
def test_curvature_frame_matches_hand_table(delta, tau):
    sp = SpaceParams(delta=delta, tau=tau)
    table = expected_curvature_table(delta, tau)
    for (i, j, k), want in table.items():
        got = curvature_frame(sp, BASIS[i - 1], BASIS[j - 1], BASIS[k - 1])
        assert got == want, (i, j, k)
        # antisymmetry in the first slot
        swapped = curvature_frame(sp, BASIS[j - 1], BASIS[i - 1], BASIS[k - 1])
        assert swapped == tuple(-x for x in want)


@pytest.mark.parametrize("delta", DELTAS)
def test_curvature_fd_matches_closed_form(delta):
    sp = SpaceParams(delta=delta, tau=1.0)
    rng = random.Random(24)
    for _ in range(3):
        p = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        v = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        w = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        z = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        closed = curvature(sp, p, v, w, z)
        fd = curvature_fd(sp, p, v, w, z)
        assert norm3(sub(closed, fd)) < 1e-13


def test_riemann_assembly_matches_loop_reference():
    """riemann_coords assembles Gamma, its derivatives and R from the
    metric's first and second derivatives by broadcast products; index
    loops over the same g^-1, dg and ddg are the reference (the summation
    order differs, so agreement is to rounding, not bit for bit)."""
    sp = SpaceParams(delta=-1, tau=0.8, kappa=-0.5)
    p = (0.2, -0.3, 0.4)
    ginv, dg, ddg, _ = ambient._connection(sp, p)

    def lowered(d, i, j, l):  # Gamma^m_ij with m lowered to l
        return 0.5 * (d[i, j, l] + d[j, i, l] - d[l, i, j])

    gamma = np.zeros((3, 3, 3))
    for k, i, j, l in itertools.product(range(3), repeat=4):
        gamma[k, i, j] += ginv[k, l] * lowered(dg, i, j, l)
    dgamma = np.zeros((3, 3, 3, 3))  # dgamma[a, k, i, j] = d_a Gamma^k_ij
    for a, k, i, j, l in itertools.product(range(3), repeat=5):
        dgamma[a, k, i, j] += ginv[k, l] * (
            lowered(ddg[a], i, j, l)
            - sum(dg[a, l, m] * gamma[m, i, j] for m in range(3)))
    want = np.zeros((3, 3, 3, 3))
    for l, i, j, k in itertools.product(range(3), repeat=4):
        want[l, i, j, k] = dgamma[i, l, j, k] - dgamma[j, l, i, k] + sum(
            gamma[l, i, m] * gamma[m, j, k] - gamma[l, j, m] * gamma[m, i, k]
            for m in range(3))

    def close(got, ref) -> bool:
        return np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    assert close(christoffel_coords(sp, p), gamma)
    assert close(riemann_coords(sp, p), want)


def test_connection_is_one_metric_evaluation(monkeypatch):
    """All six direction pairs i <= j ride one metric_matrix call, on one
    point or a batch, and check_ambient takes one connection per space:
    the kappa = 0 space and its companion."""
    calls = []
    metric = ambient.metric_matrix
    connection = ambient._connection
    monkeypatch.setattr(ambient, "metric_matrix",
                        lambda space, p: calls.append(space) or metric(space, p))
    sp = SpaceParams(delta=-1, tau=1.3, kappa=-2.0)
    for p in ((0.21, -0.34, 0.5), tuple(np.array([[0.2, -0.1], [0.3, 0.0],
                                                  [0.5, 1.0]]))):
        calls.clear()
        ambient._connection(sp, p)
        assert len(calls) == 1
    spaces = []
    monkeypatch.setattr(ambient, "_connection",
                        lambda space, p: spaces.append(space) or connection(space, p))
    check_ambient(SpaceParams(delta=1, tau=1.0))
    assert [s.kappa for s in spaces] == [0.0, -4.0]


def test_metric_jet_matches_central_differences():
    """The Taylor coefficients of `metric_matrix` (through the conformal factor's
    division at kappa != 0) are its derivatives: fourth-order central
    differences of g and of dg agree to their truncation."""
    sp = SpaceParams(delta=-1, tau=1.3, kappa=-2.0)
    p = (0.21, -0.34, 0.5)
    h = 1e-3
    _, dg, ddg, _ = ambient._connection(sp, p)

    def shifted(i, t):
        return tuple(c + t if k == i else c for k, c in enumerate(p))

    def matrix(t):  # g at the stacked offsets t, constant entries too
        return np.array([[c + 0.0 * t for c in row]
                         for row in metric_matrix(sp, shifted(i, t))])

    for i in range(3):
        fd = central_diff4(matrix, h)
        assert np.max(np.abs(dg[i] - fd)) < 1e-9
        fd = central_diff4(lambda t: ambient._connection(sp, shifted(i, t))[1],
                           h)
        assert np.max(np.abs(ddg[i] - fd)) < 1e-8
    assert np.array_equal(ddg, np.swapaxes(ddg, 0, 1))


def test_taylor_arithmetic_is_exact_on_a_rational_function():
    """f(x, y) = (1 - x y) / (2 + x) - 3 / y carries its exact first and
    second partials through + - * / with float operands on either side,
    its value is the plain formula's, and abs flips by the sign of the
    value."""
    x0, y0 = 0.7, -1.9
    x, y = Taylor.variables((x0, y0), 2)
    f = (1.0 - x * y) / (2.0 + x) - 3.0 / y
    fx = (-y0 * (2.0 + x0) - (1.0 - x0 * y0)) / (2.0 + x0) ** 2
    fy = -x0 / (2.0 + x0) + 3.0 / y0 ** 2
    fxx = 2.0 * (1.0 + 2.0 * y0) / (2.0 + x0) ** 3
    fxy = -1.0 / (2.0 + x0) + x0 / (2.0 + x0) ** 2
    fyy = -6.0 / y0 ** 3
    got = [derivative(f, *axes)
           for axes in ((0,), (1,), (0, 0), (0, 1), (1, 1))]
    assert got == pytest.approx([fx, fy, fxx, fxy, fyy], rel=1e-14, abs=1e-15)
    assert value(f) == (1.0 - x0 * y0) / (2.0 + x0) - 3.0 / y0
    assert (value(abs(-x)), derivative(abs(-x), 0)) == (x0, 1.0)
    assert (value(abs(y)), derivative(abs(y), 1)) == (-y0, -1.0)
    # an ndarray operand broadcasts against the batch, not the coefficients
    t, = Taylor.variables((np.array([3.0, 4.0]),), 1)
    z = np.array([1.0, 2.0]) * t
    assert isinstance(z, Taylor) and derivative(z, 0).tolist() == [1.0, 2.0]


def test_flat_when_tau_zero():
    """tau = 0 gives flat Minkowski space: the FD curvature vanishes."""
    sp = SpaceParams(delta=1, tau=0.0)
    riem = riemann_coords(sp, (0.3, -0.7, 1.1))
    assert float(np.max(np.abs(riem))) < 1e-8


# ---------------------------------------------------------------- sectional


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("tau", (0.5, 1.0))
def test_sectional_values_on_frame_planes(delta, tau):
    sp = SpaceParams(delta=delta, tau=tau)
    p = (0.2, -0.3, 0.9)
    vecs = frame_at(sp, p).vectors()
    k12 = sectional_curvature(sp, p, vecs[0], vecs[1])
    k13 = sectional_curvature(sp, p, vecs[0], vecs[2])
    k23 = sectional_curvature(sp, p, vecs[1], vecs[2])
    t2 = tau * tau
    assert k12 == pytest.approx(3.0 * t2, abs=1e-12)
    assert k13 == pytest.approx(-t2, abs=1e-12)
    assert k23 == pytest.approx(-t2, abs=1e-12)


def test_sectional_rejects_degenerate_plane():
    sp = SpaceParams(delta=1, tau=1.0)
    p = (0.0, 0.0, 0.0)
    v = (1.0, 0.5, -0.2)
    w = (2.0, 1.0, -0.4)  # parallel to v
    with pytest.raises(DegeneratePlane):
        sectional_curvature(sp, p, v, w)


def test_sectional_fd_constant_on_matched_kappa():
    tau = 1.0
    sp = SpaceParams(delta=1, tau=tau, kappa=-4.0 * tau * tau)
    vals = []
    rng = random.Random(25)
    while len(vals) < 5:
        p = (rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15),
             rng.uniform(-1.0, 1.0))
        v = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        w = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        g_vv = metric_eval(sp, p, v, v)
        g_ww = metric_eval(sp, p, w, w)
        g_vw = metric_eval(sp, p, v, w)
        denom = g_vv * g_ww - g_vw * g_vw
        if abs(denom) < 0.2 * max(abs(g_vv * g_ww), g_vw * g_vw, 1e-12):
            continue
        vals.append(sectional_curvature(sp, p, v, w, method="fd"))
    for val in vals:
        assert val == pytest.approx(-tau * tau, abs=1e-6)


def test_sectional_not_constant_at_kappa_zero():
    """At kappa = 0 the space is NOT of constant curvature."""
    sp = SpaceParams(delta=1, tau=1.0)
    p = (0.0, 0.0, 0.0)
    vecs = frame_at(sp, p).vectors()
    k12 = sectional_curvature(sp, p, vecs[0], vecs[1])
    k13 = sectional_curvature(sp, p, vecs[0], vecs[2])
    assert abs(k12 - k13) > 3.0  # 3*tau^2 vs -tau^2


# ---------------------------------------------------------------- batches


def random_batch(seed: int, n: int, box: float):
    """n points in [-box, box]^3 and n triples of vectors in [-1, 1]^3, as
    rows (one point per row)."""
    rng = random.Random(seed)
    pts = np.array([[rng.uniform(-box, box) for _ in range(3)]
                    for _ in range(n)])
    vecs = np.array([[rng.uniform(-1.0, 1.0) for _ in range(9)]
                     for _ in range(n)])
    return pts, vecs


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("tau", (0.0, 1.0, 3.5))
def test_fd_path_batch_equals_point_calls(delta, tau):
    """A batch of points (a Vec3 of arrays, tensors with the batch axis
    last) gives exactly the values of one call per point at kappa = 0."""
    sp = SpaceParams(delta=delta, tau=tau)
    pts, vecs = random_batch(31, 7, 1.5)
    p = tuple(pts.T)
    v, w, z = (tuple(vecs[:, 3 * k:3 * k + 3].T) for k in range(3))
    gamma = christoffel_coords(sp, p)
    riem = riemann_coords(sp, p)
    rv = curvature_fd(sp, p, v, w, z)
    sec = sectional_curvature(sp, p, v, w, method="fd")
    assert gamma.shape == (3, 3, 3, 7) and riem.shape == (3, 3, 3, 3, 7)
    for n, (q, r) in enumerate(zip(pts, vecs)):
        q = tuple(q)
        assert np.array_equal(gamma[..., n], christoffel_coords(sp, q))
        assert np.array_equal(riem[..., n], riemann_coords(sp, q))
        assert tuple(c[n] for c in rv) == curvature_fd(sp, q, r[:3], r[3:6], r[6:])
        assert sec[n] == sectional_curvature(sp, q, r[:3], r[3:6], method="fd")


def test_fd_path_batch_at_nonzero_kappa_equals_point_calls():
    """At kappa != 0 no metric derivative is zero, so every term of every
    contraction counts: a batch still gives exactly the values of one call
    per point, as the path adds its terms elementwise, in one order."""
    sp = SpaceParams(delta=-1, tau=5.0, kappa=-100.0)
    pts, vecs = random_batch(32, 7, 0.03)
    p = tuple(pts.T)
    v, w, z = (tuple(vecs[:, 3 * k:3 * k + 3].T) for k in range(3))
    gamma = christoffel_coords(sp, p)
    riem = riemann_coords(sp, p)
    rv = curvature_fd(sp, p, v, w, z)
    for n, (q, r) in enumerate(zip(pts, vecs)):
        q = tuple(q)
        assert np.array_equal(gamma[..., n], christoffel_coords(sp, q))
        assert np.array_equal(riem[..., n], riemann_coords(sp, q))
        assert tuple(c[n] for c in rv) == curvature_fd(sp, q, r[:3], r[3:6], r[6:])
    # one point against a batch of vectors: the point's tensor broadcasts
    q = tuple(pts[0])
    assert np.array_equal(curvature_fd(sp, q, v, w, z), curvature_fd(
        sp, tuple(np.full(7, c) for c in q), v, w, z))


def einsum_reference(ginv, dg, ddg, riem_vwz):
    """Gamma, Riem and R(V, W)Z from the parts of `_connection` by
    np.einsum over the trailing batch axis: the contractions the path
    replaced, whose order of summation it keeps."""
    lowered = ambient._lowered
    gamma = np.einsum("kl...,ijl...->kij...", ginv, lowered(dg))
    dgamma = (np.einsum("kl...,aijl...->akij...", ginv, lowered(ddg, 1))
              - np.einsum("kl...,alm...,mij...->akij...", ginv, dg, gamma))
    gg = np.einsum("lim...,mjk...->lijk...", gamma, gamma)
    riem = (np.swapaxes(dgamma, 0, 1) - np.moveaxis(dgamma, 0, 2)
            + gg - np.swapaxes(gg, 1, 2))
    rv = np.einsum("lijk...,i...,j...,k...->l...", *riem_vwz)
    return gamma, riem, rv


def bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("tau, kappa", ((1.0, 0.0), (1.0, -4.0), (0.7, 0.0),
                                        (0.7, -4.0 * 0.7 * 0.7)))
@pytest.mark.parametrize("n", (8, 20, 65))
def test_contractions_equal_einsum_bit_for_bit(delta, tau, kappa, n):
    """`_connection`, `_riemann` and `_applied` give np.einsum's bits on a
    batch: its order of summation over a trailing batch axis is index
    order from 0.  `_riemann` runs on a strided slice too, as
    `check_ambient` reads it."""
    sp = SpaceParams(delta=delta, tau=tau, kappa=kappa)
    rng = np.random.default_rng(n)
    ginv, dg, ddg, gamma = parts = ambient._connection(
        sp, tuple(rng.uniform(-0.1, 0.1, (3, n))))
    riem = ambient._riemann(*parts)
    vwz = rng.uniform(-1.0, 1.0, (3, 3, n))
    want = einsum_reference(ginv, dg, ddg, (riem, *vwz))
    assert bits(gamma) == bits(want[0])
    assert bits(riem) == bits(want[1])
    assert bits(ambient._applied(riem, *vwz)) == bits(want[2])
    cut = [part[..., :n // 2] for part in parts]
    assert bits(ambient._riemann(*cut)) == bits(einsum_reference(
        *cut[:3], (riem[..., :n // 2], *vwz[..., :n // 2]))[1])


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("kappa", (0.0, -4.0))
def test_contractions_of_one_point_equal_its_batch_values(delta, kappa):
    """On a batch of one point np.einsum runs its inner loop over the
    contracted axis, and its sums then round differently.  The path keeps
    one order: a batch of one gives the point's values in a batch of 8 bit
    for bit, and einsum's to rounding."""
    sp = SpaceParams(delta=delta, tau=1.0, kappa=kappa)
    rng = np.random.default_rng(1)
    p = rng.uniform(-0.1, 0.1, (3, 8))
    vwz = rng.uniform(-1.0, 1.0, (3, 3, 8))
    ginv, dg, ddg, gamma = parts = ambient._connection(sp, tuple(p))
    riem = ambient._riemann(*parts)
    rv = np.array(ambient._applied(riem, *vwz))
    for k in range(8):
        one = ambient._connection(sp, tuple(p[:, k:k + 1]))
        riem1 = ambient._riemann(*one)
        rv1 = ambient._applied(riem1, *vwz[..., k:k + 1])
        assert bits(one[3]) == bits(gamma[..., k:k + 1])
        assert bits(riem1) == bits(riem[..., k:k + 1])
        assert bits(rv1) == bits(rv[:, k:k + 1])
        want = einsum_reference(*one[:3], (riem1, *vwz[..., k:k + 1]))
        for got, ref in zip((one[3], riem1, rv1), want):
            got, ref = np.asarray(got), np.asarray(ref)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.max(np.abs(ref)))


def test_singular_metric_in_a_batch_names_the_point():
    sp = SpaceParams(delta=1, tau=1.0, kappa=1.0)
    x = np.array([0.1, 0.2, 1e4, 3e4])
    p = (x, np.zeros(4), np.full(4, 0.5))
    with pytest.raises(SingularMetric,
                       match=r"singular at \(10000\.0, 0\.0, 0\.5\)"):
        christoffel_coords(sp, p)


@pytest.mark.parametrize("fn", (christoffel_coords, riemann_coords))
def test_vanishing_conformal_factor_names_float_coordinates(fn):
    """The path evaluates the metric at dual points only; its guard still
    names the real coordinates of the first failing point."""
    sp = SpaceParams(delta=1, tau=1.0, kappa=-4.0)  # D = 1 - x^2 + y^2
    with pytest.raises(SingularConformalFactor,
                       match=r"at \(x, y\) = \(1\.0, 0\.0\)$"):
        fn(sp, (1.0, 0.0, 0.3))
    x = np.array([0.1, 1.0, 1.0])
    with pytest.raises(SingularConformalFactor,
                       match=r"at \(x, y\) = \(1\.0, 0\.0\)$"):
        fn(sp, (x, np.zeros(3), np.zeros(3)))


def test_degenerate_plane_in_a_batch_names_the_point():
    sp = SpaceParams(delta=1, tau=1.0)
    p = (np.array([0.1, 0.2, 0.3]), np.zeros(3), np.zeros(3))
    v = (1.0, 0.5, -0.2)
    w = (np.array([0.0, 2.0, 0.0]), np.array([1.0, 1.0, 0.0]),
         np.array([0.0, -0.4, 1.0]))  # parallel to v at the second point
    with pytest.raises(DegeneratePlane, match=r"plane at \(0\.2, 0\.0, 0\.0\)"):
        sectional_curvature(sp, p, v, w, method="fd")


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("tau", (1.0, 3.5, 5.0))
def test_frame_brackets_exact_by_dual_numbers(delta, tau):
    """The frame fields are polynomial in p and their dual-number
    derivatives are exact: so are the brackets, on a batch."""
    sp = SpaceParams(delta=delta, tau=tau)
    pts, _ = random_batch(33, 10, 1.5)
    p = tuple(pts.T)
    f1, f2, f3 = (frame_field(sp, i) for i in (1, 2, 3))

    def exactly(got, want) -> bool:
        return all(np.all(g == w) for g, w in zip(got, want))

    assert exactly(commutator_fd(f1, f2, p), (0.0, 0.0, 2.0 * tau))
    assert exactly(commutator_fd(f1, f3, p), (0.0, 0.0, 0.0))
    assert exactly(commutator_fd(f2, f3, p), (0.0, 0.0, 0.0))
    # D_{E1} E2 = (0, 0, tau): the derivative of the vertical component
    assert exactly(directional_fd(f2, p, frame_at(sp, p).e1), (0.0, 0.0, tau))


# ---------------------------------------------------------------- guards


# guards that no other test reaches: each raises its documented error
@pytest.mark.parametrize("call", (
    lambda: SpaceParams(delta=1, tau=math.inf),
    lambda: SpaceParams(delta=1, tau=math.nan),
    lambda: SpaceParams(delta=1, tau=1.0, kappa=math.nan),
    lambda: ambient.frame_field(SpaceParams(delta=1, tau=1.0), 4),
    lambda: sectional_curvature(SpaceParams(delta=1, tau=1.0), (0.0, 0.0, 0.0),
                                (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), method="x"),
), ids=("tau_inf", "tau_nan", "kappa_nan", "frame_index_4", "unknown_method"))
def test_argument_guards_raise_value_error(call):
    with pytest.raises(ValueError):
        call()
