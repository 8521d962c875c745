"""Ambient geometry of a two-parameter family of homogeneous Lorentzian
metrics on R^3 (the Lorentzian Heisenberg group and its curvature-deformed
relatives).

The metric with parameters (delta, tau, kappa) is

    g = (dx^2 - delta * dy^2) / D^2  +  delta * omega^2,
    omega = (tau*y/D) dx - (tau*x/D) dy + dz,
    D = 1 + (kappa/4) * (x^2 - delta * y^2),

with delta in {-1, +1} selecting which directions carry the negative sign and
tau the structure constant.  At kappa = 0 (D == 1) it is the Lorentzian
Heisenberg group with its left-invariant metric, where closed-form frame,
wedge, connection and curvature operations are available.  For every kappa,
a coordinate path that shares no code with them cross-checks them: the
Christoffel symbols and curvature from the exact derivatives of
`metric_matrix` on Taylor values of the coordinates (`numeric.Taylor`).
Points are Vec3 tuples of floats, or of equal-length 1-D arrays (a batch).

Conventions fixed by this module (and verified by the test suite):

- orthonormal frame at kappa = 0:
      E1 = d/dx - tau*y d/dz,  E2 = d/dy + tau*x d/dz,  E3 = d/dz,
  with signature g(E1,E1) = 1, g(E2,E2) = -delta, g(E3,E3) = delta;
- commutator [E1, E2] = 2*tau*E3, all other frame brackets vanish;
- the volume form evaluates to +1 on (E1, E2, E3), which orients the cross
  product `wedge`: E1 ^ E2 = delta*E3, E2 ^ E3 = E1, E1 ^ E3 = delta*E2."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DegeneratePlane, SingularConformalFactor, SingularMetric,
                     UnsupportedKappa)
from .numeric import (_INDEX, Taylor, Vec3, as_vec3, bilinear3, derivative,
                      lincomb3, require, sub3)

# conformal denominator treated as singular below this magnitude
_CONFORMAL_TOL = 1e-12
# relative threshold for a degenerate tangent 2-plane
_PLANE_TOL = 1e-10


@dataclass(frozen=True)
class SpaceParams:
    """Parameters of the ambient space: delta (+1 or -1) selects the
    timelike frame direction (E2 or E3); tau is the structure constant
    (tau = 0 is a flat product, allowed here; the families need tau != 0);
    kappa deforms the base plane (kappa = 0: the Heisenberg group)."""

    delta: int
    tau: float
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if self.delta not in (-1, 1):
            raise ValueError(f"delta must be +1 or -1, got {self.delta!r}")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")


@dataclass(frozen=True)
class Frame:
    """Orthonormal frame at a point, in coordinate components."""

    e1: Vec3
    e2: Vec3
    e3: Vec3
    signature: tuple[int, int, int]

    def vectors(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.e1, self.e2, self.e3)


def _require_kappa_zero(space: SpaceParams, what: str) -> None:
    if space.kappa != 0.0:
        raise UnsupportedKappa(
            f"{what} has a closed form only at kappa = 0 "
            f"(got kappa = {space.kappa}); use the finite-difference path")


# ---- metric ----


def conformal_factor(space: SpaceParams, p) -> float:
    """Denominator D = 1 + (kappa/4)(x^2 - delta*y^2) of the base metric
    (exactly 1 at kappa = 0, even where x^2 overflows)."""
    if space.kappa == 0.0:
        return 1.0
    x, y, _ = p
    d = 1.0 + 0.25 * space.kappa * (x * x - space.delta * y * y)
    require(abs(d) >= _CONFORMAL_TOL, SingularConformalFactor,
            lambda x, y: f"conformal denominator vanishes at (x, y) = ({x}, {y})",
            x, y)
    return d


def metric_matrix(space: SpaceParams, p) -> tuple[Vec3, Vec3, Vec3]:
    """Coordinate matrix of the metric at p, as three rows (entries are
    arrays when p is a batch of points)."""
    x, y, _ = p
    delta, tau = float(space.delta), space.tau
    d = conformal_factor(space, p)
    inv2 = 1.0 / (d * d)
    wx = tau * y / d  # omega(d/dx)
    wy = -tau * x / d  # omega(d/dy)
    # delta * wx * wy is (delta * wx) * wy: each product once, same bits
    dwx, dwy = delta * wx, delta * wy
    dwxy = dwx * wy
    return (
        (inv2 + dwx * wx, dwxy, dwx),
        (dwxy, -delta * inv2 + dwy * wy, dwy),
        (dwx, dwy, delta),
    )


def metric_eval(space: SpaceParams, p, v, w) -> float:
    """Metric value g_p(v, w) for coordinate vectors v, w at point p."""
    return bilinear3(metric_matrix(space, p), as_vec3(v), as_vec3(w))


# ---- orthonormal frame (kappa = 0) ----


def frame_at(space: SpaceParams, p) -> Frame:
    """Left-invariant orthonormal frame at p (kappa = 0 only)."""
    _require_kappa_zero(space, "frame_at")
    x, y, _ = p
    tau = space.tau
    return Frame(
        e1=(1.0, 0.0, -tau * y),
        e2=(0.0, 1.0, tau * x),
        e3=(0.0, 0.0, 1.0),
        signature=(1, -space.delta, space.delta),
    )


def frame_field(space: SpaceParams, i: int) -> Callable[[object], Vec3]:
    """The i-th frame vector (i in {1,2,3}) as a vector field p -> Vec3."""
    if i not in (1, 2, 3):
        raise ValueError("frame index must be 1, 2 or 3")
    return lambda p: frame_at(space, p).vectors()[i - 1]


def to_frame_components(space: SpaceParams, p, v) -> Vec3:
    """Components of coordinate vector v in the frame (E1, E2, E3)."""
    _require_kappa_zero(space, "to_frame_components")
    x, y, _ = p
    v = as_vec3(v)
    tau = space.tau
    return (v[0], v[1], v[2] + tau * (y * v[0] - x * v[1]))


def from_frame_components(space: SpaceParams, p, a) -> Vec3:
    """Coordinate components of a1*E1 + a2*E2 + a3*E3 at p."""
    _require_kappa_zero(space, "from_frame_components")
    x, y, _ = p
    a = as_vec3(a)
    tau = space.tau
    return (a[0], a[1], a[2] - tau * (y * a[0] - x * a[1]))


def frame_metric(space: SpaceParams, a, b) -> float:
    """Metric value for vectors given in frame components (point-free)."""
    delta = float(space.delta)
    return a[0] * b[0] - delta * a[1] * b[1] + delta * a[2] * b[2]


# ---- oriented cross product ----


def wedge_frame(space: SpaceParams, a, b) -> Vec3:
    """Cross product in frame components: g(a ^ b, c) = vol(a, b, c)."""
    delta = float(space.delta)
    return (
        a[1] * b[2] - a[2] * b[1],
        delta * (a[0] * b[2] - a[2] * b[0]),
        delta * (a[0] * b[1] - a[1] * b[0]),
    )


def wedge(space: SpaceParams, p, v, w) -> Vec3:
    """Cross product of coordinate vectors at p (kappa = 0 only)."""
    a = to_frame_components(space, p, v)
    b = to_frame_components(space, p, w)
    return from_frame_components(space, p, wedge_frame(space, a, b))


# ---- Levi-Civita connection on the frame (kappa = 0) ----


def connection_table(space: SpaceParams) -> dict[tuple[int, int], Vec3]:
    """Frame components of nabla_{E_i} E_j for i, j in {1, 2, 3}."""
    _require_kappa_zero(space, "connection_table")
    tau = space.tau
    dtau = float(space.delta) * tau
    zero: Vec3 = (0.0, 0.0, 0.0)
    return {
        (1, 1): zero, (2, 2): zero, (3, 3): zero,
        (1, 2): (0.0, 0.0, tau),
        (2, 1): (0.0, 0.0, -tau),
        (1, 3): (0.0, tau, 0.0),
        (3, 1): (0.0, tau, 0.0),
        (2, 3): (dtau, 0.0, 0.0),
        (3, 2): (dtau, 0.0, 0.0),
    }


def frame_connection_correction(space: SpaceParams, xf, wf) -> Vec3:
    """Sum_{i,j} x_i w_j (nabla_{E_i} E_j) in frame components: the
    algebraic part of the covariant derivative of a field w along x; the
    caller adds the derivative of the components themselves."""
    tau = space.tau
    dtau = float(space.delta) * tau
    # expanded from connection_table for speed in per-sample loops
    c1 = dtau * (xf[1] * wf[2] + xf[2] * wf[1])
    c2 = tau * (xf[0] * wf[2] + xf[2] * wf[0])
    c3 = tau * (xf[0] * wf[1] - xf[1] * wf[0])
    return (c1, c2, c3)


# ---- curvature: closed tensor form (kappa = 0) ----


def curvature_frame(space: SpaceParams, a, b, c) -> Vec3:
    """R(A, B)C in frame components (kappa = 0 closed form), with
    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
    delta = float(space.delta)
    e3: Vec3 = (0.0, 0.0, 1.0)
    g_bc = frame_metric(space, b, c)
    g_ac = frame_metric(space, a, c)
    g_b3 = delta * b[2]
    g_a3 = delta * a[2]
    g_c3 = delta * c[2]
    # tau^2 multiplies once at the end: summing 3 tau^2 and -4 tau^2 terms
    # inside one component would round differently from the tau^2 table entry
    r = lincomb3([
        (3.0 * g_bc - 4.0 * delta * g_b3 * g_c3, a),
        (-3.0 * g_ac + 4.0 * delta * g_a3 * g_c3, b),
        (-4.0 * delta * (g_a3 * g_bc - g_b3 * g_ac), e3),
    ])
    t2 = space.tau * space.tau
    return (t2 * r[0], t2 * r[1], t2 * r[2])


def curvature(space: SpaceParams, p, v, w, z) -> Vec3:
    """R(V, W)Z in coordinate components at p (kappa = 0 closed form)."""
    a = to_frame_components(space, p, v)
    b = to_frame_components(space, p, w)
    c = to_frame_components(space, p, z)
    return from_frame_components(space, p, curvature_frame(space, a, b, c))


# ---- coordinate path (any kappa) ----
# `metric_matrix` and vector fields run on Taylor values: exact derivatives.
# p is floats or 1-D arrays; tensors carry the batch axis last.  Each
# contraction forms its products, then adds them in index order starting
# from 0: np.einsum's order over a batch axis of two or more points.  The
# sums are elementwise, so a point gets the same bits alone as in a batch.


def _lowered(d: np.ndarray, k: int = 0) -> np.ndarray:
    """(d_i g_jl + d_j g_il - d_l g_ij) / 2 over the axes k, k+1, k+2 of
    d[.., i, j, l] = d_i g_jl: Gamma^m_ij with m lowered to l."""
    return 0.5 * (d + np.swapaxes(d, k, k + 1) - np.moveaxis(d, k, k + 2))


#: the rows of the monomials x_a x_i, (a, i) a-major, of a Taylor value in x, y, z
_SECOND_PARTIALS = [_INDEX[3][tuple((a, i).count(k) for k in range(3))]
                    for a in range(3) for i in range(3)]


def _connection(space: SpaceParams, p: Vec3) -> tuple:
    """(g^-1, dg, ddg, Gamma) at p, with dg[i, j, l] = d_i g_jl and
    ddg[a, i, j, l] = d_a d_i g_jl: the coefficients of `metric_matrix`
    at p as an order-2 Taylor value in (x, y, z), from one call."""
    batch = np.broadcast_shapes(*map(np.shape, p))
    # the nine entries on one axis: [coefficient, row, column, *batch]
    c = Taylor.stack([c for row in metric_matrix(
        space, Taylor.variables(p, 2)) for c in row]).c.reshape(-1, 3, 3, *batch)
    g = np.moveaxis(c[0], (0, 1), (-2, -1))
    dg = c[1:4]  # the first-degree monomials: d_x, d_y, d_z
    ddg = c[_SECOND_PARTIALS]
    ddg[::4] *= 2.0  # the coefficient of x_a^2 is half of d_a d_a g
    ddg = ddg.reshape(3, 3, 3, 3, *batch)
    det = np.linalg.det(g)
    require(abs(det) >= 1e-14, SingularMetric,
            lambda x, y, z, d: f"metric matrix singular at {(x, y, z)} "
            f"(det = {d})", *p, det)
    # contiguous, as the products below and in `_riemann` run fastest
    ginv = np.ascontiguousarray(np.moveaxis(np.linalg.inv(g), (-2, -1), (0, 1)))
    # Gamma^k_ij = g^kl Gamma_ijl, the terms on axes [l, k, i, j]
    return ginv, dg, ddg, sum(np.moveaxis(ginv, 1, 0)[:, :, None, None]
                              * np.moveaxis(_lowered(dg), 2, 0)[:, None])


def christoffel_coords(space: SpaceParams, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] at p; consumes only
    `metric_matrix`, independent of every closed-form table."""
    return _connection(space, as_vec3(p))[3]


def riemann_coords(space: SpaceParams, p) -> np.ndarray:
    """Curvature tensor Riem[l, i, j, k] = (R(d_i, d_j) d_k)^l at p (works
    for any kappa)."""
    return _riemann(*_connection(space, as_vec3(p)))


def _riemann(ginv, dg, ddg, gamma) -> np.ndarray:
    """Riem[l, i, j, k] from the parts of `_connection`."""
    gl = np.moveaxis(ginv, 1, 0)  # gl[l, k] = g^kl
    # d_a Gamma^k_ij = g^kl d_a Gamma_ijl - g^kl (d_a g_lm) Gamma^m_ij, the
    # terms on axes [l, a, k, i, j] and [(l, m), a, k, i, j]
    gd = gl[:, None, None] * np.moveaxis(dg, 0, 2)[:, :, :, None]
    dgamma = (sum(gl[:, None, :, None, None]
                  * np.moveaxis(_lowered(ddg, 1), 3, 0)[:, :, None])
              - sum((gd[:, :, :, :, None, None] * gamma[None, :, None, None]
                     ).reshape(9, *gd.shape[2:4], *gamma.shape[1:])))
    # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
    #           + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik,
    # the last term being the third with i and j swapped, and the first two
    # dgamma[a, k, i, j] = d_a Gamma^k_ij with its axes moved; the terms of
    # the third on axes [m, l, i, j, k]
    gg = sum(np.moveaxis(gamma, 2, 0)[:, :, :, None, None] * gamma[:, None, None])
    return (np.swapaxes(dgamma, 0, 1) - np.moveaxis(dgamma, 0, 2)
            + gg - np.swapaxes(gg, 1, 2))


def curvature_fd(space: SpaceParams, p, v, w, z) -> Vec3:
    """R(V, W)Z at p via the coordinate path (any kappa)."""
    return _applied(riemann_coords(space, p), v, w, z)


def _applied(riem: np.ndarray, v, w, z) -> Vec3:
    """R(V, W)Z from Riem[l, i, j, k]."""
    *comps, batch = np.broadcast_arrays(*as_vec3(v), *as_vec3(w), *as_vec3(z),
                                        riem[0, 0, 0, 0])
    v, w, z = np.reshape(comps, (3, 3, *batch.shape))
    # riem's batch axes, if fewer, aligned with the vectors' from the right
    riem = riem.reshape(riem.shape[:4] + (1,) * (batch.ndim + 4 - riem.ndim)
                        + riem.shape[4:])
    terms = riem * v[:, None, None] * w[:, None] * z
    # the 27 terms (i, j, k) of each l in order, each partial sum from the
    # last (+ 0.0: a start from 0 leaves no other trace)
    return as_vec3(np.add.accumulate(
        terms.reshape(3, 27, *terms.shape[4:]), axis=1)[:, -1] + 0.0)


# ---- sectional curvature ----


def sectional_curvature(space: SpaceParams, p, v, w,
                        method: str = "closed") -> float:
    """Sectional curvature of span(v, w) at p: by the kappa = 0 tensor
    ("closed") or the coordinate path ("fd", any kappa).  Raises
    DegeneratePlane where the plane's induced form is (numerically) null."""
    v = as_vec3(v)
    w = as_vec3(w)
    g = metric_matrix(space, p)
    g_vv, g_ww, g_vw = bilinear3(g, v, v), bilinear3(g, w, w), bilinear3(g, v, w)
    denom = g_vv * g_ww - g_vw * g_vw
    scale = np.maximum(np.maximum(1.0, abs(g_vv * g_ww)), g_vw * g_vw)
    require(abs(denom) >= _PLANE_TOL * scale, DegeneratePlane,
            lambda x, y, z, d: f"tangent plane at {(x, y, z)} is degenerate "
            f"(denominator {d})", *p, denom)
    if method == "closed":
        rv = curvature(space, p, v, w, w)
    elif method == "fd":
        rv = curvature_fd(space, p, v, w, w)
    else:
        raise ValueError(f"unknown method {method!r}")
    return bilinear3(g, as_vec3(rv), v) / denom


# ---- generic derivatives of vector fields ----


def directional_fd(field: Callable[[Vec3], Vec3], p, direction) -> Vec3:
    """Coordinate derivative of a vector field at p along `direction`: the
    order-1 coefficient of W(p + tX), exact up to rounding.  The field must
    accept Taylor coordinates, which a field written with + - * / does."""
    xs = np.broadcast_arrays(*as_vec3(p), *as_vec3(direction))
    w = field(tuple([Taylor(np.stack((xs[k], xs[k + 3])), 1, 1)
                     for k in range(3)]))
    return as_vec3([derivative(c, 0) for c in w])


def commutator_fd(field_v: Callable[[Vec3], Vec3],
                  field_w: Callable[[Vec3], Vec3], p) -> Vec3:
    """Lie bracket [V, W] at p from exact directional derivatives of the
    fields."""
    p = as_vec3(p)
    dv_w = directional_fd(field_w, p, as_vec3(field_v(p)))  # D_V W
    dw_v = directional_fd(field_v, p, as_vec3(field_w(p)))  # D_W V
    return sub3(dv_w, dw_v)
