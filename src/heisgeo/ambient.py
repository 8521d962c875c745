"""Ambient geometry of a two-parameter family of homogeneous Lorentzian
metrics on R^3 (the Lorentzian Heisenberg group and its curvature-deformed
relatives).

The metric with parameters (delta, tau, kappa) is

    g = (dx^2 - delta * dy^2) / D^2  +  delta * omega^2,
    omega = (tau*y/D) dx - (tau*x/D) dy + dz,
    D = 1 + (kappa/4) * (x^2 - delta * y^2),

with delta in {-1, +1} selecting which directions carry the negative sign and
tau the structure constant of the underlying group.  At kappa = 0 (D == 1)
the space is the Lorentzian Heisenberg group with its left-invariant metric;
closed-form frame, wedge, connection and curvature operations are available
there.  For every kappa, a coordinate path that shares no code with the
closed forms cross-checks them: Christoffel symbols and curvature from the
exact derivatives of `metric_matrix`, run on dual numbers.  Points are Vec3
tuples of floats, or of equal-length 1-D arrays for a batch of points (see
`heisgeo.numeric`).

Conventions fixed by this module (and verified by the test suite):

- orthonormal frame at kappa = 0:
      E1 = d/dx - tau*y d/dz,  E2 = d/dy + tau*x d/dz,  E3 = d/dz,
  with signature g(E1,E1) = 1, g(E2,E2) = -delta, g(E3,E3) = delta;
- commutator [E1, E2] = 2*tau*E3, all other frame brackets vanish;
- the volume form evaluates to +1 on (E1, E2, E3), which orients the cross
  product `wedge`: E1 ^ E2 = delta*E3, E2 ^ E3 = E1, E1 ^ E3 = delta*E2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegeneratePlane,
    SingularConformalFactor,
    SingularMetric,
    UnsupportedKappa,
)
from .numeric import Vec3, as_vec3, bilinear3, lincomb3, require, sub3

# conformal denominator treated as singular below this magnitude
_CONFORMAL_TOL = 1e-12
# relative threshold for a degenerate tangent 2-plane
_PLANE_TOL = 1e-10


@dataclass(frozen=True)
class SpaceParams:
    """Parameters of the ambient space.

    delta: +1 or -1; selects the timelike frame direction (E2 for delta=+1,
        E3 for delta=-1).
    tau:   structure constant; tau = 0 degenerates to a flat product metric
        and is allowed here (family generators enforce tau != 0 themselves).
    kappa: curvature deformation of the base plane; kappa = 0 is the
        Heisenberg-group case with closed-form operations.
    """

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
            _real(x), _real(y))
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
    return (
        (inv2 + delta * wx * wx, delta * wx * wy, delta * wx),
        (delta * wx * wy, -delta * inv2 + delta * wy * wy, delta * wy),
        (delta * wx, delta * wy, delta),
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
    """Sum_{i,j} x_i w_j * (nabla_{E_i} E_j) in frame components.

    This is the algebraic part of the covariant derivative of a field with
    frame components w along a direction with frame components x; the caller
    adds the directional derivative of the components themselves.
    """
    tau = space.tau
    dtau = float(space.delta) * tau
    # expanded from connection_table for speed in per-sample loops
    c1 = dtau * (xf[1] * wf[2] + xf[2] * wf[1])
    c2 = tau * (xf[0] * wf[2] + xf[2] * wf[0])
    c3 = tau * (xf[0] * wf[1] - xf[1] * wf[0])
    return (c1, c2, c3)


# ---- curvature: closed tensor form (kappa = 0) ----


def curvature_frame(space: SpaceParams, a, b, c) -> Vec3:
    """R(A, B)C in frame components (kappa = 0 closed form).

    Sign convention: R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
    - nabla_[X,Y] Z.
    """
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
# Exact derivatives: `metric_matrix` and vector fields run on dual numbers.
# p is floats or equal-length 1-D arrays; tensors carry the batch axis last.


class _Dual:
    """re + du eps, eps^2 = 0: + - * / carry the exact derivative in `du`
    (Fike & Alonso, AIAA 2011-886).  Parts that are _Duals in a second eps
    carry mixed second derivatives; operands of one computation nest alike."""

    __array_ufunc__ = None  # an ndarray operand defers to the methods here

    def __init__(self, re, du):
        self.re, self.du = re, du

    def __add__(self, o):
        re, du = _parts(o)
        return _Dual(self.re + re, self.du + du)

    def __neg__(self):
        return _Dual(-self.re, -self.du)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if not isinstance(o, _Dual):
            return _Dual(self.re * o, self.du * o)
        return _Dual(self.re * o.re, self.re * o.du + self.du * o.re)

    def __truediv__(self, o):
        re, du = _parts(o)
        q = self.re / re
        return _Dual(q, (self.du - q * du) / re)

    def __rtruediv__(self, o):
        return _Dual(o, 0.0) / self

    def __abs__(self):  # of the real part: guards act on real parts
        return abs(self.re)

    __radd__, __rmul__ = __add__, __mul__


def _parts(c) -> tuple:
    """(re, du) of a dual; a plain value has du = 0."""
    return (c.re, c.du) if isinstance(c, _Dual) else (c, 0.0)


def _real(c):
    """The real part of a (nested) dual, or a plain value itself."""
    return _real(c.re) if isinstance(c, _Dual) else c


def _lowered(d: np.ndarray, k: int = 0) -> np.ndarray:
    """(d_i g_jl + d_j g_il - d_l g_ij) / 2 over the axes k, k+1, k+2 of
    d[.., i, j, l] = d_i g_jl: Gamma^m_ij with m lowered to l."""
    return 0.5 * (d + np.swapaxes(d, k, k + 1) - np.moveaxis(d, k, k + 2))


def _connection(space: SpaceParams, p: Vec3) -> tuple:
    """(g^-1, dg, ddg, Gamma) at p, with dg[i, j, l] = d_i g_jl and
    ddg[a, i, j, l] = d_a d_i g_jl: the parts g, d_i g, d_j g and d_i d_j g
    of `metric_matrix` at p + eps1 e_i + eps2 e_j, from one call that seeds
    every pair i <= j along a leading pair axis."""
    batch = np.broadcast_shapes(*map(np.shape, p))
    # the pairs (i, j): (0, 0) (0, 1) (0, 2) (1, 1) (1, 2) (2, 2)
    e_i, e_j = (np.eye(3)[list(ks)].T.reshape(3, 6, *(1,) * len(batch))
                for ks in ((0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2)))
    q = tuple(_Dual(_Dual(c, e_i[k]), _Dual(e_j[k], 0.0)) for k, c in enumerate(p))
    entries = np.empty((3, 3, 4, 6, *batch))  # [row, column, part, pair, *batch]
    for out, x in zip(entries.reshape(36, 6, *batch), (
            x for row in metric_matrix(space, q)
            for c in row for half in _parts(c) for x in _parts(half))):
        out[...] = x
    # [part, pair, row, column, *batch] with parts (g, d_i g, d_j g, d_i d_j g)
    parts = np.moveaxis(entries, (2, 3), (0, 1))
    # d_0 g from pair (0, 2), d_1 g from (1, 2), d_2 g from (2, 2)
    dg = np.stack((parts[1, 2], parts[1, 4], parts[2, 5]))
    ddg = parts[3][[[0, 1, 2], [1, 3, 4], [2, 4, 5]]]  # the pair {a, i}
    g = np.moveaxis(parts[0, 0], (0, 1), (-2, -1))
    det = np.linalg.det(g)
    require(abs(det) >= 1e-14, SingularMetric,
            lambda x, y, z, d: f"metric matrix singular at {(x, y, z)} "
            f"(det = {d})", *p, det)
    ginv = np.moveaxis(np.linalg.inv(g), (-2, -1), (0, 1))
    return ginv, dg, ddg, np.einsum("kl...,ijl...->kij...", ginv, _lowered(dg))


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
    # d_a Gamma^k_ij = g^kl d_a Gamma_ijl - g^kl (d_a g_lm) Gamma^m_ij
    dgamma = (np.einsum("kl...,aijl...->akij...", ginv, _lowered(ddg, 1))
              - np.einsum("kl...,alm...,mij...->akij...", ginv, dg, gamma))
    # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
    #           + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik,
    # the last term being the third with i and j swapped
    gg = np.einsum("lim...,mjk...->lijk...", gamma, gamma)
    return (np.einsum("iljk...->lijk...", dgamma)
            - np.einsum("jlik...->lijk...", dgamma)
            + gg - np.swapaxes(gg, 1, 2))


def curvature_fd(space: SpaceParams, p, v, w, z) -> Vec3:
    """R(V, W)Z at p via the coordinate path (any kappa)."""
    return _applied(riemann_coords(space, p), v, w, z)


def _applied(riem: np.ndarray, v, w, z) -> Vec3:
    """R(V, W)Z from Riem[l, i, j, k]."""
    vwz = (np.array(np.broadcast_arrays(*as_vec3(a))) for a in (v, w, z))
    return as_vec3(np.einsum("lijk...,i...,j...,k...->l...", riem, *vwz))


# ---- sectional curvature ----


def sectional_curvature(space: SpaceParams, p, v, w,
                        method: str = "closed") -> float:
    """Sectional curvature of span(v, w) at p.

    method = "closed" uses the kappa = 0 curvature tensor; method = "fd"
    uses the coordinate path and works for every kappa.  Raises
    DegeneratePlane when the plane's induced form is (numerically) null.
    """
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
    dual part of W(p + eps X), exact up to rounding.  The field must accept
    dual coordinates, which a field written with + - * / does."""
    w = field(tuple(_Dual(c, d)
                    for c, d in zip(as_vec3(p), as_vec3(direction))))
    return as_vec3([_parts(c)[1] for c in w])


def commutator_fd(field_v: Callable[[Vec3], Vec3],
                  field_w: Callable[[Vec3], Vec3], p) -> Vec3:
    """Lie bracket [V, W] at p from dual-number derivatives of the fields."""
    p = as_vec3(p)
    dv_w = directional_fd(field_w, p, as_vec3(field_v(p)))  # D_V W
    dw_v = directional_fd(field_v, p, as_vec3(field_w(p)))  # D_W V
    return sub3(dv_w, dw_v)
