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
there.  For every kappa, an independent finite-difference path (Christoffel
symbols and curvature from `metric_matrix` alone) provides a cross-check that
shares no code with the closed forms.

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
from .numeric import (Vec3, as_vec3, bilinear3, central_diff, lincomb3,
                      require, sub3)

# conformal denominator treated as singular below this magnitude
_CONFORMAL_TOL = 1e-12
# relative threshold for a degenerate tangent 2-plane
_PLANE_TOL = 1e-10
# finite-difference steps: first derivatives of the metric (pinned policy)
_FD1_SCALE = 1e-5
# outer step for nested second derivatives of the metric
_FD2_SCALE = 3e-4


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


# ---- finite-difference coordinate path (any kappa) ----


def _shifted(p: Vec3, i: int, t: float) -> Vec3:
    """p with coordinate i moved by t."""
    return tuple(c + t if k == i else c for k, c in enumerate(p))  # type: ignore[return-value]


def _fd_steps(p, scale: float) -> Vec3:
    return (max(scale, scale * abs(float(p[0]))),
            max(scale, scale * abs(float(p[1]))),
            max(scale, scale * abs(float(p[2]))))


def christoffel_coords(space: SpaceParams, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] at p by central differences.

    Consumes only `metric_matrix`; independent of every closed-form table.
    """
    p = as_vec3(p)
    g0 = np.array(metric_matrix(space, p))
    det = np.linalg.det(g0)
    if abs(det) < 1e-14:
        raise SingularMetric(f"metric matrix singular at {p} (det = {det})")
    ginv = np.linalg.inv(g0)
    steps = _fd_steps(p, _FD1_SCALE)
    dg = np.array([central_diff(
        lambda t, i=i: np.array(metric_matrix(space, _shifted(p, i, t))),
        steps[i]) for i in range(3)])
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij);
    # dg[i, j, l] = d_i g_jl, so the three terms are the transposes below.
    gamma = 0.5 * np.einsum(
        "kl,ijl->kij", ginv,
        dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))
    return gamma


def riemann_coords(space: SpaceParams, p) -> np.ndarray:
    """Curvature tensor Riem[l, i, j, k] = (R(d_i, d_j) d_k)^l at p, by
    nested central differences of `christoffel_coords` (works for any kappa).
    """
    p = as_vec3(p)
    gamma = christoffel_coords(space, p)
    steps = _fd_steps(p, _FD2_SCALE)
    # fourth-order stencil: the second-order truncation error grows with
    # the metric's third derivatives for large tau at nonzero kappa
    dgamma = np.array([central_diff(
        lambda t, i=i: christoffel_coords(space, _shifted(p, i, t)),
        steps[i], order=4) for i in range(3)])
    # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
    #           + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    return (np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
            + np.einsum("lim,mjk->lijk", gamma, gamma)
            - np.einsum("ljm,mik->lijk", gamma, gamma))


def curvature_fd(space: SpaceParams, p, v, w, z) -> Vec3:
    """R(V, W)Z at p via the finite-difference coordinate path (any kappa)."""
    riem = riemann_coords(space, p)
    v = np.asarray(as_vec3(v))
    w = np.asarray(as_vec3(w))
    z = np.asarray(as_vec3(z))
    out = np.einsum("lijk,i,j,k->l", riem, v, w, z)
    return (float(out[0]), float(out[1]), float(out[2]))


# ---- sectional curvature ----


def sectional_curvature(space: SpaceParams, p, v, w,
                        method: str = "closed") -> float:
    """Sectional curvature of span(v, w) at p.

    method = "closed" uses the kappa = 0 curvature tensor; method = "fd"
    uses the finite-difference path and works for every kappa.  Raises
    DegeneratePlane when the plane's induced form is (numerically) null.
    """
    v = as_vec3(v)
    w = as_vec3(w)
    g_vv = metric_eval(space, p, v, v)
    g_ww = metric_eval(space, p, w, w)
    g_vw = metric_eval(space, p, v, w)
    denom = g_vv * g_ww - g_vw * g_vw
    scale = max(1.0, abs(g_vv * g_ww), g_vw * g_vw)
    if abs(denom) < _PLANE_TOL * scale:
        raise DegeneratePlane(
            f"tangent plane at {tuple(p)} is degenerate (denominator {denom})")
    if method == "closed":
        rv = curvature(space, p, v, w, w)
    elif method == "fd":
        rv = curvature_fd(space, p, v, w, w)
    else:
        raise ValueError(f"unknown method {method!r}")
    return metric_eval(space, p, rv, v) / denom


# ---- generic finite-difference commutator of vector fields ----


def directional_fd(field: Callable[[Vec3], Vec3], p, direction,
                   step: float = 1e-6) -> Vec3:
    """Coordinate derivative of a vector field at p along `direction`, by
    central differences."""
    p = as_vec3(p)
    return central_diff(lambda t: as_vec3(field(
        (p[0] + t * direction[0], p[1] + t * direction[1],
         p[2] + t * direction[2]))), step)


def commutator_fd(field_v: Callable[[Vec3], Vec3],
                  field_w: Callable[[Vec3], Vec3],
                  p, step: float = 1e-6) -> Vec3:
    """Lie bracket [V, W] at p by central differences of the fields."""
    p = as_vec3(p)
    dv_w = directional_fd(field_w, p, as_vec3(field_v(p)), step)  # D_V W
    dw_v = directional_fd(field_v, p, as_vec3(field_w(p)), step)  # D_W V
    return sub3(dv_w, dw_v)
