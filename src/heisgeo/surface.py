"""Extrinsic and intrinsic geometry of immersed surface patches.

A :class:`SurfacePatch` wraps an immersion F(u, v) into the kappa = 0 ambient
space together with (optionally) one analytic jet callable that returns the
point and its first and second partials (p, Fu, Fv, Fuu, Fuv, Fvv) in one
call.  On top of the patch this module computes, per sample:

- the first fundamental form and the causal character epsilon
  (+1: timelike surface / spacelike unit normal; -1: spacelike surface),
- the oriented unit normal N with a deterministic patch-level gauge,
- the angle function  nu = epsilon * g(N, E3),
- the tangent projection T of E3 (E3 = T + nu*N) and the tangent rotation
  J X = N ^ X,
- the shape operator S X = -(ambient covariant derivative of N along X):
  on analytic-jet patches S = eps I^{-1} h from the analytic
  :func:`second_fundamental_form` (no finite differences); on
  finite-difference-jet patches the Weingarten route (finite differences of
  the normal field).  The route follows the patch's ``jet_source``, there is
  no option to switch it, and the Weingarten route is the independent
  cross-check of the analytic one,
- mean curvature H = trace(S)/2 and Gaussian curvature K by an extrinsic
  formula and, independently, from the induced metric alone (intrinsic).

Every function takes (u, v) as floats (one sample) or as equal-length 1-D
ndarrays (a batch of samples) and returns the same kind: on a batch each
scalar is an array and each vector a tuple of arrays.  Grids are evaluated as
one batch in u-major order, so a guard that fails names the first failing
(u, v) in that order.  Grid sweeps are collected into a
:class:`GeometryReport` that serializes to CSV (one row per sample) and a
JSON summary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import ambient
from .ambient import SpaceParams
from .errors import (
    DegenerateAdaptedFrame,
    DegenerateInducedMetric,
    DegenerateNormal,
    NonFiniteJet,
    OutOfDomain,
    UnsupportedKappa,
)
from .numeric import (
    Vec3,
    as_vec3,
    bilinear3,
    central_diff,
    central_partials,
    finite,
    fmt_float,
    json_dumps,
    lincomb3,
    quiet,
    require,
    scale3,
    select,
    solve2,
    sub3,
)

# |det I| below this is treated as a degenerate (null) patch
_DEGENERATE_DET_TOL = 1e-10
# |nu| below this at the gauge sample falls back to the component rule
_GAUGE_NU_TOL = 1e-10
# |g(T,T)| below this blocks the adapted basis
_ADAPTED_TOL = 1e-8
# evaluation slack beyond the declared domain for analytic patches
_ANALYTIC_MARGIN = 1e-2
# step for the Weingarten finite difference of the normal field
_WEINGARTEN_STEP = 1e-5
# step for second derivatives of the induced-metric fields (intrinsic K)
_INTRINSIC_STEP = 5e-4

@dataclass(frozen=True)
class PatchJet:
    """Position and partial derivatives of the immersion at one sample, or
    at each sample of a batch (then every component is an array)."""

    p: Vec3
    fu: Vec3
    fv: Vec3
    fuu: Vec3
    fuv: Vec3
    fvv: Vec3


class SurfacePatch:
    """An immersed parametrized surface patch.

    position(u, v) must return the immersion point.  `jet(u, v)`, when
    given, returns the six vectors (p, Fu, Fv, Fuu, Fuv, Fvv) in one call
    (jet_source == "analytic"); it must accept 1-D arrays (u, v) as well as
    floats, and may return constant components as numbers.  Without it the
    derivatives fall back to central differences of `position`
    (jet_source == "finite-difference"), which is called one point at a
    time, and evaluation is then restricted to the domain interior minus a
    2h stencil margin (no one-sided stencils).
    """

    def __init__(self, space: SpaceParams, position: Callable[[float, float], Vec3],
                 domain: tuple[tuple[float, float], tuple[float, float]],
                 *, jet: Optional[Callable[[float, float], tuple]] = None,
                 name: str = "patch", family: Optional[dict] = None,
                 fd_step: float = 1e-5):
        (u0, u1), (v0, v1) = domain
        if not (u0 < u1 and v0 < v1):
            raise ValueError("domain must be a nondegenerate rectangle")
        self.space = space
        self.position = position
        self.domain = ((float(u0), float(u1)), (float(v0), float(v1)))
        self._analytic_jet = jet
        self.name = name
        self.family = dict(family) if family else None
        self.fd_step = float(fd_step)
        self._gauge_sign: Optional[float] = None

    @property
    def jet_source(self) -> str:
        return ("finite-difference" if self._analytic_jet is None
                else "analytic")

    def center(self) -> tuple[float, float]:
        (u0, u1), (v0, v1) = self.domain
        return (0.5 * (u0 + u1), 0.5 * (v0 + v1))

    def _check_domain(self, u, v, at: tuple) -> None:
        (u0, u1), (v0, v1) = self.domain
        if self.jet_source == "analytic":
            m = -_ANALYTIC_MARGIN
        else:
            m = 2.0 * self.fd_step  # shrink: FD stencils stay inside
        require((u0 + m <= u) & (u <= u1 - m) & (v0 + m <= v) & (v <= v1 - m),
                OutOfDomain,
                lambda u, v: f"(u, v) = ({u}, {v}) outside evaluable part of "
                f"domain {self.domain} for {self.jet_source} jets", u, v,
                at=at)

    def jet(self, u, v, *, at: Optional[tuple] = None) -> PatchJet:
        """Position with first and second partials at (u, v): floats, or
        1-D arrays for a batch.  Raises NonFiniteJet where it overflows.

        Its guards name the samples `at` (default (u, v)); a stencil
        evaluation passes the samples its points are displaced from."""
        batch = isinstance(u, np.ndarray) or isinstance(v, np.ndarray)
        if batch:
            u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                       np.asarray(v, dtype=float))
        if at is None:
            at = (u, v)
        self._check_domain(u, v, at)
        overflow = functools.partial(NonFiniteJet, family=self.family)
        describe = (lambda: f"jet of {self.name} (family {self.family}) "
                    "is not finite")
        failed = 0  # the point being evaluated when OverflowError is raised
        try:
            with np.errstate(all="ignore"):
                if self._analytic_jet is not None:
                    raw = self._analytic_jet(u, v)
                elif batch:  # position may take floats only
                    rows = []
                    for failed, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
                        rows.append(self._fd_jet(a, b))
                    raw = np.array(rows).transpose(1, 2, 0)
                else:
                    raw = self._fd_jet(u, v)
        except OverflowError:
            require(np.arange(np.size(u)) != failed, overflow, describe, at=at)
        if batch:
            vecs = [tuple(np.broadcast_to(np.asarray(c, dtype=float), u.shape)
                          for c in vec) for vec in raw]
        else:
            vecs = [as_vec3(vec) for vec in raw]
        require(finite(*(c for vec in vecs for c in vec)), overflow, describe,
                at=at)
        return PatchJet(*vecs)

    def _fd_jet(self, u: float, v: float) -> tuple:
        pos = self.position
        return central_partials(lambda du, dv: as_vec3(pos(u + du, v + dv)),
                                self.fd_step)


# ---- first fundamental form ----


@dataclass(frozen=True)
class FirstFundamentalForm:
    """Induced metric in the (d/du, d/dv) basis plus causal classification."""

    e: float  # g(Fu, Fu); an array on a batch, as are f and g
    f: float  # g(Fu, Fv)
    g: float  # g(Fv, Fv)
    #: the samples' (u, v), which the epsilon guard names (None: unknown)
    at: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def det(self) -> float:
        return self.e * self.g - self.f * self.f

    def pair(self, a, b) -> float:
        """Induced inner product of tangent vectors given as (d/du, d/dv)
        coefficient pairs."""
        return (self.e * a[0] * b[0] + self.f * (a[0] * b[1] + a[1] * b[0])
                + self.g * a[1] * b[1])

    @property
    def epsilon(self) -> int:
        """Causal character of the unit normal: +1 spacelike normal
        (timelike surface, induced signature (1,1)), -1 timelike normal
        (spacelike surface, positive-definite induced metric)."""
        d = self.det
        require(abs(d) >= _DEGENERATE_DET_TOL, DegenerateInducedMetric,
                lambda d: f"induced metric determinant {d} below threshold", d,
                at=self.at)
        return _sign(-d)


def _sign(x):
    """+1 where x > 0, else -1 (ints; an int array on a batch)."""
    return select(x > 0.0, 1, -1)


def induced_metric(patch: SurfacePatch, u, v, *,
                   at: Optional[tuple] = None) -> FirstFundamentalForm:
    """First fundamental form of the patch at (u, v); its guards name the
    samples `at` (default (u, v))."""
    if at is None:
        at = (u, v)
    return _induced_from_jet(patch.space, patch.jet(u, v, at=at), at)


def _induced_from_jet(space: SpaceParams, j: PatchJet,
                      at: tuple) -> FirstFundamentalForm:
    gm = ambient.metric_matrix(space, j.p)
    form = FirstFundamentalForm(bilinear3(gm, j.fu, j.fu),
                                bilinear3(gm, j.fu, j.fv),
                                bilinear3(gm, j.fv, j.fv), at)
    size = abs(form.det)
    require((size >= _DEGENERATE_DET_TOL) & (size < float("inf")),
            DegenerateInducedMetric,
            lambda d: f"induced metric determinant {d} is non-finite or "
            "below threshold", form.det, at=at)
    return form


def causal_character(patch: SurfacePatch, u, v) -> int:
    """epsilon of the patch at (u, v)."""
    return induced_metric(patch, u, v).epsilon


# ---- sample bundle: everything computed at one (u, v) ----


@dataclass
class _Sample:
    """Internal per-sample scratch: jet, form, frame components, normal;
    for one sample or a batch."""

    jet: PatchJet
    form: FirstFundamentalForm
    a: Vec3  # frame components of Fu
    b: Vec3  # frame components of Fv
    n: Vec3  # frame components of the gauged unit normal
    eps: int
    nu: float
    at: tuple  # the (u, v) it was taken at, which guards name

    @property
    def t_frame(self) -> Vec3:
        """Frame components of T = E3 - nu N, the tangent part of E3."""
        return sub3((0.0, 0.0, 1.0), scale3(self.nu, self.n))


def _raw_normal(space: SpaceParams, j: PatchJet, form: FirstFundamentalForm,
                at: tuple) -> tuple[Vec3, Vec3, Vec3, int]:
    """Ungauged unit normal in frame components, plus tangent frame comps."""
    a = ambient.to_frame_components(space, j.p, j.fu)
    b = ambient.to_frame_components(space, j.p, j.fv)
    w = ambient.wedge_frame(space, a, b)
    n2 = ambient.frame_metric(space, w, w)  # equals -det(I)
    require(abs(n2) >= _DEGENERATE_DET_TOL, DegenerateNormal,
            lambda: "normal direction is null", at=at)
    n = scale3(1.0 / np.sqrt(abs(n2)), w)
    eps = _sign(n2)
    # both are sign(-det I); disagreement means numerical degeneracy
    require(eps == form.epsilon, DegenerateNormal,
            lambda: "normal causal character inconsistent", at=at)
    return a, b, n, eps


def _gauge_sign(patch: SurfacePatch) -> float:
    """Patch-level normal orientation, fixed once at the domain center.

    Rule: nu >= 0 at the center sample when |nu| exceeds the gauge
    threshold; otherwise the first frame component of N larger than the
    threshold in magnitude is made positive.
    """
    if patch._gauge_sign is not None:
        return patch._gauge_sign
    u, v = patch.center()
    j = patch.jet(u, v)
    form = _induced_from_jet(patch.space, j, (u, v))
    _, _, n, eps = _raw_normal(patch.space, j, form, (u, v))
    nu_raw = eps * ambient.frame_metric(patch.space, n, (0.0, 0.0, 1.0))
    if abs(nu_raw) > _GAUGE_NU_TOL:
        sign = 1.0 if nu_raw > 0.0 else -1.0
    else:
        sign = 1.0
        for comp in n:
            if abs(comp) > _GAUGE_NU_TOL:
                sign = 1.0 if comp > 0.0 else -1.0
                break
    patch._gauge_sign = sign
    return sign


def _sample(patch: SurfacePatch, u, v, at: Optional[tuple] = None) -> _Sample:
    """The sample bundle at (u, v); its guards name the samples `at`
    (default (u, v)), which a stencil point passes on from its centre."""
    if at is None:
        at = (u, v)
    j = patch.jet(u, v, at=at)
    form = _induced_from_jet(patch.space, j, at)
    a, b, n_raw, eps = _raw_normal(patch.space, j, form, at)
    n = scale3(_gauge_sign(patch), n_raw)
    nu = eps * ambient.frame_metric(patch.space, n, (0.0, 0.0, 1.0))
    return _Sample(j, form, a, b, n, eps, nu, at)


def unit_normal(patch: SurfacePatch, u, v) -> Vec3:
    """Gauged unit normal at (u, v) in coordinate components."""
    s = _sample(patch, u, v)
    return ambient.from_frame_components(patch.space, s.jet.p, s.n)


def angle_function(patch: SurfacePatch, u, v) -> float:
    """nu = epsilon * g(N, E3) at (u, v)."""
    return _sample(patch, u, v).nu


def tangent_part_T(patch: SurfacePatch, u, v) -> Vec3:
    """Tangential projection T of E3 (E3 = T + nu N), coordinate comps."""
    s = _sample(patch, u, v)
    return ambient.from_frame_components(patch.space, s.jet.p, s.t_frame)


def tangent_rotation_J(patch: SurfacePatch, u, v, x) -> Vec3:
    """J X = N ^ X: rotation of the tangent plane, coordinate comps."""
    s = _sample(patch, u, v)
    xf = ambient.to_frame_components(patch.space, s.jet.p, as_vec3(x))
    jx = ambient.wedge_frame(patch.space, s.n, xf)
    return ambient.from_frame_components(patch.space, s.jet.p, jx)


# ---- shape operator ----


@dataclass(frozen=True)
class ShapeOperator2x2:
    """Shape operator matrix in a declared tangent basis.

    Columns are images: S(basis_j) = sum_i entries[i][j] * basis_i.
    basis is "coordinate" (d/du, d/dv) or "adapted-TJT" (T, JT).  On a batch
    of samples each entry (and trace, det) is an array over the batch.
    """

    s11: float
    s12: float
    s21: float
    s22: float
    basis: str

    @property
    def trace(self) -> float:
        return self.s11 + self.s22

    @property
    def det(self) -> float:
        return self.s11 * self.s22 - self.s12 * self.s21

    def entries(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.s11, self.s12), (self.s21, self.s22))


def _tangent_coefficients(space: SpaceParams, s: _Sample, wf: Vec3) -> tuple[float, float]:
    """Coefficients (c_u, c_v) with w = c_u Fu + c_v Fv, for tangent w
    given in frame components."""
    rhs1 = ambient.frame_metric(space, wf, s.a)
    rhs2 = ambient.frame_metric(space, wf, s.b)
    form = s.form
    return solve2(form.e, form.f, form.f, form.g, rhs1, rhs2)


def _project_tangent(space: SpaceParams, s: _Sample, wf: Vec3) -> Vec3:
    """Remove the normal component of a frame-components vector."""
    coeff = s.eps * ambient.frame_metric(space, wf, s.n)
    return sub3(wf, scale3(coeff, s.n))


def _weingarten_shape(patch: SurfacePatch, u, v, s: _Sample
                      ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Shape-operator matrix in the coordinate basis by the Weingarten route:
    S(Fu), S(Fv) from central differences of the normal field plus ambient
    connection corrections.  It serves finite-difference-jet patches and is
    the independent cross-check of the analytic route."""
    space = patch.space
    dn_u = central_diff(lambda t: _sample(patch, u + t, v, s.at).n,
                        _WEINGARTEN_STEP)
    dn_v = central_diff(lambda t: _sample(patch, u, v + t, s.at).n,
                        _WEINGARTEN_STEP)
    cov_u = lincomb3([(1.0, dn_u),
                      (1.0, ambient.frame_connection_correction(space, s.a, s.n))])
    cov_v = lincomb3([(1.0, dn_v),
                      (1.0, ambient.frame_connection_correction(space, s.b, s.n))])
    c1 = _tangent_coefficients(
        space, s, _project_tangent(space, s, scale3(-1.0, cov_u)))
    c2 = _tangent_coefficients(
        space, s, _project_tangent(space, s, scale3(-1.0, cov_v)))
    return ((c1[0], c2[0]), (c1[1], c2[1]))


def _second_form(space: SpaceParams, s: _Sample
                 ) -> tuple[tuple[float, float], tuple[float, float]]:
    """h(X, Y) = eps * g(ambient second derivative, N) on (d/du, d/dv), from
    the sample's jet alone (no finite differences)."""
    j = s.jet
    tau = space.tau
    x, y = j.p[0], j.p[1]

    def cov_second(dp: Vec3, dpf: Vec3, w: Vec3, wf: Vec3, dw: Vec3) -> Vec3:
        # frame components of the ambient covariant derivative of the
        # surface field with coordinate components w(t) (frame components
        # wf), derivative dw(t), along a curve with velocity dp (frame
        # components dpf)
        wf_t = (dw[0], dw[1],
        dw[2] + tau * (dp[1] * w[0] + y * dw[0] - dp[0] * w[1] - x * dw[1]))
        return lincomb3([(1.0, wf_t),
                 (1.0, ambient.frame_connection_correction(space, dpf, wf))])

    fu, fv, a, b = j.fu, j.fv, s.a, s.b
    e = s.eps
    h11 = e * ambient.frame_metric(space, cov_second(fu, a, fu, a, j.fuu), s.n)
    h12 = e * ambient.frame_metric(space, cov_second(fu, a, fv, b, j.fuv), s.n)
    h22 = e * ambient.frame_metric(space, cov_second(fv, b, fv, b, j.fvv), s.n)
    return ((h11, h12), (h12, h22))


def second_fundamental_form(patch: SurfacePatch, u, v
                            ) -> tuple[tuple[float, float], tuple[float, float]]:
    """h(X, Y) = eps * g(ambient-second-derivative, N) on (d/du, d/dv).

    Computed from the jet with no finite differences.  On analytic-jet
    patches the shape operator is S = eps I^{-1} h from this form; the
    Weingarten route is its cross-check.
    """
    return _second_form(patch.space, _sample(patch, u, v))


def _second_form_shape(space: SpaceParams, s: _Sample
                       ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Shape-operator matrix S = eps I^{-1} h in the coordinate basis: from
    g(S X, Y) = g(ambient second derivative, N), column j solves
    I S(d_j) = eps h(., d_j)."""
    (h11, h12), (_, h22) = _second_form(space, s)
    form, e = s.form, s.eps
    c1 = solve2(form.e, form.f, form.f, form.g, e * h11, e * h12)
    c2 = solve2(form.e, form.f, form.f, form.g, e * h12, e * h22)
    return ((c1[0], c2[0]), (c1[1], c2[1]))


def _coordinate_shape(patch: SurfacePatch, u, v, s: _Sample
                      ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Shape-operator matrix in the coordinate basis (d/du, d/dv): m[i][j]
    is coefficient i of S(d_j).  Analytic-jet patches take the second form
    (no finite differences); finite-difference-jet patches take the
    Weingarten route, which is more accurate on their differenced second
    partials."""
    if patch.jet_source == "analytic":
        return _second_form_shape(patch.space, s)
    return _weingarten_shape(patch, u, v, s)


def _adapted_frame(space: SpaceParams, s: _Sample
                   ) -> tuple[tuple[float, float], tuple[float, float], float]:
    """Coordinate coefficients of the adapted vectors T and JT, and g(T,T)."""
    t_frame = s.t_frame
    g_tt = ambient.frame_metric(space, t_frame, t_frame)
    require(abs(g_tt) >= _ADAPTED_TOL, DegenerateAdaptedFrame,
            lambda g: f"|g(T,T)| = {abs(g)} too small for the adapted basis",
            g_tt, at=s.at)
    return (_tangent_coefficients(space, s, t_frame),
            _tangent_coefficients(
                space, s, ambient.wedge_frame(space, s.n, t_frame)),
            g_tt)


def _adapted_entries(frame, m, at: Optional[tuple] = None
                     ) -> tuple[float, float, float, float]:
    """Entries (a11, a12, a21, a22) of B^{-1} M B, where the columns of B
    are the adapted vectors (T, JT) of `frame` (from :func:`_adapted_frame`)
    in the coordinate tangent basis; `at` is the samples' (u, v)."""
    (t1, t2), (j1, j2), _ = frame
    det_b = t1 * j2 - j1 * t2
    require(det_b != 0.0, DegenerateAdaptedFrame,
            lambda: "adapted basis change is singular", at=at)
    mt1 = m[0][0] * t1 + m[0][1] * t2
    mt2 = m[1][0] * t1 + m[1][1] * t2
    mj1 = m[0][0] * j1 + m[0][1] * j2
    mj2 = m[1][0] * j1 + m[1][1] * j2
    return ((j2 * mt1 - j1 * mt2) / det_b, (j2 * mj1 - j1 * mj2) / det_b,
            (t1 * mt2 - t2 * mt1) / det_b, (t1 * mj2 - t2 * mj1) / det_b)


def shape_operator(patch: SurfacePatch, u, v,
                   basis: str = "coordinate") -> ShapeOperator2x2:
    """Shape operator matrix at (u, v) in the requested basis: S = eps I^{-1} h
    from the second fundamental form on analytic-jet patches, the Weingarten
    route (finite differences of the normal field) on
    finite-difference-jet patches."""
    s = _sample(patch, u, v)
    m = _coordinate_shape(patch, u, v, s)
    if basis == "coordinate":
        return ShapeOperator2x2(m[0][0], m[0][1], m[1][0], m[1][1], "coordinate")
    if basis == "adapted-TJT":
        return ShapeOperator2x2(
            *_adapted_entries(_adapted_frame(patch.space, s), m, s.at),
            "adapted-TJT")
    raise ValueError(f"unknown shape-operator basis {basis!r}")


def mean_curvature(patch: SurfacePatch, u, v) -> float:
    """H = trace(S) / 2 (basis independent)."""
    return 0.5 * shape_operator(patch, u, v).trace


# ---- Gaussian curvature ----


def _extrinsic_k(space: SpaceParams, s: _Sample, m) -> float:
    """K = -tau^2 + eps*(det S + 4*delta*nu^2*tau^2), S the coordinate matrix."""
    det_s = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    tau2 = space.tau * space.tau
    return -tau2 + s.eps * (det_s + 4.0 * space.delta * s.nu * s.nu * tau2)


def _brioschi(e: float, f: float, g: float,
              eu: float, ev: float, fu: float, fv: float, gu: float, gv: float,
              evv: float, fuv: float, guu: float) -> float:
    """Gaussian curvature of a 2-metric from its coefficient jets
    (signature-agnostic determinant formula)."""
    det = e * g - f * f
    m1 = ((-0.5 * evv + fuv - 0.5 * guu, 0.5 * eu, fu - 0.5 * ev),
          (fv - 0.5 * gu, e, f),
          (0.5 * gv, f, g))
    m2 = ((0.0, 0.5 * ev, 0.5 * gu),
          (0.5 * ev, e, f),
          (0.5 * gu, f, g))

    def det3(m) -> float:
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    return (det3(m1) - det3(m2)) / (det * det)


def gaussian_curvature(patch: SurfacePatch, u, v,
                       method: str = "extrinsic") -> float:
    """Gaussian curvature at (u, v).

    method = "extrinsic": K = -tau^2 + eps*(det S + 4*delta*nu^2*tau^2),
    valid on the kappa = 0 ambient space.
    method = "intrinsic": curvature of the induced 2-metric from finite
    differences of its coefficients alone (independent of the normal and
    shape operator).
    """
    space = patch.space
    if method == "extrinsic":
        if space.kappa != 0.0:
            raise UnsupportedKappa(
                "extrinsic curvature formula requires kappa = 0")
        s = _sample(patch, u, v)
        return _extrinsic_k(space, s, _coordinate_shape(patch, u, v, s))
    if method == "intrinsic":
        return _intrinsic_k(patch, u, v)
    raise ValueError(f"unknown gaussian-curvature method {method!r}")


def _intrinsic_k(patch: SurfacePatch, u, v) -> float:
    def coeffs(du: float, dv: float) -> tuple[float, float, float]:
        # one metric-only batch per stencil offset; guards name (u, v)
        form = induced_metric(patch, u + du, v + dv, at=(u, v))
        return form.e, form.f, form.g

    # components (e, f, g) of each partial
    c0, cu, cv, cuu, cuv, cvv = central_partials(coeffs, _INTRINSIC_STEP)
    return _brioschi(*c0, cu[0], cv[0], cu[1], cv[1], cu[2], cv[2],
                     cvv[0], cuv[1], cuu[2])


# ---- grid report ----


@dataclass(frozen=True)
class SampleRecord:
    u: float
    v: float
    nu: float
    h_mean: float
    k_ext: float
    k_int: float
    eps: int
    s11: float
    s12: float
    s21: float
    s22: float
    t_comps: Vec3


@dataclass
class GeometryReport:
    """Per-sample geometry over a grid plus a summary."""

    patch_name: str
    family: Optional[dict]
    basis: str
    grid: tuple[int, int]
    records: list[SampleRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    CSV_HEADER = "u,v,nu,H,K_ext,K_int,eps,S11,S12,S21,S22"

    def summary(self) -> dict:
        def stats(vals: list[float]) -> dict:
            lo, hi = min(vals), max(vals)
            return {"mean": sum(vals) / len(vals), "min": lo, "max": hi,
                    "range": hi - lo}

        recs = self.records
        out = {
            "patch": self.patch_name,
            "family": self.family,
            "grid": {"nu": self.grid[0], "nv": self.grid[1]},
            "samples": len(recs),
            "s_basis": self.basis,
            "eps": sorted({r.eps for r in recs}),
            "nu": stats([r.nu for r in recs]),
            "H": stats([r.h_mean for r in recs]),
            "K_ext": stats([r.k_ext for r in recs]),
            "K_int": stats([r.k_int for r in recs]),
            "max_gauss_residual": max(abs(r.k_int - r.k_ext) for r in recs),
            "T_mean": [sum(r.t_comps[i] for r in recs) / len(recs)
                       for i in range(3)],
        }
        out.update(self.metadata)
        return out

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(",".join([
                fmt_float(r.u), fmt_float(r.v), fmt_float(r.nu),
                fmt_float(r.h_mean), fmt_float(r.k_ext), fmt_float(r.k_int),
                str(r.eps),
                fmt_float(r.s11), fmt_float(r.s12),
                fmt_float(r.s21), fmt_float(r.s22),
            ]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json_dumps(self.summary())


def grid_points(domain: tuple[tuple[float, float], tuple[float, float]],
                n_u: int, n_v: int) -> tuple[list[float], list[float]]:
    """Uniform inclusive grid over the domain."""
    (u0, u1), (v0, v1) = domain
    us = [u0 + (u1 - u0) * i / (n_u - 1) for i in range(n_u)]
    vs = [v0 + (v1 - v0) * j / (n_v - 1) for j in range(n_v)]
    return us, vs


def grid_batch(us: list[float], vs: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Every (u, v) of the grid us x vs as one batch, u-major."""
    return np.repeat(us, len(vs)), np.tile(vs, len(us))


@quiet
def geometry_report(patch: SurfacePatch, n_u: int, n_v: int,
                    *, metadata: Optional[dict] = None) -> GeometryReport:
    """Sweep an n_u x n_v grid, as one batch, and collect the per-sample
    geometry.

    The shape operator is reported in the adapted (T, JT) basis when it is
    constructible at the domain center, otherwise in the coordinate basis;
    the choice is recorded in the report's basis tag.  A failing guard names
    the first failing sample in u-major order.
    """
    u, v = grid_batch(*grid_points(patch.domain, n_u, n_v))
    cu, cv = patch.center()
    try:
        shape_operator(patch, cu, cv, basis="adapted-TJT")
        basis = "adapted-TJT"
    except DegenerateAdaptedFrame:
        basis = "coordinate"
    space = patch.space
    s = _sample(patch, u, v)
    m = _coordinate_shape(patch, u, v, s)
    if basis == "adapted-TJT":
        entries = _adapted_entries(_adapted_frame(space, s), m, s.at)
    else:
        entries = (m[0][0], m[0][1], m[1][0], m[1][1])
    t_coords = ambient.from_frame_components(space, s.jet.p, s.t_frame)
    columns = (u, v, s.nu, 0.5 * (m[0][0] + m[1][1]), _extrinsic_k(space, s, m),
               _intrinsic_k(patch, u, v), s.eps, *entries)
    rows = zip(*(np.broadcast_to(c, u.shape).tolist() for c in columns))
    t_rows = zip(*(np.broadcast_to(c, u.shape).tolist() for c in t_coords))
    return GeometryReport(patch.name, patch.family, basis, (n_u, n_v),
                          records=[SampleRecord(*row, t_comps=t)
                                   for row, t in zip(rows, t_rows)],
                          metadata=dict(metadata or {}))
