"""Extrinsic and intrinsic geometry of immersed surface patches.

A :class:`SurfacePatch` wraps an immersion F(u, v) into the kappa = 0
ambient space.  Its jet (p, Fu, Fv, Fuu, Fuv, Fvv) comes from evaluating
`position` once on Taylor values of (u, v) (`numeric.Taylor`), exactly, at
every order, and the patch keeps its last one for the next call at the
same points.  Per sample this module computes the first fundamental form and
causal character epsilon (+1: timelike surface / spacelike unit normal; -1:
spacelike surface), the gauged unit normal N, the angle function nu = eps
g(N, E3), the tangent part T of E3 and J X = N ^ X, the shape operator S =
eps I^{-1} h from :func:`second_fundamental_form` (the first variation of
the metric along the normal, `_variation_shape`, is its cross-check), H =
trace(S)/2, and K by the extrinsic formula and, independently, by
Brioschi's formula on the Taylor coefficients of e, f and g.  A jet of
higher order carries Taylor values through the same formulas: the metric
and S then come with their partials.

Every function takes (u, v) as floats (one sample) or as equal-length 1-D
ndarrays (a batch, u-major on grids, so a failing guard names the first
failing (u, v)) and returns the same kind.  A :class:`GeometryReport` keeps
a grid's samples as columns and serializes them to CSV and JSON."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import ambient
from .ambient import SpaceParams
from .errors import (DegenerateAdaptedFrame, DegenerateInducedMetric,
                     DegenerateNormal, NonFiniteJet, OutOfDomain,
                     UnsupportedKappa)
from .numeric import (FLOAT_FORMAT, Taylor, Vec3, as_vec3, derivative,
                      finite, json_dumps, lincomb3, quiet, require, scale3,
                      select, solve2, sub3, truncated, value)

# |det I| below this is treated as a degenerate (null) patch
_DEGENERATE_DET_TOL = 1e-10
# |nu| below this at the gauge sample falls back to the component rule
_GAUGE_NU_TOL = 1e-10
# |g(T,T)| below this blocks the adapted basis
_ADAPTED_TOL = 1e-8
# evaluation slack beyond the declared domain
_DOMAIN_MARGIN = 1e-2


@dataclass(frozen=True)
class PatchJet:
    """Position and partials of the immersion at one sample, or at each
    sample of a batch (then every component is an array, or at order 3 a
    Taylor value: see `SurfacePatch.jet`)."""

    p: Vec3
    fu: Vec3
    fv: Vec3
    fuu: Vec3
    fuv: Vec3
    fvv: Vec3


#: the partials (variable indices) of the six jet fields
_JET_AXES = ((), (0,), (1,), (0, 0), (0, 1), (1, 1))
#: a! of the monomials of `numeric.Taylor`: d^a F / a! from the partials
_FACTORIALS = np.array((1.0, 1.0, 1.0, 2.0, 1.0, 2.0, 6.0, 2.0, 2.0, 6.0))


class SurfacePatch:
    """An immersed parametrized surface patch.
    position(u, v) returns the immersion point.  It must take Taylor values
    of (u, v): written with + - * / and numpy's functions, it does, and
    `jet` differentiates it exactly, up to `_DOMAIN_MARGIN` beyond the
    domain.  A position written with `math`'s functions raises TypeError."""

    def __init__(self, space: SpaceParams, position: Callable[[float, float], Vec3],
                 domain: tuple[tuple[float, float], tuple[float, float]],
                 *, name: str = "patch", family: Optional[dict] = None):
        (u0, u1), (v0, v1) = domain
        if not (u0 < u1 and v0 < v1):
            raise ValueError("domain must be a nondegenerate rectangle")
        self.space = space
        self.position = position
        self.domain = ((float(u0), float(u1)), (float(v0), float(v1)))
        self.name = name
        self.family = dict(family) if family else None
        self._gauge_sign: Optional[float] = None
        self._evaluations: dict = {}  # shared by the verify suites, per grid
        # the last jet of order 2 or 3 for a batch (True) and for a sample
        # (False): (key, order, jet)
        self._kept: dict = {}

    def center(self) -> tuple[float, float]:
        (u0, u1), (v0, v1) = self.domain
        return (0.5 * (u0 + u1), 0.5 * (v0 + v1))

    def jet(self, u, v, *, order: int = 2) -> PatchJet:
        """Position with first and second partials at (u, v): floats, or
        1-D arrays for a batch.  Raises NonFiniteJet where it overflows.
        `order` is the Taylor order of `position`: the point alone at 0, with
        the first partials at 1 (the other fields None), all six at 2; at 3
        each field is a Taylor value carrying its own partials up to third
        order in all.  The patch keeps its last jet of order 2 or 3, one for
        a batch and one for a sample, read-only, and returns it to a call at
        the same bits of (u, v): at order 2 an order-3 jet's values."""
        batch = isinstance(u, np.ndarray) or isinstance(v, np.ndarray)
        shape = None  # a sample's
        if batch:
            u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                       np.asarray(v, dtype=float))
            shape = u.shape
        if order >= 2:  # the bits of (u, v): -0.0 is not 0.0
            key = (shape, np.ascontiguousarray((u, v), dtype=float).tobytes())
            kept_key, kept_order, kept = self._kept.get(batch, (None, 0, None))
            if kept_key == key and kept_order >= order:
                return kept if kept_order == order else PatchJet(*[
                    _vec3(value(f), shape) for f in vars(kept).values()])
        (u0, u1), (v0, v1) = self.domain
        m = _DOMAIN_MARGIN
        require((u0 - m <= u) & (u <= u1 + m) & (v0 - m <= v) & (v <= v1 + m),
                OutOfDomain, lambda u, v: f"(u, v) = ({u}, {v}) outside "
                f"evaluable part of domain {self.domain} (margin {m})", u, v,
                at=(u, v))
        with np.errstate(all="ignore"):
            point = as_vec3(self.position(*Taylor.variables((u, v), order)))
        fields = _JET_AXES[:(1, 3, 6, 6)[order]]
        overflow = functools.partial(NonFiniteJet, family=self.family)
        require(finite(*point), overflow, lambda: f"jet of {self.name} (family "
                f"{self.family}) is not finite", at=(u, v))
        if order == 3:  # the point, then each partial of its three stacked
            taylor = [type(c) is Taylor for c in point]  # a number's are 0.0
            rows = Taylor.stack(point) if any(taylor) else None
            vecs = [point] + [tuple([
                Taylor(d.c[:, k], d.order, d.nvar) if t else 0.0
                for k, t in enumerate(taylor)]) for d in [
                rows and rows.partial(*axes) for axes in fields[1:]]]
        else:  # values: coefficient a times a!, floats for a sample
            n = len(fields)
            cols = [(c.c[:n].T * _FACTORIALS[:n]).T if isinstance(c, Taylor)
                    else [c] + [0.0] * (n - 1) for c in point]
            vecs = [_vec3([col[i] for col in cols], shape) for i in range(n)]
        if order < 2:
            return PatchJet(*vecs, *[None] * (6 - len(vecs)))
        j = PatchJet(*[tuple(map(_read_only, f)) for f in vecs])
        self._kept[batch] = (key, order, j)
        return j


def _vec3(xs, shape: Optional[tuple]) -> Vec3:
    """The components xs as a jet field: floats for a sample (`shape`
    None), arrays of `shape` for a batch."""
    if shape is None:
        return as_vec3(xs)
    return tuple([x if np.shape(x) == shape else
                  np.broadcast_to(np.asarray(x, dtype=float), shape) for x in xs])


def _read_only(x):
    """A view of the array x, or of a Taylor value's coefficients, that
    cannot be written; a number as it is."""
    if type(x) is Taylor:
        return Taylor(_read_only(x.c), x.order, x.nvar, x.axis)
    if isinstance(x, np.ndarray):
        x = x.view()
        x.flags.writeable = False
    return x


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


def induced_metric(patch: SurfacePatch, u, v) -> FirstFundamentalForm:
    """First fundamental form of the patch at (u, v)."""
    return _induced_from_jet(patch.space, patch.jet(u, v, order=1), (u, v))


def _induced_from_jet(space: SpaceParams, j: PatchJet,
                      at: tuple) -> FirstFundamentalForm:
    gm = ambient.metric_matrix(space, j.p)
    # g Fu and g Fv once: (e, f, g) = (Fu.gFu, Fu.gFv, Fv.gFv), the sums of
    # `bilinear3` in its order
    gu, gv = ([row[0] * w[0] + row[1] * w[1] + row[2] * w[2] for row in gm]
              for w in (j.fu, j.fv))
    form = FirstFundamentalForm(
        *[a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
          for a, b in ((j.fu, gu), (j.fu, gv), (j.fv, gv))], at)
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
    """Patch-level normal orientation, fixed once at the domain center:
    nu > 0 there when |nu| exceeds the gauge threshold, else the first
    frame component of N above the threshold in magnitude is positive."""
    if patch._gauge_sign is not None:
        return patch._gauge_sign
    u, v = patch.center()
    j = patch.jet(u, v)  # order 2: the centre sample's kept jet
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


def _sample(patch: SurfacePatch, u, v, order: int = 0) -> _Sample:
    """The sample bundle at (u, v), whose guards name those samples.  At
    `order` 1 it holds Taylor values of order 1, from an order-3 jet."""
    j = patch.jet(u, v, order=3 if order else 2)
    # every field cut to `order`, the order S gets from fuu
    return _jet_sample(patch, truncated(j, order) if order else j, (u, v))


def _jet_sample(patch: SurfacePatch, j: PatchJet, at: tuple) -> _Sample:
    """The sample bundle of the jet `j` taken at the samples `at`."""
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
    """Shape operator matrix in the tangent basis "coordinate" (d/du, d/dv)
    or "adapted-TJT" (T, JT), columns the images: S(basis_j) =
    sum_i entries[i][j] basis_i (arrays over a batch)."""

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


def _tangent_coefficients(space: SpaceParams, form: FirstFundamentalForm,
                          a: Vec3, b: Vec3, *wfs: Vec3) -> list:
    """Coefficients (c_u, c_v) with w = c_u Fu + c_v Fv for each tangent w of
    `wfs` in frame components (a, b: those of Fu, Fv): one 2x2 solve."""
    return solve2(form.e, form.f, form.f, form.g,
                  *[(ambient.frame_metric(space, wf, a),
                     ambient.frame_metric(space, wf, b)) for wf in wfs])


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
    """h(X, Y) = eps * g(ambient second derivative, N) on (d/du, d/dv),
    from the jet: S = eps I^{-1} h, which the metric-variation route
    (`_variation_shape`) cross-checks."""
    return _second_form(patch.space, _sample(patch, u, v))


def _second_form_shape(space: SpaceParams, s: _Sample
                       ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Shape-operator matrix S = eps I^{-1} h in the coordinate basis: from
    g(S X, Y) = g(ambient second derivative, N), column j solves
    I S(d_j) = eps h(., d_j)."""
    (h11, h12), (_, h22) = _second_form(space, s)
    form, e = s.form, s.eps
    e12 = e * h12
    c1, c2 = solve2(form.e, form.f, form.f, form.g, (e * h11, e12), (e12, e * h22))
    return ((c1[0], c2[0]), (c1[1], c2[1]))


def _variation_shape(space: SpaceParams, s: _Sample
                     ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Shape-operator matrix in the coordinate basis from the first
    variation of the induced metric along the normal (O'Neill,
    Semi-Riemannian Geometry, 1983): I_t = G(F + tN)(F_i + t N_i,
    F_j + t N_j) has I_0 = I and dI/dt = -2 eps h at t = 0, so S =
    eps I^{-1} h = -I^{-1} (dI/dt) / 2.  It reads F, F_i, N and N_i from
    the order-1 sample `s` and the metric matrix G alone, with no
    Christoffel symbol or connection term: the cross-check of
    :func:`second_fundamental_form`."""
    d = derivative
    p = s.jet.p
    n = ambient.from_frame_components(space, p, s.n)
    t, = Taylor.variables((np.zeros(np.shape(s.at[0])),), 1)
    moved = [[d(x, *i) + t * d(y, *i) for x, y in zip(p, n)]
             for i in ((), (0,), (1,))]  # F + tN and its partials
    i_t = _induced_from_jet(space, PatchJet(*moved, None, None, None), s.at)
    e, f, g = i_t.e, i_t.f, i_t.g
    r11, r12, r22 = (-0.5 * d(x, 0) for x in (e, f, g))
    c1, c2 = solve2(d(e), d(f), d(f), d(g), (r11, r12), (r12, r22))
    return ((c1[0], c2[0]), (c1[1], c2[1]))


def _adapted_frame(space: SpaceParams, s: _Sample
                   ) -> tuple[tuple[float, float], tuple[float, float], float]:
    """Coordinate coefficients of the adapted vectors T and JT, and g(T,T)."""
    t_frame = s.t_frame
    return (*_tangent_coefficients(space, s.form, s.a, s.b, t_frame,
                                   ambient.wedge_frame(space, s.n, t_frame)),
            ambient.frame_metric(space, t_frame, t_frame))


def _require_adapted(frame, at: tuple):
    """`frame`; raises DegenerateAdaptedFrame, naming the samples `at`,
    where its adapted basis cannot be built."""
    (t1, t2), (j1, j2), g_tt = frame
    require(abs(g_tt) >= _ADAPTED_TOL, DegenerateAdaptedFrame,
            lambda g: f"|g(T,T)| = {abs(g)} too small for the adapted basis",
            g_tt, at=at)
    require(t1 * j2 - j1 * t2 != 0.0, DegenerateAdaptedFrame,
            lambda: "adapted basis change is singular", at=at)
    return frame


def _adapted_entries(frame, m) -> tuple[float, float, float, float]:
    """Entries (a11, a12, a21, a22) of B^{-1} M B, where the columns of B
    are the adapted vectors (T, JT) of `frame` (from :func:`_adapted_frame`)
    in the coordinate tangent basis."""
    (t1, t2), (j1, j2), _ = frame
    det_b = t1 * j2 - j1 * t2
    mt1 = m[0][0] * t1 + m[0][1] * t2
    mt2 = m[1][0] * t1 + m[1][1] * t2
    mj1 = m[0][0] * j1 + m[0][1] * j2
    mj2 = m[1][0] * j1 + m[1][1] * j2
    return ((j2 * mt1 - j1 * mt2) / det_b, (j2 * mj1 - j1 * mj2) / det_b,
            (t1 * mt2 - t2 * mt1) / det_b, (t1 * mj2 - t2 * mj1) / det_b)


def shape_operator(patch: SurfacePatch, u, v,
                   basis: str = "coordinate") -> ShapeOperator2x2:
    """Shape operator matrix at (u, v) in the requested basis: S = eps I^{-1} h
    from the second fundamental form."""
    s = _sample(patch, u, v)
    m = _second_form_shape(patch.space, s)
    if basis == "coordinate":
        return ShapeOperator2x2(m[0][0], m[0][1], m[1][0], m[1][1], "coordinate")
    if basis == "adapted-TJT":
        frame = _require_adapted(_adapted_frame(patch.space, s), s.at)
        return ShapeOperator2x2(*_adapted_entries(frame, m), "adapted-TJT")
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
    """Gaussian curvature at (u, v): "extrinsic" is
    K = -tau^2 + eps*(det S + 4*delta*nu^2*tau^2) (kappa = 0 only);
    "intrinsic" that of the induced 2-metric alone (no normal, no S)."""
    space = patch.space
    if method == "extrinsic":
        if space.kappa != 0.0:
            raise UnsupportedKappa(
                "extrinsic curvature formula requires kappa = 0")
        s = _sample(patch, u, v)
        return _extrinsic_k(space, s, _second_form_shape(space, s))
    if method == "intrinsic":
        return _intrinsic_k(space, patch.jet(u, v, order=3), (u, v))
    raise ValueError(f"unknown gaussian-curvature method {method!r}")


def _intrinsic_k(space: SpaceParams, j: PatchJet, at: tuple) -> float:
    """Brioschi's K from the Taylor coefficients of (e, f, g), of order 2
    from the order-3 jet `j` at the samples `at`: no normal, no step."""
    form = _induced_from_jet(space, truncated(j, 2), at)
    d = derivative
    e, f, g = form.e, form.f, form.g
    return _brioschi(d(e), d(f), d(g), d(e, 0), d(e, 1), d(f, 0), d(f, 1),
                     d(g, 0), d(g, 1), d(e, 1, 1), d(f, 0, 1), d(g, 0, 0))


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
    """Per-sample geometry over a grid plus a summary.  `columns` holds one
    list per CSV column (u, v, nu, H, K_ext, K_int, eps, S11, S12, S21, S22)
    and per coordinate component of T, one entry a sample, u-major."""

    patch_name: str
    family: Optional[dict]
    basis: str
    grid: tuple[int, int]
    columns: tuple[list, ...]

    CSV_HEADER = "u,v,nu,H,K_ext,K_int,eps,S11,S12,S21,S22"
    #: one CSV row: `FLOAT_FORMAT` for each float, %d for eps
    CSV_ROW = ",".join([FLOAT_FORMAT] * 6 + ["%d"] + [FLOAT_FORMAT] * 4)

    @property
    def records(self) -> list[SampleRecord]:
        """The samples as records, built from the columns on each read."""
        return [SampleRecord(*row[:11], t_comps=row[11:])
                for row in zip(*self.columns)]

    def summary(self) -> dict:
        def stats(vals: list[float]) -> dict:
            lo, hi = min(vals), max(vals)
            return {"mean": sum(vals) / len(vals), "min": lo, "max": hi,
                    "range": hi - lo}

        _, _, nu, h_mean, k_ext, k_int, eps, *_, tx, ty, tz = self.columns
        return {
            "patch": self.patch_name,
            "family": self.family,
            "grid": {"nu": self.grid[0], "nv": self.grid[1]},
            "samples": len(nu),
            "s_basis": self.basis,
            "eps": sorted(set(eps)),
            "nu": stats(nu),
            "H": stats(h_mean),
            "K_ext": stats(k_ext),
            "K_int": stats(k_int),
            "max_gauss_residual": max(abs(i - e) for i, e in zip(k_int, k_ext)),
            "T_mean": [sum(t) / len(t) for t in (tx, ty, tz)],
        }

    def to_csv(self) -> str:
        # `CSV_ROW`'s bytes, each distinct value of a column formatted once;
        # 0.0 and -0.0 share a dict key but not a string, so zeros skip it
        cols = []
        for fmt, col in zip(self.CSV_ROW.split(","), self.columns[:11]):
            memo = {x: fmt % x for x in set(col)}
            cols.append([memo[x] if x else fmt % x for x in col])
        return "\n".join([self.CSV_HEADER] + [",".join(r) for r in zip(*cols)]) + "\n"

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
def geometry_report(patch: SurfacePatch, n_u: int, n_v: int) -> GeometryReport:
    """The per-sample geometry of an n_u x n_v grid, as one batch: S in the
    adapted (T, JT) basis when that exists at the domain center, else in
    the coordinate basis (the report's basis tag says which)."""
    u, v = grid_batch(*grid_points(patch.domain, n_u, n_v))
    cu, cv = patch.center()
    try:
        shape_operator(patch, cu, cv, basis="adapted-TJT")
        basis = "adapted-TJT"
    except DegenerateAdaptedFrame:
        basis = "coordinate"
    space = patch.space
    j = patch.jet(u, v, order=3)  # values: the samples; coefficients: K_int
    s = _jet_sample(patch, value(j), (u, v))
    m = _second_form_shape(space, s)
    if basis == "adapted-TJT":
        entries = _adapted_entries(
            _require_adapted(_adapted_frame(space, s), s.at), m)
    else:
        entries = (m[0][0], m[0][1], m[1][0], m[1][1])
    t_coords = ambient.from_frame_components(space, s.jet.p, s.t_frame)
    columns = (u, v, s.nu, 0.5 * (m[0][0] + m[1][1]), _extrinsic_k(space, s, m),
               _intrinsic_k(space, j, s.at), s.eps, *entries, *t_coords)
    return GeometryReport(patch.name, patch.family, basis, (n_u, n_v),
                          tuple([np.broadcast_to(c, u.shape).tolist()
                                 for c in columns]))
