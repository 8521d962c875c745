"""Generators for the classified constant-angle surface families.

Three constructors cover the classification on the kappa = 0 ambient space:

- ``make_minimal_plane``: the flat minimal vertical planes (angle function
  identically zero, H = 0),
- ``make_cmc_cylinder``: the flat constant-mean-curvature vertical cylinders
  (angle function identically zero, H constant and nonzero),
- ``make_helix_surface``: the two constant-angle families with nonzero angle
  function (delta = +1 only), built from profile functions (f1, f2, f3) that
  are either closed forms (constant/linear eta) or Gauss-Legendre quadrature
  tables with dense output (`numeric.CumulativeIntegral`).  The profile
  and slope formulas (f1, f2, f3, eta, eta', f1', f2', f1'', f2'') and the
  patch jets take a float (one sample) or an ndarray (a batch of samples,
  or the table build's blocks).

Every constructor returns an analytic-jet :class:`~heisgeo.surface.SurfacePatch`
carrying a serializable family descriptor.  Each family writes its immersion
once, as a jet callable returning (p, Fu, Fv, Fuu, Fuv, Fvv); the patch's
position is the first entry of that jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .ambient import SpaceParams
from .errors import (
    ConfigError,
    InvalidCombination,
    InvalidParameterDomain,
    QuadratureFailure,
    UnknownFamily,
)
from .numeric import CumulativeIntegral, Vec3, central_diff
from .surface import SurfacePatch

Domain = tuple[tuple[float, float], tuple[float, float]]

#: default parameter rectangle for generated patches
DEFAULT_DOMAIN: Domain = ((-1.2, 1.2), (-1.2, 1.2))
#: extra tabulated v-range beyond the declared domain (stencil headroom)
_PROFILE_MARGIN = 0.06
#: node spacing of quadrature dense-output tables
_TABLE_SPACING = 1e-3
#: absolute tolerance of the adaptive quadrature over the tabulated range
_QUADRATURE_TOL = 1e-10
#: timelike angle degeneracy threshold (both sin and cos must clear it)
_TIMELIKE_ANGLE_TOL = 1e-8

_ETA_KINDS = ("constant", "linear", "polynomial", "sinusoidal")
_MAX_POLY_DEGREE = 6


# The profile formulas and jets take a float (math) or an ndarray (numpy,
# elementwise: batches of samples and the quadrature tables), chosen by the
# argument's type.
def _lib(v):
    return np if isinstance(v, np.ndarray) else math


def _const(value: float, v):
    return np.full_like(v, value) if isinstance(v, np.ndarray) else value


# ---- eta presets ----


@dataclass(frozen=True)
class EtaSpec:
    """Preset slope function eta(v) entering the helix profile equations.

    kinds and coefficient conventions:
      constant    [k]              -> k
      linear      [c0, c1]         -> c0 + c1*v
      polynomial  [c0, ..., cn]    -> sum ci * v^i   (n <= 6)
      sinusoidal  [amp, freq, phase] -> amp * sin(freq*v + phase)
    """

    kind: str
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _ETA_KINDS:
            raise InvalidParameterDomain(
                f"unknown eta kind {self.kind!r}; expected one of {_ETA_KINDS}")
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise InvalidParameterDomain("eta coefficients must be finite")
        n = len(coeffs)
        if self.kind == "constant" and n != 1:
            raise InvalidParameterDomain("constant eta takes exactly [k]")
        if self.kind == "linear" and n != 2:
            raise InvalidParameterDomain("linear eta takes exactly [c0, c1]")
        if self.kind == "polynomial" and not 1 <= n <= _MAX_POLY_DEGREE + 1:
            raise InvalidParameterDomain(
                f"polynomial eta takes 1..{_MAX_POLY_DEGREE + 1} coefficients")
        if self.kind == "sinusoidal" and n != 3:
            raise InvalidParameterDomain(
                "sinusoidal eta takes exactly [amp, freq, phase]")

    def __call__(self, v):
        """eta at a float v, or elementwise at an ndarray v."""
        c = self.coefficients
        if self.kind == "constant":
            return _const(c[0], v)
        if self.kind == "linear":
            return c[0] + c[1] * v
        if self.kind == "polynomial":
            acc = 0.0
            for coeff in reversed(c):
                acc = acc * v + coeff
            return acc
        return c[0] * _lib(v).sin(c[1] * v + c[2])

    def derivative(self, v):
        """eta' at a float v, or elementwise at an ndarray v."""
        c = self.coefficients
        if self.kind == "constant":
            return _const(0.0, v)
        if self.kind == "linear":
            return _const(c[1], v)
        if self.kind == "polynomial":
            acc = _const(0.0, v)
            for i in range(len(c) - 1, 0, -1):
                acc = acc * v + i * c[i]
            return acc
        return c[0] * c[1] * _lib(v).cos(c[1] * v + c[2])

    def as_dict(self) -> dict:
        return {"kind": self.kind, "coefficients": list(self.coefficients)}


def _eta_from_any(eta) -> EtaSpec:
    if eta is None:
        return EtaSpec("constant", (0.0,))
    if isinstance(eta, EtaSpec):
        return eta
    if isinstance(eta, dict):
        try:
            return EtaSpec(str(eta["kind"]), tuple(eta["coefficients"]))
        except KeyError as exc:
            raise ConfigError(f"eta spec missing field {exc}") from exc
    raise ConfigError(f"cannot interpret eta spec {eta!r}")


# ---- helix profile ----


@dataclass(frozen=True)
class HelixProfile:
    """Parameters of a constant-angle family with nonzero angle function.

    causal selects the branch: "spacelike" (angle function sinh(theta),
    theta > 0) or "timelike" (angle function sin(theta)).  c is the
    integration constant of the phase; eta the slope preset.
    The underlying ambient space has delta = +1.
    """

    causal: str
    tau: float
    theta: float
    c: float = 0.0
    eta: EtaSpec = field(default_factory=lambda: EtaSpec("constant", (0.0,)))

    def __post_init__(self) -> None:
        if self.causal not in ("spacelike", "timelike"):
            raise InvalidParameterDomain(
                f"causal must be 'spacelike' or 'timelike', got {self.causal!r}")
        if not (math.isfinite(self.tau) and self.tau != 0.0):
            raise InvalidParameterDomain("tau must be finite and nonzero")
        if not math.isfinite(self.theta) or not math.isfinite(self.c):
            raise InvalidParameterDomain("theta and c must be finite")
        if self.causal == "spacelike":
            if self.theta <= 0.0:
                raise InvalidParameterDomain(
                    "spacelike branch needs theta > 0 (nonzero angle function)")
        else:
            if (abs(math.sin(self.theta)) < _TIMELIKE_ANGLE_TOL
                    or abs(math.cos(self.theta)) < _TIMELIKE_ANGLE_TOL):
                raise InvalidParameterDomain(
                    "timelike branch needs sin(theta) and cos(theta) "
                    "bounded away from 0")
        object.__setattr__(self, "eta", _eta_from_any(self.eta))

    @property
    def nu_value(self) -> float:
        """The constant angle function of the generated surface (gauge nu>=0)."""
        if self.causal == "spacelike":
            return math.sinh(self.theta)
        return math.sin(self.theta)

    @property
    def slope_scale(self) -> float:
        """cosh(theta) (spacelike) or cos(theta) (timelike): the scale of
        the profile derivatives f1', f2'."""
        if self.causal == "spacelike":
            return math.cosh(self.theta)
        return math.cos(self.theta)

    @property
    def constraint_target(self) -> float:
        """Required constant value of f1'^2 - f2'^2."""
        m = self.slope_scale
        return m * m if self.causal == "spacelike" else -m * m

    def as_dict(self) -> dict:
        return {"causal": self.causal, "tau": self.tau, "theta": self.theta,
                "c": self.c, "eta": self.eta.as_dict()}


@dataclass
class ProfileFunctions:
    """The profile triple (f1, f2, f3) with first/second derivative access.

    Satisfies (to quadrature tolerance):
      spacelike: f1'^2 - f2'^2 = cosh(theta)^2
      timelike:  f1'^2 - f2'^2 = -cos(theta)^2
      both:      f3' = tau * (f1*f2' - f2*f1')

    `slopes(v)` returns (f1', f2', f1'', f2'') from one eta, one eta', one
    g1 and one g2.  `jet(v)` returns all nine values at v from one lookup
    per table and one `slopes` call; `df3` and `d2f3` read it.
    """

    profile: HelixProfile
    v_range: tuple[float, float]
    anchor: float
    source: str  # "closed-form" | "quadrature"
    f1: Callable[[float], float]
    f2: Callable[[float], float]
    f3: Callable[[float], float]
    slopes: Callable[[float], tuple[float, float, float, float]]

    def jet(self, v) -> tuple[float, ...]:
        """(f1, f2, f3, f1', f2', f3', f1'', f2'', f3'') at v (a float or
        an ndarray)."""
        p1, p2, p3 = self.f1(v), self.f2(v), self.f3(v)
        q1, q2, r1, r2 = self.slopes(v)
        tau = self.profile.tau
        # f3'' = d/dv of tau*(f1 f2' - f2 f1'); the f1'f2' cross terms cancel
        return (p1, p2, p3, q1, q2, tau * (p1 * q2 - p2 * q1),
                r1, r2, tau * (p1 * r2 - p2 * r1))

    def df1(self, v: float) -> float:
        return self.slopes(v)[0]

    def df2(self, v: float) -> float:
        return self.slopes(v)[1]

    def df3(self, v: float) -> float:
        return self.jet(v)[5]

    def d2f3(self, v: float) -> float:
        return self.jet(v)[8]


def _slope_branch(profile: HelixProfile) -> tuple[str, str, float, float]:
    """(g1, g2, k1, shift) with f1' = k1 g1(s) and f2' = m g2(s) at
    s = eta + shift; g1 and g2 name the hyperbolic functions."""
    m = profile.slope_scale
    if profile.causal == "spacelike":
        return "cosh", "sinh", m, profile.c
    return "sinh", "cosh", -m, -profile.c


def _slope_function(profile: HelixProfile):
    """slopes(v) = (f1', f2', f1'', f2'') in closed form for any eta, at a
    float or elementwise at an ndarray."""
    eta = profile.eta
    m = profile.slope_scale
    name1, name2, k1, shift = _slope_branch(profile)
    pairs = {lib: (getattr(lib, name1), getattr(lib, name2))
             for lib in (math, np)}

    def slopes(v):
        g1, g2 = pairs[_lib(v)]
        s = eta(v) + shift
        a, b = g1(s), g2(s)
        e = eta.derivative(v)
        return k1 * a, m * b, k1 * b * e, m * a * e

    return slopes


def _sinhc_minus_one(x):
    """sinh(x)/x - 1 without cancellation at small x (float or array)."""
    # the series to x^8; the next term is below 2e-15 of the first
    x2 = x * x
    series = x2 / 6.0 * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0
                                            * (1.0 + x2 / 72.0)))
    if not isinstance(x, np.ndarray):
        return series if abs(x) < 0.1 else math.sinh(x) / x - 1.0
    big = abs(x) >= 0.1
    series[big] = np.sinh(x[big]) / x[big] - 1.0
    return series


def build_profile(profile: HelixProfile,
                  v_range: tuple[float, float],
                  *, force_quadrature: bool = False) -> ProfileFunctions:
    """Construct (f1, f2, f3) on v_range with f_i(anchor) = 0.

    Constant and linear eta take the closed-form path; polynomial and
    sinusoidal eta integrate f1', f2' into Gauss-Legendre dense-output
    tables (`numeric.CumulativeIntegral`), then integrate f3' from the
    tabulated f1, f2 on the same nodes.  The anchor is 0 when the range
    contains it, else the lower endpoint (the free initial conditions
    correspond to ambient translations).
    """
    lo, hi = float(v_range[0]), float(v_range[1])
    if not lo < hi:
        raise InvalidParameterDomain("profile v_range must be nondegenerate")
    anchor = 0.0 if lo <= 0.0 <= hi else lo
    slopes = _slope_function(profile)
    tau = profile.tau
    m = profile.slope_scale
    eta = profile.eta

    closed = not force_quadrature and eta.kind in ("constant", "linear")
    if closed and eta.kind == "linear" and eta.coefficients[1] != 0.0:
        # linear eta with nonzero slope: with s(v) = c1 v + s0, f1 and f2 are
        # k1 g1(s), m g2(s) integrated, i.e. differences of g2 and g1 over
        # [s(a), s(v)], written as products so that no digits cancel as
        # c1 -> 0: g(A) - g(B) = 2 g'((A+B)/2) sinh((A-B)/2) for g = sinh,
        # cosh.  So f_i(v) = f_i'((v+a)/2) * 2 sinh(c1 (v-a)/2) / c1.
        c1 = eta.coefficients[1]
        name1, name2, k1, shift = _slope_branch(profile)
        s0 = eta.coefficients[0] + shift

        def chord(v):
            return 2.0 * _lib(v).sinh(0.5 * c1 * (v - anchor)) / c1

        def f1(v):
            g1 = getattr(_lib(v), name1)
            return k1 * g1(c1 * (0.5 * (v + anchor)) + s0) * chord(v)

        def f2(v):
            g2 = getattr(_lib(v), name2)
            return m * g2(c1 * (0.5 * (v + anchor)) + s0) * chord(v)

        def f3(v):
            # integral of tau*(f1 f2' - f2 f1') = tau*(m^2/c1)*(cosh(c1(v-a))-1)
            w = v - anchor
            return tau * (m * m) * w * _sinhc_minus_one(c1 * w) / c1

        return ProfileFunctions(profile, (lo, hi), anchor, "closed-form",
                                f1, f2, f3, slopes)

    if closed:
        # constant eta (or linear with zero slope): constant integrands
        k1, k2 = slopes(anchor)[:2]

        def f1(v):
            return k1 * (v - anchor)

        def f2(v):
            return k2 * (v - anchor)

        def f3(v):
            # f1 f2' - f2 f1' = (v-a)(k1 k2 - k2 k1) = 0
            return _const(0.0, v)

        return ProfileFunctions(profile, (lo, hi), anchor, "closed-form",
                                f1, f2, f3, slopes)

    def table(name: str, f) -> CumulativeIntegral:
        try:
            return CumulativeIntegral(f, anchor, lo, hi, spacing=_TABLE_SPACING,
                                      tol=_QUADRATURE_TOL)
        except QuadratureFailure as exc:
            raise QuadratureFailure(
                f"profile table {name} on v in [{lo}, {hi}]: {exc}") from exc

    f1_tab = table("f1", lambda v: slopes(v)[0])
    f2_tab = table("f2", lambda v: slopes(v)[1])

    def g3(v):
        q1, q2 = slopes(v)[:2]
        if isinstance(v, np.ndarray):
            # the table build's rows: the f3 table shares the f1, f2 nodes
            p1, p2 = f1_tab.rows(v), f2_tab.rows(v)
        else:
            p1, p2 = f1_tab(v), f2_tab(v)
        return tau * (p1 * q2 - p2 * q1)

    f3_tab = table("f3", g3)
    return ProfileFunctions(profile, (lo, hi), anchor, "quadrature",
                            f1_tab, f2_tab, f3_tab, slopes)


def profile_residuals(pf: ProfileFunctions, n_samples: int = 41,
                      fd_step: float = 1e-3) -> dict[str, float]:
    """Max residuals of the defining constraints over the profile range.

    antiderivative:        five-point derivative of f1, f2 vs f1', f2'
    derivative_constraint: f1'^2 - f2'^2 vs its required constant
    f3_ode:                five-point derivative of f3 vs tau*(f1 f2'-f2 f1')
    """
    lo, hi = pf.v_range
    pad = 2.0 * fd_step * 1.0000001
    a, b = lo + pad, hi - pad
    vs = [a + (b - a) * i / (n_samples - 1) for i in range(n_samples)]
    target = pf.profile.constraint_target

    def d5(fn: Callable[[float], float], v: float) -> float:
        return central_diff(lambda t: fn(v + t), fd_step, order=4)

    res_anti = 0.0
    res_constraint = 0.0
    res_f3 = 0.0
    for v in vs:
        res_anti = max(res_anti, abs(d5(pf.f1, v) - pf.df1(v)),
                       abs(d5(pf.f2, v) - pf.df2(v)))
        d1, d2 = pf.df1(v), pf.df2(v)
        res_constraint = max(res_constraint, abs(d1 * d1 - d2 * d2 - target))
        res_f3 = max(res_f3, abs(d5(pf.f3, v) - pf.df3(v)))
    return {"antiderivative": res_anti,
            "derivative_constraint": res_constraint,
            "f3_ode": res_f3}


def _analytic_patch(space: SpaceParams, jet, domain: Domain,
                    **kwargs) -> SurfacePatch:
    """A patch whose position is the point of its analytic jet."""
    return SurfacePatch(space, lambda u, v: jet(u, v)[0], domain, jet=jet,
                        **kwargs)


# ---- angle-function-zero families ----


def _normalize_domain(domain: Optional[Domain]) -> Domain:
    if domain is None:
        return DEFAULT_DOMAIN
    (u0, u1), (v0, v1) = domain
    u0, u1, v0, v1 = float(u0), float(u1), float(v0), float(v1)
    if not (u0 < u1 and v0 < v1 and all(map(math.isfinite, (u0, u1, v0, v1)))):
        raise InvalidParameterDomain(f"bad domain {domain!r}")
    return ((u0, u1), (v0, v1))


def make_minimal_plane(delta: int, causal: str, phi0: float,
                       tau: float = 1.0,
                       domain: Optional[Domain] = None) -> SurfacePatch:
    """Minimal vertical plane with angle function 0 and H = 0.

    delta = -1 admits only the timelike plane
    (sin(phi0)*v, -cos(phi0)*v, u); delta = +1 admits the timelike
    (sinh(phi0)*v, cosh(phi0)*v, u) and spacelike
    (cosh(phi0)*v, sinh(phi0)*v, u) planes.
    """
    if causal not in ("timelike", "spacelike"):
        raise InvalidParameterDomain(f"bad causal {causal!r}")
    if not math.isfinite(phi0):
        raise InvalidParameterDomain("phi0 must be finite")
    space = SpaceParams(delta=delta, tau=tau)
    domain = _normalize_domain(domain)
    if delta == -1:
        if causal != "timelike":
            raise InvalidCombination(
                "delta = -1 admits only the timelike minimal plane")
        cx, cy = math.sin(phi0), -math.cos(phi0)
    elif causal == "timelike":
        cx, cy = math.sinh(phi0), math.cosh(phi0)
    else:
        cx, cy = math.cosh(phi0), math.sinh(phi0)

    fu: Vec3 = (0.0, 0.0, 1.0)
    fv: Vec3 = (cx, cy, 0.0)
    zero: Vec3 = (0.0, 0.0, 0.0)

    def jet(u, v):
        return ((cx * v, cy * v, u), fu, fv, zero, zero, zero)

    family = {"family": "minimal_plane", "delta": delta, "causal": causal,
              "tau": tau, "phi0": float(phi0),
              "domain": [list(domain[0]), list(domain[1])]}
    return _analytic_patch(space, jet, domain,
                           name=f"minimal_plane[delta={delta},{causal}]",
                           family=family)


def make_cmc_cylinder(delta: int, causal: str, tau: float,
                      domain: Optional[Domain] = None) -> SurfacePatch:
    """Vertical cylinder with angle function 0 and constant nonzero H.

    delta = -1: (-cos v, -sin v, u - tau*v) (timelike only);
    delta = +1 timelike: (cosh v, sinh v, u - tau*v);
    delta = +1 spacelike: (sinh v, cosh v, u + tau*v).
    """
    if causal not in ("timelike", "spacelike"):
        raise InvalidParameterDomain(f"bad causal {causal!r}")
    if tau == 0.0 or not math.isfinite(tau):
        raise InvalidParameterDomain("cylinder family needs tau != 0")
    space = SpaceParams(delta=delta, tau=tau)
    domain = _normalize_domain(domain)
    fu: Vec3 = (0.0, 0.0, 1.0)
    zero: Vec3 = (0.0, 0.0, 0.0)
    if delta == -1:
        if causal != "timelike":
            raise InvalidCombination(
                "delta = -1 admits only the timelike cylinder")

        def jet(u, v):
            c, s = _lib(v).cos(v), _lib(v).sin(v)
            return ((-c, -s, u - tau * v), fu, (s, -c, -tau),
                    zero, zero, (c, s, 0.0))
    elif causal == "timelike":
        def jet(u, v):
            ch, sh = _lib(v).cosh(v), _lib(v).sinh(v)
            return ((ch, sh, u - tau * v), fu, (sh, ch, -tau),
                    zero, zero, (ch, sh, 0.0))
    else:
        def jet(u, v):
            ch, sh = _lib(v).cosh(v), _lib(v).sinh(v)
            return ((sh, ch, u + tau * v), fu, (ch, sh, tau),
                    zero, zero, (sh, ch, 0.0))

    family = {"family": "cmc_cylinder", "delta": delta, "causal": causal,
              "tau": tau, "domain": [list(domain[0]), list(domain[1])]}
    return _analytic_patch(space, jet, domain,
                           name=f"cmc_cylinder[delta={delta},{causal}]",
                           family=family)


# ---- helix (nonzero angle function) families ----


def make_helix_surface(profile: HelixProfile,
                       domain: Optional[Domain] = None) -> SurfacePatch:
    """Constant-angle surface with nonzero angle function (delta = +1).

    Spacelike branch (angle function sinh(theta)):
        x =  A cosh u + f1(v)
        y =  A sinh u + f2(v)
        z = -B u - C (f2 cosh u - f1 sinh u) + f3(v)
    with A = coth(theta)/(2 tau), B = cosh^2(theta)/(4 tau sinh^2(theta)),
    C = coth(theta)/2.

    Timelike branch (angle function sin(theta)):
        x = -A sinh u + f1(v)
        y = -A cosh u + f2(v)
        z =  B u - C (f1 cosh u - f2 sinh u) + f3(v)
    with A = cot(theta)/(2 tau), B = cos^2(theta)/(4 tau sin^2(theta)),
    C = cot(theta)/2.
    """
    domain = _normalize_domain(domain)
    (v0, v1) = domain[1]
    pf = build_profile(profile, (v0 - _PROFILE_MARGIN, v1 + _PROFILE_MARGIN))
    return _helix_patch_from_profile(profile, pf, domain)


def _helix_patch_from_profile(profile: HelixProfile, pf: ProfileFunctions,
                              domain: Domain) -> SurfacePatch:
    tau = profile.tau
    space = SpaceParams(delta=1, tau=tau)
    profile_jet = pf.jet

    # (X, Y) = (cosh u, sinh u) on the spacelike branch and (-sinh u,
    # -cosh u) on the timelike one; both satisfy X' = Y, Y' = X, and b_c
    # carries the branch sign of the u-term in z
    if profile.causal == "spacelike":
        num, den = math.cosh(profile.theta), math.sinh(profile.theta)
        sign = -1.0

        def xy(u):
            return _lib(u).cosh(u), _lib(u).sinh(u)
    else:
        num, den = math.cos(profile.theta), math.sin(profile.theta)
        sign = 1.0

        def xy(u):
            return -_lib(u).sinh(u), -_lib(u).cosh(u)
    a_c = (num / den) / (2.0 * tau)
    b_c = sign * (num * num / (4.0 * tau * den * den))
    c_c = (num / den) / 2.0

    def jet(u, v):
        x, y = xy(u)
        p1, p2, p3, q1, q2, q3, r1, r2, r3 = profile_jet(v)
        return ((a_c * x + p1, a_c * y + p2,
                 b_c * u - c_c * (p2 * x - p1 * y) + p3),
                (a_c * y, a_c * x, b_c - c_c * (p2 * y - p1 * x)),
                (q1, q2, -c_c * (q2 * x - q1 * y) + q3),
                (a_c * x, a_c * y, -c_c * (p2 * x - p1 * y)),
                (0.0, 0.0, -c_c * (q2 * y - q1 * x)),
                (r1, r2, -c_c * (r2 * x - r1 * y) + r3))

    family = {"family": "helix", "delta": 1, **profile.as_dict(),
              "domain": [list(domain[0]), list(domain[1])]}
    patch = _analytic_patch(space, jet, domain,
                            name=f"helix[{profile.causal}]", family=family)
    patch.helix_profile = profile  # type: ignore[attr-defined]
    patch.profile_functions = pf  # type: ignore[attr-defined]
    return patch


def predicted_mu(profile: HelixProfile, u: float, v: float) -> float:
    """Closed-form shape-operator entry mu in the derivation's coordinates:

        spacelike: 2 tau sinh(theta) tanh(2 tau sinh(theta)^2 u + eta(v))
        timelike:  2 tau sin(theta)  tanh(2 tau sin(theta)^2  u + eta(v))

    Compare against measured values through `profile_u_from_patch_u`.
    """
    nu = profile.nu_value
    arg = 2.0 * profile.tau * nu * nu * u + profile.eta(v)
    return 2.0 * profile.tau * nu * math.tanh(arg)


def profile_u_from_patch_u(profile: HelixProfile, u: float) -> float:
    """Map a patch u-coordinate to the derivation's u-variable.

    The closed-form immersions absorb a reparametrization
    u_patch = c - 2 tau sinh(theta)^2 u (spacelike) resp.
    u_patch = c + 2 tau sin(theta)^2 u (timelike); this inverts it.
    """
    nu = profile.nu_value
    if profile.causal == "spacelike":
        return (profile.c - u) / (2.0 * profile.tau * nu * nu)
    return (u - profile.c) / (2.0 * profile.tau * nu * nu)


def predicted_mu_at_patch(profile: HelixProfile, u: float, v: float) -> float:
    """predicted_mu composed with the patch-to-derivation u map."""
    return predicted_mu(profile, profile_u_from_patch_u(profile, u), v)


# ---- config-driven construction ----


def family_from_config(cfg: dict) -> SurfacePatch:
    """Build a patch from a JSON-style descriptor.

    Required fields: family, tau; family-specific: delta, causal, phi0
    (minimal_plane), theta/c/eta (helix); optional: domain.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("family descriptor must be an object")
    try:
        name = cfg["family"]
    except KeyError:
        raise ConfigError("family descriptor missing 'family'") from None
    known = ("minimal_plane", "cmc_cylinder", "helix")
    if name not in known:
        raise UnknownFamily(f"unknown family {name!r}; expected one of {known}")
    domain = cfg.get("domain")
    if domain is not None:
        try:
            (u0, u1), (v0, v1) = domain
            domain = ((float(u0), float(u1)), (float(v0), float(v1)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad domain {domain!r}") from exc

    def need(key: str):
        if key not in cfg:
            raise ConfigError(f"family {name!r} requires field {key!r}")
        return cfg[key]

    try:
        if name == "minimal_plane":
            return make_minimal_plane(int(need("delta")), str(need("causal")),
                                      float(need("phi0")),
                                      tau=float(need("tau")), domain=domain)
        if name == "cmc_cylinder":
            return make_cmc_cylinder(int(need("delta")), str(need("causal")),
                                     float(need("tau")), domain=domain)
        delta = int(cfg.get("delta", 1))
        if delta != 1:
            raise InvalidCombination(
                "helix families with nonzero angle function need delta = +1")
        profile = HelixProfile(causal=str(need("causal")),
                               tau=float(need("tau")),
                               theta=float(need("theta")),
                               c=float(cfg.get("c", 0.0)),
                               eta=_eta_from_any(cfg.get("eta")))
        return make_helix_surface(profile, domain=domain)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad family descriptor: {exc}") from exc
