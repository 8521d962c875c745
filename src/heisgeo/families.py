"""Generators for the classified constant-angle surface families on the
kappa = 0 ambient space: ``make_minimal_plane`` (flat minimal vertical
planes, angle function 0, H = 0), ``make_cmc_cylinder`` (flat vertical
cylinders, angle function 0, H constant and nonzero) and
``make_helix_surface`` (the two families with nonzero angle function,
delta = +1), built from profile functions (f1, f2, f3): closed forms for
constant and linear eta, otherwise one quintic-Hermite quadrature table
(`numeric.CumulativeIntegral`) whose rows are f1, f2 and f3.

Each constructor returns a :class:`~heisgeo.surface.SurfacePatch` with a
serializable family descriptor, its immersion written once as
`position(u, v)` in + - * / and numpy's functions: it takes floats, arrays
and Taylor values alike, and the patch derives every partial from it.
Every per-sample formula (positions, eta, the slopes, the profile) runs on
numpy whatever its argument, so a one-point call returns, bit for bit, the
entry a batch returns; `math` is left to parameter constants and
validation.  A `ProfileFunctions` also takes a Taylor value of v, lifted
through (f, f', f'', f''')."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .ambient import SpaceParams
from .errors import (ConfigError, InvalidCombination, InvalidParameterDomain,
                     UnknownFamily)
from .numeric import CumulativeIntegral, Taylor, central_diff
from .surface import SurfacePatch

Domain = tuple[tuple[float, float], tuple[float, float]]

#: default parameter rectangle for generated patches
DEFAULT_DOMAIN: Domain = ((-1.2, 1.2), (-1.2, 1.2))
#: extra tabulated v-range beyond the declared domain (evaluation headroom)
_PROFILE_MARGIN = 0.06
#: angle degeneracy threshold: |nu(theta)| and |m(theta)| must clear it
_ANGLE_TOL = 1e-8

_ETA_KINDS = ("constant", "linear", "polynomial", "sinusoidal")
_MAX_POLY_DEGREE = 6
#: samples and fourth-order stencil step of `profile_residuals`
_RESIDUAL_SAMPLES = 41
_RESIDUAL_STEP = 1e-3


# ---- eta presets ----


@dataclass(frozen=True)
class EtaSpec:
    """Preset slope function eta(v) entering the helix profile equations.
    kinds and coefficient conventions:
      constant    [k]              -> k
      linear      [c0, c1]         -> c0 + c1*v
      polynomial  [c0, ..., cn]    -> sum ci * v^i   (n <= 6)
      sinusoidal  [amp, freq, phase] -> amp * sin(freq*v + phase)"""

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
        """eta at v: the first entry of `jet`."""
        return self.jet(v)[0]

    def jet(self, v) -> tuple:
        """(eta, eta', eta'') at v (a float, an ndarray or a Taylor value),
        elementwise, in one pass: one sine and cosine, or one Horner loop
        (constant and linear eta are polynomials of degree 0 and 1).  A
        derivative that vanishes identically is the number 0.0."""
        c = self.coefficients
        if self.kind == "sinusoidal":
            arg = c[1] * v + c[2]
            sin = np.sin(arg)
            return (c[0] * sin, c[0] * c[1] * np.cos(arg),
                    -c[0] * c[1] * c[1] * sin)
        e0 = e1 = e2 = 0.0
        for i in range(len(c) - 1, -1, -1):
            e0 = e0 * v + c[i]
            if i > 0:
                e1 = e1 * v + i * c[i]
            if i > 1:
                e2 = e2 * v + i * (i - 1) * c[i]
        return e0, e1, e2

    def as_dict(self) -> dict:
        return {"kind": self.kind, "coefficients": list(self.coefficients)}


def _eta_from_any(eta) -> EtaSpec:
    if eta is None:
        return EtaSpec("constant", (0.0,))
    if isinstance(eta, EtaSpec):
        return eta
    if isinstance(eta, dict):
        try:
            return EtaSpec(str(eta["kind"]), tuple([
                _number(c, "eta coefficient") for c in eta["coefficients"]]))
        except KeyError as exc:
            raise ConfigError(f"eta spec missing field {exc}") from exc
    raise ConfigError(f"cannot interpret eta spec {eta!r}")


# ---- helix profile ----


#: what differs between the two helix branches, by causal: the sign s, the
#: angle function nu(theta) and slope scale m(theta), and the profile's
#: pair (g1, g2), with f1' = s m g1(eta + s c) and f2' = m g2(eta + s c)
_Branch = namedtuple("_Branch", "sign nu m g1 g2")
_BRANCHES = {"spacelike": _Branch(1.0, math.sinh, math.cosh, np.cosh, np.sinh),
             "timelike": _Branch(-1.0, math.sin, math.cos, np.sinh, np.cosh)}


@dataclass(frozen=True)
class HelixProfile:
    """A constant-angle family with nonzero angle function (delta = +1):
    causal "spacelike" (angle function sinh(theta), theta > 0) or
    "timelike" (sin(theta)); c the phase constant, eta the slope preset."""

    causal: str
    tau: float
    theta: float
    c: float = 0.0
    eta: EtaSpec = field(default_factory=lambda: EtaSpec("constant", (0.0,)))

    def __post_init__(self) -> None:
        if self.causal not in _BRANCHES:
            raise InvalidParameterDomain(
                f"causal must be 'spacelike' or 'timelike', got {self.causal!r}")
        if not (math.isfinite(self.tau) and self.tau != 0.0):
            raise InvalidParameterDomain("tau must be finite and nonzero")
        if not math.isfinite(self.theta) or not math.isfinite(self.c):
            raise InvalidParameterDomain("theta and c must be finite")
        if self.causal == "spacelike" and self.theta <= 0.0:
            raise InvalidParameterDomain(
                "spacelike branch needs theta > 0 (nonzero angle function)")
        b = _BRANCHES[self.causal]
        if min(abs(b.nu(self.theta)), abs(b.m(self.theta))) < _ANGLE_TOL:
            raise InvalidParameterDomain(
                f"{self.causal} branch needs {b.nu.__name__}(theta) and "
                f"{b.m.__name__}(theta) at least {_ANGLE_TOL:g} in magnitude")
        object.__setattr__(self, "eta", _eta_from_any(self.eta))

    @property
    def nu_value(self) -> float:
        """The constant angle function of the generated surface (gauge nu>=0)."""
        return _BRANCHES[self.causal].nu(self.theta)

    @property
    def slope_scale(self) -> float:
        """cosh(theta) (spacelike) or cos(theta) (timelike): the scale of
        the profile derivatives f1', f2'."""
        return _BRANCHES[self.causal].m(self.theta)

    @property
    def constraint_target(self) -> float:
        """Required constant value of f1'^2 - f2'^2: s m^2."""
        m = self.slope_scale
        return _BRANCHES[self.causal].sign * (m * m)

    def as_dict(self) -> dict:
        return {"causal": self.causal, "tau": self.tau, "theta": self.theta,
                "c": self.c, "eta": self.eta.as_dict()}


@dataclass
class ProfileFunctions:
    """The profile triple (f1, f2, f3), with f1'^2 - f2'^2 = cosh(theta)^2
    (spacelike) or -cos(theta)^2 (timelike) and f3' = tau (f1 f2' - f2 f1').
    `values(v)` gives (f1, f2, f3) from one read: of the closed forms, or of
    the profile's one table, whose rows are f1, f2 and f3.  `slopes(v)`
    returns (f1', f2', f1'', f2'', f1''', f2'''); `jet(v)` the values and
    three derivatives of all three.
    Called on v, the profile returns (f1, f2, f3) there: at a float, an
    ndarray, or a Taylor value, lifted through the jet at its value."""

    profile: HelixProfile
    v_range: tuple[float, float]
    anchor: float
    source: str  # "closed-form" | "quadrature"
    values: Callable
    slopes: Callable[[float], tuple[float, ...]]

    def jet(self, v) -> tuple[float, ...]:
        """(f1, f2, f3, f1', f2', f3', f1'', f2'', f3'', f1''', f2''',
        f3''') at v (a float or an ndarray)."""
        p1, p2, p3 = self.values(v)
        q1, q2, r1, r2, t1, t2 = self.slopes(v)
        tau = self.profile.tau
        # f3'' = d/dv of tau*(f1 f2' - f2 f1'); the f1'f2' cross terms cancel
        return (p1, p2, p3, q1, q2, tau * (p1 * q2 - p2 * q1),
                r1, r2, tau * (p1 * r2 - p2 * r1),
                t1, t2, tau * (q1 * r2 - q2 * r1 + p1 * t2 - p2 * t1))

    def __call__(self, v) -> tuple:
        """(f1, f2, f3) at v; a Taylor value v is lifted through `jet` at
        its value."""
        if not isinstance(v, Taylor):
            return tuple(self.values(v))
        j = self.jet(v.c[0])
        return tuple(v.lift(j[0::3], j[1::3], j[2::3]))


def _slope_branch(profile: HelixProfile) -> tuple:
    """(g1, g2, k1, shift) with f1' = k1 g1(s) and f2' = m g2(s) at
    s = eta + shift; g1 and g2 are numpy's hyperbolic functions."""
    b = _BRANCHES[profile.causal]
    return b.g1, b.g2, b.sign * profile.slope_scale, b.sign * profile.c


def _slope_function(profile: HelixProfile):
    """slopes(v) = (f1', f2', f1'', f2'', f1''', f2''') in closed form for
    any eta, elementwise at v (a float, an ndarray or a Taylor value)."""
    eta = profile.eta
    m = profile.slope_scale
    g1, g2, k1, shift = _slope_branch(profile)

    def slopes(v):
        # g1' = g2 and g2' = g1: f1'' = k1 g2 eta', f2'' = m g1 eta',
        # f1''' = k1 (g1 eta'^2 + g2 eta''), f2''' = m (g2 eta'^2 + g1 eta'')
        e0, e1, e2 = eta.jet(v)
        s = e0 + shift
        a, b = g1(s), g2(s)
        q1, q2, kb, ma = k1 * a, m * b, k1 * b, m * a
        return (q1, q2, kb * e1, ma * e1,
                q1 * e1 * e1 + kb * e2, q2 * e1 * e1 + ma * e2)

    return slopes


def _sinhc_minus_one(x):
    """(sinh(x)/x - 1)/x without cancellation at small x, exactly 0 at
    x = 0, elementwise."""
    # the series to x^7; the next term is below 2e-15 of the first
    x2 = x * x
    series = x / 6.0 * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0
                                           * (1.0 + x2 / 72.0)))
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, where series is kept
        return np.where(abs(x) < 0.1, series, (np.sinh(x) / x - 1.0) / x)


def build_profile(profile: HelixProfile,
                  v_range: tuple[float, float]) -> ProfileFunctions:
    """Construct (f1, f2, f3) on v_range with f_i(anchor) = 0: closed forms
    for constant and linear eta, else one table in two stages: rows f1, f2
    of f1', f2' (with f1'', f2''), then row f3 of f3' (with f3'') from the
    tabulated f1, f2, each failure naming its row.  The anchor is 0
    when the range holds it, else the lower end (the free initial values
    are ambient translations)."""
    lo, hi = float(v_range[0]), float(v_range[1])
    if not lo < hi:
        raise InvalidParameterDomain("profile v_range must be nondegenerate")
    anchor = 0.0 if lo <= 0.0 <= hi else lo
    slopes = _slope_function(profile)
    tau = profile.tau
    m = profile.slope_scale
    eta = profile.eta

    if eta.kind in ("constant", "linear"):
        # eta = c0 + c1 v (c1 = 0: constant eta), s(v) = c1 v + s0: f1 and f2
        # are k1 g1(s), m g2(s) integrated, i.e. differences of g2 and g1
        # over [s(a), s(v)], written as products so that no digits cancel as
        # c1 -> 0: g(A) - g(B) = 2 g'((A+B)/2) sinh((A-B)/2) for g = sinh,
        # cosh.  So f_i(v) = f_i'((v+a)/2) * chord(v) with chord(v) =
        # 2 sinh(c1 (v-a)/2) / c1, which is exactly v - a at c1 = 0.
        c0, c1 = (*eta.coefficients, 0.0)[:2]
        g1, g2, k1, shift = _slope_branch(profile)
        s0 = c0 + shift

        def values(v):
            # f3' = tau*(f1 f2' - f2 f1') = tau*(m^2/c1)*(cosh(c1(v-a)) - 1),
            # so f3 = tau m^2 (v-a)^2 (sinh(x)/x - 1)/x at x = c1 (v-a): 0 at c1 = 0
            w = v - anchor
            chord = w * (1.0 + 0.5 * c1 * w * _sinhc_minus_one(0.5 * c1 * w))
            s = c1 * (0.5 * (v + anchor)) + s0
            return (k1 * g1(s) * chord, m * g2(s) * chord,
                    tau * (m * m) * w * w * _sinhc_minus_one(c1 * w))

        return ProfileFunctions(profile, (lo, hi), anchor, "closed-form",
                                values, slopes)

    def f12(v):
        # rows f1 and f2: the pairs (f1', f1'') and (f2', f2'')
        q1, q2, r1, r2 = slopes(v)[:4]
        return (q1, r1), (q2, r2)

    def f3(v, p, pairs):
        # row f3: f3' and f3'' = tau*(f1 f2'' - f2 f1'') from the tabulated
        # f1, f2 and rows f1, f2's pairs at the f3 row's own points
        (q1, r1), (q2, r2) = pairs
        return [(tau * (p[0] * q2 - p[1] * q1), tau * (p[0] * r2 - p[1] * r1))]

    table = CumulativeIntegral(f12, anchor, lo, hi, [
        f"profile table {name} on v in [{lo}, {hi}]"
        for name in ("f1", "f2", "f3")], f3)
    return ProfileFunctions(profile, (lo, hi), anchor, "quadrature", table,
                            slopes)


def profile_residuals(pf: ProfileFunctions) -> dict[str, float]:
    """Max residuals of the defining constraints over the profile range, on
    `_RESIDUAL_SAMPLES` points evaluated as one batch.
    antiderivative:        five-point derivative of f1, f2 vs f1', f2'
    derivative_constraint: f1'^2 - f2'^2 vs its required constant
    f3_ode:                five-point derivative of f3 vs tau*(f1 f2'-f2 f1')
    jet:                   five-point derivatives of the jet's first and
                           second derivatives vs its second and third"""
    lo, hi = pf.v_range
    pad = 2.0 * _RESIDUAL_STEP * 1.0000001
    a, b = lo + pad, hi - pad
    n = _RESIDUAL_SAMPLES
    v = np.array([a + (b - a) * i / (n - 1) for i in range(n)])
    d1, d2, d3, *higher = central_diff(
        lambda t: pf.jet(np.add.outer(v, t))[:9], _RESIDUAL_STEP, order=4)
    jet = pf.jet(v)
    q1, q2, q3 = jet[3:6]
    return {"antiderivative": float(np.maximum(abs(d1 - q1), abs(d2 - q2)).max()),
            "derivative_constraint": float(
                abs(q1 * q1 - q2 * q2 - pf.profile.constraint_target).max()),
            "f3_ode": float(abs(d3 - q3).max()),
            "jet": float(max([abs(d - q).max()
                              for d, q in zip(higher, jet[6:])]))}


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
    (cosh(phi0)*v, sinh(phi0)*v, u) planes."""
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

    def position(u, v):
        return (cx * v, cy * v, u)

    family = {"family": "minimal_plane", "delta": delta, "causal": causal,
              "tau": tau, "phi0": float(phi0),
              "domain": [list(domain[0]), list(domain[1])]}
    return SurfacePatch(space, position, domain,
                        name=f"minimal_plane[delta={delta},{causal}]",
                        family=family)


def make_cmc_cylinder(delta: int, causal: str, tau: float,
                      domain: Optional[Domain] = None) -> SurfacePatch:
    """Vertical cylinder with angle function 0 and constant nonzero H.
    delta = -1: (-cos v, -sin v, u - tau*v) (timelike only);
    delta = +1 timelike: (cosh v, sinh v, u - tau*v);
    delta = +1 spacelike: (sinh v, cosh v, u + tau*v)."""
    if causal not in ("timelike", "spacelike"):
        raise InvalidParameterDomain(f"bad causal {causal!r}")
    if tau == 0.0 or not math.isfinite(tau):
        raise InvalidParameterDomain("cylinder family needs tau != 0")
    space = SpaceParams(delta=delta, tau=tau)
    domain = _normalize_domain(domain)
    if delta == -1:
        if causal != "timelike":
            raise InvalidCombination(
                "delta = -1 admits only the timelike cylinder")

        def position(u, v):
            return (-np.cos(v), -np.sin(v), u - tau * v)
    elif causal == "timelike":
        def position(u, v):
            return (np.cosh(v), np.sinh(v), u - tau * v)
    else:
        def position(u, v):
            return (np.sinh(v), np.cosh(v), u + tau * v)

    family = {"family": "cmc_cylinder", "delta": delta, "causal": causal,
              "tau": tau, "domain": [list(domain[0]), list(domain[1])]}
    return SurfacePatch(space, position, domain,
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
    C = cot(theta)/2."""
    domain = _normalize_domain(domain)
    (v0, v1) = domain[1]
    pf = build_profile(profile, (v0 - _PROFILE_MARGIN, v1 + _PROFILE_MARGIN))
    tau = profile.tau
    space = SpaceParams(delta=1, tau=tau)
    # (X, Y) = s (g1(u), g2(u)): (cosh u, sinh u) on the spacelike branch
    # and (-sinh u, -cosh u) on the timelike one; -s is the sign of the
    # u-term in z; num / den is coth(theta) or cot(theta)
    s, _, _, g1, g2 = _BRANCHES[profile.causal]
    num, den = profile.slope_scale, profile.nu_value
    a_c = (num / den) / (2.0 * tau)
    b_c = -s * (num * num / (4.0 * tau * den * den))
    c_c = (num / den) / 2.0

    def position(u, v):
        x, y = s * g1(u), s * g2(u)
        p1, p2, p3 = pf(v)
        return (a_c * x + p1, a_c * y + p2,
                b_c * u - c_c * (p2 * x - p1 * y) + p3)

    family = {"family": "helix", "delta": 1, **profile.as_dict(),
              "domain": [list(domain[0]), list(domain[1])]}
    patch = SurfacePatch(space, position, domain,
                         name=f"helix[{profile.causal}]", family=family)
    patch.helix_profile = profile  # type: ignore[attr-defined]
    patch.profile_functions = pf  # type: ignore[attr-defined]
    return patch


def predicted_mu(profile: HelixProfile, u: float, v: float) -> float:
    """Closed-form shape-operator entry mu in the derivation's coordinates
    (patch coordinates through `profile_u_from_patch_u`):
        spacelike: 2 tau sinh(theta) tanh(2 tau sinh(theta)^2 u + eta(v))
        timelike:  2 tau sin(theta)  tanh(2 tau sin(theta)^2  u + eta(v))"""
    nu = profile.nu_value
    arg = 2.0 * profile.tau * nu * nu * u + profile.eta(v)
    return 2.0 * profile.tau * nu * np.tanh(arg)


def profile_u_from_patch_u(profile: HelixProfile, u: float) -> float:
    """The derivation's u of a patch u: the inverse of the immersions'
    u_patch = c - 2 tau sinh(theta)^2 u (spacelike) or
    u_patch = c + 2 tau sin(theta)^2 u (timelike)."""
    nu = profile.nu_value
    s = _BRANCHES[profile.causal].sign
    return s * (profile.c - u) / (2.0 * profile.tau * nu * nu)


def predicted_mu_at_patch(profile: HelixProfile, u: float, v: float) -> float:
    """predicted_mu composed with the patch-to-derivation u map."""
    return predicted_mu(profile, profile_u_from_patch_u(profile, u), v)


# ---- config-driven construction ----


def _number(x, what: str) -> float:
    """The config number x (never a bool or a string) as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{what} must be a number, got {x!r}")
    return float(x)


def family_from_config(cfg: dict) -> SurfacePatch:
    """Build a patch from a JSON-style descriptor of numbers (never bools
    or strings).  Required fields: family, tau; family-specific: delta (+1
    or -1), causal, phi0 (minimal_plane), theta/c/eta (helix); optional:
    domain."""
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
            domain = [[_number(x, "domain bound") for x in xs] for xs in domain]
            (u0, u1), (v0, v1) = domain
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad domain {domain!r}") from exc

    def need(key: str):
        if key not in cfg:
            raise ConfigError(f"family {name!r} requires field {key!r}")
        return cfg[key]

    def number(key: str, default=None) -> float:
        return _number(need(key) if default is None else cfg.get(key, default),
                       key)

    try:
        delta = number("delta", 1.0 if name == "helix" else None)
        if delta not in (1.0, -1.0):
            raise ConfigError(f"delta must be 1 or -1, got {delta!r}")
        if name == "minimal_plane":
            return make_minimal_plane(int(delta), str(need("causal")),
                                      number("phi0"), tau=number("tau"),
                                      domain=domain)
        if name == "cmc_cylinder":
            return make_cmc_cylinder(int(delta), str(need("causal")),
                                     number("tau"), domain=domain)
        if delta != 1:
            raise InvalidCombination(
                "helix families with nonzero angle function need delta = +1")
        profile = HelixProfile(causal=str(need("causal")),
                               tau=number("tau"), theta=number("theta"),
                               c=number("c", 0.0),
                               eta=_eta_from_any(cfg.get("eta")))
        return make_helix_surface(profile, domain=domain)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad family descriptor: {exc}") from exc
