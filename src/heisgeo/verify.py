"""Named, tolerance-tagged residual suites over ambient spaces and patches.

Each check turns one proved identity into a residual: ``check_gauss``
(intrinsic against extrinsic K; the gauss suite adds
``check_shape_operator_routes``, S = eps I^{-1} h against the S of the
first variation of the metric along the normal), ``check_codazzi`` (X =
d/du, Y = d/dv), ``check_helix_ode`` (the ODE of the non-constant shape
entry of a constant-angle patch, along T), ``check_parallel`` (the
parallel-surface equations in the unit adapted frame, spacelike vector
first; synthetic inputs through :func:`parallel_equations_residuals`),
``check_claims`` (parallel => CMC, constant-angle CMC <=> parallel, the
constant-curvature value, trace bookkeeping, non-umbilicity) and
``check_ambient`` (the ambient tables against the Taylor coordinate path,
the two curvature formulas, and sectional-curvature constancy on the
constant-curvature companion).

The patch suites share one evaluation of each (patch, grid), kept on the
patch: one batch of samples at Taylor order 1, whose coefficients are the
exact d/du and d/dv the suites read.  No patch check takes a finite
difference.  A NaN or infinite residual raises
:class:`~heisgeo.errors.NonFiniteResidual` instead of passing or failing.
Every suite is deterministic given (inputs, grid, seed)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import ambient
from .ambient import SpaceParams
from .errors import (DegeneratePlane, NonFiniteResidual, NotAHelixPatch,
                     UnsupportedKappa)
from .numeric import (Taylor, Vec3, bilinear3, directional_diffs, lincomb3,
                      quiet, require, value)
from .surface import (FirstFundamentalForm, SurfacePatch, _adapted_entries,
                      _extrinsic_k, _require_adapted, _sample,
                      _second_form_shape, _tangent_coefficients,
                      _variation_shape, gaussian_curvature, grid_batch,
                      shape_operator)

DEFAULT_SEED = 1729

#: suite names accepted by :func:`run_suite`
SUITE_NAMES = ("ambient", "gauss", "codazzi", "helix_ode", "parallel", "claims")

#: per-check default tolerances (first-derivative checks 1e-5,
#: second-derivative checks 1e-4, exact table checks 0)
DEFAULT_TOLERANCES: dict[str, float] = {
    "ambient.frame_orthonormality": 1e-12,
    "ambient.bracket": 1e-9,
    "ambient.connection_table": 0.0,
    "ambient.connection_fd": 1e-6,
    "ambient.curvature_table": 0.0,
    "ambient.curvature_fd": 1e-6,
    "ambient.curvature_formula_agreement": 1e-10,
    "ambient.grad_e3_wedge": 1e-7,
    "ambient.sectional_constancy": 1e-6,
    "gauss.extrinsic_vs_intrinsic": 1e-5,
    "gauss.shape_operator_routes": 1e-6,
    "codazzi.coordinate_fields": 1e-4,
    "helix_ode.residual": 1e-5,
    "parallel.equations": 1e-5,
    "claims.parallel_implies_cmc": 1e-8,
    "claims.cmc_iff_parallel": 0.5,
    "claims.constant_angle_gauss": 1e-6,
    "claims.mean_from_adapted_s22": 1e-8,
    "claims.non_umbilic": 1e-6,
}

_SURFACE_STEP = 1e-3
_GRID_INSET = 0.03
_CONSTANT_ANGLE_RANGE = 1e-6
# random planes the sectional-constancy check may draw to find its 20
# samples, drawn in chunks until enough are well-conditioned
_PLANE_ATTEMPTS = 400
_PLANE_CHUNK = 40
# random points of the ambient checks, and the half-width of their box
_AMBIENT_POINTS = 40
_POINT_BOX = 1.5
# half-widths of the random vectors of the ambient checks
_UNIT = (1.0, 1.0, 1.0)


def resolve_tolerance(check_id: str, overrides: Optional[dict] = None) -> float:
    """Tolerance for a check id; overrides may name a check id or its suite."""
    if overrides:
        if check_id in overrides:
            return float(overrides[check_id])
        suite = check_id.split(".", 1)[0]
        if suite in overrides:
            return float(overrides[suite])
    return DEFAULT_TOLERANCES[check_id]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    max_residual: float
    tol: float

    @property
    def verdict(self) -> str:
        return "pass" if self.max_residual <= self.tol else "fail"

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def as_dict(self) -> dict:
        return {"id": self.check_id, "max_residual": self.max_residual,
                "tol": self.tol, "verdict": self.verdict}


@dataclass
class ResidualSuite:
    name: str
    seed: int
    checks: list[CheckResult]
    patch_descriptor: Optional[dict] = field(default=None)

    @property
    def verdict(self) -> str:
        return "pass" if all(c.passed for c in self.checks) else "fail"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"suite": self.name, "seed": self.seed,
                "checks": [c.as_dict() for c in self.checks],
                "verdict": self.verdict}


def _check(check_id: str, residuals, tolerances: Optional[dict],
           at: Optional[tuple] = None) -> CheckResult:
    """The maximum of `residuals` (a value, a list, or an array over the
    samples `at`); a NaN or infinite residual raises NonFiniteResidual
    naming the check (and the sample, when `at` is given)."""
    r = np.asarray(residuals, dtype=float)
    require(np.isfinite(r), NonFiniteResidual,
            lambda x: f"check {check_id}: residual {x} is not finite", r, at=at)
    return CheckResult(check_id, float(r.max()),
                       resolve_tolerance(check_id, tolerances))


# ---- grid sampling ----


def _interior_batch(patch: SurfacePatch,
                    grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    (u0, u1), (v0, v1) = patch.domain
    su = min(_GRID_INSET, 0.2 * (u1 - u0))
    sv = min(_GRID_INSET, 0.2 * (v1 - v0))
    nu, nv = int(grid[0]), int(grid[1])
    if nu < 2 or nv < 2:
        raise ValueError("check grids need at least 2x2 samples")
    return grid_batch([u0 + su + (u1 - u0 - 2 * su) * i / (nu - 1) for i in range(nu)],
                      [v0 + sv + (v1 - v0 - 2 * sv) * j / (nv - 1) for j in range(nv)])


def interior_grid(patch: SurfacePatch,
                  grid: tuple[int, int]) -> list[tuple[float, float]]:
    """Uniform sample points inset from the patch boundary, u-major."""
    u, v = _interior_batch(patch, grid)
    return list(zip(u.tolist(), v.tolist()))


# ---- the grid evaluation the patch suites share ----

# rows of the partials' fields after the coordinate S (rows 0-3): (e, f, g),
# mu, the parallel frame's entries and F1's ambient components
_METRIC, _MU, _ENTRIES, _F1 = slice(4, 7), 7, slice(8, 11), slice(11, 14)


class _Evaluation:
    """What the patch suites read at the samples `s`, as values of one
    order-1 sample whose coefficients give the `partials` rows: the
    coordinate S `m`, the same S by the metric-variation route `variation`,
    the extrinsic K `k_ext`, the adapted frame and entries (a11, a12, a21,
    a22), and the parallel frame (T, JT) / sqrt|g(T,T)|, spacelike vector
    first, with its coefficients `dirs`, entries (S11, S12, S22) and
    ambient components `amb`.  The patch keeps it per grid (no reference
    back)."""

    def __init__(self, patch: SurfacePatch, u, v):
        space = patch.space
        s = _sample(patch, u, v, order=1)
        m = _second_form_shape(space, s)
        self.variation = _variation_shape(space, s)
        t_frame = s.t_frame
        jt_frame = ambient.wedge_frame(space, s.n, t_frame)
        # _adapted_frame, on T and JT taken once
        frame = (t1, t2), (j1, j2), g_tt = (
            *_tangent_coefficients(space, s.form, s.a, s.b, t_frame, jt_frame),
            ambient.frame_metric(space, t_frame, t_frame))
        # rows: T's coordinate coefficients and frame components (0-4), JT's
        # (5-9), the adapted entries a11, a12, a21, a22 (10-13), S, e, f, g
        stack = Taylor.stack((t1, t2, *t_frame, j1, j2, *jt_frame,
                              *_adapted_entries(frame, m), *m[0], *m[1],
                              s.form.e, s.form.f, s.form.g))
        rows = stack.c
        # g(T,T) = -1 - nu^2 on delta = -1 patches: JT is the spacelike one.
        # picked: F1, F2 = (T, JT) or (JT, T), then the parallel entries (S11,
        # S12, S22) = (a11, a12, a22) or (a22, a21, a11); units: F1, F2 / r
        picked = np.where(g_tt > 0.0, rows[:, [*range(12), 13]],
                          rows[:, [*range(5, 10), *range(5), 13, 12, 10]])
        r = np.sqrt(abs(g_tt))
        units = (Taylor(picked[:, :10], stack.order, stack.nvar)
                 / Taylor(r.c[:, None], r.order, r.nvar)).c
        self.partials = np.concatenate((rows[1:3, 14:21], rows[1:3, 13:14],
                                        picked[1:3, 10:], units[1:3, 2:5]), 1)
        self.s, self.m, self.frame = value((s, m, frame))
        self.k_ext = _extrinsic_k(space, self.s, self.m)
        # copies of the values, so that the stacked rows are freed
        self.adapted = tuple(rows[0, 10:14].copy())
        self.entries = picked[0, 10:].copy()
        f = units[0].copy()  # F1's coefficients and components, then F2's
        self.dirs, self.amb = (f[:2], f[5:7]), (f[2:5], f[7:])


def _grid_evaluation(patch: SurfacePatch, grid: tuple[int, int]) -> _Evaluation:
    """The patch's evaluation of its interior grid, made on first use."""
    key = (int(grid[0]), int(grid[1]))
    if key not in patch._evaluations:
        patch._evaluations[key] = _Evaluation(patch, *_interior_batch(patch, key))
    return patch._evaluations[key]


# ---- gauss ----


@quiet
def check_gauss(patch: SurfacePatch, grid: tuple[int, int] = (15, 15),
                tolerances: Optional[dict] = None) -> CheckResult:
    """max |K_intrinsic - K_extrinsic| over an interior grid."""
    ev = _grid_evaluation(patch, grid)
    # the patch's kept grid jet serves the public intrinsic K
    k_int = gaussian_curvature(patch, *ev.s.at, method="intrinsic")
    return _check("gauss.extrinsic_vs_intrinsic", abs(k_int - ev.k_ext),
                  tolerances, ev.s.at)


@quiet
def check_shape_operator_routes(patch: SurfacePatch,
                                grid: tuple[int, int] = (15, 15),
                                tolerances: Optional[dict] = None) -> CheckResult:
    """max |S_second - S_variation| / max(1, max |S_second|) over an
    interior grid: the second-form shape operator S = eps I^{-1} h against
    the grid evaluation's S from the first variation of the metric along
    the normal, both exact and in the coordinate basis.  The gauss suite
    runs it on every patch, whose S it guards."""
    ev = _grid_evaluation(patch, grid)
    analytic = shape_operator(patch, *ev.s.at).entries()  # the kept grid jet
    scale, gap = 1.0, 0.0
    for i in range(2):
        for j in range(2):
            scale = np.maximum(scale, abs(analytic[i][j]))
            gap = np.maximum(gap, abs(analytic[i][j] - ev.variation[i][j]))
    return _check("gauss.shape_operator_routes", gap / scale, tolerances,
                  ev.s.at)


# ---- codazzi ----


def _induced_christoffels(form: FirstFundamentalForm, du, dv
                          ) -> list[list[list[float]]]:
    """Christoffel symbols of the induced metric, gamma[k][i][j], index
    order (u, v), from the form and the partials du, dv of (e, f, g)."""
    # metric component matrix g[i][j] and derivative dg[l][i][j]
    g = ((form.e, form.f), (form.f, form.g))
    dg = (((du[0], du[1]), (du[1], du[2])),
          ((dv[0], dv[1]), (dv[1], dv[2])))
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    inv = ((g[1][1] / det, -g[0][1] / det), (-g[1][0] / det, g[0][0] / det))
    return [[[0.5 * sum(inv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                        for l in range(2))
              for j in range(2)] for i in range(2)] for k in range(2)]


@quiet
def check_codazzi(patch: SurfacePatch, grid: tuple[int, int] = (12, 12),
                  tolerances: Optional[dict] = None) -> CheckResult:
    """Codazzi residual with X = d/du, Y = d/dv over an interior grid: the
    grid evaluation's partials of the coordinate S plus induced-connection
    corrections, measured in ambient frame components."""
    space = patch.space
    tau = space.tau
    ev = _grid_evaluation(patch, grid)
    s, m0 = ev.s, ev.m
    du, dv = ev.partials
    gamma = _induced_christoffels(s.form, du[_METRIC], dv[_METRIC])
    # covariant d/du of S(d/dv) minus d/dv of S(d/du), coefficients k: the
    # rows of S(d/dv) are S12, S22 and those of S(d/du) S11, S21
    lhs = [(du[2 * k + 1] + sum(gamma[k][0][j] * m0[j][1] for j in range(2)))
           - (dv[2 * k] + sum(gamma[k][1][j] * m0[j][0] for j in range(2)))
           for k in range(2)]
    t_frame = s.t_frame
    g_ut = ambient.frame_metric(space, s.a, t_frame)
    g_vt = ambient.frame_metric(space, s.b, t_frame)
    factor = -4.0 * space.delta * s.eps * s.nu * tau * tau
    rhs = (-factor * g_vt, factor * g_ut)
    cu, cv = lhs[0] - rhs[0], lhs[1] - rhs[1]
    w = tuple(cu * s.a[i] + cv * s.b[i] for i in range(3))
    return _check("codazzi.coordinate_fields",
                  np.sqrt(w[0] ** 2 + w[1] ** 2 + w[2] ** 2), tolerances, s.at)


# ---- helix ODE ----


@quiet
def check_helix_ode(patch: SurfacePatch, grid: tuple[int, int] = (12, 12),
                    tolerances: Optional[dict] = None) -> CheckResult:
    """Residual of T(mu) + mu^2 nu - 4 delta tau^2 nu^3 on a constant-angle
    patch, with mu the varying adapted-basis shape entry and T(mu) from the
    grid evaluation's partials."""
    ev = _grid_evaluation(patch, grid)
    nu = ev.s.nu
    spread = nu.max() - nu.min()
    if not spread <= _CONSTANT_ANGLE_RANGE:
        raise NotAHelixPatch(f"angle function varies by {spread:.3e} over the grid")
    space = patch.space
    tau = space.tau
    (t1, t2), _, _ = _require_adapted(ev.frame, ev.s.at)
    du, dv = ev.partials
    t_mu = t1 * du[_MU] + t2 * dv[_MU]
    mu0 = ev.adapted[3]
    return _check("helix_ode.residual",
                  abs(t_mu + mu0 * mu0 * nu - 4.0 * space.delta * tau * tau * nu ** 3),
                  tolerances, ev.s.at)


# ---- parallel ----


@dataclass
class ParallelCheckInput:
    """Inputs for the parallel-surface equations on synthetic data, in a
    pseudo-orthonormal frame {F1, F2}, g(F1,F1) = 1, g(F2,F2) = -eps.  The
    callables take (u, v) as 1-D arrays and return arrays or numbers (a
    number counts for every point); they are called with all `points`, then
    with the points of all the stencil offsets stacked:
    frame_directions(u, v) -> coordinate coefficients of (F1, F2);
    entries(u, v) -> operator entries (S11, S12, S22) in that frame
    (the operator is self-adjoint, so S21 is determined);
    omega(u, v, k) -> g(nabla_{F_k} F1, F2) for k in {0, 1}."""

    eps: int  # or one int per point (an int array)
    points: Sequence[tuple[float, float]]
    frame_directions: Callable[[float, float],
                               tuple[tuple[float, float], tuple[float, float]]]
    entries: Callable[[float, float], tuple[float, float, float]]
    omega: Callable[[float, float, int], float]


def _parallel_residuals(eps, entries, along, omega):
    """Per-point max residual of the parallel equations: `along[k]` and
    `omega[k]` are X(S11, S12, S22) and w(X) for X = F_k."""
    s11, s12, s22 = entries
    worst = 0.0
    for (x_s11, x_s12, x_s22), w in zip(along, omega):
        for r in (abs(x_s11 + 2.0 * eps * s12 * w),
                  abs(x_s12 - (s22 - s11) * w),
                  abs(x_s22 - 2.0 * eps * s12 * w)):
            worst = np.maximum(worst, r)  # NaN propagates
    return worst


def parallel_equations_residuals(inp: ParallelCheckInput) -> float:
    """Max residual (NaN if any is NaN) over the points and X = F1, F2 of
        X(S11) = -2 eps S12 w(X),  X(S12) = (S22 - S11) w(X),
        X(S22) =  2 eps S12 w(X)."""
    pts = np.asarray(inp.points, dtype=float).reshape(-1, 2)
    u, v = pts[:, 0].copy(), pts[:, 1].copy()
    along = directional_diffs(inp.entries, u, v, inp.frame_directions(u, v),
                              _SURFACE_STEP)
    return float(_parallel_residuals(inp.eps, inp.entries(u, v), along,
                                     [inp.omega(u, v, k) for k in (0, 1)]).max())


@quiet
def check_parallel(patch: SurfacePatch, grid: tuple[int, int] = (12, 12),
                   tolerances: Optional[dict] = None) -> CheckResult:
    """Parallel-surface equations over an interior grid, in the unit
    adapted frame, from the grid evaluation; verdict 'pass' means the patch
    is parallel to tolerance."""
    space = patch.space
    ev = _grid_evaluation(patch, grid)
    _require_adapted(ev.frame, ev.s.at)
    du, dv = ev.partials
    w1, w2 = ev.amb
    omega = []
    for x, x_amb in zip(ev.dirs, ev.amb):
        corr = ambient.frame_connection_correction(space, x_amb, w1)
        omega.append(ambient.frame_metric(
            space, x[0] * du[_F1] + x[1] * dv[_F1] + corr, w2))
    along = [x[0] * du[_ENTRIES] + x[1] * dv[_ENTRIES] for x in ev.dirs]
    return _check("parallel.equations",
                  _parallel_residuals(ev.s.eps, ev.entries, along, omega),
                  tolerances, ev.s.at)


# ---- claims ----


@quiet
def check_claims(patch: SurfacePatch, grid: tuple[int, int] = (12, 12),
                 seed: int = DEFAULT_SEED,
                 tolerances: Optional[dict] = None) -> ResidualSuite:
    """Composite implications over a patch: parallel => constant H; on
    constant-angle patches CMC <=> parallel; K_ext equals its closed form
    4 delta eps tau^2 nu^2; H is half the varying adapted shape entry; the
    adapted off-diagonal entry stays away from 0 (non-umbilic)."""
    space = patch.space
    tau = space.tau
    # H, nu, K_ext and the adapted entries come from the parallel check's
    # grid evaluation
    parallel = check_parallel(patch, grid, tolerances=tolerances)
    ev = _grid_evaluation(patch, grid)
    s = ev.s
    a11, a12, _, a22 = ev.adapted
    at = s.at
    hs = 0.5 * (a11 + a22)
    h_range = hs.max() - hs.min()
    nu_mean = s.nu.mean()

    checks = []
    cmc_tol = resolve_tolerance("claims.parallel_implies_cmc", tolerances)
    checks.append(_check("claims.parallel_implies_cmc",
                         h_range if parallel.passed else 0.0, tolerances))
    is_cmc = h_range <= cmc_tol
    checks.append(_check("claims.cmc_iff_parallel",
                         0.0 if is_cmc == parallel.passed else 1.0, tolerances))
    target = 4.0 * space.delta * s.eps * tau * tau * nu_mean * nu_mean
    checks.append(_check("claims.constant_angle_gauss",
                         abs(ev.k_ext - target), tolerances, at))
    checks.append(_check("claims.mean_from_adapted_s22", abs(hs - 0.5 * a22),
                         tolerances, at))
    checks.append(_check("claims.non_umbilic", abs(tau) - abs(a12), tolerances,
                         at))
    return ResidualSuite("claims", seed, checks, patch_descriptor=dict(
        patch.family) if patch.family else None)


# ---- ambient ----

# frame-component curvature table R(E_i, E_j)E_k for i < j (zero rows and
# antisymmetry in (i, j) fill in the rest); entries scale as stated with
# tau^2 and the plane sign delta
_CURVATURE_TABLE = {
    (1, 2, 1): lambda d, t2: (0.0, -3.0 * t2, 0.0),
    (1, 2, 2): lambda d, t2: (-3.0 * d * t2, 0.0, 0.0),
    (1, 2, 3): lambda d, t2: (0.0, 0.0, 0.0),
    (1, 3, 1): lambda d, t2: (0.0, 0.0, t2),
    (1, 3, 2): lambda d, t2: (0.0, 0.0, 0.0),
    (1, 3, 3): lambda d, t2: (-d * t2, 0.0, 0.0),
    (2, 3, 1): lambda d, t2: (0.0, 0.0, 0.0),
    (2, 3, 2): lambda d, t2: (0.0, 0.0, -d * t2),
    (2, 3, 3): lambda d, t2: (0.0, -d * t2, 0.0),
}


def curvature_table(space: SpaceParams) -> dict[tuple[int, int, int], Vec3]:
    """The curvature tensor on frame triples (i < j) as a literal table."""
    t2 = space.tau * space.tau
    return {key: fn(space.delta, t2) for key, fn in _CURVATURE_TABLE.items()}


def curvature_from_table(space: SpaceParams, a, b, c) -> Vec3:
    """R(A, B)C by trilinear expansion of the literal frame table
    (independent of the closed coefficient formula)."""
    table = curvature_table(space)
    out = [0.0, 0.0, 0.0]
    for (i, j), coeff in (((1, 2), a[0] * b[1] - a[1] * b[0]),
                          ((1, 3), a[0] * b[2] - a[2] * b[0]),
                          ((2, 3), a[1] * b[2] - a[2] * b[1])):
        for k in (1, 2, 3):
            val = table[(i, j, k)]
            for m in range(3):
                out[m] += coeff * c[k - 1] * val[m]
    return (out[0], out[1], out[2])


def _draws(rng: random.Random, n: int, *boxes: Vec3) -> list[Vec3]:
    """One random vector per box, n times over: component i is
    rng.uniform(-h_i, h_i) for the box's half-widths h, drawn in the order
    of a loop over the n draws.  Each vector holds n-arrays.  The words of
    one getrandbits call make the doubles as rng.random() does (two 32-bit
    words each, least significant first), so the values and the state the
    stream is left in are those of the loop."""
    h = np.concatenate(boxes)
    k = n * h.size
    w = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
    r = (((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6))
         / 9007199254740992.0).reshape(n, h.size)
    cols = (-h + (h + h) * r).T
    return [tuple(cols[i:i + 3]) for i in range(0, h.size, 3)]


def check_ambient(space: SpaceParams, seed: int = DEFAULT_SEED,
                  tolerances: Optional[dict] = None) -> ResidualSuite:
    """Ambient-geometry battery on a kappa = 0 space: the frame,
    connection and curvature tables against the coordinate path (Taylor
    derivatives of the metric), the two curvature formulas against each
    other, the wedge identity of nabla E3, and sectional-curvature
    constancy on the companion space kappa = -4 tau^2.  Each check takes
    one batch of points drawn by `_draws`; the coordinate-path checks on
    this space share one connection, the companion space has its own."""
    rng = random.Random(seed)
    delta, tau = space.delta, space.tau
    kappa = -4.0 * tau * tau  # of the companion space
    if not math.isfinite(kappa):
        raise UnsupportedKappa(
            f"companion space kappa = -4 tau^2 overflows at tau = {tau!r}")
    expected_diag = (1.0, -float(delta), float(delta))
    checks: list[CheckResult] = []

    def gaps(got, want, scaled: bool = False) -> np.ndarray:
        """|got - want| per component; scaled, divided by max(1, |want|)."""
        return np.concatenate([np.ravel(abs(g - w) / np.maximum(1.0, abs(w))
                                        if scaled else abs(g - w))
                               for g, w in zip(got, want)])

    # frame orthonormality against the coordinate metric, the nine pairs
    # (i, j) on leading axes of one bilinear form
    pts, = _draws(rng, _AMBIENT_POINTS, (_POINT_BOX,) * 3)
    vectors = ambient.frame_at(space, pts).vectors()
    frame = np.array(np.broadcast_arrays(*(  # [component, vector, point]
        e[c] for c in range(3) for e in vectors))).reshape(3, 3, -1)
    g = ambient.metric_matrix(space, pts)
    checks.append(_check("ambient.frame_orthonormality", abs(
        bilinear3(g, frame[:, :, None], frame[:, None])
        - np.diag(expected_diag)[..., None]), tolerances))

    def picking(onehot):  # the field of the frame vectors one-hot columns pick
        return lambda q: lincomb3(list(zip(onehot, ambient.frame_at(space, q).vectors())))

    # D_{E_i} E_j for the nine connection-table entries (i, j) at the first
    # 15 points, in one batch: E_i read from the orthonormality check's
    # frame, the field of each entry the one-hot combination of the frame
    # fields that picks E_j
    table = ambient.connection_table(space)
    basis = np.eye(3)
    i, j = np.array(list(table)).T - 1
    p = tuple(q[:15] for q in pts)
    x, wv = (frame[:, k, :15] for k in (i, j))  # [component, entry, point]
    dw = ambient.directional_fd(picking(basis[j].T[..., None]), p, x)

    # bracket relations [E_i, E_j] = D_{E_i} E_j - D_{E_j} E_i from entries
    # 3-8, the pairs (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), at the
    # first 10 points: [component, pair, D_{E_i} E_j or D_{E_j} E_i, point]
    d = np.array(np.broadcast_arrays(*dw))[:, 3:, :10].reshape(3, 3, 2, 10)
    checks.append(_check("ambient.bracket", gaps(
        np.swapaxes(d[:, :, 0] - d[:, :, 1], 0, 1).reshape(9, 10),
        [0.0, 0.0, 2.0 * tau] + [0.0] * 6), tolerances))

    # connection table vs the algebraic covariant-derivative correction, the
    # nine entries (i, j) as one-hot columns of one batch
    checks.append(_check("ambient.connection_table", gaps(
        np.transpose(ambient.frame_connection_correction(
            space, basis[i].T, basis[j].T)), list(table.values())), tolerances))

    # one coordinate-path connection serves the connection, curvature and
    # wedge checks: at the first 15 points, then at the wedge check's 50
    a, b, c = _draws(rng, 200, _UNIT, _UNIT, _UNIT)
    v8, w8, z8 = _draws(rng, 8, _UNIT, _UNIT, _UNIT)
    p50, x50 = _draws(rng, 50, (_POINT_BOX,) * 3, _UNIT)
    conn = ambient._connection(space, tuple(map(np.concatenate, zip(p, p50))))

    # connection table vs the coordinate path's Christoffel symbols: D_{E_i}
    # E_j above plus Gamma(E_i, E_j), the nine entries on a leading axis
    gam = conn[3][..., :15]
    # Gamma^k_lm x^l w^m summed over (l, m) in l-major, m-minor order
    terms = gam[:, :, :, None] * x[:, None] * wv  # [k, l, m, entry, point]
    lm_sum = sum(np.moveaxis(terms.reshape(3, 9, 9, 15), 1, 0))
    cov = tuple(map(np.add, dw, lm_sum))
    got = np.array(ambient.to_frame_components(space, p, cov)).swapaxes(0, 1)
    checks.append(_check("ambient.connection_fd", gaps(
        got, np.array(list(table.values()))[..., None]), tolerances))

    # curvature closed formula vs the literal table on all frame triples,
    # as one-hot columns of one batch
    triples = curvature_table(space)
    checks.append(_check("ambient.curvature_table", gaps(
        np.transpose(ambient.curvature_frame(
            space, *basis[np.array(list(triples)).T - 1].swapaxes(1, 2))),
        list(triples.values())), tolerances))

    # closed formula vs trilinear table expansion on random triples
    checks.append(_check("ambient.curvature_formula_agreement", gaps(
        ambient.curvature_frame(space, a, b, c),
        curvature_from_table(space, a, b, c)), tolerances))

    # closed formula vs the coordinate path, scaled: the coordinate
    # components grow with tau and |p| (to 7e5 at tau = 20), and so does
    # their rounding
    p = tuple(q[:8] for q in pts)
    riem = ambient._riemann(*(part[..., :8] for part in conn))
    checks.append(_check("ambient.curvature_fd", gaps(
        ambient._applied(riem, v8, w8, z8),
        ambient.curvature(space, p, v8, w8, z8), scaled=True), tolerances))

    # nabla_X E3 = delta tau (X wedge E3), coordinate path vs wedge
    gam = conn[3][..., 15:]
    cov = tuple(sum(gam[k][l][2] * x50[l] for l in range(3)) for k in range(3))
    wf = ambient.wedge_frame(space, ambient.to_frame_components(space, p50, x50),
                             (0.0, 0.0, 1.0))
    checks.append(_check("ambient.grad_e3_wedge", gaps(
        ambient.to_frame_components(space, p50, cov),
        [delta * tau * wf[m] for m in range(3)]), tolerances))

    # sectional curvature constant on the kappa = -4 tau^2 companion space.
    # Its conformal factor vanishes on the circle of radius 1/|tau|
    # (delta = -1), so the (x, y) box shrinks with |tau|.
    sibling = SpaceParams(delta=delta, tau=tau, kappa=kappa)
    box = 0.15 / max(1.0, abs(tau))
    # reject ill-conditioned planes, whose small area denominator amplifies
    # rounding in the curvature numerator; the first 20 accepted are used
    planes = np.empty((9, 0))  # rows: the components of p, v and w
    for _ in range(_PLANE_ATTEMPTS // _PLANE_CHUNK):
        p, v, w = _draws(rng, _PLANE_CHUNK, (box, box, 1.0), _UNIT, _UNIT)
        g = ambient.metric_matrix(sibling, p)
        m_vv, m_ww, m_vw = (bilinear3(g, v, v), bilinear3(g, w, w),
                            bilinear3(g, v, w))
        keep = np.flatnonzero(abs(m_vv * m_ww - m_vw * m_vw) >= 0.2 * np.maximum(
            np.maximum(abs(m_vv * m_ww), m_vw * m_vw), 1e-12))
        planes = np.concatenate((planes, np.array([*p, *v, *w])[:, keep]), axis=1)
        if planes.shape[1] >= 20:
            break
    if not planes.size:  # no spread to measure: not a verdict on the curvature
        raise DegeneratePlane(
            f"ambient.sectional_constancy: no well-conditioned tangent plane "
            f"in {_PLANE_ATTEMPTS} random attempts")
    values = ambient.sectional_curvature(
        sibling, *(tuple(q) for q in np.split(planes[:, :20], 3)), method="fd")
    checks.append(_check("ambient.sectional_constancy",
                         np.max(values) - np.min(values), tolerances))

    return ResidualSuite("ambient", seed, checks)


# ---- dispatch ----


def default_family_matrix(tau: float = 1.0) -> list[SurfacePatch]:
    """One representative patch per classified family (the regression gate)."""
    from .families import (EtaSpec, HelixProfile, make_cmc_cylinder,
                           make_helix_surface, make_minimal_plane)
    phi0 = 0.4
    return [
        make_minimal_plane(-1, "timelike", phi0, tau=tau),
        make_minimal_plane(1, "timelike", phi0, tau=tau),
        make_minimal_plane(1, "spacelike", phi0, tau=tau),
        make_cmc_cylinder(-1, "timelike", tau),
        make_cmc_cylinder(1, "timelike", tau),
        make_cmc_cylinder(1, "spacelike", tau),
        make_helix_surface(HelixProfile("spacelike", tau, math.asinh(1.0),
                                        c=0.1, eta=EtaSpec("linear", (0.0, 1.0)))),
        make_helix_surface(HelixProfile("timelike", tau, math.pi / 4.0,
                                        c=0.1, eta=EtaSpec("linear", (0.0, 1.0)))),
    ]


def run_suite(name: str, *, patch: Optional[SurfacePatch] = None,
              grid: tuple[int, int] = (12, 12), seed: int = DEFAULT_SEED,
              tolerances: Optional[dict] = None) -> ResidualSuite:
    """Run one named suite on a patch; 'ambient' runs on the patch's
    space."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    if patch is None:
        raise ValueError(f"suite {name!r} needs a patch")
    if name == "ambient":
        return check_ambient(patch.space, seed=seed, tolerances=tolerances)
    if name == "claims":
        return check_claims(patch, grid, seed=seed, tolerances=tolerances)
    check = {"gauss": check_gauss, "codazzi": check_codazzi,
             "helix_ode": check_helix_ode, "parallel": check_parallel}[name]
    checks = [check(patch, grid, tolerances=tolerances)]
    if name == "gauss":
        checks.append(check_shape_operator_routes(patch, grid,
                                                  tolerances=tolerances))
    return ResidualSuite(name, seed, checks, patch_descriptor=dict(
        patch.family) if patch.family else None)


def merge_suites(suites: Sequence[ResidualSuite], seed: int) -> ResidualSuite:
    """Single report object for several suites ('+'-joined name,
    concatenated checks)."""
    name = "+".join(s.name for s in suites)
    checks = [c for s in suites for c in s.checks]
    return ResidualSuite(name, seed, checks)
