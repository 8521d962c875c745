"""Named, tolerance-tagged residual suites over ambient spaces and patches.

Each check turns one proved identity into a machine-checkable residual:

- ``check_gauss``: intrinsic Gaussian curvature against the extrinsic
  curvature relation; the gauss suite also runs
  ``check_shape_operator_routes``, the second-form shape operator
  S = eps I^{-1} h against the Weingarten route on a sparse subgrid.
- ``check_codazzi``: the Codazzi equation for the shape-operator field with
  coordinate fields X = d/du, Y = d/dv, realized with finite differences of
  the S-field plus induced-connection corrections.
- ``check_helix_ode``: the ODE satisfied by the non-constant shape entry of
  a constant-angle patch, with a directional derivative along T.
- ``check_parallel``: the three parallel-surface equations in the unit
  adapted frame (T, JT) / sqrt|g(T,T)|, the spacelike vector first; also
  usable on synthetic inputs through :func:`parallel_equations_residuals`.
- ``check_claims``: composite implications (parallel => constant mean
  curvature, constant-angle CMC <=> parallel, the constant-curvature value,
  trace bookkeeping, non-umbilicity).
- ``check_ambient``: the ambient frame/connection/curvature tables against
  the dual-number coordinate path, the two curvature formulas against
  each other, and sectional-curvature constancy on the matching
  constant-curvature parameter choice, each on one batch of random points.

Every patch check evaluates its grid as one batch of samples (and all the
offsets of its stencil, stacked, as one more batch), and reports the
maximum residual; a NaN or infinite residual raises
:class:`~heisgeo.errors.NonFiniteResidual` instead of passing or failing.
Every suite is deterministic given (inputs, grid, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import ambient
from .ambient import SpaceParams
from .errors import (DegeneratePlane, NonFiniteResidual, NotAHelixPatch,
                     StencilTooCoarse, UnsupportedKappa)
from .numeric import (Vec3, as_vec3, bilinear3, directional_diffs, quiet,
                      require, select)
from .surface import (
    FirstFundamentalForm,
    SurfacePatch,
    _adapted_entries,
    _adapted_frame,
    _extrinsic_k,
    _sample,
    _second_form_shape,
    _weingarten_shape,
    gaussian_curvature,
    grid_batch,
    shape_operator,
)

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
# sparse subgrid of the shape-operator route check (5 jets per point)
_ROUTE_GRID = (4, 4)
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
    grid: Optional[tuple[int, int]] = None
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
    """The check's result: the maximum of `residuals` (one value, a list, or
    an array over the samples `at`).  A NaN or infinite residual cannot
    pass or fail: it raises NonFiniteResidual naming the check (and the
    sample, when `at` is given)."""
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
    """Uniform sample points inset from the patch boundary (stencil
    headroom), u-major."""
    u, v = _interior_batch(patch, grid)
    return list(zip(u.tolist(), v.tolist()))


# ---- gauss ----


@quiet
def check_gauss(patch: SurfacePatch, grid: tuple[int, int] = (15, 15),
                tolerances: Optional[dict] = None) -> CheckResult:
    """max |K_intrinsic - K_extrinsic| over an interior grid."""
    u, v = _interior_batch(patch, grid)
    k_ext = gaussian_curvature(patch, u, v, method="extrinsic")
    k_int = gaussian_curvature(patch, u, v, method="intrinsic")
    return _check("gauss.extrinsic_vs_intrinsic", abs(k_int - k_ext),
                  tolerances, (u, v))


@quiet
def check_shape_operator_routes(patch: SurfacePatch,
                                tolerances: Optional[dict] = None) -> CheckResult:
    """max |S_second - S_Weingarten| / max(1, max |S_second|) over a sparse
    interior grid: the second-form shape operator S = eps I^{-1} h against
    the finite difference of the normal field, both in the coordinate basis.

    The gauss suite runs it on every patch, whose S it guards; on patches
    without `jet=` both routes also carry the differenced jet's error.
    """
    u, v = _interior_batch(patch, _ROUTE_GRID)
    s = _sample(patch, u, v)
    analytic = _second_form_shape(patch.space, s)
    weingarten = _weingarten_shape(patch, u, v, s)
    scale, gap = 1.0, 0.0
    for i in range(2):
        for j in range(2):
            scale = np.maximum(scale, abs(analytic[i][j]))
            gap = np.maximum(gap, abs(analytic[i][j] - weingarten[i][j]))
    return _check("gauss.shape_operator_routes", gap / scale, tolerances, (u, v))


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
    gamma = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                acc = 0.0
                for l in range(2):
                    acc += inv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                gamma[k][i][j] = 0.5 * acc
    return gamma


@quiet
def check_codazzi(patch: SurfacePatch, grid: tuple[int, int] = (12, 12),
                  tolerances: Optional[dict] = None) -> CheckResult:
    """Codazzi residual with X = d/du, Y = d/dv over an interior grid.

    The covariant derivative of the S-field uses central differences of the
    coordinate-basis S matrix plus induced-connection corrections; the
    comparison vector is measured in ambient frame components.  The grid is
    one batch, and its 8 stencil offsets are one more.
    """
    (u0, u1), (v0, v1) = patch.domain
    if 2.0 * _SURFACE_STEP > 0.25 * min(u1 - u0, v1 - v0):
        raise StencilTooCoarse(
            f"stencil step {_SURFACE_STEP} too large for domain {patch.domain}")
    space = patch.space
    tau = space.tau

    def fields(uu, vv, *at):
        # (S11, S12, S21, S22, e, f, g): S in the coordinate basis and the
        # induced metric, from one sample batch
        s = _sample(patch, uu, vv, at)  # guards name the grid sample
        m = _second_form_shape(space, s)
        form = s.form
        return (*m[0], *m[1], form.e, form.f, form.g)

    u, v = _interior_batch(patch, grid)
    s = _sample(patch, u, v)
    m0 = _second_form_shape(space, s)
    du, dv = directional_diffs(fields, u, v, ((1.0, 0.0), (0.0, 1.0)),
                               _SURFACE_STEP, order=4)
    # d/du of S(d/dv) and d/dv of S(d/du), coefficient 2-vectors
    du_sv = (du[1], du[3])
    dv_su = (dv[0], dv[2])
    gamma = _induced_christoffels(s.form, du[4:], dv[4:])
    s_col_v = (m0[0][1], m0[1][1])
    s_col_u = (m0[0][0], m0[1][0])
    lhs = [0.0, 0.0]
    for k in range(2):
        cu = du_sv[k] + sum(gamma[k][0][j] * s_col_v[j] for j in range(2))
        cv = dv_su[k] + sum(gamma[k][1][j] * s_col_u[j] for j in range(2))
        lhs[k] = cu - cv
    t_frame = s.t_frame
    g_ut = ambient.frame_metric(space, s.a, t_frame)
    g_vt = ambient.frame_metric(space, s.b, t_frame)
    factor = -4.0 * space.delta * s.eps * s.nu * tau * tau
    rhs = (-factor * g_vt, factor * g_ut)
    cu, cv = lhs[0] - rhs[0], lhs[1] - rhs[1]
    w = tuple(cu * s.a[i] + cv * s.b[i] for i in range(3))
    return _check("codazzi.coordinate_fields",
                  np.sqrt(w[0] ** 2 + w[1] ** 2 + w[2] ** 2), tolerances, (u, v))


# ---- helix ODE ----


@quiet
def check_helix_ode(patch: SurfacePatch, grid: tuple[int, int] = (12, 12),
                    tolerances: Optional[dict] = None) -> CheckResult:
    """Residual of T(mu) + mu^2 nu - 4 delta tau^2 nu^3 on a constant-angle
    patch, with mu the varying adapted-basis shape entry, differenced along
    each sample's own T (its stencil offsets as one batch)."""
    u, v = _interior_batch(patch, grid)
    s = _sample(patch, u, v)
    nu = s.nu
    spread = nu.max() - nu.min()
    if not spread <= _CONSTANT_ANGLE_RANGE:
        raise NotAHelixPatch(f"angle function varies by {spread:.3e} over the grid")
    space = patch.space
    tau = space.tau
    frame = _adapted_frame(space, s)
    t1, t2 = frame[0]
    t_mu, = directional_diffs(
        lambda uu, vv, *at: shape_operator(patch, uu, vv, basis="adapted-TJT",
                                           at=at).s22,
        u, v, ((t1, t2),), _SURFACE_STEP, order=4)
    mu0 = _adapted_entries(frame, _second_form_shape(space, s), s.at)[3]
    return _check("helix_ode.residual",
                  abs(t_mu + mu0 * mu0 * nu - 4.0 * space.delta * tau * tau * nu ** 3),
                  tolerances, (u, v))


# ---- parallel ----


@dataclass
class ParallelCheckInput:
    """Inputs for the parallel-surface equations in a pseudo-orthonormal
    tangent frame {F1, F2} with g(F1,F1) = 1 and g(F2,F2) = -eps.
    :func:`check_parallel` uses the unit adapted frame (T, JT) / sqrt|g(T,T)|,
    the spacelike vector first.

    The callables take (u, v) as floats or as 1-D arrays (a batch of
    points) and return floats or arrays over the batch; a returned number
    still counts for every point.  The check calls them with all `points`
    at once, then with the points of all its stencil offsets stacked:

    frame_directions(u, v) -> coordinate coefficients of (F1, F2);
    entries(u, v) -> operator entries (S11, S12, S22) in that frame
    (the operator is self-adjoint, so S21 is determined);
    omega(u, v, k) -> g(nabla_{F_k} F1, F2) for k in {0, 1}.
    """

    eps: int  # or one int per point (an int array), as on patches
    points: Sequence[tuple[float, float]]
    frame_directions: Callable[[float, float],
                               tuple[tuple[float, float], tuple[float, float]]]
    entries: Callable[[float, float], tuple[float, float, float]]
    omega: Callable[[float, float, int], float]


def _parallel_residuals(inp: ParallelCheckInput):
    """Per-point max residual of the parallel equations, and the points."""
    pts = np.asarray(inp.points, dtype=float).reshape(-1, 2)
    u, v = pts[:, 0].copy(), pts[:, 1].copy()
    eps = inp.eps
    dirs = inp.frame_directions(u, v)
    s11, s12, s22 = inp.entries(u, v)
    worst = np.zeros_like(u)
    along = directional_diffs(lambda uu, vv, *at: inp.entries(uu, vv), u, v,
                              dirs, _SURFACE_STEP)
    for k in (0, 1):
        x_s11, x_s12, x_s22 = along[k]
        w = inp.omega(u, v, k)
        for r in (abs(x_s11 + 2.0 * eps * s12 * w),
                  abs(x_s12 - (s22 - s11) * w),
                  abs(x_s22 - 2.0 * eps * s12 * w)):
            worst = np.maximum(worst, r)  # NaN propagates
    return worst, (u, v)


def parallel_equations_residuals(inp: ParallelCheckInput) -> float:
    """Max residual of the three parallel-surface equations

        X(S11) = -2 eps S12 w(X)
        X(S12) = (S22 - S11) w(X)
        X(S22) =  2 eps S12 w(X)

    over the given points with X ranging over the frame (NaN if any
    residual is NaN)."""
    return float(_parallel_residuals(inp)[0].max())


def _parallel_input(patch: SurfacePatch, points: Sequence[tuple[float, float]]
                    ) -> tuple[ParallelCheckInput, tuple]:
    """Parallel-check input on the patch, and the centre batch it evaluates
    once, up front: the samples at `points`, their coordinate S and adapted
    entries (a11, a12, a21, a22).  Its eps holds one causal character per
    point."""
    space = patch.space
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    u0, v0 = pts[:, 0].copy(), pts[:, 1].copy()

    def evaluate(u, v):
        """Frame directions (F1, F2), entries (S11, S12, S22), the frame's
        ambient components (w1, w2), and the sample batch, coordinate S and
        adapted entries at (u, v).  The frame is (T, JT) / r with
        r = sqrt|g(T,T)|, swapped where T is timelike so that F1 is the
        spacelike vector."""
        # the centre batch or its offsets, offset-major: name the grid samples
        reps = np.size(u) // u0.size
        s = _sample(patch, u, v, (np.tile(u0, reps), np.tile(v0, reps)))
        m = _second_form_shape(space, s)
        frame = _adapted_frame(space, s)
        adapted = _adapted_entries(frame, m, s.at)
        a11, a12, a21, a22 = adapted
        (t1, t2), (j1, j2), g_tt = frame
        r = np.sqrt(abs(g_tt))
        t_frame = s.t_frame
        jt_frame = ambient.wedge_frame(space, s.n, t_frame)
        # g(T,T) = -1 - nu^2 on delta = -1 patches: JT is the spacelike one
        t_first = g_tt > 0.0
        dirs = (select(t_first, (t1 / r, t2 / r), (j1 / r, j2 / r)),
                select(t_first, (j1 / r, j2 / r), (t1 / r, t2 / r)))
        w_t = tuple(c / r for c in t_frame)
        w_jt = tuple(c / r for c in jt_frame)
        amb = (select(t_first, w_t, w_jt), select(t_first, w_jt, w_t))
        return (dirs, select(t_first, (a11, a12, a22), (a22, a21, a11)), amb,
                (s, m, adapted))

    # the entries and the ambient frame are differenced at the same displaced
    # points: a cache keyed by the points' bytes holds the centre batch and
    # the batch of its 4 stencil offsets
    cache: dict = {}

    def point(u, v):
        k = np.shape(u), np.asarray(u).tobytes(), np.asarray(v).tobytes()
        if k not in cache:
            cache[k] = evaluate(u, v)
        return cache[k]

    centre = point(u0, v0)[3]

    def omega(u, v, k: int):
        dirs, _, (w1, w2), _ = point(u, v)
        dw = directional_diffs(lambda uu, vv, *at: point(uu, vv)[2][0], u, v,
                               dirs, _SURFACE_STEP)[k]
        x_amb = (w1, w2)[k]
        corr = ambient.frame_connection_correction(space, x_amb, w1)
        nab = tuple(dw[i] + corr[i] for i in range(3))
        return ambient.frame_metric(space, nab, w2)

    return ParallelCheckInput(centre[0].eps, points, lambda u, v: point(u, v)[0],
                              lambda u, v: point(u, v)[1], omega), centre


@quiet
def check_parallel(patch: SurfacePatch, grid: tuple[int, int] = (12, 12),
                   tolerances: Optional[dict] = None, *,
                   inp: Optional[ParallelCheckInput] = None) -> CheckResult:
    """Parallel-surface equations over an interior grid; verdict 'pass'
    means the patch is parallel to tolerance.  `inp` is the input that
    :func:`_parallel_input` builds for this patch and grid when not given;
    :func:`check_claims` passes its own so both read one evaluation per
    point."""
    if inp is None:
        inp = _parallel_input(patch, interior_grid(patch, grid))[0]
    worst, at = _parallel_residuals(inp)
    return _check("parallel.equations", worst, tolerances, at)


# ---- claims ----


@quiet
def check_claims(patch: SurfacePatch, grid: tuple[int, int] = (12, 12),
                 seed: int = DEFAULT_SEED,
                 tolerances: Optional[dict] = None) -> ResidualSuite:
    """Composite implications over a patch:

    - parallel => mean curvature constant,
    - on constant-angle patches, CMC <=> parallel,
    - extrinsic curvature equals its constant-angle closed form
      4 delta eps tau^2 nu^2,
    - H equals half the varying adapted shape entry,
    - the adapted off-diagonal entry stays away from 0 (non-umbilic).
    """
    space = patch.space
    tau = space.tau
    # the parallel check evaluates the grid as one batch; H, nu, K_ext and
    # the adapted entries are read from that same evaluation
    inp, (s, m, (a11, a12, _, a22)) = _parallel_input(
        patch, interior_grid(patch, grid))
    parallel = check_parallel(patch, grid, tolerances=tolerances, inp=inp)
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
    target = 4.0 * space.delta * inp.eps * tau * tau * nu_mean * nu_mean
    checks.append(_check("claims.constant_angle_gauss",
                         abs(_extrinsic_k(space, s, m) - target), tolerances, at))
    checks.append(_check("claims.mean_from_adapted_s22", abs(hs - 0.5 * a22),
                         tolerances, at))
    checks.append(_check("claims.non_umbilic", abs(tau) - abs(a12), tolerances,
                         at))
    return ResidualSuite("claims", seed, checks, grid=grid,
                         patch_descriptor=dict(patch.family) if patch.family else None)


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
    of a loop over the n draws.  Each vector holds n-arrays."""
    h = np.concatenate(boxes)
    r = np.array([rng.random() for _ in range(n * h.size)]).reshape(n, h.size)
    cols = (-h + (h + h) * r).T
    return [tuple(cols[i:i + 3]) for i in range(0, h.size, 3)]


def check_ambient(space: SpaceParams, seed: int = DEFAULT_SEED,
                  tolerances: Optional[dict] = None) -> ResidualSuite:
    """Ambient-geometry battery on a kappa = 0 space.

    Cross-checks the frame/connection/curvature tables against the
    coordinate path (dual-number derivatives of the metric), the two
    curvature formulas against each other on random triples, the
    covariant-derivative wedge identity of the vertical direction, and
    sectional-curvature constancy on the companion space with
    kappa = -4 tau^2.  Each check evaluates its random points as one batch;
    the coordinate-path checks on this space share one connection.
    """
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

    # frame orthonormality against the coordinate metric
    pts, = _draws(rng, _AMBIENT_POINTS, (_POINT_BOX,) * 3)
    vecs = [as_vec3(e) for e in ambient.frame_at(space, pts).vectors()]
    g = ambient.metric_matrix(space, pts)
    checks.append(_check("ambient.frame_orthonormality", gaps(
        [bilinear3(g, vecs[i], vecs[j]) for i in range(3) for j in range(3)],
        [expected_diag[i] if i == j else 0.0
         for i in range(3) for j in range(3)]), tolerances))

    # bracket relations by dual-number derivatives of the frame fields
    fields = [ambient.frame_field(space, i) for i in (1, 2, 3)]
    p = tuple(q[:10] for q in pts)
    checks.append(_check("ambient.bracket", gaps(
        [*ambient.commutator_fd(fields[0], fields[1], p),
         *ambient.commutator_fd(fields[0], fields[2], p),
         *ambient.commutator_fd(fields[1], fields[2], p)],
        [0.0, 0.0, 2.0 * tau] + [0.0] * 6), tolerances))

    # connection table vs the algebraic covariant-derivative correction
    table = ambient.connection_table(space)
    basis = {1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0), 3: (0.0, 0.0, 1.0)}
    got, want = [], []
    for (i, j), w in table.items():
        got += ambient.frame_connection_correction(space, basis[i], basis[j])
        want += w
    checks.append(_check("ambient.connection_table", gaps(got, want),
                         tolerances))

    # one coordinate-path connection serves the connection, curvature and
    # wedge checks: at the first 15 points, then at the wedge check's 50
    p = tuple(q[:15] for q in pts)
    a, b, c = _draws(rng, 200, _UNIT, _UNIT, _UNIT)
    v8, w8, z8 = _draws(rng, 8, _UNIT, _UNIT, _UNIT)
    p50, x50 = _draws(rng, 50, (_POINT_BOX,) * 3, _UNIT)
    conn = ambient._connection(space, tuple(map(np.concatenate, zip(p, p50))))

    # connection table vs the coordinate path's Christoffel symbols
    gam = conn[3][..., :15]
    frame_vecs = dict(zip((1, 2, 3), ambient.frame_at(space, p).vectors()))
    got, want = [], []
    for (i, j), w in table.items():
        x, wv = frame_vecs[i], frame_vecs[j]
        dw = ambient.directional_fd(fields[j - 1], p, x)
        cov = tuple(dw[k] + sum(gam[k][l][m] * x[l] * wv[m]
                                for l in range(3) for m in range(3))
                    for k in range(3))
        got += ambient.to_frame_components(space, p, cov)
        want += w
    checks.append(_check("ambient.connection_fd", gaps(got, want), tolerances))

    # curvature closed formula vs the literal table on all frame triples
    got, want = [], []
    for (i, j, k), w in curvature_table(space).items():
        got += ambient.curvature_frame(space, basis[i], basis[j], basis[k])
        want += w
    checks.append(_check("ambient.curvature_table", gaps(got, want),
                         tolerances))

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
        m_vv = ambient.metric_eval(sibling, p, v, v)
        m_ww = ambient.metric_eval(sibling, p, w, w)
        m_vw = ambient.metric_eval(sibling, p, v, w)
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
        suite = check_ambient(patch.space, seed=seed, tolerances=tolerances)
        suite.grid = grid
        return suite
    descriptor = dict(patch.family) if patch.family else None
    if name == "claims":
        suite = check_claims(patch, grid, seed=seed, tolerances=tolerances)
        return suite
    if name == "gauss":
        checks = [check_gauss(patch, grid, tolerances=tolerances),
                  check_shape_operator_routes(patch, tolerances=tolerances)]
    elif name == "codazzi":
        checks = [check_codazzi(patch, grid, tolerances=tolerances)]
    elif name == "helix_ode":
        checks = [check_helix_ode(patch, grid, tolerances=tolerances)]
    else:
        checks = [check_parallel(patch, grid, tolerances=tolerances)]
    return ResidualSuite(name, seed, checks, grid=grid,
                         patch_descriptor=descriptor)


def merge_suites(suites: Sequence[ResidualSuite], seed: int) -> ResidualSuite:
    """Single report object for several suites ('+'-joined name,
    concatenated checks)."""
    name = "+".join(s.name for s in suites)
    checks = [c for s in suites for c in s.checks]
    return ResidualSuite(name, seed, checks)
