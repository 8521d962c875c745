"""Unit tests for the residual suites and verification plumbing."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from heisgeo.ambient import SpaceParams, curvature_frame
from heisgeo.errors import (DegeneratePlane, NonFiniteResidual, NotAHelixPatch,
                            StencilTooCoarse)
from heisgeo.families import (
    EtaSpec,
    HelixProfile,
    make_cmc_cylinder,
    make_helix_surface,
    make_minimal_plane,
)
import heisgeo.surface as surface_module
import heisgeo.verify as verify_module
from heisgeo.surface import (
    SurfacePatch,
    _adapted_entries,
    _adapted_frame,
    _coordinate_shape,
    _sample,
)
from heisgeo.verify import (
    DEFAULT_SEED,
    DEFAULT_TOLERANCES,
    ParallelCheckInput,
    _parallel_input,
    ResidualSuite,
    SUITE_NAMES,
    check_ambient,
    check_claims,
    check_codazzi,
    check_gauss,
    check_helix_ode,
    check_parallel,
    check_shape_operator_routes,
    curvature_from_table,
    curvature_table,
    default_family_matrix,
    interior_grid,
    merge_suites,
    parallel_equations_residuals,
    resolve_tolerance,
    run_suite,
)

ASINH1 = math.asinh(1.0)


def spacelike_helix(tau: float = 1.0) -> SurfacePatch:
    return make_helix_surface(HelixProfile(
        "spacelike", tau, ASINH1, c=0.1, eta=EtaSpec("linear", (0.0, 1.0))))


# ------------------------------------------------------------ tolerances


def test_resolve_tolerance_layers():
    assert resolve_tolerance("gauss.extrinsic_vs_intrinsic") == 1e-5
    assert resolve_tolerance("gauss.extrinsic_vs_intrinsic",
                             {"gauss.extrinsic_vs_intrinsic": 1e-3}) == 1e-3
    # a bare suite name overrides every check underneath it
    assert resolve_tolerance("gauss.extrinsic_vs_intrinsic",
                             {"gauss": 2e-2}) == 2e-2
    with pytest.raises(KeyError):
        resolve_tolerance("no.such_check")


def test_default_tolerances_cover_all_suites():
    prefixes = {k.split(".", 1)[0] for k in DEFAULT_TOLERANCES}
    assert prefixes == set(SUITE_NAMES)


# ------------------------------------------------------------ grids


def test_interior_grid_stays_inside():
    patch = make_cmc_cylinder(-1, "timelike", 1.0)
    (u0, u1), (v0, v1) = patch.domain
    pts = interior_grid(patch, (7, 5))
    assert len(pts) == 35
    for (u, v) in pts:
        assert u0 < u < u1 and v0 < v < v1
    with pytest.raises(ValueError):
        interior_grid(patch, (1, 5))


# ------------------------------------------------------------ pde residual suites


def test_gauss_residuals_by_family():
    # angle-function-zero families: both curvature routes agree very tightly
    plane = make_minimal_plane(1, "spacelike", 0.7)
    assert check_gauss(plane, (8, 8)).max_residual < 1e-8
    cyl = make_cmc_cylinder(-1, "timelike", 1.0)
    assert check_gauss(cyl, (8, 8)).max_residual < 1e-6
    helix = spacelike_helix()
    res = check_gauss(helix, (10, 10))
    assert res.passed
    assert res.max_residual < 1e-5


def test_codazzi_residuals_by_family():
    cyl = make_cmc_cylinder(1, "timelike", 0.5)
    assert check_codazzi(cyl, (8, 8)).max_residual < 1e-6
    helix = spacelike_helix()
    res = check_codazzi(helix, (8, 8))
    assert res.passed
    assert res.max_residual < 1e-4
    assert res.check_id == "codazzi.coordinate_fields"


def test_codazzi_stencil_guard():
    cyl = make_cmc_cylinder(1, "timelike", 0.5,
                            domain=((-0.003, 0.003), (-0.003, 0.003)))
    with pytest.raises(StencilTooCoarse):
        check_codazzi(cyl, (4, 4))


def test_helix_ode_residual():
    res = check_helix_ode(spacelike_helix(), (8, 8))
    assert res.passed
    assert res.max_residual < 1e-5


def test_helix_ode_rejects_varying_angle():
    space = SpaceParams(delta=1, tau=1.0)
    patch = SurfacePatch(space, lambda u, v: (u, v, 0.0),
                         ((-0.3, 0.3), (-0.3, 0.3)))
    with pytest.raises(NotAHelixPatch):
        check_helix_ode(patch, (5, 5))


#: SurfacePatch.jet calls per patch suite on a new spacelike helix at (8, 8),
#: one of them for the normal gauge.  A call is one batch: the grid, or one
#: stencil offset of it (gauss: the grid, 9 intrinsic-K offsets, the route
#: check's 4x4 grid and its 4 Weingarten offsets; codazzi: the grid and 8
#: offsets; helix_ode: the grid and 4; parallel and claims: the centre's
#: causal character, the grid and 4).  A suite that starts resampling points
#: it already has, or loops over them, fails here
JET_BUDGET = {"gauss": 16, "codazzi": 10, "helix_ode": 6,
              "parallel": 7, "claims": 7}


@pytest.mark.parametrize("suite", sorted(JET_BUDGET))
def test_suite_jet_counts_within_budget(monkeypatch, suite):
    calls = [0]
    jet = SurfacePatch.jet

    def counting_jet(self, u, v, **kwargs):
        calls[0] += 1
        return jet(self, u, v, **kwargs)

    monkeypatch.setattr(SurfacePatch, "jet", counting_jet)
    run_suite(suite, patch=spacelike_helix(), grid=(8, 8))
    assert calls[0] <= JET_BUDGET[suite]


@pytest.mark.parametrize("suite", sorted(JET_BUDGET))
def test_weingarten_route_only_in_the_route_check(monkeypatch, suite):
    """On an analytic patch every shape operator is S = eps I^{-1} h; the
    Weingarten route runs only in gauss.shape_operator_routes, once per
    point of its 4x4 subgrid (one call on the batch of 16 points)."""
    calls = [0]
    weingarten = surface_module._weingarten_shape

    def counting(*args):
        calls[0] += np.size(args[1])  # the points of the batch
        return weingarten(*args)

    monkeypatch.setattr(surface_module, "_weingarten_shape", counting)
    monkeypatch.setattr(verify_module, "_weingarten_shape", counting)
    run_suite(suite, patch=spacelike_helix(), grid=(6, 6))
    assert calls[0] == (16 if suite == "gauss" else 0)


def test_route_check_guards_analytic_patches_only():
    """Patches without jet= take the Weingarten route for S and difference
    their second partials, so both routes carry the jet's error there: they
    agree to its size, not to the check's tolerance, and the gauss suite
    leaves the route check out."""
    for patch in default_family_matrix():
        ids = [c.check_id for c in run_suite("gauss", patch=patch, grid=(4, 4)).checks]
        assert ids == ["gauss.extrinsic_vs_intrinsic", "gauss.shape_operator_routes"]
        fd = SurfacePatch(patch.space, patch.position, patch.domain)
        ids = [c.check_id for c in run_suite("gauss", patch=fd, grid=(4, 4)).checks]
        assert ids == ["gauss.extrinsic_vs_intrinsic"]
        assert check_shape_operator_routes(fd).max_residual < 2e-5


# ------------------------------------------------------------ parallel


def frame_patches() -> list[SurfacePatch]:
    return default_family_matrix() + [make_helix_surface(HelixProfile(
        "timelike", 1.0, math.pi / 4.0, c=0.1,
        eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0))))]


@pytest.mark.parametrize("index", range(9))
def test_parallel_frame_is_the_unit_adapted_frame(index):
    """check_parallel runs in (T, JT)/|T|, spacelike vector first: the frame
    is pseudo-orthonormal and its entries are the adapted ones, swapped to
    (a22, a21, a11) where T is timelike (delta = -1)."""
    patch = frame_patches()[index]
    pts = interior_grid(patch, (4, 4))
    inp = _parallel_input(patch, pts)
    for (u, v) in pts:
        s = _sample(patch, u, v)
        pair = s.form.pair
        f1, f2 = inp.frame_directions(u, v)
        assert pair(f1, f1) == pytest.approx(1.0, abs=1e-12)
        assert pair(f2, f2) == pytest.approx(-inp.eps, abs=1e-12)
        assert abs(pair(f1, f2)) <= 1e-12
        a11, a12, a21, a22 = _adapted_entries(
            _adapted_frame(patch.space, s), _coordinate_shape(patch, u, v, s))
        want = (a11, a12, a22) if patch.space.delta == 1 else (a22, a21, a11)
        assert inp.entries(u, v) == want


def test_parallel_synthetic_multiple_of_identity():
    """S = lambda * I with a flat frame solves the parallel equations
    exactly; perturbing one entry with a coordinate-dependent term breaks
    them."""
    pts = [(0.1 * i, 0.05 * j) for i in range(4) for j in range(4)]
    constant = ParallelCheckInput(
        eps=1,
        points=pts,
        frame_directions=lambda u, v: ((1.0, 0.0), (0.0, 1.0)),
        entries=lambda u, v: (0.7, 0.0, 0.7),
        omega=lambda u, v, k: 0.0,
    )
    assert parallel_equations_residuals(constant, 1e-3) == 0.0

    varying = ParallelCheckInput(
        eps=1,
        points=pts,
        frame_directions=lambda u, v: ((1.0, 0.0), (0.0, 1.0)),
        entries=lambda u, v: (0.7 + u, 0.0, 0.7),
        omega=lambda u, v, k: 0.0,
    )
    assert parallel_equations_residuals(varying, 1e-3) > 0.5


def test_parallel_verdicts_by_family():
    assert check_parallel(make_minimal_plane(-1, "timelike", 0.4), (6, 6)).passed
    assert check_parallel(make_cmc_cylinder(-1, "timelike", 1.0), (6, 6)).passed
    assert check_parallel(make_cmc_cylinder(1, "spacelike", 0.5), (6, 6)).passed
    helix = check_parallel(spacelike_helix(), (6, 6))
    assert not helix.passed
    assert helix.max_residual > 0.1  # O(1): the entry mu genuinely varies


def test_parallel_residuals_propagate_nan():
    """A NaN entry at one point makes the maximum NaN; max(0.0, nan) == 0.0
    used to drop it."""
    pts = [(0.1 * i, 0.0) for i in range(4)]
    inp = ParallelCheckInput(
        eps=1,
        points=pts,
        frame_directions=lambda u, v: ((1.0, 0.0), (0.0, 1.0)),
        entries=lambda u, v: (np.where(u > 0.25, np.nan, 0.7), 0.0, 0.7),
        omega=lambda u, v, k: 0.0,
    )
    assert math.isnan(parallel_equations_residuals(inp, 1e-3))


def timelike_linear_helix() -> SurfacePatch:
    return make_helix_surface(HelixProfile(
        "timelike", 1.0, math.pi / 4.0, c=0.1, eta=EtaSpec("linear", (0.0, 1.0))))


#: the check that meets the NaN first in each patch suite (claims runs the
#: parallel check on its grid before its own checks)
NAN_CHECK = {"gauss": "gauss.extrinsic_vs_intrinsic",
             "codazzi": "codazzi.coordinate_fields",
             "helix_ode": "helix_ode.residual",
             "parallel": "parallel.equations",
             "claims": "parallel.equations"}


@pytest.mark.parametrize("suite", sorted(NAN_CHECK))
def test_nan_residual_never_passes(monkeypatch, suite):
    """S is NaN at grid point 9 (and at that point of every stencil offset):
    the suite must raise NonFiniteResidual naming the check and the sample,
    never report pass or fail."""
    second_form_shape = surface_module._second_form_shape

    def nan_at_one_point(space, s):
        (s11, s12), (s21, s22) = second_form_shape(space, s)
        s11 = np.where(np.arange(np.size(s11)) == 9, np.nan, s11)
        return (s11, s12), (s21, s22)

    monkeypatch.setattr(surface_module, "_second_form_shape", nan_at_one_point)
    monkeypatch.setattr(verify_module, "_second_form_shape", nan_at_one_point)
    patch = timelike_linear_helix()
    with pytest.raises(NonFiniteResidual) as err:
        run_suite(suite, patch=patch, grid=(8, 8))
    assert str(err.value).startswith(f"check {NAN_CHECK[suite]}: residual nan")
    assert err.value.sample == interior_grid(patch, (8, 8))[9]
    assert "at sample (u=" in str(err.value)


# ------------------------------------------------------------ claims


def test_claims_pass_on_each_family_kind():
    for patch in (make_minimal_plane(1, "timelike", 0.4),
                  make_cmc_cylinder(-1, "timelike", 1.0),
                  spacelike_helix()):
        suite = check_claims(patch, (8, 8))
        assert suite.passed, [c.as_dict() for c in suite.checks if not c.passed]
        assert suite.name == "claims"
        assert {c.check_id for c in suite.checks} == {
            "claims.parallel_implies_cmc",
            "claims.cmc_iff_parallel",
            "claims.constant_angle_gauss",
            "claims.mean_from_adapted_s22",
            "claims.non_umbilic",
        }


def test_claims_detect_tampered_tolerance():
    """Tightening the gauss-claim tolerance to zero must flip the verdict
    (guards against a vacuous check)."""
    suite = check_claims(spacelike_helix(), (6, 6),
                         tolerances={"claims.constant_angle_gauss": 0.0})
    assert not suite.passed


# ------------------------------------------------------------ ambient suite


@pytest.mark.parametrize("delta", (1, -1))
def test_ambient_suite_passes(delta):
    suite = check_ambient(SpaceParams(delta=delta, tau=1.0))
    assert suite.passed, [c.as_dict() for c in suite.checks if not c.passed]
    assert len(suite.checks) == 9
    assert suite.name == "ambient"


def test_sectional_constancy_without_a_plane_raises(monkeypatch):
    """When every random plane is ill-conditioned there is no spread to
    measure: the check raises a typed error that says so, rather than
    feeding an infinite residual through the verdict."""
    monkeypatch.setattr(verify_module.ambient, "metric_eval",
                        lambda space, p, v, w: 1.0)
    with pytest.raises(DegeneratePlane,
                       match="no well-conditioned tangent plane in 400"):
        check_ambient(SpaceParams(delta=1, tau=1.0))


def test_ambient_suite_flat_space():
    suite = check_ambient(SpaceParams(delta=1, tau=0.0))
    assert suite.passed


def test_curvature_table_matches_closed_formula_random():
    rng = random.Random(99)
    for delta in (1, -1):
        sp = SpaceParams(delta=delta, tau=1.3)
        for _ in range(20):
            a = tuple(rng.uniform(-1, 1) for _ in range(3))
            b = tuple(rng.uniform(-1, 1) for _ in range(3))
            c = tuple(rng.uniform(-1, 1) for _ in range(3))
            t = curvature_from_table(sp, a, b, c)
            f = curvature_frame(sp, a, b, c)
            assert max(abs(t[i] - f[i]) for i in range(3)) < 1e-10


@pytest.mark.parametrize("tau", (0.3, 0.7, 2.5))
@pytest.mark.parametrize("delta", (1, -1))
def test_curvature_table_exact_away_from_tau_one(delta, tau):
    """The closed formula reproduces the literal table bit for bit (the
    ambient.curvature_table check has tolerance 0) at any tau."""
    sp = SpaceParams(delta=delta, tau=tau)
    basis = {1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0), 3: (0.0, 0.0, 1.0)}
    for (i, j, k), want in curvature_table(sp).items():
        assert curvature_frame(sp, basis[i], basis[j], basis[k]) == want
    suite = check_ambient(sp, n_points=8)
    table_check = next(c for c in suite.checks
                       if c.check_id == "ambient.curvature_table")
    assert table_check.tol == 0.0
    assert table_check.max_residual == 0.0


def test_curvature_table_is_literal():
    sp = SpaceParams(delta=-1, tau=2.0)
    table = curvature_table(sp)
    assert table[(1, 2, 1)] == (0.0, -12.0, 0.0)
    assert table[(1, 3, 3)] == (4.0, 0.0, 0.0)
    assert table[(2, 3, 2)] == (0.0, 0.0, 4.0)
    assert table[(1, 2, 3)] == (0.0, 0.0, 0.0)


# ------------------------------------------------------------ dispatch


def test_run_suite_dispatch():
    patch = make_cmc_cylinder(-1, "timelike", 1.0)
    with pytest.raises(ValueError):
        run_suite("nonsense", patch=patch)
    with pytest.raises(ValueError):
        run_suite("gauss")  # patch required
    with pytest.raises(ValueError):
        run_suite("ambient")  # needs space or patch
    suite = run_suite("gauss", patch=patch, grid=(6, 6))
    assert isinstance(suite, ResidualSuite)
    assert suite.name == "gauss"
    assert suite.seed == DEFAULT_SEED
    assert suite.patch_descriptor["family"] == "cmc_cylinder"
    amb = run_suite("ambient", patch=patch, seed=7)
    assert amb.seed == 7


def test_merge_suites_concatenates():
    patch = make_cmc_cylinder(-1, "timelike", 1.0)
    s1 = run_suite("gauss", patch=patch, grid=(6, 6))
    s2 = run_suite("codazzi", patch=patch, grid=(6, 6))
    merged = merge_suites([s1, s2], seed=11)
    assert merged.name == "gauss+codazzi"
    assert merged.seed == 11
    assert [c.check_id for c in merged.checks] == [
        "gauss.extrinsic_vs_intrinsic", "gauss.shape_operator_routes",
        "codazzi.coordinate_fields"]
    assert merged.passed
    d = merged.as_dict()
    assert d["suite"] == "gauss+codazzi" and d["verdict"] == "pass"


def test_default_family_matrix_contents():
    patches = default_family_matrix(1.0)
    assert len(patches) == 8
    names = [p.family["family"] for p in patches]
    assert names.count("minimal_plane") == 3
    assert names.count("cmc_cylinder") == 3
    assert names.count("helix") == 2
