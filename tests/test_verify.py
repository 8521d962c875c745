"""Unit tests for the residual suites and verification plumbing."""
from __future__ import annotations

import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisgeo import ambient, cli
from heisgeo.ambient import SpaceParams, curvature_frame
from heisgeo.errors import (DegenerateAdaptedFrame, DegeneratePlane,
                            NonFiniteResidual, NotAHelixPatch)
from heisgeo.families import (
    EtaSpec,
    HelixProfile,
    ProfileFunctions,
    make_cmc_cylinder,
    make_helix_surface,
    make_minimal_plane,
    profile_residuals,
)
from heisgeo import numeric
from heisgeo.numeric import bilinear3, value
import heisgeo.surface as surface_module
import heisgeo.verify as verify_module
from heisgeo.surface import (
    SurfacePatch,
    _adapted_entries,
    _adapted_frame,
    _sample,
    _second_form_shape,
)
from heisgeo.verify import (
    DEFAULT_SEED,
    DEFAULT_TOLERANCES,
    ParallelCheckInput,
    ResidualSuite,
    SUITE_NAMES,
    check_ambient,
    check_claims,
    check_codazzi,
    check_gauss,
    check_helix_ode,
    check_parallel,
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


def test_suites_run_on_a_domain_narrower_than_any_stencil_step():
    """No suite differences what it reads, so a domain 0.006 wide (narrower
    than 8 steps of the old shared stencil) is evaluated like any other:
    every suite reads only points of the domain and passes."""
    cyl = make_cmc_cylinder(1, "timelike", 0.5,
                            domain=((-0.003, 0.003), (-0.003, 0.003)))
    for name in ("gauss", "codazzi", "parallel", "claims"):
        assert run_suite(name, patch=cyl, grid=(4, 4)).passed, name


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
#: one of them for the normal gauge.  A call is one batch of points.  The
#: patch suites share the grid batch, an order-1 jet whose Taylor
#: coefficients give every partial they read and the metric-variation S of
#: the route check; gauss adds the jet calls of intrinsic K and of the route
#: check's second-form `shape_operator` on the grid, which the patch's kept
#: grid jet serves.  A suite that starts resampling points it already has,
#: or loops over points, fails here
JET_BUDGET = {"gauss": 4, "codazzi": 2, "helix_ode": 2,
              "parallel": 2, "claims": 2}
#: the same count for the CLI's `verify --suite all` sequence on one patch,
#: which shares the grid: 11 when each suite sampled its own
ALL_SUITES_JETS = 4


def counted_jets(monkeypatch) -> list:
    """[number of SurfacePatch.jet calls from now on]"""
    calls = [0]
    jet = SurfacePatch.jet

    def counting_jet(self, u, v, **kwargs):
        calls[0] += 1
        return jet(self, u, v, **kwargs)

    monkeypatch.setattr(SurfacePatch, "jet", counting_jet)
    return calls


@pytest.mark.parametrize("suite", sorted(JET_BUDGET))
def test_suite_jet_counts_within_budget(monkeypatch, suite):
    calls = counted_jets(monkeypatch)
    run_suite(suite, patch=spacelike_helix(), grid=(8, 8))
    assert calls[0] <= JET_BUDGET[suite]


def test_all_suites_share_one_grid_evaluation(monkeypatch):
    calls = counted_jets(monkeypatch)
    patch = spacelike_helix()
    for suite in cli._ALL_SUITES:
        run_suite(suite, patch=patch, grid=(8, 8))
    assert calls[0] <= ALL_SUITES_JETS


def test_gauss_suite_evaluates_position_once_on_the_grid():
    """The gauss suite evaluates `position` once on its grid and once at
    the domain centre, for the normal gauge: intrinsic K and the route
    check's `shape_operator` read the patch's kept grid jet."""
    helix = spacelike_helix()
    calls = []

    def position(u, v):
        calls.append(u.c[0])
        return helix.position(u, v)

    patch = SurfacePatch(helix.space, position, helix.domain)
    run_suite("gauss", patch=patch, grid=(8, 8))
    assert [np.shape(u) for u in calls] == [(64,), ()]
    assert calls[1] == patch.center()[0]


def test_grid_evaluation_dies_with_its_patch():
    """The suites keep their shared evaluation on the patch.  It must not
    refer back to the patch: a reference cycle would keep every patch
    alive until the next garbage collection."""
    gc.disable()
    try:
        patch = spacelike_helix()
        for suite in cli._ALL_SUITES:
            run_suite(suite, patch=patch, grid=(8, 8))
        assert patch._evaluations
        ref = weakref.ref(patch)
        del patch
        assert ref() is None
    finally:
        gc.enable()


def test_degenerate_adapted_frame_only_where_adapted_quantities_are_read():
    """On the tau = 0 plane (u, v, 0), E3 is normal, so g(T, T) = 0 at every
    sample.  The shared evaluation computes the adapted frame for every
    suite, but only the suites that read adapted quantities guard it: gauss and
    codazzi pass, and helix_ode, parallel and claims raise at the first
    grid sample."""
    patch = SurfacePatch(SpaceParams(delta=1, tau=0.0),
                         lambda u, v: (u, v, 0.0), ((-1.0, 1.0), (-1.0, 1.0)))
    for suite in ("gauss", "codazzi"):
        assert run_suite(suite, patch=patch, grid=(9, 9)).passed
    first = interior_grid(patch, (9, 9))[0]
    assert first == pytest.approx((-0.97, -0.97))
    for suite in ("helix_ode", "parallel", "claims"):
        with pytest.raises(DegenerateAdaptedFrame) as err:
            run_suite(suite, patch=patch, grid=(9, 9))
        assert err.value.sample == first


@pytest.mark.parametrize("suite", sorted(JET_BUDGET))
def test_weingarten_route_only_in_the_route_check(monkeypatch, suite):
    """The route check's second route (the metric-variation S; the name is
    kept from the differenced route it replaced) runs once per grid
    evaluation: one call on the batch of all 36 grid points, whichever
    suites read it."""
    calls = []
    variation = surface_module._variation_shape

    def counting(space, s):
        calls.append(np.size(s.at[0]))  # the points of the batch
        return variation(space, s)

    monkeypatch.setattr(verify_module, "_variation_shape", counting)
    patch = spacelike_helix()
    run_suite(suite, patch=patch, grid=(6, 6))
    assert calls == [36]
    for other in cli._ALL_SUITES:
        run_suite(other, patch=patch, grid=(6, 6))
    assert calls == [36]


def test_route_check_runs_on_every_patch():
    """Every patch takes the second-form shape operator, so the gauss suite
    runs the route check on all of them."""
    for patch in default_family_matrix():
        ids = [c.check_id
               for c in run_suite("gauss", patch=patch, grid=(4, 4)).checks]
        assert ids == ["gauss.extrinsic_vs_intrinsic",
                       "gauss.shape_operator_routes"]


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
    ev = verify_module._grid_evaluation(patch, (4, 4))
    s = _sample(patch, *map(np.array, zip(*interior_grid(patch, (4, 4)))))
    pair = s.form.pair
    f1, f2 = ev.dirs
    assert (ev.s.eps == s.eps).all()
    assert pair(f1, f1) == pytest.approx(np.ones(16), abs=1e-12)
    assert pair(f2, f2) == pytest.approx(-s.eps, abs=1e-12)
    assert np.abs(pair(f1, f2)).max() <= 1e-12
    a11, a12, a21, a22 = _adapted_entries(
        _adapted_frame(patch.space, s), _second_form_shape(patch.space, s))
    want = (a11, a12, a22) if patch.space.delta == 1 else (a22, a21, a11)
    assert np.array_equal(ev.entries, want)


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
    assert parallel_equations_residuals(constant) == 0.0

    varying = ParallelCheckInput(
        eps=1,
        points=pts,
        frame_directions=lambda u, v: ((1.0, 0.0), (0.0, 1.0)),
        entries=lambda u, v: (0.7 + u, 0.0, 0.7),
        omega=lambda u, v, k: 0.0,
    )
    assert parallel_equations_residuals(varying) > 0.5


def _sinh_cosh_input(omega_u: float, entries=None) -> ParallelCheckInput:
    """S = [[-sinh 3u, cosh 3u], [cosh 3u, sinh 3u]] on 32 points with u in
    [0, 0.7], a flat frame, w(d/du) = omega_u and w(d/dv) = 0."""
    return ParallelCheckInput(
        eps=1,
        points=[(0.7 * i / 31, 0.0) for i in range(32)],
        frame_directions=lambda u, v: ((1.0, 0.0), (0.0, 1.0)),
        entries=entries or (lambda u, v: (
            -np.sinh(3.0 * u), np.cosh(3.0 * u), np.sinh(3.0 * u))),
        omega=lambda u, v, k: omega_u if k == 0 else 0.0,
    )


def test_parallel_residuals_are_exact_on_a_varying_parallel_operator():
    """At w(d/du) = 1.5 the operator solves the parallel equations exactly;
    a second-order central difference at step 1e-3 read 1.86e-5 there,
    above the 1e-5 tolerance of parallel.equations."""
    assert parallel_equations_residuals(_sinh_cosh_input(1.5)) <= 1e-14


def test_parallel_residuals_read_the_analytic_defect():
    """At w(d/du) = 1 the residuals along d/du are cosh 3u, sinh 3u and
    cosh 3u, so their maximum is cosh(2.1), at u = 0.7."""
    got = parallel_equations_residuals(_sinh_cosh_input(1.0))
    assert got == pytest.approx(math.cosh(2.1), rel=1e-15)


def test_parallel_entries_written_with_math_raise_type_error():
    """`entries` takes Taylor values: one written with `math` raises
    TypeError, unwrapped."""
    with pytest.raises(TypeError):
        parallel_equations_residuals(_sinh_cosh_input(1.5, lambda u, v: (
            -math.sinh(3.0 * u), math.cosh(3.0 * u), math.sinh(3.0 * u))))


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
    assert math.isnan(parallel_equations_residuals(inp))


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
    """S is NaN at grid point 9 (its value, on an order-1 sample):
    the suite must raise NonFiniteResidual naming the check and the sample,
    never report pass or fail."""
    second_form_shape = surface_module._second_form_shape

    def nan_at_one_point(space, s):
        (s11, s12), (s21, s22) = second_form_shape(space, s)
        # NaN added to the value at point 9 (of an order-1 sample too)
        s11 = s11 + np.where(np.arange(np.size(value(s11))) == 9, np.nan, 0.0)
        return (s11, s12), (s21, s22)

    monkeypatch.setattr(surface_module, "_second_form_shape", nan_at_one_point)
    monkeypatch.setattr(verify_module, "_second_form_shape", nan_at_one_point)
    patch = timelike_linear_helix()
    with pytest.raises(NonFiniteResidual) as err:
        run_suite(suite, patch=patch, grid=(8, 8))
    assert str(err.value).startswith(f"check {NAN_CHECK[suite]}: residual nan")
    assert err.value.sample == interior_grid(patch, (8, 8))[9]
    assert "at sample (u=" in str(err.value)


@pytest.mark.parametrize("suite", sorted(JET_BUDGET))
def test_suite_calls_position_at_grid_samples_only(suite):
    """No patch suite takes a stencil of the position: it is called only at
    the interior-grid samples and at the domain centre, where the normal is
    gauged, so a guard of its jet names a grid sample (or the centre) by
    construction."""
    helix = spacelike_helix()
    seen = set()

    def recording(u, v):
        seen.update(zip(np.ravel(value(u)).tolist(),
                        np.ravel(value(v)).tolist()))
        return helix.position(u, v)

    patch = SurfacePatch(helix.space, recording, helix.domain)
    run_suite(suite, patch=patch, grid=(4, 4))
    assert seen == set(interior_grid(patch, (4, 4))) | {patch.center()}


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


@pytest.mark.parametrize("delta,tau,seed", [
    (1, 1.0, 6), (1, 1.0, 58), (1, 1.0, 74), (-1, 1.0, 56), (-1, 1.0, 113),
    (1, 3.5, DEFAULT_SEED), (-1, 3.5, DEFAULT_SEED)])
def test_ambient_suite_passes_where_differenced_christoffels_failed(delta, tau,
                                                                   seed):
    """Central differences of the metric at step 1e-5 carried about 1e-10
    of roundoff (eps |g| / h) into the Christoffel symbols, which the outer
    stencil of the curvature path (step 3e-4) amplified past the 1e-6
    sectional-constancy tolerance at these seeds and at tau = 3.5; the
    dual-number derivatives have no such roundoff."""
    suite = check_ambient(SpaceParams(delta=delta, tau=tau), seed=seed)
    assert suite.passed, [c.as_dict() for c in suite.checks if not c.passed]


@pytest.mark.parametrize("delta", (1, -1))
@pytest.mark.parametrize("tau", (4.5, 5.0, 7.0, 10.0))
def test_ambient_suite_passes_at_large_tau(delta, tau):
    """The companion space's conformal factor vanishes on the circle of
    radius 1/tau (delta = -1), which entered the fixed +-0.15 sampling box
    from tau = 4.7; the box now shrinks with |tau|.  The frame brackets are
    exact by dual numbers.  A central stencil for the curvature's outer
    derivative had a truncation that grew with tau: sectional constancy
    failed seed 24 at tau = 7 and 10 (delta = -1) and seed 6 at tau = 10
    (delta = 1); the dual-number derivatives have none."""
    for seed in (DEFAULT_SEED, 0, 1, 2, 24, 6):
        suite = check_ambient(SpaceParams(delta=delta, tau=tau), seed=seed)
        assert suite.passed, [c.as_dict() for c in suite.checks if not c.passed]
        bracket = next(c for c in suite.checks if c.check_id == "ambient.bracket")
        assert bracket.max_residual == 0.0


@pytest.mark.parametrize("delta", (1, -1))
def test_sectional_constancy_holds_at_tau_20(delta):
    """At tau = 20 the curvature is about 400 and the stencil spread reached
    9e-6 to 3e-5 on these seeds; exact derivatives leave rounding only."""
    for seed in (0, 1, 2, DEFAULT_SEED):
        suite = check_ambient(SpaceParams(delta=delta, tau=20.0), seed=seed)
        check = next(c for c in suite.checks
                     if c.check_id == "ambient.sectional_constancy")
        assert check.passed, check.as_dict()


@pytest.mark.parametrize("delta", (1, -1))
def test_curvature_fd_holds_at_tau_20_on_every_seed(delta):
    """At tau = 20 the coordinate curvature components reach 7e5; against
    an absolute 1e-6 their rounding failed 7 of these seeds at delta = -1.
    The gap is scaled by max(1, |want|) per component."""
    for seed in range(100):
        suite = check_ambient(SpaceParams(delta=delta, tau=20.0), seed=seed)
        check = next(c for c in suite.checks
                     if c.check_id == "ambient.curvature_fd")
        assert check.passed, (seed, check.as_dict())


@pytest.mark.parametrize("delta", (1, -1))
@pytest.mark.parametrize("tau", (1.0, 10.0, 20.0))
def test_ambient_suite_fails_on_a_wrong_metric_or_companion(monkeypatch,
                                                           delta, tau):
    """The suite is not vacuous: flipping the sign of g_yz in
    `metric_matrix` fails the checks that read the coordinate metric, and
    a companion space with kappa = -3 tau^2 instead of -4 tau^2 fails
    sectional constancy."""
    metric_matrix = verify_module.ambient.metric_matrix

    def flipped(space, p):
        (gxx, gxy, gxz), (_, gyy, gyz), (_, _, gzz) = metric_matrix(space, p)
        return (gxx, gxy, gxz), (gxy, gyy, -gyz), (gxz, -gyz, gzz)

    def failed() -> set:
        suite = check_ambient(SpaceParams(delta=delta, tau=tau))
        return {c.check_id for c in suite.checks if not c.passed}

    with monkeypatch.context() as m:
        m.setattr(verify_module.ambient, "metric_matrix", flipped)
        assert {"ambient.frame_orthonormality", "ambient.connection_fd",
                "ambient.curvature_fd", "ambient.sectional_constancy"} <= failed()
    monkeypatch.setattr(verify_module, "SpaceParams", lambda delta, tau, kappa:
                        SpaceParams(delta, tau, 0.75 * kappa))
    assert failed() == {"ambient.sectional_constancy"}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 400),
       boxes=st.lists(st.tuples(*[st.floats(0.0, 10.0)] * 3),
                      min_size=1, max_size=3))
def test_ambient_draws_follow_the_sequential_stream(seed, n, boxes):
    """The bulk draws are the values a loop of rng.uniform calls makes,
    in the same order, so each check sees the points it saw one at a time;
    the stream is left where the loop leaves it."""
    rng, ref = random.Random(seed), random.Random(seed)
    got = verify_module._draws(rng, n, *boxes)
    want = [[ref.uniform(-h, h) for h in sum(boxes, ())] for _ in range(n)]
    assert [c.tolist() for c in sum(got, ())] == [list(c) for c in zip(*want)]
    assert rng.random() == ref.random()


def recorded_ambient_suite(monkeypatch, space: SpaceParams):
    """Run check_ambient on `space`, recording every check's residual
    array and every (points, parts) of `ambient._connection`."""
    residuals, connections = {}, []
    connection, check = ambient._connection, verify_module._check

    def recorded_connection(sp, p):
        connections.append((p, connection(sp, p)))
        return connections[-1][1]

    def recorded_check(check_id, r, *args):
        residuals[check_id] = np.asarray(r, dtype=float)
        return check(check_id, r, *args)

    monkeypatch.setattr(ambient, "_connection", recorded_connection)
    monkeypatch.setattr(verify_module, "_check", recorded_check)
    check_ambient(space)
    return residuals, connections


@pytest.mark.parametrize("tau", (0.5, 1.0, 7.0, 20.0))
@pytest.mark.parametrize("delta", (1, -1))
def test_frame_orthonormality_batch_matches_the_pair_loop(monkeypatch, delta,
                                                          tau):
    """The nine pairs (i, j) in one bilinear form give, bit for bit, the
    residuals of one `bilinear3` per pair on the suite's first draw."""
    space = SpaceParams(delta=delta, tau=tau)
    residuals, _ = recorded_ambient_suite(monkeypatch, space)
    pts, = verify_module._draws(random.Random(DEFAULT_SEED),
                                verify_module._AMBIENT_POINTS,
                                (verify_module._POINT_BOX,) * 3)
    vecs = ambient.frame_at(space, pts).vectors()
    g = ambient.metric_matrix(space, pts)
    diag = (1.0, -float(delta), float(delta))
    loop = [np.ravel(abs(bilinear3(g, vecs[i], vecs[j])
                         - (diag[i] if i == j else 0.0)))
            for i in range(3) for j in range(3)]
    assert (residuals["ambient.frame_orthonormality"].tobytes()
            == np.concatenate(loop).tobytes())


@pytest.mark.parametrize("tau", (0.5, 1.0, 7.0, 20.0))
@pytest.mark.parametrize("delta", (1, -1))
def test_connection_fd_batch_matches_the_per_entry_loop(monkeypatch, delta,
                                                        tau):
    """The connection_fd residuals, taken as one batch over the nine table
    entries, are bit for bit those of a loop over the entries: D_{E_i} E_j
    by `directional_fd` of `frame_field(j)`, plus the Christoffel sum in
    l-major, m-minor order, then `to_frame_components`."""
    space = SpaceParams(delta=delta, tau=tau)
    residuals, connections = recorded_ambient_suite(monkeypatch, space)
    batched = residuals["ambient.connection_fd"]
    n = batched.size // 27  # 9 entries x 3 components per point
    p_all, conn = connections[0]  # the space's own connection
    p, gam = tuple(q[:n] for q in p_all), conn[3][..., :n]
    frame = dict(zip((1, 2, 3), ambient.frame_at(space, p).vectors()))
    loop = []
    for (i, j), want in ambient.connection_table(space).items():
        x, wv = frame[i], frame[j]
        dw = ambient.directional_fd(ambient.frame_field(space, j), p, x)
        cov = tuple(dw[k] + sum(gam[k][l][m] * x[l] * wv[m]
                                for l in range(3) for m in range(3))
                    for k in range(3))
        loop += [abs(g - w) for g, w in
                 zip(ambient.to_frame_components(space, p, cov), want)]
    assert batched.tobytes() == np.concatenate(loop).tobytes()


@pytest.mark.parametrize("tau", (0.3, 1.0, 5.0))
@pytest.mark.parametrize("delta", (1, -1))
def test_frame_table_checks_match_per_entry_float_calls(monkeypatch, delta,
                                                        tau):
    """The bracket, connection_table and curvature_table checks, one batch
    each, give bit for bit the residuals of the public calls on floats, one
    per entry: `commutator_fd` of the frame fields at each of the first 10
    points, `frame_connection_correction` and `curvature_frame` on the
    frame basis vectors."""
    space = SpaceParams(delta=delta, tau=tau)
    residuals, _ = recorded_ambient_suite(monkeypatch, space)
    pts, = verify_module._draws(random.Random(DEFAULT_SEED),
                                verify_module._AMBIENT_POINTS,
                                (verify_module._POINT_BOX,) * 3)
    field = {i: ambient.frame_field(space, i) for i in (1, 2, 3)}
    bracket = [[abs(g - w) for g, w in zip(ambient.commutator_fd(
        field[i], field[j], tuple(q[k].item() for q in pts)), want)]
        for (i, j), want in (((1, 2), (0.0, 0.0, 2.0 * tau)),
                             ((1, 3), (0.0,) * 3), ((2, 3), (0.0,) * 3))
        for k in range(10)]  # [pair, point, component]
    basis = {1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0), 3: (0.0, 0.0, 1.0)}
    loops = {
        "ambient.bracket": np.array(bracket).reshape(3, 10, 3).swapaxes(1, 2),
        "ambient.connection_table": [
            abs(g - w) for (i, j), want in ambient.connection_table(space).items()
            for g, w in zip(ambient.frame_connection_correction(
                space, basis[i], basis[j]), want)],
        "ambient.curvature_table": [
            abs(g - w) for (i, j, k), want in curvature_table(space).items()
            for g, w in zip(curvature_frame(
                space, basis[i], basis[j], basis[k]), want)]}
    for check_id, loop in loops.items():
        assert (residuals[check_id].tobytes()
                == np.ravel(np.array(loop, dtype=float)).tobytes()), check_id


@settings(max_examples=50, deadline=None)
@given(tau=st.floats(1e-3, 20.0), delta=st.sampled_from((1, -1)),
       seed=st.integers(0, 2**32 - 1))
def test_ambient_suite_passes_across_tau(tau, delta, seed):
    """Every ambient check passes on a correct program at any tau in
    [1e-3, 20] and any seed, not only at the values pinned above."""
    suite = check_ambient(SpaceParams(delta=delta, tau=tau), seed=seed)
    assert suite.passed, [c.as_dict() for c in suite.checks if not c.passed]


def recorded_draw_sizes(monkeypatch) -> list:
    """The n of every `_draws` call check_ambient makes from now on; the
    first four are its other checks' draws, the rest the plane chunks."""
    sizes = []
    draws = verify_module._draws

    def recording(rng, n, *boxes):
        sizes.append(n)
        return draws(rng, n, *boxes)

    monkeypatch.setattr(verify_module, "_draws", recording)
    return sizes


def test_sectional_constancy_without_a_plane_raises(monkeypatch):
    """When every random plane is ill-conditioned there is no spread to
    measure: the check raises a typed error that says so, rather than
    feeding an infinite residual through the verdict."""
    sizes = recorded_draw_sizes(monkeypatch)
    metric = verify_module.ambient.metric_matrix
    ones = ((1.0, 1.0, 1.0),) * 3
    monkeypatch.setattr(verify_module.ambient, "metric_matrix",
                        lambda space, p: ones if space.kappa else metric(space, p))
    with pytest.raises(DegeneratePlane,
                       match="no well-conditioned tangent plane in 400"):
        check_ambient(SpaceParams(delta=1, tau=1.0))
    assert sum(sizes[4:]) == 400


@pytest.mark.parametrize("tau", (1.0, 5.0, 20.0))
@pytest.mark.parametrize("delta", (1, -1))
def test_sectional_planes_drawn_in_chunks(monkeypatch, delta, tau):
    """Planes are drawn in stream order, a chunk at a time, until 20 are
    well-conditioned: one chunk here, and the same planes, so the same
    residual, as drawing all 400 attempts in one go."""
    space = SpaceParams(delta=delta, tau=tau)
    sizes = recorded_draw_sizes(monkeypatch)
    chunked = check_ambient(space).checks[-1]
    assert sizes[4:] == [verify_module._PLANE_CHUNK]
    monkeypatch.setattr(verify_module, "_PLANE_CHUNK",
                        verify_module._PLANE_ATTEMPTS)
    assert check_ambient(space).checks[-1] == chunked


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
    suite = check_ambient(sp)
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
        run_suite("ambient")  # runs on a patch's space
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


# ------------------------------------------------------------ check power


def _scaled_eta_second_derivative(monkeypatch):
    jet = EtaSpec.jet
    monkeypatch.setattr(EtaSpec, "jet", lambda self, v: (
        *jet(self, v)[:2], 1.5 * jet(self, v)[2]))


def _dropped_third_derivatives(monkeypatch):
    jet = ProfileFunctions.jet
    monkeypatch.setattr(ProfileFunctions, "jet",
                        lambda self, v: jet(self, v)[:9] + (0.0, 0.0, 0.0))


def _swapped_product_destinations(monkeypatch):
    """The runs of d^2/du^2 times d/d(u, v) and d^2/dv^2 times d/d(u, v)
    write each other's degree-3 coefficients."""
    n, runs = numeric._KERNEL[2, 3]
    runs = [list(r) for r in runs]
    uu, vv = (next(r for r in runs if r[0] == numeric._INDEX[2][e])
              for e in ((2, 0), (0, 2)))
    uu[3], vv[3] = vv[3], uu[3]
    monkeypatch.setitem(numeric._KERNEL, (2, 3), (n, runs))


def _check_power_patches() -> list:
    return [make_helix_surface(HelixProfile(
                "timelike", 1.0, math.pi / 4.0, c=0.1,
                eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0)))),
            make_helix_surface(HelixProfile(
                "spacelike", 1.0, math.asinh(1.0), c=-5.0,
                eta=EtaSpec("linear", (0.0, 1.0))))]


def _failed_checks() -> list:
    """The verify checks, and the profile's differenced `jet` residual (at
    1e-6), that fail on the two patches."""
    failed = []
    for patch in _check_power_patches():
        failed += [c.check_id
                   for suite in ("gauss", "codazzi", "helix_ode", "claims")
                   for c in run_suite(suite, patch=patch, grid=(10, 10)).checks
                   if not c.passed]
        if profile_residuals(patch.profile_functions)["jet"] > 1e-6:
            failed.append("profile_residuals.jet")
    return failed


@pytest.mark.parametrize("mutant", [None, _scaled_eta_second_derivative,
                                    _dropped_third_derivatives,
                                    _swapped_product_destinations],
                         ids=["unmutated", "eta2_x1.5", "no_f3rd",
                              "kernel_swap"])
def test_mutants_of_the_third_order_terms_fail_a_check(monkeypatch, mutant):
    """Each defect in the third-order terms (eta'' and f''' in the profile
    lift, a degree-3 destination of the product kernel) fails a check on
    the README helix or the c = -5 spacelike helix; the unmutated code
    passes there.  eta'' and f''' reach only the pure third partial F_vvv,
    which neither Brioschi's formula (e_vv, f_uv, g_uu), nor Codazzi's
    mixed partials, nor helix_ode's T = d/du reads: only the profile's
    differenced jet residual sees them."""
    if mutant is not None:
        mutant(monkeypatch)
    failed = _failed_checks()
    if mutant is None:
        assert failed == []
    elif mutant is _swapped_product_destinations:
        assert "helix_ode.residual" in failed
    else:
        assert set(failed) == {"profile_residuals.jet"}
