"""Unit tests for surface geometry: fundamental forms, normal gauge, shape
operator (analytic route checked against the Weingarten route), curvatures, adapted frame, grid reports.

Family-specific numbers frozen here were derived by hand from the adopted
conventions and confirmed through the package's finite-difference route
before being pinned.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from heisgeo.ambient import SpaceParams, metric_eval
from heisgeo.errors import (
    DegenerateInducedMetric,
    NonFiniteJet,
    OutOfDomain,
)
from heisgeo.families import (
    EtaSpec,
    HelixProfile,
    make_cmc_cylinder,
    make_helix_surface,
    make_minimal_plane,
)
import heisgeo.surface as surface_module
from heisgeo.surface import (
    GeometryReport,
    SurfacePatch,
    angle_function,
    causal_character,
    gaussian_curvature,
    geometry_report,
    grid_points,
    induced_metric,
    mean_curvature,
    second_fundamental_form,
    shape_operator,
    tangent_part_T,
    tangent_rotation_J,
    unit_normal,
    _sample,
    _weingarten_shape,
)
from heisgeo.verify import check_shape_operator_routes, default_family_matrix

ASINH1 = math.asinh(1.0)

PLANES = (
    (-1, "timelike"),
    (1, "timelike"),
    (1, "spacelike"),
)


def spacelike_helix(tau: float = 1.0, c: float = 0.1) -> SurfacePatch:
    prof = HelixProfile("spacelike", tau, ASINH1, c=c,
                        eta=EtaSpec("linear", (0.0, 1.0)))
    return make_helix_surface(prof)


def timelike_helix(tau: float = 1.0, c: float = 0.1) -> SurfacePatch:
    prof = HelixProfile("timelike", tau, math.pi / 4.0, c=c,
                        eta=EtaSpec("linear", (0.0, 1.0)))
    return make_helix_surface(prof)


# ------------------------------------------------------ first form / eps


@pytest.mark.parametrize("delta,causal", PLANES)
def test_plane_causal_character(delta, causal):
    patch = make_minimal_plane(delta, causal, 0.4, tau=1.0)
    want = 1 if causal == "timelike" else -1
    assert causal_character(patch, 0.3, -0.2) == want
    assert induced_metric(patch, 0.3, -0.2).epsilon == want


def test_first_form_cylinder_values():
    """delta = -1 cylinder at tau = 1: hand-computed first form.

    Position (-cos v, -sin v, u - tau v): Fu = d/dz with g = delta = -1;
    Fv has frame components (sin v, -cos v, -2 tau), so g(Fv, Fv) =
    1 - 4 tau^2 = -3 and g(Fu, Fv) = delta * (-2 tau) = 2.
    """
    patch = make_cmc_cylinder(-1, "timelike", 1.0)
    form = induced_metric(patch, 0.2, -0.3)
    assert form.e == pytest.approx(-1.0, abs=1e-12)
    assert form.f == pytest.approx(2.0, abs=1e-12)
    assert form.g == pytest.approx(-3.0, abs=1e-12)
    assert form.det == pytest.approx(-1.0, abs=1e-12)
    assert form.epsilon == 1


def test_degenerate_induced_metric_detected():
    space = SpaceParams(delta=1, tau=1.0)
    # F(u, v) = (u, u, v): Fu is the null direction E1 + E2
    patch = SurfacePatch(space, lambda u, v: (u, u, v),
                         ((-0.5, 0.5), (-0.5, 0.5)))
    with pytest.raises(DegenerateInducedMetric):
        induced_metric(patch, 0.0, 0.0)


def test_out_of_domain_analytic_margin():
    patch = make_cmc_cylinder(-1, "timelike", 1.0, domain=((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(OutOfDomain) as err:
        induced_metric(patch, 1.05, 0.0)
    assert err.value.sample == (1.05, 0.0)
    assert "at sample (u=1.05, v=0)" in str(err.value)
    # inside the hard margin is fine
    induced_metric(patch, 1.0, 1.0)


def test_fd_jet_patch_matches_analytic_twin():
    analytic = make_cmc_cylinder(-1, "timelike", 1.0)
    fd = SurfacePatch(analytic.space, analytic.position, analytic.domain)
    assert fd.jet_source == "finite-difference"
    assert analytic.jet_source == "analytic"
    ja = analytic.jet(0.3, -0.4)
    jf = fd.jet(0.3, -0.4)
    for name in ("p", "fu", "fv", "fuu", "fuv", "fvv"):
        va, vf = getattr(ja, name), getattr(jf, name)
        assert max(abs(va[i] - vf[i]) for i in range(3)) < 1e-5, name


def test_fd_jet_patch_refuses_boundary_stencils():
    analytic = make_cmc_cylinder(-1, "timelike", 1.0, domain=((0.0, 1.0), (0.0, 1.0)))
    fd = SurfacePatch(analytic.space, analytic.position, analytic.domain)
    with pytest.raises(OutOfDomain):
        fd.jet(1e-5, 0.5)  # within 2h of the boundary
    fd.jet(0.5, 0.5)


# ------------------------------------------------------ normal and gauge


def test_cylinder_unit_normal_values():
    patch = make_cmc_cylinder(-1, "timelike", 1.0)
    for (u, v) in ((0.0, 0.0), (0.5, -0.7), (-0.9, 1.1)):
        n = unit_normal(patch, u, v)
        want = (math.cos(v), math.sin(v), 0.0)
        assert max(abs(n[i] - want[i]) for i in range(3)) < 1e-12


def test_gauge_is_parametrization_independent():
    """Reversing the v-direction flips the raw normal; the gauge restores
    the same oriented normal at the same geometric point."""
    base = make_cmc_cylinder(-1, "timelike", 1.0)
    flipped = SurfacePatch(
        base.space, lambda u, v: base.position(u, -v), base.domain)
    n1 = unit_normal(base, 0.3, 0.0)
    n2 = unit_normal(flipped, 0.3, 0.0)
    assert max(abs(n1[i] - n2[i]) for i in range(3)) < 1e-9


def test_angle_function_gauge_nonnegative_at_center():
    """Patches with nonzero angle function are gauged so nu > 0 at the
    domain center."""
    for patch in (spacelike_helix(), timelike_helix()):
        cu, cv = patch.center()
        assert angle_function(patch, cu, cv) > 0.0


def test_normal_is_unit_and_orthogonal():
    patch = spacelike_helix()
    u, v = 0.4, -0.2
    n = unit_normal(patch, u, v)
    j = patch.jet(u, v)
    sp = patch.space
    eps = causal_character(patch, u, v)
    assert metric_eval(sp, j.p, n, n) == pytest.approx(float(eps), abs=1e-10)
    assert metric_eval(sp, j.p, n, j.fu) == pytest.approx(0.0, abs=1e-10)
    assert metric_eval(sp, j.p, n, j.fv) == pytest.approx(0.0, abs=1e-10)


# ------------------------------------------------------ T and J


def test_tangent_part_decomposition():
    """E3 = T + nu N with T tangent."""
    patch = timelike_helix()
    u, v = -0.3, 0.5
    t = tangent_part_T(patch, u, v)
    n = unit_normal(patch, u, v)
    nu = angle_function(patch, u, v)
    j = patch.jet(u, v)
    sp = patch.space
    e3 = (0.0, 0.0, 1.0)  # coordinate d/dz equals the third frame vector
    for i in range(3):
        assert t[i] + nu * n[i] == pytest.approx(e3[i], abs=1e-12)
    assert metric_eval(sp, j.p, t, n) == pytest.approx(0.0, abs=1e-12)


def test_tangent_rotation_properties():
    for patch in (spacelike_helix(), make_cmc_cylinder(-1, "timelike", 1.0)):
        u, v = 0.2, -0.1
        sp = patch.space
        j = patch.jet(u, v)
        eps = causal_character(patch, u, v)
        x = tangent_part_T(patch, u, v)
        jx = tangent_rotation_J(patch, u, v, x)
        n = unit_normal(patch, u, v)
        assert abs(metric_eval(sp, j.p, jx, x)) < 1e-12
        assert abs(metric_eval(sp, j.p, jx, n)) < 1e-12
        # J X = N ^ X satisfies g(JX, JX) = -eps g(X, X) on the tangent plane
        assert metric_eval(sp, j.p, jx, jx) == pytest.approx(
            -eps * metric_eval(sp, j.p, x, x), abs=1e-10)


# ------------------------------------------------------ shape operator


ROUTE_PATCHES = [
    lambda: make_cmc_cylinder(-1, "timelike", 1.0),
    lambda: make_cmc_cylinder(1, "spacelike", 0.5),
    lambda: make_minimal_plane(1, "timelike", 0.7),
    spacelike_helix,
    timelike_helix,
]


def weingarten_route_gap(patch) -> float:
    """max |S - S_Weingarten| / max(1, max |S|) over three points, with S the
    shape operator heisgeo reports (S = eps I^{-1} h on analytic patches)
    and S_Weingarten the finite difference of the normal field."""
    worst = 0.0
    for (u, v) in ((0.0, 0.0), (0.45, -0.35), (-0.6, 0.8)):
        got = shape_operator(patch, u, v, basis="coordinate").entries()
        alt = _weingarten_shape(patch, u, v, _sample(patch, u, v))
        scale = max(1.0, max(abs(x) for row in got for x in row))
        worst = max(worst, max(abs(got[i][j] - alt[i][j])
                               for i in range(2) for j in range(2)) / scale)
    return worst


@pytest.mark.parametrize("builder", ROUTE_PATCHES)
def test_shape_operator_two_routes_agree(builder):
    assert weingarten_route_gap(builder()) < 1e-8


@pytest.mark.parametrize("builder", ROUTE_PATCHES)
def test_analytic_shape_operator_is_the_second_form(builder):
    """On analytic-jet patches S solves I S = eps h exactly (up to
    rounding), with h from second_fundamental_form."""
    patch = builder()
    assert patch.jet_source == "analytic"
    for (u, v) in ((0.0, 0.0), (0.45, -0.35)):
        form = induced_metric(patch, u, v)
        hm = second_fundamental_form(patch, u, v)
        m = shape_operator(patch, u, v).entries()
        ii = ((form.e, form.f), (form.f, form.g))
        scale = max(1.0, max(abs(x) for row in hm for x in row))
        for i in range(2):
            for j in range(2):
                lhs = ii[i][0] * m[0][j] + ii[i][1] * m[1][j]
                assert abs(lhs - form.epsilon * hm[i][j]) < 1e-12 * scale


def test_fd_jet_patches_keep_the_weingarten_route():
    """A patch without jet= differences its second partials, so its shape
    operator is the Weingarten route; it stays near the analytic twin."""
    analytic = spacelike_helix()
    fd = SurfacePatch(analytic.space, analytic.position, analytic.domain)
    u, v = 0.3, -0.2
    want = _weingarten_shape(fd, u, v, _sample(fd, u, v))
    assert shape_operator(fd, u, v).entries() == want
    twin = shape_operator(analytic, u, v).entries()
    assert max(abs(want[i][j] - twin[i][j])
               for i in range(2) for j in range(2)) < 1e-6


def test_route_gap_detects_a_second_form_sign_error(monkeypatch):
    """Mutation: flip the sign of the mixed term h12 of the second form.  The
    route comparison above and the gauss suite's route check must fail."""
    patch = spacelike_helix()
    assert check_shape_operator_routes(patch).passed
    second_form = surface_module._second_form

    def flipped(space, s):
        (h11, h12), (_, h22) = second_form(space, s)
        return ((h11, -h12), (-h12, h22))

    monkeypatch.setattr(surface_module, "_second_form", flipped)
    assert weingarten_route_gap(patch) > 1e-2
    assert not check_shape_operator_routes(patch).passed


def test_shape_operator_rejects_unknown_basis():
    patch = spacelike_helix()
    with pytest.raises(ValueError):
        shape_operator(patch, 0.0, 0.0, basis="nope")


@pytest.mark.parametrize("delta,causal", PLANES)
def test_minimal_plane_oracles(delta, causal):
    tau = 1.0
    for phi0 in (0.0, 0.7):
        patch = make_minimal_plane(delta, causal, phi0, tau=tau)
        eps = 1 if causal == "timelike" else -1
        for (u, v) in ((0.0, 0.0), (0.5, -0.8)):
            assert abs(angle_function(patch, u, v)) < 1e-12
            assert abs(mean_curvature(patch, u, v)) < 1e-10
            assert abs(gaussian_curvature(patch, u, v, method="extrinsic")) < 1e-10
            assert abs(gaussian_curvature(patch, u, v, method="intrinsic")) < 1e-8
            sa = shape_operator(patch, u, v, basis="adapted-TJT")
            assert abs(sa.s11) < 1e-10
            assert abs(sa.s22) < 1e-10
            assert sa.s12 == pytest.approx(delta * eps * tau, abs=1e-10)
            assert sa.s21 == pytest.approx(-delta * tau, abs=1e-10)


CYLINDER_CASES = (
    # (delta, causal, expected H, expected mu)
    (-1, "timelike", 0.5, 1.0),
    (1, "timelike", -0.5, -1.0),
    (1, "spacelike", -0.5, -1.0),
)


@pytest.mark.parametrize("delta,causal,h_want,mu_want", CYLINDER_CASES)
@pytest.mark.parametrize("tau", (0.5, 1.0))
def test_cmc_cylinder_oracles(delta, causal, h_want, mu_want, tau):
    patch = make_cmc_cylinder(delta, causal, tau)
    eps = 1 if causal == "timelike" else -1
    for (u, v) in ((0.0, 0.0), (-0.4, 0.9)):
        assert abs(angle_function(patch, u, v)) < 1e-12
        assert mean_curvature(patch, u, v) == pytest.approx(h_want, abs=1e-9)
        assert abs(gaussian_curvature(patch, u, v, method="extrinsic")) < 1e-9
        sa = shape_operator(patch, u, v, basis="adapted-TJT")
        assert abs(sa.s11) < 1e-9
        assert sa.s12 == pytest.approx(delta * eps * tau, abs=1e-9)
        assert sa.s21 == pytest.approx(-delta * tau, abs=1e-9)
        assert sa.s22 == pytest.approx(mu_want, abs=1e-9)


def test_helix_constant_angle_values():
    sl = spacelike_helix()
    tl = timelike_helix()
    for (u, v) in ((0.0, 0.0), (0.6, -0.5)):
        assert abs(angle_function(sl, u, v)) == pytest.approx(
            math.sinh(ASINH1), abs=1e-9)
        assert abs(angle_function(tl, u, v)) == pytest.approx(
            math.sin(math.pi / 4.0), abs=1e-9)
    # K is constant: -4 tau^2 sinh^2 / +4 tau^2 sin^2
    assert gaussian_curvature(sl, 0.3, 0.2, method="extrinsic") == pytest.approx(
        -4.0, abs=1e-8)
    assert gaussian_curvature(tl, 0.3, 0.2, method="extrinsic") == pytest.approx(
        4.0 * math.sin(math.pi / 4.0) ** 2, abs=1e-8)


def test_gauss_equation_routes_agree_on_helix():
    patch = spacelike_helix()
    for (u, v) in ((0.0, 0.0), (0.5, 0.5), (-0.7, -0.3)):
        ke = gaussian_curvature(patch, u, v, method="extrinsic")
        ki = gaussian_curvature(patch, u, v, method="intrinsic")
        assert abs(ke - ki) < 1e-5


# ------------------------------------------------------ grid report


def test_grid_points_inclusive():
    us, vs = grid_points(((0.0, 1.0), (-1.0, 1.0)), 5, 3)
    assert us == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert vs == [-1.0, 0.0, 1.0]


def test_geometry_report_structure():
    patch = make_cmc_cylinder(-1, "timelike", 1.0)
    rep = geometry_report(patch, 6, 7)
    assert len(rep.records) == 42
    assert rep.basis == "adapted-TJT"
    summary = rep.summary()
    assert summary["samples"] == 42
    assert summary["eps"] == [1]
    assert summary["H"]["range"] < 1e-9
    assert summary["H"]["mean"] == pytest.approx(0.5, abs=1e-9)
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == GeometryReport.CSV_HEADER
    assert len(lines) == 43
    assert len(lines[1].split(",")) == 11


def test_geometry_report_names_failing_sample():
    space = SpaceParams(delta=1, tau=1.0)
    # graph z = 0 degenerates along u^2 - v^2 = 1; put that line inside the
    # grid but away from the domain center (the basis probe samples there)
    zero = (0.0, 0.0, 0.0)
    patch = SurfacePatch(
        space, lambda u, v: (u, v, 0.0),
        ((0.85, 1.25), (-0.05, 0.05)),
        jet=lambda u, v: ((u, v, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                          zero, zero, zero))
    with pytest.raises(DegenerateInducedMetric) as err:
        geometry_report(patch, 9, 3)
    assert "at sample" in str(err.value)


def test_geometry_report_names_the_grid_sample_of_a_stencil_point():
    """A guard that fails only at a stencil point of intrinsic K (v + 5e-4)
    names the grid sample that stencil belongs to, not the displaced point,
    so the named (u, v) is a row of the report."""
    space = SpaceParams(delta=1, tau=1.0)

    def jet(u, v):
        w = np.sqrt(0.5002 - v) / np.sqrt(0.5002 - v)  # NaN past v = 0.5002
        zero = 0.0 * w
        return ((u * w, v * w, zero), (w, zero, zero), (zero, w, zero),
                (zero,) * 3, (zero,) * 3, (zero,) * 3)

    patch = SurfacePatch(space, lambda u, v: (u, v, 0.0),
                         ((-0.5, 0.5), (-0.5, 0.5)), jet=jet)
    with pytest.raises(NonFiniteJet) as err:
        geometry_report(patch, 5, 5)
    assert err.value.sample == (-0.5, 0.5)
    assert "at sample (u=-0.5, v=0.5)" in str(err.value)


# ------------------------------------------------------ batches


def batch_patches() -> list[SurfacePatch]:
    return default_family_matrix() + [
        make_helix_surface(HelixProfile(
            "timelike", 1.0, math.pi / 4.0, c=0.1,
            eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0)))),
        SurfacePatch(SpaceParams(delta=1, tau=1.0),
                     lambda u, v: (math.cosh(v), math.sinh(v), u - v),
                     ((-1.2, 1.2), (-1.2, 1.2)))]


@pytest.mark.parametrize("index", range(10))
def test_batch_matches_one_point_calls(index):
    """Every geometry function takes a batch of points as 1-D arrays and
    returns arrays whose entries are its one-point values: the same code
    runs both, up to libm rounding (numpy's and math's cosh can differ in
    the last bit) amplified by the stencils of the finite differences."""
    patch = batch_patches()[index]
    u = np.array([-0.9, -0.3, 0.2, 0.7])
    v = np.array([0.5, -0.8, 0.1, 0.9])
    fns = {
        "nu": (lambda a, b: angle_function(patch, a, b), 1e-12),
        "H": (lambda a, b: mean_curvature(patch, a, b), 1e-12),
        "K_ext": (lambda a, b: gaussian_curvature(patch, a, b), 1e-11),
        "K_int": (lambda a, b: gaussian_curvature(patch, a, b, "intrinsic"), 1e-6),
        "S": (lambda a, b: shape_operator(patch, a, b, "adapted-TJT").entries(),
              1e-11),
        "N": (lambda a, b: unit_normal(patch, a, b), 1e-12),
        "T": (lambda a, b: tangent_part_T(patch, a, b), 1e-12),
    }
    for name, (fn, tol) in fns.items():
        batch = np.asarray(fn(u, v), dtype=float)
        assert batch.shape[-1] == 4, name
        for i in range(4):
            one = fn(float(u[i]), float(v[i]))
            assert np.all(np.abs(batch[..., i] - np.asarray(one)) <= tol), name
    assert isinstance(angle_function(patch, 0.1, 0.2), float)
    assert isinstance(shape_operator(patch, 0.1, 0.2).s11, float)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_jet_names_the_sample_and_family():
    """cosh(v) overflows past v = 710.48: the jet raises NonFiniteJet at the
    first such sample of a batch, and at a single sample too (where
    math.cosh raises OverflowError instead of returning inf)."""
    patch = make_cmc_cylinder(1, "timelike", 1.0,
                              domain=((-1.0, 1.0), (700.0, 712.0)))
    with pytest.raises(NonFiniteJet) as err:
        patch.jet(np.array([0.0, 0.5, -0.5]), np.array([705.0, 711.0, 711.5]))
    assert err.value.sample == (0.5, 711.0)
    assert err.value.family["family"] == "cmc_cylinder"
    assert "at sample (u=0.5, v=711)" in str(err.value)
    with pytest.raises(NonFiniteJet) as err:
        patch.jet(-0.5, 711.5)
    assert err.value.sample == (-0.5, 711.5)
    patch.jet(0.0, 705.0)
    # a finite-difference patch on a float-only position: the batch loop
    # names the point whose OverflowError stopped it, not the first point
    fd = SurfacePatch(patch.space,
                      lambda u, v: (u, math.sinh(v), math.cosh(v)),
                      patch.domain, family={"family": "scalar"})
    with pytest.raises(NonFiniteJet) as err:
        fd.jet(np.array([0.0, 0.5, -0.5]), np.array([705.0, 711.0, 711.5]))
    assert err.value.sample == (0.5, 711.0)
    assert err.value.family == {"family": "scalar"}
    assert "at sample (u=0.5, v=711)" in str(err.value)
