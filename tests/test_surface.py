"""Unit tests for surface geometry: fundamental forms, normal gauge, shape
operator (the second-form route checked against the metric-variation route
and a test-side Weingarten route), curvatures, adapted frame, grid reports.

Family-specific numbers frozen here were derived by hand from the adopted
conventions and confirmed through the package's finite-difference route
before being pinned.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisgeo import ambient, cli
from heisgeo.ambient import SpaceParams, metric_eval
from heisgeo.errors import (
    DegenerateInducedMetric,
    NonFiniteJet,
    OutOfDomain,
    UnsupportedKappa,
)
from heisgeo.families import (
    EtaSpec,
    HelixProfile,
    make_cmc_cylinder,
    make_helix_surface,
    make_minimal_plane,
)
from heisgeo.numeric import (FLOAT_DIGITS, Taylor, central_diff, derivative,
                             fmt_float)
import heisgeo.surface as surface_module
from heisgeo.surface import (
    GeometryReport,
    SurfacePatch,
    angle_function,
    causal_character,
    gaussian_curvature,
    geometry_report,
    grid_batch,
    grid_points,
    induced_metric,
    mean_curvature,
    second_fundamental_form,
    shape_operator,
    tangent_part_T,
    tangent_rotation_J,
    unit_normal,
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


#: step of the test-side Weingarten route's central differences
WEINGARTEN_STEP = 1e-5


def weingarten_by_offset(patch, u, v):
    """The Weingarten route, an independent twin of the shape operator: one
    sample per stencil offset, the covariant derivative of the normal by
    central differences plus the connection correction, its normal part
    removed, then one 2x2 solve per column."""
    space = patch.space
    h = np.full(np.shape(u), WEINGARTEN_STEP)
    s, up, um, vp, vm = [surface_module._sample(patch, u + du * h, v + dv * h)
                         for du, dv in ((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0),
                                        (0.0, 1.0), (0.0, -1.0))]
    e, f, g = s.form.e, s.form.f, s.form.g
    columns = []
    for x, plus, minus in ((s.a, up, um), (s.b, vp, vm)):
        corr = ambient.frame_connection_correction(space, x, s.n)
        w = [-1.0 * (0.0 + (p - m) / (2.0 * h) + c)
             for p, m, c in zip(plus.n, minus.n, corr)]
        coeff = s.eps * ambient.frame_metric(space, w, s.n)
        w = [wi - coeff * ni for wi, ni in zip(w, s.n)]
        r1, r2 = (ambient.frame_metric(space, w, y) for y in (s.a, s.b))
        det = e * g - f * f
        columns.append(((r1 * g - r2 * f) / det, (e * r2 - f * r1) / det))
    return tuple(zip(*columns))


def weingarten_route_gap(patch) -> float:
    """max |S - S_Weingarten| / max(1, max |S|) over three points, with S the
    shape operator heisgeo reports (S = eps I^{-1} h on analytic patches)
    and S_Weingarten the test-side finite difference of the normal field."""
    worst = 0.0
    for (u, v) in ((0.0, 0.0), (0.45, -0.35), (-0.6, 0.8)):
        got = shape_operator(patch, u, v, basis="coordinate").entries()
        alt = weingarten_by_offset(patch, u, v)
        scale = max(1.0, max(abs(x) for row in got for x in row))
        worst = max(worst, max(abs(got[i][j] - alt[i][j])
                               for i in range(2) for j in range(2)) / scale)
    return worst


@pytest.mark.parametrize("builder", ROUTE_PATCHES)
def test_shape_operator_two_routes_agree(builder):
    assert weingarten_route_gap(builder()) < 1e-8


@pytest.mark.parametrize("builder", ROUTE_PATCHES)
def test_analytic_shape_operator_is_the_second_form(builder):
    """On family patches S solves I S = eps h exactly (up to rounding),
    with h from second_fundamental_form."""
    patch = builder()
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


@pytest.mark.parametrize("index", range(9))
def test_route_check_detects_a_connection_correction_error(monkeypatch, index):
    """The metric-variation route reads no connection term, so it agrees
    with the second form to rounding on the 20x20 grid and separates a
    defect in `frame_connection_correction`, which the second form reads:
    scaled by 1.05, the route check fails on every matrix patch and the
    README helix (a route that also read the correction would share it)."""
    patch = (default_family_matrix() + [readme_helix()])[index]
    assert check_shape_operator_routes(patch, (20, 20)).max_residual <= 1e-12
    correction = ambient.frame_connection_correction

    def scaled(space, xf, wf):
        return tuple(1.05 * c for c in correction(space, xf, wf))

    monkeypatch.setattr(ambient, "frame_connection_correction", scaled)
    mutant = (default_family_matrix() + [readme_helix()])[index]
    assert not check_shape_operator_routes(mutant, (20, 20)).passed


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


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308])


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.lists(_FINITE, min_size=13, max_size=13),
                               st.sampled_from([-1, 1])),
                     min_size=1, max_size=5))
def test_report_rows_and_obj_lines_are_fmt_float_text(rows):
    """The CSV row and OBJ vertex templates write each value as
    `fmt_float` (17 significant digits, "%.*g") and eps as its int."""
    columns = tuple(map(list, zip(*[(*x[:6], eps, *x[6:]) for x, eps in rows])))
    report = GeometryReport("p", None, "coordinate", (1, len(rows)), columns)
    assert report.to_csv() == "\n".join([GeometryReport.CSV_HEADER] + [
        ",".join([fmt_float(x) for x in xs[:6]] + [str(eps)]
                 + [fmt_float(x) for x in xs[6:10]])
        for xs, eps in rows]) + "\n"
    assert [(r.eps, r.t_comps) for r in report.records] == [
        (eps, tuple(xs[10:])) for xs, eps in rows]
    for xs, _ in rows:
        assert cli._VERTEX_LINE % tuple(xs[:3]) == "v " + " ".join(
            [fmt_float(x) for x in xs[:3]])
        assert [fmt_float(x) for x in xs] == ["%.*g" % (FLOAT_DIGITS, x)
                                              for x in xs]


def test_csv_formats_each_distinct_value_once_keeping_signed_zeros():
    """to_csv formats each distinct value of a column once: columns that
    hold 0.0, -0.0 and repeated values, and real reports, give the bytes
    of the row template, with -0.0 written "-0" where it stands."""
    col = [0.0, -0.0, 0.25, 0.25, -0.0, 0.0, 1e-300, 0.25]
    columns = tuple([list(col)] * 6 + [[1, -1, 1, 1, -1, 1, -1, 1]]
                    + [col[::-1]] * 4 + [[0.0] * 8] * 3)
    reports = [GeometryReport("p", None, "coordinate", (2, 4), columns)] + [
        geometry_report(patch, 12, 12)
        for patch in (make_cmc_cylinder(-1, "timelike", 1.0), readme_helix())]
    for report in reports:
        assert report.to_csv() == "\n".join([GeometryReport.CSV_HEADER] + [
            GeometryReport.CSV_ROW % r for r in zip(*report.columns[:11])]) + "\n"
    assert reports[0].to_csv().splitlines()[2].startswith("-0,-0,-0,")


def readme_helix() -> SurfacePatch:
    return make_helix_surface(HelixProfile(
        "timelike", 1.0, math.pi / 4.0, c=0.1,
        eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0))))


@pytest.mark.parametrize("index", range(9))
def test_report_k_int_is_the_public_intrinsic_k(index):
    """The report reads K_int from the order-3 jet of its grid that also
    gives its samples: bit for bit what gaussian_curvature(..., "intrinsic")
    gives on the same batch from a jet of its own."""
    patch = (default_family_matrix() + [readme_helix()])[index]
    report = geometry_report(patch, 12, 12)
    u, v = grid_batch(*grid_points(patch.domain, 12, 12))
    assert report.columns[5] == gaussian_curvature(
        patch, u, v, "intrinsic").tolist()


def translated(patch: SurfacePatch, q) -> SurfacePatch:
    """The patch moved by the left translation L_q(x, y, z) = (x + a, y + b,
    z + c + tau (a y - b x)), an isometry of the ambient space."""
    a, b, c = q
    tau = patch.space.tau

    def position(u, v):
        x, y, z = patch.position(u, v)
        return (x + a, y + b, z + c + tau * (a * y - b * x))

    return SurfacePatch(patch.space, position, patch.domain, name=patch.name,
                        family=patch.family)


def c_minus_5_helix() -> SurfacePatch:
    return make_helix_surface(HelixProfile(
        "spacelike", 1.0, ASINH1, c=-5.0, eta=EtaSpec("linear", (0.0, 1.0))))


@st.composite
def sweep_helices(draw) -> SurfacePatch:
    """Helices from the benchmark sweep's parameter ranges: a causal
    character and angle, theta and c jittered, a sinusoidal or quadratic
    eta with jittered coefficients."""
    causal, theta, kind = draw(st.sampled_from((
        ("timelike", math.pi / 4.0, "sinusoidal"),
        ("spacelike", ASINH1, "polynomial"),
        ("spacelike", ASINH1, "sinusoidal"),
        ("timelike", math.pi / 4.0, "polynomial"))))
    if kind == "sinusoidal":
        coefficients = (0.3 + draw(st.floats(-0.1, 0.1)),
                        1.0 + draw(st.floats(-0.2, 0.2)),
                        draw(st.floats(-math.pi, math.pi)))
    else:
        coefficients = (draw(st.floats(-0.2, 0.2)),
                        1.0 + draw(st.floats(-0.2, 0.2)),
                        draw(st.floats(-0.3, 0.3)))
    return make_helix_surface(HelixProfile(
        causal, 1.0, theta + draw(st.floats(-0.05, 0.05)),
        c=0.1 + draw(st.floats(-0.05, 0.05)), eta=EtaSpec(kind, coefficients)))


@settings(max_examples=40, deadline=None)
@given(patch=st.one_of(st.sampled_from(range(9)).map(
           lambda i: (default_family_matrix() + [c_minus_5_helix()])[i]),
       sweep_helices()),
       q=st.tuples(*[st.floats(-2.0, 2.0)] * 3))
def test_left_translation_keeps_the_report_invariants(patch, q):
    """Isometry oracle, independent of the classification formulas: a left
    translation of the immersion leaves nu, H, K_ext and K_int unchanged at
    every grid sample, to 1e-8 relative (1e-9 is the worst seen, on the
    c = -5 helix where |K| = 4)."""
    before = geometry_report(patch, 12, 12)
    after = geometry_report(translated(patch, q), 12, 12)
    for k in (2, 3, 4, 5):  # nu, H, K_ext, K_int
        want, got = np.array(before.columns[k]), np.array(after.columns[k])
        assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, abs(want))), k


def test_geometry_report_names_failing_sample():
    space = SpaceParams(delta=1, tau=1.0)
    # graph z = 0 degenerates along u^2 - v^2 = 1; put that line inside the
    # grid but away from the domain center (the basis probe samples there)
    patch = SurfacePatch(space, lambda u, v: (u, v, 0.0),
                         ((0.85, 1.25), (-0.05, 0.05)))
    with pytest.raises(DegenerateInducedMetric) as err:
        geometry_report(patch, 9, 3)
    assert "at sample" in str(err.value)


# ------------------------------------------------------ batches


def batch_patches() -> list[SurfacePatch]:
    return default_family_matrix() + [
        make_helix_surface(HelixProfile(
            "timelike", 1.0, math.pi / 4.0, c=0.1,
            eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0)))),
        SurfacePatch(SpaceParams(delta=1, tau=1.0),
                     lambda u, v: (np.cosh(v), np.sinh(v), u - v),
                     ((-1.2, 1.2), (-1.2, 1.2)))]


@pytest.mark.parametrize("index", range(10))
def test_batch_matches_one_point_calls(index):
    """Every geometry function takes a batch of points as 1-D arrays and
    returns arrays whose entries are its one-point values, bit for bit: a
    family position, eta, the slopes and the profile tables run on numpy
    whatever the input kind, and so does the last patch's position, written
    outside the families."""
    patch = batch_patches()[index]
    u = np.array([-0.9, -0.3, 0.2, 0.7])
    v = np.array([0.5, -0.8, 0.1, 0.9])
    fns = {
        "nu": lambda a, b: angle_function(patch, a, b),
        "H": lambda a, b: mean_curvature(patch, a, b),
        "K_ext": lambda a, b: gaussian_curvature(patch, a, b),
        "K_int": lambda a, b: gaussian_curvature(patch, a, b, "intrinsic"),
        "S": lambda a, b: shape_operator(patch, a, b, "adapted-TJT").entries(),
        "N": lambda a, b: unit_normal(patch, a, b),
        "T": lambda a, b: tangent_part_T(patch, a, b),
    }
    for name, fn in fns.items():
        batch = np.asarray(fn(u, v), dtype=float)
        assert batch.shape[-1] == 4, name
        for i in range(4):
            one = np.asarray(fn(float(u[i]), float(v[i])), dtype=float)
            assert np.array_equal(batch[..., i], one), (name, i)
    assert isinstance(angle_function(patch, 0.1, 0.2), float)
    assert isinstance(shape_operator(patch, 0.1, 0.2).s11, float)


def test_non_finite_jet_names_the_sample_and_family():
    """cosh(v) overflows past v = 710.48: the jet raises NonFiniteJet at the
    first such sample of a batch in u-major order, and at a single sample
    too, where numpy's cosh returns inf as it does in a batch."""
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


# ---- kept jets ----


def counting(patch: SurfacePatch) -> tuple[SurfacePatch, list]:
    """A new patch with `patch`'s position, and the list of the (u, v) of
    each call of that position, in order."""
    calls = []

    def position(u, v):
        calls.append((u, v))
        return patch.position(u, v)

    return SurfacePatch(patch.space, position, patch.domain), calls


def arrays(field) -> list:
    """The components of a jet field, a Taylor value's coefficients for it."""
    return [c.c if type(c) is Taylor else c for c in field]


def same_bits(got, want) -> bool:
    """Whether two jet fields hold the same kinds, shapes and bits."""
    return all(type(a) is type(b) and np.shape(a) == np.shape(b)
               and np.asarray(a).tobytes() == np.asarray(b).tobytes()
               for a, b in zip(arrays(got), arrays(want)))


_FIELDS = ("p", "fu", "fv", "fuu", "fuv", "fvv")


@pytest.mark.parametrize("index", range(10))
def test_kept_jet_equals_a_fresh_patch_jet(index):
    """A jet the patch kept equals the jet of a fresh patch at the same
    points bit for bit, at orders 2 and 3, for a batch and for one sample:
    the kept jet itself, and at order 2 the values of a kept order-3 jet.
    Only the first call at the points evaluates `position`."""
    patch = batch_patches()[index]
    (u0, u1), (v0, v1) = patch.domain
    for u, v in ((np.linspace(u0, u1, 7), np.linspace(v1, v0, 7)),
                 (0.3 * u0 + 0.7 * u1, 0.6 * v0 + 0.4 * v1)):
        for first, then in ((3, 3), (3, 2), (2, 2)):
            kept, calls = counting(patch)
            kept.jet(u, v, order=first)
            got = kept.jet(u, v, order=then)
            assert len(calls) == 1
            want = counting(patch)[0].jet(u, v, order=then)
            assert all(same_bits(getattr(got, f), getattr(want, f))
                       for f in _FIELDS), (first, then)


def test_kept_jet_keys_on_the_bits_of_u_and_v():
    """A kept jet is returned only at the same bits of (u, v): after an
    in-place edit of the caller's array, at -0.0 for 0.0, and at order 3
    after an order-2 jet the patch evaluates again, as it does at orders 0
    and 1, which it never keeps.  One batch and one sample are kept at a
    time."""
    patch, calls = counting(_flat_plane())
    u, v = np.array([0.0, 0.1, -0.2]), np.array([0.3, 0.2, 0.1])
    patch.jet(u, v)
    patch.jet(0.0, 0.2)
    patch.jet(u, v)
    patch.jet(0.0, 0.2)
    assert len(calls) == 2
    u[1] = 0.25
    j = patch.jet(u, v)
    assert len(calls) == 3 and j.p[0][1] == 0.25
    patch.jet(-0.0, 0.2)
    patch.jet(np.array([-0.0, 0.25, -0.2]), v)
    assert len(calls) == 5
    for order in (3, 0, 1, 1):
        patch.jet(-0.0, 0.2, order=order)
    assert len(calls) == 9


def test_kept_jet_cannot_be_written():
    """Every array a kept jet hands out is read-only, its values at order 2
    included, so that no consumer can change what the next one reads."""
    patch = readme_helix()
    u, v = np.array([0.1, 0.2]), np.array([-0.3, 0.4])
    j3 = patch.jet(u, v, order=3)
    for j in (j3, patch.jet(u, v), patch.jet(0.1, -0.3, order=3)):
        for f in _FIELDS:
            for a in arrays(getattr(j, f)):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        patch.jet(u, v, order=2).fu[0] += 1.0


def test_jet_that_raises_keeps_nothing():
    """A jet that raises keeps nothing: the same call evaluates `position`
    again and raises again, and the jet kept before it is still returned."""
    patch, calls = counting(make_cmc_cylinder(
        1, "timelike", 1.0, domain=((-1.0, 1.0), (700.0, 712.0))))
    ok = np.array([0.0, 0.5]), np.array([705.0, 706.0])
    bad = np.array([0.0, 0.5]), np.array([705.0, 711.0])
    patch.jet(*ok)
    for _ in range(2):
        with pytest.raises(NonFiniteJet):
            patch.jet(*bad)
    patch.jet(*ok)
    assert len(calls) == 3


@pytest.mark.parametrize("order", range(4))
def test_math_position_raises_type_error(order):
    """`position` must take Taylor values at every order, the point alone
    included: one written with `math` raises TypeError from `jet`, for one
    sample and for a batch."""
    patch = SurfacePatch(SpaceParams(delta=1, tau=1.0),
                         lambda u, v: (math.cosh(v), math.sinh(v), u - v),
                         ((-1.2, 1.2), (-1.2, 1.2)))
    with pytest.raises(TypeError):
        patch.jet(0.3, -0.4, order=order)
    with pytest.raises(TypeError):
        patch.jet(np.array([0.3, -0.2]), np.array([-0.4, 0.5]), order=order)


#: the partials up to third order as sorted variable indices (0: u, 1: v),
#: in the order of the jet's fields: p, Fu, Fv, Fuu, Fuv, Fvv, then third
_PARTIALS = [axes for k in range(4)
             for axes in itertools.combinations_with_replacement((0, 1), k)]


def differenced_partials(patch: SurfacePatch, u: float, v: float) -> dict:
    """Every partial of `position` up to third order at (u, v), by nested
    fourth-order central differences at step 1e-2, with `position` called
    on floats: an oracle that shares no code with the Taylor jet."""
    def along(f, axis):
        def df(du, dv):
            return central_diff(lambda t: np.array(
                [f(du + x, dv) if axis == 0 else f(du, dv + x)
                 for x in t.tolist()]).T, 1e-2, order=4)
        return df

    def point(du, dv):
        return np.array(patch.position(u + du, v + dv), dtype=float)

    out = {}
    for axes in _PARTIALS:
        f = point
        for axis in axes:
            f = along(f, axis)
        out[axes] = f(0.0, 0.0)
    return out


@pytest.mark.parametrize("index", range(9))
def test_jet_matches_its_differenced_twin(index):
    """On every default-matrix patch and the README helix, at three interior
    points, the six fields of the order-2 jet, and every partial up to
    third order in all that the order-3 jet's fields carry (the ten of p
    among them), agree with the differenced twin to 1e-8 relative to
    max(1, |partial|).  The twin itself errs by at most 1.2e-9 here,
    truncation and rounding alike."""
    patch = batch_patches()[index]
    (u0, u1), (v0, v1) = patch.domain
    for s, t in ((0.3, 0.6), (0.7, 0.25), (0.5, 0.5)):
        u, v = u0 + s * (u1 - u0), v0 + t * (v1 - v0)
        twin = differenced_partials(patch, u, v)

        def check(got, axes, what):
            want = twin[tuple(sorted(axes))]
            gap = np.abs(np.array(got, dtype=float) - want)
            assert np.all(gap <= 1e-8 * np.maximum(1.0, np.abs(want))), what

        j2, j3 = patch.jet(u, v), patch.jet(u, v, order=3)
        for name, base in zip(("p", "fu", "fv", "fuu", "fuv", "fvv"),
                              _PARTIALS):
            check(getattr(j2, name), base, name)
            for axes in _PARTIALS:
                if len(base) + len(axes) <= 3:
                    check([derivative(c, *axes) for c in getattr(j3, name)],
                          base + axes, (name, axes))


def _flat_plane(kappa: float = 0.0) -> SurfacePatch:
    """The plane z = 0, tangent to span(E1, E2) at the origin."""
    return SurfacePatch(SpaceParams(1, 1.0, kappa),
                        lambda u, v: (u, v, 0.0 * u), ((-0.5, 0.5), (-0.5, 0.5)))


def test_coordinate_basis_report_where_t_vanishes():
    """At the origin the plane z = 0 is tangent to span(E1, E2): nu = 1 and
    g(T, T) = 0, so the report falls back to the coordinate basis.  Its S
    columns are then shape_operator's coordinate entries, and K_ext is
    -tau^2 + eps (det S + 4 delta nu^2 tau^2) with det S from
    ShapeOperator2x2.det."""
    patch = _flat_plane()
    assert angle_function(patch, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    report = geometry_report(patch, 9, 9)
    assert report.basis == "coordinate"
    u, v, nu, _, k_ext, _, eps, *entries = [np.array(c)
                                            for c in report.columns[:11]]
    assert set(eps.tolist()) == {1}
    s = shape_operator(patch, u, v)
    assert all(np.array_equal(got, want)
               for got, want in zip(entries, (s.s11, s.s12, s.s21, s.s22)))
    tau2, delta = 1.0, 1
    want = -tau2 + eps * (s.det + 4.0 * delta * nu * nu * tau2)
    assert np.allclose(k_ext, want, rtol=0.0, atol=1e-12)


# guards that no other test reaches: each raises its documented error
@pytest.mark.parametrize("call, error", (
    (lambda: SurfacePatch(SpaceParams(1, 1.0), lambda u, v: (u, v, 0.0 * u),
                          ((0.5, 0.5), (-0.5, 0.5))), ValueError),
    (lambda: gaussian_curvature(_flat_plane(0.5), 0.0, 0.0), UnsupportedKappa),
    (lambda: gaussian_curvature(_flat_plane(), 0.0, 0.0, method="x"),
     ValueError),
), ids=("degenerate_domain", "extrinsic_k_at_nonzero_kappa", "unknown_k_method"))
def test_guards_raise_documented_errors(call, error):
    with pytest.raises(error):
        call()
