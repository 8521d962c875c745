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
from hypothesis import given, settings, strategies as st

from heisgeo import cli
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
from heisgeo.numeric import FLOAT_DIGITS, derivative, fmt_float
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
    _sample,
    _second_form_shape,
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


def float_only(patch: SurfacePatch) -> SurfacePatch:
    """The patch with a position that takes floats only, as code written
    with `math` does: its jet is differenced."""
    def position(u, v):
        return tuple([float(c) for c in patch.position(float(u), float(v))])

    return SurfacePatch(patch.space, position, patch.domain)


def test_fd_jet_patch_matches_analytic_twin():
    analytic = make_cmc_cylinder(-1, "timelike", 1.0)
    fd = float_only(analytic)
    ja = analytic.jet(0.3, -0.4)
    jf = fd.jet(0.3, -0.4)
    for name in ("p", "fu", "fv", "fuu", "fuv", "fvv"):
        va, vf = getattr(ja, name), getattr(jf, name)
        assert max(abs(va[i] - vf[i]) for i in range(3)) < 1e-5, name


def test_fd_jet_patch_refuses_boundary_stencils():
    analytic = make_cmc_cylinder(-1, "timelike", 1.0, domain=((0.0, 1.0), (0.0, 1.0)))
    fd = float_only(analytic)
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
        alt = _weingarten_shape(patch, u, v)
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


def test_fd_jet_patches_take_the_second_form_route():
    """A float-only position's jet is differenced, and the patch takes the
    same second-form shape operator as a family patch; it stays near the
    exact twin."""
    analytic = spacelike_helix()
    fd = float_only(analytic)
    u, v = 0.3, -0.2
    want = _second_form_shape(fd.space, _sample(fd, u, v))
    assert shape_operator(fd, u, v).entries() == want
    twin = shape_operator(analytic, u, v).entries()
    assert max(abs(want[i][j] - twin[i][j])
               for i in range(2) for j in range(2)) < 1e-7


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
                     lambda u, v: (math.cosh(v), math.sinh(v), u - v),
                     ((-1.2, 1.2), (-1.2, 1.2)))]


@pytest.mark.parametrize("index", range(10))
def test_batch_matches_one_point_calls(index):
    """Every geometry function takes a batch of points as 1-D arrays and
    returns arrays whose entries are its one-point values, bit for bit: a
    family position, eta, the slopes and the profile tables run on numpy
    whatever the input kind, and a float-only position is differenced one
    point at a time in a batch too."""
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
    too, where numpy's cosh returns inf as it does in a batch.  A float-only
    position follows the same rule: a stencil point where math.cosh raises
    OverflowError is an infinite point of its sample."""
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
    # a finite-difference patch on a float-only position: the first sample
    # with an overflowing stencil point, not the first sample of the batch
    fd = SurfacePatch(patch.space,
                      lambda u, v: (u, math.sinh(v), math.cosh(v)),
                      patch.domain, family={"family": "scalar"})
    with pytest.raises(NonFiniteJet) as err:
        fd.jet(np.array([0.0, 0.5, -0.5]), np.array([705.0, 711.0, 711.5]))
    assert err.value.sample == (0.5, 711.0)
    assert err.value.family == {"family": "scalar"}
    assert "at sample (u=0.5, v=711)" in str(err.value)
    # at order 0 one sample is evaluated directly, under the same rule
    with pytest.raises(NonFiniteJet) as err:
        fd.jet(0.5, 711.0, order=0)
    assert err.value.sample == (0.5, 711.0)


def test_float_only_third_partials_converge_at_second_order(monkeypatch):
    """The differenced jet of a float-only position takes its third partials
    from the stencil's second-order differences: at h, h/2 and h/4 their
    errors against the exact Taylor jet fall by about 4 each time."""
    exact_patch = make_helix_surface(HelixProfile(
        "timelike", 1.0, math.pi / 4.0, c=0.1,
        eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0))))
    fd = float_only(exact_patch)

    def thirds(patch):
        j = patch.jet(0.3, -0.2, order=3)
        return np.array([derivative(c, i) for vec in (j.fuu, j.fvv)
                         for c in vec for i in (0, 1)])

    exact = thirds(exact_patch)
    gaps = []
    for h in (0.04, 0.02, 0.01):
        monkeypatch.setattr(surface_module, "_FD_STEP", h)
        gaps.append(np.abs(thirds(fd) - exact))
    seen = gaps[0] > 1e-7  # the partials with a truncation term
    assert seen.sum() >= 8
    for coarse, fine in zip(gaps, gaps[1:]):
        order = np.log2(coarse[seen] / fine[seen])
        assert np.all(np.abs(order - 2.0) < 0.1), order


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
