"""Unit tests for the surface-family generators and profile construction.

Position values and profile constants frozen here were computed by hand from
the closed-form immersions and confirmed against the package's quadrature
route before pinning.
"""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisgeo.errors import (
    ConfigError,
    InvalidCombination,
    InvalidParameterDomain,
    UnknownFamily,
)
from heisgeo.families import (
    DEFAULT_DOMAIN,
    EtaSpec,
    HelixProfile,
    _slope_function,
    build_profile,
    family_from_config,
    make_cmc_cylinder,
    make_helix_surface,
    make_minimal_plane,
    predicted_mu,
    predicted_mu_at_patch,
    profile_residuals,
    profile_u_from_patch_u,
)
from heisgeo.numeric import (CumulativeIntegral, Taylor, adaptive_simpson,
                             derivative)
from heisgeo.surface import shape_operator
from heisgeo.verify import default_family_matrix

ASINH1 = math.asinh(1.0)
SQRT2 = math.sqrt(2.0)


def quadrature_twin(prof: HelixProfile) -> HelixProfile:
    """prof with its constant or linear eta written as a polynomial, whose
    profile takes the quadrature route: `EtaSpec.jet` runs the same Horner
    loop for all three kinds, so the integrands are bit for bit the same."""
    return dataclasses.replace(prof, eta=EtaSpec("polynomial",
                                                 prof.eta.coefficients))


# ------------------------------------------------------------- EtaSpec


def test_eta_constant_and_linear():
    k = EtaSpec("constant", (0.7,))
    assert k(0.0) == 0.7 and k(5.0) == 0.7
    assert k.jet(2.0) == (0.7, 0.0, 0.0)
    lin = EtaSpec("linear", (0.5, -2.0))
    assert lin(0.25) == 0.0
    assert lin.jet(9.0) == (-17.5, -2.0, 0.0)
    # an identically zero derivative is a number, which broadcasts
    v = np.array([0.0, 1.0, 2.0])
    assert [np.shape(e) for e in lin.jet(v)] == [(3,), (3,), ()]


def test_eta_polynomial_horner():
    p = EtaSpec("polynomial", (1.0, 2.0, 3.0))
    assert p(0.5) == pytest.approx(2.75, abs=1e-15)
    assert p.jet(0.5) == pytest.approx((2.75, 5.0, 6.0), abs=1e-15)
    cubic = EtaSpec("polynomial", (1.0, 2.0, 3.0, 4.0))
    assert cubic.jet(-0.5) == pytest.approx((0.25, 2.0, -6.0), abs=1e-15)
    # degree 6 allowed, degree 7 not
    EtaSpec("polynomial", tuple(range(7)))
    with pytest.raises(InvalidParameterDomain):
        EtaSpec("polynomial", tuple(range(8)))


def test_eta_sinusoidal():
    s = EtaSpec("sinusoidal", (0.3, 2.0, 0.5))
    v = 0.7
    assert s(v) == pytest.approx(0.3 * math.sin(2.0 * v + 0.5), abs=1e-15)
    assert s.jet(v) == pytest.approx(
        (0.3 * math.sin(2.0 * v + 0.5), 0.6 * math.cos(2.0 * v + 0.5),
         -1.2 * math.sin(2.0 * v + 0.5)), abs=1e-15)
    # the one-point jet is the batch's entry, bit for bit
    vs = np.array([-1.1, 0.2, v])
    assert [e[2] for e in s.jet(vs)] == list(s.jet(v))


@pytest.mark.parametrize("kind,coeffs", [
    ("unknown", (1.0,)),
    ("constant", (1.0, 2.0)),
    ("linear", (1.0,)),
    ("sinusoidal", (1.0, 2.0)),
    ("constant", (float("nan"),)),
    ("linear", (0.0, float("inf"))),
])
def test_eta_validation_errors(kind, coeffs):
    with pytest.raises(InvalidParameterDomain):
        EtaSpec(kind, coeffs)


# ------------------------------------------------------------- profiles


def test_helix_profile_constants():
    sl = HelixProfile("spacelike", 1.0, ASINH1)
    assert sl.nu_value == pytest.approx(1.0, abs=1e-15)
    assert sl.slope_scale == pytest.approx(SQRT2, abs=1e-15)
    assert sl.constraint_target == pytest.approx(2.0, abs=1e-15)
    tl = HelixProfile("timelike", 1.0, math.pi / 4.0)
    assert tl.nu_value == pytest.approx(SQRT2 / 2.0, abs=1e-15)
    assert tl.slope_scale == pytest.approx(SQRT2 / 2.0, abs=1e-15)
    assert tl.constraint_target == pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("causal, theta", [
    ("spacelike", t) for t in (2e-8, 0.3, ASINH1, 1.7, 20.0, 700.0)] + [
    ("timelike", t) for t in (-2.5, -0.4, 1e-7, math.pi / 4.0, 1.3, 3.0)])
def test_branch_table_keeps_the_closed_formulas(causal, theta):
    """The branch table gives the angle function, slope scale and
    constraint target of the per-branch closed formulas, bit for bit."""
    prof = HelixProfile(causal, 1.0, theta)
    if causal == "spacelike":
        nu, m = math.sinh(theta), math.cosh(theta)
        target = m * m
    else:
        nu, m = math.sin(theta), math.cos(theta)
        target = -m * m
    assert (prof.nu_value, prof.slope_scale, prof.constraint_target) == (
        nu, m, target)


@pytest.mark.parametrize("kwargs", [
    dict(causal="null", tau=1.0, theta=1.0),
    dict(causal="spacelike", tau=0.0, theta=1.0),
    dict(causal="spacelike", tau=1.0, theta=0.0),
    dict(causal="spacelike", tau=1.0, theta=-0.5),
    dict(causal="timelike", tau=1.0, theta=0.0),
    dict(causal="timelike", tau=1.0, theta=math.pi / 2.0),
    dict(causal="spacelike", tau=float("nan"), theta=1.0),
])
def test_helix_profile_validation(kwargs):
    with pytest.raises(InvalidParameterDomain):
        HelixProfile(**kwargs)


@pytest.mark.parametrize("theta", (711.0, 800.0, 1e300))
def test_huge_spacelike_angle_names_the_branch(theta):
    """sinh and cosh overflow past theta = 710: the profile refuses theta
    as a parameter-domain error naming the branch and both functions, not
    with a bare OverflowError."""
    with pytest.raises(InvalidParameterDomain,
                       match=r"spacelike branch needs sinh\(theta\) and "
                             r"cosh\(theta\) finite"):
        HelixProfile("spacelike", 1.0, theta)


def test_constant_eta_profile_is_linear_in_v():
    prof = HelixProfile("spacelike", 1.0, ASINH1, c=0.2,
                        eta=EtaSpec("constant", (0.3,)))
    pf = build_profile(prof, (-1.0, 1.0))
    assert pf.source == "closed-form"
    s = 0.5  # eta + c
    k1 = SQRT2 * math.cosh(s)
    k2 = SQRT2 * math.sinh(s)
    for v in (-0.8, 0.0, 0.6):
        f1, f2, f3 = pf(v)
        assert f1 == pytest.approx(k1 * v, abs=1e-14)
        assert f2 == pytest.approx(k2 * v, abs=1e-14)
        assert f3 == 0.0


def test_profile_anchor_selection():
    prof = HelixProfile("spacelike", 1.0, ASINH1,
                        eta=EtaSpec("linear", (0.0, 1.0)))
    pf = build_profile(prof, (0.5, 1.5))
    assert pf.anchor == 0.5
    assert pf(0.5) == (0.0, 0.0, 0.0)
    pf0 = build_profile(prof, (-1.0, 1.0))
    assert pf0.anchor == 0.0


@pytest.mark.parametrize("causal,theta", [
    ("spacelike", ASINH1), ("timelike", math.pi / 4.0)])
def test_linear_eta_closed_form_vs_quadrature(causal, theta):
    """The hand-derived linear-eta closed form must match the independent
    adaptive-quadrature route."""
    prof = HelixProfile(causal, 1.0, theta, c=0.1,
                        eta=EtaSpec("linear", (0.2, 0.8)))
    closed = build_profile(prof, (-1.0, 1.0))
    quad = build_profile(quadrature_twin(prof), (-1.0, 1.0))
    assert closed.source == "closed-form"
    assert quad.source == "quadrature"
    for v in [-0.9 + 0.2 * i for i in range(10)]:
        assert closed(v) == pytest.approx(quad(v), abs=1e-9)


@pytest.mark.parametrize("c1", [1e-4, 1e-6, 1e-8, 0.0])
@pytest.mark.parametrize("causal,theta", [
    ("spacelike", ASINH1), ("timelike", math.pi / 4.0)])
def test_linear_eta_closed_form_keeps_its_digits_at_small_slope(causal, theta,
                                                                 c1):
    """The closed form divides by the slope c1; written as differences of
    cosh and sinh it lost up to 4e-8 at c1 = 1e-8, and at c1 = 0 it is the
    constant-eta profile."""
    prof = HelixProfile(causal, 1.0, theta, c=0.1,
                        eta=EtaSpec("linear", (0.2, c1)))
    closed = build_profile(prof, (-1.0, 1.0))
    quad = build_profile(quadrature_twin(prof), (-1.0, 1.0))
    assert closed.source == "closed-form"
    for v in [-0.95 + 0.1 * i for i in range(20)]:
        for i in range(3):
            assert abs(closed(v)[i] - quad(v)[i]) <= 1e-11, i


@pytest.mark.parametrize("causal,theta", [
    ("spacelike", ASINH1), ("timelike", math.pi / 4.0)])
def test_constant_eta_is_the_linear_closed_form_at_zero_slope(causal, theta):
    """Constant eta takes the linear closed form with c1 = 0: f1, f2 are
    linear in v and f3 is exactly 0, against the quadrature route to 1e-11."""
    prof = HelixProfile(causal, 1.0, theta, c=0.1,
                        eta=EtaSpec("constant", (0.2,)))
    closed = build_profile(prof, (-1.0, 1.0))
    quad = build_profile(quadrature_twin(prof), (-1.0, 1.0))
    flat = build_profile(HelixProfile(causal, 1.0, theta, c=0.1,
                                      eta=EtaSpec("linear", (0.2, 0.0))),
                         (-1.0, 1.0))
    assert (closed.source, quad.source) == ("closed-form", "quadrature")
    for v in [-0.95 + 0.1 * i for i in range(20)]:
        assert closed(v)[2] == 0.0
        assert closed(v) == flat(v)
        for i in range(3):
            assert abs(closed(v)[i] - quad(v)[i]) <= 1e-11, i


def test_profile_build_spot_checks_ten_segments_per_row(monkeypatch):
    """The README profile needs no refinement: adaptive Simpson runs only
    as the spot check, once per stage of the profile's one table: rows f1
    and f2 in one batch of 2 x 10 segments, then row f3's 10 (the first of
    every 25 of a row's 252)."""
    from heisgeo import numeric

    batches = []
    simpson = numeric.adaptive_simpson

    def counting(f, a, b, tol):
        batches.append(np.shape(a))
        return simpson(f, a, b, tol)

    monkeypatch.setattr(numeric, "adaptive_simpson", counting)
    build_profile(HelixProfile("timelike", 1.0, math.pi / 4.0, c=0.1,
                               eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0))),
                  (-1.26, 1.26))
    assert batches == [(2, 10), (1, 10)]


@pytest.mark.parametrize("eta,expect_source,tol", [
    (EtaSpec("constant", (0.4,)), "closed-form", 1e-10),
    (EtaSpec("linear", (0.0, 1.0)), "closed-form", 1e-10),
    (EtaSpec("polynomial", (0.1, 0.0, -0.3, 0.2)), "quadrature", 1e-8),
    (EtaSpec("sinusoidal", (0.3, 1.0, 0.0)), "quadrature", 1e-8),
])
def test_profile_residuals_within_tolerance(eta, expect_source, tol):
    for causal, theta in (("spacelike", ASINH1), ("timelike", math.pi / 4.0)):
        prof = HelixProfile(causal, 1.0, theta, c=0.1, eta=eta)
        pf = build_profile(prof, (-1.26, 1.26))
        assert pf.source == expect_source
        res = profile_residuals(pf)
        assert res["antiderivative"] <= tol
        assert res["derivative_constraint"] <= tol
        assert res["f3_ode"] <= tol


@pytest.mark.parametrize("prof", [
    HelixProfile("spacelike", 1.0, ASINH1, c=0.1,
                 eta=EtaSpec("linear", (0.0, 1.0))),
    HelixProfile("timelike", 1.0, math.pi / 4.0, c=0.1,
                 eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0))),
], ids=("linear", "readme_sinusoidal"))
def test_profile_residual_stencil_shows_fourth_order(monkeypatch, prof):
    """Halving the step of `profile_residuals`' five-point stencil from 0.04
    to 0.02 divides what it reads by about 2^4 = 16: the residuals are the
    stencil's truncation, so its observed order is 4.  At the default step
    1e-3 rounding over the step dominates (about 1e-16 / 1e-3), and the
    ratio between two steps there means nothing."""
    from heisgeo import families

    pf = build_profile(prof, (-1.26, 1.26))
    res = {}
    for h in (0.04, 0.02):
        monkeypatch.setattr(families, "_RESIDUAL_STEP", h)
        res[h] = profile_residuals(pf)
    for key in ("antiderivative", "f3_ode", "jet"):
        assert 14.0 <= res[0.04][key] / res[0.02][key] <= 17.0, key


_UNIT = st.floats(-1.0, 1.0)


@st.composite
def eta_specs(draw) -> EtaSpec:
    """Any eta kind: polynomials up to degree 6, coefficients in [-1, 1]
    (frequency in [-2, 2], phase in [-pi, pi])."""
    kind = draw(st.sampled_from(("constant", "linear", "polynomial",
                                 "sinusoidal")))
    if kind == "sinusoidal":
        coefficients = (draw(_UNIT), draw(st.floats(-2.0, 2.0)),
                        draw(st.floats(-math.pi, math.pi)))
    else:
        n = {"constant": 1, "linear": 2}.get(kind) or draw(st.integers(1, 7))
        coefficients = tuple(draw(st.lists(_UNIT, min_size=n, max_size=n)))
    return EtaSpec(kind, coefficients)


def taylor_gap(hand, oracle: Taylor, *axes) -> float:
    """|hand - the oracle's partial along axes| over max(1, the oracle's
    largest coefficient)."""
    scale = max(1.0, float(np.abs(oracle.c).max()))
    return abs(hand - float(derivative(oracle, *axes))) / scale


@settings(max_examples=100, deadline=None)
@given(eta=eta_specs(), causal=st.sampled_from(("spacelike", "timelike")),
       theta=st.floats(0.1, 1.4), c=st.floats(-2.0, 2.0),
       tau=st.floats(0.2, 3.0), v=st.floats(-1.26, 1.26))
def test_hand_written_derivatives_match_the_taylor_oracle(eta, causal, theta,
                                                           c, tau, v):
    """`EtaSpec.jet` and `slopes` are written by hand; Taylor values of v
    (`numeric.Taylor`) carried through eta, and through f1' and f2', give
    the same derivatives to 1e-12 of max(1, the oracle's largest
    coefficient).  No verify check reads eta'', f1''' or f2''' (they reach
    only F_vvv), so this is where a defect in them shows: eta'' scaled by
    1.5 leaves gaps up to about 1."""
    (t,) = Taylor.variables((v,), 3)
    oracle = eta(t)
    for k, hand in enumerate(eta.jet(v)[1:], 1):
        assert taylor_gap(hand, oracle, *[0] * k) <= 1e-12, k
    slopes = _slope_function(HelixProfile(causal, tau, theta, c=c, eta=eta))
    (t,) = Taylor.variables((v,), 2)
    f1, f2 = slopes(t)[:2]
    r1, r2, t1, t2 = slopes(v)[2:]
    assert taylor_gap(r1, f1, 0) <= 1e-12 and taylor_gap(r2, f2, 0) <= 1e-12
    assert taylor_gap(t1, f1, 0, 0) <= 1e-12
    assert taylor_gap(t2, f2, 0, 0) <= 1e-12


@pytest.mark.parametrize("eta", [
    EtaSpec("constant", (0.4,)),
    EtaSpec("linear", (0.0, 1.0)),
    EtaSpec("sinusoidal", (0.3, 1.0, 0.0)),
])
def test_profile_derivative_reads_agree_with_jet(eta):
    for causal, theta in (("spacelike", ASINH1), ("timelike", math.pi / 4.0)):
        pf = build_profile(HelixProfile(causal, 1.0, theta, c=0.1, eta=eta),
                           (-1.26, 1.26))
        for i in range(11):
            v = -1.2 + 0.24 * i
            values = pf.jet(v)
            assert values[:3] == pf(v)
            assert values[3:5] + values[6:8] + values[9:11] == pf.slopes(v)


def _sinusoidal_helix():
    return make_helix_surface(HelixProfile(
        "timelike", 1.0, math.pi / 4.0, c=0.1,
        eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0))))


def test_quadrature_helix_jet_reads_the_table_once(monkeypatch):
    patch = _sinusoidal_helix()
    lookups = [0]
    lookup = CumulativeIntegral.__call__

    def counting_lookup(self, x):
        lookups[0] += 1
        return lookup(self, x)

    monkeypatch.setattr(CumulativeIntegral, "__call__", counting_lookup)
    grid = [(-1.2 + 0.3 * i, -1.2 + 0.3 * j)
            for i in range(9) for j in range(9)]
    for u, v in grid:
        patch.jet(u, v)
    # one read of the profile's table (rows f1, f2 and f3) per jet call
    assert lookups[0] == len(grid)
    # and a batch of the whole grid is one call: one read in all
    lookups[0] = 0
    u, v = (np.array(c) for c in zip(*grid))
    patch.jet(u, v)
    assert lookups[0] == 1


def _between_node_gaps(pf):
    """(row, x, gap) at the quarter, mid and three-quarter points of every
    segment of each row (f1, f2 and f3) of the profile's table: the gap
    between the lookup and the row's node value plus adaptive Simpson to
    1e-16 from that node."""
    tau = pf.profile.tau

    def f3_slope(x):
        (p1, p2, _), (q1, q2) = pf(x), pf.slopes(x)[:2]
        return tau * (p1 * q2 - p2 * q1)

    table = pf.values
    integrands = (lambda x: pf.slopes(x)[0], lambda x: pf.slopes(x)[1],
                  f3_slope)
    for r, (name, f) in enumerate(zip(("f1", "f2", "f3"), integrands)):
        xs = table.nodes[r]
        vals = table(xs)[r]
        for i in range(len(xs) - 1):
            for q in (0.25, 0.5, 0.75):
                x = xs[i] + q * (xs[i + 1] - xs[i])
                want = vals[i] + adaptive_simpson(f, xs[i], x, tol=1e-16)
                yield name, x, abs(table(x)[r] - want)


def test_tables_between_nodes_match_adaptive_simpson():
    """Between the nodes of the README helix's rows f1, f2 and f3 the
    lookups agree with the node value plus adaptive Simpson to 1e-16 from
    that node: the quintic Hermite interpolant errs by about h^6/46080
    times the integrand's fifth derivative, far below 1e-13 for this slow
    eta."""
    for name, x, gap in _between_node_gaps(
            _sinusoidal_helix().profile_functions):
        assert gap <= 1e-13, (name, x)


@pytest.mark.parametrize("freq", (50.0, 200.0))
def test_oscillating_tables_hold_the_bound_between_nodes(freq):
    """eta = 0.3 sin(k v) on the README helix: the rows bisect their
    segments until the 1e-10 bound holds between the nodes, not only at
    them (a cubic Hermite on 1e-3 nodes erred there by 4.2e-9 at
    k = 200, and a quintic checked only at each midpoint by 1.9e-9 at the
    quarter points of segments near v = +-0.89)."""
    pf = build_profile(HelixProfile(
        "timelike", 1.0, math.pi / 4.0, c=0.1,
        eta=EtaSpec("sinusoidal", (0.3, freq, 0.0))), (-1.26, 1.26))
    for name, x, gap in _between_node_gaps(pf):
        assert gap <= 1e-10, (name, x)


def test_f3_row_reads_f1_and_f2_in_one_joint_read(monkeypatch):
    """Row f3's integrand reads rows f1 and f2 at its points with one joint
    read of the first stage, not through the counted `__call__`: once on the
    starting grid (253 nodes and ten Gauss points on each of 252 segments)
    and once in the spot check's first level (5 x 10 points).  Each read
    equals the finished table's `__call__` at the same points bit for bit."""
    from heisgeo import families

    reads, calls = [], [0]
    table, lookup = families.CumulativeIntegral, CumulativeIntegral.__call__

    def recording(f, x0, lo, hi, names, then):
        def second_stage(x, p, pairs):
            reads.append((x, p))
            return then(x, p, pairs)

        return table(f, x0, lo, hi, names, second_stage)

    def counting(self, x):
        calls[0] += 1
        return lookup(self, x)

    with monkeypatch.context() as m:
        m.setattr(families, "CumulativeIntegral", recording)
        m.setattr(CumulativeIntegral, "__call__", counting)
        pf = _sinusoidal_helix().profile_functions
        assert calls[0] == 0
    assert [np.shape(x) for x, _ in reads] == [(253 + 2520,), (50,)]
    for x, p in reads:
        assert np.array_equal(pf.values(x)[:2], p)


def _one_row_tables(pf):
    """f1, f2 and f3 as three one-row tables: f1 and f2 from their slopes,
    f3 from an integrand that reads those two tables."""
    lo, hi = pf.v_range
    slopes, tau = pf.slopes, pf.profile.tau

    def table(name, f):
        return CumulativeIntegral(lambda v: [f(v)], pf.anchor, lo, hi, [name])

    f1 = table("f1", lambda v: slopes(v)[0:4:2])
    f2 = table("f2", lambda v: slopes(v)[1:4:2])

    def g3(v):
        q1, q2, r1, r2 = slopes(v)[:4]
        p1, p2 = f1(v)[0], f2(v)[0]
        return tau * (p1 * q2 - p2 * q1), tau * (p1 * r2 - p2 * r1)

    return f1, f2, table("f3", g3)


@pytest.mark.parametrize("profile, bisects", [
    (HelixProfile("timelike", 1.0, math.pi / 4.0, c=0.1,
                  eta=EtaSpec("sinusoidal", (0.3, 1.0, 0.0))), False),
    (HelixProfile("timelike", 1.0, math.pi / 4.0, c=0.1,
                  eta=EtaSpec("sinusoidal", (0.3, 50.0, 0.0))), True),
    (HelixProfile("timelike", 1.0, math.pi / 4.0, c=0.1,
                  eta=EtaSpec("sinusoidal", (0.3, 200.0, 0.0))), True),
    (HelixProfile("timelike", 1.0, 1.0, c=-0.5,
                  eta=EtaSpec("polynomial", (0.0, -1.0, -6.0))), True),
], ids=["readme", "k50", "k200", "steep"])
def test_each_row_is_its_one_row_table_bit_for_bit(profile, bisects):
    """Every row of the profile's table keeps the segments of a one-row
    table of its integrand: equal values, bit for bit, at that table's
    nodes and at 3 interior points of each of its segments, including
    rows that bisect (k = 50, k = 200 and the steep profile)."""
    pf = build_profile(profile, (-1.26, 1.26))
    for r, one in enumerate(_one_row_tables(pf)):
        xs = one.xs
        x = np.concatenate([xs] + [xs[:-1] + q * np.diff(xs)
                                   for q in (0.25, 0.5, 0.75)])
        assert np.array_equal(pf.values.nodes[r], xs)
        assert np.array_equal(pf.values(x)[r], one(x)[0]), r
    assert (len(pf.values.xs) > 253) == bisects


# ROADMAP's steep polynomial helices, eta = a v + b v^2: two that build with
# bisection, and one per kind of failure; a failure names its row and the
# v-range.  The budget case runs with the budget lowered to 20,000
# evaluations (it fails the same way at 400,000, in about 10 s).
@pytest.mark.parametrize("causal, theta, c, a, b, budget, failure", [
    ("timelike", 1.0, -0.5, -1.0, -6.0, None, None),
    ("spacelike", 0.8, -0.5, -1.0, -4.0, None, None),
    ("timelike", 1.0, -0.5, -1.0, -8.0, None, r"f2 on v in \[-1.26, 1.26\]: "
     r"spot check on \[1.2162499999999998, 1.216875\]"),
    ("spacelike", 0.8, -0.5, -1.0, -6.0, None,
     r"f3 on v in \[-1.26, 1.26\]: adaptive Simpson hit max depth 40"),
    ("timelike", 1.0, 0.1, -0.6, 8.0, 20_000, r"f3 on v in \[-1.26, 1.26\]: "
     r"the table needs more than 20000 integrand evaluations"),
], ids=["bisects_timelike", "bisects_spacelike", "f2_spot_check",
        "f3_depth_40", "f3_budget"])
def test_steep_profiles_build_or_name_the_failing_row(monkeypatch, causal,
                                                      theta, c, a, b, budget,
                                                      failure):
    """Each case builds or fails within 5 s."""
    from heisgeo import numeric
    from heisgeo.errors import QuadratureFailure

    if budget is not None:
        monkeypatch.setattr(numeric, "_TABLE_EVAL_BUDGET", budget)
    profile = HelixProfile(causal, 1.0, theta, c=c,
                           eta=EtaSpec("polynomial", (0.0, a, b)))
    start = time.perf_counter()
    if failure is None:
        pf = build_profile(profile, (-1.26, 1.26))
        assert all(len(nodes) > 253 for nodes in pf.values.nodes[:2])
    else:
        with pytest.raises(QuadratureFailure, match="profile table " + failure):
            build_profile(profile, (-1.26, 1.26))
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("index", range(9))
def test_position_is_the_jet_point(index):
    patch = (default_family_matrix() + [_sinusoidal_helix()])[index]
    for i in range(7):
        for j in range(7):
            u, v = -1.2 + 0.4 * i, -1.2 + 0.4 * j
            assert patch.position(u, v) == patch.jet(u, v).p


# ------------------------------------------------------------- planes


def test_minimal_plane_positions():
    p = make_minimal_plane(-1, "timelike", 0.4, tau=1.0)
    u, v = 0.3, -0.7
    want = (math.sin(0.4) * v, -math.cos(0.4) * v, u)
    assert p.position(u, v) == pytest.approx(want, abs=1e-15)
    p = make_minimal_plane(1, "spacelike", 0.4, tau=1.0)
    want = (math.cosh(0.4) * v, math.sinh(0.4) * v, u)
    assert p.position(u, v) == pytest.approx(want, abs=1e-15)


def test_minimal_plane_rejects_bad_combination():
    with pytest.raises(InvalidCombination):
        make_minimal_plane(-1, "spacelike", 0.0)
    with pytest.raises(InvalidParameterDomain):
        make_minimal_plane(1, "null", 0.0)
    with pytest.raises(InvalidParameterDomain):
        make_minimal_plane(1, "timelike", float("inf"))


# ------------------------------------------------------------- cylinders


def test_cylinder_positions():
    c = make_cmc_cylinder(-1, "timelike", 0.5)
    u, v = 0.2, 0.9
    want = (-math.cos(v), -math.sin(v), u - 0.5 * v)
    assert c.position(u, v) == pytest.approx(want, abs=1e-15)
    c = make_cmc_cylinder(1, "spacelike", 0.5)
    want = (math.sinh(v), math.cosh(v), u + 0.5 * v)
    assert c.position(u, v) == pytest.approx(want, abs=1e-15)


def test_cylinder_rejects_bad_params():
    with pytest.raises(InvalidCombination):
        make_cmc_cylinder(-1, "spacelike", 1.0)
    with pytest.raises(InvalidParameterDomain):
        make_cmc_cylinder(1, "timelike", 0.0)


# ------------------------------------------------------------- helix


def test_helix_position_oracles():
    sl = make_helix_surface(HelixProfile("spacelike", 1.0, ASINH1))
    assert sl.position(0.0, 0.0) == pytest.approx((SQRT2 / 2.0, 0.0, 0.0),
                                                  abs=1e-14)
    assert sl.position(0.0, 0.5) == pytest.approx((SQRT2, 0.0, 0.0), abs=1e-14)
    tl = make_helix_surface(HelixProfile("timelike", 1.0, math.pi / 4.0))
    assert tl.position(0.0, 0.0) == pytest.approx((0.0, -0.5, 0.0), abs=1e-14)
    assert tl.position(0.0, 0.4) == pytest.approx(
        (0.0, -0.5 + 0.4 * SQRT2 / 2.0, 0.0), abs=1e-14)


def test_helix_patch_metadata():
    prof = HelixProfile("spacelike", 1.0, ASINH1, c=0.1,
                        eta=EtaSpec("linear", (0.0, 1.0)))
    patch = make_helix_surface(prof)
    assert patch.helix_profile is prof
    assert patch.profile_functions.source == "closed-form"
    assert patch.domain == DEFAULT_DOMAIN
    assert patch.family["family"] == "helix"


def test_predicted_mu_bounds_and_saturation():
    prof = HelixProfile("spacelike", 1.0, ASINH1, c=0.0,
                        eta=EtaSpec("constant", (0.0,)))
    bound = 2.0 * prof.tau * prof.nu_value
    assert abs(predicted_mu(prof, 0.0, 0.0)) < 1e-15
    assert abs(predicted_mu(prof, 0.4, 0.7)) < bound
    assert predicted_mu(prof, 50.0, 0.0) == pytest.approx(bound, abs=1e-12)
    assert predicted_mu(prof, -50.0, 0.0) == pytest.approx(-bound, abs=1e-12)


def test_patch_u_map_inverts_reparametrization():
    for causal, theta in (("spacelike", ASINH1), ("timelike", 0.6)):
        prof = HelixProfile(causal, 0.7, theta, c=0.3)
        nu = prof.nu_value
        for up in (-0.8, 0.0, 1.1):
            w = profile_u_from_patch_u(prof, up)
            if causal == "spacelike":
                assert up == pytest.approx(prof.c - 2.0 * prof.tau * nu * nu * w,
                                           abs=1e-12)
            else:
                assert up == pytest.approx(prof.c + 2.0 * prof.tau * nu * nu * w,
                                           abs=1e-12)


@pytest.mark.parametrize("causal,theta", [
    ("spacelike", ASINH1), ("timelike", math.pi / 4.0)])
def test_measured_mu_matches_prediction(causal, theta):
    prof = HelixProfile(causal, 1.0, theta, c=0.2,
                        eta=EtaSpec("linear", (0.1, 0.5)))
    patch = make_helix_surface(prof)
    for (u, v) in ((0.0, 0.0), (0.5, -0.4), (-0.7, 0.8)):
        sa = shape_operator(patch, u, v, basis="adapted-TJT")
        assert sa.s22 == pytest.approx(predicted_mu_at_patch(prof, u, v),
                                       abs=1e-8)
        assert abs(sa.s11) < 1e-8


# ------------------------------------------------------------- config


def test_family_from_config_roundtrip():
    patch = family_from_config({
        "family": "helix", "causal": "timelike", "tau": 1.0,
        "theta": math.pi / 4.0, "c": 0.1,
        "eta": {"kind": "sinusoidal", "coefficients": [0.3, 1.0, 0.0]},
        "domain": [[-1.0, 1.0], [-1.0, 1.0]]})
    assert patch.family["causal"] == "timelike"
    assert patch.domain == ((-1.0, 1.0), (-1.0, 1.0))
    assert patch.profile_functions.source == "quadrature"


def test_family_from_config_errors():
    with pytest.raises(ConfigError):
        family_from_config({"tau": 1.0})
    with pytest.raises(UnknownFamily):
        family_from_config({"family": "torus", "tau": 1.0})
    with pytest.raises(ConfigError):
        family_from_config({"family": "helix", "causal": "spacelike",
                            "tau": 1.0})  # missing theta
    with pytest.raises(InvalidCombination):
        family_from_config({"family": "helix", "causal": "spacelike",
                            "tau": 1.0, "theta": 1.0, "delta": -1})
    with pytest.raises(ConfigError):
        family_from_config({"family": "minimal_plane", "delta": -1,
                            "causal": "timelike", "tau": 1.0, "phi0": 0.0,
                            "domain": [1, 2, 3]})
    with pytest.raises(InvalidCombination):
        family_from_config({"family": "cmc_cylinder", "delta": -1,
                            "causal": "spacelike", "tau": 1.0})
    with pytest.raises(ConfigError):
        family_from_config({"family": "helix", "causal": "spacelike",
                            "tau": 1.0, "theta": 1.0, "eta": 5})


# guards that no other test reaches: each raises its documented error
@pytest.mark.parametrize("call, error, message", (
    (lambda: build_profile(HelixProfile("spacelike", 1.0, 1.0), (1.0, 1.0)),
     InvalidParameterDomain, "v_range must be nondegenerate"),
    (lambda: make_minimal_plane(1, "timelike", 0.4,
                                domain=((1.0, -1.0), (-1.0, 1.0))),
     InvalidParameterDomain, "bad domain"),
    (lambda: make_cmc_cylinder(1, "lightlike", 1.0), InvalidParameterDomain,
     "bad causal 'lightlike'"),
    (lambda: family_from_config([]), ConfigError, "must be an object"),
), ids=("profile_range_empty", "domain_reversed", "cylinder_lightlike",
        "descriptor_not_object"))
def test_guards_raise_documented_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
