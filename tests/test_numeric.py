"""Unit tests for the finite-difference stencils and the quadrature tables
in heisgeo.numeric.

Each stencil is run at h and h/2 on smooth functions whose leading
truncation term does not vanish at the sample point; the error ratio then
shows the stencil's order: about 4 for second order, about 16 for fourth.
The quintic-Hermite tables are checked against exact antiderivatives at
and between their nodes, their hard-coded Gauss-Legendre rule against
numpy's, and their spot check against a perturbed weight.  The recursive helpers are also checked to leave no reference cycle
behind.
"""
from __future__ import annotations

import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisgeo import numeric
from heisgeo.errors import QuadratureFailure
from heisgeo.numeric import (CumulativeIntegral, Taylor, adaptive_simpson,
                             central_diff, derivative, json_dumps, value)

X0 = 0.3

# The stencils call f once with all of their offsets stacked in an array, so
# the functions below are written with numpy, elementwise.


def scalar(x):
    return np.exp(np.sin(x))


def scalar_d1(x):
    return np.cos(x) * np.exp(np.sin(x))


def as_tuple(x):
    return (np.sin(x), np.cos(x), np.exp(x))


def as_tuple_d1(x):
    return (np.cos(x), -np.sin(x), np.exp(x))


def as_array(x):
    return np.array(as_tuple(x))


def as_array_d1(x):
    return np.array(as_tuple_d1(x))


CALLABLES = [(scalar, scalar_d1), (as_tuple, as_tuple_d1),
             (as_array, as_array_d1)]


def errors(got, want):
    return np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))


@pytest.mark.parametrize("order, h, ratio", [(2, 0.02, 4.0), (4, 0.1, 16.0)])
@pytest.mark.parametrize("fn, d1", CALLABLES)
def test_central_diff_observed_order(fn, d1, order, h, ratio):
    want = d1(X0)
    coarse = errors(central_diff(lambda t: fn(X0 + t), h, order), want)
    fine = errors(central_diff(lambda t: fn(X0 + t), h / 2, order), want)
    assert np.all(coarse > 0.0)
    observed = coarse / fine
    assert np.all(np.abs(observed / ratio - 1.0) < 0.03), observed


def test_central_diff_value_types():
    assert isinstance(central_diff(lambda t: X0 + t, 0.1), float)
    assert isinstance(central_diff(lambda t: [t, 2.0 * t], 0.1), tuple)
    assert isinstance(central_diff(lambda t: as_array(t), 0.1, 4), np.ndarray)
    # linear functions are differentiated exactly up to rounding
    got = central_diff(lambda t: [t, 2.0 * t], 0.25, order=4)
    assert got == pytest.approx((1.0, 2.0), abs=1e-15)


def test_central_diff_rejects_other_orders():
    with pytest.raises(ValueError):
        central_diff(math.sin, 0.1, order=3)


# ---- the stacked stencils against the per-offset formulas ----
#
# central_diff calls f once on all of its offsets stacked; written out
# offset by offset below, the same formulas must give the same bits.  The
# test function uses + - * / only, so every value is one IEEE operation
# sequence wherever it sits in a batch.


def rational(x):
    return (x * x * x - 2.0 * x) / (1.0 + x * x)


def per_offset_diff(x, h, order):
    if order == 2:
        return (rational(x + h) - rational(x - h)) / (2.0 * h)
    return (-rational(x + 2.0 * h) + 8.0 * rational(x + h)
            - 8.0 * rational(x - h) + rational(x - 2.0 * h)) / (12.0 * h)


coordinates = st.floats(-10.0, 10.0, allow_nan=False)
steps = st.floats(1e-6, 1.0)
# a point (one float) or a batch of 1 to 6 points
points = st.one_of(coordinates, st.lists(coordinates, min_size=1, max_size=6)
                   .map(np.array))


def stencil_step(x, h, per_point):
    """A float step, or the same step for each point (np.full keeps its
    bits)."""
    return np.full(np.shape(x), h) if per_point else h


def stencil_points(x, t, per_point):
    """The points x displaced by the stacked offsets t: the offsets on the
    last axis for a float step, flattened offset-major for a per-point one."""
    return np.ravel(x + t) if per_point else np.add.outer(x, t)


@settings(max_examples=60, deadline=None)
@given(x=points, h=steps, order=st.sampled_from((2, 4)), per_point=st.booleans())
def test_stacked_central_diff_is_the_per_offset_formula(x, h, order, per_point):
    got = central_diff(lambda t: rational(stencil_points(x, t, per_point)),
                       stencil_step(x, h, per_point), order)
    want = per_offset_diff(x, h, order)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def _horner(coeffs):
    """A polynomial by + and x only: numpy evaluates it on an array with
    the IEEE operations it takes on each entry as a float."""
    def f(x):
        y = coeffs[0]
        for c in coeffs[1:]:
            y = y * x + c
        return y
    return f


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=8),
       intervals=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 2.0)),
                          min_size=1, max_size=6),
       tol=st.sampled_from([1e-3, 1e-8, 1e-11]))
# every interval but the empty one recurses beyond the batched first level
@example(coeffs=[1.0, -2.0, 0.5, 3.0, -1.0, 2.0],
         intervals=[(-2.0, 2.0), (0.5, 0.0), (1.0, 0.5)], tol=1e-11)
def test_batched_simpson_is_the_float_calls(coeffs, intervals, tol):
    """adaptive_simpson on arrays of intervals gives, bit for bit, its float
    calls on each interval, where a first level that does not settle
    recurses on floats."""
    f = _horner(coeffs)
    a = np.array([x for x, _ in intervals])
    b = a + np.array([w for _, w in intervals])
    got = adaptive_simpson(f, a, b, tol)
    want = [adaptive_simpson(f, x0, x1, tol)
            for x0, x1 in zip(a.tolist(), b.tolist())]
    assert got.tobytes() == np.array(want).tobytes()


def test_recursive_helpers_leave_no_reference_cycles():
    """Only the cyclic collector frees a cycle, so one per quadrature step
    makes memory climb with the call count."""
    gc.collect()
    gc.disable()
    try:
        assert adaptive_simpson(math.sin, 0.0, 3.0) == pytest.approx(
            1.0 - math.cos(3.0), abs=1e-9)
        json_dumps({"a": [1.0, {"b": None}], "c": "x", "d": (True, 2)})
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert gc.garbage == []


# ---- quintic-Hermite tables ----


def test_gauss_legendre_rule_matches_numpy():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(5)
    assert np.abs(np.array(numeric._GL_NODES) - nodes).max() <= 1e-15
    assert np.abs(np.array(numeric._GL_WEIGHTS) - weights).max() <= 1e-15


# table integrands return (f, f')

def _exp(x):
    e = np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)
    return e, e


def _cos50(x):
    lib = np if isinstance(x, np.ndarray) else math
    return lib.cos(50.0 * x), -50.0 * lib.sin(50.0 * x)


def _between_nodes(xs, fractions=(0.25, 0.5, 0.75)):
    """The points at `fractions` of every table segment."""
    return np.concatenate([xs[:-1] + q * np.diff(xs) for q in fractions])


@pytest.mark.parametrize("x0, lo, hi", [(0.0, -1.26, 1.26), (0.5, 0.5, 3.0),
                                        (0.3, -1.0, 0.3)])
def test_table_matches_exact_antiderivative(x0, lo, hi):
    table = CumulativeIntegral(_exp, x0, lo, hi)
    assert table(x0) == 0.0
    for x in [lo + (hi - lo) * i / 100 for i in range(100)] + [hi]:
        assert table(x) == pytest.approx(math.exp(x) - math.exp(x0), abs=1e-10)


def _count_spot_checks(monkeypatch) -> list:
    """The shape of `a` in each `adaptive_simpson` call, from now on."""
    batches = []

    def counting(f, a, b, tol):
        batches.append(np.shape(a))
        return adaptive_simpson(f, a, b, tol)

    monkeypatch.setattr(numeric, "adaptive_simpson", counting)
    return batches


def test_flagged_segments_are_refined(monkeypatch):
    """cos(50 x) fails the slope check on the starting nodes; those
    segments are bisected until the quintic holds the bound between the
    nodes too (a cubic Hermite on 1e-3 nodes errs there by about 3e-10)."""
    batches = _count_spot_checks(monkeypatch)
    table = CumulativeIntegral(_cos50, 0.0, -1.26, 1.26)
    assert batches == [(10,)]  # the spot check only, as one batch
    assert len(table.xs) > 253  # more nodes than the 1e-2 start
    x = np.concatenate([table.xs, _between_nodes(table.xs)])
    assert np.abs(table(x) - np.sin(50.0 * x) / 50.0).max() <= 1e-10


def test_bound_holds_where_the_error_is_odd_about_the_midpoint():
    """Where the integrand's fifth derivative changes sign across a
    segment, the quintic's error is odd about the midpoint: it vanishes
    there and peaks near the quarter points.  For e^x cos(400 x) a check
    of the midpoint alone passed segments that erred by 6.6e-10 between
    the nodes; the slope check at the Gauss points bisects them."""
    def f(x):
        return (np.exp(x) * np.cos(400.0 * x),
                np.exp(x) * (np.cos(400.0 * x) - 400.0 * np.sin(400.0 * x)))

    def antiderivative(x):
        return (np.exp(x) * (np.cos(400.0 * x) + 400.0 * np.sin(400.0 * x))
                / (1.0 + 400.0 ** 2))

    table = CumulativeIntegral(f, 0.0, -1.26, 1.26)
    x = np.concatenate([table.xs, _between_nodes(
        table.xs, [i / 16.0 for i in range(1, 16)])])
    want = antiderivative(x) - antiderivative(0.0)
    assert np.abs(table(x) - want).max() <= 1e-10


def test_smooth_table_needs_only_the_spot_check(monkeypatch):
    batches = _count_spot_checks(monkeypatch)
    table = CumulativeIntegral(_exp, 0.0, -1.26, 1.26)
    assert len(table.xs) == 253  # no segment of the 1e-2 start bisected
    assert batches == [(10,)]  # ten segments spread over the 252, one batch


def test_spot_check_catches_a_perturbed_weight(monkeypatch):
    """A weight off by 1e-9 relative moves each segment's integral by up
    to about 1e-11: too little for the slope check, which flags a segment
    whose interpolant may err by 5e-11, but far more than the segment's
    share of the tolerance (about 4e-13), so the spot check catches it."""
    weights = list(numeric._GL_WEIGHTS)
    weights[2] *= 1.0 + 1e-9
    monkeypatch.setattr(numeric, "_GL_WEIGHTS", tuple(weights))
    with pytest.raises(QuadratureFailure, match="spot check"):
        CumulativeIntegral(_exp, 0.0, -1.26, 1.26)


def test_array_lookup_is_the_float_lookup():
    """A lookup on an array (a batch of samples) gives bit for bit the
    lookups of its entries; out-of-range entries raise."""
    table = CumulativeIntegral(_exp, 0.0, -1.26, 1.26)
    xs = table.xs
    x = np.array([xs[0], xs[200] + 0.3 * (xs[201] - xs[200]), 0.0, xs[-1]])
    got = table(x)
    for i in range(len(x)):
        assert got[i] == table(float(x[i]))
    assert got[-1] == table.vals[-1]
    with pytest.raises(ValueError, match="outside tabulated range"):
        table(np.array([0.0, 1.3]))


def test_refinement_budget_stops_a_runaway_integrand():
    with pytest.raises(QuadratureFailure, match="integrand evaluations"):
        CumulativeIntegral(lambda x: (np.sin(1e6 * x), 1e6 * np.cos(1e6 * x)),
                           0.0, -1.26, 1.26)


# ---- truncated Taylor series ----


@st.composite
def taylor_values(draw, nvar=None, positive: bool = False):
    """A Taylor value in 1 to 3 variables of order 0 to 3 on a batch of
    two points, with values in [0.5, 2] (or [-2, 2]) and the other
    coefficients in [-1, 1]."""
    nvar = draw(st.integers(1, 3)) if nvar is None else nvar
    order = draw(st.integers(0, 3))
    n = numeric._SIZE[nvar][order]
    unit = st.floats(-1.0, 1.0)
    c = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n)))
    c = c.reshape(n, 2)
    c[0] = draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2))
    if not positive:
        c[0] *= draw(st.sampled_from((1.0, -1.0)))
    return Taylor(c, order, nvar)


def constant_gap(t: Taylor, want: float, scale: Taylor) -> float:
    """max |coefficient of t - those of the constant want|, over the
    largest coefficient of `scale`."""
    c = t.c.copy()
    c[0] -= want
    return np.abs(c).max() / max(1.0, np.abs(scale.c).max())


@settings(max_examples=60, deadline=None)
@given(x=taylor_values())
def test_taylor_identities_hold_coefficient_by_coefficient(x):
    """cosh^2 - sinh^2 = 1, sin^2 + cos^2 = 1 and x (1/x) = 1 hold for
    every coefficient, not only the value, to rounding."""
    ch, sh = np.cosh(x), np.sinh(x)
    assert constant_gap(ch * ch - sh * sh, 1.0, ch * ch) < 1e-13
    s, c = np.sin(x), np.cos(x)
    assert constant_gap(s * s + c * c, 1.0, s * s) < 1e-13
    r = 1.0 / x
    assert constant_gap(x * r, 1.0, r) < 1e-13
    assert (x * r).order == x.order and value(r).tolist() == (1.0 / value(x)).tolist()


@settings(max_examples=60, deadline=None)
@given(x=taylor_values(positive=True))
def test_taylor_square_root_squares_back(x):
    root = np.sqrt(x)
    gap = np.abs((root * root).c - x.c).max()
    assert gap < 1e-13 * max(1.0, np.abs(x.c).max() ** 2)
    assert value(root).tolist() == np.sqrt(value(x)).tolist()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), nvar=st.integers(1, 3))
def test_taylor_product_takes_the_lower_order(data, nvar):
    """A product is truncated at the lower order of its factors: the
    coefficients past it are not claimed."""
    x, y = data.draw(taylor_values(nvar)), data.draw(taylor_values(nvar))
    z = x * y
    k = min(x.order, y.order)
    assert z.order == k and len(z.c) == numeric._SIZE[x.nvar][k]
    full = numeric.truncated(x, k) * numeric.truncated(y, k)
    assert np.array_equal(z.c, full.c)


def test_taylor_mixed_partials_commute():
    """d/du d/dv = d/dv d/du on a function with every third-order
    coefficient nonzero, and both equal `derivative`."""
    u, v = Taylor.variables((np.array([0.3, -0.7]), np.array([0.2, 1.1])), 3)
    f = np.sinh(u * v) / (2.0 + np.cos(u - 2.0 * v)) + np.sqrt(1.5 + u * u * v)
    uv, vu = f.partial(0).partial(1), f.partial(1).partial(0)
    assert uv.order == 1 and np.allclose(uv.c, vu.c, rtol=1e-14, atol=1e-14)
    assert np.array_equal(f.partial(0, 1).c, f.partial(1, 0).c)
    assert np.allclose(value(uv), derivative(f, 0, 1), rtol=1e-14, atol=1e-15)


def test_array_operands_broadcast_against_the_batch():
    """An array operand broadcasts against a Taylor value's batch axes as
    numpy does: on a (2, 3) batch, a length-3 array meets each row, and
    only the value takes a sum's array term."""
    x, y = Taylor.variables((np.arange(6.0).reshape(2, 3), 1.0), 2)
    w = np.array([1.0, -2.0, 0.5])
    for got, want in ((x + w, x.c[0] + w), (x - w, x.c[0] - w),
                      (w - x, w - x.c[0]), (x * w, x.c[0] * w),
                      (x / w, x.c[0] / w), (w / (x + 1.0), w / (x.c[0] + 1.0))):
        assert got.c.shape == x.c.shape
        assert np.array_equal(value(got), want)
    assert np.array_equal((x + w).c[1:], x.c[1:])
    assert np.array_equal(derivative(x * w, 0), np.broadcast_to(w, (2, 3)))


def test_numpy_ufuncs_on_taylor_values():
    """numpy's arithmetic ufuncs called with a Taylor value on either side
    are the operators, and a ufunc it does not carry refuses it."""
    x, y = Taylor.variables((np.array([0.5, -2.0]), np.array([1.5, 0.25])), 2)
    w = np.array([3.0, -1.0])
    for got, want in ((np.negative(x), -x), (np.absolute(x), abs(x)),
                      (np.add(x, y), x + y), (np.multiply(x, w), x * w),
                      (np.subtract(w, x), w - x), (np.true_divide(w, y), w / y)):
        assert np.array_equal(got.c, want.c)
    assert np.array_equal(value(abs(x)), [0.5, 2.0])
    assert np.array_equal(derivative(abs(x), 0), [1.0, -1.0])
    with pytest.raises(TypeError):
        np.exp(x)


# ---- guards ----


def _step(x):
    return 0.0 if x < 1.0 / 3.0 else 1.0


# guards and edge cases that no other test reaches: the error raised, with
# a match for its message, or (error None) the text returned
@pytest.mark.parametrize("call, error, text", (
    (lambda: numeric.fmt_float(True), TypeError, "got bool"),
    (lambda: json_dumps(math.nan), ValueError, "non-finite"),
    (lambda: json_dumps([None, True, False]), None,
     "[\n  null,\n  true,\n  false\n]\n"),
    (lambda: json_dumps([]), None, "[]\n"),
    (lambda: json_dumps({}), None, "{}\n"),
    (lambda: json_dumps(object()), TypeError, "unsupported type"),
    (lambda: adaptive_simpson(_step, 0.0, 1.0, tol=1e-300), QuadratureFailure,
     "max depth 40"),
    (lambda: CumulativeIntegral(lambda x: (x, 1.0), 2.0, 0.0, 1.0), ValueError,
     "lo <= x0 <= hi"),
), ids=("fmt_bool", "json_nan", "json_null_and_bools", "json_empty_list",
        "json_empty_dict", "json_object", "simpson_max_depth",
        "table_x0_outside"))
def test_guards_and_edge_cases(call, error, text):
    if error is None:
        assert call() == text
    else:
        with pytest.raises(error, match=text):
            call()
