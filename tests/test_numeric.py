"""Unit tests for the finite-difference stencils and the quadrature tables
in heisgeo.numeric.

Each stencil is run at h and h/2 on smooth functions whose leading
truncation term does not vanish at the sample point; the error ratio then
shows the stencil's order: about 4 for second order, about 16 for fourth.
The Gauss-Legendre tables are checked against exact antiderivatives, their
hard-coded rule against numpy's, and their spot check against a perturbed
weight.  The recursive helpers are also checked to leave no reference cycle
behind.
"""
from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from heisgeo import numeric
from heisgeo.errors import QuadratureFailure
from heisgeo.numeric import (CumulativeIntegral, adaptive_simpson, central_diff,
                             central_partials, json_dumps)

X0 = 0.3


def scalar(x):
    return math.exp(math.sin(x))


def scalar_d1(x):
    return math.cos(x) * math.exp(math.sin(x))


def as_tuple(x):
    return (math.sin(x), math.cos(x), math.exp(x))


def as_tuple_d1(x):
    return (math.cos(x), -math.sin(x), math.exp(x))


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


# g(u, v) = exp(a u) sin(b v + c) at (U0, V0); every partial's leading
# truncation term is nonzero there (a != b)
A, B, C = 0.7, 1.3, 0.4
U0, V0 = 0.2, 0.1


def partials_exact(u, v):
    e, s, co = math.exp(A * u), math.sin(B * v + C), math.cos(B * v + C)
    return (e * s, A * e * s, B * e * co, A * A * e * s, A * B * e * co,
            -B * B * e * s)


def g_scalar(du, dv):
    return partials_exact(U0 + du, V0 + dv)[0]


def g_tuple(du, dv):
    val = g_scalar(du, dv)
    return (val, 2.0 * val, -val)


def g_array(du, dv):
    return np.array(g_tuple(du, dv))


@pytest.mark.parametrize("fn, scale", [(g_scalar, (1.0,)),
                                       (g_tuple, (1.0, 2.0, -1.0)),
                                       (g_array, (1.0, 2.0, -1.0))])
def test_central_partials_observed_order(fn, scale):
    exact = partials_exact(U0, V0)
    h = 0.02
    coarse = central_partials(fn, h)
    fine = central_partials(fn, h / 2)
    assert errors(coarse[0], fn(0.0, 0.0)).max() == 0.0
    for k in range(1, 6):
        want = [exact[k] * s for s in scale]
        e_coarse = errors(coarse[k], want)
        e_fine = errors(fine[k], want)
        observed = e_coarse / e_fine
        assert np.all(np.abs(observed / 4.0 - 1.0) < 0.03), (k, observed)


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


# ---- Gauss-Legendre tables ----


def test_gauss_legendre_rule_matches_numpy():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(5)
    assert np.abs(np.array(numeric._GL_NODES) - nodes).max() <= 1e-15
    assert np.abs(np.array(numeric._GL_WEIGHTS) - weights).max() <= 1e-15
    # the embedded-rule difference vanishes on every cubic and not on x^4
    x, null = np.array(numeric._GL_NODES), np.array(numeric._GL_NULL)
    for k in range(4):
        assert abs(null @ x ** k) <= 1e-15
    assert abs(null @ x ** 4) > 1e-2


def _exp(x):
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def _cos50(x):
    return np.cos(50.0 * x) if isinstance(x, np.ndarray) else math.cos(50.0 * x)


@pytest.mark.parametrize("x0, lo, hi", [(0.0, -1.26, 1.26), (0.5, 0.5, 3.0),
                                        (0.3, -1.0, 0.3)])
def test_table_matches_exact_antiderivative(x0, lo, hi):
    table = CumulativeIntegral(_exp, x0, lo, hi, f0=2.0)
    assert table(x0) == 2.0
    for x in [lo + (hi - lo) * i / 100 for i in range(100)] + [hi]:
        assert table(x) == pytest.approx(2.0 + math.exp(x) - math.exp(x0),
                                         abs=1e-10)


def test_flagged_segments_are_refined(monkeypatch):
    """cos(50 x) fails the embedded estimate on most segments; adaptive
    Simpson integrates those again and the table stays accurate."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return adaptive_simpson(*args, **kwargs)

    monkeypatch.setattr(numeric, "adaptive_simpson", counting)
    table = CumulativeIntegral(_cos50, 0.0, -1.26, 1.26)
    assert calls[0] > 1000  # 10 spot checks plus the refined segments
    # at the nodes: between them the Hermite error (about h^4 f'''/384)
    # is itself about 3e-10 for this integrand
    for x in table.xs[::50]:
        assert table(x) == pytest.approx(math.sin(50.0 * x) / 50.0, abs=1e-10)


def test_smooth_table_needs_only_the_spot_check(monkeypatch):
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return adaptive_simpson(*args, **kwargs)

    monkeypatch.setattr(numeric, "adaptive_simpson", counting)
    CumulativeIntegral(_exp, 0.0, -1.26, 1.26)
    assert calls[0] == 10  # the first of 2,520 segments in each block of 256


def test_spot_check_catches_a_perturbed_weight(monkeypatch):
    """A weight off by 1e-9 relative moves every segment by more than its
    share of the tolerance without moving the embedded estimate; only the
    spot check can see it."""
    weights = list(numeric._GL_WEIGHTS)
    weights[2] *= 1.0 + 1e-9
    monkeypatch.setattr(numeric, "_GL_WEIGHTS", tuple(weights))
    with pytest.raises(QuadratureFailure, match="spot check"):
        CumulativeIntegral(_exp, 0.0, -1.26, 1.26)


def test_rows_is_the_lookup_formula():
    table = CumulativeIntegral(_exp, 0.0, -1.26, 1.26)
    xs = table.xs
    rows = np.array([[xs[i] + (xs[i + 1] - xs[i]) * t for t in (0.0, 0.1, 0.5, 0.9)]
                     for i in range(700, 710)])
    got = table.rows(rows)
    for r in range(rows.shape[0]):
        for c in range(rows.shape[1]):
            assert got[r, c] == table(float(rows[r, c]))
    assert table.rows(np.array([[xs[-1]]]))[0, 0] == table(xs[-1])


def test_array_lookup_is_the_float_lookup():
    """A lookup on an array (a batch of samples) gives bit for bit the
    lookups of its entries; out-of-range entries raise."""
    table = CumulativeIntegral(_exp, 0.0, -1.26, 1.26)
    xs = table.xs
    x = np.array([xs[0], xs[700] + 0.3 * (xs[701] - xs[700]), 0.0, xs[-1]])
    got = table(x)
    for i in range(len(x)):
        assert got[i] == table(float(x[i]))
    assert got[-1] == table.vals[-1]
    with pytest.raises(ValueError, match="outside tabulated range"):
        table(np.array([0.0, 1.3]))


def test_refinement_budget_stops_a_runaway_integrand():
    with pytest.raises(QuadratureFailure, match="integrand evaluations"):
        CumulativeIntegral(lambda x: np.sin(1e6 * x)
                           if isinstance(x, np.ndarray) else math.sin(1e6 * x),
                           0.0, -1.26, 1.26)
