"""Shared numerical helpers: small-vector algebra, the central
finite-difference stencils, adaptive Simpson quadrature, quintic-Hermite
tables of an antiderivative, and deterministic float formatting.

Three-vectors are plain tuples of three components.  A component is a float
for one point, or a 1-D ndarray for a batch of points: every geometry
function takes (u, v) as floats or as equal-length 1-D arrays and returns the
same kind, so a grid is evaluated in one call.  The batch helpers below
(`select`, `finite`, `require`, `quiet`) are where the two kinds differ.
A table's nodes are chosen per table: it evaluates its integrand (f and f'
together) on all of its segments at once, by 5-node Gauss-Legendre on each
half, and bisects the segments whose quintic Hermite interpolant's slope
misses f at those points by more than the bound allows, so the 1e-10 bound
holds between the nodes.  Adaptive Simpson is only the spot check of ten
segments per table, as one batch.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import QuadratureFailure

#: three components, each a float or (for a batch of points) a 1-D ndarray
Vec3 = tuple

# ---- deterministic float formatting ----

#: significant digits used in every serialized float (round-trips exactly)
FLOAT_DIGITS = 17
#: the one float format: `fmt_float` and the bulk row templates apply it
FLOAT_FORMAT = "%%.%dg" % FLOAT_DIGITS
#: spaces per nesting level in `json_dumps` output
_JSON_INDENT = 2


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (deterministic, lossless)."""
    if isinstance(x, bool):  # bools are ints; guard against accidental use
        raise TypeError("fmt_float expects a number, got bool")
    return FLOAT_FORMAT % float(x)


def json_dumps(obj) -> str:
    """Serialize nested dict/list/scalar data with 17-digit floats.

    The standard json module does not expose float formatting, so this walks
    the structure itself.  Only the types used by report objects are
    supported: dict (string keys), list/tuple, str, bool, int, float, None.
    Output is deterministic: dict keys keep insertion order.
    """
    return _json_emit(obj, 0) + "\n"


# module level rather than a closure: a self-referencing closure leaves a
# function <-> cell reference cycle behind every call
def _json_emit(o, depth: int) -> str:
    pad = " " * (_JSON_INDENT * depth)
    pad_in = " " * (_JSON_INDENT * (depth + 1))
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return str(o)
    if isinstance(o, float):
        if math.isnan(o) or math.isinf(o):
            raise ValueError("cannot serialize non-finite float")
        return fmt_float(o)
    if isinstance(o, str):
        # minimal escaping; report strings are plain ASCII identifiers
        out = o.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = ",\n".join(pad_in + _json_emit(v, depth + 1) for v in o)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = ",\n".join(
            f'{pad_in}"{k}": ' + _json_emit(v, depth + 1)
            for k, v in o.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"unsupported type for json_dumps: {type(o)!r}")


# ---- batches of points ----


def select(cond, a, b):
    """`a` where cond holds, else `b`: a plain conditional for one point,
    `np.where` for a batch."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def finite(*values):
    """Whether every value is finite: a bool, or a bool array for a batch."""
    if not any(isinstance(x, np.ndarray) for x in values):
        return all(map(math.isfinite, values))
    ok = np.isfinite(values[0])
    for x in values[1:]:
        ok = ok & np.isfinite(x)
    return ok


def _item(x, i: int):
    """Entry i of a batch value as a Python number (a scalar is every
    entry)."""
    if isinstance(x, np.ndarray):
        return x.flat[i if x.size > 1 else 0].item()
    if isinstance(x, np.generic):
        return x.item()
    return x


def require(ok, error: Callable[[str], Exception], describe: Callable[..., str],
            *values, at: Optional[tuple] = None) -> None:
    """The one guard: raise `error(describe(*values))` at the first point,
    in batch order (u-major on grids), where `ok` is False.

    `ok` is a bool or a bool array; `values` are read at that point.  NaN
    compares False, so a guard written as the condition that must hold
    fails on NaN.  `at`, the points' (u, v), appends "at sample (u=..,
    v=..)" to the message and is kept as the error's `sample` attribute.
    """
    if isinstance(ok, np.ndarray):
        if ok.all():
            return
        i = int(np.argmin(ok))  # the first False
    elif ok:
        return
    else:
        i = 0
    text = describe(*(_item(x, i) for x in values))
    sample = None
    if at is not None:
        sample = (_item(at[0], i), _item(at[1], i))
        text += f" at sample (u={fmt_float(sample[0])}, v={fmt_float(sample[1])})"
    exc = error(text)
    exc.sample = sample
    raise exc


def quiet(fn: Callable) -> Callable:
    """fn with numpy's floating-point warnings off: overflow and NaN in batch
    arithmetic end in the guards and checks as typed errors instead."""
    @functools.wraps(fn)
    def quiet_fn(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return quiet_fn


# ---- small-vector algebra on 3-tuples ----


def sub3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale3(s: float, a: Vec3) -> Vec3:
    return (s * a[0], s * a[1], s * a[2])


def lincomb3(terms: Sequence[tuple[float, Vec3]]) -> Vec3:
    x = y = z = 0.0
    for s, a in terms:
        x += s * a[0]
        y += s * a[1]
        z += s * a[2]
    return (x, y, z)


def as_vec3(v) -> Vec3:
    """The three components of a length-3 sequence (list, tuple, ndarray):
    numbers become floats, array components (a batch) stay arrays."""
    x, y, z = v
    return (_component(x), _component(y), _component(z))


def _component(c):
    return c if isinstance(c, np.ndarray) else float(c)


def bilinear3(g, v: Vec3, w: Vec3) -> float:
    """v^T g w for a 3x3 matrix g given as rows (a metric at one point)."""
    return (
        v[0] * (g[0][0] * w[0] + g[0][1] * w[1] + g[0][2] * w[2])
        + v[1] * (g[1][0] * w[0] + g[1][1] * w[1] + g[1][2] * w[2])
        + v[2] * (g[2][0] * w[0] + g[2][1] * w[1] + g[2][2] * w[2])
    )


def solve2(a11: float, a12: float, a21: float, a22: float,
           b1: float, b2: float) -> tuple[float, float]:
    """Solve a 2x2 linear system by Cramer's rule."""
    det = a11 * a22 - a12 * a21
    require(det != 0.0, ZeroDivisionError, lambda: "singular 2x2 system")
    return ((b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det)


# ---- finite differences ----
#
# Every finite-difference stencil in the package is one of the two helpers
# below.  Each calls f once, with offsets t = every offset times the whole
# step h (a float, or one step per point).  f's values carry the displaced
# points on their last axis, offset-major (see `stacked`); a number counts
# for every point.  Values may be floats, ndarrays, or tuples/lists.


def stacked(*xs) -> list:
    """The arguments broadcast together and flattened: points displaced by
    an offset array become one 1-D batch, offset-major."""
    return [np.ravel(x) for x in np.broadcast_arrays(*xs)]


# lists, not generators, feed the tuples below: CPython resizes a tuple built
# from a generator, and it then parks in its size's free list (2,000 a size)
def _split(x, shape: tuple) -> list:
    """A value stacked over `shape` on its last axis, one per shape[0]; a
    dataclass is split field by field (its fields are its __dict__)."""
    if dataclasses.is_dataclass(x):
        return [type(x)(*parts)
                for parts in _split(list(vars(x).values()), shape)]
    if isinstance(x, (tuple, list)):
        return list(zip(*[_split(c, shape) for c in x]))
    if np.ndim(x) == 0:
        return [x] * shape[0]
    x = np.asarray(x)
    return list(np.moveaxis(x.reshape(x.shape[:-1] + shape), x.ndim - 1, 0))


def _lift(formula: Callable, *values):
    if isinstance(values[0], tuple):
        return tuple([formula(*v) for v in zip(*values)])
    return formula(*values)


def _stencil(f: Callable, h, *scales) -> list:
    """f at the offsets scale * h, one sequence of scales per argument of f,
    from one call: one value per offset."""
    t = [np.multiply.outer(s, h) for s in scales]
    return _split(f(*t), t[0].shape)


def central_diff(f: Callable, h, order: int = 2):
    """f'(0) by the central stencil of order 2 (f at +-h) or 4 (f at +-h,
    +-2h); f is called once, with the signed offsets stacked."""
    if order == 2:
        return _lift(lambda p, m: (p - m) / (2.0 * h),
                     *_stencil(f, h, (1.0, -1.0)))
    if order == 4:
        return _lift(lambda p2, p1, m1, m2:
                     (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h),
                     *_stencil(f, h, (2.0, 1.0, -1.0, -2.0)))
    raise ValueError(f"stencil order must be 2 or 4, got {order!r}")


def central_partials(f: Callable, h):
    """(f, f_u, f_v, f_uu, f_uv, f_vv) at (0, 0) from the second-order
    nine-point stencil; f is called once, with the offsets (du, dv) of all
    nine points stacked."""
    h2 = h * h
    f0, up, um, vp, vm, pp, pm, mp, mm = _stencil(
        f, h, (0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0),
        (0.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0))

    def d1(p, m):
        return (p - m) / (2.0 * h)

    def d2(p, c, m):
        return (p - 2.0 * c + m) / h2

    return (f0, _lift(d1, up, um), _lift(d1, vp, vm), _lift(d2, up, f0, um),
            _lift(lambda a, b, c, d: (a - b - c + d) / (4.0 * h2), pp, pm, mp, mm),
            _lift(d2, vp, f0, vm))


def directional_diffs(f: Callable, u, v, directions, step: float,
                      order: int = 2) -> list:
    """The derivative of f at the points (u, v) along each direction
    (du, dv) of `directions` (numbers or arrays over the points), by
    `central_diff` at step / max(1, |du|, |dv|).  f is called once, as
    f(uu, vv, au, av): every displaced point, and the sample it belongs to."""
    du, dv = (np.concatenate([np.ravel(np.broadcast_to(d[i], np.shape(u)))
                              for d in directions]) for i in (0, 1))
    h = step / np.maximum(np.maximum(abs(du), abs(dv)), 1.0)
    u0, v0 = np.tile(u, len(directions)), np.tile(v, len(directions))
    return _split(central_diff(lambda t: f(*stacked(u0 + t * du, v0 + t * dv,
                                                    u0, v0)), h, order),
                  (len(directions), *np.shape(u)))


# ---- adaptive Simpson ----

#: recursion depth at which adaptive Simpson gives up
_SIMPSON_MAX_DEPTH = 40


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def adaptive_simpson(f: Callable[[float], float], a, b, tol=1e-10):
    """Integrate f over [a, b] with adaptive Simpson to absolute tolerance.

    a, b and tol are floats, or equal-length 1-D arrays (a batch): its first
    level is one call of f on the 5 x n points stacked, and an interval that
    does not settle there recurses on floats, giving the float call's result
    wherever f gives an array's entries the values it gives their floats."""
    if not isinstance(a, np.ndarray):
        if a == b:
            return 0.0
        fa, fb = f(a), f(b)
        fm = f(0.5 * (a + b))
        whole = _simpson(fa, fm, fb, b - a)
        return _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, 0)
    tol = np.broadcast_to(tol, a.shape)
    m = 0.5 * (a + b)
    fa, fb, fm, fl, fr = np.reshape(
        f(np.concatenate((a, b, m, 0.5 * (a + m), 0.5 * (m + b)))), (5, -1))
    whole = _simpson(fa, fm, fb, b - a)
    left, right = _simpson(fa, fl, fm, m - a), _simpson(fm, fr, fb, b - m)
    err = left + right - whole
    out = np.where(a == b, 0.0, left + right + err / 15.0)
    for i in np.flatnonzero(~(abs(err) <= 15.0 * tol) & (a != b)).tolist():
        out[i] = _simpson_recurse(f, *(x[i].item() for x in (
            a, b, fa, fm, fb, whole, tol)), 0)
    return out


# module level for the same reason as _json_emit: no reference cycle per call
def _simpson_recurse(f, x0, x2, f0, f1, f2, whole, tol_here, depth):
    xm_l = 0.5 * (x0 + 0.5 * (x0 + x2))
    xm_r = 0.5 * (0.5 * (x0 + x2) + x2)
    fl, fr = f(xm_l), f(xm_r)
    x1 = 0.5 * (x0 + x2)
    left = _simpson(f0, fl, f1, x1 - x0)
    right = _simpson(f1, fr, f2, x2 - x1)
    if depth >= _SIMPSON_MAX_DEPTH:
        raise QuadratureFailure(f"adaptive Simpson hit max depth "
                                f"{_SIMPSON_MAX_DEPTH} on [{x0}, {x2}]")
    err = left + right - whole
    if abs(err) <= 15.0 * tol_here:
        return left + right + err / 15.0
    return (_simpson_recurse(f, x0, x1, f0, fl, f1, left, tol_here / 2.0,
                             depth + 1)
            + _simpson_recurse(f, x1, x2, f1, fr, f2, right, tol_here / 2.0,
                               depth + 1))


# ---- quintic-Hermite tables of an antiderivative ----

# Plain floats, not arrays: numpy arithmetic at import would page in more
# of numpy's code before any table is built.
#: the 5-node Gauss-Legendre rule on [-1, 1]
_GL_NODES = (-0.906179845938664, -0.5384693101056831, 0.0,
             0.5384693101056831, 0.906179845938664)
_GL_WEIGHTS = (0.23692688505618908, 0.47862867049936647, 0.5688888888888889,
               0.47862867049936647, 0.23692688505618908)
#: where in [0, 1] a table segment evaluates its integrand: the five Gauss
#: nodes of its left half, then those of its right half
_HALF_POINTS = (*(0.25 * (1.0 + x) for x in _GL_NODES),
                *(0.25 * (3.0 + x) for x in _GL_NODES))
#: node spacing every table starts from; segments are bisected from there
_TABLE_SPACING = 1e-2
#: starting segments a table may have: its range may be about 600 wide
_MAX_START_SEGMENTS = 60_000
#: absolute error a table lookup may have anywhere in its range
_QUADRATURE_TOL = 1e-10
#: integrand evaluations one table may spend beyond its starting nodes and
#: their Gauss points: on bisection and on the spot check
_TABLE_EVAL_BUDGET = 400_000
#: segments per table integrated again by adaptive Simpson as a spot check
_SPOT_CHECKS = 10


class CumulativeIntegral:
    """Antiderivative F(x) = int_{x0}^{x} f(t) dt on [lo, hi], as quintic
    Hermite interpolation between nodes chosen per table.

    The integrand returns the pair (f, f') at a float, and elementwise at an
    ndarray.  F at the nodes, with F' = f and F'' = f' there, fixes one
    quintic per segment.  A lookup errs by its node's error plus the
    quintic's.  The quintic's is held to half of tol = `_QUADRATURE_TOL`
    between the nodes, not only at them; the node's rests on the Gauss
    rule, which errs far less on every segment that passes.

    The build starts from nodes `_TABLE_SPACING` apart and integrates each
    segment by 5-node Gauss-Legendre on each half.  Its check is the
    quintic's slope against f at those ten points.  The quintic meets the
    Gauss value at both ends of a segment of width h, so between them it
    errs by at most h/2 times its largest slope error, for which the ten
    points stand in.  (The quintic's value at the midpoint alone misses
    the part of its error that is odd about the midpoint, which dominates
    where f^(5) changes sign across the segment.)  Segments whose bound
    exceeds tol/2 are bisected, all at once, until every one passes.  The
    Gauss values, exact to degree 9 on each half, err far less there.
    The slope check bounds each interpolant, not the sum of the segments'
    Gauss errors, so adaptive Simpson integrates `_SPOT_CHECKS` segments
    again, in one batched call: the first, then one every tenth of the
    segments.  Their first Simpson level is one integrand call.  The table
    raises `QuadratureFailure` when one of them differs from its Gauss
    value by more than its share tol * width / (hi - lo).  Beyond the
    starting grid, whose size follows from the range (at most
    `_MAX_START_SEGMENTS` segments, checked before any is built), a table
    may spend at most `_TABLE_EVAL_BUDGET` integrand evaluations on
    bisection and the spot check.  Node values accumulate outward from x0.

    Each segment keeps six Horner coefficients in t = (x - node) / width,
    so `interpolate` is one `searchsorted`, one gather per row and five
    multiply-adds.  The last node has a segment of its own whose polynomial
    is its value: F(hi) is exactly the last node value.  A call takes a
    float x and returns a float, or takes an ndarray x (any shape,
    elementwise) and returns an array.
    """

    def __init__(self, f: Callable, x0: float, lo: float, hi: float):
        if not (lo <= x0 <= hi and lo < hi):
            raise ValueError("need lo <= x0 <= hi and lo < hi")
        total = hi - lo
        if not total / _TABLE_SPACING <= _MAX_START_SEGMENTS:
            raise QuadratureFailure(
                f"a range {total} wide would start the table on more than "
                f"{_MAX_START_SEGMENTS} segments {_TABLE_SPACING} wide")
        n_lo = math.ceil((x0 - lo) / _TABLE_SPACING)
        n_hi = math.ceil((hi - x0) / _TABLE_SPACING)
        # the starting grid is free: its nodes and ten Gauss points a segment
        left = [_TABLE_EVAL_BUDGET + 11 * (n_lo + n_hi) + 1]

        def evaluate(x):
            left[0] -= x.size if isinstance(x, np.ndarray) else 1
            if left[0] < 0:
                raise QuadratureFailure(
                    f"the table needs more than {_TABLE_EVAL_BUDGET} "
                    f"integrand evaluations beyond its starting grid "
                    f"(reached x = {np.min(x)})")
            return f(x)

        def node_values(x):
            fx, dx = evaluate(x)
            require(np.isfinite(fx) & np.isfinite(dx), QuadratureFailure,
                    lambda at: f"integrand not finite at table node {at} in "
                               f"[{lo}, {hi}]", x)
            return fx, dx

        nodes = np.array([x0 - (x0 - lo) * i / n_lo for i in range(n_lo, 0, -1)]
                         + [x0]
                         + [x0 + (hi - x0) * i / n_hi for i in range(1, n_hi + 1)])
        nodes[0], nodes[-1] = lo, hi
        accepted = []
        # overflow and NaN are not errors here: they fail the checks below
        with np.errstate(all="ignore"):
            fn, dn = node_values(nodes)
            a, b, fa, da, fb, db = (nodes[:-1], nodes[1:], fn[:-1], dn[:-1],
                                    fn[1:], dn[1:])
            while True:
                h = b - a
                fx = evaluate(a[:, None] + h[:, None] * _HALF_POINTS)[0]
                # elementwise sums, not `@`: BLAS would cost RSS for 5 terms
                integral = ((fx[:, :5] * _GL_WEIGHTS).sum(axis=1)
                            + (fx[:, 5:] * _GL_WEIGHTS).sum(axis=1)) * (0.25 * h)
                # the quintic through F, h F' and h^2 F'' at both ends, as
                # Horner coefficients of t^5 .. t^1 in t = (x - a) / h
                m0, m1, k0, k1 = h * fa, h * fb, h * h * da, h * h * db
                d, e, g = integral - m0 - 0.5 * k0, m1 - m0 - k0, k1 - k0
                poly = (6.0 * d - 3.0 * e + 0.5 * g, -15.0 * d + 7.0 * e - g,
                        10.0 * d - 4.0 * e + 0.5 * g, 0.5 * k0, m0)
                # h times the quintic's slope at the ten Gauss points
                slope = 5.0 * poly[0][:, None]
                for power, c in zip((4.0, 3.0, 2.0, 1.0), poly[1:]):
                    slope = slope * _HALF_POINTS + power * c[:, None]
                # |quintic - F| <= h/2 max |quintic' - f| = miss/2: tol/2
                miss = np.abs(slope - h[:, None] * fx).max(axis=1)
                ok = miss <= _QUADRATURE_TOL  # False on NaN
                accepted.append((a[ok], integral[ok], 1.0 / h[ok],
                                 *(c[ok] for c in poly)))
                if ok.all():
                    break
                # bisect the rest
                a, b, fa, da, fb, db = (z[~ok] for z in (a, b, fa, da, fb, db))
                mid = 0.5 * (a + b)
                fm, dm = node_values(mid)
                a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
                fa, da = np.concatenate((fa, fm)), np.concatenate((da, dm))
                fb, db = np.concatenate((fm, fb)), np.concatenate((dm, db))
        columns = np.array([np.concatenate(z) for z in zip(*accepted)])
        if len(accepted) > 1:  # bisected segments come last: order by node
            columns = columns[:, np.argsort(columns[0])]
        a, integrals = columns[0], columns[1]
        xs = np.append(a, hi)
        # distinct segments (np.unique would import numpy.ma: ~1 MB of RSS)
        n_spots = min(_SPOT_CHECKS, len(a))
        spots = len(a) * np.arange(n_spots) // n_spots
        x0s, x1s = xs[spots], xs[spots + 1]
        share = _QUADRATURE_TOL * (x1s - x0s) / total
        check = adaptive_simpson(lambda x: evaluate(x)[0], x0s, x1s, share)
        require(abs(check - integrals[spots]) <= share, QuadratureFailure,
                lambda x0, x1, t, c: f"spot check on [{x0}, {x1}]: tabulated "
                f"{t!r}, adaptive Simpson {c!r}", x0s, x1s, integrals[spots],
                check)
        # node values outward from x0; cumsum adds in order, one segment a step
        i0 = int(xs.searchsorted(x0))
        vals = np.empty(len(xs))
        vals[i0:] = np.cumsum(np.concatenate(([0.0], integrals[i0:])))
        vals[i0::-1] = np.cumsum(np.concatenate(([0.0], -integrals[:i0][::-1])))
        # per segment: left node, 1 / width, Horner coefficients of t^5 .. t^0
        self._segments = np.zeros((8, len(xs)))
        self._segments[0], self._segments[7] = xs, vals
        self._segments[1:7, :-1] = columns[2:]
        #: the nodes and F at the nodes
        self.xs, self.vals = self._segments[0], self._segments[7]

    def __call__(self, x):
        """F at a float x (a float), or elementwise at an ndarray x."""
        lo, hi = self.xs[0], self.xs[-1]
        require((lo <= x) & (x <= hi), ValueError,
                lambda at: f"x={at} outside tabulated range [{lo}, {hi}]", x)
        return self.interpolate(x)

    def interpolate(self, x):
        """F at x without the range check, for x known to lie in the range
        (the table build's own reads)."""
        i = self.xs.searchsorted(x, side="right") - 1
        rows = self._segments  # an array x gathers one row at a time
        if not isinstance(x, np.ndarray):  # Python floats, same IEEE operations
            rows, i = rows[:, i:i + 1].tolist(), 0
        t = (x - rows[0][i]) * rows[1][i]
        y = rows[2][i]
        for row in rows[3:]:
            y = y * t + row[i]
        return y
