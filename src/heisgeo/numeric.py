"""Shared numerical helpers: small-vector algebra, the central
finite-difference stencils, adaptive Simpson quadrature, cumulative
Gauss-Legendre tables with dense output, and deterministic float formatting.

Three-vectors are plain tuples of three components.  A component is a float
for one point, or a 1-D ndarray for a batch of points: every geometry
function takes (u, v) as floats or as equal-length 1-D arrays and returns the
same kind, so a grid is evaluated in one call.  The batch helpers below
(`select`, `finite`, `require`, `quiet`) are where the two kinds differ.
The table build evaluates its integrand on whole blocks of table segments at
once.  Adaptive Simpson refines the table segments whose embedded error
estimate is too large and spot-checks a fixed sample of the others.
"""

from __future__ import annotations

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


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (deterministic, lossless)."""
    if isinstance(x, bool):  # bools are ints; guard against accidental use
        raise TypeError("fmt_float expects a number, got bool")
    return "%.*g" % (FLOAT_DIGITS, float(x))


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize nested dict/list/scalar data with 17-digit floats.

    The standard json module does not expose float formatting, so this walks
    the structure itself.  Only the types used by report objects are
    supported: dict (string keys), list/tuple, str, bool, int, float, None.
    Output is deterministic: dict keys keep insertion order.
    """
    return _json_emit(obj, 0, indent) + "\n"


# module level rather than a closure: a self-referencing closure leaves a
# function <-> cell reference cycle behind every call
def _json_emit(o, depth: int, indent: int) -> str:
    pad = " " * (indent * depth)
    pad_in = " " * (indent * (depth + 1))
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
        items = ",\n".join(pad_in + _json_emit(v, depth + 1, indent) for v in o)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = ",\n".join(
            f'{pad_in}"{k}": ' + _json_emit(v, depth + 1, indent)
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
# below.  The differenced values may be floats, ndarrays, or tuples/lists
# (differenced componentwise, returned as a tuple).


def _lift(formula: Callable, *values):
    if isinstance(values[0], (tuple, list)):
        return tuple(map(formula, *values))
    return formula(*values)


def central_diff(f: Callable[[float], object], h: float, order: int = 2):
    """f'(0) by the central stencil of order 2 (f at +-h) or 4 (f at +-h,
    +-2h); f is called with the signed offset."""
    if order == 2:
        return _lift(lambda p, m: (p - m) / (2.0 * h), f(h), f(-h))
    if order == 4:
        return _lift(lambda p2, p1, m1, m2:
                     (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h),
                     f(2.0 * h), f(h), f(-h), f(-2.0 * h))
    raise ValueError(f"stencil order must be 2 or 4, got {order!r}")


def central_partials(f: Callable[[float, float], object], h: float):
    """(f, f_u, f_v, f_uu, f_uv, f_vv) at (0, 0) from the second-order
    nine-point stencil; f is called with the offsets (du, dv)."""
    h2 = h * h
    f0 = f(0.0, 0.0)
    up, um, vp, vm = f(h, 0.0), f(-h, 0.0), f(0.0, h), f(0.0, -h)
    pp, pm, mp, mm = f(h, h), f(h, -h), f(-h, h), f(-h, -h)

    def d2(p, c, m):
        return (p - 2.0 * c + m) / h2

    # the first partials reuse the axis values through central_diff
    return (f0, central_diff({h: up, -h: um}.__getitem__, h),
            central_diff({h: vp, -h: vm}.__getitem__, h),
            _lift(d2, up, f0, um),
            _lift(lambda a, b, c, d: (a - b - c + d) / (4.0 * h2), pp, pm, mp, mm),
            _lift(d2, vp, f0, vm))


# ---- adaptive Simpson ----


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, max_depth: int = 40) -> float:
    """Integrate f over [a, b] with adaptive Simpson to absolute tolerance."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = _simpson(fa, fm, fb, b - a)
    return _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, 0, max_depth)


# module level for the same reason as _json_emit: no reference cycle per call
def _simpson_recurse(f, x0, x2, f0, f1, f2, whole, tol_here, depth,
                     max_depth):
    xm_l = 0.5 * (x0 + 0.5 * (x0 + x2))
    xm_r = 0.5 * (0.5 * (x0 + x2) + x2)
    fl, fr = f(xm_l), f(xm_r)
    x1 = 0.5 * (x0 + x2)
    left = _simpson(f0, fl, f1, x1 - x0)
    right = _simpson(f1, fr, f2, x2 - x1)
    if depth >= max_depth:
        raise QuadratureFailure(
            f"adaptive Simpson hit max depth {max_depth} on [{x0}, {x2}]")
    err = left + right - whole
    if abs(err) <= 15.0 * tol_here:
        return left + right + err / 15.0
    return (_simpson_recurse(f, x0, x1, f0, fl, f1, left, tol_here / 2.0,
                             depth + 1, max_depth)
            + _simpson_recurse(f, x1, x2, f1, fr, f2, right, tol_here / 2.0,
                               depth + 1, max_depth))


# ---- Gauss-Legendre tables with cumulative dense output ----

# Plain floats, not arrays: numpy arithmetic at import would page in more
# of numpy's code before any table is built.
#: the 5-node Gauss-Legendre rule on [-1, 1]
_GL_NODES = (-0.906179845938664, -0.5384693101056831, 0.0,
             0.5384693101056831, 0.906179845938664)
_GL_WEIGHTS = (0.23692688505618908, 0.47862867049936647, 0.5688888888888889,
               0.47862867049936647, 0.23692688505618908)
#: the 5-node weights minus those of the embedded 3-node rule on the nodes
#: (-x, 0, x), x = 0.906..., which is exact to degree 3 with weights
#: 1/(3 x^2), 2 - 2/(3 x^2), 1/(3 x^2).  On the same five values it gives
#: the 3-node rule's error: a cautious bound on the 5-node rule's.
_GL_NULL = tuple(w - w3 for w, w3 in zip(_GL_WEIGHTS, (
    0.4059288770959664, 0.0, 1.1881422458080673, 0.0, 0.4059288770959664)))
#: where in [0, 1] one table segment evaluates its integrand: its left
#: node, then the five Gauss nodes
_SEGMENT_POINTS = (0.0, *(0.5 * (1.0 + x) for x in _GL_NODES))
#: table segments per vectorised integrand evaluation (bounds the
#: temporaries); the first segment of each block is a spot-check sample
_BLOCK = 256
#: integrand evaluations one table may spend in adaptive Simpson
#: (flagged-segment refinement plus the spot check)
_TABLE_EVAL_BUDGET = 400_000


def _hermite(t, y0, y1, m0, m1):
    """Cubic Hermite interpolant at t in [0, 1] from the end values y0, y1
    and end slopes m0, m1 (scaled by the segment width); floats or arrays."""
    t2, t3 = t * t, t * t * t
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + t) * m0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * m1)


def _budgeted(f: Callable[[float], float]) -> Callable[[float], float]:
    """f, raising QuadratureFailure once called more than
    `_TABLE_EVAL_BUDGET` times."""
    left = [_TABLE_EVAL_BUDGET]

    def counted(x: float) -> float:
        left[0] -= 1
        if left[0] < 0:
            raise QuadratureFailure(
                f"adaptive Simpson needs more than {_TABLE_EVAL_BUDGET} "
                f"integrand evaluations (reached x = {x})")
        return f(x)

    return counted


class CumulativeIntegral:
    """Antiderivative F(x) = F0 + int_{x0}^{x} f(t) dt with dense output.

    f must accept a float and, elementwise, an ndarray.  The table build
    evaluates it once per segment of the node grid, vectorised in blocks of
    `_BLOCK` segments: at the segment's left node and at five Gauss-Legendre
    nodes.  Each segment may err by its share tol * width / (hi - lo), so the
    total error over the tabulated range stays below `tol`.  A segment whose
    embedded 3-node estimate exceeds its share is integrated again with
    `adaptive_simpson`, and the first segment of every block is recomputed
    with it as a spot check that raises `QuadratureFailure` when the two
    values differ by more than the share.  Adaptive Simpson may spend at
    most `_TABLE_EVAL_BUDGET` integrand evaluations per table.  Node values
    accumulate outward from x0.  Between nodes, evaluation uses cubic Hermite
    interpolation fed by the exact integrand values F'(x) = f(x); it adds at
    most h^4 max|f'''| / 384 (h the node spacing) to the node error, which
    `tol` does not cover.  At the default spacing 1e-3 that is
    2.6e-15 max|f'''|: below a 1e-10 tolerance while max|f'''| < 3.8e4.  For
    eta = 0.3 sin(k v) on the README helix the f1 table errs at quarter
    points by 5e-16 at k = 1, 6.5e-11 at k = 50 and 4.2e-9 at k = 200.

    A call takes a float x and returns a float, or takes an ndarray x (any
    shape, elementwise) and returns an array; either way it is one
    `searchsorted` over the nodes.
    """

    def __init__(self, f: Callable, x0: float, lo: float, hi: float, *,
                 f0: float = 0.0, spacing: float = 1e-3, tol: float = 1e-10):
        if not (lo <= x0 <= hi):
            raise ValueError("x0 must lie inside [lo, hi]")
        n_lo = max(1, math.ceil((x0 - lo) / spacing)) if x0 > lo else 0
        n_hi = max(1, math.ceil((hi - x0) / spacing)) if hi > x0 else 0
        total = (hi - lo) if hi > lo else 1.0
        xs = [x0 - (x0 - lo) * i / n_lo for i in range(n_lo, 0, -1)] if n_lo else []
        xs += [x0]
        xs += [x0 + (hi - x0) * i / n_hi for i in range(1, n_hi + 1)] if n_hi else []
        nodes = np.array(xs)
        left, widths = nodes[:-1], np.diff(nodes)
        n_seg = len(widths)
        integrals = np.empty(n_seg)
        estimates = np.empty(n_seg)
        slopes = np.empty(n_seg + 1)
        # overflow and NaN are not errors here: they fail the checks below
        with np.errstate(all="ignore"):
            for start in range(0, n_seg, _BLOCK):
                seg = slice(start, min(start + _BLOCK, n_seg))
                fx = f(left[seg, None] + widths[seg, None] * _SEGMENT_POINTS)
                slopes[seg] = fx[:, 0]
                half = 0.5 * widths[seg]
                # elementwise sums, not `@`: BLAS would cost RSS for 5 terms
                integrals[seg] = (fx[:, 1:] * _GL_WEIGHTS).sum(axis=1) * half
                estimates[seg] = (fx[:, 1:] * _GL_NULL).sum(axis=1) * half
            slopes[-1] = f(nodes[-1:, None])[0, 0]
        # the checks below run on lists: numpy's comparison and reduction
        # loops would page in more of its code than the build itself needs
        if not all(map(math.isfinite, slopes.tolist())):
            raise QuadratureFailure(
                f"integrand not finite at a table node in [{lo}, {hi}]")
        share = (tol * widths / total).tolist()
        simpson = _budgeted(f)
        for i, estimate in enumerate(estimates.tolist()):
            if not abs(estimate) <= share[i]:  # also when it is NaN
                integrals[i] = adaptive_simpson(simpson, xs[i], xs[i + 1],
                                                tol=share[i])
        for i in range(0, n_seg, _BLOCK):
            check = adaptive_simpson(simpson, xs[i], xs[i + 1], tol=share[i])
            if not abs(check - integrals[i]) <= share[i]:
                raise QuadratureFailure(
                    f"spot check on [{xs[i]}, {xs[i + 1]}]: tabulated "
                    f"{float(integrals[i])!r}, adaptive Simpson {check!r}")
        # node values outward from x0; cumsum adds in order, one segment a step
        i0 = xs.index(x0)
        vals = np.empty(n_seg + 1)
        vals[i0:] = np.cumsum(np.concatenate(([f0], integrals[i0:])))
        vals[i0::-1] = np.cumsum(np.concatenate(([f0], -integrals[:i0][::-1])))
        # node positions, F at the nodes and f = F' at the nodes
        self.xs, self.vals, self.slopes = nodes, vals, slopes

    def __call__(self, x):
        """F at a float x (a float), or elementwise at an ndarray x."""
        nodes, vals, slopes = self.xs, self.vals, self.slopes
        lo, hi = nodes[0], nodes[-1]
        require((lo <= x) & (x <= hi), ValueError,
                lambda at: f"x={at} outside tabulated range [{lo}, {hi}]", x)
        # x's segment; searching the inner nodes puts the right end in the
        # last segment, where it evaluates at t = 1
        i = nodes[1:-1].searchsorted(x, side="right")
        h = nodes[i + 1] - nodes[i]
        y = _hermite((x - nodes[i]) / h, vals[i], vals[i + 1],
                     slopes[i] * h, slopes[i + 1] * h)
        return y if isinstance(x, np.ndarray) else float(y)

    def rows(self, x: np.ndarray) -> np.ndarray:
        """F on a 2-D array whose row r lies in node segment s + r, with s
        the segment holding x[0, 0] (the last segment for the right end):
        the same Hermite formula as a call, with one search per array."""
        s = int(self.xs[1:-1].searchsorted(x[0, 0], side="right"))
        e = s + x.shape[0] + 1
        nodes, vals, slopes = (a[s:e, None]
                               for a in (self.xs, self.vals, self.slopes))
        h = nodes[1:] - nodes[:-1]
        t = (x - nodes[:-1]) / h
        return _hermite(t, vals[:-1], vals[1:], slopes[:-1] * h, slopes[1:] * h)
