"""Shared numerical helpers: small-vector algebra, truncated Taylor series
(the package's one derivative type), central finite-difference stencils,
adaptive Simpson quadrature, quintic-Hermite tables of an antiderivative, and
deterministic float formatting.

Three-vectors are plain tuples of three components.  A component is a float
for one point, or a 1-D ndarray for a batch of points: every geometry
function takes (u, v) as floats or as equal-length 1-D arrays and returns the
same kind, so a grid is evaluated in one call.  The batch helpers below
(`select`, `finite`, `require`, `quiet`) are where the two kinds differ; they
also take `Taylor` values, which carry derivatives through the same formulas.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
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
    """Serialize dicts (string keys, insertion order), lists, tuples, str,
    bool, int, float and None with 17-digit floats, which the standard json
    module cannot format."""
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
    `np.where` for a batch (coefficient by coefficient on Taylor values)."""
    if not isinstance(cond, np.ndarray):
        return a if cond else b
    if isinstance(a, Taylor) or isinstance(b, Taylor):
        ab = Taylor.stack((a, b))
        return Taylor(np.where(cond, ab.c[:, 0], ab.c[:, 1]), ab.order, ab.nvar)
    return np.where(cond, a, b)


def finite(*values):
    """Whether every value (every coefficient of a Taylor value) is finite:
    a bool, or a bool array for a batch."""
    return functools.reduce(np.logical_and, [
        np.isfinite(x.c).all(axis=0) if isinstance(x, Taylor)
        else np.isfinite(x) for x in values])


def _item(x, i: int):
    """Entry i of a batch value (of a Taylor value's value) as a Python
    number (a scalar is every entry)."""
    if isinstance(x, Taylor):
        x = x.c[0]
    if isinstance(x, (np.ndarray, np.generic)):
        return np.ravel(x)[i if np.size(x) > 1 else 0].item()
    return x


def require(ok, error: Callable[[str], Exception], describe: Callable[..., str],
            *values, at: Optional[tuple] = None) -> None:
    """The one guard: raise `error(describe(*values))`, `values` read at
    the first point in batch order (u-major on grids) where `ok` (a bool or
    bool array; NaN compares False) is False.  `at`, the points' (u, v),
    appends "at sample (u=.., v=..)" and is kept as the error's `sample`."""
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
        if type(s) is float and s == 1.0:  # 1.0 * a is a, bit for bit
            s = a
        else:
            s = (s * a[0], s * a[1], s * a[2])
        x, y, z = x + s[0], y + s[1], z + s[2]
    return (x, y, z)


def as_vec3(v) -> Vec3:
    """The three components of a length-3 sequence (list, tuple, ndarray):
    numbers become floats, array components (a batch) stay arrays."""
    x, y, z = v
    return (_component(x), _component(y), _component(z))


def _component(c):
    return c if isinstance(c, (np.ndarray, Taylor)) else float(c)


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


# ---- truncated Taylor series ----
#
# A Taylor value holds, per point of a batch, the coefficients d^a f / a! of
# a quantity f in 1 to 3 variables for each multi-index a up to its order
# (at most 3).  Monomials are graded, lexicographically descending within a
# degree: a lower order is a prefix, c[1 + i] the partial along variable i.
# The tables, from plain ints at import: monomials, indices, sizes; the
# product kernel's runs [ia, b0, b1, c0] (c[c0:c0 + b1 - b0] +=
# a[ia] * b[b0:b1]); each partial's sources and scaled rows.

_FACTORIAL = (1.0, 1.0, 2.0, 6.0)
_MONOMIALS = {n: [e for d in range(4) for e in sorted(
    (e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d),
    reverse=True)] for n in (1, 2, 3)}
_INDEX = {n: {e: i for i, e in enumerate(ms)} for n, ms in _MONOMIALS.items()}
_SIZE = {n: [sum(sum(e) <= k for e in ms) for k in range(4)]
         for n, ms in _MONOMIALS.items()}


def _runs(nvar: int, order: int) -> list:
    ms, runs = _MONOMIALS[nvar], []
    for ia, a in enumerate(ms):
        for ib, b in enumerate(ms):
            if sum(a) and sum(b) and sum(a) + sum(b) <= order:
                ic = _INDEX[nvar][tuple(map(operator.add, a, b))]
                last = runs[-1] if runs else None
                if last and last[0] == ia and last[2] == ib \
                        and last[3] + ib - last[1] == ic:
                    last[2] += 1  # consecutive b and c indices: one run
                else:
                    runs.append([ia, ib, ib + 1, ic])
    return runs


def _partial_table(nvar: int, axes: tuple, order: int) -> tuple:
    d = [axes.count(k) for k in range(nvar)]
    up = [tuple(map(operator.add, e, d))
          for e in _MONOMIALS[nvar][:_SIZE[nvar][order - len(axes)]]]
    scale = [math.prod([math.perm(x, y) for x, y in zip(e, d)]) for e in up]
    return ([_INDEX[nvar][e] for e in up],
            [(row, float(k)) for row, k in enumerate(scale) if k > 1])


#: (coefficients, runs) of the product kernel per (variables, order)
_KERNEL = {(n, k): (_SIZE[n][k], _runs(n, k)) for n in (1, 2, 3)
           for k in range(4)}

_PARTIALS = {(n, axes, k): _partial_table(n, axes, k) for n in (1, 2, 3)
             for m in (1, 2)
             for axes in itertools.combinations_with_replacement(range(n), m)
             for k in range(m, 4)}


def _product(a: np.ndarray, b: np.ndarray, order: int, nvar: int) -> np.ndarray:
    """Coefficients of a b truncated at `order`, a and b with as many batch
    axes: elementwise slices only, so no BLAS, and each temporary is a few
    rows of the batch."""
    n, runs = _KERNEL[nvar, order]
    out = a[0] * b[:n]
    if order:
        out[1:] += a[1:n] * b[0]
        for ia, b0, b1, c0 in runs:
            out[c0:c0 + b1 - b0] += a[ia] * b[b0:b1]
    return out


def _jet_of(name: str, x) -> tuple:
    """(f, f', f'', f''') of `name` at x, elementwise."""
    if name == "sqrt":
        s = np.sqrt(x)
        return s, 0.5 / s, -0.25 / (s * x), 0.375 / (s * x * x)
    if name == "reciprocal":
        r = 1.0 / x
        return r, -r * r, 2.0 * r * r * r, -6.0 * r * r * r * r
    if name in ("sin", "cos"):
        s, c = np.sin(x), np.cos(x)
        return (s, c, -s, -c) if name == "sin" else (c, -s, -c, s)
    s, c = np.sinh(x), np.cosh(x)
    return (s, c, s, c) if name == "sinh" else (c, s, c, s)


#: the numpy ufuncs a Taylor value takes, by operator or function name
_UFUNCS = {np.add: "add", np.subtract: "sub", np.multiply: "mul",
           np.true_divide: "truediv", np.negative: "neg", np.absolute: "abs",
           np.sqrt: "sqrt", np.sin: "sin", np.cos: "cos", np.sinh: "sinh",
           np.cosh: "cosh"}


class Taylor:
    """A truncated Taylor series in `nvar` (1 to 3) variables at each point
    of a batch: coefficients `c` on the leading axis, batch axes after it.
    Each value carries its own truncation `order` (0 to 3): a sum or product
    has the lower order of its operands and `partial` lowers it.  + - * /
    (numbers, arrays or Taylor values on either side), unary -, abs (which
    flips by the sign of the value) and numpy's sqrt, sin, cos, sinh and
    cosh carry exact derivatives (Griewank & Walther, Evaluating
    Derivatives, 2nd ed., 2008, ch. 13); a result's value is the plain
    operation on the values.  An array operand broadcasts against the batch
    axes as numpy does, so it has at most as many axes as the batch.
    Comparisons compare values, so guards and `select` act on them."""

    __slots__ = ("c", "order", "nvar", "axis")
    __hash__ = None

    def __init__(self, c: np.ndarray, order: int, nvar: int,
                 axis: Optional[int] = None):
        #: `axis` marks a seeded variable, whose powers are monomials
        self.c, self.order, self.nvar, self.axis = c, order, nvar, axis

    @classmethod
    def variables(cls, point, order: int) -> tuple:
        """The coordinates of `point` (numbers, or arrays over one batch)
        as Taylor values of `order`, coordinate i the variable i."""
        xs = np.broadcast_arrays(*[np.asarray(x, dtype=float) for x in point])
        out = []
        for i, x in enumerate(xs):
            c = np.zeros((_SIZE[len(xs)][order],) + x.shape)
            c[0], c[1 + i:2 + i] = x, 1.0  # no slot for d/dx_i at order 0
            out.append(cls(c, order, len(xs), i))
        return tuple(out)

    @classmethod
    def stack(cls, xs) -> "Taylor":
        """xs (Taylor values, or numbers: constants) on a new leading batch
        axis of one Taylor value, at their lowest order."""
        ts = [x for x in xs if type(x) is Taylor]
        order, nvar = min([t.order for t in ts]), ts[0].nvar
        shape = np.broadcast_shapes(*[np.shape(value(x)) for x in xs])
        c = np.zeros((_SIZE[nvar][order], len(xs)) + shape)
        for k, x in enumerate(xs):
            if type(x) is Taylor:
                c[:, k] = x.c[:len(c)]
            else:
                c[0, k] = x
        return cls(c, order, nvar)


    def partial(self, *axes: int) -> "Taylor":
        """The partial along `axes` (at most two), that many orders lower."""
        sources, scaled = _PARTIALS[self.nvar, tuple(sorted(axes)), self.order]
        c = self.c[sources]
        for row, k in scaled:
            c[row] *= k
        return Taylor(c, self.order - len(axes), self.nvar)


    def lift(self, *jets) -> list:
        """f(self) for each f given by its jet (f, f', ...: numbers or arrays)
        at the value, the powers of (self - value) shared among them."""
        k, n = self.order, self.nvar
        powers = [self.c.copy()]
        powers[0][0] = 0.0
        for _ in range(1, k if self.axis is None else 0):
            powers.append(_product(powers[-1], powers[0], k, n))
        out = []
        for jet in jets:
            if self.axis is None:
                c = powers[0] * jet[1] if k else powers[0].copy()
                for j in range(2, k + 1):
                    c += powers[j - 1] * (jet[j] / _FACTORIAL[j])
            else:  # a variable's powers are monomials
                c = np.zeros_like(self.c)
                for j in range(1, k + 1):
                    e = tuple([j * (i == self.axis) for i in range(n)])
                    c[_INDEX[n][e]] = jet[j] / _FACTORIAL[j]
            c[0] = jet[0]
            out.append(Taylor(c, k, n))
        return out

    def _plus(self, o, op) -> "Taylor":
        """op(self, o) for op np.add or np.subtract."""
        if type(o) is Taylor:
            k = min(self.order, o.order)
            n = _SIZE[self.nvar][k]
            return Taylor(op(self.c[:n], o.c[:n]), k, self.nvar)
        head = op(self.c[0], o)
        out = np.empty(self.c.shape[:1] + np.shape(head))
        out[0], out[1:] = head, self.c[1:]
        return Taylor(out, self.order, self.nvar)

    def __add__(self, o):
        return self._plus(o, np.add)

    def __sub__(self, o):
        return self._plus(o, np.subtract)

    def __neg__(self):
        return Taylor(-self.c, self.order, self.nvar)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if type(o) is not Taylor:
            return Taylor(self.c * o, self.order, self.nvar)
        k = min(self.order, o.order)
        return Taylor(_product(self.c, o.c, k, self.nvar), k, self.nvar)

    def __truediv__(self, o):
        if type(o) is not Taylor:
            return Taylor(self.c / o, self.order, self.nvar)
        return _quotient(self, o)

    def __rtruediv__(self, o):
        return _quotient(o, self)

    __radd__, __rmul__ = __add__, __mul__

    def __abs__(self):
        return Taylor(self.c * np.where(self.c[0] < 0.0, -1.0, 1.0),
                      self.order, self.nvar)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        name = _UFUNCS.get(ufunc)
        if name is None or method != "__call__" or kwargs:
            return NotImplemented
        if len(inputs) == 1:
            if name in ("neg", "abs"):
                return getattr(self, f"__{name}__")()
            return self.lift(_jet_of(name, self.c[0]))[0]
        a, b = inputs
        if a is self:
            return getattr(self, f"__{name}__")(b)
        return getattr(self, f"__r{name}__")(a)


for _name in ("lt", "le", "gt", "ge", "eq", "ne"):
    setattr(Taylor, f"__{_name}__",
            lambda self, o, op=getattr(operator, _name): op(self.c[0], value(o)))


def _quotient(a, b: Taylor) -> Taylor:
    """a / b for a Taylor value b, with a's value over b's as the value: at
    order 1 from q' = (a' - q b') / b, above through the reciprocal."""
    taylor_a = type(a) is Taylor
    a0 = a.c[0] if taylor_a else a
    if (min(a.order, b.order) if taylor_a else b.order) != 1:
        q = b.lift(_jet_of("reciprocal", b.c[0]))[0] * a
        q.c[0] = a0 / b.c[0]
        return q
    n = _SIZE[b.nvar][1]
    q0 = a0 / b.c[0]
    tail = ((a.c[1:n] if taylor_a else 0.0) - q0 * b.c[1:n]) / b.c[0]
    out = np.empty((n,) + tail.shape[1:])
    out[0], out[1:] = q0, tail
    return Taylor(out, 1, b.nvar)


def _map_taylor(f: Callable, x):
    """x with f applied to every Taylor value, through tuples, lists and
    dataclass fields; anything else is kept."""
    if type(x) is Taylor:
        return f(x)
    if isinstance(x, (tuple, list)):
        return type(x)([_map_taylor(f, c) for c in x])
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return type(x)(*[_map_taylor(f, c) for c in vars(x).values()])
    return x


def value(x):
    """x with every Taylor value replaced by its value, through tuples,
    lists and dataclass fields; anything else is its own value."""
    return _map_taylor(lambda t: t.c[0], x)


def truncated(x, order: int):
    """x with every Taylor value's coefficients beyond `order` dropped,
    through tuples, lists and dataclass fields; a number is a constant."""
    return _map_taylor(lambda t: t if order >= t.order else Taylor(
        t.c[:_SIZE[t.nvar][order]], order, t.nvar, t.axis), x)


def partial(x, *axes):
    """x differentiated along `axes` (one entry per derivative): a Taylor
    value that many orders lower; a number is a constant, with partials 0."""
    if type(x) is not Taylor:
        return 0.0 if axes else x
    return x.partial(*axes) if axes else x


def derivative(x, *axes):
    """The value of the partial of x along `axes` (one entry per
    derivative); a number is a constant, with partials 0."""
    if type(x) is not Taylor:
        return 0.0 if axes else x
    e = tuple([axes.count(i) for i in range(x.nvar)])
    scale = math.prod([math.factorial(k) for k in e])
    c = x.c[_INDEX[x.nvar][e]]
    return c * scale if scale > 1 else c


# ---- finite differences ----
#
# Each stencil calls f once, with offsets t = every offset times the step h
# (a float, or one step per point); f's values (floats, ndarrays or tuples)
# carry the displaced points on their last axis, offset-major (`stacked`).


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


def directional_diffs(f: Callable, u, v, directions, step: float) -> list:
    """The derivative of f at the points (u, v) along each direction
    (du, dv) of `directions` (numbers or arrays over the points), by the
    second-order `central_diff` at step / max(1, |du|, |dv|).  f is called
    once, as f(uu, vv, au, av): every displaced point, and the sample it
    belongs to."""
    du, dv = (np.concatenate([np.ravel(np.broadcast_to(d[i], np.shape(u)))
                              for d in directions]) for i in (0, 1))
    h = step / np.maximum(np.maximum(abs(du), abs(dv)), 1.0)
    u0, v0 = np.tile(u, len(directions)), np.tile(v, len(directions))
    return _split(central_diff(lambda t: f(*stacked(u0 + t * du, v0 + t * dv,
                                                    u0, v0)), h),
                  (len(directions), *np.shape(u)))


# ---- adaptive Simpson ----

#: recursion depth at which adaptive Simpson gives up
_SIMPSON_MAX_DEPTH = 40


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def adaptive_simpson(f: Callable[[float], float], a, b, tol=1e-10):
    """Integrate f over [a, b] with adaptive Simpson to absolute tolerance.
    a, b and tol are floats, or (a batch) equal-shape (k, n) arrays with f a
    sequence of k integrands, one per row of intervals.  A batch's first
    level is one call of each integrand on its row's 5 x n points stacked,
    and an interval that does not settle there recurses on floats through
    its row's integrand, as a float call would."""
    if not isinstance(a, np.ndarray):
        if a == b:
            return 0.0
        fa, fb = f(a), f(b)
        fm = f(0.5 * (a + b))
        whole = _simpson(fa, fm, fb, b - a)
        return _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, 0)
    tol = np.broadcast_to(tol, a.shape)
    m = 0.5 * (a + b)
    fa, fb, fm, fl, fr = np.stack([np.reshape(g(np.concatenate(
        (x0, x1, xm, 0.5 * (x0 + xm), 0.5 * (xm + x1)))), (5, -1))
        for g, x0, x1, xm in zip(f, a, b, m)], axis=1)
    whole = _simpson(fa, fm, fb, b - a)
    left, right = _simpson(fa, fl, fm, m - a), _simpson(fm, fr, fb, b - m)
    err = left + right - whole
    out = np.where(a == b, 0.0, left + right + err / 15.0)
    for i in np.flatnonzero(~(abs(err) <= 15.0 * tol) & (a != b)).tolist():
        out.flat[i] = _simpson_recurse(f[i // a.shape[1]], *(
            x.flat[i].item() for x in (a, b, fa, fm, fb, whole, tol)), 0)
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
#: integrand evaluations one row may spend beyond its starting nodes and
#: their Gauss points: on bisection and on the spot check
_TABLE_EVAL_BUDGET = 400_000
#: segments per row integrated again by adaptive Simpson as a spot check
_SPOT_CHECKS = 10


class CumulativeIntegral:
    """Antiderivatives F(x) = int_{x0}^{x} f(t) dt on [lo, hi] of one or
    more integrands ("rows", one of `names` each, which its failures
    carry), as quintic Hermite interpolation between nodes chosen per row.
    `f` returns a sequence with one pair (f, f') per row, at a float, and
    elementwise at an ndarray; `then(x, F, pairs)`, if given, returns a
    second stage's rows' pairs at x from the first stage's tabulated F
    (every row's) and pairs there.  F, F' = f and F'' = f' at the nodes fix
    one quintic per segment.  Segments start `_TABLE_SPACING` apart and are
    integrated by 5-node Gauss-Legendre on each half.  The quintic meets
    the Gauss values at both ends of a segment of width h, so between them
    it errs by at most h/2 times its largest slope error, for which the ten
    Gauss points stand in (the midpoint value alone misses the part of the
    error odd about the midpoint).  Segments whose bound exceeds tol/2
    (tol = `_QUADRATURE_TOL`) are bisected, all at once, until every one
    passes.  That bounds each interpolant, not the sum of the Gauss errors,
    so adaptive Simpson integrates `_SPOT_CHECKS` segments of each row
    again (as many as the stage's row with the fewest has, if fewer), and
    a gap above a segment's share tol * width / (hi - lo) raises
    `QuadratureFailure`; so does a range of more than `_MAX_START_SEGMENTS`
    starting segments, or a row's more than `_TABLE_EVAL_BUDGET`
    evaluations beyond the starting grid.  Node values accumulate outward
    from x0.
    A stage evaluates the starting grid once, checks its rows' slopes in
    one pass and spot-checks them in one batched call; each row keeps, bit
    for bit, the segments of a one-row table.  The rows are stored on the
    union `xs` of their nodes (`nodes`: each row's own): a union segment
    keeps its row segment's left node, 1 / width and Horner coefficients in
    t = (x - node) / width (the last node's is its value alone), so a call
    reads every row with one search and one gather."""

    def __init__(self, f: Callable, x0: float, lo: float, hi: float,
                 names: Sequence[str], then: Optional[Callable] = None):
        if not (lo <= x0 <= hi and lo < hi):
            raise ValueError("need lo <= x0 <= hi and lo < hi")
        total = hi - lo
        # the starting grid is free: its nodes and ten Gauss points a segment
        left = [_TABLE_EVAL_BUDGET] * len(names)
        at, built = [0], []  # at: the row being built or checked

        def evaluate(r, x):
            at[0] = r
            left[r] -= np.size(x)
            if left[r] < 0:
                raise QuadratureFailure(
                    f"the table needs more than {_TABLE_EVAL_BUDGET} "
                    f"integrand evaluations beyond its starting grid "
                    f"(reached x = {np.min(x)})")
            y = f(x)
            if r >= len(y):  # a second-stage row
                r, y = r - len(y), then(x, _read(*first, x), y)
            return y[r]

        def node_values(x, fx, dx):
            require(np.isfinite(fx) & np.isfinite(dx), QuadratureFailure,
                    lambda at: f"integrand not finite at table node {at} in "
                               f"[{lo}, {hi}]", x)
            return fx, dx

        def quintics(a, b, fa, da, fb, db, fx):
            """Whether each segment passes the slope check, and its columns:
            a, integral, 1 / width, Horner coefficients of t^5 .. t^1 in
            t = (x - a) / width.  Axes before fx's ten Gauss values: rows."""
            h = b - a
            # elementwise sums, not `@`: BLAS would cost RSS for 5 terms
            integral = ((fx[..., :5, :] * weights).sum(axis=-2)
                        + (fx[..., 5:, :] * weights).sum(axis=-2)) * (0.25 * h)
            # the quintic through F, h F' and h^2 F'' at both ends
            m0, m1, k0, k1 = h * fa, h * fb, h * h * da, h * h * db
            d, e, g = integral - m0 - 0.5 * k0, m1 - m0 - k0, k1 - k0
            poly = (6.0 * d - 3.0 * e + 0.5 * g, -15.0 * d + 7.0 * e - g,
                    10.0 * d - 4.0 * e + 0.5 * g, 0.5 * k0, m0)
            # h times the quintic's slope at the ten Gauss points, in place
            slope = 5.0 * poly[0][..., None, :] * half
            for power, c in zip((4.0, 3.0, 2.0, 1.0), poly[1:]):
                slope += power * c[..., None, :]
                if power > 1.0:
                    slope *= half
            # |quintic - F| <= h/2 max |quintic' - f| = miss/2: tol/2
            slope -= h[..., None, :] * fx
            miss = np.abs(slope, out=slope).max(axis=-2)
            columns = np.empty((8, *miss.shape))
            columns[0], columns[1], columns[2], columns[3:] = (
                a, integral, 1.0 / h, poly)
            return miss <= _QUADRATURE_TOL, columns  # False on NaN

        def stage_rows(y):
            """Build the stage's rows from their pairs y on the grid: each
            row's nodes, segments and segment integrals."""
            fy, dy = (np.array(c) for c in zip(*y))
            fn, dn = fy[:, :len(nodes)], dy[:, :len(nodes)]
            fx = fy[:, len(nodes):].reshape(len(fn), len(half), -1)
            first_pass = quintics(nodes[:-1], nodes[1:], fn[:, :-1], dn[:, :-1],
                                  fn[:, 1:], dn[:, 1:], fx)
            for j in range(len(fn)):
                r = at[0] = len(built)
                node_values(nodes, fn[j], dn[j])
                a, b, fa, da, fb, db = (nodes[:-1], nodes[1:], fn[j, :-1],
                                        dn[j, :-1], fn[j, 1:], dn[j, 1:])
                ok, columns = first_pass[0][j], first_pass[1][:, j]
                accepted = [columns[:, ok]]
                while not ok.all():  # bisect the rest
                    a, b, fa, da, fb, db = (z[~ok] for z in (a, b, fa, da, fb, db))
                    mid = 0.5 * (a + b)
                    fm, dm = node_values(mid, *evaluate(r, mid))
                    a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
                    fa, da = np.concatenate((fa, fm)), np.concatenate((da, dm))
                    fb, db = np.concatenate((fm, fb)), np.concatenate((dm, db))
                    ok, columns = quintics(a, b, fa, da, fb, db, evaluate(
                        r, a + (b - a) * half)[0])
                    accepted.append(columns[:, ok])
                columns = accepted[0]
                if len(accepted) > 1:  # bisected segments come last
                    columns = np.concatenate(accepted, axis=1)
                    columns = columns[:, np.argsort(columns[0])]
                xs, integrals = np.append(columns[0], hi), columns[1]
                # node values outward from x0; cumsum adds in order
                i0 = int(xs.searchsorted(x0))
                segments = np.zeros((8, len(xs)))
                segments[0], segments[1:7, :-1] = xs, columns[2:]
                segments[7, i0:] = np.cumsum(
                    np.concatenate(([0.0], integrals[i0:])))
                segments[7, i0::-1] = np.cumsum(
                    np.concatenate(([0.0], -integrals[:i0][::-1])))
                built.append((xs, segments, integrals))

        try:
            if not total / _TABLE_SPACING <= _MAX_START_SEGMENTS:
                raise QuadratureFailure(
                    f"a range {total} wide would start the table on more than "
                    f"{_MAX_START_SEGMENTS} segments {_TABLE_SPACING} wide")
            n_lo = math.ceil((x0 - lo) / _TABLE_SPACING)
            n_hi = math.ceil((hi - x0) / _TABLE_SPACING)
            nodes = np.concatenate((
                x0 - (x0 - lo) * np.arange(n_lo, 0, -1) / n_lo, [x0],
                x0 + (hi - x0) * np.arange(1, n_hi + 1) / n_hi))
            nodes[0], nodes[-1] = lo, hi
            # a segment's Gauss points down a column: inner loops run along
            half = np.array(_HALF_POINTS)[:, None]
            weights = np.array(_GL_WEIGHTS)[:, None]
            # the starting grid, evaluated once a stage: nodes, Gauss points
            gauss = nodes[:-1] + (nodes[1:] - nodes[:-1]) * half
            grid = np.concatenate((nodes, gauss.ravel()))
            for stage in range(1 if then is None else 2):
                done = len(built)
                # overflow and NaN are not errors here: they fail the checks
                with np.errstate(all="ignore"):
                    if stage:
                        first = _union(built)
                        if len(first[0]) > len(nodes):
                            p = _read(*first, grid)
                        else:  # unbisected: the nodes' values, no search
                            p = np.concatenate((first[1][7], _horner(
                                first[1][:, :, None, :-1], gauss).reshape(
                                len(built), -1)), axis=1)
                        y = then(grid, p, y)
                    else:
                        y = f(grid)
                    stage_rows(y)
                # as many distinct segments of each of the stage's rows
                # (np.unique would import numpy.ma: 1 MB RSS), in one call
                rows = range(done, len(built))
                n = min(_SPOT_CHECKS, *(len(built[r][2]) for r in rows))
                spots = [(xs, integrals, len(integrals) * np.arange(n) // n)
                         for xs, _, integrals in built[done:]]
                x0s = np.array([xs[s] for xs, _, s in spots])
                x1s = np.array([xs[s + 1] for xs, _, s in spots])
                tabulated = np.array([integrals[s] for _, integrals, s in spots])
                share = _QUADRATURE_TOL * (x1s - x0s) / total
                check = adaptive_simpson(
                    [lambda x, r=r: evaluate(r, x)[0] for r in rows],
                    x0s, x1s, share)
                for k, r in enumerate(rows):
                    at[0] = r
                    require(abs(check[k] - tabulated[k]) <= share[k],
                            QuadratureFailure, lambda x0, x1, t, c:
                            f"spot check on [{x0}, {x1}]: tabulated {t!r}, "
                            f"adaptive Simpson {c!r}", x0s[k], x1s[k],
                            tabulated[k], check[k])
        except QuadratureFailure as exc:
            raise QuadratureFailure(f"{names[at[0]]}: {exc}") from exc
        self.xs, self._segments = _union(built)
        self.nodes = [xs for xs, *_ in built]

    def __call__(self, x):
        """Every row's F at x, elementwise: for an ndarray x, an array with
        a leading row axis; for a float, a list of floats."""
        lo, hi = self.xs[0], self.xs[-1]
        require((lo <= x) & (x <= hi), ValueError,
                lambda at: f"x={at} outside tabulated range [{lo}, {hi}]", x)
        return _read(self.xs, self._segments, x)


def _union(built) -> tuple:
    """The union of the rows' nodes, and each row's segments on it: a union
    segment is the row's segment that holds it.  Rows that kept the same
    nodes (none bisected) skip the sort and the searches: with the
    unbisected read of the starting grid, that is about 3% of an analyze
    plus mesh call (perfbench's profile sweep)."""
    xs = built[0][0]
    if any(len(nodes) != len(xs) or (nodes != xs).any() for nodes, *_ in built):
        xs = np.sort(np.concatenate([nodes for nodes, *_ in built]))
        xs = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]  # np.unique: 1 MB
    # a row with as many nodes as the union has the union's nodes
    return xs, np.stack([seg if len(nodes) == len(xs) else seg.take(
        nodes.searchsorted(xs, side="right") - 1, axis=1)
        for nodes, seg, _ in built], axis=1)


def _read(xs, segments, x):
    """Every row's F at x in [xs[0], xs[-1]]: one search and one gather.  At
    a float, each row's F comes from Python floats (the same values): numpy
    costs more per call than the arithmetic on so short an array."""
    i = xs.searchsorted(x, side="right") - 1
    if isinstance(x, np.ndarray):
        return _horner(segments.take(i, axis=2), x)
    return [_horner(c, float(x)) for c in segments[:, :, i].T.tolist()]


def _horner(g, x):
    """F at x from the segment columns g (left node, 1 / width, Horner
    coefficients of t^5 .. t^0) of the segments holding x."""
    t = (x - g[0]) * g[1]
    y = g[2]
    for c in g[3:]:
        y = y * t + c
    return y
