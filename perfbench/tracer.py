"""Outside-in layer tracer for the heisgeo benchmark.

Each listed heisgeo function is replaced, in every heisgeo module that binds
it (``from .surface import _sample`` makes a second binding in ``verify`` and
``cli``), by a wrapper that records a span around the call.  Methods are
replaced on their class.  The stack of open spans gives each span its parent;
when a span closes, its duration is added to its layer's total and to its
parent's child time, and its self time is its duration minus the time its
child spans cover.  Spans are folded into per-layer totals as they close: one
helix verify makes about a million of them.
"""

from __future__ import annotations

import sys
import time
from functools import update_wrapper

#: (layer, module, attribute) for every traced function; a layer may cover
#: more than one function, and "Class.method" names a method
LAYERS = [
    ("ambient.metric_matrix", "heisgeo.ambient", "metric_matrix"),
    ("ambient.to_frame_components", "heisgeo.ambient", "to_frame_components"),
    ("ambient.riemann_coords", "heisgeo.ambient", "riemann_coords"),
    ("numeric.table_build", "heisgeo.numeric", "CumulativeIntegral.__init__"),
    ("numeric.table_lookup", "heisgeo.numeric", "CumulativeIntegral.__call__"),
    ("numeric.adaptive_simpson", "heisgeo.numeric", "adaptive_simpson"),
    ("numeric.json_dumps", "heisgeo.numeric", "json_dumps"),
    ("numeric.fmt_float", "heisgeo.numeric", "fmt_float"),
    ("families.build_profile", "heisgeo.families", "build_profile"),
    ("families.family_from_config", "heisgeo.families", "family_from_config"),
    ("surface.jet", "heisgeo.surface", "SurfacePatch.jet"),
    ("surface.sample", "heisgeo.surface", "_sample"),
    ("surface.shape_operator", "heisgeo.surface", "shape_operator"),
    ("surface.gaussian_curvature", "heisgeo.surface", "gaussian_curvature"),
    ("surface.intrinsic_k", "heisgeo.surface", "_intrinsic_k"),
    ("surface.geometry_report", "heisgeo.surface", "geometry_report"),
    ("surface.report_output", "heisgeo.surface", "GeometryReport.to_csv"),
    ("surface.report_output", "heisgeo.surface", "GeometryReport.to_json"),
    ("verify.check_ambient", "heisgeo.verify", "check_ambient"),
    ("verify.check_gauss", "heisgeo.verify", "check_gauss"),
    ("verify.check_codazzi", "heisgeo.verify", "check_codazzi"),
    ("verify.check_helix_ode", "heisgeo.verify", "check_helix_ode"),
    ("verify.check_parallel", "heisgeo.verify", "check_parallel"),
    ("verify.check_claims", "heisgeo.verify", "check_claims"),
    ("cli.load_config", "heisgeo.cli", "load_config"),
    ("cli.obj_text", "heisgeo.cli", "_obj_text"),
    ("cli.write", "heisgeo.cli", "_write_text"),
]

#: layers whose calls are also reported per grid point
PER_POINT = ("surface.jet", "surface.sample", "numeric.table_lookup")
#: layers whose inclusive time is reported as "<layer>.s"
INCLUSIVE = tuple(layer for layer, _, _ in LAYERS if layer.startswith("verify."))
#: shape_operator calls split by route (its fifth parameter)
ROUTES = ("weingarten", "second-form")


class TracerError(RuntimeError):
    pass


class Tracer:
    """Per-layer call counts, inclusive and self times, summed over every
    call made while installed."""

    def __init__(self) -> None:
        self.layers = list(dict.fromkeys(layer for layer, _, _ in LAYERS))
        n = len(self.layers)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.route_calls = dict.fromkeys(ROUTES, 0)
        self._child = [0.0]  # child time of each open span; [0] is the root
        self.bindings: dict[str, list[str]] = {}
        self._swaps = []  # (namespace, attribute, original, wrapper)
        for layer, module_name, attr in LAYERS:
            self._plan(layer, module_name, attr)

    def _plan(self, layer: str, module_name: str, attr: str) -> None:
        module = sys.modules.get(module_name)
        owner, _, name = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        original = holder.__dict__.get(name) if holder is not None else None
        if not callable(original):
            raise TracerError(
                f"{module_name}.{attr} not found: layer {layer} cannot be traced")
        wrapper = self._wrap(original, self.layers.index(layer),
                             attr == "shape_operator")
        if owner:
            self._swaps.append((holder, name, original, wrapper))
            self.bindings[f"{module_name}.{attr}"] = [f"{module_name}.{owner}"]
            return
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "heisgeo":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._swaps.append((mod, key, original, wrapper))
                    sites.append(f"{mod_name}.{key}")
        self.bindings[f"{module_name}.{attr}"] = sites

    def _wrap(self, fn, idx: int, by_route: bool):
        child, calls, total, self_time = (self._child, self.calls, self.total,
                                          self.self_time)
        route_calls = self.route_calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            if by_route:
                route = args[4] if len(args) > 4 else kwargs.get("route", ROUTES[0])
                route_calls[route] = route_calls.get(route, 0) + 1
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own_children = child.pop()
                child[-1] += duration
                calls[idx] += 1
                total[idx] += duration
                self_time[idx] += duration - own_children

        return update_wrapper(span, fn)

    def install(self) -> None:
        for holder, key, _, wrapper in self._swaps:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._swaps:
            setattr(holder, key, original)

    def counts(self) -> dict[str, int]:
        return dict(zip(self.layers, self.calls))

    def metrics(self, n_calls: int, points: int) -> dict[str, tuple[float, str]]:
        """Per-layer values per benchmark call, as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for i, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = (self.calls[i] / n_calls, "count")
            out[f"{layer}.self_s"] = (self.self_time[i] / n_calls, "s")
            if layer in PER_POINT:
                out[f"{layer}.per_point"] = (
                    self.calls[i] / (n_calls * points), "count/point")
            if layer in INCLUSIVE:
                out[f"{layer}.s"] = (self.total[i] / n_calls, "s")
        for route in ROUTES:
            key = route.replace("-", "_")
            out[f"surface.shape_operator.{key}.calls"] = (
                self.route_calls[route] / n_calls, "count")
        return out
