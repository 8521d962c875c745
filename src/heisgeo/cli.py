"""Command-line front end: build families from a config, run residual
suites, emit deterministic reports and meshes.

Exit codes: 0 all checks pass, 1 suite failure, 2 config error,
3 geometry error, 4 IO error, 5 internal error (an exception heisgeo does
not expect; a bug, never a check verdict)."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from .errors import (ConfigError, HeisgeoError, InvalidCombination,
                     InvalidParameterDomain, UnknownFamily)
from .families import family_from_config
from .numeric import FLOAT_FORMAT, fmt_float, json_dumps, quiet
from .surface import (SurfacePatch, _sample, gaussian_curvature,
                      geometry_report, grid_batch, grid_points)
from .verify import (DEFAULT_SEED, DEFAULT_TOLERANCES, SUITE_NAMES,
                     merge_suites, run_suite)

EXIT_PASS = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_GEOMETRY_ERROR = 3
EXIT_IO_ERROR = 4
EXIT_INTERNAL_ERROR = 5

_MIN_GRID = 8
#: largest grid a config may ask for (500x500): verify holds about 3.5 KB
#: per point
_MAX_GRID_POINTS = 250_000

#: suites run by "all": whether a patch *is* parallel is a property, not a
#: defect, so "all" gates on the claims suite's expectation, not on parallel
_ALL_SUITES = ("ambient", "gauss", "codazzi", "helix_ode", "claims")

_CONFIG_ERRORS = (ConfigError, UnknownFamily, InvalidCombination,
                  InvalidParameterDomain)
# every other heisgeo error (caught after the config errors) is a geometry
# error; so is an OverflowError, which Python's float arithmetic and `math`
# raise where numpy gives inf
_GEOMETRY_ERRORS = (HeisgeoError, OverflowError)
#: longest stderr line: a longer one keeps its head and its tail, which
#: names the failing sample
_MAX_ERROR_LINE = 300


@dataclass
class RunConfig:
    """Validated run configuration: family descriptor + grid + options."""

    family: dict
    grid: tuple[int, int]
    suites: list[str] = field(default_factory=list)
    seed: int = DEFAULT_SEED
    out: Optional[str] = None
    tolerances: dict = field(default_factory=dict)


def _validate_tol_name(name: str) -> None:
    suites = {key.split(".", 1)[0] for key in DEFAULT_TOLERANCES}
    if name not in DEFAULT_TOLERANCES and name not in suites:
        raise ConfigError(f"unknown tolerance name {name!r}")


def load_config(path: str, args: argparse.Namespace) -> RunConfig:
    """Read, merge (CLI flags win), and validate the run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int of > 4300 digits
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    grid_raw = raw.get("grid", {"nu": 20, "nv": 20})
    # type() is exact: a JSON bool is not an int here
    if not (isinstance(grid_raw, dict) and type(grid_raw.get("nu")) is int
            and type(grid_raw.get("nv")) is int):
        raise ConfigError("grid must be an object {\"nu\": int, \"nv\": int}")
    grid = (grid_raw["nu"], grid_raw["nv"])
    if grid[0] < _MIN_GRID or grid[1] < _MIN_GRID:
        raise ConfigError(
            f"grid must be at least {_MIN_GRID}x{_MIN_GRID}, got "
            f"{grid[0]}x{grid[1]}")
    if grid[0] * grid[1] > _MAX_GRID_POINTS:
        raise ConfigError(
            f"grid must have at most {_MAX_GRID_POINTS} points, got "
            f"{grid[0]}x{grid[1]}")

    suites = raw.get("suites", [])
    if not isinstance(suites, list):
        raise ConfigError(f"suites must be a list of suite names, got {suites!r}")
    if getattr(args, "suite", None):
        suites = list(args.suite)
    expanded: list[str] = []
    for name in suites:
        if name == "all":
            expanded.extend(_ALL_SUITES)
        elif name in SUITE_NAMES:
            expanded.append(name)
        else:
            raise ConfigError(
                f"unknown suite {name!r}; expected one of "
                f"{SUITE_NAMES + ('all',)}")
    seen = set()
    suites = [s for s in expanded if not (s in seen or seen.add(s))]

    seed = raw.get("seed", DEFAULT_SEED) if args.seed is None else args.seed
    if type(seed) is not int:
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    tol_raw = raw.get("tol", {})
    if not isinstance(tol_raw, dict):
        raise ConfigError(
            f"tol must be an object {{\"check or suite\": number}}, got {tol_raw!r}")
    tolerances = dict(tol_raw)
    for item in (getattr(args, "tol", None) or []):
        if "=" not in item:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            tolerances[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    for name, value in tolerances.items():
        _validate_tol_name(name)
        # compared, not converted: an int too large for a float fails here
        if not (type(value) in (int, float)
                and 0.0 <= value <= sys.float_info.max):
            raise ConfigError(f"tolerance {name!r} must be a finite "
                              f"nonnegative number, got {value!r}")

    out = args.out if getattr(args, "out", None) else raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")

    family = {k: v for k, v in raw.items()
              if k not in ("grid", "suites", "seed", "tol", "out")}
    return RunConfig(family=family, grid=grid, suites=suites, seed=seed,
                     out=out, tolerances=tolerances)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path!r}: {exc}") from exc


class _IOFailure(Exception):
    pass


# ---- subcommands ----


def cmd_analyze(cfg: RunConfig) -> int:
    """Per-sample CSV table plus a JSON summary of the patch geometry."""
    patch = family_from_config(cfg.family)
    report = geometry_report(patch, cfg.grid[0], cfg.grid[1])
    base = cfg.out if cfg.out else "heisgeo-analyze"
    if base.endswith(".csv") or base.endswith(".json"):
        base = base.rsplit(".", 1)[0]
    _write_text(base + ".csv", report.to_csv())
    _write_text(base + ".json", report.to_json() + "\n")
    print(f"wrote {base}.csv and {base}.json")
    return EXIT_PASS


def cmd_verify(cfg: RunConfig) -> int:
    """Run the requested suites and emit one JSON report object."""
    names = cfg.suites if cfg.suites else list(_ALL_SUITES)
    patch = family_from_config(cfg.family)
    suites = [run_suite(name, patch=patch, grid=cfg.grid, seed=cfg.seed,
                        tolerances=cfg.tolerances or None)
              for name in names]
    merged = merge_suites(suites, cfg.seed)
    text = json_dumps(merged.as_dict()) + "\n"
    if cfg.out:
        _write_text(cfg.out, text)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)
    return EXIT_PASS if merged.passed else EXIT_SUITE_FAILURE


#: one OBJ vertex line, and the two triangles of one grid quad
_VERTEX_LINE = "v " + " ".join([FLOAT_FORMAT] * 3)
_QUAD_LINES = "f %d %d %d\nf %d %d %d"


def _obj_text(patch: SurfacePatch, n_u: int, n_v: int) -> str:
    uc, vc = patch.center()
    s = _sample(patch, uc, vc)
    k_center = gaussian_curvature(patch, uc, vc, method="extrinsic")
    family = patch.family or {}
    lines = [
        "# heisgeo surface mesh",
        f"# family: {family.get('family', patch.name)}",
        f"# eps: {s.eps}",
        f"# nu (center): {fmt_float(s.nu)}",
        f"# K (center, extrinsic): {fmt_float(k_center)}",
        "# note: vertex coordinates are raw chart values; the ambient "
        "metric is not Euclidean",
    ]
    # every vertex from one jet batch, which guards domain and finiteness
    xs, ys, zs = patch.jet(*grid_batch(*grid_points(patch.domain, n_u, n_v)),
                           order=0).p
    lines += [_VERTEX_LINE % p
              for p in zip(xs.tolist(), ys.tolist(), zs.tolist())]
    # vertex ids are 1-based, u-major: id(i, j) = i * n_v + j + 1; the quad
    # a = id(i, j), i < n_u - 1, j < n_v - 1 (a % n_v != 0) splits along a-c
    lines += [_QUAD_LINES % (a, a + n_v, a + n_v + 1, a, a + n_v + 1, a + 1)
              for a in range(1, (n_u - 1) * n_v) if a % n_v]
    return "\n".join(lines) + "\n"


def cmd_mesh(cfg: RunConfig) -> int:
    """Triangulated OBJ mesh of the patch over its grid."""
    patch = family_from_config(cfg.family)
    text = _obj_text(patch, cfg.grid[0], cfg.grid[1])
    path = cfg.out if cfg.out else "heisgeo-mesh.obj"
    _write_text(path, text)
    print(f"wrote {path}")
    return EXIT_PASS


# ---- entry point ----


@functools.cache  # parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisgeo",
        description="Surface geometry of the Lorentzian Heisenberg group: "
                    "family generators, residual suites, reports, meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, suites: bool) -> None:
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, metavar="N",
                       help="seed for randomized checks")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override (repeatable)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="output path (analyze: base name for "
                            ".csv/.json; verify: report JSON; mesh: OBJ)")
        if suites:
            p.add_argument("--suite", action="append", metavar="NAME",
                           help="suite to run (repeatable; 'all' expands)")

    common(sub.add_parser("analyze", help="per-sample geometry report"),
           suites=False)
    common(sub.add_parser("verify", help="run residual suites"), suites=True)
    common(sub.add_parser("mesh", help="write an OBJ mesh"), suites=False)
    return parser


@quiet
def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error code
        return int(exc.code) if exc.code else EXIT_PASS
    try:
        cfg = load_config(args.config, args)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_mesh(cfg)
    except _CONFIG_ERRORS as exc:
        return _report("config error", exc, EXIT_CONFIG_ERROR)
    except _GEOMETRY_ERRORS as exc:
        return _report("geometry error", exc, EXIT_GEOMETRY_ERROR)
    except _IOFailure as exc:
        return _report("io error", exc, EXIT_IO_ERROR)
    except Exception as exc:  # a bug: never reported as a check verdict
        return _report(f"internal error: {type(exc).__name__}", exc,
                       EXIT_INTERNAL_ERROR)


def _report(kind: str, exc: Exception, code: int) -> int:
    """Print one stderr line "kind: message", cut to its head and tail when
    longer than `_MAX_ERROR_LINE` characters, and return the exit code."""
    line = f"{kind}: {exc}"
    if len(line) > _MAX_ERROR_LINE:
        keep = (_MAX_ERROR_LINE - 5) // 2
        line = f"{line[:keep]} ... {line[-keep:]}"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
