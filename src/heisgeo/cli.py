"""Command-line front end: build families from a config, run residual
suites, emit deterministic reports and meshes.

Exit codes: 0 all checks pass, 1 suite failure, 2 config error,
3 geometry error, 4 IO error, 5 internal error (an exception heisgeo does
not expect; a bug, never a check verdict).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    AmbientError,
    ConfigError,
    FamilyError,
    HeisgeoError,
    InvalidCombination,
    InvalidParameterDomain,
    QuadratureFailure,
    SurfaceError,
    UnknownFamily,
    VerifyError,
)
from .families import family_from_config
from .numeric import fmt_float, json_dumps, quiet
from .surface import (SurfacePatch, _sample, gaussian_curvature,
                      geometry_report, grid_batch, grid_points)
from .verify import (
    DEFAULT_SEED,
    DEFAULT_TOLERANCES,
    SUITE_NAMES,
    merge_suites,
    run_suite,
)

EXIT_PASS = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_GEOMETRY_ERROR = 3
EXIT_IO_ERROR = 4
EXIT_INTERNAL_ERROR = 5

_MIN_GRID = 8

#: suites run by "all" on a patch: the raw parallel check reports whether a
#: patch *is* parallel, which is a property, not a defect -- the claims suite
#: holds the classification's expectation, so "all" gates on claims instead
_ALL_SUITES = ("ambient", "gauss", "codazzi", "helix_ode", "claims")

_CONFIG_ERRORS = (ConfigError, UnknownFamily, InvalidCombination,
                  InvalidParameterDomain)
# OverflowError: math.cosh and friends overflow on far-out samples
_GEOMETRY_ERRORS = (SurfaceError, AmbientError, VerifyError,
                    QuadratureFailure, FamilyError, OverflowError)


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    grid_raw = raw.get("grid", {"nu": 20, "nv": 20})
    if not (isinstance(grid_raw, dict)
            and isinstance(grid_raw.get("nu"), int)
            and isinstance(grid_raw.get("nv"), int)):
        raise ConfigError("grid must be an object {\"nu\": int, \"nv\": int}")
    grid = (grid_raw["nu"], grid_raw["nv"])
    if grid[0] < _MIN_GRID or grid[1] < _MIN_GRID:
        raise ConfigError(
            f"grid must be at least {_MIN_GRID}x{_MIN_GRID}, got "
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

    seed = raw.get("seed", DEFAULT_SEED)
    if args.seed is not None:
        seed = args.seed
    if not isinstance(seed, int):
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
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and value >= 0.0):
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
    xs, ys, zs = patch.jet(*grid_batch(*grid_points(patch.domain, n_u, n_v))).p
    lines += [f"v {fmt_float(x)} {fmt_float(y)} {fmt_float(z)}"
              for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist())]
    # vertex ids are 1-based, u-major: id(i, j) = i * n_v + j + 1
    for i in range(n_u - 1):
        for j in range(n_v - 1):
            a = i * n_v + j + 1
            b = (i + 1) * n_v + j + 1
            c = (i + 1) * n_v + j + 2
            d = i * n_v + j + 2
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
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
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except _GEOMETRY_ERRORS as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY_ERROR
    except _IOFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except HeisgeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY_ERROR
    except Exception as exc:  # a bug: never reported as a check verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
