"""Workloads of the heisgeo benchmark.

A workload is a cycle of patch kinds and the CLI subcommands one operation
runs on each patch.  Every operation gets a config that no earlier operation
has seen: the kind's base descriptor plus a seeded perturbation that keeps the
20x20 grid and the amount of work.  The checks on an operation's outputs
live here too, next to the commands that write them.

Two inputs stay fixed because the program fails on some of their values:
tau stays 1 (at other tau, ambient.curvature_table, whose tolerance is 0,
is off by one rounding), and verify runs at its default seed (about one
random seed in twenty puts ambient.sectional_constancy above its 1e-6
tolerance).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NU = NV = 20
POINTS = NU * NV

#: the README's quadrature helix (timelike, sinusoidal eta)
README_HELIX = {"family": "helix", "causal": "timelike", "tau": 1.0,
                "theta": math.pi / 4.0, "c": 0.1,
                "eta": {"kind": "sinusoidal", "coefficients": [0.3, 1.0, 0.0]}}

#: verify.default_family_matrix written as CLI descriptors
FAMILY_MATRIX = [
    {"family": "minimal_plane", "delta": -1, "causal": "timelike",
     "phi0": 0.4, "tau": 1.0},
    {"family": "minimal_plane", "delta": 1, "causal": "timelike",
     "phi0": 0.4, "tau": 1.0},
    {"family": "minimal_plane", "delta": 1, "causal": "spacelike",
     "phi0": 0.4, "tau": 1.0},
    {"family": "cmc_cylinder", "delta": -1, "causal": "timelike", "tau": 1.0},
    {"family": "cmc_cylinder", "delta": 1, "causal": "timelike", "tau": 1.0},
    {"family": "cmc_cylinder", "delta": 1, "causal": "spacelike", "tau": 1.0},
    {"family": "helix", "causal": "spacelike", "tau": 1.0,
     "theta": math.asinh(1.0), "c": 0.1,
     "eta": {"kind": "linear", "coefficients": [0.0, 1.0]}},
    {"family": "helix", "causal": "timelike", "tau": 1.0,
     "theta": math.pi / 4.0, "c": 0.1,
     "eta": {"kind": "linear", "coefficients": [0.0, 1.0]}},
]

#: quadrature helices of the analyze/mesh sweep, as (causal, theta, eta kind)
SWEEP_KINDS = [
    ("timelike", math.pi / 4.0, "sinusoidal"),
    ("spacelike", math.asinh(1.0), "polynomial"),
    ("spacelike", math.asinh(1.0), "sinusoidal"),
    ("timelike", math.pi / 4.0, "polynomial"),
]


def _quadrature_helix(rng: random.Random, kind: int) -> dict:
    cfg = dict(README_HELIX)
    cfg["eta"] = {"kind": "sinusoidal",
                  "coefficients": [0.3, 1.0, rng.uniform(-math.pi, math.pi)]}
    return cfg


def _matrix_patch(rng: random.Random, kind: int) -> dict:
    # The family parameters stay those of default_family_matrix and the domain
    # moves by at most 0.01, which keeps the grid and the work per call: the
    # shift only makes each config new.  Shifts of -0.05 to -0.08 in v make
    # the parallel check's seed direction on the timelike helix lose its
    # spacelike norm (a geometry error, exit 3).
    du, dv = rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)
    return dict(FAMILY_MATRIX[kind],
                domain=[[-1.2 + du, 1.2 + du], [-1.2 + dv, 1.2 + dv]])


def _sweep_helix(rng: random.Random, kind: int) -> dict:
    causal, theta, eta_kind = SWEEP_KINDS[kind]
    if eta_kind == "sinusoidal":
        coefficients = [0.3 + rng.uniform(-0.1, 0.1), 1.0 + rng.uniform(-0.2, 0.2),
                        rng.uniform(-math.pi, math.pi)]
    else:
        coefficients = [rng.uniform(-0.2, 0.2), 1.0 + rng.uniform(-0.2, 0.2),
                        rng.uniform(-0.3, 0.3)]
    return {"family": "helix", "causal": causal, "tau": 1.0,
            "theta": theta + rng.uniform(-0.05, 0.05),
            "c": 0.1 + rng.uniform(-0.05, 0.05),
            "eta": {"kind": eta_kind, "coefficients": coefficients}}


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI subcommands one operation runs on its config, in order
    commands: tuple[str, ...]
    #: number of patch kinds the operations cycle through
    cycle: int
    make_family: Callable[[random.Random, int], dict]
    #: traced layers every run of this workload must reach
    required: frozenset[str]


_CORE = frozenset({
    "ambient.metric_matrix", "ambient.to_frame_components",
    "families.family_from_config", "surface.jet", "surface.sample",
    "surface.shape_operator", "surface.gaussian_curvature",
    "surface.intrinsic_k", "cli.load_config", "cli.write", "numeric.fmt_float",
})
_TABLES = frozenset({
    "families.build_profile", "numeric.table_build", "numeric.table_lookup",
    "numeric.adaptive_simpson",
})
_SUITES = frozenset({
    "ambient.riemann_coords", "numeric.json_dumps", "verify.check_ambient",
    "verify.check_gauss", "verify.check_codazzi", "verify.check_helix_ode",
    "verify.check_parallel", "verify.check_claims",
})
_REPORTS = frozenset({
    "surface.geometry_report", "surface.report_output", "numeric.json_dumps",
    "cli.obj_text",
})

WORKLOADS = {w.name: w for w in (
    Workload("verify_quadrature_helix", ("verify",), 1, _quadrature_helix,
             _CORE | _TABLES | _SUITES),
    Workload("verify_closed_form_matrix", ("verify",), len(FAMILY_MATRIX),
             _matrix_patch, _CORE | _SUITES | {"families.build_profile"}),
    Workload("analyze_mesh_profile_sweep", ("analyze", "mesh"),
             len(SWEEP_KINDS), _sweep_helix, _CORE | _TABLES | _REPORTS),
)}


def make_config(workload: Workload, rng: random.Random, kind: int) -> dict:
    cfg = workload.make_family(rng, kind)
    cfg["grid"] = {"nu": NU, "nv": NV}
    return cfg


@dataclass
class Outcome:
    seconds: float
    error: str  # empty when every check passed
    digest: str  # sha256 over every output file, in command order


def run_operation(main: Callable[[list[str]], int], workload: Workload,
                  config: dict, work_dir: Path, tag: str) -> Outcome:
    """Write the config, run the operation's CLI calls (timed) and check
    their outputs (untimed).  Output files are removed afterwards."""
    cfg_path = work_dir / f"{tag}.config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = {
        "verify": [work_dir / f"{tag}.verify.json"],
        "analyze": [work_dir / f"{tag}.analyze.csv",
                    work_dir / f"{tag}.analyze.json"],
        "mesh": [work_dir / f"{tag}.mesh.obj"],
    }
    argvs = []
    for command in workload.commands:
        argv = [command, "--config", str(cfg_path), "--out", str(outputs[command][0])]
        if command == "verify":
            argv += ["--suite", "all"]
        argvs.append(argv)

    sink = io.StringIO()
    codes = []
    seconds = 0.0
    error = ""
    for argv in argvs:
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                codes.append(main(argv))
        except Exception as exc:  # a traceback out of main() is a failed call
            error = f"{argv[0]} raised {type(exc).__name__}: {exc}"
        finally:
            seconds += time.perf_counter() - start
        if error:
            break

    digest = hashlib.sha256()
    paths = [p for command in workload.commands for p in outputs[command]]
    if not error:
        try:
            error = _check_outputs(workload, codes, paths, sink.getvalue())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"malformed output: {type(exc).__name__}: {exc}"
    for path in paths:
        if path.is_file():
            digest.update(path.read_bytes())
            path.unlink()
    cfg_path.unlink()
    return Outcome(seconds, error, digest.hexdigest())


def _check_outputs(workload: Workload, codes: list[int], paths: list[Path],
                   messages: str) -> str:
    if workload.commands == ("verify",) and paths[0].is_file():
        report = json.loads(paths[0].read_text(encoding="utf-8"))
        failed = [c["id"] for c in report["checks"] if c["verdict"] != "pass"]
        if failed or not report["checks"] or report["verdict"] != "pass":
            return f"verify checks not passing: {failed or report['verdict']}"
    if any(code != 0 for code in codes):
        return f"exit codes {codes}, expected 0: {messages.strip()[-300:]}"
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        return f"missing outputs {missing}"
    if workload.commands == ("verify",):
        return ""
    csv_path, json_path, obj_path = paths
    rows = csv_path.read_text(encoding="utf-8").splitlines()
    if rows[0] != "u,v,nu,H,K_ext,K_int,eps,S11,S12,S21,S22" or len(rows) != POINTS + 1:
        return f"analyze CSV has {len(rows) - 1} rows, expected {POINTS}"
    summary = json.loads(json_path.read_text(encoding="utf-8"))
    if summary["samples"] != POINTS:
        return f"analyze JSON reports {summary['samples']} samples"
    obj = obj_path.read_text(encoding="utf-8").splitlines()
    n_v = sum(line.startswith("v ") for line in obj)
    n_f = sum(line.startswith("f ") for line in obj)
    if (n_v, n_f) != (POINTS, 2 * (NU - 1) * (NV - 1)):
        return f"mesh has {n_v} vertices and {n_f} faces"
    return ""


def write_configs(workload: Workload, seed: int, directory: Path) -> None:
    """Generate one cycle of configs, as a fresh run does before timing."""
    rng = random.Random(seed)
    for kind in range(workload.cycle):
        config = make_config(workload, rng, kind)
        (directory / f"setup-{kind}.config.json").write_text(
            json.dumps(config), encoding="utf-8")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def import_cli(root: Path) -> Callable[[list[str]], int]:
    """Import heisgeo from the checkout's own sources and return the CLI
    entry point; refuse any other installed copy."""
    package = root / "src" / "heisgeo"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"heisgeo sources not found at {package}")
    sys.path.insert(0, str(root / "src"))
    import heisgeo.cli

    if Path(heisgeo.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported heisgeo from {heisgeo.__file__}, "
                         f"not from {package}")
    return heisgeo.cli.main
