"""End-to-end tests of the command-line interface: subcommands, config
validation, exit codes, output formats, and byte determinism."""
from __future__ import annotations

import inspect
import json
import math
import time
import tracemalloc

import pytest

import numpy as np

import heisgeo.surface as surface_module
from heisgeo.numeric import value
import heisgeo.verify as verify_module
from heisgeo import cli, errors
from heisgeo.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_GEOMETRY_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_IO_ERROR,
    EXIT_PASS,
    EXIT_SUITE_FAILURE,
    main,
)

PLANE = {"family": "minimal_plane", "delta": -1, "causal": "timelike",
         "tau": 1.0, "phi0": 0.4, "grid": {"nu": 9, "nv": 9}}
CYLINDER = {"family": "cmc_cylinder", "delta": -1, "causal": "timelike",
            "tau": 1.0, "grid": {"nu": 9, "nv": 9}}
HELIX = {"family": "helix", "causal": "spacelike", "tau": 1.0,
         "theta": math.asinh(1.0), "c": 0.1,
         "eta": {"kind": "linear", "coefficients": [0.0, 1.0]},
         "grid": {"nu": 9, "nv": 9}}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- analyze


def test_analyze_plane(workdir, capsys):
    cfg = write_config(workdir, PLANE)
    assert main(["analyze", "--config", cfg]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "wrote" in out
    csv_text = (workdir / "heisgeo-analyze.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "u,v,nu,H,K_ext,K_int,eps,S11,S12,S21,S22"
    assert len(lines) == 1 + 81
    summary = json.loads((workdir / "heisgeo-analyze.json").read_text())
    assert summary["samples"] == 81
    assert abs(summary["H"]["max"]) < 1e-9
    assert summary["eps"] == [1]


def test_analyze_out_extension_stripped(workdir):
    cfg = write_config(workdir, PLANE)
    assert main(["analyze", "--config", cfg, "--out", "report.csv"]) == EXIT_PASS
    assert (workdir / "report.csv").exists()
    assert (workdir / "report.json").exists()


def test_analyze_helix_summary_values(workdir):
    cfg = write_config(workdir, HELIX)
    assert main(["analyze", "--config", cfg, "--out", "helix"]) == EXIT_PASS
    summary = json.loads((workdir / "helix.json").read_text())
    # constant angle function sinh(theta) = 1 and constant K = -4 tau^2
    assert summary["nu"]["mean"] == pytest.approx(1.0, abs=1e-9)
    assert summary["nu"]["range"] < 1e-9
    assert summary["K_ext"]["mean"] == pytest.approx(-4.0, abs=1e-8)
    assert summary["s_basis"] == "adapted-TJT"


# ---------------------------------------------------------------- verify


def test_verify_ambient_suite_stdout(workdir, capsys):
    cfg = write_config(workdir, CYLINDER)
    assert main(["verify", "--config", cfg, "--suite", "ambient",
                 "--seed", "7"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "ambient"
    assert report["seed"] == 7
    assert report["verdict"] == "pass"
    assert len(report["checks"]) == 9
    ids = {c["id"] for c in report["checks"]}
    assert "ambient.curvature_table" in ids
    assert all(c["verdict"] == "pass" for c in report["checks"])


def test_verify_all_suites_on_helix(workdir, capsys):
    cfg = write_config(workdir, HELIX)
    assert main(["verify", "--config", cfg, "--suite", "all"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "ambient+gauss+codazzi+helix_ode+claims"
    assert report["verdict"] == "pass"
    assert len(report["checks"]) == 9 + 2 + 1 + 1 + 5


def test_verify_parallel_fails_on_helix(workdir, capsys):
    """Explicitly requesting the parallel suite on a non-parallel patch is
    the documented exit-1 path."""
    cfg = write_config(workdir, HELIX)
    assert main(["verify", "--config", cfg,
                 "--suite", "parallel"]) == EXIT_SUITE_FAILURE
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"


def test_verify_parallel_passes_on_cylinder(workdir, capsys):
    cfg = write_config(workdir, CYLINDER)
    assert main(["verify", "--config", cfg,
                 "--suite", "parallel"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_verify_tol_override_can_fail(workdir, capsys):
    cfg = write_config(workdir, HELIX)
    assert main(["verify", "--config", cfg, "--suite", "gauss",
                 "--tol", "gauss=1e-20"]) == EXIT_SUITE_FAILURE
    capsys.readouterr()


def test_verify_out_file(workdir, capsys):
    cfg = write_config(workdir, CYLINDER)
    assert main(["verify", "--config", cfg, "--suite", "gauss",
                 "--out", "rep.json"]) == EXIT_PASS
    report = json.loads((workdir / "rep.json").read_text())
    assert report["suite"] == "gauss"
    capsys.readouterr()


def test_parser_built_once_keeps_no_state_between_calls(workdir, capsys):
    """`main` reuses one parser per process; a call's --suite list does not
    carry over into the next call."""
    cfg = write_config(workdir, CYLINDER)
    for suites in (["gauss", "codazzi"], ["codazzi"]):
        argv = ["verify", "--config", cfg]
        for name in suites:
            argv += ["--suite", name]
        assert main(argv) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["suite"] == "+".join(suites)
    assert cli._build_parser() is cli._build_parser()


# ---------------------------------------------------------------- mesh


def test_mesh_cylinder_obj(workdir, capsys):
    payload = dict(CYLINDER)
    payload["grid"] = {"nu": 9, "nv": 16}
    cfg = write_config(workdir, payload)
    assert main(["mesh", "--config", cfg, "--out", "cyl.obj"]) == EXIT_PASS
    lines = (workdir / "cyl.obj").read_text().strip().split("\n")
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 9 * 16
    assert len(faces) == 2 * 8 * 15
    assert lines[0] == "# heisgeo surface mesh"
    assert any("non-Euclidean" in l or "not Euclidean" in l for l in lines[:8])
    # every vertex sits on the unit circle x^2 + y^2 = 1
    for line in verts:
        _, x, y, _ = line.split()
        assert abs(float(x) ** 2 + float(y) ** 2 - 1.0) < 1e-12
    # face indices stay within the vertex count
    for line in faces:
        idx = [int(t) for t in line.split()[1:]]
        assert all(1 <= i <= len(verts) for i in idx)
    # two triangles per grid quad, u-major, vertex ids 1-based
    want = []
    for i in range(8):
        for j in range(15):
            a, b, c, d = (i * 16 + j + 1, (i + 1) * 16 + j + 1,
                          (i + 1) * 16 + j + 2, i * 16 + j + 2)
            want += [f"f {a} {b} {c}", f"f {a} {c} {d}"]
    assert faces == want
    capsys.readouterr()


def test_mesh_plane_vertices_on_plane(workdir, capsys):
    cfg = write_config(workdir, PLANE)
    assert main(["mesh", "--config", cfg]) == EXIT_PASS
    lines = (workdir / "heisgeo-mesh.obj").read_text().strip().split("\n")
    phi0 = PLANE["phi0"]
    for line in lines:
        if line.startswith("v "):
            _, x, y, _ = line.split()
            # (sin(phi0) v, -cos(phi0) v, u): cos(phi0)*y + sin(phi0)*x ... the
            # vertices satisfy cos(phi0)*x + sin(phi0)*y = 0
            assert abs(math.cos(phi0) * float(x)
                       + math.sin(phi0) * float(y)) < 1e-12
    capsys.readouterr()


# ---------------------------------------------------------------- errors


def cfg_path(tmp_path, payload):
    return write_config(tmp_path, payload)


def test_exit_codes_config_errors(workdir, capsys):
    too_small = dict(PLANE, grid={"nu": 4, "nv": 4})
    assert main(["analyze", "--config",
                 cfg_path(workdir, too_small)]) == EXIT_CONFIG_ERROR

    good = cfg_path(workdir, PLANE)
    assert main(["verify", "--config", good,
                 "--suite", "bogus"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--config", good,
                 "--tol", "bogus=1"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--config", good,
                 "--tol", "gauss=abc"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--config", good,
                 "--tol", "gauss"]) == EXIT_CONFIG_ERROR
    assert main(["analyze", "--config",
                 str(workdir / "missing.json")]) == EXIT_CONFIG_ERROR

    notjson = workdir / "bad.json"
    notjson.write_text("{", encoding="utf-8")
    assert main(["analyze", "--config", str(notjson)]) == EXIT_CONFIG_ERROR

    unknown = dict(PLANE, family="torus")
    assert main(["analyze", "--config",
                 cfg_path(workdir, unknown)]) == EXIT_CONFIG_ERROR

    combo = dict(PLANE, causal="spacelike")  # delta = -1 spacelike
    assert main(["analyze", "--config",
                 cfg_path(workdir, combo)]) == EXIT_CONFIG_ERROR

    helix_delta = dict(HELIX, delta=-1)
    assert main(["analyze", "--config",
                 cfg_path(workdir, helix_delta)]) == EXIT_CONFIG_ERROR
    capsys.readouterr()


# every numeric config field takes JSON numbers only, never a bool or a
# string, and delta exactly 1 or -1 (not truncated to it)
@pytest.mark.parametrize("payload, message", (
    (dict(PLANE, seed=True), "seed must be an integer"),
    (dict(PLANE, tol={"gauss": True}), "tolerance 'gauss' must be"),
    (dict(PLANE, grid={"nu": True, "nv": 9}), "grid must be an object"),
    (dict(PLANE, delta=1.7), "delta must be 1 or -1, got 1.7"),
    (dict(PLANE, delta=-1.9), "delta must be 1 or -1, got -1.9"),
    (dict(PLANE, tau="1.5"), "tau must be a number, got '1.5'"),
    (dict(PLANE, phi0=False), "phi0 must be a number"),
    (dict(HELIX, theta="0.9"), "theta must be a number"),
    (dict(HELIX, c=True), "c must be a number"),
    (dict(HELIX, eta={"kind": "linear", "coefficients": ["0", 1.0]}),
     "eta coefficient must be a number"),
    (dict(PLANE, domain=[[-1, True], [-1, 1]]), "domain bound must be a number"),
), ids=("seed", "tol", "grid", "delta", "delta_negative", "tau", "phi0",
        "theta", "c", "eta", "domain"))
def test_numeric_fields_take_json_numbers_only(workdir, capsys, payload,
                                                message):
    assert main(["verify", "--config", cfg_path(workdir, payload),
                 "--suite", "ambient"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


# a tolerance integer too large for a float, and a grid over the point limit
# (refused before any grid is built), are config errors in every subcommand;
# the one stderr line stays within 300 characters however long the
# offending value it echoes
@pytest.mark.parametrize("payload, message", (
    (dict(PLANE, tol={"gauss": 10 ** 400}), "tolerance 'gauss' must be"),
    (dict(PLANE, grid={"nu": 8, "nv": 31_251}),
     "grid must have at most 250000 points, got 8x31251"),
    (dict(PLANE, grid={"nu": 8, "nv": 10 ** 30}), "at most 250000 points"),
    (dict(PLANE, grid={"nu": 8, "nv": 10 ** 4000}), "at most 250000 points"),
    (dict(PLANE, causal="x" * 5000), "bad causal 'xxx"),
    (dict(PLANE, suites="x" * 5000), "suites must be a list"),
    (dict(PLANE, seed="x" * 5000), "seed must be an integer"),
), ids=("tol_int_too_large", "grid_over_limit", "grid_huge", "grid_4001_digits",
        "causal_5000", "suites_5000", "seed_5000"))
@pytest.mark.parametrize("command", ("analyze", "verify", "mesh"))
def test_oversized_numbers_are_config_errors(workdir, capsys, command, payload,
                                             message):
    assert main([command, "--config",
                 cfg_path(workdir, payload)]) == EXIT_CONFIG_ERROR
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert message in lines[0] and len(lines[0]) <= 300


def test_integer_literal_too_long_to_parse_is_a_config_error(workdir, capsys):
    """json refuses int literals of more than 4300 digits with a ValueError
    that is not a JSONDecodeError."""
    path = workdir / "long.json"
    path.write_text('{"seed": ' + "1" * 5000 + "}", encoding="utf-8")
    assert main(["verify", "--config", str(path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Exceeds the limit" in err


def test_grid_limit_admits_500x500(workdir):
    args = cli._build_parser().parse_args(
        ["verify", "--config", cfg_path(workdir, PLANE)])
    path = cfg_path(workdir, dict(PLANE, grid={"nu": 500, "nv": 500}))
    assert cli.load_config(path, args).grid == (500, 500)


def test_integer_valued_float_delta_is_the_integer(workdir, capsys):
    assert main(["analyze", "--config",
                 cfg_path(workdir, dict(PLANE, delta=-1.0))]) == EXIT_PASS
    summary = json.loads((workdir / "heisgeo-analyze.json").read_text())
    delta = summary["family"]["delta"]
    assert delta == -1 and type(delta) is int  # written as -1, not -1.0
    capsys.readouterr()


def test_suites_must_be_a_list(workdir, capsys):
    cfg = cfg_path(workdir, dict(PLANE, suites="ambient"))
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "suites must be a list" in err
    assert "unknown suite" not in err


# config guards that no other test reaches: each exits 2 with its message
# (json.dumps writes NaN, which json.load reads back)
@pytest.mark.parametrize("text, message", (
    ("[1, 2]", "config must be a JSON object"),
    (json.dumps(dict(PLANE, out=3)), "out must be a path string, got 3"),
    (json.dumps(dict(HELIX, eta={"kind": "linear"})),
     "eta spec missing field 'coefficients'"),
    (json.dumps(dict(HELIX, theta=math.nan)), "theta and c must be finite"),
    (json.dumps(dict(HELIX, c=math.nan)), "theta and c must be finite"),
), ids=("array", "out_not_string", "eta_no_coefficients", "theta_nan",
        "c_nan"))
def test_config_guards_exit_2(workdir, capsys, text, message):
    path = workdir / "guard.json"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_capped_error_line_keeps_head_and_tail(capsys):
    """The tail of a geometry error names the failing sample."""
    exc = errors.NonFiniteJet("jet " + "x" * 1000 + " at sample (u=0.5, v=711)")
    assert cli._report("geometry error", exc, EXIT_GEOMETRY_ERROR) == 3
    line = capsys.readouterr().err.rstrip("\n")
    assert len(line) <= 300 and " ... " in line
    assert line.startswith("geometry error: jet xxx")
    assert line.endswith("x at sample (u=0.5, v=711)")


#: the errors that exit 2; every other heisgeo error, and OverflowError, is
#: a geometry error (exit 3)
CONFIG_ERROR_NAMES = {"ConfigError", "UnknownFamily", "InvalidCombination",
                      "InvalidParameterDomain"}
ERROR_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(c, errors.HeisgeoError)] + [OverflowError]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_keeps_its_exit_code(workdir, capsys, monkeypatch,
                                               error):
    def raise_it(cfg):
        raise error("raised by the family builder")

    monkeypatch.setattr(cli, "family_from_config", raise_it)
    code = (EXIT_CONFIG_ERROR if error.__name__ in CONFIG_ERROR_NAMES
            else EXIT_GEOMETRY_ERROR)
    assert main(["analyze", "--config", cfg_path(workdir, PLANE)]) == code
    assert capsys.readouterr().err.endswith(": raised by the family builder\n")


def test_helix_without_eta_is_constant_zero_eta(workdir, capsys):
    """eta is optional for a helix: absent, it is the constant 0."""
    payload = {k: v for k, v in HELIX.items() if k != "eta"}
    cfg = cfg_path(workdir, payload)
    for command in ("analyze", "verify", "mesh"):
        assert main([command, "--config", cfg, "--out", command]) == EXIT_PASS
    family = json.loads((workdir / "analyze.json").read_text())["family"]
    assert family["eta"] == {"kind": "constant", "coefficients": [0]}
    assert json.loads((workdir / "verify").read_text())["verdict"] == "pass"
    assert (workdir / "mesh").read_text().startswith("# heisgeo surface mesh")
    capsys.readouterr()


def test_exit_code_missing_required_flag(workdir, capsys):
    assert main(["analyze"]) == 2  # argparse usage error
    capsys.readouterr()


def test_exit_code_geometry_error(workdir, capsys):
    """A schema-valid helix whose profile quadrature cannot reach its
    tolerance maps to the geometry-error code."""
    hard = dict(HELIX)
    hard["eta"] = {"kind": "polynomial",
                   "coefficients": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 30.0]}
    assert main(["analyze", "--config",
                 cfg_path(workdir, hard)]) == EXIT_GEOMETRY_ERROR
    err = capsys.readouterr().err
    assert "geometry error" in err


def _sinusoidal_helix(freq):
    return dict(HELIX, causal="timelike", theta=math.pi / 4.0,
                eta={"kind": "sinusoidal", "coefficients": [0.3, freq, 0.0]},
                grid={"nu": 8, "nv": 8})


def test_runaway_quadrature_stops_on_its_budget(workdir, capsys):
    """eta = 0.3 sin(1e6 v) puts ~160 periods into every table segment;
    adaptive Simpson ran for minutes on it before the per-table budget."""
    start = time.perf_counter()
    code = main(["analyze", "--config", cfg_path(workdir, _sinusoidal_helix(1e6))])
    assert time.perf_counter() - start < 10.0
    assert code == EXIT_GEOMETRY_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "profile table f1 on v in [-1.26, 1.26]" in err
    assert "integrand evaluations" in err


@pytest.mark.parametrize("command", ("analyze", "verify", "mesh"))
@pytest.mark.parametrize("where", ("node", "spot"))
@pytest.mark.parametrize("row", ("f1", "f2", "f3"))
def test_quadrature_failure_names_its_row(workdir, capsys, monkeypatch,
                                          command, where, row):
    """A NaN in one row's integrand of the README helix's profile table,
    at a node (v = 1.26, the last) or at a point only the spot check
    evaluates (the midpoint of the first segment): every command exits 3
    with one stderr line naming that row and the v-range."""
    import heisgeo.families as families_module

    table = families_module.CumulativeIntegral
    k = ("f1", "f2", "f3").index(row)

    def poisoned(f, x0, lo, hi, names, then):
        n_lo = math.ceil((x0 - lo) / 1e-2)
        bad = hi if where == "node" else 0.5 * (
            lo + (x0 - (x0 - lo) * (n_lo - 1) / n_lo))

        def poison(x, pairs, j):
            out = [list(pair) for pair in pairs]
            out[j][0] = np.where(x == bad, np.nan, out[j][0])
            return out

        def first(x):
            return poison(x, f(x), k) if k < 2 else f(x)

        def second(x, *args):
            return poison(x, then(x, *args), 0) if k == 2 else then(x, *args)

        return table(first, x0, lo, hi, names, second)

    monkeypatch.setattr(families_module, "CumulativeIntegral", poisoned)
    code = main([command, "--config", cfg_path(workdir, _sinusoidal_helix(1.0)),
                 "--out", str(workdir / "out")])
    assert code == EXIT_GEOMETRY_ERROR
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert f"profile table {row} on v in [-1.26, 1.26]: " in err
    assert ("integrand not finite at table node 1.26" if where == "node"
            else "adaptive Simpson hit max depth 40") in err


def test_moderately_oscillating_eta_still_passes(workdir, capsys):
    # frequencies 50 and 200 fail the slope check on the starting
    # nodes; the tables bisect those segments within the budget
    for freq in (50.0, 200.0):
        assert main(["analyze", "--config",
                     cfg_path(workdir, _sinusoidal_helix(freq))]) == EXIT_PASS
        assert "Traceback" not in capsys.readouterr().err


# v in [-250, 250] starts each table on 50,000 segments (550,000 integrand
# evaluations), which the budget does not count.  eta = 0.5 v + 6 v^2 makes
# |f1'| reach about 6e3 at v = 1.26; there the f3 integrand
# tau (f1 f2' - f2 f1') cancels to a rounding noise of a few 1e-13 on a
# segment's integral, so a spot check of that segment at half the share
# would fail.
@pytest.mark.parametrize("helix", [
    dict(_sinusoidal_helix(1.0), domain=[[-1.0, 1.0], [-250.0, 250.0]]),
    dict(HELIX, causal="timelike", theta=1.0,
         eta={"kind": "polynomial", "coefficients": [0.0, 0.5, 6.0]}),
], ids=["wide_domain", "steep_polynomial"])
def test_demanding_tables_still_build(workdir, capsys, helix):
    assert main(["analyze", "--config", cfg_path(workdir, helix)]) == EXIT_PASS
    assert "Traceback" not in capsys.readouterr().err


def test_overwide_table_range_is_refused_up_front(workdir, capsys):
    """A v-range 1e5 wide would start each table on ten million segments,
    gigabytes before any check; the table refuses it before building."""
    helix = dict(_sinusoidal_helix(1.0), domain=[[-1.0, 1.0], [-5e4, 5e4]])
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["analyze", "--config", cfg_path(workdir, helix)])
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_GEOMETRY_ERROR
    assert seconds < 1.0
    assert peak < 5e6  # bytes: no starting grid was allocated
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "more than 60000 segments" in err


# inputs that once ended in a raw traceback (exit 1, read as "checks failed")
OVERFLOW_PLANE = dict(PLANE, delta=1, phi0=1e300)  # sinh(phi0) overflows
FAR_CYLINDER = dict(CYLINDER, delta=1, domain=[[-1, 1], [800, 801]])
TINY_TAU_HELIX = dict(HELIX, tau=1e-300)  # NaN induced determinant
# -4 tau^2 overflows; verify's ambient suite builds that companion space
HUGE_TAU_CYLINDER = dict(CYLINDER, delta=1, tau=1e200)
STRING_TOL = dict(PLANE, tol="x")  # tol must be an object
PAIRS_TOL = dict(PLANE, tol=[["gauss", 1e-3]])  # a list of pairs is not one


# numpy overflow in batch arithmetic must end in a guard, not in a warning
# (tier-1 turns every warning into an error)
@pytest.mark.parametrize("command", ("analyze", "mesh", "verify"))
@pytest.mark.parametrize("payload, code", (
    (OVERFLOW_PLANE, EXIT_CONFIG_ERROR),
    (FAR_CYLINDER, EXIT_GEOMETRY_ERROR),
    (TINY_TAU_HELIX, EXIT_GEOMETRY_ERROR),
    (HUGE_TAU_CYLINDER, EXIT_GEOMETRY_ERROR),
    (STRING_TOL, EXIT_CONFIG_ERROR),
    (PAIRS_TOL, EXIT_CONFIG_ERROR),
), ids=("overflow_plane", "far_cylinder", "tiny_tau_helix", "huge_tau_cylinder",
        "string_tol", "pairs_tol"))
def test_crash_inputs_land_on_documented_codes(workdir, capsys, command,
                                                payload, code):
    assert main([command, "--config", cfg_path(workdir, payload)]) == code
    assert "Traceback" not in capsys.readouterr().err


# a spacelike angle so small that sinh(theta)^2 underflows once divided
# the immersion's constants by zero (exit 5), and a merely tiny one ended in
# a degenerate metric (exit 3): both are below the branch's angle threshold
@pytest.mark.parametrize("command", ("analyze", "verify", "mesh"))
@pytest.mark.parametrize("theta", (1e-300, 1e-170, 1e-9))
def test_tiny_spacelike_angle_is_a_config_error(workdir, capsys, command,
                                                theta):
    assert main([command, "--config", cfg_path(workdir, dict(
        HELIX, theta=theta))]) == EXIT_CONFIG_ERROR
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert "spacelike branch" in lines[0]


# extreme magnitudes across the config schema, each under every command:
# whatever the verdict, a documented code, no internal error, and no long
# run.  A steep eta that burns the profile table's evaluation budget for
# seconds (such as -0.6 v + 8 v^2, timelike theta = 1, c = 0.1) is left out:
# making steep profiles build is an open item of its own.
EXTREME_CONFIGS = {
    "tau_1e-300": dict(HELIX, tau=1e-300),
    "tau_1e200": dict(HELIX, tau=1e200),
    "theta_1e-300": dict(HELIX, theta=1e-300),
    "theta_800": dict(HELIX, theta=800.0),
    "c_800": dict(HELIX, c=800.0),
    "c_-800": dict(HELIX, c=-800.0),
    "sinusoidal_amplitude_1e6": dict(HELIX, eta={
        "kind": "sinusoidal", "coefficients": [1e6, 1.0, 0.0]}),
    "sinusoidal_frequency_1e4": dict(HELIX, eta={
        "kind": "sinusoidal", "coefficients": [0.3, 1e4, 0.0]}),
    "polynomial_sixth_1e300": dict(HELIX, eta={
        "kind": "polynomial", "coefficients": [0.0, 0.0, 0.0, 0.0, 0.0, 1e300]}),
    "linear_slope_1e8": dict(HELIX, eta={
        "kind": "linear", "coefficients": [0.0, 1e8]}),
    "domain_1e-300": dict(HELIX, domain=[[0.0, 1e-300], [0.0, 1e-300]]),
    "domain_u_1e300": dict(HELIX, domain=[[1e300, 1.0000001e300], [0.0, 1.0]]),
    "plane_tau_0": dict(PLANE, tau=0.0),
    "plane_phi0_700": dict(PLANE, delta=1, phi0=700.0),
    "cylinder_v_800": dict(CYLINDER, domain=[[-1.0, 1.0], [-800.0, 800.0]]),
}


@pytest.mark.parametrize("command", ("analyze", "verify", "mesh"))
@pytest.mark.parametrize("payload", EXTREME_CONFIGS.values(),
                         ids=EXTREME_CONFIGS)
def test_extreme_inputs_land_on_documented_codes(workdir, capsys, command,
                                                 payload):
    start = time.perf_counter()
    code = main([command, "--config", cfg_path(workdir, payload),
                 "--out", "out"])
    seconds = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (EXIT_PASS, EXIT_SUITE_FAILURE, EXIT_CONFIG_ERROR,
                    EXIT_GEOMETRY_ERROR), err
    assert "internal error" not in err and "Traceback" not in err
    assert seconds < 5.0


# valid timelike helices on which a tangent frame seeded at the patch centre
# loses its spacelike norm away from it; verify must still pass every check
POLYNOMIAL_TIMELIKE_HELIX = {
    "family": "helix", "causal": "timelike", "tau": 1.0,
    "theta": 0.7931084582591982, "c": 0.08966804746507802,
    "eta": {"kind": "polynomial",
            "coefficients": [-0.11070441415719419, 1.0509732889622359,
                             0.2686253654742034]},
    "grid": {"nu": 9, "nv": 9}}
SHIFTED_TIMELIKE_HELIX = dict(HELIX, causal="timelike", theta=math.pi / 4.0,
                              domain=[[-1.2, 1.2], [-1.26, 1.14]])


@pytest.mark.parametrize("payload", (POLYNOMIAL_TIMELIKE_HELIX,
                                     SHIFTED_TIMELIKE_HELIX),
                         ids=("polynomial_eta", "shifted_v_domain"))
def test_valid_timelike_helices_pass_every_check(workdir, capsys, payload):
    cfg = cfg_path(workdir, payload)
    assert main(["verify", "--config", cfg, "--suite", "all",
                 "--out", "rep.json"]) == EXIT_PASS
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((workdir / "rep.json").read_text())
    assert report["checks"]
    assert all(c["verdict"] == "pass" for c in report["checks"])


#: correct helices whose gauss (and codazzi) residuals, taken from second
#: differences of rounded values, failed verify before every partial the
#: suites read came from Taylor coefficients
C_MINUS_5_SPACELIKE = {
    "family": "helix", "causal": "spacelike", "tau": 1.0,
    "theta": math.asinh(1.0), "c": -5.0,
    "eta": {"kind": "linear", "coefficients": [0.0, 1.0]},
    "grid": {"nu": 8, "nv": 8}}
STEEP_HELICES = {
    "c-5_spacelike_asinh1": C_MINUS_5_SPACELIKE,
    "c-5_timelike_quarter_pi": dict(
        C_MINUS_5_SPACELIKE, causal="timelike", theta=math.pi / 4.0,
        eta={"kind": "linear", "coefficients": [0.2, 0.5]},
        grid={"nu": 12, "nv": 12}),
    "c-5_spacelike_quarter_pi": dict(
        C_MINUS_5_SPACELIKE, theta=math.pi / 4.0,
        eta={"kind": "linear", "coefficients": [0.2, 0.5]},
        grid={"nu": 12, "nv": 12}),
    "timelike_steep_polynomial": {
        "family": "helix", "causal": "timelike", "tau": 1.0, "theta": 1.0,
        "c": 0.6, "eta": {"kind": "polynomial", "coefficients": [0.0, 1.0, 6.0]},
        "grid": {"nu": 20, "nv": 20}},
}


@pytest.mark.parametrize("payload", STEEP_HELICES.values(), ids=STEEP_HELICES)
def test_steep_helices_pass_every_check(workdir, capsys, payload):
    cfg = cfg_path(workdir, payload)
    assert main(["verify", "--config", cfg, "--suite", "all",
                 "--out", "rep.json"]) == EXIT_PASS
    report = json.loads((workdir / "rep.json").read_text())
    assert report["checks"]
    assert [c["id"] for c in report["checks"] if c["verdict"] != "pass"] == []


def test_unexpected_exception_is_an_internal_error(workdir, capsys,
                                                   monkeypatch):
    """An exception heisgeo does not expect is a bug: exit 5 with one line
    on stderr, never a traceback that reads as exit 1 ("a check failed")."""
    def broken(*args, **kwargs):
        raise IndexError("list index out of range")

    monkeypatch.setattr(verify_module, "check_codazzi", broken)
    code = main(["verify", "--config", cfg_path(workdir, CYLINDER),
                 "--suite", "codazzi"])
    assert code == EXIT_INTERNAL_ERROR == 5
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: IndexError: list index out of range"]


def test_nan_residual_is_a_geometry_error(workdir, capsys, monkeypatch):
    """A NaN shape operator at one sample ends as exit 3 naming the check,
    not as a passing verify."""
    second_form_shape = surface_module._second_form_shape

    def nan_at_one_point(space, s):
        (s11, s12), (s21, s22) = second_form_shape(space, s)
        # NaN added to the value at point 9 (of an order-1 sample too)
        s11 = s11 + np.where(np.arange(np.size(value(s11))) == 9, np.nan, 0.0)
        return (s11, s12), (s21, s22)

    monkeypatch.setattr(surface_module, "_second_form_shape", nan_at_one_point)
    monkeypatch.setattr(verify_module, "_second_form_shape", nan_at_one_point)
    code = main(["verify", "--config", cfg_path(workdir, HELIX),
                 "--suite", "codazzi"])
    assert code == EXIT_GEOMETRY_ERROR
    err = capsys.readouterr().err
    assert "check codazzi.coordinate_fields: residual nan is not finite" in err
    assert "Traceback" not in err


def test_exit_code_io_error(workdir, capsys):
    cfg = cfg_path(workdir, PLANE)
    missing_dir = str(workdir / "no" / "such" / "dir" / "x.obj")
    assert main(["mesh", "--config", cfg, "--out", missing_dir]) == EXIT_IO_ERROR
    capsys.readouterr()


# ---------------------------------------------------------------- determinism


def test_reports_and_meshes_are_byte_identical(workdir, capsys):
    cfg = write_config(workdir, HELIX)
    for tag in ("a", "b"):
        assert main(["verify", "--config", cfg, "--suite", "gauss",
                     "--suite", "helix_ode", "--seed", "1729",
                     "--out", f"rep-{tag}.json"]) == EXIT_PASS
        assert main(["analyze", "--config", cfg,
                     "--out", f"ana-{tag}"]) == EXIT_PASS
        assert main(["mesh", "--config", cfg,
                     "--out", f"mesh-{tag}.obj"]) == EXIT_PASS
    assert (workdir / "rep-a.json").read_bytes() == (workdir / "rep-b.json").read_bytes()
    assert (workdir / "ana-a.csv").read_bytes() == (workdir / "ana-b.csv").read_bytes()
    assert (workdir / "ana-a.json").read_bytes() == (workdir / "ana-b.json").read_bytes()
    assert (workdir / "mesh-a.obj").read_bytes() == (workdir / "mesh-b.obj").read_bytes()
    capsys.readouterr()
