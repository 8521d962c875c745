"""End-to-end tests of the command-line interface: subcommands, config
validation, exit codes, output formats, and byte determinism."""
from __future__ import annotations

import json
import math
import time

import pytest

import numpy as np

import heisgeo.surface as surface_module
import heisgeo.verify as verify_module
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


def test_suites_must_be_a_list(workdir, capsys):
    cfg = cfg_path(workdir, dict(PLANE, suites="ambient"))
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "suites must be a list" in err
    assert "unknown suite" not in err


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


def test_moderately_oscillating_eta_still_passes(workdir, capsys):
    # frequency 50 fails the embedded estimate on most segments, which
    # adaptive Simpson then refines within the budget
    assert main(["analyze", "--config",
                 cfg_path(workdir, _sinusoidal_helix(50.0))]) == EXIT_PASS
    assert "Traceback" not in capsys.readouterr().err


# inputs that once ended in a raw traceback (exit 1, read as "checks failed")
OVERFLOW_PLANE = dict(PLANE, delta=1, phi0=1e300)  # sinh(phi0) overflows
FAR_CYLINDER = dict(CYLINDER, delta=1, domain=[[-1, 1], [800, 801]])
TINY_TAU_HELIX = dict(HELIX, tau=1e-300)  # NaN induced determinant
# -4 tau^2 overflows; verify's ambient suite builds that companion space
HUGE_TAU_CYLINDER = dict(CYLINDER, delta=1, tau=1e200)
STRING_TOL = dict(PLANE, tol="x")  # tol must be an object
PAIRS_TOL = dict(PLANE, tol=[["gauss", 1e-3]])  # a list of pairs is not one


# numpy overflow in batch arithmetic must end in a guard, not in a warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
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
        s11 = np.where(np.arange(np.size(s11)) == 9, np.nan, s11)
        return (s11, s12), (s21, s22)

    monkeypatch.setattr(surface_module, "_second_form_shape", nan_at_one_point)
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
