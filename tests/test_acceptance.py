"""Acceptance battery: ten numbered criteria with pinned tolerances.

Each criterion is one test named test_criterion_<n>; tests/conftest.py prints
one ACCEPTANCE line per criterion after the run.  Expected values are frozen
oracles: hand-derived closed forms cross-checked through the package's
independent finite-difference routes before pinning.
"""
from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from heisgeo.ambient import (
    SpaceParams,
    christoffel_coords,
    connection_table,
    curvature_frame,
    frame_at,
    frame_field,
    metric_eval,
    riemann_coords,
    sectional_curvature,
    to_frame_components,
)
from heisgeo.cli import main as cli_main
from heisgeo.families import (
    EtaSpec,
    HelixProfile,
    build_profile,
    make_cmc_cylinder,
    make_helix_surface,
    make_minimal_plane,
    predicted_mu_at_patch,
    profile_residuals,
)
from heisgeo.surface import geometry_report, shape_operator
from heisgeo.verify import (
    check_codazzi,
    check_gauss,
    check_helix_ode,
    check_parallel,
    curvature_from_table,
    default_family_matrix,
    interior_grid,
)

DELTAS = (1, -1)
TAUS = (0.5, 1.0, 2.0)
BASIS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
ASINH1 = math.asinh(1.0)

ETA_PRESETS = (
    EtaSpec("constant", (0.0,)),
    EtaSpec("linear", (0.0, 1.0)),
    EtaSpec("sinusoidal", (0.3, 1.0, 0.0)),
)


def hand_connection(delta: int, tau: float):
    dt = float(delta) * tau
    z = (0.0, 0.0, 0.0)
    return {
        (1, 1): z, (2, 2): z, (3, 3): z,
        (1, 2): (0.0, 0.0, tau), (2, 1): (0.0, 0.0, -tau),
        (1, 3): (0.0, tau, 0.0), (3, 1): (0.0, tau, 0.0),
        (2, 3): (dt, 0.0, 0.0), (3, 2): (dt, 0.0, 0.0),
    }


def hand_curvature(delta: int, tau: float):
    t2 = tau * tau
    d = float(delta)
    z = (0.0, 0.0, 0.0)
    return {
        (1, 2, 1): (0.0, -3.0 * t2, 0.0),
        (1, 2, 2): (-3.0 * d * t2, 0.0, 0.0),
        (1, 2, 3): z,
        (1, 3, 1): (0.0, 0.0, t2),
        (1, 3, 2): z,
        (1, 3, 3): (-d * t2, 0.0, 0.0),
        (2, 3, 1): z,
        (2, 3, 2): (0.0, 0.0, -d * t2),
        (2, 3, 3): (0.0, -d * t2, 0.0),
    }


# =====================================================================
# Criterion 1: connection and curvature tables are exact; the
# finite-difference coordinate path reproduces them to 1e-6 at 100
# random points, for delta = +-1 and tau in {0.5, 1, 2}.
# =====================================================================


def test_criterion_1_tables_exact_and_fd_path():
    for delta in DELTAS:
        for tau in TAUS:
            sp = SpaceParams(delta=delta, tau=tau)
            want_conn = hand_connection(delta, tau)
            got_conn = connection_table(sp)
            assert got_conn == want_conn
            want_curv = hand_curvature(delta, tau)
            for (i, j, k), want in want_curv.items():
                got = curvature_frame(sp, BASIS[i - 1], BASIS[j - 1],
                                      BASIS[k - 1])
                assert got == want

            rng = random.Random(1729)
            fields = [frame_field(sp, i) for i in (1, 2, 3)]
            worst_conn = worst_curv = 0.0
            for _ in range(100):
                p = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                     rng.uniform(-1.5, 1.5))
                gam = christoffel_coords(sp, p)  # FD of the metric
                vecs = frame_at(sp, p).vectors()

                # connection: coordinate covariant derivative of E_j along
                # E_i via FD Christoffels + FD field derivative
                for i in range(3):
                    xp = vecs[i]
                    for j in range(3):
                        h = 1e-6
                        wp = fields[j](tuple(p[m] + h * xp[m] for m in range(3)))
                        wm = fields[j](tuple(p[m] - h * xp[m] for m in range(3)))
                        w0 = fields[j](p)
                        cov = [0.0, 0.0, 0.0]
                        for k in range(3):
                            val = (wp[k] - wm[k]) / (2.0 * h)
                            for a in range(3):
                                for b in range(3):
                                    val += gam[k][a][b] * xp[a] * w0[b]
                            cov[k] = val
                        got = to_frame_components(sp, p, tuple(cov))
                        want = want_conn[(i + 1, j + 1)]
                        worst_conn = max(worst_conn, max(
                            abs(got[m] - want[m]) for m in range(3)))

                # curvature: contract the FD coordinate tensor with the
                # frame vectors, compare in frame components
                riem = riemann_coords(sp, p)
                for (i, j, k), want in want_curv.items():
                    out = np.einsum("lijk,i,j,k->l", riem,
                                    np.asarray(vecs[i - 1]),
                                    np.asarray(vecs[j - 1]),
                                    np.asarray(vecs[k - 1]))
                    got = to_frame_components(sp, p, tuple(float(x) for x in out))
                    worst_curv = max(worst_curv, max(
                        abs(got[m] - want[m]) for m in range(3)))

            assert worst_conn <= 1e-6, (delta, tau, worst_conn)
            assert worst_curv <= 1e-6, (delta, tau, worst_curv)


# =====================================================================
# Criterion 2: the closed curvature formula and the literal-table
# trilinear expansion agree exactly on frame triples and to 1e-10 on
# 200 random triples per space.
# =====================================================================


def test_criterion_2_curvature_formulas_agree():
    for delta in DELTAS:
        for tau in TAUS:
            sp = SpaceParams(delta=delta, tau=tau)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        f = curvature_frame(sp, BASIS[i], BASIS[j], BASIS[k])
                        t = curvature_from_table(sp, BASIS[i], BASIS[j],
                                                 BASIS[k])
                        assert f == t
            rng = random.Random(1729)
            worst = 0.0
            for _ in range(200):
                a = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
                b = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
                c = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
                f = curvature_frame(sp, a, b, c)
                t = curvature_from_table(sp, a, b, c)
                worst = max(worst, max(abs(f[m] - t[m]) for m in range(3)))
            assert worst <= 1e-10, (delta, tau, worst)


# =====================================================================
# Criterion 3: with the matched parameter choice (the fourth parameter
# set to -4 tau^2) the space has constant sectional curvature: spread
# <= 1e-6 over 20 well-conditioned random planes, and the constant is
# -tau^2.
# =====================================================================


def test_criterion_3_matched_parameters_constant_curvature():
    for delta in DELTAS:
        for tau in TAUS:
            sp = SpaceParams(delta=delta, tau=tau, kappa=-4.0 * tau * tau)
            rng = random.Random(1729)
            vals = []
            guard = 0
            while len(vals) < 20:
                guard += 1
                assert guard < 2000
                p = (rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15),
                     rng.uniform(-1.0, 1.0))
                v = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
                w = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
                g_vv = metric_eval(sp, p, v, v)
                g_ww = metric_eval(sp, p, w, w)
                g_vw = metric_eval(sp, p, v, w)
                denom = g_vv * g_ww - g_vw * g_vw
                if abs(denom) < 0.2 * max(abs(g_vv * g_ww), g_vw * g_vw, 1e-12):
                    continue  # numerically ill-conditioned plane: redraw
                vals.append(sectional_curvature(sp, p, v, w, method="fd"))
            spread = max(vals) - min(vals)
            assert spread <= 1e-6, (delta, tau, spread)
            for val in vals:
                assert abs(val + tau * tau) <= 1e-5, (delta, tau, val)


# =====================================================================
# Criterion 4: the ruled vertical planes are minimal with vanishing
# angle function and flat: on 50x50 grids |H| <= 1e-8, |nu| <= 1e-10,
# |K| <= 1e-8 by BOTH curvature routes, for all three parametrizations
# and three values of the direction parameter.
# =====================================================================


def test_criterion_4_minimal_planes():
    cases = ((-1, "timelike"), (1, "timelike"), (1, "spacelike"))
    for delta, causal in cases:
        for phi0 in (0.0, 0.7, -1.1):
            patch = make_minimal_plane(delta, causal, phi0, tau=1.0)
            rep = geometry_report(patch, 50, 50)
            s = rep.summary()
            assert len(rep.records) == 2500
            assert max(abs(s["H"]["max"]), abs(s["H"]["min"])) <= 1e-8
            assert max(abs(s["nu"]["max"]), abs(s["nu"]["min"])) <= 1e-10
            assert max(abs(s["K_ext"]["max"]), abs(s["K_ext"]["min"])) <= 1e-8
            assert max(abs(s["K_int"]["max"]), abs(s["K_int"]["min"])) <= 1e-8


# =====================================================================
# Criterion 5: the constant-H cylinders have constant nonzero mean
# curvature, vanishing angle function, both curvature routes zero, and
# satisfy the parallel-surface equations to 1e-5.
# =====================================================================


def test_criterion_5_cmc_cylinders():
    cases = ((-1, "timelike"), (1, "timelike"), (1, "spacelike"))
    for delta, causal in cases:
        for tau in (0.5, 1.0):
            patch = make_cmc_cylinder(delta, causal, tau)
            rep = geometry_report(patch, 30, 30)
            s = rep.summary()
            assert s["H"]["range"] <= 1e-8
            assert abs(s["H"]["mean"]) >= 1e-3
            assert max(abs(s["nu"]["max"]), abs(s["nu"]["min"])) <= 1e-10
            assert max(abs(s["K_ext"]["max"]), abs(s["K_ext"]["min"])) <= 1e-8
            assert max(abs(s["K_int"]["max"]), abs(s["K_int"]["min"])) <= 1e-8
            par = check_parallel(patch, (12, 12))
            assert par.max_residual <= 1e-5, (delta, causal, tau)


# =====================================================================
# Criteria 6 and 7: the constant-angle families with nonzero angle
# function.  Shared battery; branch-specific targets.
# =====================================================================


def _helix_battery(causal: str, theta: float, k_sign: float):
    delta = 1
    eps = -1 if causal == "spacelike" else 1
    nu_target = math.sinh(theta) if causal == "spacelike" else math.sin(theta)
    for tau in (0.5, 1.0):
        for eta in ETA_PRESETS:
            prof = HelixProfile(causal, tau, theta, c=0.2, eta=eta)
            patch = make_helix_surface(prof)
            k_target = k_sign * 4.0 * tau * tau * nu_target * nu_target
            hs = []
            pts = interior_grid(patch, (12, 12))
            for (u, v) in pts:
                rec_nu = abs(patch_nu(patch, u, v))
                assert abs(rec_nu - nu_target) <= 1e-7, (tau, eta.kind)
                sa = shape_operator(patch, u, v, basis="adapted-TJT")
                assert abs(sa.s11) <= 1e-6
                assert abs(sa.s12 - delta * eps * tau) <= 1e-6
                assert abs(sa.s21 + delta * tau) <= 1e-6
                mu_pred = predicted_mu_at_patch(prof, u, v)
                assert abs(sa.s22 - mu_pred) <= 1e-5, (tau, eta.kind, u, v)
                hs.append(0.5 * sa.trace)
                from heisgeo.surface import gaussian_curvature
                k = gaussian_curvature(patch, u, v, method="extrinsic")
                assert abs(k - k_target) <= 1e-6, (tau, eta.kind, k, k_target)
            assert max(hs) - min(hs) >= 1e-3  # genuinely non-CMC
            assert check_gauss(patch, (12, 12)).max_residual <= 1e-5
            assert check_codazzi(patch, (12, 12)).max_residual <= 1e-4
            assert check_helix_ode(patch, (12, 12)).max_residual <= 1e-5


def patch_nu(patch, u, v):
    from heisgeo.surface import angle_function
    return angle_function(patch, u, v)


def test_criterion_6_spacelike_constant_angle_family():
    _helix_battery("spacelike", ASINH1, k_sign=-1.0)


def test_criterion_7_timelike_constant_angle_family():
    _helix_battery("timelike", math.pi / 4.0, k_sign=1.0)
    # branch-specific profile constraint: f1'^2 - f2'^2 = -cos^2(theta)
    theta = math.pi / 4.0
    for eta in ETA_PRESETS:
        prof = HelixProfile("timelike", 1.0, theta, c=0.2, eta=eta)
        pf = build_profile(prof, (-1.26, 1.26))
        for i in range(41):
            v = -1.2 + 2.4 * i / 40.0
            d1, d2 = pf.jet(v)[3:5]
            assert abs(d1 * d1 - d2 * d2 + math.cos(theta) ** 2) <= 1e-8


# =====================================================================
# Criterion 8: profile construction solves its defining system.
# Closed-form paths to 1e-10; quadrature paths to 1e-8; including the
# height-function ODE f3' = tau (f1 f2' - f2 f1').
# =====================================================================


def test_criterion_8_profile_residuals():
    closed_etas = (EtaSpec("constant", (0.3,)), EtaSpec("linear", (0.2, 0.8)))
    quad_etas = (EtaSpec("polynomial", (0.1, 0.0, -0.3, 0.2)),
                 EtaSpec("sinusoidal", (0.3, 1.0, 0.0)))
    for causal, theta in (("spacelike", ASINH1), ("timelike", math.pi / 4.0)):
        for eta in closed_etas:
            prof = HelixProfile(causal, 1.0, theta, c=0.1, eta=eta)
            pf = build_profile(prof, (-1.26, 1.26))
            assert pf.source == "closed-form"
            res = profile_residuals(pf)
            assert res["antiderivative"] <= 1e-10, (causal, eta.kind, res)
            assert res["derivative_constraint"] <= 1e-10
            assert res["f3_ode"] <= 1e-10
            # same eta through the independent quadrature route: the
            # same coefficients as a polynomial eta
            pq = build_profile(HelixProfile(causal, 1.0, theta, c=0.1,
                                            eta=EtaSpec("polynomial",
                                                        eta.coefficients)),
                               (-1.26, 1.26))
            assert pq.source == "quadrature"
            resq = profile_residuals(pq)
            assert max(resq.values()) <= 1e-8
        for eta in quad_etas:
            prof = HelixProfile(causal, 1.0, theta, c=0.1, eta=eta)
            pf = build_profile(prof, (-1.26, 1.26))
            assert pf.source == "quadrature"
            res = profile_residuals(pf)
            assert res["antiderivative"] <= 1e-8, (causal, eta.kind, res)
            assert res["derivative_constraint"] <= 1e-8
            assert res["f3_ode"] <= 1e-8


# =====================================================================
# Criterion 9: classification claims over the family matrix.
#   - every patch that satisfies the parallel equations is CMC,
#   - on constant-angle patches CMC and parallel are equivalent,
#   - H equals half the varying adapted entry (1e-8),
#   - the adapted off-diagonal never drops below |tau| - 1e-6.
# =====================================================================


def test_criterion_9_classification_claims():
    for tau in (0.5, 1.0):
        for patch in default_family_matrix(tau):
            pts = interior_grid(patch, (10, 10))
            hs, s12s, s22s = [], [], []
            for (u, v) in pts:
                sa = shape_operator(patch, u, v, basis="adapted-TJT")
                hs.append(0.5 * sa.trace)
                s12s.append(sa.s12)
                s22s.append(sa.s22)
            h_range = max(hs) - min(hs)
            parallel = check_parallel(patch, (10, 10)).passed
            is_cmc = h_range <= 1e-8
            if parallel:
                assert is_cmc, patch.name  # parallel => CMC
            assert is_cmc == parallel, patch.name  # CMC <=> parallel here
            for h, s22 in zip(hs, s22s):
                assert abs(h - 0.5 * s22) <= 1e-8, patch.name
            assert min(abs(x) for x in s12s) >= abs(tau) - 1e-6, patch.name


# =====================================================================
# Criterion 10: with a fixed seed the CLI emits byte-identical reports
# and meshes across repeated runs.
# =====================================================================


def test_criterion_10_byte_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_payload = {
        "family": "helix", "causal": "timelike", "tau": 1.0,
        "theta": math.pi / 4.0, "c": 0.1,
        "eta": {"kind": "sinusoidal", "coefficients": [0.3, 1.0, 0.0]},
        "grid": {"nu": 9, "nv": 9},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(cfg_payload), encoding="utf-8")
    for tag in ("a", "b"):
        assert cli_main(["verify", "--config", str(cfg), "--suite", "all",
                         "--seed", "42", "--out", f"rep-{tag}.json"]) == 0
        assert cli_main(["analyze", "--config", str(cfg),
                         "--out", f"ana-{tag}"]) == 0
        assert cli_main(["mesh", "--config", str(cfg),
                         "--out", f"mesh-{tag}.obj"]) == 0
    capsys.readouterr()
    rep_a = (tmp_path / "rep-a.json").read_bytes()
    assert rep_a == (tmp_path / "rep-b.json").read_bytes()
    assert json.loads(rep_a)["seed"] == 42
    assert (tmp_path / "ana-a.csv").read_bytes() == (tmp_path / "ana-b.csv").read_bytes()
    assert (tmp_path / "ana-a.json").read_bytes() == (tmp_path / "ana-b.json").read_bytes()
    assert (tmp_path / "mesh-a.obj").read_bytes() == (tmp_path / "mesh-b.obj").read_bytes()
