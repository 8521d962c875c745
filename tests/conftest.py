"""Shared pytest hooks: print one PASS/FAIL line per acceptance criterion.

Tests named ``test_criterion_<n>_*`` inside tests/test_acceptance.py are
grouped by <n>; after the run a summary section prints exactly one line per
criterion so the verdicts survive output capture under plain ``pytest -v``.

Also the tests' one finite-difference oracle, `central_diff4`.
"""
from __future__ import annotations

import re

import numpy as np

CRITERIA_SUMMARIES = {
    1: "ambient connection/curvature closed forms exact; FD cross-check <= 1e-6",
    2: "two curvature routes agree: frame triples exact, random triples <= 1e-10",
    3: "sectional curvature constant (spread <= 1e-6) on the matched-parameter space",
    4: "ruled vertical planes: H == 0, angle function == 0, both K routes == 0",
    5: "constant-H cylinders: H constant and nonzero, flat, parallel equations hold",
    6: "spacelike constant-angle family: invariants, shape pattern, mu profile, PDE residuals",
    7: "timelike constant-angle family: invariants, shape pattern, mu profile, PDE residuals",
    8: "profile systems solved: antiderivative/constraint/height-ODE residuals in tolerance",
    9: "classification claims hold across the family matrix",
    10: "CLI reports and meshes are byte-identical across repeated runs",
}

_ACCEPTANCE_RESULTS: dict[int, bool] = {}
_PATTERN = re.compile(r"test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _PATTERN.search(report.nodeid)
    if not match or "test_acceptance" not in report.nodeid:
        return
    n = int(match.group(1))
    passed = report.outcome == "passed"
    _ACCEPTANCE_RESULTS[n] = _ACCEPTANCE_RESULTS.get(n, True) and passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if _ACCEPTANCE_RESULTS[n] else "FAIL"
        summary = CRITERIA_SUMMARIES.get(n, "")
        terminalreporter.write_line(f"ACCEPTANCE {n}: {verdict} - {summary}")


def central_diff4(f, h: float) -> np.ndarray:
    """f'(0) by the fourth-order central stencil at step h: f is called
    once, on the offsets (2h, h, -h, -2h) as an array, and returns an array
    with those offsets on its last axis."""
    p2, p1, m1, m2 = np.moveaxis(f(np.array([2.0, 1.0, -1.0, -2.0]) * h), -1, 0)
    return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
