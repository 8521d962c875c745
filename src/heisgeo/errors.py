"""Exception hierarchy for the heisgeo package.

Every error raised by the library derives from :class:`HeisgeoError`, split
into three branches matching where the failure originates: the ambient space,
an immersed surface patch, or a surface-family generator.  The CLI maps these
branches onto its documented exit codes.

Errors raised by a per-sample guard (:func:`heisgeo.numeric.require`) that
knows the sample's (u, v) carry it as the attribute ``sample`` and name it in
the message; on a batch of samples that is the first failing one in batch
order (u-major on grids).
"""

from __future__ import annotations


class HeisgeoError(Exception):
    """Base class for all heisgeo errors."""


# ---- ambient-space errors ----


class AmbientError(HeisgeoError):
    """Base class for errors raised by ambient-geometry operations."""


class UnsupportedKappa(AmbientError):
    """A closed-form operation was requested for kappa != 0.

    Frame, wedge, connection-table and closed-form curvature operations are
    only available on the kappa = 0 member of the metric family; the
    finite-difference coordinate path works for every finite kappa; a
    kappa that overflows (the -4 tau^2 companion space at huge tau) is
    unsupported everywhere.
    """


class SingularConformalFactor(AmbientError):
    """The conformal denominator 1 + (kappa/4)(x^2 - delta*y^2) vanished."""


class SingularMetric(AmbientError):
    """The metric matrix is numerically singular at the requested point."""


class DegeneratePlane(AmbientError):
    """Sectional curvature requested for a degenerate tangent 2-plane."""


# ---- surface errors ----


class SurfaceError(HeisgeoError):
    """Base class for errors raised by surface-geometry operations."""


class DegenerateInducedMetric(SurfaceError):
    """The induced metric is degenerate (lightlike surface or bad patch)."""


class DegenerateNormal(SurfaceError):
    """The normal direction has (numerically) null ambient length."""


class DegenerateAdaptedFrame(SurfaceError):
    """The adapted tangent frame cannot be built (e.g. T is too short)."""


class OutOfDomain(SurfaceError):
    """Evaluation was requested outside the patch's declared domain."""


class NonFiniteJet(SurfaceError):
    """The patch's jet is not finite (it overflowed) at a sample.

    `sample` is that (u, v) and `family` the patch's family descriptor
    (None for patches built without one)."""

    def __init__(self, message: str, family=None):
        super().__init__(message)
        self.family = family


# ---- family-generator errors ----


class FamilyError(HeisgeoError):
    """Base class for errors raised by surface-family generators."""


class UnknownFamily(FamilyError):
    """The requested family name is not one of the generated families."""


class InvalidCombination(FamilyError):
    """The (delta, causal) combination does not occur in the classification."""


class InvalidParameterDomain(FamilyError):
    """A family parameter is outside its admissible range."""


class QuadratureFailure(FamilyError):
    """Adaptive quadrature for a profile function failed to converge."""


# ---- verification errors ----


class VerifyError(HeisgeoError):
    """Base class for errors raised by residual-suite checks."""


class StencilTooCoarse(VerifyError):
    """The evaluation domain is too small for the finite-difference stencil."""


class NotAHelixPatch(VerifyError):
    """A constant-angle-only check was invoked on a non-constant-angle patch."""


class NonFiniteResidual(VerifyError):
    """A check's residual is NaN or infinite: no verdict can be given."""


class DegenerateFrame(VerifyError):
    """The pseudo-orthonormal tangent frame could not be constructed.

    heisgeo itself does not raise it: the parallel check's frame is the
    adapted one, which reports degeneracy as DegenerateAdaptedFrame."""


# ---- configuration ----


class ConfigError(HeisgeoError):
    """A CLI/JSON configuration is malformed or inconsistent."""
