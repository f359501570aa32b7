"""Exception types shared across the package."""

from __future__ import annotations


class FibrelabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FibrelabError, ValueError):
    """A configuration, eps or solver option is malformed or out of range.

    Raised where the value is defined and shown to the user as it is.
    """


class TubeDegenerate(FibrelabError):
    """The tube density 1 - eps*u*kappa(s) is not strictly positive."""


class GridTooCoarse(FibrelabError):
    """Grid resolution is below the supported minimum."""


class NoConvergence(FibrelabError):
    """Eigensolver failed to reach the requested residual tolerance."""


class FactorizationFailed(FibrelabError):
    """The Cholesky factor of ``K - safe_shift * W`` does not exist.

    The matrix is positive definite exactly when the shift lies below the
    whole spectrum.  No option sets the shift, so this means the bound that
    the operator's assembler placed as ``safe_shift`` is wrong.
    """


class DegenerateField(FibrelabError):
    """Too many exact zeros on grid nodes for a meaningful nodal extraction."""


class EmptySet(FibrelabError):
    """Hausdorff distance requested for an empty point set."""


class NonTransversalZero(FibrelabError):
    """A zero of the base eigenfunction has numerically vanishing slope."""


class DegenerateEffectiveEigenvalue(FibrelabError):
    """An eigenvalue that must be simple (effective, paired full, or a ``nodal`` level) is not."""


class PairingAmbiguous(FibrelabError):
    """Two rescaled full eigenvalues are equally close to the effective one."""


class InsufficientPoints(FibrelabError):
    """Fewer than three usable points were supplied to a rate fit."""
