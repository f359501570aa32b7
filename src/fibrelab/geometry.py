"""Geometric data for the two thin-bundle testbeds.

Both testbeds live over a circle base.  The *warped torus* is the closed
surface ``ds^2/eps^2 + a(s)^2 dt^2`` whose circle fibres have length
``fiber_length * a(s)``.  The *planar waveguide* is the strip
``[-1, 1]`` bent along a closed plane curve of curvature ``kappa(s)``,
carrying the rescaled tube metric
``(1 - eps*u*kappa(s))^2 ds^2/eps^2 + du^2`` with Dirichlet walls.

All coefficient fields are exact closed forms built from finite
trigonometric series (optionally exponentiated), so every derivative
used downstream is analytic; nothing is differenced numerically.  The
metric itself is written out once, in each geometry's ``metric_coefficients``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, TubeDegenerate

__all__ = [
    "PeriodicProfile",
    "WarpedTorusGeometry",
    "WaveguideGeometry",
    "BundleGeometry",
    "as_epsilon",
]


@dataclass(frozen=True)
class PeriodicProfile:
    """Finite trigonometric series on a circle of circumference ``period``.

    Represents ``f(s) = constant + sum_k cos_amps[k-1]*cos(2*pi*k*s/period)
    + sin_amps[k-1]*sin(2*pi*k*s/period)``.  Derivatives up to order four
    are evaluated exactly via the phase-shift rule.
    """

    period: float
    constant: float = 0.0
    cos_amps: tuple[float, ...] = ()
    sin_amps: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.period > 0.0:
            raise ValueError("profile period must be positive")
        object.__setattr__(self, "cos_amps", tuple(float(a) for a in self.cos_amps))
        object.__setattr__(self, "sin_amps", tuple(float(a) for a in self.sin_amps))

    def eval(self, s, deriv_order: int = 0):
        """Exact value of the ``deriv_order``-th derivative at ``s``."""
        if not 0 <= deriv_order <= 4:
            raise ValueError("derivative order must be between 0 and 4")
        s_arr = np.asarray(s, dtype=float)
        sr = np.mod(s_arr, self.period)
        out = np.zeros_like(sr)
        if deriv_order == 0:
            out += self.constant
        shift = deriv_order * 0.5 * np.pi
        for k, amp in enumerate(self.cos_amps, start=1):
            if amp != 0.0:
                w = 2.0 * np.pi * k / self.period
                out += amp * w**deriv_order * np.cos(w * sr + shift)
        for k, amp in enumerate(self.sin_amps, start=1):
            if amp != 0.0:
                w = 2.0 * np.pi * k / self.period
                out += amp * w**deriv_order * np.sin(w * sr + shift)
        if np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0):
            return float(out)
        return out

    @property
    def mode_sum(self) -> float:
        """Sum of the harmonics' amplitudes ``hypot(cos_amp, sin_amp)``, whatever their phase."""
        pairs = itertools.zip_longest(self.cos_amps, self.sin_amps, fillvalue=0.0)
        return float(sum(math.hypot(c, s) for c, s in pairs))

    @property
    def max_abs_bound(self) -> float:
        """Upper bound on sup |f| from the mode amplitudes."""
        return abs(self.constant) + self.mode_sum

    @property
    def lower_bound(self) -> float:
        """Lower bound on inf f from the mode amplitudes."""
        return self.constant - self.mode_sum


def as_epsilon(eps) -> float:
    """Separation parameter of the thin-fibre family as a float in (0, 1)."""
    value = float(eps)
    if not 0.0 < value < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {value}")
    return value


def _finite(where: str, eps: float, *coeffs):
    """``coeffs``, refused with :class:`ConfigError` if an entry is not finite."""
    if not all(np.isfinite(c).all() for c in coeffs):
        raise ConfigError(f"{where} metric coefficients are not finite at eps={eps!r}")
    return coeffs


@dataclass(frozen=True)
class WarpedTorusGeometry:
    """Closed torus over the circle of circumference ``2 * half_length``.

    The fibre over ``s`` is a circle of length ``fiber_length * warp(s)``.
    With ``warp_is_exp`` the warp is ``exp(warp_profile(s))``, which keeps
    log-derivatives (the only warp data entering the effective potential)
    exact for profiles such as ``exp(0.3 cos s)``.
    """

    half_length: float
    fiber_length: float
    warp: PeriodicProfile
    warp_is_exp: bool = False

    def __post_init__(self) -> None:
        if not self.half_length > 0.0:
            raise ValueError("half_length must be positive")
        if not self.fiber_length > 0.0:
            raise ValueError("fiber_length must be positive")
        if not math.isclose(self.warp.period, 2.0 * self.half_length, rel_tol=1e-12):
            raise ValueError("warp period must equal the base circumference 2L")
        if not self.warp_is_exp:
            if not self.warp.lower_bound > 0.0:
                raise ValueError("warp must be certified positive: constant - sum|amps| > 0")
            sample = self.warp.eval(np.linspace(0.0, self.warp.period, 4096, endpoint=False))
            if not float(np.min(sample)) > 0.0:
                raise ValueError("warp is not positive on a dense sample")

    @property
    def period(self) -> float:
        return 2.0 * self.half_length

    def warp_value(self, s):
        """a(s), exactly; its derivatives come from :meth:`log_warp_deriv`."""
        a = self.warp.eval(s)
        return np.exp(a) if self.warp_is_exp else a

    def log_warp_deriv(self, s, order: int):
        """Exact derivative of log a(s), order 1 or 2."""
        if self.warp_is_exp:
            return self.warp.eval(s, order)
        a0 = self.warp.eval(s, 0)
        a1 = self.warp.eval(s, 1)
        if order == 1:
            return a1 / a0
        if order == 2:
            a2 = self.warp.eval(s, 2)
            return a2 / a0 - (a1 / a0) ** 2
        raise ValueError("log-warp derivatives supported up to order 2")

    def metric_coefficients(self, eps, s):
        """``(sqrt(det g) g^ss, sqrt(det g) g^tt, sqrt(det g))`` over the base points ``s``.

        ``(eps*a, 1/(eps*a), a/eps)`` with ``a = a(s)``, constant along the
        fibre; raises :class:`ConfigError` where one of them, or the ratio
        ``1/a^2`` of the last two that the fibre-mode solver divides by, is
        not finite.
        """
        eps = as_epsilon(eps)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            a = np.asarray(self.warp_value(s), dtype=float)
            c_s, c_f, sqrt_det = eps * a, 1.0 / (eps * a), a / eps
            return _finite("warped torus", eps, c_s, c_f, sqrt_det, c_f / sqrt_det)[:3]

    def fiber_volume(self, s):
        """Fibre volume with respect to the fibre metric."""
        return self.fiber_length * self.warp_value(s)

    def effective_potential(self, s):
        """(1/2) (log Vol)'' + (1/4) ((log Vol)')^2 on the base circle."""
        l1 = self.log_warp_deriv(s, 1)
        l2 = self.log_warp_deriv(s, 2)
        return 0.5 * l2 + 0.25 * l1 * l1


@dataclass(frozen=True)
class WaveguideGeometry:
    """Planar strip of half-width ``eps`` bent along a closed curve.

    Only the curvature ``kappa(s)`` enters the rescaled tube metric, so the
    curve itself is never constructed.  Closure of the curve requires
    ``integral kappa ds = 2*pi*n``; with a trigonometric series only the
    constant mode contributes, which makes the check exact.
    """

    base_length: float
    curvature: PeriodicProfile

    def __post_init__(self) -> None:
        if not self.base_length > 0.0:
            raise ValueError("base_length must be positive")
        if not math.isclose(self.curvature.period, self.base_length, rel_tol=1e-12):
            raise ValueError("curvature period must equal the base length")
        winding = self.curvature.constant * self.base_length / (2.0 * np.pi)
        if abs(winding - round(winding)) > 1e-9:
            raise ValueError(
                f"total curvature must be an integer multiple of 2*pi, got winding {winding}"
            )

    @property
    def period(self) -> float:
        return self.base_length

    @property
    def curvature_bound(self) -> float:
        return self.curvature.max_abs_bound

    def check_tube(self, eps) -> None:
        eps = as_epsilon(eps)
        if eps * self.curvature_bound >= 1.0:
            raise TubeDegenerate(
                f"eps*max|kappa| = {eps * self.curvature_bound:.6g} >= 1; tube not embedded"
            )

    def metric_coefficients(self, eps, s, u):
        """``(sqrt(det g) g^ss, sqrt(det g) g^uu, sqrt(det g))`` over the grid ``s × u``.

        ``(eps/rho, rho/eps, rho/eps)`` with ``rho = 1 - eps*u*kappa(s)``, each
        of shape ``(len(s), len(u))``.  Raises :class:`TubeDegenerate` where
        ``rho <= 0`` and :class:`ConfigError` where a coefficient is not finite.
        """
        eps = as_epsilon(eps)
        if np.any(np.abs(u) > 1.0):
            raise ValueError("waveguide fibre coordinate must lie in [-1, 1]")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rho = 1.0 - eps * np.outer(self.curvature.eval(s), u)
            if rho.min() <= 0.0:
                raise TubeDegenerate(f"tube density 1 - eps*u*kappa = {rho.min():.6g} <= 0")
            return _finite("waveguide", eps, eps / rho, rho / eps, rho / eps)

    def effective_potential(self, s):
        """Curvature-induced potential -kappa(s)^2 / 4."""
        k = self.curvature.eval(s)
        return -0.25 * k * k


BundleGeometry = Union[WarpedTorusGeometry, WaveguideGeometry]

