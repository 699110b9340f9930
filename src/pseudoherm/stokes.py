"""Stokes wedges and integration contours for power-law potentials.

For the family of Hamiltonians p^2 - g(ix)^N the eigenvalue problem is
posed on contours that run to complex infinity inside a pair of wedges
where solutions decay.  This module computes the wedge geometry as a
function of N, the anti-Stokes (maximal decay) directions, two concrete
contour parametrizations, and the controlling asymptotic exponent.

Angles are in radians; wedge bounds are given as the analytic open
intervals, which for small N extend below -pi.  Membership tests are
wrap-aware.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StokesWedge:
    theta_lo: float
    theta_hi: float
    side: str
    N: int

    @property
    def width(self):
        return self.theta_hi - self.theta_lo

    @property
    def center(self):
        return 0.5 * (self.theta_lo + self.theta_hi)

    def contains(self, theta):
        """Strict (open-interval) membership, modulo full turns."""
        for k in (-1, 0, 1):
            if self.theta_lo < theta + k * _TWO_PI < self.theta_hi:
                return True
        return False


class WedgePair(NamedTuple):
    left: StokesWedge
    right: StokesWedge


class AntiStokesAngles(NamedTuple):
    left: float
    right: float


def wedges(N):
    """Decay wedges below the real axis for exponent N >= 2."""
    if N < 2:
        raise ValueError("N must be at least 2")
    den = 2.0 * (N + 2)
    left = StokesWedge(
        theta_lo=-(8 + N) * math.pi / den,
        theta_hi=-(4 + N) * math.pi / den,
        side="left",
        N=N,
    )
    right = StokesWedge(
        theta_lo=-N * math.pi / den,
        theta_hi=(4 - N) * math.pi / den,
        side="right",
        N=N,
    )
    return WedgePair(left=left, right=right)


def anti_stokes(N):
    """Wedge midpoints, the directions of fastest decay."""
    pair = wedges(N)
    return AntiStokesAngles(left=pair.left.center, right=pair.right.center)


def decay_condition(N, theta):
    """True when solutions decay along the ray arg z = theta (strict)."""
    return math.sin(math.pi * N / 4.0 + (2 + N) * theta / 2.0) > 0.0


@dataclass(frozen=True)
class Contour:
    """Integration contour running between the two wedges.

    kind "hyperbola" bends along the anti-Stokes directions set by its
    own N (asymptotes at both wedge midpoints); kind "sqrt_bend" is the
    fixed square-root contour with asymptotic directions -pi/4 and
    -3pi/4.
    """

    kind: str
    a: float | None = None
    N: int | None = None

    def __post_init__(self):
        if self.kind == "hyperbola":
            if self.a is None or self.N is None:
                raise ValueError("hyperbola contour needs scale a and exponent N")
            if self.a <= 0:
                raise ValueError("scale a must be positive")
        elif self.kind == "sqrt_bend":
            if self.a is not None or self.N is not None:
                raise ValueError("sqrt_bend contour takes no parameters")
        else:
            raise ValueError(f"unknown contour kind {self.kind!r}")

    @classmethod
    def hyperbola(cls, a, N):
        return cls(kind="hyperbola", a=a, N=N)

    @classmethod
    def sqrt_bend(cls):
        return cls(kind="sqrt_bend")


def contour_point(contour, x):
    """Complex contour point for real parameter x (scalar or array).

    Raises ValueError when a point is not finite: x is not, or
    sqrt(a^2 + x^2) overflows.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if contour.kind == "hyperbola":
            theta = anti_stokes(contour.N).right
            z = x * math.cos(theta) + 1j * math.sin(theta) * np.hypot(contour.a, x)
        else:
            z = -2j * np.sqrt(1.0 + 1j * x)
    if not np.isfinite(z).all():
        raise ValueError("contour point is not finite (the parameter or the scale a is too large)")
    if z.ndim == 0:
        return complex(z)
    return z


def _asymptotic_angles(contour):
    if contour.kind == "hyperbola":
        right = anti_stokes(contour.N).right
        left = math.pi - right - _TWO_PI  # same unwrapped branch as the left wedge
        return left, right
    return -3.0 * math.pi / 4.0, -math.pi / 4.0


def contour_admissible(contour, N):
    """True when both contour ends run inside the wedges for exponent N."""
    left_angle, right_angle = _asymptotic_angles(contour)
    pair = wedges(N)
    return pair.left.contains(left_angle) and pair.right.contains(right_angle)


def asymptotic_exponent(N, g, z):
    """Controlling WKB exponent 2 sqrt(g)/(N+2) * i^(1+N/2) * z^(1+N/2).

    Principal branches for the fractional powers; decay along a ray
    corresponds to a negative real part.
    """
    if g <= 0:
        raise ValueError("coupling g must be positive")
    z = complex(z)
    if z == 0:
        return 0j
    power = 1.0 + N / 2.0
    phase = cmath.exp(1j * math.pi / 2.0 * power)
    return 2.0 * math.sqrt(g) / (N + 2) * phase * z ** power
