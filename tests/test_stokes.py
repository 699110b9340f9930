"""Wedge geometry, anti-Stokes rays, and contour admissibility checks."""
import math

import numpy as np
import pytest

from pseudoherm.stokes import (
    Contour,
    anti_stokes,
    asymptotic_exponent,
    contour_point,
    decay_condition,
    wedges,
)


def test_wedges_frozen_values():
    # the right wedge of N = 2 is the wedges_harmonic_case identity
    pair = wedges(2)
    assert pair.left.theta_lo == pytest.approx(-5 * math.pi / 4, abs=1e-15)
    assert pair.left.theta_hi == pytest.approx(-3 * math.pi / 4, abs=1e-15)

    pair = wedges(4)
    assert pair.right.theta_lo == pytest.approx(-math.pi / 3, abs=1e-15)
    assert pair.right.theta_hi == pytest.approx(0.0, abs=1e-15)
    assert pair.left.theta_lo == pytest.approx(-math.pi, abs=1e-15)
    assert pair.left.theta_hi == pytest.approx(-2 * math.pi / 3, abs=1e-15)


def test_wedge_widths_and_centers():
    for N in range(2, 12):
        pair = wedges(N)
        # the right width is the wedge_widths identity
        width = 2 * math.pi / (N + 2)
        assert pair.left.width == pytest.approx(width, rel=1e-14)
        # the left wedge mirrors the right one through the ray at -pi/2
        assert pair.left.theta_lo == pytest.approx(-math.pi - pair.right.theta_hi, rel=1e-14)
        assert pair.left.theta_hi == pytest.approx(-math.pi - pair.right.theta_lo, rel=1e-14)
        assert pair.right.side == "right"
        assert pair.left.side == "left"


def test_wedges_domain():
    with pytest.raises(ValueError):
        wedges(1)
    with pytest.raises(ValueError):
        wedges(0)


def test_wedge_contains_is_strict_and_wraps():
    pair = wedges(2)
    assert pair.right.contains(0.0)
    assert not pair.right.contains(math.pi / 4)
    assert not pair.right.contains(-math.pi / 4)
    # angles are compared modulo full turns
    assert pair.left.contains(pair.left.center + 2 * math.pi)
    assert pair.right.contains(pair.right.center - 2 * math.pi)


def test_anti_stokes_are_wedge_centers():
    for N in (2, 3, 4, 6, 9):
        rays = anti_stokes(N)
        pair = wedges(N)
        assert rays.right == pytest.approx(pair.right.center, abs=1e-15)
        assert rays.left == pytest.approx(pair.left.center, abs=1e-15)
    rays = anti_stokes(2)
    assert rays.right == pytest.approx(0.0, abs=1e-15)
    assert rays.left == pytest.approx(-math.pi, abs=1e-15)
    rays = anti_stokes(4)
    assert rays.right == pytest.approx(-math.pi / 6, abs=1e-15)
    assert rays.left == pytest.approx(-5 * math.pi / 6, abs=1e-15)


def test_decay_condition_frozen_points():
    assert decay_condition(2, 0.0)
    assert decay_condition(4, -math.pi / 6)
    # crossing a wedge boundary flips decay into growth
    assert decay_condition(4, -0.01)
    assert not decay_condition(4, 0.01)
    assert decay_condition(4, -math.pi / 3 + 0.01)
    assert not decay_condition(4, -math.pi / 3 - 0.01)


def test_decay_condition_matches_wedge_membership():
    # inside a wedge the direction must decay; rotating any wedge angle by
    # one full wedge width lands in the adjacent growth sector
    rng = np.random.default_rng(29)
    thetas = rng.uniform(-math.pi, math.pi, size=100)
    for N in (2, 4, 6):
        pair = wedges(N)
        width = pair.right.width
        for theta in thetas:
            for wedge in (pair.left, pair.right):
                if wedge.contains(theta):
                    assert decay_condition(N, theta)
                    assert not decay_condition(N, theta + width)


def test_sqrt_bend_contour():
    z2 = Contour.sqrt_bend()
    assert contour_point(z2, 0.0) == pytest.approx(-2j, abs=1e-15)
    # asymptotic rays at minus pi/4 and minus 3 pi/4
    far = contour_point(z2, 1e8)
    assert np.angle(far) == pytest.approx(-math.pi / 4, abs=1e-7)
    far = contour_point(z2, -1e8)
    assert np.angle(far) == pytest.approx(-3 * math.pi / 4, abs=1e-7)


def test_hyperbola_contour_points():
    z1 = Contour.hyperbola(1.0, 4)
    assert contour_point(z1, 0.0) == pytest.approx(-0.5j, abs=1e-14)
    z1 = Contour.hyperbola(2.0, 6)
    assert contour_point(z1, 0.0) == pytest.approx(-1j * math.sqrt(2.0), abs=1e-14)


def test_contour_points_stay_finite_or_are_refused():
    # the hyperbola's modulus is hypot(a, x): finite where a^2 overflows
    z1 = Contour.hyperbola(1e300, 4)
    assert contour_point(z1, 0.0) == pytest.approx(-0.5e300j, rel=1e-15)
    assert np.isfinite(contour_point(Contour.hyperbola(1.0, 4), [-1e300, 1e300])).all()
    with pytest.raises(ValueError, match="not finite"):
        contour_point(Contour.hyperbola(1.5e308, 4), 1.5e308)
    with pytest.raises(ValueError, match="not finite"):
        contour_point(Contour.sqrt_bend(), [0.0, math.nan])


def test_hyperbola_tracks_anti_stokes_rays():
    for N in (3, 4, 7, 10):
        z1 = Contour.hyperbola(1.3, N)
        rays = anti_stokes(N)
        assert np.angle(contour_point(z1, 1e9)) == pytest.approx(rays.right, abs=1e-6)
        assert np.angle(contour_point(z1, -1e9)) == pytest.approx(rays.left, abs=1e-6)


def test_contour_point_vectorized():
    z2 = Contour.sqrt_bend()
    xs = np.linspace(-3.0, 3.0, 11)
    zs = contour_point(z2, xs)
    assert zs.shape == xs.shape
    assert zs[5] == pytest.approx(-2j, abs=1e-15)


def test_contour_validation():
    with pytest.raises(ValueError):
        Contour.hyperbola(-1.0, 4)
    with pytest.raises(ValueError):
        Contour(kind="hyperbola")
    with pytest.raises(ValueError):
        Contour(kind="sqrt_bend", a=1.0)
    with pytest.raises(ValueError):
        Contour(kind="circle")


def test_asymptotic_exponent_frozen():
    # quadratic case on the real axis decays like a Gaussian
    val = asymptotic_exponent(2, 1.0, 3.0)
    assert val.real == pytest.approx(-4.5, rel=1e-12)
    assert abs(val.imag) < 1e-12
    # quartic case on the real axis is purely oscillatory
    val = asymptotic_exponent(4, 1.0, 3.0)
    assert abs(val.real) < 1e-12
    assert val.imag == pytest.approx(-9.0, rel=1e-12)
    # and maximally decaying along the anti-Stokes ray
    z = 3.0 * np.exp(1j * anti_stokes(4).right)
    val = asymptotic_exponent(4, 1.0, z)
    assert val.real == pytest.approx(-9.0, rel=1e-12)
    assert abs(val.imag) < 1e-10


def test_asymptotic_exponent_sign_stable_under_scaling():
    for N in (2, 4, 6):
        theta = anti_stokes(N).right
        for r in (1.0, 10.0, 100.0):
            z = r * np.exp(1j * theta)
            assert asymptotic_exponent(N, 0.7, z).real < 0
    with pytest.raises(ValueError):
        asymptotic_exponent(4, -1.0, 1.0)
