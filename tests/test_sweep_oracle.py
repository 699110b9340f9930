"""The first-order transition numbers against a frozen copy of their formula.

`dynamics.transition_sweep` and `dynamics.first_order_transition` may be
rewritten for speed; the CSV they feed must not move by a bit.  The
oracle below is their formula written out one step at a time, in the
order of its floating-point operations: <n|x|m> from the Laguerre
recurrence on the Jacobi matrix, the p_squared dressing, one flat
envelope per sign of the carrier through `np.sinc`, the gaussian envelope
through the Faddeeva function, and |delta_nm - i X I|^2.  Every
probability must equal it exactly (`np.array_equal`), not to a tolerance.
"""
import functools
import itertools
import math

import numpy as np
import pytest

from pseudoherm import dynamics
from pseudoherm.models import SpikedHOModel


def _oracle_position(lam, a, n, m):
    size, count, b = (n + m) // 2 + 1, max(n, m) + 1, a + 0.5
    j = np.arange(size, dtype=float)
    d, e = 2.0 * j + (b + 1.0), np.sqrt(j[1:] * (j[1:] + b))
    rows = np.zeros((count, size))
    rows[0, 0] = 1.0
    prev, cur = np.zeros(size), rows[0]
    for k in range(count - 1):
        applied = d * cur
        applied[:-1] += e * cur[1:]
        applied[1:] += e * cur[:-1]
        rows[k + 1] = ((2 * k + 1 + a) * cur - applied - (k + a) * prev) / (k + 1)
        prev, cur = cur, rows[k + 1]
    norms = [math.sqrt(2.0 * lam ** (a + 1) * math.factorial(k) / math.gamma(a + k + 1)) for k in (n, m)]
    scale = 0.5 * (-1.0 if (n + m) % 2 else 1.0) * norms[0] * norms[1]
    return scale * math.gamma(a + 1.5) * float(rows[n] @ rows[m]) / lam ** (a + 1.5)


def _oracle_flat(mu, tc):
    half = 0.5 * np.asarray(mu, dtype=float) * tc
    return tc * np.exp(1j * half) * np.sinc(half / math.pi)


def _oracle_gaussian(pulse, kappa, s):
    from scipy.special import wofz
    y, u = kappa * pulse.width / math.sqrt(2.0), np.append(0.0, s)
    x = np.clip((u - pulse.center) / (math.sqrt(2.0) * pulse.width), -40.0, 40.0)
    sign = np.where(x < 0.0, -1.0, 1.0)
    edge = np.exp(1j * kappa * u - x * x) * wofz(sign * (y + 1j * x))
    T = (1.0 - sign) * np.exp(1j * kappa * pulse.center - y * y) + sign * edge
    return (math.sqrt(0.5 * math.pi) * pulse.width * (T[0] - T[1:])).reshape(np.shape(s))


def _oracle_integral(E0, omega, phase_kind, delta, tc, envelope=_oracle_flat):
    plus, minus = envelope(delta + omega, tc), envelope(delta - omega, tc)
    return E0 / 2j * (plus - minus) if phase_kind == "sine" else 0.5 * E0 * (plus + minus)


def _oracle_sweep(lam, alpha, n, m, E0, lo, hi, steps, tau, xis):
    omegas = np.linspace(lo, hi, steps)
    delta = lam * (4 * n + 2 * alpha + 2) - lam * (4 * m + 2 * alpha + 2)
    position = _oracle_position(lam, alpha, n, m)
    element = position - (2.0 * (2.0 * lam * (n - m)) * position) * np.asarray(xis, dtype=float)[:, None]
    integral = _oracle_integral(E0, omegas, "sine", delta, tau)
    return omegas, np.abs(0.0 - 1j * element * integral) ** 2


# lam, alpha, (n, m), E0, omega lo:hi:steps, tau
SWEEPS = [
    (0.5, 0.2, (2, 3), 0.005, (1.5, 2.5, 200), 20.0 * math.pi),  # the transition defaults
    (0.5, 0.2, (3, 2), 0.01, (1.0, 3.0, 5), 30.0),  # omega = |delta| = 2: the sinc at 0
    (0.5, 0.2, (2, 3), 0.01, (1.0, 3.0, 2), 30.0),  # two steps, the fewest
    (0.73, -0.35, (0, 4), 1e-4, (4.0, 20.0, 33), 7.5),
    (1.3, 0.9, (5, 1), 2e-3, (0.25, 40.0, 1001), 12.0),
    (0.31, 0.05, (1, 0), 0.0, (0.5, 2.5, 9), 3.0),  # no field: every P is 0
]


@pytest.mark.parametrize("lam, alpha, levels, E0, omega, tau", SWEEPS)
def test_sweep_equals_the_frozen_formula_bit_for_bit(lam, alpha, levels, E0, omega, tau):
    n, m = levels
    zero = 1.0 / (4.0 * lam * (n - m))  # the dressed element x + 2i xi p vanishes here
    xis = [-0.5, 0.0, 0.5, zero, 1.0]
    model = SpikedHOModel(lam=lam, alpha=alpha)
    omegas, probabilities = dynamics.transition_sweep(model, n, m, E0, *omega, tau, xis)
    expected_omegas, expected = _oracle_sweep(lam, alpha, n, m, E0, *omega, tau, xis)
    assert np.array_equal(omegas, expected_omegas)
    assert np.array_equal(probabilities, expected)


PULSES = [
    dict(E0=0.01, omega=2.0, tau=30.0, phase_kind="cosine"),
    dict(E0=0.003, omega=1.7, tau=25.0, phase_kind="sine", envelope="gaussian", center=12.0, width=3.0),
    dict(E0=0.003, omega=2.0, tau=25.0, phase_kind="cosine", envelope="gaussian", center=5.0, width=8.0),
]


@pytest.mark.parametrize("pulse", PULSES, ids=["cosine", "gaussian_sine", "gaussian_cosine"])
@pytest.mark.parametrize("levels, t", [((2, 3), 25.0), ((3, 2), 11.0), ((1, 1), 25.0), ((0, 3), 40.0)])
def test_first_order_transition_equals_the_frozen_formula(pulse, levels, t):
    n, m = levels
    pulse = dynamics.Pulse(**pulse)
    for variant, xi, coupling in itertools.product(("p_squared", "p_shift"), (0.0, 0.6), ("canonical_X", "raw_x_via_eta")):
        model = SpikedHOModel(lam=0.5, alpha=0.2, xi=xi, variant=variant)
        position = _oracle_position(0.5, 0.2, n, m)
        if coupling == "canonical_X":
            element = complex(position)
        elif variant == "p_shift":
            element = complex(position, xi if n == m else 0.0)
        else:
            element = complex(position - (2.0 * (2.0 * 0.5 * (n - m)) * position) * xi)
        tc = min(t, pulse.tau)
        envelope = functools.partial(_oracle_gaussian, pulse) if pulse.envelope == "gaussian" else _oracle_flat
        delta = 0.5 * (4 * n + 2 * 0.2 + 2) - 0.5 * (4 * m + 2 * 0.2 + 2)
        integral = _oracle_integral(pulse.E0, pulse.omega, pulse.phase_kind, delta, tc, envelope)
        expected = float(np.abs((1.0 if n == m else 0.0) - 1j * element * integral) ** 2)
        got = dynamics.first_order_transition(model, n, m, pulse, t, coupling=coupling)
        assert got == expected, (variant, xi, coupling)
