"""The accuracy ledger: how many printed digits of each column are right.

One row per numeric column that has an independent reference: the
request, the reference, and the bound the measurement supports, relative,
or absolute where the exact value is 0 to double precision.  Each row
must fail under a named mutation of the code it covers.

transition, the probability column at the defaults (n = 2, m = 3, lam =
0.5, alpha = 0.2, E0 = 0.005, tau = 62.8318530718, 200 omegas x 3 xi).
21 rows: 7 omegas, both ends included, times the 3 xi.  The reference is
the first-order |X int_0^tau exp(i delta s) E0 sin(omega s) ds|^2 with
X = (1 - 4 lam (n - m) xi) <n|x|m>; the time integral and <n|x|m> = int
phi_n x phi_m dx are both mpmath.quad at 30 digits, taken at the
program's own omega grid.  Measured: where P is not 0 the printed value
is within 4.4e-12 relative, which is the 12-digit rounding (up to 5e-12),
so the bound is 1e-11.  (Read back from the printed 12-digit omega, the
reference moves by up to 1.2e-9 relative where P is small and steep.)
At omega = 1.5 and 2.5 both (delta +- omega) tau lie within 1e-11 of
whole multiples of 2 pi: the exact P is below 1.2e-49, and the printed
one is rounding noise, 1.8e-34 to 6.7e-33, the square of the amplitude's
floor E0 |X| tau eps.  Those two omegas are held to 1e-31 absolute, which
leaves room for the sin and exp of other SIMD targets.
"""
import contextlib
import functools
import io

import mpmath as mp
import numpy as np
import pytest

from pseudoherm import cli, dynamics

TRANSITION_OMEGAS = np.linspace(1.5, 2.5, 200)  # the default grid, as the program forms it
TRANSITION_CHECKED = np.round(np.linspace(0, 199, 7)).astype(int)
TRANSITION_XIS = (0.0, 0.5, 1.0)
TRANSITION_RELATIVE, TRANSITION_ZERO = 1e-11, 1e-31


@functools.cache
def _transition_reference():
    """The exact P of the checked rows, by (omega index, xi index)."""
    with mp.workdps(30):
        lam, alpha, E0, n, m = mp.mpf("0.5"), mp.mpf("0.2"), mp.mpf("0.005"), 2, 3
        tau = mp.mpf(float(cli._TAU_DEFAULT))

        def level(k, x):
            norm = mp.sqrt(2 * lam ** (alpha + 1) * mp.factorial(k) / mp.gamma(alpha + k + 1))
            return (-1) ** k * norm * x ** (alpha + 0.5) * mp.exp(-lam * x * x / 2) * mp.laguerre(k, alpha, lam * x * x)

        position = mp.quad(lambda x: level(n, x) * x * level(m, x), [0, 2, 4, 8, mp.inf])
        delta = 4 * lam * (n - m)
        reference = {}
        for i in TRANSITION_CHECKED.tolist():
            omega = mp.mpf(float(TRANSITION_OMEGAS[i]))
            integral = E0 * mp.quad(lambda s: mp.expj(delta * s) * mp.sin(omega * s), mp.linspace(0, tau, 41))
            for c, xi in enumerate(TRANSITION_XIS):
                element = (1 - 4 * lam * (n - m) * mp.mpf(xi)) * position
                reference[i, c] = abs(element * integral) ** 2
        return reference


def _transition_gaps():
    """(largest relative gap where P is not 0, largest absolute gap where it is)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["transition"]) == 0
    rows = [line.split(",") for line in out.getvalue().splitlines() if not line.startswith("#")][1:]
    relative, absolute = mp.mpf(0), mp.mpf(0)
    for (i, c), exact in _transition_reference().items():
        omega, xi, printed = rows[len(TRANSITION_XIS) * i + c]
        assert (omega, xi) == (cli._fmt(TRANSITION_OMEGAS[i]), cli._fmt(TRANSITION_XIS[c]))
        gap = abs(mp.mpf(printed) - exact)
        if exact < 1e-40:
            absolute = max(absolute, gap)
        else:
            relative = max(relative, gap / exact)
    return float(relative), float(absolute)


def test_transition_probability_digits():
    relative, absolute = _transition_gaps()
    assert relative <= TRANSITION_RELATIVE, relative
    assert absolute <= TRANSITION_ZERO, absolute


def _omega_sign_flipped(monkeypatch):
    # the carrier's second envelope taken at delta + omega, not delta - omega
    monkeypatch.setattr(dynamics, "_CARRIER_SIGNS", np.array([1.0, 1.0]))


def _field_too_strong(monkeypatch):
    # the field integral taken with E0 (1 + 1e-9): P moves by 2e-9 relative
    integral = dynamics._carrier_field_integral
    monkeypatch.setattr(dynamics, "_carrier_field_integral", lambda E0, *rest: integral(E0 * (1 + 1e-9), *rest))


@pytest.mark.parametrize("mutation", [_omega_sign_flipped, _field_too_strong], ids=["omega_sign", "E0_1e-9"])
def test_transition_row_fails_under_a_mutation(monkeypatch, mutation):
    mutation(monkeypatch)
    relative, absolute = _transition_gaps()
    assert relative > TRANSITION_RELATIVE or absolute > TRANSITION_ZERO
