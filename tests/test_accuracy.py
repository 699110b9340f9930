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

spiked --n 2 --m 3 --xi 0.5 (lam = 0.5, alpha = 0.2, p_squared), all
three rows: position <2|x|3>, momentum <2|-i d/dx|3> and mapped_position
<2|x + 2i xi p|3>.  The references are mpmath.quad at 30 digits of
int phi_2 x phi_3 dx and int phi_2 phi_3' dx, the derivative taken from
the closed form (d/du L_k^a = -L_{k-1}^(a+1)), not from the commutator
[H, x] = -2ip the program uses.  Measured: the nonzero cells are within
3.3e-12 relative (position and momentum) and 1.5e-12 (mapped_position),
the 12-digit rounding, so the bound is 1e-11; the three exact zeros print
0, and are held to 0 absolute.

spectrum --model spiked --levels 8 (lam = 0.5, alpha = 0.2), the energy
column against lam (4n + 2 alpha + 2) in mpmath.  Measured: every level
is a short decimal and prints exactly (gap 0), so the bound is 1e-12
relative, below the 12-digit rounding.
"""
import contextlib
import functools
import io

import mpmath as mp
import numpy as np
import pytest

from pseudoherm import cli, dynamics, models

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


SPIKED_ARGV = ["spiked", "--n", "2", "--m", "3", "--xi", "0.5"]
SPIKED_RELATIVE = 1e-11
SPECTRUM_ARGV = ["spectrum", "--model", "spiked", "--levels", "8"]
SPECTRUM_RELATIVE = 1e-12


def _rows(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return [line.split(",") for line in out.getvalue().splitlines() if not line.startswith("#")][1:]


@functools.cache
def _spiked_reference():
    """{op_kind: (re, im)} of the spiked rows, exact to 30 digits."""
    with mp.workdps(30):
        lam, alpha, xi, n, m = mp.mpf("0.5"), mp.mpf("0.2"), mp.mpf("0.5"), 2, 3

        def norm(k):
            return mp.sqrt(2 * lam ** (alpha + 1) * mp.factorial(k) / mp.gamma(alpha + k + 1))

        def level(k, x):
            return (-1) ** k * norm(k) * x ** (alpha + 0.5) * mp.exp(-lam * x * x / 2) * mp.laguerre(k, alpha, lam * x * x)

        def slope(k, x):
            u = lam * x * x
            lag = (alpha + 0.5 - u) * mp.laguerre(k, alpha, u) - 2 * u * mp.laguerre(k - 1, alpha + 1, u)
            return (-1) ** k * norm(k) * mp.exp(-u / 2) * x ** (alpha - 0.5) * lag

        nodes = [0, 2, 4, 8, mp.inf]
        position = mp.quad(lambda x: level(n, x) * x * level(m, x), nodes)
        overlap = mp.quad(lambda x: level(n, x) * slope(m, x), nodes)  # <n|p|m> = -i overlap
        return {"position": (position, 0), "momentum": (0, -overlap),
                "mapped_position": (position + 2 * xi * overlap, 0)}


def _spiked_gaps():
    """(largest relative gap of the nonzero cells, largest absolute gap of the zero ones)."""
    rows = _rows(SPIKED_ARGV)
    reference = _spiked_reference()
    assert [row[0] for row in rows] == list(reference)
    relative, absolute = mp.mpf(0), mp.mpf(0)
    for op_kind, *printed in rows:
        for text, exact in zip(printed, reference[op_kind]):
            gap = abs(mp.mpf(text) - exact)
            if exact:
                relative = max(relative, gap / abs(exact))
            else:
                absolute = max(absolute, gap)
    return float(relative), float(absolute)


def test_spiked_element_digits():
    relative, absolute = _spiked_gaps()
    assert relative <= SPIKED_RELATIVE, relative
    assert absolute == 0, absolute


def _gamma_factor_off(monkeypatch):
    # Gamma(alpha + 3/2), the mass of every <n|x|m>, taken 1 + 1e-9 too large
    factors = models._position_factors
    monkeypatch.setattr(models, "_position_factors",
                        lambda model: (factors(model)[0] * (1 + 1e-9), factors(model)[1]))


def _momentum_rate_off(monkeypatch):
    # <n|p|m> / (i <n|x|m>) = 2 lam (n - m) taken 1 + 1e-9 too large
    rate = models._momentum_rate
    monkeypatch.setattr(models, "_momentum_rate", lambda *args: rate(*args) * (1 + 1e-9))


@pytest.mark.parametrize("mutation", [_gamma_factor_off, _momentum_rate_off], ids=["gamma_1e-9", "rate_1e-9"])
def test_spiked_row_fails_under_a_mutation(monkeypatch, mutation):
    mutation(monkeypatch)
    relative, absolute = _spiked_gaps()
    assert relative > SPIKED_RELATIVE or absolute > 0


def _spectrum_gap():
    with mp.workdps(30):
        lam, alpha = mp.mpf("0.5"), mp.mpf("0.2")
        rows = _rows(SPECTRUM_ARGV)
        assert [int(n) for n, _ in rows] == list(range(8))
        return float(max(abs(mp.mpf(e) / (lam * (4 * int(n) + 2 * alpha + 2)) - 1) for n, e in rows))


def test_spiked_spectrum_digits():
    assert _spectrum_gap() <= SPECTRUM_RELATIVE


def test_spiked_spectrum_row_fails_with_the_level_spacing_off(monkeypatch):
    # the spacing 4 lam taken 1 + 1e-9 too large
    monkeypatch.setattr(models, "spiked_energy",
                        lambda model, n: model.lam * (4 * n * (1 + 1e-9) + 2 * model.alpha + 2))
    assert _spectrum_gap() > SPECTRUM_RELATIVE
