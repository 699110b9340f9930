"""Every identity `verify-all` reports, run over several seeds.

The checks live in `pseudoherm.identities`; seed 12345 is the command's
default, the others draw fresh random inputs for the randomized checks.
"""
import numpy as np
import pytest

from pseudoherm import identities, models


@pytest.mark.parametrize("seed", [12345, 1, 2])
@pytest.mark.parametrize(
    "name, check", identities.CHECKS, ids=[name for name, _ in identities.CHECKS]
)
def test_identity(name, check, seed):
    ok, detail = check(np.random.default_rng(seed))
    assert ok, f"{name}: {detail}"


def test_eigenbasis_checks_build_their_block_in_one_pass(monkeypatch):
    # the K = 5 block comes from models.spiked_basis, not from 25 element integrals
    def per_element(*args):
        raise AssertionError("an eigenbasis check took <n|x|m> one element at a time")

    monkeypatch.setattr(models, "_spiked_position", per_element)
    checks = dict(identities.CHECKS)
    for name in ("eigenbasis_norm", "eigenbasis_stationary_state"):
        ok, detail = checks[name](np.random.default_rng(12345))
        assert ok, f"{name}: {detail}"


_spiked_basis = models.spiked_basis


def _phi_transposed_block(model, K):
    # Phi' Phi where the block is Phi Phi'
    energies, _ = _spiked_basis(model, K)
    signed_norms = np.array([(-1) ** k * models._spiked_norm(model, k) for k in range(K)])
    mass, lam_power = models._position_factors(model)
    phi = signed_norms[:, None] * models._laguerre_rows(K, K, model.alpha, model.alpha + 0.5)
    return energies, (0.5 * mass / lam_power) * (phi.T @ phi)


def _unsigned_block(model, K):
    # D = diag(N_k) without the (-1)^k: <k|x|l> takes the sign (-1)^(k + l)
    energies, coupling = _spiked_basis(model, K)
    signs = (-1.0) ** np.arange(K)
    return energies, signs[:, None] * coupling * signs


@pytest.mark.parametrize("wrong_basis", [_phi_transposed_block, _unsigned_block], ids=["phi_transposed", "unsigned"])
def test_first_order_row_catches_a_wrong_coupling_block(monkeypatch, wrong_basis):
    # the norm and stationary rows pass on either block: only the complex
    # first-order amplitudes see the coupling's entries and their signs
    monkeypatch.setattr(models, "spiked_basis", wrong_basis)
    checks = dict(identities.CHECKS)
    for name in ("eigenbasis_norm", "eigenbasis_stationary_state"):
        assert checks[name](np.random.default_rng(12345))[0]
    ok, detail = checks["eigenbasis_first_order"](np.random.default_rng(12345))
    assert not ok, detail
