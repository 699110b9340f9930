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
