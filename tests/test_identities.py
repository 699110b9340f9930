"""Every identity `verify-all` reports, run over several seeds.

The checks live in `pseudoherm.identities`; seed 12345 is the command's
default, the others draw fresh random inputs for the randomized checks.
"""
import numpy as np
import pytest

from pseudoherm import identities


@pytest.mark.parametrize("seed", [12345, 1, 2])
@pytest.mark.parametrize(
    "name, check", identities.CHECKS, ids=[name for name, _ in identities.CHECKS]
)
def test_identity(name, check, seed):
    ok, detail = check(np.random.default_rng(seed))
    assert ok, f"{name}: {detail}"
