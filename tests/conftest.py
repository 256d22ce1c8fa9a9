import numpy as np
import pytest

from mereokit import Dims, HermitianOp, HypothesisViolation, StateVec, haar_state, stream
from mereokit.kinds import check_spectral_hypotheses


def random_hermitian(D, rng, scale=1.0):
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return HermitianOp(scale * (A + A.conj().T) / 2)


def nondegenerate_instance(D, seed, *path):
    """(H, psi) with simple spectrum and full support; deterministic resampling."""
    for attempt in range(64):
        rng = stream(seed, *path, attempt)
        H = random_hermitian(D, rng)
        psi = haar_state(D, rng)
        try:
            check_spectral_hypotheses(H, psi)
        except HypothesisViolation:
            continue
        return H, psi
    raise RuntimeError("no non-degenerate full-support instance found")


def basis_state(D, k):
    v = np.zeros(D, dtype=complex)
    v[k] = 1.0
    return StateVec(v)


@pytest.fixture
def dims22():
    return Dims((2, 2))


@pytest.fixture
def dims222():
    return Dims((2, 2, 2))
