"""The hypothesis test of ``test_measurement``, in a module of its own so
that ``test_measurement`` collects where hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from decolab.measurement import KrausSet, povm_probabilities
from decolab.states import DensityMatrix


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_povm_probabilities_form_a_distribution(seed):
    local = np.random.default_rng(seed)
    raws = [
        local.normal(size=(3, 3)) + 1j * local.normal(size=(3, 3)) for _ in range(3)
    ]
    s = sum(m.conj().T @ m for m in raws)
    w, v = np.linalg.eigh(s)
    kset = KrausSet([m @ (v @ np.diag(w ** -0.5) @ v.conj().T) for m in raws])
    raw = local.normal(size=(3, 3)) + 1j * local.normal(size=(3, 3))
    mat = raw @ raw.conj().T
    rho = DensityMatrix((3,), mat / np.trace(mat))
    probs = povm_probabilities(rho, kset)
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) < 1e-10
