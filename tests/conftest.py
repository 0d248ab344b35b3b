import numpy as np
import pytest

from fsdp import spectral


@pytest.fixture
def radius_calls(monkeypatch):
    """Shapes of the matrices passed to ``spectral.spectral_radius``, in call order."""
    calls = []
    original = spectral.spectral_radius

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(spectral, "spectral_radius", counting)
    return calls
