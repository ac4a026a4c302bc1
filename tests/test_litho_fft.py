"""Tests for the array-backend setting of the lithography engines:
numpy is the one backend, and ``LithoConfig`` rejects any other."""

import pytest

from repro.errors import LithoError
from repro.litho import LithoConfig


class TestResolution:
    def test_numpy_backend(self):
        assert LithoConfig(backend="numpy").backend == "numpy"

    def test_unknown_backend_rejected(self):
        for name in ("fftw", "cupy"):
            with pytest.raises(LithoError, match="unknown array backend"):
                LithoConfig(backend=name)


class TestSimulatorIntegration:
    def test_litho_config_validates_backend(self):
        with pytest.raises(LithoError):
            LithoConfig(backend="fftw")
