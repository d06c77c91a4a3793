"""The engine's bitwise tests again, with the step function and the clean-loss residual on their numpy bodies.

Elsewhere the engine runs the compiled parts wherever they load; the
numpy bodies are their reference and the fallback where they do not.
"""

import pytest

from sgdexp import _kernel
from test_frozen_outputs import (  # noqa: F401  (collected here as well)
    test_mixed_lane_sweep_digest,
    test_shipped_config_digests,
    test_sweep_digest,
)
from test_solvers import TestEngineMatchesOracle, TestLanes  # noqa: F401


@pytest.fixture(autouse=True)
def numpy_body(monkeypatch):
    monkeypatch.setitem(_kernel._libs, "step kernel", "turned off")
    monkeypatch.setitem(_kernel._libs, "clean loss", "turned off")
