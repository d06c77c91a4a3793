"""The engine's bitwise tests again, with the step function on its numpy body.

Elsewhere the engine runs the compiled kernel wherever it loads; the
numpy body is its reference and the fallback where it does not.
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
    monkeypatch.setattr(_kernel, "_loaded", False)
