"""Response corruption channels.

Two families are covered: semi-random channels where each response is
independently selected for corruption with probability p and then
replaced adversarially (sign flips, residual-sign reflection), and
oblivious channels that add symmetric random noise independent of the
measurement vector and the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


def _check_probability(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"corruption probability must lie in [0, 1], got {p!r}")


@dataclass(frozen=True)
class Uniform:
    """Uniform noise on [-half_width, half_width], symmetric about 0."""

    half_width: float

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")

    def draw(self, rng: np.random.Generator, size=None):
        return rng.uniform(-self.half_width, self.half_width, size=size)


@dataclass(frozen=True)
class Gaussian:
    """Mean-zero Gaussian noise with the given variance."""

    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("variance must be positive")

    def draw(self, rng: np.random.Generator, size=None):
        return rng.normal(0.0, math.sqrt(self.variance), size=size)


NoiseLaw = Union[Uniform, Gaussian]


@dataclass(frozen=True)
class NoCorruption:
    """Identity channel."""

    @property
    def p(self) -> float:
        return 0.0


@dataclass(frozen=True)
class SignFlip:
    """Replace y with -y on corrupted draws."""

    p: float

    def __post_init__(self):
        _check_probability(self.p)


@dataclass(frozen=True)
class ResidualSignAdversary:
    """Reflect y about the current prediction on corrupted draws.

    With prediction m at the solver's iterate, the corrupted response is
    2m - y: the residual keeps its magnitude but flips its sign.  This
    is the worst semi-random adversary for sign-driven updates.
    """

    p: float

    def __post_init__(self):
        _check_probability(self.p)


@dataclass(frozen=True)
class AdditiveOblivious:
    """Add symmetric random noise, independent of the measurement and signal."""

    p: float
    law: NoiseLaw

    def __post_init__(self):
        _check_probability(self.p)
        if not isinstance(self.law, (Uniform, Gaussian)):
            raise ValueError(f"unsupported noise law {self.law!r}")


CorruptionSpec = Union[NoCorruption, SignFlip, ResidualSignAdversary, AdditiveOblivious]


def apply_channel(spec: CorruptionSpec, clean, xi, nu=None, pred=None, p=None):
    """Responses after the channel, elementwise over arrays of draws.

    ``xi`` holds the uniform [0, 1) indicator draws (a response is
    corrupted where xi < p), ``nu`` the noise-law draws of oblivious
    channels and ``pred`` the prediction at the current iterate, which
    only the residual-sign adversary reads.  ``p`` defaults to
    ``spec.p``; an array that broadcasts against the draws gives each
    lane its own probability, and lanes at p = 0 get ``clean`` bit for bit.
    """
    p = spec.p if p is None else p
    if isinstance(spec, NoCorruption) or (not isinstance(p, np.ndarray) and p == 0.0):
        return clean
    hit = xi < p
    if isinstance(spec, SignFlip):
        return np.where(hit, -clean, clean)
    if isinstance(spec, ResidualSignAdversary):
        if pred is None:
            raise ValueError("ResidualSignAdversary requires the prediction at the current iterate")
        return np.where(hit, 2.0 * pred - clean, clean)
    # Lanes at p = 0 keep clean as it is: adding 0.0 would turn -0.0 into +0.0.
    return np.where(p > 0.0, clean + np.where(hit, nu, 0.0), clean)
