"""Per-step reference for the engine, written from the paper's update rules.

One lane, one step at a time, in plain Python on scalars:

- SGD-exp: x' = x + G lam^{-k} sign(y - <x, a>) a, sign(0) = 0; the ReLU
  variant compares y with max(0, <x, a>) and moves only where <x, a> >= 0.
- Square-root decay: the same rules with step gamma (k + 1)^{-1/2}.
- GLM-Tron (Kakade et al., 2011): x' = x + eta_k (y - max(0, <x, a>)) a,
  no gate, eta_k = decay / m with decay 1, (k + 1)^{-1/2} or lam^{-k}.
- Channels on a response y drawn for corruption (uniform draw xi < p):
  -y (sign flip), 2 pred - y with pred = max(0, <x, a>) for ReLU responses
  or <x, a> (residual-sign adversary), y + nu (oblivious noise).

Nothing here comes from the library's rule, step-size or channel code; only
the draws do (``sample_block`` and the noise law on the seed's substreams).
The dot is numpy's einsum on one lane and every step adds coef * a, even for
coef = 0, so a right rule gives the engine's iterates bit for bit.
"""

import numpy as np

from sgdexp.corruption import AdditiveOblivious, ResidualSignAdversary, SignFlip
from sgdexp.measurement import sample_block


def dot(x, a):
    """<x, a>, summed as the engine sums its lanes."""
    return float(np.einsum("gsd,sd->gs", x[None, None], a[None])[0, 0])


def relu(z):
    return z if z > 0.0 else 0.0


def sign(z):
    return float(int(z > 0.0) - int(z < 0.0))


def step_size(spec, k):
    """The step size at step k (counted from 0)."""
    if spec.method.startswith("sgd_exp"):
        return spec.G * spec.lam ** -float(k)
    if spec.method.startswith("sgd_root"):
        return spec.gamma * float(k + 1) ** -0.5
    if spec.schedule == "exp":
        return spec.lam ** -float(k) / spec.m
    if spec.schedule == "root":
        return float(k + 1) ** -0.5 / spec.m
    return 1.0 / spec.m


def step(spec, x, k, a, y):
    """x_{k+1} from x_k, the measurement a and the response y."""
    z = dot(x, a)
    eta = step_size(spec, k)
    if spec.method == "glmtron":
        coef = eta * (y - relu(z))
    elif spec.method.endswith("_relu"):
        coef = eta * sign(y - relu(z)) if z >= 0.0 else 0.0
    else:
        coef = eta * sign(y - z)
    return x + coef * a


def respond(corruption, clean, xi, nu, pred):
    """The response the solver sees: ``clean`` unless the draw xi < p corrupts it."""
    if not xi < corruption.p:
        return clean
    if isinstance(corruption, SignFlip):
        return -clean
    if isinstance(corruption, ResidualSignAdversary):
        return 2.0 * pred - clean
    return clean + nu


def replay(spec, stream, x_true, seed):
    """Iterates x_0 = 0, ..., x_T of the seed's lane, stepped through the rules above."""
    _, meas, xi_rng, noise_rng = (
        np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(4)
    )
    corr, T = stream.corruption, spec.T
    A, idx = sample_block(stream.model, meas, T)
    xi = xi_rng.random(T)
    nu = corr.law.draw(noise_rng, T) if isinstance(corr, AdditiveOblivious) else np.zeros(T)
    if idx is None:
        clean = [dot(x_true, a) for a in A]
        clean = [relu(c) for c in clean] if stream.relu else clean
    else:
        # A dataset row and its response, rescaled to the unit row the solver sees.
        norms = stream.model.row_norms[idx]
        clean, nu = stream.model.responses[idx] / norms, nu / norms
    xs = [np.zeros(spec.d)]
    for k, a in enumerate(A):
        z = dot(xs[-1], a)
        y = respond(corr, clean[k], xi[k], nu[k], relu(z) if stream.relu else z)
        xs.append(step(spec, xs[-1], k, a, y))
    return np.array(xs)
