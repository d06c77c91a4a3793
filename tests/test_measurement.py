import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdexp.measurement import (
    CTILDE_CHUNK,
    GAUSSIAN_LIMIT_CONSTANT,
    CtildeEstimate,
    DatasetRows,
    GaussianSphere,
    NormalizedIIDSubGaussian,
    NormalizedRademacher,
    estimate_ctilde,
    exact_sphere_constant,
    sample_block,
)
from sgdexp.measurement import _row_norms

MODELS = [
    GaussianSphere(7),
    NormalizedRademacher(7),
    NormalizedIIDSubGaussian(7, base="uniform"),
    NormalizedIIDSubGaussian(7, base="gaussian"),
    NormalizedIIDSubGaussian(7, base="rademacher"),
]


def test_sphere_d1_is_plus_minus_one():
    rng = np.random.default_rng(0)
    draws = [sample_block(GaussianSphere(1), rng, 1)[0][0][0] for _ in range(50)]
    assert all(v in (1.0, -1.0) for v in draws)
    assert len(set(draws)) == 2  # both signs occur


def test_rademacher_d4_entries_are_half():
    rng = np.random.default_rng(1)
    A, _ = sample_block(NormalizedRademacher(4), rng, 200)
    assert np.all(np.isin(A, [0.5, -0.5]))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__ + getattr(m, "base", ""))
def test_unit_norm_all_variants(model):
    rng = np.random.default_rng(3)
    A, _ = sample_block(model, rng, 1000)
    assert np.allclose(np.linalg.norm(A, axis=1), 1.0, rtol=1e-9, atol=0)


@given(d=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_unit_norm_property(d, seed):
    rng = np.random.default_rng(seed)
    for model in (GaussianSphere(d), NormalizedRademacher(d), NormalizedIIDSubGaussian(d)):
        a = sample_block(model, rng, 1)[0][0]
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-9


def test_sphere_moments_isotropic():
    # 1e5 draws at d=100: coordinate means ~ 0, covariance of sqrt(d) a ~ I.
    d, n = 100, 100_000
    rng = np.random.default_rng(7)
    A, _ = sample_block(GaussianSphere(d), rng, n)
    # each coordinate has variance 1/d, so the mean's standard error is 1/sqrt(n d)
    se = 1.0 / math.sqrt(n * d)
    assert np.all(np.abs(A.mean(axis=0)) < 4 * se)
    S = math.sqrt(d) * A
    cov = S.T @ S / n
    assert np.max(np.abs(cov - np.eye(d))) < 0.05


def test_seeded_determinism_bitwise():
    for model in MODELS:
        a1, _ = sample_block(model, np.random.default_rng(42), 64)
        a2, _ = sample_block(model, np.random.default_rng(42), 64)
        assert np.array_equal(a1, a2)


def test_block_matches_sequential_draws():
    # the batched engine relies on block draws equalling one-at-a-time draws
    model = GaussianSphere(5)
    block, _ = sample_block(model, np.random.default_rng(9), 20)
    rng = np.random.default_rng(9)
    singles = np.array([sample_block(model, rng, 1)[0][0] for _ in range(20)])
    assert np.array_equal(block, singles)


def _sample_block_allocating(model, rng, n):
    """sample_block before its buffers: fresh arrays, np.linalg.norm, g / norms.  The reference."""

    def normalize(g, redraw):
        norms = np.linalg.norm(g, axis=1)
        while np.any(norms == 0.0):
            bad = norms == 0.0
            g[bad] = redraw(rng, int(bad.sum()))
            norms = np.linalg.norm(g, axis=1)
        return g / norms[:, None]

    d = model.d
    if isinstance(model, GaussianSphere):
        g = rng.standard_normal((n, d))
        return normalize(g, lambda r, m: r.standard_normal((m, d))), None
    if isinstance(model, NormalizedRademacher):
        return (rng.integers(0, 2, size=(n, d)) * 2 - 1) / math.sqrt(d), None
    if isinstance(model, NormalizedIIDSubGaussian):
        if model.base == "gaussian":
            draw = lambda r, m: r.standard_normal((m, d))
        elif model.base == "rademacher":
            draw = lambda r, m: (r.integers(0, 2, size=(m, d)) * 2 - 1).astype(float)
        else:
            s3 = math.sqrt(3.0)
            draw = lambda r, m: r.uniform(-s3, s3, size=(m, d))
        return normalize(draw(rng, n), draw), None
    idx = rng.integers(0, model.n_rows, size=n)
    return model.unit_rows[idx], idx


class _ZeroFirstRow:
    """A generator whose first normal draw comes back with an all-zero first row."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.zeroed = False

    def standard_normal(self, size=None, out=None):
        g = self.rng.standard_normal(size, out=out)
        if not self.zeroed:
            g[0] = 0.0
            self.zeroed = True
        return g


class TestInPlaceSampling:
    """Drawing into caller buffers keeps every bit of the allocating draw."""

    ALL_MODELS = MODELS + [DatasetRows(np.random.default_rng(2).standard_normal((30, 7)))]

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__ + getattr(m, "base", ""))
    @pytest.mark.parametrize("n", [1, 97])
    def test_out_holds_the_reference_bits(self, model, n):
        ref_rng, rng = np.random.default_rng(42), np.random.default_rng(42)
        ref, ref_idx = _sample_block_allocating(model, ref_rng, n)
        shape = (n, model.d)
        for kwargs in ({}, {"out": np.empty(shape)}):
            A, idx = sample_block(model, rng, n, **kwargs)
            if "out" in kwargs:
                assert A is kwargs["out"]
            assert A.tobytes() == ref.tobytes()
            assert (idx is None and ref_idx is None) or np.array_equal(idx, ref_idx)
            # the same generator calls: both streams stay in step
            ref, ref_idx = _sample_block_allocating(model, ref_rng, n)

    @pytest.mark.parametrize("model", [GaussianSphere(5), NormalizedIIDSubGaussian(5, base="gaussian")])
    def test_zero_row_is_redrawn_in_place(self, model):
        ref_rng, rng = _ZeroFirstRow(8), _ZeroFirstRow(8)
        ref, _ = _sample_block_allocating(model, ref_rng, 6)
        out = np.empty((6, 5))
        A, _ = sample_block(model, rng, 6, out=out)
        assert rng.zeroed and A is out
        assert A.tobytes() == ref.tobytes()
        assert np.linalg.norm(A[0]) == pytest.approx(1.0, rel=1e-12)
        assert rng.rng.random() == ref_rng.rng.random()

    def test_row_norms_match_linalg_norm(self):
        for d in range(1, 131):
            g = np.random.default_rng(d).standard_normal((9, d))
            expected = np.linalg.norm(g, axis=1).tobytes()
            assert _row_norms(g).tobytes() == expected


def test_dataset_rows_empty_errors():
    with pytest.raises(ValueError, match="no rows"):
        DatasetRows(np.empty((0, 3)))


def test_dataset_rows_zero_row_errors():
    with pytest.raises(ValueError, match="zero row"):
        DatasetRows(np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dataset_rows_non_finite_row_errors(bad):
    with pytest.raises(ValueError, match="non-finite row"):
        DatasetRows(np.array([[1.0, 0.0], [bad, 1.0]]))


def test_dataset_rows_samples_unit_rows():
    rows = np.array([[3.0, 4.0], [1.0, 1.0], [0.5, 2.0]])
    model = DatasetRows(rows)
    rng = np.random.default_rng(11)
    A, idx = sample_block(model, rng, 500)
    assert np.allclose(np.linalg.norm(A, axis=1), 1.0, rtol=1e-9, atol=0)
    assert set(np.unique(idx)) <= {0, 1, 2}
    # sampled vectors are the normalized source rows
    expected = rows / np.linalg.norm(rows, axis=1)[:, None]
    assert np.array_equal(A, expected[idx])


class TestEstimateCtilde:
    def test_preconditions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="n_samples"):
            estimate_ctilde(GaussianSphere(3), 50, rng)
        with pytest.raises(ValueError, match="n_directions"):
            estimate_ctilde(GaussianSphere(3), 1000, rng, n_directions=0)

    def test_rademacher_d2_along_e1_is_exact(self):
        # |<e1, a>| = 1/sqrt(2) for every sign pattern, so the estimate is
        # deterministic: sqrt(2) E = 1.
        est = estimate_ctilde(
            NormalizedRademacher(2),
            1000,
            np.random.default_rng(1),
            directions=np.array([[1.0, 0.0]]),
        )
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_rademacher_d8_vs_exhaustive_enumeration(self):
        # independent oracle: enumerate all 2^8 sign patterns per direction
        d = 8
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((4, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        patterns = np.array(list(itertools.product([-1.0, 1.0], repeat=d))) / math.sqrt(d)
        exact = math.sqrt(d) * np.abs(patterns @ dirs.T).mean(axis=0)
        est = estimate_ctilde(
            NormalizedRademacher(d), 1_000_000, np.random.default_rng(6), directions=dirs
        )
        assert abs(est.value - exact.min()) <= 3 * est.stderr

    @pytest.mark.parametrize("d", [2, 10, 100])
    def test_sphere_matches_exact_constant(self, d):
        # sqrt(d) E|<u, a>| equals the closed-form sphere constant for any
        # fixed u (it exceeds the sqrt(2/pi) limit at finite d).
        est = estimate_ctilde(
            GaussianSphere(d),
            200_000,
            np.random.default_rng(d),
            directions=np.eye(d)[:1],
        )
        assert abs(est.value - exact_sphere_constant(d)) <= 4 * est.stderr
        assert est.value + 3 * est.stderr >= GAUSSIAN_LIMIT_CONSTANT

    def test_min_over_directions_reported(self):
        # for Rademacher d=2 the diagonal direction has a smaller mean than e1
        dirs = np.array([[1.0, 0.0], [1.0, 1.0]])
        est = estimate_ctilde(
            NormalizedRademacher(2), 50_000, np.random.default_rng(3), directions=dirs
        )
        # diagonal: |<u, a>| in {0, 1} equally likely -> sqrt(2) E = sqrt(2)/2
        assert est.value == pytest.approx(math.sqrt(2) / 2, rel=0.05)
        assert est.n_directions == 2

    def test_memory_is_one_chunk_buffer(self):
        # The reused draw buffer, the chunk's |<u, a>| and the row-norm squares
        # while drawing, never all at once: about 2.6 chunks at d = 20.
        d = 20
        tracemalloc.start()
        try:
            estimate_ctilde(GaussianSphere(d), 200_000, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * CTILDE_CHUNK * d * 8

    def test_value_must_be_positive(self):
        with pytest.raises(ValueError):
            CtildeEstimate(value=0.0, stderr=0.0, n_samples=100, n_directions=1)


def test_exact_sphere_constant_limits():
    assert exact_sphere_constant(1) == pytest.approx(1.0, rel=1e-12)
    assert exact_sphere_constant(2) == pytest.approx(0.9003163161571061, rel=1e-12)
    assert exact_sphere_constant(10_000) == pytest.approx(GAUSSIAN_LIMIT_CONSTANT, rel=1e-4)

