/* The residual of sgdexp.datasets.evaluate_clean_loss, for every lane.
 *
 * Bit for bit numpy's np.matmul(F, x[..., None])[..., 0] - y, with
 * np.maximum(., 0.0) before the subtraction on ReLU streams.  numpy's
 * matmul hands each lane to OpenBLAS's dgemv_t (F row-major is the
 * transpose of a column-major matrix), whose Haswell kernels sum a row of
 * F against x over its first c = d - d % 4 columns in one of three orders,
 * by where the row falls:
 *
 * - rows i < n - n % 4 (the 4x4 kernel): four accumulators, one per column
 *   class k % 4, each fma(F[i,k], x[k], acc); then (a0 + a2) + (a1 + a3);
 * - the first two rows past them when n % 4 >= 2 (the 4x2 kernel): two
 *   accumulators, one per k % 2, each acc + F[i,k] * x[k] unfused; then
 *   a0 + a1;
 * - the last row when n % 4 is odd (the 4x1 kernel): four accumulators,
 *   one per k % 4, unfused; then (a0 + a2) + (a1 + a3).
 *
 * That is one thread's order; a gemv that OpenBLAS splits among threads
 * gives each thread's range its own last rows, so the caller probes each
 * shape first (sgdexp._kernel.cleanloss_rows_agree).
 *
 * Each row's sum is added to the output's +0.0 (t + 0.0 turns -0.0 into
 * +0.0), and the d % 4 last columns are added in C with contracted
 * multiply-adds: t = fma(F[c], x[c], t) for one; t + fma(F[c], x[c],
 * F[c+1] x[c+1]) for two; t + fma(F[c+2], x[c+2], fma(F[c], x[c],
 * F[c+1] x[c+1])) for three.  With d < 4 there is no sum: t = +0.0, and
 * at d = 1 the one product is added unfused, t + F[0] x[0] (fused, a
 * product that underflows to -0.0 would stay -0.0).
 *
 * sk_resid runs the 4x4 rows as that kernel does, a block of four rows at
 * a time, with the lanes of x as the inner loop so that F is read once per
 * call.  Each row's four accumulators are one AVX2 vector over four
 * columns, taking an explicit FMA per four columns; the four rows' sums
 * are then formed together by two cross-lane adds and one horizontal add.
 * The d % 4 last columns of the block are transposed once into a vector
 * per column.  It uses AVX2 and FMA instructions, so sgdexp._kernel builds
 * it only where numpy's CPU features list AVX2 and FMA3.  Build with
 * -ffp-contract=off and without -ffast-math, so that the unfused sums stay
 * unfused and nothing is reordered.
 */
#include <immintrin.h>
#include <math.h>
#include <stdint.h>

#define AVX2 __attribute__((target("avx2,fma")))

/* np.maximum(v, 0.0) lanewise: v where v > 0 or v is NaN, else +0.0. */
static inline AVX2 __m256d relu4(__m256d v)
{
    return _mm256_and_pd(v, _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NLE_UQ));
}

/* np.maximum(v, 0.0): NaN propagates, -0.0 gives +0.0. */
static double relu(double v)
{
    return (v > 0.0 || isnan(v)) ? v : 0.0;
}

/* The d % 4 last columns of four rows, added to t as dgemv_t's C tail adds
 * them: tail[4 k + j] is row j's column c + k. */
static inline AVX2 __m256d tail4(__m256d t, const double *tail, const double *x, int64_t c, int64_t r)
{
    if (r == 0)
        return t;
    const __m256d f0 = _mm256_load_pd(tail), x0 = _mm256_set1_pd(x[c]);
    if (r == 1)
        return c ? _mm256_fmadd_pd(f0, x0, t) : _mm256_add_pd(t, _mm256_mul_pd(f0, x0));
    const __m256d f1 = _mm256_load_pd(tail + 4), x1 = _mm256_set1_pd(x[c + 1]);
    __m256d s = _mm256_fmadd_pd(f0, x0, _mm256_mul_pd(f1, x1));
    if (r == 3)
        s = _mm256_fmadd_pd(_mm256_load_pd(tail + 8), _mm256_set1_pd(x[c + 2]), s);
    return _mm256_add_pd(t, s);
}

/* tail4 for one row f. */
static inline AVX2 double tail1(double t, const double *f, const double *x, int64_t c, int64_t r)
{
    if (r == 0)
        return t;
    if (r == 1)
        return c ? fma(f[c], x[c], t) : t + f[c] * x[c];
    double s = fma(f[c], x[c], f[c + 1] * x[c + 1]);
    if (r == 3)
        s = fma(f[c + 2], x[c + 2], s);
    return t + s;
}

/* The 4x2 kernel's sum of one row: two unfused accumulators, by k % 2. */
static double sum2(const double *f, const double *x, int64_t c)
{
    double a[2] = {0.0, 0.0};
    for (int64_t k = 0; k < c; k++)
        a[k % 2] = a[k % 2] + f[k] * x[k];
    return a[0] + a[1];
}

/* The 4x1 kernel's sum of one row: four unfused accumulators, by k % 4. */
static double sum4(const double *f, const double *x, int64_t c)
{
    double a[4] = {0.0, 0.0, 0.0, 0.0};
    for (int64_t k = 0; k < c; k++)
        a[k % 4] = a[k % 4] + f[k] * x[k];
    return (a[0] + a[2]) + (a[1] + a[3]);
}

/* (a0 + a2) + (a1 + a3) of each of four rows, whose accumulators a0..a3 are the vectors r0..r3. */
static inline AVX2 __m256d sums4(__m256d r0, __m256d r1, __m256d r2, __m256d r3)
{
    /* s02 holds row 0's a0 + a2 and a1 + a3, then row 2's; s13 those of rows 1 and 3. */
    const __m256d s02 = _mm256_add_pd(_mm256_permute2f128_pd(r0, r2, 0x20), _mm256_permute2f128_pd(r0, r2, 0x31));
    const __m256d s13 = _mm256_add_pd(_mm256_permute2f128_pd(r1, r3, 0x20), _mm256_permute2f128_pd(r1, r3, 0x31));
    return _mm256_hadd_pd(s02, s13);
}

/* out[l, i] = (F x_l)[i] - y[i], after max(., 0) where relu_link, for the
 * L lanes x_l of X (L, d) and the n rows of F (n, d); out is (L, n).  All
 * arrays are C-contiguous. */
AVX2 void sk_resid(int64_t L, int64_t n, int64_t d, const double *F, const double *X, const double *y,
                   int relu_link, double *out)
{
    const int64_t c = d - d % 4, r = d % 4, n4 = n - n % 4;
    const __m256d zero = _mm256_setzero_pd();
    double tail[12] __attribute__((aligned(32)));
    for (int64_t i = 0; i < n4; i += 4) {
        const double *f0 = F + i * d, *f1 = f0 + d, *f2 = f1 + d, *f3 = f2 + d;
        /* tail[4 k + j] = F[i + j, c + k]: last column k of the block as one vector. */
        for (int64_t k = 0; k < r; k++)
            for (int64_t j = 0; j < 4; j++)
                tail[4 * k + j] = F[(i + j) * d + c + k];
        const __m256d yv = _mm256_loadu_pd(y + i);
        for (int64_t l = 0; l < L; l++) {
            const double *x = X + l * d;
            __m256d a0 = zero, a1 = zero, a2 = zero, a3 = zero;
            for (int64_t k = 0; k < c; k += 4) {
                const __m256d xv = _mm256_loadu_pd(x + k);
                a0 = _mm256_fmadd_pd(_mm256_loadu_pd(f0 + k), xv, a0);
                a1 = _mm256_fmadd_pd(_mm256_loadu_pd(f1 + k), xv, a1);
                a2 = _mm256_fmadd_pd(_mm256_loadu_pd(f2 + k), xv, a2);
                a3 = _mm256_fmadd_pd(_mm256_loadu_pd(f3 + k), xv, a3);
            }
            __m256d t = c ? sums4(a0, a1, a2, a3) : zero;
            t = tail4(_mm256_add_pd(t, zero), tail, x, c, r);
            if (relu_link)
                t = relu4(t);
            _mm256_storeu_pd(out + l * n + i, _mm256_sub_pd(t, yv));
        }
    }
    for (int64_t i = n4; i < n; i++) {
        const double *f = F + i * d;
        /* The 4x2 kernel takes two rows, then the 4x1 kernel the odd one. */
        const int pair = (n % 4 >= 2) && i < n4 + 2;
        for (int64_t l = 0; l < L; l++) {
            const double *x = X + l * d;
            double t = c ? (pair ? sum2(f, x, c) : sum4(f, x, c)) : 0.0;
            t = tail1(t + 0.0, f, x, c, r);
            if (relu_link)
                t = relu(t);
            out[l * n + i] = t - y[i];
        }
    }
}
