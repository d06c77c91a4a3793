/* The sequential step of sgdexp.solvers.run_batch, for every lane of a block.
 *
 * Bit for bit the arithmetic of the numpy body (solvers._step_numpy): the
 * dot product follows the order of numpy's einsum sum-of-products loop on
 * two SSE2 lanes, max / sign keep numpy's signed-zero and NaN semantics,
 * and every update is x[i] + coef * a[i], including coef == 0.  Build with
 * -ffp-contract=off and without -ffast-math, so that no multiply-add is
 * fused and no operation is reordered.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

enum { SIGN = 0, GATED_SIGN = 1, GLMTRON = 2 };
enum { AUDIT_STEP_LAW = 1, AUDIT_GATE = 2 };

/* <x, a>: two accumulators over the even and odd elements, 8 elements per
 * iteration added as p + c in the order 6-7, 4-5, 2-3, 0-1, a zero-filled
 * 2-wide tail, then 0.0 + (c0 + c1) as einsum adds into its zeroed output. */
static double dot(const double *x, const double *a, int64_t d)
{
    double c0 = 0.0, c1 = 0.0;
    int64_t i = 0;
    for (; i + 8 <= d; i += 8) {
        c0 = x[i + 6] * a[i + 6] + c0;
        c1 = x[i + 7] * a[i + 7] + c1;
        c0 = x[i + 4] * a[i + 4] + c0;
        c1 = x[i + 5] * a[i + 5] + c1;
        c0 = x[i + 2] * a[i + 2] + c0;
        c1 = x[i + 3] * a[i + 3] + c1;
        c0 = x[i] * a[i] + c0;
        c1 = x[i + 1] * a[i + 1] + c1;
    }
    for (; i < d; i += 2) {
        c0 = x[i] * a[i] + c0;
        c1 = (i + 1 < d ? x[i + 1] * a[i + 1] : 0.0 * 0.0) + c1;
    }
    return 0.0 + (c0 + c1);
}

/* np.maximum(v, 0.0): NaN propagates, ties (+-0) give the second operand. */
static double relu(double v)
{
    return (v > 0.0 || isnan(v)) ? v : 0.0;
}

/* np.sign: 0.0 on +-0, NaN propagates. */
static double sign(double v)
{
    if (v > 0.0)
        return 1.0;
    if (v < 0.0)
        return -1.0;
    return v == 0.0 ? 0.0 : v;
}

/* out[i] = <buf + pairs[3i], buf + pairs[3i+1]> of length pairs[3i+2]; the
 * load-time self-test compares it with np.einsum. */
void sk_dots(int64_t m, const int64_t *pairs, const double *buf, double *out)
{
    for (int64_t i = 0; i < m; i++)
        out[i] = dot(buf + pairs[3 * i], buf + pairs[3 * i + 1], pairs[3 * i + 2]);
}

/* Steps j0 <= j < j1 of a block of n steps, for G lane groups x S seeds.
 *
 * x      (G, S, d)  lane iterates, advanced in place
 * A      (S, n, d)  measurements of the block
 * Y      (G, S, n)  responses; NULL for the residual-sign adversary, which
 *                   reads clean and XI (S, n) and each group's p in P (G,),
 *                   and reflects about the prediction
 * steps  (G, S, n)  step sizes
 * kind, audit (G,)  rule and audit flags of each group
 * step_viol, gate_viol (G, S)  audit counts, added to
 * Xt (S, d) non-NULL tracks hitting times (G == 1): lam2k is lam^{2k} at the
 * block's step j0 and is returned at step j1, hit_k (S,) is set at the first
 * k = k_base + j + 1 with lam^{2k} ||Xt - x||^2 / g_sq >= level, and diff
 * holds d doubles of scratch. */
void sk_advance(int64_t G, int64_t S, int64_t n, int64_t d, int64_t j0, int64_t j1,
                double *x, const double *A,
                const double *Y,
                const double *clean, const double *XI, const double *P, int relu_link,
                const double *steps, const int32_t *kind, const int32_t *audit,
                int64_t *step_viol, int64_t *gate_viol,
                const double *Xt, const double *g_sq, double level, double lam2,
                double *lam2k, int64_t *hit_k, int64_t k_base, double *diff)
{
    int need_norm = 0;
    for (int64_t g = 0; g < G; g++)
        need_norm |= audit[g] & AUDIT_STEP_LAW;
    const double lam2k_start = Xt != NULL ? *lam2k : 0.0;
    double lk = lam2k_start;

    for (int64_t s = 0; s < S; s++) {
        lk = lam2k_start;
        for (int64_t j = j0; j < j1; j++) {
            const int64_t sj = s * n + j;
            const double *a = A + sj * d;
            const double norm = need_norm ? sqrt(dot(a, a, d)) : 0.0;
            for (int64_t g = 0; g < G; g++) {
                const int64_t lane = g * S + s;
                double *xl = x + lane * d;
                const double dt = dot(xl, a, d);
                double y;
                if (Y != NULL) {
                    y = Y[lane * n + j];
                } else {
                    const double pred = relu_link ? relu(dt) : dt;
                    y = XI[sj] < P[g] ? 2.0 * pred - clean[sj] : clean[sj];
                }
                const double step = steps[lane * n + j];
                double coef;
                if (kind[g] == GLMTRON)
                    coef = step * (y - relu(dt));
                else if (kind[g] == GATED_SIGN)
                    coef = step * (sign(y - relu(dt)) * (dt >= 0.0 ? 1.0 : 0.0));
                else
                    coef = step * sign(y - dt);
                if (coef != 0.0) {
                    if ((audit[g] & AUDIT_STEP_LAW) && fabs(fabs(coef) * norm - step) > 1e-12 * step)
                        step_viol[lane]++;
                    if ((audit[g] & AUDIT_GATE) && dt < 0.0)
                        gate_viol[lane]++;
                }
                for (int64_t i = 0; i < d; i++)
                    xl[i] = xl[i] + coef * a[i];
            }
            if (Xt != NULL) {
                const double *xt = Xt + s * d;
                lk *= lam2;
                for (int64_t i = 0; i < d; i++)
                    diff[i] = xt[i] - x[s * d + i];
                if (hit_k[s] < 0 && (lk * dot(diff, diff, d)) / g_sq[s] >= level)
                    hit_k[s] = k_base + j + 1;
            }
        }
    }
    if (Xt != NULL)
        *lam2k = lk;
}
