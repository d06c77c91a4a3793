/* The sequential step of sgdexp.solvers.run_batch, for every lane of a block,
 * and the step decays of a block (sk_decays).
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
#include <string.h>

enum { SIGN = 0, GATED_SIGN = 1, GLMTRON = 2 };
enum { AUDIT_STEP_LAW = 1, AUDIT_GATE = 2 };
enum { CONST = 0, ROOT = 1, EXP = 2 };
enum { NONE = 0, SIGN_FLIP = 1, RESIDUAL_SIGN = 2, ADDITIVE = 3 };
/* Seeds stepped together: the dots of a tile's lanes run as one pass. */
enum { TILE = 4 };

/* Two doubles, added and multiplied lanewise: IEEE in each lane. */
typedef double v2 __attribute__((vector_size(16)));

static v2 load2(const double *p)
{
    v2 v;
    memcpy(&v, p, sizeof v);
    return v;
}

static void store2(double *p, v2 v)
{
    memcpy(p, &v, sizeof v);
}

/* c[t] = x[t][i, i+1] * a[t][i, i+1] + c[t], two-wide, for each of four pairs. */
static inline void add4(v2 *c, const double *const *x, const double *const *a, int64_t i)
{
#pragma GCC unroll 4
    for (int t = 0; t < TILE; t++)
        c[t] = load2(x[t] + i) * load2(a[t] + i) + c[t];
}

/* out[t] = <x[t], a[t]> for four pairs of length d in one pass.  Each pair
 * adds as numpy's einsum sum-of-products loop on two SSE2 lanes: one
 * two-wide accumulator (c0 over the even elements, c1 over the odd), 8
 * elements per iteration added as p + c in the order 6-7, 4-5, 2-3, 0-1, a
 * zero-filled 2-wide tail, then 0.0 + (c0 + c1) as einsum adds into its
 * zeroed output.  The four chains are independent, so they overlap.  Fewer
 * than four pairs repeat a pair in the unused slots and drop its outputs.
 * Inlined at each call: a called dot4 measured up to ~10% slower on the
 * hitting shape of scripts/step_kernel_bench.py. */
static inline __attribute__((always_inline)) void dot4(const double *const *x, const double *const *a, int64_t d, double *out)
{
    v2 c[TILE] = {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}};
    int64_t i = 0;
    for (; i + 8 <= d; i += 8) {
        add4(c, x, a, i + 6);
        add4(c, x, a, i + 4);
        add4(c, x, a, i + 2);
        add4(c, x, a, i);
    }
    for (; i + 2 <= d; i += 2)
        add4(c, x, a, i);
    if (i < d) {
#pragma GCC unroll 4
        for (int t = 0; t < TILE; t++)
            c[t] = (v2){x[t][i] * a[t][i], 0.0 * 0.0} + c[t];
    }
#pragma GCC unroll 4
    for (int t = 0; t < TILE; t++)
        out[t] = 0.0 + (c[t][0] + c[t][1]);
}

/* x[i] = x[i] + coef * a[i], two elements at a time. */
static void axpy(double *x, double coef, const double *a, int64_t d)
{
    const v2 c = {coef, coef};
    int64_t i = 0;
    for (; i + 2 <= d; i += 2)
        store2(x + i, load2(x + i) + c * load2(a + i));
    if (i < d)
        x[i] = x[i] + coef * a[i];
}

/* out[i] = u[i] - v[i], two elements at a time. */
static void sub(double *out, const double *u, const double *v, int64_t d)
{
    int64_t i = 0;
    for (; i + 2 <= d; i += 2)
        store2(out + i, load2(u + i) - load2(v + i));
    if (i < d)
        out[i] = u[i] - v[i];
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

/* Entry sj's response after the channel, as corruption.apply_channel gives
 * it: a draw XI < p corrupts clean into -clean, 2 pred - clean or clean + NU,
 * and an additive lane at p > 0 adds 0.0 where the draw does not corrupt
 * (turning -0.0 into +0.0, as numpy's clean + where(hit, nu, 0.0) does).
 * NU is read only on the additive channel.  An if chain, not a switch: a jump
 * table in the lane loop measured ~8% slower on the sweep and hitting
 * shapes of scripts/step_kernel_bench.py. */
static double respond(int channel, double p, const double *clean, const double *XI, const double *NU, int64_t sj,
                      double pred)
{
    const double c = clean[sj];
    if (channel == NONE)
        return c;
    if (channel == SIGN_FLIP)
        return XI[sj] < p ? -c : c;
    if (channel == RESIDUAL_SIGN)
        return XI[sj] < p ? 2.0 * pred - c : c;
    return p > 0.0 ? c + (XI[sj] < p ? NU[sj] : 0.0) : c;
}

/* Step decays at steps k..k+n-1 into out: 1 (const), (k+j+1)^{-1/2} (root)
 * or lam^{-(k+j)} (exp), one libm pow per step, the call math.pow makes for
 * finite arguments.  A vectorized pow differs from it in the last bit. */
void sk_decays(int schedule, double lam, int64_t k, int64_t n, double *out)
{
    for (int64_t j = 0; j < n; j++) {
        if (schedule == EXP)
            out[j] = pow(lam, (double)(-k - j));
        else if (schedule == ROOT)
            out[j] = pow((double)(k + j + 1), -0.5);
        else
            out[j] = 1.0;
    }
}

/* out[i] = <buf + pairs[2i], buf + pairs[2i+1]> of length d, four at a time
 * by dot4.  The load-time self-test compares it with np.einsum. */
void sk_dots(int64_t m, int64_t d, const int64_t *pairs, const double *buf, double *out)
{
    for (int64_t i = 0; i < m; i += TILE) {
        const double *x[TILE], *a[TILE];
        double got[TILE];
        for (int t = 0; t < TILE; t++) {
            const int64_t *p = pairs + 2 * (i + t < m ? i + t : i);
            x[t] = buf + p[0];
            a[t] = buf + p[1];
        }
        dot4(x, a, d, got);
        for (int t = 0; t < TILE && i + t < m; t++)
            out[i + t] = got[t];
    }
}

/* Steps j0 <= j < j1 <= n of a block whose arrays hold n steps per seed,
 * for G lane groups x S seeds.
 *
 * x      (G, S, d)  lane iterates, advanced in place
 * A      (S, n, d)  measurements of the block
 * clean, XI (S, n)  clean responses and corruption indicator draws
 * NU     (S, n)     the additive channel's noise; NULL on the others
 * P      (G,)       each group's corruption probability
 * channel           NONE, SIGN_FLIP, RESIDUAL_SIGN or ADDITIVE (respond),
 *                   applied at each step, where the residual-sign adversary
 *                   reads the prediction: relu(<x, a>) with relu_link
 * steps  (G, S, n)  step sizes
 * kind, audit (G,)  rule and audit flags of each group
 * step_viol, gate_viol (G, S)  audit counts, added to
 * Xt (S, d) non-NULL tracks hitting times (G == 1): lam2k (S,) is lam^{2k}
 * at the block's step j0 and is returned at step j1, hit_k (S,) is set at
 * the first k = k_base + j + 1 with lam^{2k} ||Xt - x||^2 / g_sq >= level,
 * and diff holds TILE * d doubles of scratch.
 *
 * Only the seeds s_lo <= s < s_hi are stepped, and only their entries of
 * x, the audit counts, lam2k and hit_k are written, so two threads with
 * disjoint seed ranges and their own diff can step one block at once.
 * Seeds are walked in tiles of TILE from s_lo, each tile step by step and
 * group by group, so the dots of a tile's lanes run as one pass.  Each
 * lane still does exactly its own arithmetic, in its own order. */
void sk_advance(int64_t G, int64_t S, int64_t n, int64_t d, int64_t s_lo, int64_t s_hi,
                int64_t j0, int64_t j1,
                double *x, const double *A,
                const double *clean, const double *XI, const double *NU, const double *P,
                int channel, int relu_link,
                const double *steps, const int32_t *kind, const int32_t *audit,
                int64_t *step_viol, int64_t *gate_viol,
                const double *Xt, const double *g_sq, double level, double lam2,
                double *lam2k, int64_t *hit_k, int64_t k_base, double *diff)
{
    int need_norm = 0;
    for (int64_t g = 0; g < G; g++)
        need_norm |= audit[g] & AUDIT_STEP_LAW;

    for (int64_t s0 = s_lo; s0 < s_hi; s0 += TILE) {
        /* The tile's w seeds; a short tile's unused slots repeat its first. */
        const int w = s_hi - s0 < TILE ? (int)(s_hi - s0) : TILE;
        int64_t seed[TILE];
        for (int t = 0; t < TILE; t++)
            seed[t] = s0 + (t < w ? t : 0);
        double lk = Xt != NULL ? lam2k[s0] : 0.0;
        for (int64_t j = j0; j < j1; j++) {
            const double *a[TILE], *xs[TILE];
            double norm[TILE] = {0.0}, dts[TILE];
            for (int t = 0; t < TILE; t++)
                a[t] = A + (seed[t] * n + j) * d;
            if (need_norm) {
                dot4(a, a, d, norm);
                for (int t = 0; t < w; t++)
                    norm[t] = sqrt(norm[t]);
            }
            for (int64_t g = 0; g < G; g++) {
                for (int t = 0; t < TILE; t++)
                    xs[t] = x + (g * S + seed[t]) * d;
                dot4(xs, a, d, dts);
                for (int t = 0; t < w; t++) {
                    const int64_t s = s0 + t, lane = g * S + s, sj = s * n + j;
                    const double dt = dts[t];
                    const double y = respond(channel, P[g], clean, XI, NU, sj, relu_link ? relu(dt) : dt);
                    const double step = steps[lane * n + j];
                    double coef;
                    if (kind[g] == GLMTRON)
                        coef = step * (y - relu(dt));
                    else if (kind[g] == GATED_SIGN)
                        coef = step * (sign(y - relu(dt)) * (dt >= 0.0 ? 1.0 : 0.0));
                    else
                        coef = step * sign(y - dt);
                    if (coef != 0.0) {
                        if ((audit[g] & AUDIT_STEP_LAW) && fabs(fabs(coef) * norm[t] - step) > 1e-12 * step)
                            step_viol[lane]++;
                        if ((audit[g] & AUDIT_GATE) && dt < 0.0)
                            gate_viol[lane]++;
                    }
                    axpy(x + lane * d, coef, a[t], d);
                }
            }
            if (Xt != NULL) {
                const double *df[TILE];
                double dist[TILE];
                lk *= lam2;
                for (int t = 0; t < w; t++)
                    sub(diff + t * d, Xt + (s0 + t) * d, x + (s0 + t) * d, d);
                for (int t = 0; t < TILE; t++)
                    df[t] = diff + (seed[t] - s0) * d;
                dot4(df, df, d, dist);
                for (int t = 0; t < w; t++)
                    if (hit_k[s0 + t] < 0 && (lk * dist[t]) / g_sq[s0 + t] >= level)
                        hit_k[s0 + t] = k_base + j + 1;
            }
        }
        if (Xt != NULL)
            for (int t = 0; t < w; t++)
                lam2k[s0 + t] = lk;
    }
}
