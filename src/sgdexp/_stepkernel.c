/* The sequential step of sgdexp.solvers.run_batch, for every lane of a block,
 * and the step decays of a block (sk_decays).
 *
 * Bit for bit the arithmetic of the numpy body (solvers._step_numpy): the
 * dot product follows the order of numpy's einsum sum-of-products loop on
 * two SSE2 lanes, max / sign keep numpy's signed-zero and NaN semantics,
 * and every update is x[i] + coef * a[i], including coef == 0.  That holds
 * for every value but NaN: NaN positions and audit counts match, but where
 * two NaNs meet in an add the sign of the NaN kept may differ (x86 keeps
 * the first operand's, and neither numpy nor gcc fixes the order).  Build
 * with -ffp-contract=off and without -ffast-math, so that no multiply-add
 * is fused and no operation is reordered.
 *
 * Lane groups sit in the vector lanes.  sk_advance copies its seeds' lanes
 * into its scratch, where each vector's Q groups are interleaved by element
 * pair (copy_lanes): one vector of 2Q doubles holds the two-lane einsum
 * accumulators of Q groups, and one broadcast of the measurement pair serves
 * all of them.  Built with -mavx512f (sgdexp._kernel does so where numpy's
 * CPU features list AVX512F) the groups go four to a 512-bit vector, then
 * two to a 256-bit one, then one to a 128-bit one; built without, every
 * group has a 128-bit vector of its own, and only 128-bit code is compiled.
 * The code is written once over the vector type (WIDTH, PASS), and so is the
 * rule: each vector's coefficients are worked out in its lanes, each
 * group's in both of its lanes.  A chain is one vector of lanes of one seed.
 * A tile's chains go four at a time (a pass, so that four dependency chains
 * overlap) through the whole stretch of steps, each step's update fused
 * with the next step's dot; the one to three left over go as a pass of two
 * and one of one, and G = 1 steps a tile of four seeds as four 128-bit
 * chains.  Each lane still does exactly its own arithmetic, in its own
 * order.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

enum { SIGN = 0, GATED_SIGN = 1, GLMTRON = 2 };
enum { AUDIT_STEP_LAW = 1, AUDIT_GATE = 2 };
enum { CONST = 0, ROOT = 1, EXP = 2 };
enum { NONE = 0, SIGN_FLIP = 1, RESIDUAL_SIGN = 2, ADDITIVE = 3 };
/* Seeds stepped together at most, and the chains of one pass of the dot. */
enum { TILE = 4 };
/* Bytes of lanes a tile holds at most, a third of a 48 KiB L1 data cache,
 * so that they stay in it from one step to the next: at G 8 and d 100 to
 * 400 (scripts/step_kernel_bench.py's sweep shape) twice the bound measured
 * up to 1.1x slower per lane-step, no bound up to 1.5x slower. */
enum { TILE_BYTES = 16 << 10 };

#ifdef __AVX512F__
#include <immintrin.h>
#define ISA "avx512f"
#elif defined(__x86_64__)
#define ISA "sse2"
#else
#define ISA "generic"
#endif

/* The loops of a pass are inlined with their chain count a constant, 4, 2
 * or 1, into one tile function per vector type: inlined into every caller as
 * well, the two builds took gcc 5 s and 17 s of CPU time instead of 1.7 s
 * and 3.1 s, and stepped no faster. */
#define INLINE static inline __attribute__((always_inline))
#define NOINLINE __attribute__((noinline))

/* 2 doubles, added and multiplied lanewise: IEEE in each lane; and the masks
 * their comparisons give, -1 where true and 0 where false.  The AVX-512 build
 * adds 256- and 512-bit ones below. */
typedef double v2 __attribute__((vector_size(16)));
typedef int64_t m2 __attribute__((vector_size(16)));

/* The instruction set this build steps lanes with: "avx512f", or the base one. */
const char *sk_isa(void)
{
    return ISA;
}

/* spread: the pair p[0], p[1] in every two lanes.  pairs: strided values,
 * each in a pair.  swap: the two lanes of every pair swapped.  evens: each
 * pair's first lane in both. */
INLINE v2 spread_v2(const double *p)
{
    v2 v;
    memcpy(&v, p, sizeof v);
    return v;
}

INLINE v2 pairs_v2(const double *p, int64_t stride)
{
    (void)stride;
    return (v2){p[0], p[0]};
}

INLINE v2 swap_v2(v2 v)
{
    return __builtin_shufflevector(v, v, 1, 0);
}

INLINE v2 evens_v2(v2 v)
{
    return __builtin_shufflevector(v, v, 0, 0);
}

/* What the passes of a block read and write besides the lanes.  Per group,
 * in both lanes of its pair: p2 its corruption probability, the masks tron2
 * (GLMTRON) and gated2 (GATED_SIGN), and law2 and gate2, 1.0 where it has
 * that audit, else 0.0.  diff holds each seed of a tile its hitting-time
 * difference. */
struct block {
    int64_t G, S, n, d;
    int64_t gs, ss; /* doubles of the scratch per group and per seed */
    int64_t g4, g2; /* groups [0, g4) go four to a vector, [g4, g2) two, [g2, G) one */
    const double *A, *clean, *XI, *NU, *steps;
    int channel, relu_link, audited, need_norm;
    const double *p2, *law2, *gate2;
    const int64_t *tron2, *gated2;
    int64_t *step_viol, *gate_viol;
    const double *Xt, *g_sq;
    double level, lam2, *lam2k;
    int64_t *hit_k, k_base;
    double *diff;
};

/* The dot, rule and update of one vector type V of W = 2Q doubles (masks M).
 *
 * A chain is one vector of lanes along the d elements: element pair p of
 * its Q groups at x + p W, against the measurement pair a[2p], a[2p + 1]
 * in every pair of lanes (spread_V).
 *
 * dots_V takes K chains in one pass; each lane adds as numpy's einsum
 * sum-of-products loop on two SSE2 lanes: a two-wide accumulator (c0 over
 * the even elements, c1 over the odd), 8 elements per iteration added as
 * p + c in the order 6-7, 4-5, 2-3, 0-1, a zero-filled two-wide tail, then
 * 0.0 + (c0 + c1) as einsum adds into its zeroed output, which it returns
 * in both lanes of the pair.  The tail reads only the even lanes of x and of
 * a, so the odd lanes of an odd d's last pair (padding, which the update
 * moves by coef * 0.0) never reach a dot.
 *
 * coef_V is each lane's coefficient from its dot, lanewise as the scalar
 * rule (solvers._coef after corruption.apply_channel): the lanes work out
 * every rule and channel branch and select theirs, so no branch follows a
 * lane's data.  It adds the lanes' audit counts to law and gate.
 *
 * axpy_V is x[i] = x[i] + coef * a[i] for one chain; axpy_dots_V is that
 * update of K chains and, in the same pass over their pairs, the dots of
 * the updated lanes against the next step's measurement a1, as dots_V takes
 * them. */
#define WIDTH(V, M)                                                                                \
    enum { W_##V = sizeof(V) / sizeof(double) };                                                   \
                                                                                                   \
    INLINE V load_##V(const double *p)                                                             \
    {                                                                                              \
        V v;                                                                                       \
        memcpy(&v, p, sizeof v);                                                                   \
        return v;                                                                                  \
    }                                                                                              \
                                                                                                   \
    INLINE void store_##V(double *p, V v)                                                          \
    {                                                                                              \
        memcpy(p, &v, sizeof v);                                                                   \
    }                                                                                              \
                                                                                                   \
    INLINE M load_##M(const int64_t *p)                                                            \
    {                                                                                              \
        M v;                                                                                       \
        memcpy(&v, p, sizeof v);                                                                   \
        return v;                                                                                  \
    }                                                                                              \
                                                                                                   \
    /* s in every lane */                                                                          \
    INLINE V fill_##V(double s)                                                                    \
    {                                                                                              \
        V v;                                                                                       \
        for (int l = 0; l < W_##V; l++)                                                            \
            v[l] = s;                                                                              \
        return v;                                                                                  \
    }                                                                                              \
                                                                                                   \
    /* where m, a; elsewhere b */                                                                  \
    INLINE V select_##V(M m, V a, V b)                                                             \
    {                                                                                              \
        return (V)(((M)a & m) | ((M)b & ~m));                                                      \
    }                                                                                              \
                                                                                                   \
    /* np.maximum(v, 0.0): NaN propagates, ties (+-0) give the second operand. */                  \
    INLINE V relu_##V(V v)                                                                         \
    {                                                                                              \
        return select_##V(v > 0.0, v, select_##V(v == v, (V){0.0}, v));                            \
    }                                                                                              \
                                                                                                   \
    /* np.sign: 0.0 on +-0, NaN propagates. */                                                     \
    INLINE V sign_##V(V v)                                                                         \
    {                                                                                              \
        const V zero = {0.0};                                                                      \
        const V s = select_##V(v > 0.0, fill_##V(1.0), select_##V(v < 0.0, fill_##V(-1.0), zero)); \
        return select_##V(v == v, s, v);                                                           \
    }                                                                                              \
                                                                                                   \
    INLINE V fabs_##V(V v)                                                                         \
    {                                                                                              \
        return (V)((M)v & INT64_MAX);                                                              \
    }                                                                                              \
                                                                                                   \
    /* The lanes of chain t at pair p, times the measurement pair, added to c[t]. */               \
    INLINE void add_##V(int K, V *c, double *const *x, const double *const *a, int64_t p)          \
    {                                                                                              \
        _Pragma("GCC unroll 4")                                                                    \
        for (int t = 0; t < K; t++)                                                                \
            c[t] = load_##V(x[t] + p * W_##V) * spread_##V(a[t] + 2 * p) + c[t];                   \
    }                                                                                              \
                                                                                                   \
    /* As add_V, after updating the lanes at pair p by coef[t] times the pair of a[t]. */          \
    INLINE void step_##V(int K, V *c, double *const *x, const V *coef, const double *const *a,     \
                         const double *const *a1, int64_t p)                                       \
    {                                                                                              \
        _Pragma("GCC unroll 4")                                                                    \
        for (int t = 0; t < K; t++) {                                                              \
            const V xv = load_##V(x[t] + p * W_##V) + coef[t] * spread_##V(a[t] + 2 * p);          \
            store_##V(x[t] + p * W_##V, xv);                                                       \
            c[t] = xv * spread_##V(a1[t] + 2 * p) + c[t];                                          \
        }                                                                                          \
    }                                                                                              \
                                                                                                   \
    /* The zero-filled tail of an odd d: the lanes' even halves times (a[t][d-1], 0.0). */         \
    INLINE V tail_##V(V c, const double *x, const double *a, int64_t p)                            \
    {                                                                                              \
        const double last[2] = {a[2 * p], 0.0};                                                    \
        V v;                                                                                       \
        for (int l = 0; l < W_##V; l += 2)                                                         \
            v[l] = x[p * W_##V + l], v[l + 1] = 0.0;                                               \
        return v * spread_##V(last) + c;                                                           \
    }                                                                                              \
                                                                                                   \
    /* Each chain's dots, from its accumulator, in both lanes of each pair. */                     \
    INLINE void sums_##V(int K, const V *c, V *dt)                                                 \
    {                                                                                              \
        _Pragma("GCC unroll 4")                                                                    \
        for (int t = 0; t < K; t++)                                                                \
            dt[t] = evens_##V(0.0 + (c[t] + swap_##V(c[t])));                                      \
    }                                                                                              \
                                                                                                   \
    INLINE void dots_##V(int K, double *const *x, const double *const *a, int64_t d, V *dt)        \
    {                                                                                              \
        V c[TILE];                                                                                 \
        _Pragma("GCC unroll 4")                                                                    \
        for (int t = 0; t < K; t++)                                                                \
            c[t] = (V){0.0};                                                                       \
        const int64_t pairs = d / 2;                                                               \
        int64_t p = 0;                                                                             \
        for (; p + 4 <= pairs; p += 4) {                                                           \
            add_##V(K, c, x, a, p + 3);                                                            \
            add_##V(K, c, x, a, p + 2);                                                            \
            add_##V(K, c, x, a, p + 1);                                                            \
            add_##V(K, c, x, a, p);                                                                \
        }                                                                                          \
        for (; p < pairs; p++)                                                                     \
            add_##V(K, c, x, a, p);                                                                \
        if (d % 2) {                                                                               \
            _Pragma("GCC unroll 4")                                                                \
            for (int t = 0; t < K; t++)                                                            \
                c[t] = tail_##V(c[t], x[t], a[t], p);                                              \
        }                                                                                          \
        sums_##V(K, c, dt);                                                                        \
    }                                                                                              \
                                                                                                   \
    INLINE void axpy_dots_##V(int K, double *const *x, const V *coef, const double *const *a,      \
                              const double *const *a1, int64_t d, V *dt)                           \
    {                                                                                              \
        V c[TILE];                                                                                 \
        _Pragma("GCC unroll 4")                                                                    \
        for (int t = 0; t < K; t++)                                                                \
            c[t] = (V){0.0};                                                                       \
        const int64_t pairs = d / 2;                                                               \
        int64_t p = 0;                                                                             \
        for (; p + 4 <= pairs; p += 4) {                                                           \
            step_##V(K, c, x, coef, a, a1, p + 3);                                                 \
            step_##V(K, c, x, coef, a, a1, p + 2);                                                 \
            step_##V(K, c, x, coef, a, a1, p + 1);                                                 \
            step_##V(K, c, x, coef, a, a1, p);                                                     \
        }                                                                                          \
        for (; p < pairs; p++)                                                                     \
            step_##V(K, c, x, coef, a, a1, p);                                                     \
        if (d % 2) {                                                                               \
            _Pragma("GCC unroll 4")                                                                \
            for (int t = 0; t < K; t++) {                                                          \
                const double last[2] = {a[t][2 * p], 0.0};                                         \
                double *xt = x[t] + p * W_##V;                                                     \
                store_##V(xt, load_##V(xt) + coef[t] * spread_##V(last));                          \
                c[t] = tail_##V(c[t], x[t], a1[t], p);                                             \
            }                                                                                      \
        }                                                                                          \
        sums_##V(K, c, dt);                                                                        \
    }                                                                                              \
                                                                                                   \
    INLINE void axpy_##V(double *x, V coef, const double *a, int64_t d)                            \
    {                                                                                              \
        const int64_t pairs = d / 2;                                                               \
        for (int64_t p = 0; p < pairs; p++)                                                        \
            store_##V(x + p * W_##V, load_##V(x + p * W_##V) + coef * spread_##V(a + 2 * p));      \
        if (d % 2) {                                                                               \
            const double last[2] = {a[2 * pairs], 0.0};                                            \
            store_##V(x + pairs * W_##V, load_##V(x + pairs * W_##V) + coef * spread_##V(last));   \
        }                                                                                          \
    }                                                                                              \
                                                                                                   \
    /* The coefficients of seed s's lanes of groups [g, g + Q) at step j, from their dots and the  \
     * norm of the seed's row. */                                                                  \
    INLINE V coef_##V(const struct block *b, int64_t g, int64_t s, int64_t j, V dt, double norm,   \
                      V *law, V *gate)                                                             \
    {                                                                                              \
        const V zero = {0.0};                                                                      \
        const V p = load_##V(b->p2 + 2 * g);                                                       \
        const int64_t sj = s * b->n + j;                                                           \
        const V step = pairs_##V(b->steps + (g * b->S + s) * b->n + j, b->S * b->n);               \
        const V rdt = relu_##V(dt), pred = b->relu_link ? rdt : dt, c = fill_##V(b->clean[sj]);    \
        const V xi = fill_##V(b->XI[sj]);                                                          \
        V y = c;                                                                                   \
        if (b->channel == SIGN_FLIP)                                                               \
            y = select_##V(xi < p, -c, c);                                                         \
        else if (b->channel == RESIDUAL_SIGN)                                                      \
            y = select_##V(xi < p, 2.0 * pred - c, c);                                             \
        else if (b->channel == ADDITIVE)                                                           \
            y = select_##V(p > 0.0, c + select_##V(xi < p, fill_##V(b->NU[sj]), zero), c);         \
        const V tron = step * (y - rdt);                                                           \
        const V gated = step * (sign_##V(y - rdt) * select_##V(dt >= 0.0, fill_##V(1.0), zero));   \
        const V sgn = step * sign_##V(y - dt);                                                     \
        const V coef = select_##V(load_##M(b->tron2 + 2 * g), tron,                                \
                                  select_##V(load_##M(b->gated2 + 2 * g), gated, sgn));            \
        if (b->audited) {                                                                          \
            const V off = fabs_##V(fabs_##V(coef) * norm - step);                                  \
            const V law_hit = select_##V(off > 1e-12 * step, load_##V(b->law2 + 2 * g), zero);     \
            const V gate_hit = select_##V(dt < 0.0, load_##V(b->gate2 + 2 * g), zero);             \
            *law += select_##V(coef == 0.0, zero, law_hit);                                        \
            *gate += select_##V(coef == 0.0, zero, gate_hit);                                      \
        }                                                                                          \
        return coef;                                                                               \
    }

WIDTH(v2, m2)

/* out[t] = <u[t], u[t]> for w <= TILE rows of length d, as the einsum of two
 * rows: rows are chains whose element pairs are adjacent.  Four rows take one
 * pass, and fewer a pass of two and one of one, as they have them. */
static NOINLINE void self_dots(int w, const double *const *u, int64_t d, double *out)
{
    double *const *x = (double *const *)u;
    v2 dt[TILE];
    if (w == TILE)
        dots_v2(TILE, x, u, d, dt);
    if (w & 2)
        dots_v2(2, x, u, d, dt);
    if (w & 1)
        dots_v2(1, x + (w & 2), u + (w & 2), d, dt + (w & 2));
    for (int t = 0; t < w; t++)
        out[t] = dt[t][0];
}

/* norms[k] = ||a_j|| for the m <= TILE rows of seed s from step j: a seed's
 * next rows are independent chains, so four steps' norms take one pass. */
INLINE void row_norms(const struct block *b, int64_t s, int64_t j, int m, double *norms)
{
    const double *rows[TILE];
    for (int k = 0; k < m; k++)
        rows[k] = b->A + (s * b->n + j + k) * b->d;
    self_dots(m, rows, b->d, norms);
    for (int k = 0; k < m; k++)
        norms[k] = sqrt(norms[k]);
}

/* out[i] = u[i] - v[i], two elements at a time. */
INLINE void sub(double *out, const double *u, const double *v, int64_t d)
{
    int64_t i = 0;
    for (; i + 2 <= d; i += 2)
        store_v2(out + i, load_v2(u + i) - load_v2(v + i));
    if (i < d)
        out[i] = u[i] - v[i];
}

/* Hitting times after step j of the K one-group chains of seeds s0 + tc[k]
 * (G == 1), lk being lam^{2(k_base + j + 1)}. */
static NOINLINE void hits(const struct block *b, int K, double *const *xc, const int *tc, int64_t s0, int64_t j,
                          double lk)
{
    const double *df[TILE] = {NULL};
    double dist[TILE];
    for (int k = 0; k < K; k++) {
        double *diff = b->diff + tc[k] * (b->d + 1);
        sub(diff, b->Xt + (s0 + tc[k]) * b->d, xc[k], b->d);
        df[k] = diff;
    }
    self_dots(K, df, b->d, dist);
    for (int k = 0; k < K; k++) {
        const int64_t s = s0 + tc[k];
        if (b->hit_k[s] < 0 && (lk * dist[k]) / b->g_sq[s] >= b->level)
            b->hit_k[s] = b->k_base + j + 1;
    }
}

/* The passes of one vector type V (Q groups to a vector).
 *
 * pass_V steps K chains of a tile through the steps j0 <= j < j1: chain k
 * holds groups [gc[k], gc[k] + Q) of the tile's seed tc[k] (seed s0 +
 * tc[k]), its lanes at xc[k].  Each step, every chain's coefficients from
 * its dots, then its update fused with the next step's dots; the chains'
 * audit counts and, with hitting times tracked (one group, so the pass
 * holds the tile's seeds), lam^{2k} stay in registers over the stretch.
 * With out non-NULL it takes only the dots at step j0, into out (G, S).
 *
 * tile_V steps the groups [g_lo, g_hi) of the tile's w seeds: their
 * chains, group by group and seed by seed, four to a pass; the one to three
 * left over take a pass of two and one of one, as they have them. */
#define PASS(V)                                                                                    \
    INLINE void pass_##V(const struct block *b, int K, double *const *xc,                          \
                                  const int64_t *gc, const int *tc, int64_t s0, int64_t j0,        \
                                  int64_t j1, double *out)                                         \
    {                                                                                              \
        const double *a[TILE], *a1[TILE];                                                          \
        V dt[TILE], coef[TILE], law[TILE], gate[TILE];                                             \
        double norms[TILE][TILE] = {{0.0}}; /* seed t's row norms at steps j, j + 1, ... */        \
        unsigned seeds = 0;                                                                        \
        for (int k = 0; k < K; k++)                                                                \
            seeds |= 1u << tc[k];                                                                  \
        for (int k = 0; k < K; k++) {                                                              \
            a[k] = b->A + ((s0 + tc[k]) * b->n + j0) * b->d;                                       \
            law[k] = gate[k] = (V){0.0};                                                           \
        }                                                                                          \
        dots_##V(K, xc, a, b->d, dt);                                                              \
        if (out != NULL) {                                                                         \
            for (int k = 0; k < K; k++)                                                            \
                for (int l = 0; l < W_##V; l += 2)                                                 \
                    out[(gc[k] + l / 2) * b->S + s0 + tc[k]] = dt[k][l];                           \
            return;                                                                                \
        }                                                                                          \
        double lk = b->Xt != NULL ? b->lam2k[s0 + tc[0]] : 0.0;                                    \
        for (int64_t j = j0; j < j1; j++) {                                                        \
            if (b->need_norm && (j - j0) % TILE == 0)                                              \
                for (int t = 0; t < TILE; t++)                                                     \
                    if (seeds >> t & 1)                                                            \
                        row_norms(b, s0 + t, j, j1 - j < TILE ? (int)(j1 - j) : TILE, norms[t]);   \
            for (int k = 0; k < K; k++)                                                            \
                coef[k] = coef_##V(b, gc[k], s0 + tc[k], j, dt[k], norms[tc[k]][(j - j0) % TILE],  \
                                   law + k, gate + k);                                             \
            if (j + 1 < j1) {                                                                      \
                for (int k = 0; k < K; k++)                                                        \
                    a1[k] = a[k] + b->d;                                                           \
                axpy_dots_##V(K, xc, coef, a, a1, b->d, dt);                                       \
                for (int k = 0; k < K; k++)                                                        \
                    a[k] = a1[k];                                                                  \
            } else {                                                                               \
                for (int k = 0; k < K; k++)                                                        \
                    axpy_##V(xc[k], coef[k], a[k], b->d);                                          \
            }                                                                                      \
            if (b->Xt != NULL) {                                                                   \
                lk *= b->lam2;                                                                     \
                hits(b, K, xc, tc, s0, j, lk);                                                     \
            }                                                                                      \
        }                                                                                          \
        for (int k = 0; k < K; k++) {                                                              \
            const int64_t s = s0 + tc[k];                                                          \
            if (b->Xt != NULL)                                                                     \
                b->lam2k[s] = lk;                                                                  \
            for (int l = 0; l < W_##V; l += 2) {                                                   \
                b->step_viol[(gc[k] + l / 2) * b->S + s] += (int64_t)law[k][l];                    \
                b->gate_viol[(gc[k] + l / 2) * b->S + s] += (int64_t)gate[k][l];                   \
            }                                                                                      \
        }                                                                                          \
    }                                                                                              \
                                                                                                   \
    static NOINLINE void tile_##V(const struct block *b, int64_t g_lo, int64_t g_hi, int w,        \
                                  double *x, int64_t s0, int64_t j0, int64_t j1, double *out)      \
    {                                                                                              \
        double *xc[TILE];                                                                          \
        int64_t gc[TILE];                                                                          \
        int tc[TILE], K = 0;                                                                       \
        for (int64_t g = g_lo; g < g_hi; g += W_##V / 2)                                           \
            for (int t = 0; t < w; t++) {                                                          \
                xc[K] = x + t * b->ss + g * b->gs;                                                 \
                gc[K] = g;                                                                         \
                tc[K] = t;                                                                         \
                if (++K == TILE) {                                                                 \
                    pass_##V(b, TILE, xc, gc, tc, s0, j0, j1, out);                                \
                    K = 0;                                                                         \
                }                                                                                  \
            }                                                                                      \
        if (K & 2)                                                                                 \
            pass_##V(b, 2, xc, gc, tc, s0, j0, j1, out);                                           \
        if (K & 1)                                                                                 \
            pass_##V(b, 1, xc + (K & 2), gc + (K & 2), tc + (K & 2), s0, j0, j1, out);             \
    }

PASS(v2)

#ifdef __AVX512F__
/* The 256- and 512-bit vectors, and their masks. */
typedef double v4 __attribute__((vector_size(32)));
typedef double v8 __attribute__((vector_size(64)));
typedef int64_t m4 __attribute__((vector_size(32)));
typedef int64_t m8 __attribute__((vector_size(64)));

/* Each one broadcast load (vbroadcastf128, vbroadcastf32x4): GCC 12 makes
 * shuffles of the generic form, one or two per measurement pair and chain. */
INLINE v4 spread_v4(const double *p)
{
    return (v4)_mm256_broadcast_pd((const __m128d *)p);
}

INLINE v8 spread_v8(const double *p)
{
    return (v8)_mm512_castps_pd(_mm512_broadcast_f32x4(_mm_loadu_ps((const float *)p)));
}

INLINE v4 pairs_v4(const double *p, int64_t stride)
{
    const v2 lo = pairs_v2(p, stride), hi = pairs_v2(p + stride, stride);
    return __builtin_shufflevector(lo, hi, 0, 1, 2, 3);
}

INLINE v8 pairs_v8(const double *p, int64_t stride)
{
    const v4 lo = pairs_v4(p, stride), hi = pairs_v4(p + 2 * stride, stride);
    return __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7);
}

INLINE v4 swap_v4(v4 v)
{
    return __builtin_shufflevector(v, v, 1, 0, 3, 2);
}

INLINE v8 swap_v8(v8 v)
{
    return __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6);
}

INLINE v4 evens_v4(v4 v)
{
    return __builtin_shufflevector(v, v, 0, 0, 2, 2);
}

INLINE v8 evens_v8(v8 v)
{
    return __builtin_shufflevector(v, v, 0, 0, 2, 2, 4, 4, 6, 6);
}

WIDTH(v4, m4)
WIDTH(v8, m8)
PASS(v4)
PASS(v8)

INLINE void widths(struct block *b)
{
    b->g4 = b->G - b->G % 4;
    b->g2 = b->G - b->G % 2;
}

/* Steps j0 <= j < j1 of every lane of the w seeds from s0 of a tile whose
 * lanes start at x, or with out non-NULL only their dots at step j0. */
INLINE void tile_steps(const struct block *b, int w, double *x, int64_t s0, int64_t j0, int64_t j1, double *out)
{
    tile_v8(b, 0, b->g4, w, x, s0, j0, j1, out);
    tile_v4(b, b->g4, b->g2, w, x, s0, j0, j1, out);
    tile_v2(b, b->g2, b->G, w, x, s0, j0, j1, out);
}
#else
/* Every group has a vector of its own. */
INLINE void widths(struct block *b)
{
    b->g4 = b->g2 = 0;
}

INLINE void tile_steps(const struct block *b, int w, double *x, int64_t s0, int64_t j0, int64_t j1, double *out)
{
    tile_v2(b, 0, b->G, w, x, s0, j0, j1, out);
}
#endif

/* Copy the lanes of seeds s_lo <= s < s_hi between x (G, S, d) and the
 * scratch: into it with in, else back.  Per seed the scratch holds G
 * (ceil(d / 2), 2) blocks of lanes, one per group, and interleaves each
 * vector's Q groups: the chunk of groups [c, c + Q) is (ceil(d / 2), Q, 2)
 * at 2 c ceil(d / 2).  The odd lanes of an odd d's last pair start at 0.0
 * and are not copied back. */
INLINE void copy_lanes(const struct block *b, int in, int64_t s_lo, int64_t s_hi, double *x, double *lanes)
{
    const int64_t d = b->d;
    for (int64_t s = s_lo; s < s_hi; s++)
        for (int64_t g = 0; g < b->G; g++) {
            const int64_t q = g < b->g4 ? 4 : g < b->g2 ? 2 : 1, c = g - g % q;
            double *v = x + (g * b->S + s) * d, *l = lanes + (s - s_lo) * b->ss + b->gs * c + 2 * (g - c);
            for (int64_t i = 0; i < d; i++) {
                double *li = l + i / 2 * 2 * q + i % 2;
                if (in)
                    *li = v[i];
                else
                    v[i] = *li;
            }
            if (in && d % 2)
                l[d / 2 * 2 * q + 1] = 0.0;
        }
}

/* Doubles of the work scratch of an sk_advance or sk_dots call that steps S
 * seeds: their lanes (copy_lanes, S G 2 ceil(d / 2)) and up to 7 before them
 * to align them, the group constants of struct block (10 G), and per seed of
 * a tile its hitting-time difference (d + 1). */
int64_t sk_work_size(int64_t G, int64_t S, int64_t d)
{
    return 7 + S * G * (d + d % 2) + 10 * G + TILE * (d + 1);
}

/* b's scratch sizes and vector widths, and work laid out for the lanes of S
 * seeds, which it returns, then b's group constants, for kind, audit and P
 * (G,), which the self-test, stepping nothing, passes as NULL, and its
 * differences.  The lanes start on a 64-byte boundary, so that where a
 * seed's lanes fill whole cache lines (G a multiple of 4, at any d) no
 * 512-bit load or store of them spans two: 16, 32 or 48 bytes past one,
 * sweep G 4 and G 8 (scripts/step_kernel_bench.py) stepped 1.1-1.2x slower. */
INLINE double *setup_block(struct block *b, double *work, int64_t S, const int32_t *kind, const int32_t *audit,
                           const double *P)
{
    const int64_t G = b->G;
    b->gs = b->d + b->d % 2;
    b->ss = b->gs * G;
    widths(b);
    double *lanes = (double *)(((uintptr_t)work + 63) & ~(uintptr_t)63);
    double *p2 = lanes + S * b->ss, *law2 = p2 + 2 * G, *gate2 = law2 + 2 * G;
    int64_t *tron2 = (int64_t *)(gate2 + 2 * G), *gated2 = tron2 + 2 * G;
    b->audited = b->need_norm = 0;
    for (int64_t g = 0; g < G && kind != NULL; g++) {
        for (int e = 0; e < 2; e++) {
            p2[2 * g + e] = P[g];
            tron2[2 * g + e] = -(int64_t)(kind[g] == GLMTRON);
            gated2[2 * g + e] = -(int64_t)(kind[g] == GATED_SIGN);
            law2[2 * g + e] = (audit[g] & AUDIT_STEP_LAW) ? 1.0 : 0.0;
            gate2[2 * g + e] = (audit[g] & AUDIT_GATE) ? 1.0 : 0.0;
        }
        b->audited |= audit[g] != 0;
        b->need_norm |= (audit[g] & AUDIT_STEP_LAW) != 0;
    }
    b->p2 = p2;
    b->law2 = law2;
    b->gate2 = gate2;
    b->tron2 = tron2;
    b->gated2 = gated2;
    b->diff = (double *)(gated2 + 2 * G);
    return lanes;
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

/* The dots sk_advance takes at step j of a block of n steps, for the
 * load-time self-test: dots (G, S) of the lanes x (G, S, d) against the rows
 * A[s, j], and norms (S,) the rows' <a, a>, by the same passes in tiles of
 * four seeds.  work is as sk_advance's, for seeds [0, S). */
void sk_dots(int64_t G, int64_t S, int64_t n, int64_t d, int64_t j, double *x, const double *A, double *work,
             double *dots, double *norms)
{
    struct block b = {.G = G, .S = S, .n = n, .d = d, .A = A};
    double *lanes = setup_block(&b, work, S, NULL, NULL, NULL);
    copy_lanes(&b, 1, 0, S, x, lanes);
    for (int64_t s0 = 0; s0 < S; s0 += TILE) {
        const int w = S - s0 < TILE ? (int)(S - s0) : TILE;
        const double *a[TILE];
        for (int t = 0; t < w; t++)
            a[t] = A + ((s0 + t) * n + j) * d;
        self_dots(w, a, d, norms + s0);
        tile_steps(&b, w, lanes + s0 * b.ss, s0, j, j + 1, dots);
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
 * channel           NONE, SIGN_FLIP, RESIDUAL_SIGN or ADDITIVE, applied at
 *                   each step, where the residual-sign adversary reads the
 *                   prediction: relu(<x, a>) with relu_link
 * steps  (G, S, n)  step sizes
 * kind, audit (G,)  rule and audit flags of each group
 * step_viol, gate_viol (G, S)  audit counts, added to
 * Xt (S, d) non-NULL tracks hitting times (G == 1): lam2k (S,) is lam^{2k}
 * at the block's step j0 and is returned at step j1, hit_k (S,) is set at
 * the first k = k_base + j + 1 with lam^{2k} ||Xt - x||^2 / g_sq >= level
 * work   sk_work_size(G, s_hi - s_lo, d) doubles of scratch, which holds the
 *                   seeds' lanes while they are stepped (copy_lanes)
 *
 * Only the seeds s_lo <= s < s_hi are stepped, and only their entries of
 * x, the audit counts, lam2k and hit_k are written, so two threads with
 * disjoint seed ranges and their own work can step one block at once.
 * Seeds are walked in tiles of up to TILE from s_lo, as many as TILE_BYTES
 * holds, each in passes over the stretch. */
void sk_advance(int64_t G, int64_t S, int64_t n, int64_t d, int64_t s_lo, int64_t s_hi,
                double *x, const double *A,
                const double *clean, const double *XI, const double *NU, const double *P,
                int channel, int relu_link,
                const double *steps, const int32_t *kind, const int32_t *audit,
                int64_t *step_viol, int64_t *gate_viol,
                const double *Xt, const double *g_sq, double level, double lam2,
                double *lam2k, int64_t *hit_k, double *work,
                int64_t j0, int64_t j1, int64_t k_base)
{
    struct block b = {
        .G = G, .S = S, .n = n, .d = d, .A = A, .clean = clean, .XI = XI, .NU = NU, .steps = steps, .channel = channel, .relu_link = relu_link,
        .step_viol = step_viol, .gate_viol = gate_viol,
        .Xt = Xt, .g_sq = g_sq, .level = level, .lam2 = lam2, .lam2k = lam2k, .hit_k = hit_k, .k_base = k_base,
    };
    double *lanes = setup_block(&b, work, s_hi - s_lo, kind, audit, P);
    int tile = TILE;
    while (tile > 1 && tile * 8 * b.ss > TILE_BYTES)
        tile /= 2;

    copy_lanes(&b, 1, s_lo, s_hi, x, lanes);
    for (int64_t s0 = s_lo; s0 < s_hi && j0 < j1; s0 += tile) {
        const int w = s_hi - s0 < tile ? (int)(s_hi - s0) : tile;
        tile_steps(&b, w, lanes + (s0 - s_lo) * b.ss, s0, j0, j1, NULL);
    }
    copy_lanes(&b, 0, s_lo, s_hi, x, lanes);
}
