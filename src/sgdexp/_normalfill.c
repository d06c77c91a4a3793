/* Generator.standard_normal(out=) of numpy, bit for bit and faster.
 *
 * numpy draws each normal by its 256-strip ziggurat (random_standard_normal
 * in libnpyrandom.a): one 64-bit word gives the strip idx (low 8 bits), a
 * sign bit and a 52-bit mantissa rabs; the value rabs * wi[idx] is returned
 * when rabs < ki[idx], ~98.5% of words.  sk_normal_fill runs that fast path
 * inline, with the sign applied as a bit, and hands every other word to
 * numpy's own function through a bitgen_t that returns the word first, so
 * numpy's slow path draws what it would have drawn.  The tables are private
 * to numpy: sk_normal_init reads them by probing numpy's function.
 *
 * sk_sphere_fill draws rows of such normals and divides each row by its
 * norm while it is still in L1, as np.linalg.norm(g, axis=1) and g / norms
 * would: the sum of squares in the order of numpy's pairwise add.reduce,
 * then a correctly rounded sqrt and divide.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* numpy/random/distributions.h, which also needs Python.h. */
double random_standard_normal(bitgen_t *bitgen_state);

#define MANTISSA 0x000fffffffffffffULL

static double wi[256];
static uint64_t ki[256];

/* A bit generator that returns `word`, then the words of `inner`. */
typedef struct {
    bitgen_t *inner;
    uint64_t word;
    int pending;
} replay_t;

static uint64_t replay_uint64(void *st)
{
    replay_t *r = st;
    if (r->pending) {
        r->pending = 0;
        return r->word;
    }
    return r->inner->next_uint64(r->inner->state);
}

static uint32_t replay_uint32(void *st)
{
    replay_t *r = st;
    return r->inner->next_uint32(r->inner->state);
}

static double replay_double(void *st)
{
    replay_t *r = st;
    return r->inner->next_double(r->inner->state);
}

static uint64_t replay_raw(void *st)
{
    replay_t *r = st;
    return r->inner->next_raw(r->inner->state);
}

/* Each draw of numpy's fill: one word from next_uint64, then the ziggurat. */
static void fill(bitgen_t *bitgen, int64_t n, double *out)
{
    uint64_t (*next)(void *) = bitgen->next_uint64;
    void *state = bitgen->state;
    for (int64_t i = 0; i < n; i++) {
        const uint64_t r = next(state);
        const unsigned idx = r & 0xff;
        const uint64_t rabs = (r >> 9) & MANTISSA;
        double x = (double)rabs * wi[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= ((r >> 8) & 1) << 63;
        memcpy(&x, &bits, sizeof x);
        if (rabs < ki[idx]) {
            out[i] = x;
        } else {
            replay_t rp = {bitgen, r, 1};
            bitgen_t replay = {&rp, replay_uint64, replay_uint32, replay_double, replay_raw};
            out[i] = random_standard_normal(&replay);
        }
    }
}

void sk_normal_fill(bitgen_t *bitgen, int64_t n, double *out)
{
    fill(bitgen, n, out);
}

/* The sum of a[i]^2 in the order of numpy's DOUBLE_pairwise_sum over the
 * squares: in sequence below 8 terms, in 8 lane sums up to 128, and above
 * that the two halves, split at a multiple of 8, each summed alike. */
static double pairwise_sumsq(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i] * a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j] * a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j] * a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i] * a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sumsq(a, n2) + pairwise_sumsq(a + n2, n - n2);
}

/* Fill `rows` rows of d normals and divide each by its norm.  (numpy's
 * reduce adds its sum to add's identity 0.0, which moves no sum of squares.)
 * A row of norm 0 is left as drawn; the number of such rows is returned,
 * for the caller to redraw. */
int64_t sk_sphere_fill(bitgen_t *bitgen, int64_t rows, int64_t d, double *out)
{
    int64_t zeros = 0;
    for (int64_t k = 0; k < rows; k++) {
        double *row = out + k * d;
        fill(bitgen, d, row);
        const double norm = sqrt(pairwise_sumsq(row, d));
        if (norm == 0.0) {
            zeros++;
            continue;
        }
        for (int64_t i = 0; i < d; i++)
            row[i] /= norm;
    }
    return zeros;
}

/* A scripted bit generator for the probe: `word` first, then, should numpy
 * reject it, doubles of 0.5 and sign-0 words with rabs = 0 that walk the
 * strips until one accepts; `calls` counts every draw. */
typedef struct {
    uint64_t word;
    uint64_t calls;
} script_t;

static uint64_t script_uint64(void *st)
{
    script_t *s = st;
    return s->calls++ == 0 ? s->word : s->calls & 0xff;
}

static uint32_t script_uint32(void *st)
{
    return (uint32_t)script_uint64(st);
}

static double script_double(void *st)
{
    ((script_t *)st)->calls++;
    return 0.5;
}

/* numpy's normal from the word of strip idx with mantissa rabs and sign 0;
 * *fast is set when numpy took no draw beyond the word. */
static double probe(unsigned idx, uint64_t rabs, int *fast)
{
    script_t s = {(rabs << 9) | idx, 0};
    bitgen_t bitgen = {&s, script_uint64, script_uint32, script_double, script_uint64};
    const double x = random_standard_normal(&bitgen);
    *fast = s.calls == 1;
    return x;
}

/* Read numpy's tables: ki[idx] is the least rejected mantissa (acceptance is
 * rabs < ki, so a bisection over [0, 2^52] finds it), and wi[idx] the value
 * of mantissa 1.  A strip with ki <= 1 keeps wi = 0, which gives the same
 * value, +-0, for its only accepted mantissa 0. */
void sk_normal_init(void)
{
    for (unsigned idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = MANTISSA + 1;
        int fast;
        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;
            probe(idx, mid, &fast);
            if (fast)
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[idx] = lo;
        wi[idx] = 0.0;
        if (lo > 1)
            wi[idx] = probe(idx, 1, &fast);
    }
}
