/* Compiled kernels: rk4_batch for the batch evaluator in dynamics.py, and
 * de_trials, the NSDE trial pass of de_core.py, which draws its crossover
 * uniforms as numpy's PCG64 Generator.random stream computed in
 * jumped-ahead lanes (see there and below). The loader in _native.py runs
 * de_trials on rows that show its uniforms and compares them with numpy's.
 *
 * rk4_batch advances B candidates from the state p_unit at t = 1 over the
 * T1 = horizon - 1 re-planned unit intervals, k RK4 steps each, and adds the
 * trapezoid integral of sum_i sqrt(p_i) to obj_unit, the shared [0, 1)
 * contribution. Each candidate goes through the arithmetic of
 * dynamics._advance_unit operation by operation, in the same order: the
 * mat-vec adds its terms in j order and the sqrt sum in node order, each
 * from 0.0, so f has the numpy loop's bytes.
 *
 * It runs two passes, interleaved. Pass 1 writes every candidate's
 * violation max(0, sum_e (x_e - x0_e)^2 - budget) to g, the squares summed
 * in gene order, and tests it against bound[b]: a candidate whose
 * violation is above its bound gets obj = +inf and is not integrated.
 * Pass 2 packs the others, in the order pass 1 met them, into groups of
 * LANES and integrates only those, each group as soon as pass 1 has
 * filled it. A C3 trial's bound is its parent's epsilon key, which a trial
 * with a key above it never beats, so its f would never be read. An
 * all-+inf bound skips nothing, and a NaN on either side compares false,
 * so a NaN row is integrated and fails below.
 *
 * The sqrt sum s of each step's start state is taken in the epilogue of the
 * step's first stage, which reads that state; after an interval's last step
 * one sqrt_sum gives s_k. The trapezoid therefore still runs 0.5 * s_0,
 * then + s_1 ... + s_k, then - 0.5 * s_k.
 *
 * A row holds D = T1 * m genes, m = n * (n - 1). Gene e of an interval is
 * the weight w[i, j] with pos[e] = j * n + i, scaled by beta_off[e] = beta[j].
 * x0 is one row of D genes: w0's off-diagonal entries, tiled. With ncols = 0,
 * x holds the B rows. With ncols > 0, x holds B rows of ncols genes, and row
 * b is base with gene cols[c] replaced by x[b, c]: the context batch of a C3
 * visit. Each lane then builds its rows in a scratch row of its own, filled
 * from base once per call, so no B x D batch exists; a row overwrites only
 * the ncols positions, and sq_dev and the weight fill read the values that
 * the whole row would hold, in the same order.
 *
 * Candidates run LANES at a time, side by side: entry (i, lane) of a state
 * sits at i * LANES + lane, and w[i, j] * beta[j] of each lane at
 * (j * n + i) * LANES + lane, so every loop below is element-wise across
 * lanes and vectorizes without reassociating any sum. gamma is expanded the
 * same way, once per call. Spare lanes of the last group repeat its first
 * candidate. LANES is 8 in every build, the doubles of one AVX-512 vector.
 *
 * One calloc holds the working block: the weights, the state, the RK
 * stages and the lane-expanded gamma, each a whole number of 64-byte lines
 * long (n * n or n lane vectors of LANES doubles), then, with ncols > 0,
 * the scratch rows, which are read one double at a time. The block starts
 * on a line, so every lane vector fills one line and no vector load or
 * store straddles two. calloc promises 16 bytes only: a helper thread's
 * block sat 32 bytes past a line in every call of a C3 run. LANES spare
 * doubles let the block round up to a line in place; aligned_alloc raised
 * the peak RSS of two C3 runs by about 5 MB.
 *
 * Both kernels split a call over threads the same way. Each thread calls
 * the kernel on all the rows with the same *next_row, 0 at the start, and
 * takes the next LANES rows with an atomic add on it until none are left,
 * so a thread that starts later, or runs on a busier core, takes fewer
 * rows and no thread waits long for another at the end. A row's f and
 * violation do not depend on which thread integrates it, or beside which
 * rows, so the bytes are those of one thread; de_trials starts each lane
 * group's uniforms at its own place in the stream.
 *
 * Returns 0 on success, 1 when a state became non-finite, 2 when the block
 * could not be allocated.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LANES 8
#define ROWS 4
/* Bytes of a cache line: LANES doubles. */
#define LINE 64

/* Not fmin/fmax: those would turn a NaN into a bound, where np.clip keeps it. */
static inline double clamp01(double v)
{
    return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
}

/* Rows i0 .. i0 + R - 1 of out = (1 - v) * (W v) - gamma * v, with gl the
 * lane-expanded gamma. The R * LANES sums stay in registers across the j
 * loop. The epilogue reads gamma lane-wise, so it is one flat loop; a
 * gamma[i] per row made the compiler vectorize it across rows, which
 * transposes q and v. With s, sqrt(v) is added to s in ascending i. */
static inline void rhs_rows(int64_t n, int64_t i0, const int R,
                            const double *restrict wb, const double *restrict gl,
                            const double *restrict v, double *restrict out,
                            double *restrict s)
{
    double q[ROWS * LANES] = {0.0};
    for (int64_t j = 0; j < n; ++j) {
        const double *vj = v + j * LANES;
        const double *col = wb + (j * n + i0) * LANES;
        for (int r = 0; r < R; ++r)
            for (int l = 0; l < LANES; ++l)
                q[r * LANES + l] += col[r * LANES + l] * vj[l];
    }
    for (int c = 0; c < R * LANES; ++c) {
        const int64_t a = i0 * LANES + c;
        out[a] = (1.0 - v[a]) * q[c] - gl[a] * v[a];
    }
    if (s != NULL)
        for (int r = 0; r < R; ++r)
            for (int l = 0; l < LANES; ++l)
                s[l] += sqrt(v[(i0 + r) * LANES + l]);
}

/* out = the right-hand side at v; with s not NULL, also s = sum_i sqrt(v_i)
 * per lane in node order. Inlined into rk4_batch's four stages, it made the
 * v3 and base builds slower. */
__attribute__((noinline)) static void rhs(int64_t n, const double *restrict wb,
                                          const double *restrict gl,
                                          const double *restrict v,
                                          double *restrict out, double *restrict s)
{
    if (s != NULL)
        for (int l = 0; l < LANES; ++l)
            s[l] = 0.0;
    int64_t i0 = 0;
    for (; i0 + ROWS <= n; i0 += ROWS)
        rhs_rows(n, i0, ROWS, wb, gl, v, out, s);
    for (; i0 < n; ++i0)
        rhs_rows(n, i0, 1, wb, gl, v, out, s);
}

/* g[l] = sum_e (rows[l][e] - x0[e])^2 over D genes for each lane's row,
 * added one gene at a time from 0 in gene order, as the numpy loop and
 * dynamics.constraint_value sum it. The violation decides selection, so
 * this order must not change. */
static void sq_dev(int64_t D, const double *const *rows, const double *restrict x0,
                   double *restrict g)
{
    for (int l = 0; l < LANES; ++l)
        g[l] = 0.0;
    for (int64_t e = 0; e < D; ++e)
        for (int l = 0; l < LANES; ++l) {
            const double d = rows[l][e] - x0[e];
            g[l] += d * d;
        }
}

/* p rounded up to the next line boundary: at most LANES - 1 doubles on, as
 * calloc returns memory aligned for a double. */
static inline double *line_start(double *p)
{
    return (double *)(((uintptr_t)p + (LINE - 1)) & ~(uintptr_t)(LINE - 1));
}

static void sqrt_sum(int64_t n, const double *restrict p, double *restrict s)
{
    for (int l = 0; l < LANES; ++l)
        s[l] = 0.0;
    for (int64_t i = 0; i < n; ++i)
        for (int l = 0; l < LANES; ++l)
            s[l] += sqrt(p[i * LANES + l]);
}

/* rows[l] = row idx[l] of x, which holds rows of width genes: the row
 * itself, or with ncols > 0 lane l's scratch row of D genes with the row's
 * ncols genes written at cols. Every load writes them, so pass 2 splices
 * again the rows that pass 1 spliced: ncols stores beside an integration. */
static void load_rows(const int64_t *idx, const double *x, int64_t width,
                      const int64_t *cols, int64_t ncols, double *scratch, int64_t D,
                      const double **rows)
{
    for (int l = 0; l < LANES; ++l) {
        rows[l] = x + idx[l] * width;
        if (ncols > 0) {
            double *row = scratch + l * D;
            for (int64_t c = 0; c < ncols; ++c)
                row[cols[c]] = rows[l][c];
            rows[l] = row;
        }
    }
}

int rk4_batch(int64_t B, int64_t n, int64_t T1, int64_t k, const double *x,
              const double *base, const int64_t *cols, int64_t ncols,
              const double *x0, const int64_t *pos, const double *beta_off,
              const double *gamma, const double *p_unit, double obj_unit,
              double budget, const double *bound, double *obj, double *g,
              int64_t *next_row)
{
    const int64_t m = n * (n - 1), nl = n * LANES, D = T1 * m;
    const int64_t width = ncols > 0 ? ncols : D, spliced = ncols > 0 ? LANES * D : 0;
    const double h = 1.0 / (double)k, hh = 0.5 * h, h6 = h / 6.0;
    double *mem = calloc((size_t)(n * nl + 7 * nl + spliced + LANES), sizeof(double));
    if (mem == NULL)
        return 2;
    double *wb = line_start(mem), *p = wb + n * nl, *tmp = p + nl;
    double *k1 = tmp + nl, *k2 = k1 + nl, *k3 = k2 + nl, *k4 = k3 + nl, *gl = k4 + nl;
    double *scratch = gl + nl;
    double s[LANES], acc[LANES] = {0.0}, total[LANES], dev[LANES];
    const double *rows[LANES];
    /* The rows to integrate, in row order; never more than 2 * LANES - 1. */
    int64_t idx[LANES], queue[2 * LANES], queued = 0;
    int status = 0;

    for (int64_t i = 0; i < n; ++i)
        for (int l = 0; l < LANES; ++l)
            gl[i * LANES + l] = gamma[i];
    for (int64_t l = 0; l < spliced; l += D)
        memcpy(scratch + l, base, (size_t)D * sizeof(double));

    for (;;) {
        /* Pass 1 over the next LANES rows that no thread has taken, if any
         * are left: the squared deviations, and the queue. */
        const int64_t b0 = __atomic_fetch_add(next_row, LANES, __ATOMIC_RELAXED);
        const int last = b0 >= B;
        if (!last) {
            for (int l = 0; l < LANES; ++l)
                idx[l] = b0 + l < B ? b0 + l : b0;
            load_rows(idx, x, width, cols, ncols, scratch, D, rows);
            sq_dev(D, rows, x0, dev);
        }
        for (int l = 0; l < LANES && b0 + l < B; ++l) {
            /* v < 0 ? 0 : v is max(0, v) with a NaN kept, as np.maximum
             * keeps it; a NaN never compares greater. */
            const double v = dev[l] - budget, viol = v < 0.0 ? 0.0 : v;
            g[b0 + l] = viol;
            if (viol > bound[b0 + l])
                obj[b0 + l] = INFINITY;
            else
                queue[queued++] = b0 + l;
        }
        /* Pass 2 integrates a lane group of queued rows as soon as one
         * fills, and the rest once no row is left to take, so the rows
         * pass 1 just read are still in cache. Without skips, every group
         * is its own. */
        while (status == 0 && (queued >= LANES || (last && queued > 0))) {
            const int64_t take = queued < LANES ? queued : LANES;
            for (int l = 0; l < LANES; ++l) {
                idx[l] = queue[l < take ? l : 0];
                total[l] = obj_unit;
            }
            load_rows(idx, x, width, cols, ncols, scratch, D, rows);
            for (int64_t i = 0; i < n; ++i)
                for (int l = 0; l < LANES; ++l)
                    p[i * LANES + l] = p_unit[i];
            for (int64_t t = 0; t < T1; ++t) {
                for (int64_t e = 0; e < m; ++e)
                    for (int l = 0; l < LANES; ++l)
                        wb[pos[e] * LANES + l] = rows[l][t * m + e] * beta_off[e];
                for (int64_t step = 0; step < k; ++step) {
                    rhs(n, wb, gl, p, k1, s);
                    for (int l = 0; l < LANES; ++l)
                        acc[l] = step == 0 ? 0.5 * s[l] : acc[l] + s[l];
                    for (int64_t i = 0; i < nl; ++i)
                        tmp[i] = p[i] + hh * k1[i];
                    rhs(n, wb, gl, tmp, k2, NULL);
                    for (int64_t i = 0; i < nl; ++i)
                        tmp[i] = p[i] + hh * k2[i];
                    rhs(n, wb, gl, tmp, k3, NULL);
                    for (int64_t i = 0; i < nl; ++i)
                        tmp[i] = p[i] + h * k3[i];
                    rhs(n, wb, gl, tmp, k4, NULL);
                    for (int64_t i = 0; i < nl; ++i) {
                        const double v =
                            p[i] + h6 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
                        p[i] = clamp01(v);
                    }
                }
                sqrt_sum(n, p, s);
                for (int l = 0; l < LANES; ++l) {
                    acc[l] += s[l];
                    acc[l] -= 0.5 * s[l];
                    total[l] += h * acc[l];
                }
                for (int64_t i = 0; i < nl; ++i)
                    if (!isfinite(p[i]))
                        status = 1;
                if (status != 0)
                    break;
            }
            for (int64_t l = 0; l < take; ++l)
                obj[idx[l]] = total[l];
            queued -= take;
            memmove(queue, queue + take, (size_t)queued * sizeof(int64_t));
        }
        if (last || status != 0)
            break;
    }
    free(mem);
    return status;
}

/* numpy's PCG64 (PCG XSL RR 128/64): each step is state * M + inc, mod
 * 2^128, and gives rotr64(hi ^ lo, hi >> 58) of the new state. */
#define PCG_MULT_HI 0x2360ed051fc65da4ULL
#define PCG_MULT_LO 0x4385df649fccf645ULL

/* (hi, lo) = (hi, lo) * (ah, al) + (ch, cl) mod 2^128, the one scalar step.
 * Without __int128 it runs in 64-bit halves: the high half of lo * al from
 * 32-bit limbs, the cross terms as 64-bit low products. */
static inline void lcg_step(uint64_t *restrict hi, uint64_t *restrict lo, uint64_t ah,
                            uint64_t al, uint64_t ch, uint64_t cl)
{
#if defined(__SIZEOF_INT128__)
    typedef unsigned __int128 u128;
    const u128 s = ((u128)*hi << 64 | *lo) * ((u128)ah << 64 | al) + ((u128)ch << 64 | cl);
    *hi = (uint64_t)(s >> 64);
    *lo = (uint64_t)s;
#else
    const uint64_t x = *lo, x0 = x & 0xffffffffu, x1 = x >> 32;
    const uint64_t a0 = al & 0xffffffffu, a1 = al >> 32;
    const uint64_t p00 = x0 * a0, p01 = x0 * a1, p10 = x1 * a0;
    const uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    const uint64_t plo = (mid << 32) | (p00 & 0xffffffffu);
    const uint64_t phi = x1 * a1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    const uint64_t nlo = plo + cl;
    *hi = phi + x * ah + *hi * al + ch + (nlo < plo);
    *lo = nlo;
#endif
}

/* (hi, lo) moved delta steps on, as PCG64.advance(delta) moves numpy's
 * generator: square-and-multiply over the affine step, in which (m, c)
 * steps 2^b times at bit b of delta. */
static void pcg_advance(uint64_t *hi, uint64_t *lo, uint64_t delta, uint64_t inc_hi,
                        uint64_t inc_lo)
{
    uint64_t mh = PCG_MULT_HI, ml = PCG_MULT_LO, ch = inc_hi, cl = inc_lo;
    for (; delta > 0; delta >>= 1) {
        if (delta & 1)
            lcg_step(hi, lo, mh, ml, ch, cl);
        /* Twice the step: c * m + c, then m * m. */
        lcg_step(&ch, &cl, mh, ml, ch, cl);
        lcg_step(&mh, &ml, mh, ml, 0, 0);
    }
}

/* numpy's Generator.random double from the output of state (hi, lo). */
static inline double pcg_double(uint64_t hi, uint64_t lo)
{
    const uint64_t v = hi ^ lo;
    const unsigned r = (unsigned)(hi >> 58);
    const uint64_t u = (v >> r) | (v << ((64u - r) & 63u));
    return (double)(int64_t)(u >> 11) * 0x1.0p-53;
}

/* The stream of a PCG64 at some state, in LANES jumped-ahead lanes: lane l
 * starts l + 1 steps past the state and steps LANES at a time with
 * A = M^LANES and C = inc * (M^(LANES-1) + ... + 1), so block b of LANES
 * doubles holds lane l's output at b * LANES + l and the chains are
 * independent. hi, lo hold each lane's next state. */
typedef struct {
    uint64_t hi[LANES], lo[LANES];
    uint64_t ah, al, ch, cl;
} pcg_lanes;

static void pcg_start(pcg_lanes *g, uint64_t state_hi, uint64_t state_lo,
                      uint64_t inc_hi, uint64_t inc_lo)
{
    g->ah = 0, g->al = 1, g->ch = 0, g->cl = 0;
    for (int l = 0; l < LANES; ++l) {
        lcg_step(&state_hi, &state_lo, PCG_MULT_HI, PCG_MULT_LO, inc_hi, inc_lo);
        g->hi[l] = state_hi;
        g->lo[l] = state_lo;
        lcg_step(&g->ah, &g->al, PCG_MULT_HI, PCG_MULT_LO, 0, 0);
        lcg_step(&g->ch, &g->cl, PCG_MULT_HI, PCG_MULT_LO, inc_hi, inc_lo);
    }
}

/* pcg_blocks writes the whole blocks of the next n doubles and steps the
 * lanes past them; it returns the count written. */
#if defined(__AVX512DQ__)
#include <immintrin.h>
/* lcg_step on one zmm per state half. lo * al takes four 1-uop vpmuludq limb
 * products; only the two cross terms need vpmullq. */
static int64_t pcg_blocks(pcg_lanes *restrict g, int64_t n, double *restrict out)
{
    const __m512i low = _mm512_set1_epi64(0xffffffff), one = _mm512_set1_epi64(1);
    const __m512i ah = _mm512_set1_epi64((long long)g->ah);
    const __m512i al = _mm512_set1_epi64((long long)g->al);
    const __m512i a1 = _mm512_srli_epi64(al, 32);
    const __m512i ch = _mm512_set1_epi64((long long)g->ch);
    const __m512i cl = _mm512_set1_epi64((long long)g->cl);
    const __m512d ulp = _mm512_set1_pd(0x1.0p-53);
    __m512i hi = _mm512_loadu_si512(g->hi), lo = _mm512_loadu_si512(g->lo);
    int64_t b = 0;
    for (; b + LANES <= n; b += LANES) {
        const __m512i u = _mm512_rorv_epi64(_mm512_xor_si512(hi, lo), _mm512_srli_epi64(hi, 58));
        _mm512_storeu_pd(out + b,
                         _mm512_mul_pd(_mm512_cvtepi64_pd(_mm512_srli_epi64(u, 11)), ulp));
        const __m512i x1 = _mm512_srli_epi64(lo, 32);
        const __m512i p00 = _mm512_mul_epu32(lo, al), p01 = _mm512_mul_epu32(lo, a1);
        const __m512i p10 = _mm512_mul_epu32(x1, al), p11 = _mm512_mul_epu32(x1, a1);
        const __m512i mid = _mm512_add_epi64(
            _mm512_add_epi64(_mm512_srli_epi64(p00, 32), _mm512_and_si512(p01, low)),
            _mm512_and_si512(p10, low));
        const __m512i plo = _mm512_or_si512(_mm512_slli_epi64(mid, 32), _mm512_and_si512(p00, low));
        const __m512i nlo = _mm512_add_epi64(plo, cl);
        __m512i nhi = _mm512_add_epi64(p11, _mm512_srli_epi64(p01, 32));
        nhi = _mm512_add_epi64(nhi, _mm512_add_epi64(_mm512_srli_epi64(p10, 32),
                                                     _mm512_srli_epi64(mid, 32)));
        nhi = _mm512_add_epi64(nhi, _mm512_add_epi64(_mm512_mullo_epi64(lo, ah),
                                                     _mm512_mullo_epi64(hi, al)));
        nhi = _mm512_add_epi64(nhi, ch);
        hi = _mm512_mask_add_epi64(nhi, _mm512_cmplt_epu64_mask(nlo, plo), nhi, one);
        lo = nlo;
    }
    _mm512_storeu_si512(g->hi, hi);
    _mm512_storeu_si512(g->lo, lo);
    return b;
}
#else
/* One scalar chain per lane through lcg_step, on a local copy of the lanes:
 * stepping g's lanes in place made the v3 and base fills 9-13% slower. */
static int64_t pcg_blocks(pcg_lanes *restrict g, int64_t n, double *restrict out)
{
    pcg_lanes s = *g;
    int64_t b = 0;
    for (; b + LANES <= n; b += LANES)
        for (int l = 0; l < LANES; ++l) {
            out[b + l] = pcg_double(s.hi[l], s.lo[l]);
            lcg_step(&s.hi[l], &s.lo[l], s.ah, s.al, s.ch, s.cl);
        }
    *g = s;
    return b;
}
#endif

/* The next n doubles of the stream. A tail shorter than LANES comes from
 * the lanes' next states without stepping them, so only the last fill of a
 * stream may have n that is not a multiple of LANES. */
static void pcg_fill(pcg_lanes *restrict g, int64_t n, double *restrict out)
{
    const int64_t b = pcg_blocks(g, n, out);
    for (int l = 0; b + l < n; ++l)
        out[b + l] = pcg_double(g->hi[l], g->lo[l]);
}

/* ((((best - x_i) + x_r1) - x_r2) * f_i) + x_i, in de_core's numpy order. */
static inline double mutant(double best, double xi, double a, double b, double f)
{
    return (((best - xi) + a) - b) * f + xi;
}

/* de_trials builds the NP current-to-best/1 trials of de_core.build_trials
 * in one pass over each row: gene j of row i keeps x[i, j] where its
 * crossover uniform exceeds cr, unless j is the row's forced gene, and
 * takes the mutant otherwise; every gene is then clamped to [0, 1]. x holds
 * the whole population, rows of D genes, which the donors index. trial
 * must not overlap x or best.
 *
 * The uniforms are numpy's Generator.random stream of the PCG64 at the four
 * state words, row after row; the caller passes the state of row 0's first
 * draw and moves the generator on. The threads of a split pass share
 * *next_row, 0 at the start, as rk4_batch's do: each takes the next LANES
 * rows with an atomic add, moves the start state i0 * D steps on, starts
 * its lanes there, and fills those rows and crosses them while they are
 * still in cache. So every row's uniforms are the same whichever thread
 * takes it. */
void de_trials(int64_t NP, int64_t D, const double *restrict x,
               const double *restrict best, const int64_t *restrict r1,
               const int64_t *restrict r2, const double *restrict f,
               const int64_t *restrict forced, double cr, uint64_t state_hi, uint64_t state_lo,
               uint64_t inc_hi, uint64_t inc_lo, double *restrict trial, int64_t *next_row)
{
    pcg_lanes g;
    for (;;) {
        const int64_t i0 = __atomic_fetch_add(next_row, LANES, __ATOMIC_RELAXED);
        if (i0 >= NP)
            break;
        const int64_t i1 = i0 + LANES < NP ? i0 + LANES : NP;
        uint64_t hi = state_hi, lo = state_lo;
        pcg_advance(&hi, &lo, (uint64_t)(i0 * D), inc_hi, inc_lo);
        pcg_start(&g, hi, lo, inc_hi, inc_lo);
        pcg_fill(&g, (i1 - i0) * D, trial + i0 * D);
        for (int64_t i = i0; i < i1; ++i) {
            const double *xi = x + i * D, *a = x + r1[i] * D, *b = x + r2[i] * D;
            double *t = trial + i * D;
            const double fi = f[i];
            /* Clamping both sides before the pick gives the same bytes as
             * clamping the pick, and only this form vectorizes below v4. */
            for (int64_t j = 0; j < D; ++j) {
                const double v = clamp01(mutant(best[j], xi[j], a[j], b[j], fi));
                t[j] = t[j] > cr ? clamp01(xi[j]) : v;
            }
            const int64_t j = forced[i];
            t[j] = clamp01(mutant(best[j], xi[j], a[j], b[j], fi));
        }
    }
}
