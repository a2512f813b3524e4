/*
 * Operator rows: the SA perturbation and the DPSO position update, one
 * sequence row per chain, with the counter RNG computed inline.
 *
 * This is the compiled twin of repro/permutation.py's batched operators
 * driven by repro/gpusim/rng.py's DeviceRNG, and must stay bit-identical
 * to them.  Draw k of thread t under seed s is
 *
 *     splitmix64((s ^ splitmix64(k * GOLDEN + SALT)) + t * GOLDEN)
 *
 * in wrapping uint64 arithmetic, exactly as DeviceRNG.raw computes it; a
 * launch owns the counter rounds [counter, counter + rounds) that the
 * caller reserved, and uses them in the NumPy operators' order.  Only
 * integers flow through here (the uniform gates compare one double built
 * the same way as DeviceRNG.uniform), so no floating-point contraction
 * can move a result.
 *
 * Entry points return 0 on success, 1 + k when entry k (row-major) of an
 * index input is out of range (nothing is written then), and -1 when row
 * scratch cannot be had: more than PERT_CAP positions (the caller checks
 * this first) or a failed allocation.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL
#define STREAM_SALT 0xD6E8FEB86659FD93ULL

/* Most perturbation positions per row; more take the NumPy path. */
#define PERT_CAP 64
/* Counter rounds one DPSO update consumes: w-gate, i, j, c1-gate, cut,
 * c2-gate, a, b. */
#define DPSO_ROUNDS 8

static uint64_t splitmix64(uint64_t z) {
    z += GOLDEN;
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

/* The thread-independent half of DeviceRNG.raw for counter round c. */
static uint64_t round_base(uint64_t seed, uint64_t c) {
    return seed ^ splitmix64(c * GOLDEN + STREAM_SALT);
}

static uint64_t raw(uint64_t base, uint64_t tid) {
    return splitmix64(base + tid * GOLDEN);
}

/* DeviceRNG.uniform: the high 32 bits over 2**32. */
static double uniform(uint64_t base, uint64_t tid) {
    return (double)(raw(base, tid) >> 32) / 4294967296.0;
}

/* DeviceRNG.randint: low + ((hi32 * span) >> 32), span = high - low. */
static int64_t randint(uint64_t base, uint64_t tid, int64_t low,
                       uint64_t span) {
    return low + (int64_t)(((raw(base, tid) >> 32) * span) >> 32);
}

/*
 * One draw per row at counter round `counter` for threads tid0 + row:
 * kind 0 = raw (uint64 out), 1 = uniform (double out), 2 = randint in
 * [low, low + span) (int64 out).  The RNG parity tests drive this.
 */
void rng_rows(uint64_t seed, uint64_t counter, uint64_t tid0,
              ptrdiff_t rows, int kind, int64_t low, uint64_t span,
              void *out) {
    uint64_t base = round_base(seed, counter);
    for (ptrdiff_t i = 0; i < rows; i++) {
        uint64_t tid = tid0 + (uint64_t)i;
        if (kind == 0)
            ((uint64_t *)out)[i] = raw(base, tid);
        else if (kind == 1)
            ((double *)out)[i] = uniform(base, tid);
        else
            ((int64_t *)out)[i] = randint(base, tid, low, span);
    }
}

/*
 * SA perturbation (repro.kernels.perturbation): cand = seqs, then, when
 * `refresh` is set, k distinct positions in [min_position, n) are drawn
 * by draw-and-displace into `positions` (rounds 0..k-1, as
 * batched_sample_distinct), and the jobs at the row's positions are
 * Fisher-Yates shuffled (k - 1 further rounds, as
 * batched_partial_fisher_yates).  Stored positions wrap once when
 * negative, as NumPy indices do.
 */
int64_t perturb_rows(const int32_t *seqs, int32_t *cand, int64_t *positions,
                     ptrdiff_t rows, ptrdiff_t n, ptrdiff_t k, int refresh,
                     int64_t min_position, uint64_t seed, uint64_t counter,
                     uint64_t tid0) {
    if (k > PERT_CAP) return -1;
    if (!refresh) {
        for (ptrdiff_t e = 0; e < rows * k; e++)
            if (positions[e] < -n || positions[e] >= n) return 1 + e;
    }
    ptrdiff_t sampled = refresh ? k : 0;
    uint64_t base[2 * PERT_CAP];
    for (ptrdiff_t r = 0; r < sampled + (k > 0 ? k - 1 : 0); r++)
        base[r] = round_base(seed, counter + (uint64_t)r);
    uint64_t free_slots = (uint64_t)(n - min_position);
    for (ptrdiff_t i = 0; i < rows; i++) {
        uint64_t tid = tid0 + (uint64_t)i;
        const int32_t *src = seqs + i * n;
        int32_t *dst = cand + i * n;
        int64_t *pos = positions + i * k;
        if (dst != src) memmove(dst, src, (size_t)n * sizeof *dst);
        if (refresh) {
            int64_t sorted[PERT_CAP];
            for (ptrdiff_t j = 0; j < k; j++) {
                int64_t p = randint(base[j], tid, 0,
                                    free_slots - (uint64_t)j);
                ptrdiff_t at = 0;
                for (; at < j && p >= sorted[at]; at++) p++;
                for (ptrdiff_t t = j; t > at; t--) sorted[t] = sorted[t - 1];
                sorted[at] = p;
                pos[j] = min_position + p;
            }
        }
        int64_t at[PERT_CAP];
        int32_t vals[PERT_CAP];
        for (ptrdiff_t j = 0; j < k; j++) {
            at[j] = pos[j] < 0 ? pos[j] + n : pos[j];
            vals[j] = dst[at[j]];
        }
        for (ptrdiff_t j = k - 1; j > 0; j--) {
            int64_t w = randint(base[sampled + (k - 1 - j)], tid, 0,
                                (uint64_t)j + 1);
            int32_t v = vals[j];
            vals[j] = vals[w];
            vals[w] = v;
        }
        for (ptrdiff_t j = 0; j < k; j++) dst[at[j]] = vals[j];
    }
    return 0;
}

/* Is every entry of the rows x n matrix a job index in [0, n)? */
static ptrdiff_t first_bad_job(const int32_t *m, ptrdiff_t count,
                               ptrdiff_t n) {
    for (ptrdiff_t e = 0; e < count; e++)
        if (m[e] < 0 || m[e] >= n) return e;
    return -1;
}

/*
 * DPSO position update (repro.core.parallel_dpso), in place on x:
 * x = c2 (+) F3(c1 (+) F2(w (+) F1(x), pbest), social).  F1 swaps two
 * distinct positions, F2 keeps x's prefix up to a cut in [1, n) and fills
 * the rest with the missing jobs in pbest order, F3 keeps x's segment
 * [min(a, b), max(a, b)) and fills the other positions left to right with
 * the missing jobs in social order.  `social_stride` is n for one
 * attractor row per thread and 0 for a broadcast swarm best.  Needs
 * n >= 2 and permutation rows; out-of-range jobs are reported (1 + their
 * row-major entry, counted over x, then pbest, then social).
 */
int64_t dpso_update_rows(int32_t *x, const int32_t *pbest,
                         const int32_t *social, ptrdiff_t social_stride,
                         ptrdiff_t rows, ptrdiff_t n, double w, double c1,
                         double c2, uint64_t seed, uint64_t counter,
                         uint64_t tid0) {
    ptrdiff_t bad = first_bad_job(x, rows * n, n);
    if (bad >= 0) return 1 + bad;
    bad = first_bad_job(pbest, rows * n, n);
    if (bad >= 0) return 1 + rows * n + bad;
    bad = first_bad_job(social, social_stride ? rows * n : n, n);
    if (bad >= 0) return 1 + 2 * rows * n + bad;
    unsigned char *taken = malloc((size_t)n);
    if (!taken) return -1;
    uint64_t base[DPSO_ROUNDS];
    for (int r = 0; r < DPSO_ROUNDS; r++)
        base[r] = round_base(seed, counter + (uint64_t)r);
    for (ptrdiff_t i = 0; i < rows; i++) {
        uint64_t tid = tid0 + (uint64_t)i;
        int32_t *row = x + i * n;
        const int32_t *y = pbest + i * n;
        const int32_t *g = social + i * social_stride;
        if (uniform(base[0], tid) < w) {
            int64_t a = randint(base[1], tid, 0, (uint64_t)n);
            int64_t b = randint(base[2], tid, 0, (uint64_t)n - 1);
            b += b >= a;
            int32_t v = row[a];
            row[a] = row[b];
            row[b] = v;
        }
        if (uniform(base[3], tid) < c1) {
            int64_t cut = randint(base[4], tid, 1, (uint64_t)n - 1);
            memset(taken, 0, (size_t)n);
            for (int64_t j = 0; j < cut; j++) taken[row[j]] = 1;
            ptrdiff_t out = cut;
            for (ptrdiff_t j = 0; j < n && out < n; j++)
                if (!taken[y[j]]) row[out++] = y[j];
        }
        if (uniform(base[5], tid) < c2) {
            int64_t a = randint(base[6], tid, 0, (uint64_t)n);
            int64_t b = randint(base[7], tid, 0, (uint64_t)n);
            int64_t lo = a < b ? a : b, hi = a < b ? b : a;
            memset(taken, 0, (size_t)n);
            for (int64_t j = lo; j < hi; j++) taken[row[j]] = 1;
            ptrdiff_t out = 0;
            for (ptrdiff_t j = 0; j < n; j++) {
                if (taken[g[j]]) continue;
                if (out == lo) out = hi;
                if (out >= n) break;
                row[out++] = g[j];
            }
        }
    }
    free(taken);
    return 0;
}
