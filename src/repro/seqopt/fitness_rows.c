/*
 * Fitness rows: the O(n) CDD and UCDDCP closed forms, one sequence row per
 * chain, read straight from the integer sequence matrix.
 *
 * This is the compiled twin of repro/seqopt/batched.py and must stay
 * bit-identical to it.  Every floating-point operation below mirrors one
 * NumPy operation of the reference, in the same order: prefix sums start
 * from the first term (np.cumsum), suffix sums are (total - prefix) + x,
 * and each objective term is a left-to-right sum started from its first
 * product (np.cumsum(x * y, axis=1)[:, -1]).  Build with
 * -ffp-contract=off so no multiply-add is fused.
 *
 * Entry points return 0 on success, -1 when scratch memory cannot be
 * allocated, and 1 + k when entry k (row-major) of the sequence matrix is
 * not a valid job index; negative indices wrap once, as in NumPy.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

/* np.maximum(0.0, x): NaN propagates. */
static double max0(double x) { return 0.0 >= x ? 0.0 : x; }

/* Per-call scratch: one row's worth of each temporary, never (S, n). */
typedef struct {
    double *a, *b;                      /* the row's gathered penalties */
    double *c_init, *a_pref, *b_cum;    /* prefix sums (np.cumsum) */
    double *p, *m, *g;                  /* UCDDCP only: more job fields */
    double *cum, *reduction;            /* UCDDCP only: compression pass */
} Scratch;

static int scratch_alloc(Scratch *s, ptrdiff_t m, int ucddcp) {
    int used = ucddcp ? 10 : 5;
    double *block = malloc((size_t)m * (size_t)used * sizeof *block);
    if (!block) return -1;
    double **fields[] = {&s->a, &s->b, &s->c_init, &s->a_pref, &s->b_cum,
                         &s->p, &s->m, &s->g, &s->cum, &s->reduction};
    for (int f = 0; f < 10; f++)
        *fields[f] = f < used ? block + f * m : NULL;
    return 0;
}

static void scratch_free(Scratch *s) { free(s->a); }

/*
 * Gather one row's job fields and take the prefix sums in the same pass,
 * bounds-checking every index; returns the bad column or -1.  mp and g
 * are NULL for CDD.
 */
#define DEFINE_GATHER_ROW(NAME, T)                                          \
    static ptrdiff_t NAME(const T *row, ptrdiff_t m, ptrdiff_t n,           \
                          const double *p, const double *mp,                \
                          const double *a, const double *b,                 \
                          const double *g, double d, const Scratch *s,      \
                          ptrdiff_t *tau) {                                 \
        double c = 0.0, acc_a = 0.0, acc_b = 0.0;                           \
        ptrdiff_t count = 0;                                                \
        for (ptrdiff_t j = 0; j < m; j++) {                                 \
            int64_t v = (int64_t)row[j];                                    \
            if (v < 0) v += n;                                              \
            if (v < 0 || v >= n) return j;                                  \
            double pj = p[v], aj = a[v], bj = b[v];                         \
            s->a[j] = aj;                                                   \
            s->b[j] = bj;                                                   \
            if (mp) {                                                       \
                s->p[j] = pj;                                               \
                s->m[j] = mp[v];                                            \
                s->g[j] = g[v];                                             \
            }                                                               \
            c = j > 0 ? c + pj : pj;                                        \
            acc_a = j > 0 ? acc_a + aj : aj;                                \
            acc_b = j > 0 ? acc_b + bj : bj;                                \
            s->c_init[j] = c;                                               \
            s->a_pref[j] = acc_a;                                           \
            s->b_cum[j] = acc_b;                                            \
            count += c <= d;                                                \
        }                                                                   \
        *tau = count;                                                       \
        return -1;                                                          \
    }
DEFINE_GATHER_ROW(gather_row_i32, int32_t)
DEFINE_GATHER_ROW(gather_row_i64, int64_t)

/*
 * The CDD part shared by both families, after the gather: k_max, the
 * keep rule and the shift.  Returns r and leaves the shift in *shift.
 */
static ptrdiff_t cdd_anchor(const Scratch *s, ptrdiff_t m, ptrdiff_t tau,
                            double d, double *shift) {
    double total_b = s->b_cum[m - 1];
    ptrdiff_t k_max = 0;
    for (ptrdiff_t j = 0; j < m; j++) {
        double b_suf = (total_b - s->b_cum[j]) + s->b[j];
        double a_excl = j > 0 ? s->a_pref[j - 1] : 0.0;
        k_max += b_suf >= a_excl;
    }
    ptrdiff_t r = tau < k_max ? tau : k_max;
    double pe0 = tau > 0 ? s->a_pref[tau - 1] : 0.0;
    double pl0 = tau < m ? (total_b - s->b_cum[tau]) + s->b[tau] : 0.0;
    if (tau == 0 || pl0 >= pe0) r = 0;
    *shift = r > 0 ? d - s->c_init[r - 1] : 0.0;
    return r;
}

static double cdd_row(const Scratch *s, ptrdiff_t m, ptrdiff_t tau,
                      double d) {
    double shift;
    cdd_anchor(s, m, tau, d, &shift);
    double sum_early = 0.0, sum_tardy = 0.0;
    for (ptrdiff_t j = 0; j < m; j++) {
        double completion = s->c_init[j] + shift;
        double early = s->a[j] * max0(d - completion);
        double tardy = s->b[j] * max0(completion - d);
        sum_early = j > 0 ? sum_early + early : early;
        sum_tardy = j > 0 ? sum_tardy + tardy : tardy;
    }
    return sum_early + sum_tardy;
}

static double ucddcp_row(const Scratch *s, ptrdiff_t m, ptrdiff_t tau,
                         double d) {
    double shift;
    ptrdiff_t r = cdd_anchor(s, m, tau, d, &shift);
    double total_b = s->b_cum[m - 1];
    double cum = 0.0;
    for (ptrdiff_t j = 0; j < m; j++) {
        int is_tardy = r >= 1 ? j + 1 > r : s->c_init[j] + shift > d;
        double b_suf = (total_b - s->b_cum[j]) + s->b[j];
        double a_excl = j > 0 ? s->a_pref[j - 1] : 0.0;
        double rate = (is_tardy ? b_suf : a_excl) - s->g[j];
        double reduction = rate > 0.0 ? s->p[j] - s->m[j] : 0.0;
        double p_eff = s->p[j] - reduction;
        cum = j > 0 ? cum + p_eff : p_eff;
        s->cum[j] = cum;
        s->reduction[j] = reduction;
    }
    double anchor = s->cum[r > 0 ? r - 1 : 0];
    double sum_early = 0.0, sum_tardy = 0.0, sum_comp = 0.0;
    for (ptrdiff_t j = 0; j < m; j++) {
        double completion = r > 0 ? (d + s->cum[j]) - anchor : s->cum[j];
        double early = s->a[j] * max0(d - completion);
        double tardy = s->b[j] * max0(completion - d);
        double comp = s->g[j] * s->reduction[j];
        sum_early = j > 0 ? sum_early + early : early;
        sum_tardy = j > 0 ? sum_tardy + tardy : tardy;
        sum_comp = j > 0 ? sum_comp + comp : comp;
    }
    return (sum_early + sum_tardy) + sum_comp;
}

#define DEFINE_ENTRY_POINTS(SUFFIX, T)                                      \
    int64_t cdd_rows_##SUFFIX(const T *seqs, ptrdiff_t rows, ptrdiff_t m,   \
                              ptrdiff_t n, const double *p, const double *a, \
                              const double *b, double d, double *out) {     \
        Scratch s;                                                          \
        if (scratch_alloc(&s, m, 0)) return -1;                             \
        for (ptrdiff_t i = 0; i < rows; i++) {                              \
            ptrdiff_t tau;                                                  \
            ptrdiff_t bad = gather_row_##SUFFIX(seqs + i * m, m, n, p, NULL, \
                                                a, b, NULL, d, &s, &tau);   \
            if (bad >= 0) {                                                 \
                scratch_free(&s);                                           \
                return 1 + (int64_t)(i * m + bad);                          \
            }                                                               \
            out[i] = cdd_row(&s, m, tau, d);                                \
        }                                                                   \
        scratch_free(&s);                                                   \
        return 0;                                                           \
    }                                                                       \
    int64_t ucddcp_rows_##SUFFIX(const T *seqs, ptrdiff_t rows,             \
                                 ptrdiff_t m, ptrdiff_t n, const double *p, \
                                 const double *mp, const double *a,         \
                                 const double *b, const double *g,          \
                                 double d, double *out) {                   \
        Scratch s;                                                          \
        if (scratch_alloc(&s, m, 1)) return -1;                             \
        for (ptrdiff_t i = 0; i < rows; i++) {                              \
            ptrdiff_t tau;                                                  \
            ptrdiff_t bad = gather_row_##SUFFIX(seqs + i * m, m, n, p, mp,  \
                                                a, b, g, d, &s, &tau);      \
            if (bad >= 0) {                                                 \
                scratch_free(&s);                                           \
                return 1 + (int64_t)(i * m + bad);                          \
            }                                                               \
            out[i] = ucddcp_row(&s, m, tau, d);                             \
        }                                                                   \
        scratch_free(&s);                                                   \
        return 0;                                                           \
    }
DEFINE_ENTRY_POINTS(i32, int32_t)
DEFINE_ENTRY_POINTS(i64, int64_t)
