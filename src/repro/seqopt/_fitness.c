/*
 * The per-thread programs of the paper's kernels, one row at a time.
 *
 * Fitness: row-wise O(n) sequence optimizers.  Each function scores S job
 * sequences, one row of the int32 (S, n) sequence matrix at a time,
 * reading the per-job arrays in job-index order (no gathered (S, n)
 * copies).  Every row mirrors
 * repro.seqopt.batched.batched_cdd_from_gathered /
 * batched_ucddcp_from_gathered operation for operation:
 *
 *   - prefix sums are sequential, the order np.cumsum uses;
 *   - B_k = (B_tot - Bcum_k) + b_k, the order of ``b_cum[:, -1:] - b_cum + b``;
 *   - tau and k_max are counts over the whole row, r = min(tau, k_max)
 *     unless the start-at-zero schedule is kept;
 *   - the UCDDCP compression pass reuses the CDD pass's prefix sums.
 *
 * Only the three penalty sums differ in order: they are accumulated in
 * sequence order, where np.einsum picks its own.  On integer-valued data
 * every sum is exact, so the results are bit-identical to the NumPy
 * reference; on fractional data they agree to rounding.
 *
 * Crossover: the DPSO update's permutation crossovers F2 (one-point) and
 * F3 (two-point) as one entry point, one O(n) pass per row with an n-byte
 * "used" bitmap; F2 is F3 with the kept segment starting at 0.  It is a
 * pure integer function of (x, y, lo, hi, mask); the cut points and gates
 * are drawn by the caller (repro.permutation), so it equals the NumPy
 * reference there by construction.
 *
 * Build flags are fixed by the loader (repro.seqopt.compiled): -O2
 * -ffp-contract=off, and never -ffast-math or -march=native, so a
 * multiply-add is never fused and every ISA produces the same bits.
 *
 * Return codes: 0 ok, 1 a job index outside [0, n), 2 out of memory,
 * 3 a row that is not a permutation (a repeated job), 4 a cut outside
 * 0 <= lo <= hi <= n.  Every index is checked before it is read, and
 * every write stays inside its row.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define FIT_OK 0
#define FIT_BAD_INDEX 1
#define FIT_NO_MEMORY 2
#define FIT_NOT_PERMUTATION 3
#define FIT_BAD_CUT 4

/* np.maximum(0.0, x): NaN propagates. */
static double clamp0(double x) { return (0.0 > x) ? 0.0 : x; }

/*
 * The CDD pass shared by both problems.  Fills c[k] (start-at-zero
 * completions), ap[k] (A_{k+1} = sum of alpha over positions 0..k) and
 * bs[k] (B_{k+1} = sum of beta over positions k..n-1); returns the
 * due-date position r through *r_out and the right shift of the
 * start-at-zero schedule through *shift_out.
 */
static int cdd_pass(const int32_t *seq, ptrdiff_t n, const double *p,
                    const double *a, const double *b, double d, double *c,
                    double *ap, double *bs, ptrdiff_t *r_out,
                    double *shift_out) {
    double cp = 0.0, ca = 0.0, cb = 0.0;
    ptrdiff_t tau = 0, k_max = 0, r, k;

    for (k = 0; k < n; k++) {
        int32_t j = seq[k];
        if (j < 0 || j >= n) return FIT_BAD_INDEX;
        cp += p[j];
        c[k] = cp;
        if (cp <= d) tau++;
        ca += a[j];
        ap[k] = ca;
        cb += b[j];
        bs[k] = cb;
    }
    for (k = 0; k < n; k++) {
        double a_excl = (k > 0) ? ap[k - 1] : 0.0;
        bs[k] = (cb - bs[k]) + b[seq[k]];
        if (bs[k] >= a_excl) k_max++;
    }

    {
        double pe0 = (tau > 0) ? ap[tau - 1] : 0.0;
        double pl0 = (tau < n) ? bs[tau] : 0.0;
        int keep = (tau == 0) || (pl0 >= pe0);
        r = keep ? 0 : (tau < k_max ? tau : k_max);
    }
    *r_out = r;
    *shift_out = (r > 0) ? d - c[r - 1] : 0.0;
    return FIT_OK;
}

static double *scratch(ptrdiff_t n) {
    return (double *)malloc(3 * (size_t)(n > 0 ? n : 1) * sizeof(double));
}

int cdd_objective(const int32_t *seqs, ptrdiff_t s_rows, ptrdiff_t n,
                  const double *p, const double *a, const double *b,
                  double d, double *out) {
    double *c = scratch(n), *ap, *bs;
    ptrdiff_t i, k, r;
    int rc = FIT_OK;

    if (c == NULL) return FIT_NO_MEMORY;
    ap = c + n;
    bs = ap + n;
    for (i = 0; i < s_rows; i++) {
        const int32_t *seq = seqs + i * n;
        double shift, se = 0.0, st = 0.0;

        rc = cdd_pass(seq, n, p, a, b, d, c, ap, bs, &r, &shift);
        if (rc != FIT_OK) break;
        for (k = 0; k < n; k++) {
            int32_t j = seq[k];
            double comp = c[k] + shift;
            se += a[j] * clamp0(d - comp);
            st += b[j] * clamp0(comp - d);
        }
        out[i] = se + st;
    }
    free(c);
    return rc;
}

int ucddcp_objective(const int32_t *seqs, ptrdiff_t s_rows, ptrdiff_t n,
                     const double *p, const double *m, const double *a,
                     const double *b, const double *g, double d,
                     double *out) {
    double *c = scratch(n), *ap, *bs;
    ptrdiff_t i, k, r;
    int rc = FIT_OK;

    if (c == NULL) return FIT_NO_MEMORY;
    ap = c + n;
    bs = ap + n;
    for (i = 0; i < s_rows; i++) {
        const int32_t *seq = seqs + i * n;
        double shift, anchor, cum = 0.0, se = 0.0, st = 0.0, sg = 0.0;

        rc = cdd_pass(seq, n, p, a, b, d, c, ap, bs, &r, &shift);
        if (rc != FIT_OK) break;
        /* Compression pass: c[k] becomes the compressed prefix sum. */
        for (k = 0; k < n; k++) {
            int32_t j = seq[k];
            int tardy = (r >= 1) ? (k + 1 > r) : (c[k] + shift > d);
            double rate = (tardy ? bs[k] : (k > 0 ? ap[k - 1] : 0.0)) - g[j];
            double red = (rate > 0.0) ? p[j] - m[j] : 0.0;
            cum += p[j] - red;
            c[k] = cum;
            sg += g[j] * red;
        }
        anchor = c[r > 0 ? r - 1 : 0];
        for (k = 0; k < n; k++) {
            int32_t j = seq[k];
            double comp = (r > 0) ? (d + c[k]) - anchor : c[k];
            se += a[j] * clamp0(d - comp);
            st += b[j] * clamp0(comp - d);
        }
        out[i] = (se + st) + sg;
    }
    free(c);
    return rc;
}

/*
 * One crossover row: the child keeps x[lo:hi] in place and fills the other
 * positions, left to right, with y's remaining jobs in y order.  ``used``
 * is n bytes of scratch.
 */
static int crossover_row(const int32_t *x, const int32_t *y, ptrdiff_t n,
                         ptrdiff_t lo, ptrdiff_t hi, unsigned char *used,
                         int32_t *out) {
    ptrdiff_t k, w = 0, fill = n - (hi - lo);

    if (lo < 0 || lo > hi || hi > n) return FIT_BAD_CUT;
    memset(used, 0, (size_t)n);
    for (k = lo; k < hi; k++) {
        int32_t j = x[k];
        if (j < 0 || j >= n) return FIT_BAD_INDEX;
        if (used[j]) return FIT_NOT_PERMUTATION;
        used[j] = 1;
        out[k] = j;
    }
    for (k = 0; k < n; k++) {
        int32_t j = y[k];
        if (j < 0 || j >= n) return FIT_BAD_INDEX;
        if (used[j]) continue;
        if (w >= fill) return FIT_NOT_PERMUTATION;
        used[j] = 1;
        out[w < lo ? w : w + (hi - lo)] = j;
        w++;
    }
    return (w == fill) ? FIT_OK : FIT_NOT_PERMUTATION;
}

/*
 * Both crossovers, one gated row loop: row i of the child keeps
 * x[i, lo[i]:hi[i]] in place and fills the other positions with y[i]'s
 * remaining jobs in y order.  F2 (one-point) is lo = 0, hi = cut; F3
 * (two-point) is lo = c1, hi = c2.  Rows with mask[i] == 0 copy x.
 */
int crossover(const int32_t *x, const int32_t *y, const int64_t *lo,
              const int64_t *hi, const uint8_t *mask, ptrdiff_t s_rows,
              ptrdiff_t n, int32_t *out) {
    unsigned char *used = (unsigned char *)malloc((size_t)(n > 0 ? n : 1));
    ptrdiff_t i, k;
    int rc = FIT_OK;

    if (used == NULL) return FIT_NO_MEMORY;
    for (i = 0; i < s_rows && rc == FIT_OK; i++) {
        const int32_t *xi = x + i * n;
        int32_t *oi = out + i * n;
        if (mask[i]) {
            rc = crossover_row(xi, y + i * n, n, (ptrdiff_t)lo[i],
                               (ptrdiff_t)hi[i], used, oi);
            continue;
        }
        for (k = 0; k < n; k++) {
            if (xi[k] < 0 || xi[k] >= n) {
                rc = FIT_BAD_INDEX;
                break;
            }
            oi[k] = xi[k];
        }
    }
    free(used);
    return rc;
}
