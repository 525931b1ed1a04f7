/*
 * Row-wise O(n) sequence optimizers: the fitness program of one thread.
 *
 * Each function scores S job sequences, one row of the int32 (S, n)
 * sequence matrix at a time, reading the per-job arrays in job-index order
 * (no gathered (S, n) copies).  Every row mirrors
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
 * Build flags are fixed by the loader (repro.seqopt.compiled): -O2
 * -ffp-contract=off, and never -ffast-math or -march=native, so a
 * multiply-add is never fused and every ISA produces the same bits.
 *
 * Return codes: 0 ok, 1 a job index outside [0, n), 2 out of memory.
 * Every index is checked before it is read.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#define FIT_OK 0
#define FIT_BAD_INDEX 1
#define FIT_NO_MEMORY 2

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
