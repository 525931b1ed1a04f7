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
 * Rank: the argsort of uniform keys in [0, 1), one O(n) pass per row
 * (bucket by floor(key * 2n), count, prefix-sum, scatter, then one
 * insertion pass).  It ranks the keys of every uniform random
 * permutation the host draws (repro.permutation.random_permutations),
 * the 5000 samples of the SA start temperature among them.  For
 * distinct keys the sorted order is unique, so it equals np.argsort; a
 * row with a key outside [0, 1) (NaN included) or two equal keys is
 * refused, and the caller sorts that chunk with np.argsort instead.
 *
 * Build flags are fixed by the loader (repro.seqopt.compiled): -O2
 * -ffp-contract=off, and never -ffast-math or -march=native, so a
 * multiply-add is never fused and every ISA produces the same bits.
 *
 * Return codes: 0 ok, 1 a job index outside [0, n), 2 out of memory,
 * 3 a row that is not a permutation (a repeated job), 4 a cut outside
 * 0 <= lo <= hi <= n, 5 a rank key outside [0, 1) or a tie.  Every index
 * is checked before it is read, and every write stays inside its row.
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
#define FIT_BAD_KEY 5

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

/*
 * One rank row: out[k] is the index of the k-th smallest key.  ``start``
 * holds 2n + 1 bucket offsets, ``sk``/``si`` n keys and their indices.
 * floor(key * 2n) is monotone in the key, so after the scatter the row is
 * sorted up to the order inside each bucket, which the insertion pass
 * finishes; a key equal to its left neighbour there is a tie.
 */
static int rank_row(const double *key, ptrdiff_t n, ptrdiff_t *start,
                    double *sk, int32_t *si, int32_t *out) {
    ptrdiff_t nb = 2 * n, k, j;

    memset(start, 0, (size_t)(nb + 1) * sizeof(ptrdiff_t));
    for (k = 0; k < n; k++) {
        double v = key[k];
        ptrdiff_t b;
        if (!(v >= 0.0 && v < 1.0)) return FIT_BAD_KEY;
        b = (ptrdiff_t)(v * (double)nb);
        start[(b < nb ? b : nb - 1) + 1]++;
    }
    for (j = 0; j < nb; j++) start[j + 1] += start[j];
    for (k = 0; k < n; k++) {
        ptrdiff_t b = (ptrdiff_t)(key[k] * (double)nb);
        ptrdiff_t at = start[b < nb ? b : nb - 1]++;
        sk[at] = key[k];
        si[at] = (int32_t)k;
    }
    for (k = 1; k < n; k++) {
        double v = sk[k];
        int32_t idx = si[k];
        for (j = k; j > 0 && sk[j - 1] > v; j--) {
            sk[j] = sk[j - 1];
            si[j] = si[j - 1];
        }
        if (j > 0 && sk[j - 1] == v) return FIT_BAD_KEY;
        sk[j] = v;
        si[j] = idx;
    }
    memcpy(out, si, (size_t)n * sizeof(int32_t));
    return FIT_OK;
}

/*
 * np.argsort of every row of the float64 (S, n) key matrix, as int32.
 * Returns FIT_BAD_KEY for a row with a key outside [0, 1) or a tie; rows
 * before it are written, the rest of ``out`` is not.
 */
int rank_uniform(const double *keys, ptrdiff_t s_rows, ptrdiff_t n,
                 int32_t *out) {
    size_t m = (size_t)(n > 0 ? n : 1);
    ptrdiff_t *start = (ptrdiff_t *)malloc((2 * m + 1) * sizeof(ptrdiff_t));
    double *sk = (double *)malloc(m * sizeof(double));
    int32_t *si = (int32_t *)malloc(m * sizeof(int32_t));
    ptrdiff_t i;
    int rc = FIT_OK;

    if (start == NULL || sk == NULL || si == NULL) rc = FIT_NO_MEMORY;
    for (i = 0; i < s_rows && rc == FIT_OK; i++)
        rc = rank_row(keys + i * n, n, start, sk, si, out + i * n);
    free(start);
    free(sk);
    free(si);
    return rc;
}
