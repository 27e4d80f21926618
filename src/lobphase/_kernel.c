/* Three passes of lobphase.book, compiled.
 *
 * match, the arrival loop of match_arrivals, mirrors book._match_py step for
 * step: the same tests in the same order, heapq's sift logic on double heaps
 * (bids negated), so the outcome, beta and alpha arrays and the final heaps
 * equal the Python ones element for element.  It runs one chunk of arrivals
 * on heaps sized for the whole run, whose lengths nb and na it updates.
 * bins is NULL for the ordinary rule, where arrival i of the chunk has bin
 * i+1.
 *
 * top_shape is the top-shape recorder of book._top_shape_sums in one pass, and
 * refinement the domination pass of book._refinement_maxima.
 */
#include <math.h>
#include <stdint.h>

static void sift_down(double *h, long start, long pos) {
    double item = h[pos];
    while (pos > start) {
        long parent = (pos - 1) >> 1;
        if (!(item < h[parent])) break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

static void pop(double *h, long *n) {
    double item = h[--*n];
    long end = *n, pos = 0, child = 1;
    if (end == 0) return;
    while (child < end) {
        if (child + 1 < end && !(h[child] < h[child + 1])) child++;
        h[pos] = h[child];
        pos = child;
        child = 2 * pos + 1;
    }
    h[pos] = item;
    sift_down(h, 0, pos);
}

static void push(double *h, long *n, double x) {
    h[*n] = x;
    sift_down(h, 0, (*n)++);
}

/* bisect_right(cuts, x), or -1 for an empty side's quote */
static int64_t bin_of(const double *cuts, long ncuts, double x, double empty) {
    long lo = 0, hi = ncuts;
    if (x == empty) return -1;
    while (lo < hi) {
        long mid = (lo + hi) / 2;
        if (x < cuts[mid]) hi = mid; else lo = mid + 1;
    }
    return lo;
}

void match(long n, const uint8_t *is_bid, const double *prices, const int64_t *bins,
           const double *cuts, long ncuts, int strict, double rb, double ra,
           double *bids, long *nb, double *asks, long *na,
           uint8_t *outcome, double *beta_out, double *alpha_out) {
    double beta = *nb && -bids[0] > rb ? -bids[0] : rb;
    double alpha = *na && asks[0] < ra ? asks[0] : ra;
    int64_t bbin = bin_of(cuts, ncuts, beta, -INFINITY);
    int64_t abin = bin_of(cuts, ncuts, alpha, INFINITY);
    for (long i = 0; i < n; i++) {
        double p = prices[i];
        int64_t k = bins ? bins[i] : i + 1;
        if (is_bid[i]) {
            if (strict ? (p > alpha && k != abin) : (p > alpha || k == abin)) {
                if (alpha == ra) {
                    outcome[i] = 2;
                } else {
                    pop(asks, na);
                    alpha = *na && asks[0] < ra ? asks[0] : ra;
                    abin = bin_of(cuts, ncuts, alpha, INFINITY);
                    outcome[i] = 1;
                }
            } else {
                push(bids, nb, -p);
                if (p > beta) { beta = p; bbin = k; }
                outcome[i] = 0;
            }
        } else if (strict ? (p < beta && k != bbin) : (p < beta || k == bbin)) {
            if (beta == rb) {
                outcome[i] = 2;
            } else {
                pop(bids, nb);
                beta = *nb && -bids[0] > rb ? -bids[0] : rb;
                bbin = bin_of(cuts, ncuts, beta, -INFINITY);
                outcome[i] = 1;
            }
        } else {
            push(asks, na, p);
            if (p < alpha) { alpha = p; abin = k; }
            outcome[i] = 0;
        }
        beta_out[i] = beta;
        alpha_out[i] = alpha;
    }
}

/* Event i moves the resting-bid count of bin bid_bin[i] by bid_step[i]; then,
 * with the best bid in bin b = beta_bin[i], it adds counts[b - j] to
 * sums[b][j] for j = 0..min(max_offset, b): nothing when the bid side is
 * empty (b = -1).  counts (nbins) and sums (nbins x (max_offset + 1),
 * row-major) carry over from the previous chunk of the run, zeroed before
 * the first; integer sums are exact, so they equal the Python pass's in any
 * order. */
void top_shape(long n, const int64_t *beta_bin, const int64_t *bid_bin,
               const int64_t *bid_step, long max_offset, int64_t *counts,
               int64_t *sums) {
    for (long i = 0; i < n; i++) {
        int64_t b = beta_bin[i];
        counts[bid_bin[i]] += bid_step[i];
        for (long j = 0; j <= max_offset && j <= b; j++)
            sums[b * (max_offset + 1) + j] += counts[b - j];
    }
}

/* Point i carries two changes, 2i and 2i + 1: change j moves the bid count
 * (is_bid[j]) or the ask count of bin bins[j] by steps[j].  After both, the
 * largest prefix sum of the bid counts from bin 0 up goes to max_b[i], and of
 * the ask counts from bin nbins - 1 down to max_a[i]; a side that neither
 * change touched keeps its last maximum.  bid and ask (nbins each) start
 * zeroed, so each maximum starts at 0. */
void refinement(long n, const uint8_t *is_bid, const int64_t *bins, const int64_t *steps,
                long nbins, int64_t *bid, int64_t *ask, int64_t *max_b, int64_t *max_a) {
    int64_t best_b = 0, best_a = 0;
    for (long i = 0; i < n; i++) {
        int moved_b = 0, moved_a = 0;
        for (long j = 2 * i; j < 2 * i + 2; j++) {
            if (is_bid[j]) { bid[bins[j]] += steps[j]; moved_b = 1; }
            else { ask[bins[j]] += steps[j]; moved_a = 1; }
        }
        if (moved_b) {
            int64_t s = 0;
            best_b = INT64_MIN;
            for (long k = 0; k < nbins; k++) {
                s += bid[k];
                if (s > best_b) best_b = s;
            }
        }
        if (moved_a) {
            int64_t s = 0;
            best_a = INT64_MIN;
            for (long k = nbins - 1; k >= 0; k--) {
                s += ask[k];
                if (s > best_a) best_a = s;
            }
        }
        max_b[i] = best_b;
        max_a[i] = best_a;
    }
}
